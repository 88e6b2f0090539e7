"""One repetition of a benchmark workload, in a fresh interpreter.

    python3 perfbench/worker.py MODE WORKLOAD SEED WORKDIR

MODE is one of
  import   time `import codeword_paradoxes.cli` and nothing else;
  plain    run the workload's CLI invocations untraced;
  traced   the same, with spans around the package's layers (spans.py);
  kernels  time the primitive kernels per call.
Prints one JSON object on stdout.  A fresh interpreter per repetition means
the package's lru caches start cold, as they do for every real CLI call.
The package is imported from the src/ directory next to this benchmark and
from nowhere else.

The host's speed drifts by tens of percent within seconds, so every timing
comes with the time of a fixed reference kernel measured alongside it: the
import between runs of the kernel just before and just after, the other
modes with the kernel run every PROBE_INTERVAL_S of wall time from a
SIGALRM handler (SpeedProbe).  run.py scales the timings by that host speed.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PROBE_INTERVAL_S = 0.02
IMPORT_KERNEL_RUNS = 10


def reference_kernel() -> int:
    """Fixed interpreter work of about 0.3 ms: small-int arithmetic and dict
    stores, the kind of work the package's Python code does."""
    total, table = 0, {}
    for i in range(1500):
        total += i * i % 7
        table[i & 63] = (total, i)
    return total


def kernel_time() -> float:
    start = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - start


def timed_import() -> tuple[float, float]:
    """Seconds to import the CLI module, the set-up every invocation pays, and
    the mean reference-kernel time just before and just after it."""
    sys.path.insert(0, SRC)
    kernels = [kernel_time() for _ in range(IMPORT_KERNEL_RUNS)]
    start = time.perf_counter()
    import codeword_paradoxes.cli  # noqa: F401
    elapsed = time.perf_counter() - start
    kernels += [kernel_time() for _ in range(IMPORT_KERNEL_RUNS)]
    found = codeword_paradoxes.cli.__file__
    if not os.path.abspath(found).startswith(SRC + os.sep):
        raise SystemExit(f"imported codeword_paradoxes from {found}, not {SRC}")
    return elapsed, sum(kernels) / len(kernels)


IMPORT_S, IMPORT_KERNEL_S = timed_import()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402

from codeword_paradoxes import cli  # noqa: E402

CONTRADICTION = "contradiction-confirmed"
VERDICTS = {"verify-code": "pass", "reality": "pass", "selftest": "pass",
            "pentagon": CONTRADICTION, "array": CONTRADICTION,
            "ks": CONTRADICTION, "steane-search": CONTRADICTION}
CODE_SITES = {"five": 5, "mermin": 3, "steane": 7}
GROUP_ORDERS = {"five": (32, 16), "mermin": (8, 4), "steane": (128, 64)}
DETERMINATIONS = {"five": 8, "mermin": 2, "steane": 32}


def invocations(workload: str, seed: int, workdir: str) -> list[list[str]]:
    """The CLI argument lists of one repetition, without --format."""
    if workload == "steane-search":
        return [["steane-search", "--max", "10", "--state", "both"]]
    if workload == "ks-proof":
        dump = os.path.join(workdir, f"ks-set-{os.getpid()}.json")
        return [["ks", "--dump-set", dump]]
    if workload == "code-sweep":
        argvs = [["verify-code", "--code", code] for code in CODE_SITES]
        argvs += [["reality", "--code", code, "--site", str(site),
                   "--letter", letter, "--state", str(state)]
                  for code, n in CODE_SITES.items()
                  for site in range(1, n + 1)
                  for letter in "xyz"
                  for state in (0, 1)]
        argvs += [["pentagon"], ["array"], ["selftest", "--seed", str(seed)]]
        random.Random(seed).shuffle(argvs)
        return argvs
    raise SystemExit(f"unknown workload {workload!r}")


def claims(argv: list[str], details: dict) -> list[tuple]:
    """(what, got, expected) for each paper number the report must carry."""
    command = argv[0]
    opt = dict(zip(argv[1::2], argv[2::2]))
    if command == "verify-code":
        order, stable = GROUP_ORDERS[opt["--code"]]
        checks = details["checks"]
        return [("group order", checks["group_order"]["got"], order),
                ("invariant subgroup order",
                 checks["invariant_subgroup_order"]["got"], stable)]
    if command == "reality":
        code = opt["--code"]
        out = [("determinations", details["determination_count"],
                DETERMINATIONS[code])]
        if code == "five":
            out.append(("compatible pairs", details["compatible_pair_count"], 5))
        return out
    if command == "pentagon":
        return [(f"{cw} contradiction", details["instances"][cw]["contradiction"],
                 True) for cw in ("codeword0", "codeword1")]
    if command == "array":
        return [("impossibility", details["impossibility"], True)]
    if command == "ks":
        with open(opt["--dump-set"], encoding="utf-8") as fh:
            dump = json.load(fh)
        return [("vertices", details["vertices"], 104),
                ("edges", details["edges"], 3084),
                ("contexts", details["contexts"], 39),
                ("satisfiable", details["colorability"]["satisfiable"], False),
                ("dumped vertices", len(dump["vertices"]), 104),
                ("dumped edges", len(dump["edges"]), 3084),
                ("dumped contexts", len(dump["contexts"]), 39)]
    if command == "steane-search":
        out = []
        for cw in ("codeword0", "codeword1"):
            res = details["results"][cw]
            out += [(f"{cw} minimal size", res["minimal_size"], 4),
                    (f"{cw} subset sizes", res["subset_sizes"], [4]),
                    (f"{cw} instances at size 4", res["contradictions_found"], 2016)]
        return out
    if command == "selftest":
        suites = details["suites"]
        return [("suites", len(suites), 4)] + [
            (f"suite {s['name']} ok", s["ok"], True) for s in suites]
    raise ValueError(f"no checks for command {command!r}")


def problems(argv: list[str], exit_code, output: str) -> list[str]:
    """Why one invocation's result is wrong; empty when it is right."""
    found = [] if exit_code == 0 else [f"exit code {exit_code}"]
    try:
        report = json.loads(output)
        if report["verdict"] != VERDICTS[argv[0]]:
            found.append(f"verdict {report['verdict']!r}")
        found += [f"{what}: got {got!r}, expected {want!r}"
                  for what, got, want in claims(argv, report["details"])
                  if got != want]
    except (ValueError, KeyError, TypeError, IndexError, OSError) as exc:
        found.append(f"unreadable report: {exc!r}")
    return found


def invoke(argv: list[str]) -> tuple[object, str, float]:
    """Run one CLI invocation in-process: exit code, captured stdout, seconds."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        start = time.perf_counter()
        try:
            exit_code = cli.main(argv + ["--format", "json"])
        except SystemExit as exc:
            exit_code = exc.code
        except Exception:  # counted as a failed invocation, reported below
            traceback.print_exc(file=sys.stderr)
            exit_code = "exception"
        elapsed = time.perf_counter() - start
    return exit_code, out.getvalue(), elapsed


class SpeedProbe:
    """Times reference_kernel every PROBE_INTERVAL_S of wall time while
    active.  The samples are spread evenly over wall time, as the
    repetition's own time is, so their mean is the host's speed over the
    repetition.  `busy` is the time the samples took, which the callers take
    out of the times they measure; `intervals` lets a tracer take each
    sample out of the self time of the span it interrupted."""

    def __init__(self):
        self.intervals: list[tuple[float, float]] = []
        self.busy = 0.0

    def _sample(self, _signum, _frame):
        start = time.perf_counter()
        reference_kernel()
        end = time.perf_counter()
        self.intervals.append((start, end))
        self.busy += end - start

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *_exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def speed(self) -> dict:
        """The mean kernel time, by which run.py scales this process's times."""
        if not self.intervals:
            raise SystemExit("the speed probe took no samples")
        return {"kernel_s": self.busy / len(self.intervals),
                "kernel_samples": len(self.intervals)}


def run_workload(workload: str, seed: int, workdir: str, probe: SpeedProbe,
                 tracer=None) -> dict:
    argvs = invocations(workload, seed, workdir)
    call = invoke if tracer is None else tracer.wrap(invoke, "cli")
    wall = 0.0
    failures = []
    for argv in argvs:
        busy = probe.busy
        exit_code, output, elapsed = call(argv)
        wall += elapsed - (probe.busy - busy)
        found = problems(argv, exit_code, output)
        if found:
            failures.append(f"{' '.join(argv)}: {'; '.join(found)}")
        if argv[0] == "ks":
            with contextlib.suppress(FileNotFoundError):
                os.remove(argv[2])
    return {"wall_s": wall, "attempted": len(argvs), "failures": failures}


def kernel_timings(seed: int, probe: SpeedProbe) -> dict:
    """Per-call microseconds of the primitives at n=7, on Steane group
    elements drawn by the seed and the Steane codewords."""
    from codeword_paradoxes.codes import steane_code
    from codeword_paradoxes.dyadic import Dyadic
    from codeword_paradoxes.statevector import apply, eigensign, inner

    code = steane_code()
    group = code.group()
    keys = {(e.op.x, e.op.z) for e in group}
    rng = random.Random(seed)
    elements = list(group)
    pairs = [(rng.choice(elements).op, rng.choice(elements).op) for _ in range(2000)]
    signed = []
    for _ in range(200):
        e = rng.choice(elements)
        w = rng.randrange(2)
        signed.append((e.op, code.codeword(w), e.sign(w)))
    images = [(v, apply(op, v), s) for op, v, s in signed]

    def per_call_us(fn, args_list, batches=7):
        times = []
        for _ in range(batches):
            busy = probe.busy
            start = time.perf_counter()
            for args in args_list:
                fn(*args)
            times.append(time.perf_counter() - start - (probe.busy - busy))
        return statistics.median(times) / len(args_list) * 1e6

    wrong = []
    if any(((a * b).x, (a * b).z) not in keys for a, b in pairs):
        wrong.append("a product of group elements left the group")
    if any(eigensign(op, v) != s for op, v, s in signed):
        wrong.append("eigensign disagrees with the group's signs")
    if any(w != (v if s == 1 else -v) for v, w, s in images):
        wrong.append("apply does not return ±codeword")
    if any(inner(v, w) != Dyadic(s * code.norm2) for v, w, s in images):
        wrong.append("inner product is not ±norm2")
    failures = [f"kernels: {'; '.join(wrong)}"] if wrong else []
    metrics = {
        "pauli.mul_us": per_call_us(lambda a, b: a * b, pairs),
        "statevector.apply_us": per_call_us(apply, [s[:2] for s in signed]),
        "statevector.eigensign_us": per_call_us(eigensign, [s[:2] for s in signed]),
        "statevector.inner_us": per_call_us(inner, [i[:2] for i in images]),
    }
    return {"attempted": 1, "failures": failures, "kernels": metrics}


def main() -> int:
    mode, workload, seed, workdir = sys.argv[1:5]
    seed = int(seed)
    result = {"import_s": IMPORT_S, "import_kernel_s": IMPORT_KERNEL_S}
    if mode == "plain":
        with SpeedProbe() as probe:
            result.update(run_workload(workload, seed, workdir, probe))
        result.update(probe.speed())
    elif mode == "traced":
        import spans
        tracer = spans.Tracer()
        spans.install(tracer)
        with SpeedProbe() as probe:
            result.update(run_workload(workload, seed, workdir, probe, tracer))
        result.update(probe.speed())
        result["self_s"] = tracer.self_times(probe.intervals)
        result["counts"] = dict(tracer.counts)
        tracer.write(os.path.join(workdir, f"spans-{workload}.json"))
    elif mode == "kernels":
        with SpeedProbe() as probe:
            result.update(kernel_timings(seed, probe))
        result.update(probe.speed())
    elif mode != "import":
        raise SystemExit(f"unknown mode {mode!r}")
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
