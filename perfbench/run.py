"""Proof-workload benchmark for codeword-paradoxes.

    python3 perfbench/run.py --workload steane-search --seed 1 --seconds 30 --trace 0

Workloads (the CLI commands of one repetition, each run in-process through
codeword_paradoxes.cli.main with --format json):
  steane-search  `steane-search --max 10 --state both`: the parity search and
                 its revalidation, about nine tenths of the whole CLI's time.
  ks-proof       `ks --dump-set FILE`: KS set, orthogonality graph, context
                 enumeration and colouring, plus the dump of spanning vectors.
  code-sweep     96 small invocations (verify-code x3, reality x90, pentagon,
                 array, selftest --seed SEED) in an order shuffled by the seed;
                 caches warm after each code's first use, as in a library session.

Load is a closed loop with one client, one process and one thread: each
repetition runs in a fresh interpreter (worker.py), so the package's lru
caches start cold as for a real CLI call, and the next repetition starts only
after the previous one has ended.  Repetitions start until --seconds have
passed.  Every report is checked against the paper's numbers; an invocation
with a wrong exit code, verdict or number counts as failed.

--trace 0 prints the end-to-end metrics:
  wall_s       median over repetitions of the time spent in the CLI calls,
               at the reference host speed (below)
  setup_s      median time for a fresh interpreter to import
               codeword_paradoxes.cli, at the reference host speed
  peak_rss_mb  median peak resident memory of a repetition's process
failed_ratio = failed / attempted is printed with them and carried by the
`failed` and `attempted` fields of the result; it is 0 when every verdict is
right, so it is not a metric of its own.

Reference host speed: this benchmark runs on a few cores of a shared host
whose speed drifts by tens of percent within seconds, the same for the
program and for any other pure-Python code.  Each timing is therefore taken
together with the time of a fixed reference kernel (worker.reference_kernel,
sampled every 20 ms through a repetition, and just before and after an
import), and scaled by REFERENCE_KERNEL_S / that kernel time: the seconds the
run would have taken on a host where the kernel takes REFERENCE_KERNEL_S.
The unscaled medians are printed alongside.  The kernel's code is fixed, so a
change in the program moves the scaled times as it moves the unscaled ones,
except for its small effect on the kernel's own speed through shared caches.

--trace 1 alternates untraced and traced repetitions and prints the
per-layer metrics: each layer's self time per repetition (search and
revalidation per codeword), the layers' work counts, the primitive kernels'
per-call times, and the tracing overhead (traced minus untraced wall_s), all
times at the reference host speed.  A
count that differs between repetitions makes the run incorrect; a count that
differs from baseline.json is flagged on stderr.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  Work files go to .bench_build/perfbench/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKDIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("steane-search", "ks-proof", "code-sweep")
TIME_LIMIT_S = 170      # a run must end within 180 s
MIN_REPS = 3
IMPORT_PROBES = 10
REFERENCE_KERNEL_S = 300e-6   # about reference_kernel's mean on a 2-vCPU Xeon VM

# per-layer time metrics: span name -> metric; search spans are per codeword
LAYER_SPANS = {
    "paradoxes.search": "paradoxes.search_s",
    "paradoxes.revalidate": "paradoxes.revalidate_s",
    "kochen_specker.build_set": "kochen_specker.build_set_s",
    "kochen_specker.graph": "kochen_specker.graph_s",
    "kochen_specker.contexts": "kochen_specker.contexts_s",
    "kochen_specker.coloring": "kochen_specker.coloring_s",
    "kochen_specker.coloring_canonical": "kochen_specker.coloring_canonical_s",
    "stabilizer.close": "stabilizer.close_s",
    "stabilizer.verify_stabilizes": "stabilizer.verify_stabilizes_s",
    "stabilizer.invariant_subgroup": "stabilizer.invariant_subgroup_s",
    "stabilizer.knill_laflamme": "stabilizer.knill_laflamme_s",
    "paradoxes.determinations": "paradoxes.determinations_s",
    "paradoxes.parity_check": "paradoxes.parity_check_s",
    "paradoxes.array": "paradoxes.array_s",
    "selftest.dense_oracle": "selftest.dense_oracle_s",
    "selftest.apply_compose": "selftest.apply_compose_s",
    "selftest.algebra_laws": "selftest.algebra_laws_s",
    "selftest.parity_rediscovery": "selftest.parity_rediscovery_s",
    "report.to_json": "report.to_json_s",
    "cli.dump_set": "cli.dump_set_s",
    "cli": "cli.self_s",
}
PER_CODEWORD = {"paradoxes.search", "paradoxes.revalidate",
                "paradoxes.search_nodes", "paradoxes.instances",
                "paradoxes.complete_to_size", "paradoxes.eigensign_calls"}
COUNTS = ("paradoxes.search_nodes", "paradoxes.instances",
          "paradoxes.complete_to_size", "paradoxes.eigensign_calls",
          "kochen_specker.edges", "kochen_specker.contexts",
          "kochen_specker.decisions", "kochen_specker.propagations",
          "kochen_specker.conflicts", "stabilizer.kl_pairs")
KERNELS = ("pauli.mul_us", "statevector.apply_us", "statevector.eigensign_us",
           "statevector.inner_us")


class BenchError(Exception):
    """The benchmark could not produce a result."""


class Bench:
    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.deadline = time.monotonic() + TIME_LIMIT_S
        self.env = {k: v for k, v in os.environ.items()
                    if k != "CODEWORD_PARADOXES_REPORT_DIR"}
        self.attempted = 0
        self.failures: list[str] = []

    def worker(self, mode: str) -> dict:
        """One repetition in a fresh interpreter; waits for it to end."""
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError(f"out of time before a {mode} repetition")
        try:
            proc = subprocess.run(
                [sys.executable, WORKER, mode, self.workload, str(self.seed),
                 WORKDIR],
                cwd=ROOT, env=self.env, capture_output=True, text=True,
                timeout=timeout)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{mode} repetition did not end in time") from None
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not proc.stdout.strip():
            raise BenchError(f"{mode} repetition exited with {proc.returncode}")
        result = json.loads(proc.stdout.splitlines()[-1])
        self.attempted += result.get("attempted", 0)
        self.failures += result.get("failures", [])
        return result

    def repetitions(self, seconds: int, modes: tuple[str, ...]) -> list[tuple[str, dict]]:
        start = time.monotonic()
        reps = []
        while (len(reps) < MIN_REPS * len(modes)
               or time.monotonic() - start < seconds):
            mode = modes[len(reps) % len(modes)]
            reps.append((mode, self.worker(mode)))
        return reps

    def end_to_end(self, seconds: int) -> dict:
        reps = [r for _mode, r in self.repetitions(seconds, ("plain",))]
        probes = [self.worker("import") for _ in range(IMPORT_PROBES)]
        raw = [r["wall_s"] for r in reps]
        walls = [scaled(r, r["wall_s"]) for r in reps]
        imports = reps + probes
        setups = [r["import_s"] * REFERENCE_KERNEL_S / r["import_kernel_s"]
                  for r in imports]
        print(f"{self.workload}: wall_s over {len(walls)} repetitions: "
              f"median {statistics.median(walls):.4f} s{tail_text(walls)}, "
              f"min {min(walls):.4f} s, max {max(walls):.4f} s; unscaled "
              f"median {statistics.median(raw):.4f} s")
        print(f"{self.workload}: wall_s samples in order (unscaled/scaled): "
              + " ".join(f"{r:.4f}/{w:.4f}" for r, w in zip(raw, walls)))
        print(f"{self.workload}: setup_s over {len(setups)} imports; unscaled "
              f"median {statistics.median(r['import_s'] for r in imports):.4f} s")
        return {
            "wall_s": (statistics.median(walls), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in reps), "MB"),
        }

    def per_layer(self, seconds: int) -> tuple[dict, bool]:
        reps = self.repetitions(seconds, ("plain", "traced"))
        plain = [scaled(r, r["wall_s"]) for mode, r in reps if mode == "plain"]
        traced = [r for mode, r in reps if mode == "traced"]
        layers = [layer_values(r) for r in traced]
        metrics = {}
        for name in LAYER_SPANS.values():
            metrics[name] = (statistics.median(v[name] for v in layers), "s")
        repeatable = True
        for name in COUNTS:
            seen = sorted({v[name] for v in layers})
            if len(seen) > 1:
                repeatable = False
                print(f"count {name} differs between repetitions: {seen}",
                      file=sys.stderr)
            metrics[name] = (seen[0], "count")
        nodes = metrics["paradoxes.search_nodes"][0]
        metrics["paradoxes.hit_ratio"] = (
            metrics["paradoxes.instances"][0] / nodes if nodes else 0.0, "ratio")
        kernels = self.worker("kernels")
        for name in KERNELS:
            metrics[name] = (scaled(kernels, kernels["kernels"][name]), "us")
        traced_wall = statistics.median(scaled(r, r["wall_s"]) for r in traced)
        metrics["trace.wall_s"] = (traced_wall, "s")
        metrics["trace.overhead_s"] = (traced_wall - statistics.median(plain), "s")
        print(f"{self.workload}: {len(traced)} traced and {len(plain)} untraced "
              f"repetitions; tracing overhead {metrics['trace.overhead_s'][0]:.4f} s")
        flag_drift(self.workload, metrics)
        return metrics, repeatable


def tail_text(samples: list[float]) -> str:
    """The highest of p90/p75 with at least ten samples beyond it, if any."""
    for pct in (90, 75):
        if len(samples) * (100 - pct) >= 1000:
            cut = statistics.quantiles(samples, n=100)[pct - 1]
            return f", p{pct} {cut:.4f} s"
    return ""


def scaled(rep: dict, seconds: float) -> float:
    """A time measured in a repetition, at the reference host speed."""
    return seconds * REFERENCE_KERNEL_S / rep["kernel_s"]


def layer_values(rep: dict) -> dict:
    """Per-layer numbers of one traced repetition."""
    self_s = rep["self_s"]
    counts = rep["counts"]
    calls = counts.get("paradoxes.search_calls", 0)
    values = {}
    for span, name in LAYER_SPANS.items():
        values[name] = scaled(rep, self_s.get(span, 0.0))
    for name in COUNTS:
        values[name] = counts.get(name, 0)
    if calls:
        for key in PER_CODEWORD:
            name = LAYER_SPANS.get(key, key)
            whole, rest = divmod(values[name], calls)
            values[name] = whole if rest == 0 else values[name] / calls
    return values


def flag_drift(workload: str, metrics: dict) -> None:
    """Report counts that differ from the ones recorded in baseline.json."""
    try:
        with open(os.path.join(HERE, "baseline.json"), encoding="utf-8") as fh:
            recorded = json.load(fh)["workloads"][workload]["per_layer"]
    except (OSError, KeyError, ValueError) as exc:
        print(f"no baseline counts to compare with: {exc!r}", file=sys.stderr)
        return
    for name in COUNTS:
        if name in recorded and metrics[name][0] != recorded[name]:
            print(f"count drift: {workload} {name} = {metrics[name][0]}, "
                  f"baseline {recorded[name]}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "codeword_paradoxes", "cli.py")):
        print(f"error: no src/codeword_paradoxes under {ROOT}", file=sys.stderr)
        return 2
    os.makedirs(WORKDIR, exist_ok=True)
    bench = Bench(args.workload, args.seed)
    try:
        bench.worker("import")      # untimed: fills the bytecode cache
        if args.trace:
            metrics, repeatable = bench.per_layer(args.seconds)
        else:
            metrics, repeatable = bench.end_to_end(args.seconds), True
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    failed = len(bench.failures)
    for failure in bench.failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: failed_ratio "
          f"{failed / bench.attempted:.6g} ({failed} of {bench.attempted} invocations)")
    for name, (value, unit) in metrics.items():
        shown = f"{value:.6g}" if isinstance(value, float) else value
        print(f"{args.workload}: {name} = {shown} {unit}")
    print(json.dumps({
        "correct": failed == 0 and repeatable,
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
