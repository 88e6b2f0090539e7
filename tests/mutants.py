"""The mutation table: deliberate faults that the suite must catch.

Each row names a file under src/, an exact text that occurs in it once, the
text that replaces it, and the tests that must then fail.  No row is an
equivalent mutant, one that changes no result: such a row would always
survive.  Run from anywhere:

    python tests/mutants.py

The runner copies src/ to a temporary directory and runs tests with
PYTHONPATH set to the copy.  It passes -o pythonpath= because
pyproject.toml's pythonpath = ["src"] would otherwise put the unmutated
src/ first.  It first runs every row's tests on the unmutated copy, which
must pass: a test that fails there (perfbench's worker, say, imports only
from the checkout's src/) would kill every mutant.  Then, for each row, it
applies the row to a fresh copy and runs its tests.  It exits 1 when a
mutant survives, when pytest stops for another reason than failed tests, or
when an old text does not occur exactly once.  pytest does not collect this
file; tests/test_package.py checks that every old text still occurs exactly
once.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


class Mutant(NamedTuple):
    path: str  # under src/
    old: str
    new: str
    tests: tuple[str, ...]  # test files or node ids, from the root


MUTANTS = [
    # KL: at order 2**n the codewords coincide and no pair lies in S
    Mutant("codeword_paradoxes/stabilizer.py",
           "in_s = stable._by_xz if len(stable) == 1 << (stable.n - 1) else {}",
           "in_s = stable._by_xz",
           ("tests/test_stabilizer.py",)),
    # KL: a syndrome against only some elements of S
    Mutant("codeword_paradoxes/stabilizer.py",
           "for k, g in enumerate(stable)",
           "for k, g in enumerate(stable.elements[:6])",
           ("tests/test_stabilizer.py",)),
    # parity search: a triple's third member must come after the second
    Mutant("codeword_paradoxes/paradoxes.py",
           "if i <= k:",
           "if i < k:",
           ("tests/test_paradoxes.py",)),
    # the Pauli product's phase
    Mutant("codeword_paradoxes/pauli.py",
           "2 * (z1 & x2).bit_count()",
           "2 * (x1 & z2).bit_count()",
           ("tests/test_pauli.py",)),
    # orthogonality of 0/±1 vectors from their sign masks
    Mutant("codeword_paradoxes/kochen_specker.py",
           "if 2 * (c & (nu ^ nw)).bit_count() != c.bit_count():",
           "if 2 * (c & (nu ^ nw)).bit_count() == c.bit_count():",
           ("tests/test_kochen_specker.py",)),
    # the graph's adjacency must be symmetric
    Mutant("codeword_paradoxes/kochen_specker.py",
           "                adj[j] |= 1 << i\n",
           "",
           ("tests/test_kochen_specker.py",)),
    # ks reports the coloring that falsifies it
    Mutant("codeword_paradoxes/cli.py",
           'details["coloring"]',
           'details["colouring"]',
           ("tests/test_cli.py",)),
    # a text report shows a tuple as a list
    Mutant("codeword_paradoxes/report.py",
           "if isinstance(sub, (dict, list, tuple)) and sub:",
           "if isinstance(sub, (dict, list)) and sub:",
           ("tests/test_report.py::test_text_form_shows_a_tuple_as_a_list",
            "tests/test_cli.py")),
]


def occurrences(mutant: Mutant) -> int:
    return (SRC / mutant.path).read_text(encoding="utf-8").count(mutant.old)


def pytest_exit_code(tests, mutant: Mutant | None = None) -> int:
    """pytest's exit code for tests against a copy of src/, with mutant
    applied when one is given: 1 when they fail, 0 when they pass."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "src"
        shutil.copytree(SRC, copy,
                        ignore=shutil.ignore_patterns("__pycache__"))
        if mutant:
            target = copy / mutant.path
            text = target.read_text(encoding="utf-8")
            target.write_text(text.replace(mutant.old, mutant.new),
                              encoding="utf-8")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(copy), env.get("PYTHONPATH")]))
        return subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p",
             "no:cacheprovider", "-o", "pythonpath=", *tests],
            cwd=ROOT, env=env, stdout=subprocess.DEVNULL).returncode


def main() -> int:
    misplaced = [m for m in MUTANTS if occurrences(m) != 1]
    for m in misplaced:
        print(f"{m.path}: {m.old!r} occurs {occurrences(m)} times, not once")
    if misplaced:
        return 1
    tests = sorted({t for m in MUTANTS for t in m.tests})
    if code := pytest_exit_code(tests):
        print(f"the rows' tests fail on unmutated src/ (pytest exit {code})")
        return 1
    failed = 0
    for m in MUTANTS:
        code = pytest_exit_code(m.tests, m)
        status = {0: "SURVIVED", 1: "killed"}.get(code, f"pytest exit {code}")
        print(f"{status}: {m.path}: {m.old.strip()!r} -> {m.new.strip()!r}")
        failed += code != 1
    print(f"{len(MUTANTS) - failed} of {len(MUTANTS)} mutants killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
