"""Byte-for-byte golden outputs of the CLI's JSON reports.

Each file under tests/golden/ is the exact stdout of one command run with
--format json: one file per CASES entry, plus ks.json.  CASES is the one
list of golden reports; tier-1 and CI's installed-package smoke step both
read it.  The ks report echoes the --dump-set path, which is written as
the placeholder "<dump>" (with_dump_placeholder); the dump file itself
(about 200 KB) is pinned by its sha256 instead of being committed.  Here
that run is the session's shared `ks_dump_run` (conftest.py).
"""

import hashlib
import json
from pathlib import Path

import pytest

from codeword_paradoxes import cli
from codeword_paradoxes.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"

KS_DUMP_SHA256 = (
    "8431309d3c3b902241e402517e3533837b6cf677e44c53788d43865a5f9e1dfb")

CASES = {
    "verify-code_five": ["verify-code", "--code", "five"],
    "verify-code_mermin": ["verify-code", "--code", "mermin"],
    "verify-code_steane": ["verify-code", "--code", "steane"],
    "reality_five_1x": ["reality", "--code", "five", "--site", "1",
                        "--letter", "x"],
    "reality_five_3y_state1": ["reality", "--code", "five", "--site", "3",
                               "--letter", "y", "--state", "1"],
    "reality_mermin_1z": ["reality", "--code", "mermin", "--site", "1",
                          "--letter", "z"],
    "reality_steane_2z": ["reality", "--code", "steane", "--site", "2",
                          "--letter", "z"],
    "pentagon": ["pentagon"],
    "array": ["array"],
    "selftest_seed0": ["selftest", "--seed", "0"],
    "steane-search": ["steane-search"],
}


def golden(name: str) -> str:
    """The golden file's exact text (no newline translation)."""
    return (GOLDEN_DIR / f"{name}.json").read_bytes().decode("utf-8")


def with_dump_placeholder(ks_report: str, dump_path) -> str:
    """A ks report with its --dump-set path written as "<dump>"."""
    return ks_report.replace(json.dumps(str(dump_path)), '"<dump>"')


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(capsys, name):
    assert main(CASES[name] + ["--format", "json"]) == 0
    assert capsys.readouterr().out == golden(name)


def test_every_golden_file_has_its_case():
    # a golden file that no test reads, or a case without its file, fails
    files = sorted(path.name for path in GOLDEN_DIR.iterdir())
    assert files == sorted(f"{name}.json" for name in [*CASES, "ks"])


def test_one_parser_serves_every_call(capsys):
    """main() builds its parser once per process; a usage error between
    calls leaves it intact, and no option value leaks into the next call
    (the state-1 reality run comes before a default-state one)."""
    cli._build_parser.cache_clear()
    names = ["reality_five_3y_state1", "verify-code_mermin", "array",
             "reality_mermin_1z"]
    for name in names:
        assert main(CASES[name] + ["--format", "json"]) == 0
        assert capsys.readouterr().out == golden(name)
        with pytest.raises(SystemExit) as err:
            main(["reality", "--code", "five", "--site", "1", "--letter", "w"])
        assert err.value.code == 2
    info = cli._build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 2 * len(names) - 1)


def test_ks_report_and_dump_match_golden(ks_dump_run):
    assert ks_dump_run.code == 0
    path = ks_dump_run.path
    assert with_dump_placeholder(ks_dump_run.out, path) == golden("ks")
    assert hashlib.sha256(path.read_bytes()).hexdigest() == KS_DUMP_SHA256
