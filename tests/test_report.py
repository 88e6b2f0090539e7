"""Report.to_json against its oracle, the stdlib encoder: every report is
exactly json.dumps(fields, sort_keys=True, indent=2) plus a newline, and a
value the contract does not allow raises TypeError."""

import importlib.util
import json
from collections import Counter
from pathlib import Path

import pytest

from codeword_paradoxes import __version__, cli
from codeword_paradoxes.report import Report
from test_golden import CASES

WORKER = Path(__file__).resolve().parents[1] / "perfbench" / "worker.py"


def stdlib_json(report: Report) -> str:
    fields = {**report._asdict(), "version": __version__}
    return json.dumps(fields, sort_keys=True, indent=2) + "\n"


def report_of(argv: list[str]) -> Report:
    args = cli._build_parser().parse_args(argv)
    return args.handler(args)


@pytest.mark.parametrize("name", sorted(CASES) + ["ks"])
def test_golden_reports_encode_as_the_stdlib_does(tmp_path, name):
    argv = (["ks", "--dump-set", str(tmp_path / "ks.json")] if name == "ks"
            else CASES[name])
    report = report_of(argv)
    assert report.to_json() == stdlib_json(report)


def test_code_sweep_reports_encode_as_the_stdlib_does(tmp_path):
    spec = importlib.util.spec_from_file_location("perfbench_worker", WORKER)
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    argvs = worker.invocations("code-sweep", 0, str(tmp_path))
    assert sum(argv[0] == "reality" for argv in argvs) == 90
    for argv in argvs:
        report = report_of(argv)
        assert report.to_json() == stdlib_json(report), argv


EDGE_TEXTS = ["", "plain", "café", "☃", "\U0001f600", "\x00\x1f\x7f",
              'a "quote"', "back\\slash", "tab\tnew\nline\r"]


def test_edge_cases_encode_as_the_stdlib_does():
    details = {
        "empty_dict": {},
        "empty_list": [],
        "nested_empties": {"a": [], "b": [{}], "c": [[], [[]], {"d": {}}]},
        # int keys sort as ints (2 before 10), then are written as strings
        "counter": Counter({10: 1, 2: 3, -1: 4, 0: 0}),
        "tuples": (1, (2, "x"), (), [()]),
        "constants": [True, False, None, {"t": True, "f": False, "n": None}],
        "ints": [0, -5, 2**64, 2**64 + 1, -(2**70), 10**40],
        "texts": EDGE_TEXTS,
    }
    details.update({f"key {text}": text for text in EDGE_TEXTS})
    for report in (Report("edge", "pass", None, details),
                   Report("cé", "fail", 'code "\\"', {}),
                   Report("", "", "", {"": [{"": ""}]})):
        assert report.to_json() == stdlib_json(report)


def test_text_form_shows_a_tuple_as_a_list():
    def text(details):
        return Report("c", "fail", None, details).to_text()
    assert text({"pair": ("XI", "IX"), "signs": [(1, -1)], "none": ()}) \
        == text({"pair": ["XI", "IX"], "signs": [[1, -1]], "none": []})


@pytest.mark.parametrize("details", [
    {"float": 0.5}, {"whole_float": 1.0}, {"nested": [1, [2.5]]},
    {"set": {1, 2}}, {"frozenset": frozenset()}, {"bytes": b"x"},
    {"bool_key": {True: 1}}, {"float_key": {1.5: 1}}, {"none_key": {None: 1}},
], ids=lambda d: next(iter(d)))
def test_values_outside_the_contract_raise_type_error(details):
    with pytest.raises(TypeError):
        Report("c", "pass", None, details).to_json()
