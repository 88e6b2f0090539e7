import functools
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import codeword_paradoxes
from codeword_paradoxes import cli
from codeword_paradoxes.cli import main
from codeword_paradoxes.kochen_specker import (bit_indices,
                                               build_orthogonality_graph,
                                               canonical_contexts,
                                               enumerate_contexts)
from codeword_paradoxes.report import REPORT_DIR_ENV, Report
from conftest import coinciding
from test_golden import golden


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv, "--format", "json")
    return code, json.loads(out)


def test_verify_code_five(capsys):
    code, payload = run_json(capsys, "verify-code", "--code", "five")
    assert code == 0
    assert payload["verdict"] == "pass"
    checks = payload["details"]["checks"]
    assert checks["group_order"] == {"expected": 32, "got": 32}
    assert checks["invariant_subgroup_order"] == {"expected": 16, "got": 16}
    assert checks["error_correction_pairs"] == 256
    assert "+1 -1 ZZZZZ" in payload["details"]["group"]


def test_verify_code_mermin(capsys):
    code, payload = run_json(capsys, "verify-code", "--code", "mermin")
    assert code == 0
    checks = payload["details"]["checks"]
    assert checks["group_order"]["got"] == 8
    assert checks["uncorrectable_errors"][0]["fails_as_expected"] is True


def test_verify_code_steane(capsys):
    code, payload = run_json(capsys, "verify-code", "--code", "steane")
    assert code == 0
    assert payload["details"]["checks"]["group_order"]["got"] == 128


def test_verify_code_fails_when_the_codewords_coincide(capsys, monkeypatch):
    """With ZZZZZ at (+1, +1) every element is sign-stable, so the stable
    subgroup is the whole group and the codewords coincide: each error
    times itself lies in it, with the norm 16 as its off-diagonal term."""
    five = coinciding(cli.code_by_name("five"))
    monkeypatch.setattr(cli, "code_by_name", lambda name: five)
    code, payload = run_json(capsys, "verify-code", "--code", "five")
    assert code == 1
    assert payload["verdict"] == "fail"
    checks = payload["details"]["checks"]
    assert checks["codewords_orthogonal"] is False
    assert checks["group_order"] == {"expected": 32, "got": 32}
    assert checks["invariant_subgroup_order"] == {"expected": 16, "got": 32}
    assert checks["error_correction_ok"] is False
    failures = payload["details"]["error_correction_failures"]
    assert len(failures) == 16
    assert failures[0] == {"pair": ["IIIII", "IIIII"], "off_diagonal": "16",
                           "diag0": "16", "diag1": "16"}


def test_verify_code_text_report_lists_each_failing_pair(capsys, monkeypatch):
    five = coinciding(cli.code_by_name("five"))
    monkeypatch.setattr(cli, "code_by_name", lambda name: five)
    code, out = run_cli(capsys, "verify-code", "--code", "five")
    assert code == 1
    assert "('" not in out
    assert out.count("    pair:\n") == 16
    for err in five.correctable:
        assert f"    pair:\n      - {err}\n      - {err}\n" in out


def test_unknown_code_is_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["verify-code", "--code", "shor"])
    assert err.value.code == 2


def test_missing_command_is_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 2


def test_reality_counts(capsys):
    code, payload = run_json(capsys, "reality", "--code", "five",
                             "--site", "1", "--letter", "x")
    assert code == 0
    assert payload["details"]["determination_count"] == 8
    assert payload["details"]["compatible_pair_count"] == 5


def test_reality_cyclic_target(capsys):
    code, payload = run_json(capsys, "reality", "--code", "five",
                             "--site", "3", "--letter", "y")
    assert code == 0
    assert payload["details"]["determination_count"] == 8


def test_reality_mermin_witness(capsys):
    code, payload = run_json(capsys, "reality", "--code", "mermin",
                             "--site", "1", "--letter", "z")
    assert code == 0
    witnesses = {d["witness"] for d in payload["details"]["determinations"]}
    assert "IZI" in witnesses


def test_reality_site_out_of_range(capsys):
    with pytest.raises(SystemExit) as err:
        main(["reality", "--code", "mermin", "--site", "9", "--letter", "z"])
    assert err.value.code == 2


def test_pentagon(capsys):
    code, payload = run_json(capsys, "pentagon")
    assert code == 0
    assert payload["verdict"] == "contradiction-confirmed"
    for ws in (0, 1):
        inst = payload["details"]["instances"][f"codeword{ws}"]
        assert inst["contradiction"] is True
        assert inst["eigenvalue_product"] == -1


def test_array(capsys):
    code, payload = run_json(capsys, "array")
    assert code == 0
    det = payload["details"]
    assert det["impossibility"] is True
    assert det["col_products"][-1] == "-IIIII"
    assert det["shape"] == [6, 13]


def test_falsified_claim_exits_1(capsys, monkeypatch):
    check_array = cli.check_array
    monkeypatch.setattr(cli, "check_array", lambda arr:
                        check_array(arr)._replace(impossibility=False))
    code, payload = run_json(capsys, "array")
    assert code == 1
    assert payload["verdict"] == "fail"
    assert payload["details"]["impossibility"] is False


def test_unconfirmed_steane_example_exits_1(capsys, monkeypatch):
    check = cli.check_parity_contradiction
    monkeypatch.setattr(cli, "check_parity_contradiction", lambda inst, ws:
                        check(inst, ws)._replace(contradiction=False))
    code, payload = run_json(capsys, "steane-search", "--max", "4")
    assert code == 1
    assert payload["verdict"] == "fail"
    assert payload["details"]["results"]["codeword0"]["contradictions_found"] \
        == 2016


def test_ks(ks_dump_run):
    assert ks_dump_run.code == 0
    det = json.loads(ks_dump_run.out)["details"]
    assert det["vertices"] == 104
    assert det["projectors_per_dimension"] == "104/32 = 13/4"
    assert det["colorability"]["satisfiable"] is False
    assert det["canonical_contexts_alone_satisfiable"] is False
    assert det["canonical_contexts_found"] is True


def test_ks_reports_the_coloring_that_falsifies_it(capsys, monkeypatch,
                                                  ks_graph):
    """With the 32 classical kets as the only context, a coloring exists:
    ks exits 1 and reports it, one label per vertex."""
    kets = canonical_contexts(ks_graph)[0]
    monkeypatch.setattr(cli, "enumerate_contexts", lambda graph: [kets])
    code, payload = run_json(capsys, "ks")
    assert code == 1
    assert payload["verdict"] == "fail"
    det = payload["details"]
    assert det["canonical_contexts_found"] is False
    assert det["colorability"] == {"satisfiable": True, "decisions": 1,
                                   "propagations": 68, "conflicts": 0}
    ids = {v.label(): i for i, v in enumerate(ks_graph.vertices)}
    assert len(det["coloring"]) == 104 and det["coloring"].keys() == ids.keys()
    true = sum(1 << ids[label] for label, on in det["coloring"].items() if on)
    assert true.bit_count() == 1
    assert true & kets  # KS2
    assert not any(ks_graph.adj[u] & true for u in bit_indices(true))  # KS1


def _starve_context_enumeration(monkeypatch):
    # ks takes no budget option; its enumeration gets a budget of 5 nodes
    monkeypatch.setattr(cli, "enumerate_contexts",
                        functools.partial(enumerate_contexts, node_budget=5))


def test_ks_budget_exhaustion_exits_3(capsys, monkeypatch):
    _starve_context_enumeration(monkeypatch)
    code = main(["ks"])
    assert code == 3


@pytest.mark.parametrize("option", ["--budget", "--decision-budget"])
def test_ks_takes_no_budget_option(capsys, option):
    with pytest.raises(SystemExit) as err:
        main(["ks", option, "5"])
    assert err.value.code == 2


def test_steane_search_budget_exhaustion_exits_3(capsys):
    code = main(["steane-search", "--max", "10", "--budget", "100"])
    assert code == 3
    assert capsys.readouterr().err.startswith(
        "budget exhausted: parity search exhausted its budget at size 1 of 10")


def test_ks_dump_set(ks_dump_run):
    assert ks_dump_run.code == 0
    assert json.loads(ks_dump_run.out)["details"]["dump"] == str(ks_dump_run.path)
    dump = json.loads(ks_dump_run.path.read_text())
    assert len(dump["vertices"]) == 104
    assert len(dump["contexts"]) == 39
    assert all(len(e) == 2 for e in dump["edges"])


def test_dump_writes_amplitudes_from_the_integer_vectors(ks_dump_run):
    """Mutation amplitudes are ±1/4, written 1/2^2; the others are integers."""
    vertices = json.loads(ks_dump_run.path.read_text())["vertices"]
    unit = [v for v in vertices if v["provenance"] == ["mutation", 0, "I"]]
    assert len(unit) == 1
    (pairs,) = unit[0]["spanning_vectors"]
    assert ["00000", "1/2^2"] in pairs      # the paper's -1/4, times -1
    assert ["10010", "-1/2^2"] in pairs
    assert len(pairs) == 16
    assert {text for v in vertices for vec in v["spanning_vectors"]
            for _, text in vec} == {"1", "-1", "1/2^2", "-1/2^2"}
    for x in (-3, -1, 1, 5):
        for exp in (0, 1, 2):
            value = Fraction(x, 2 ** exp)
            k = value.denominator.bit_length() - 1
            want = f"{value.numerator}/2^{k}" if k else str(value.numerator)
            assert cli._amplitude_text(x, exp) == want


def _dump_payload(graph, contexts):
    """The dump's content as json.dump(payload, sort_keys=True, indent=2)
    serialises it: the oracle for the dump writer.  Edges are read off the
    adjacency masks, each pair once."""
    return {
        "vertices": [
            {
                "id": i,
                "rank": v.rank,
                "kind": v.kind,
                "label": v.label(),
                "provenance": list(v.provenance),
                "spanning_vectors": [
                    [(format(j, "05b"), cli._amplitude_text(x, v.scale_exp))
                     for j, x in enumerate(iv) if x]
                    for iv in v.ivecs],
            }
            for i, v in enumerate(graph.vertices)
        ],
        "edges": [(u, v) for u in range(len(graph.vertices))
                  for v in bit_indices(graph.adj[u]) if v > u],
        "contexts": [bit_indices(c) for c in contexts],
    }


@pytest.mark.parametrize("ids, has_edges, has_contexts", [
    (None, True, True),
    ([0], False, False),
    ([40], False, False),
    ([100], False, False),
    ([0, 1], True, False),
    (list(range(32)), True, True),
    (list(range(32, 104)), True, True),
], ids=["full", "one-ket", "one-mutation", "one-row", "two-kets",
        "kets", "mutations-and-rows"])
def test_dump_writer_matches_the_json_module(ks_vertices, ks_graph,
                                             ks_contexts, tmp_path, ids,
                                             has_edges, has_contexts):
    if ids is None:
        graph, contexts = ks_graph, ks_contexts
    else:
        graph = build_orthogonality_graph([ks_vertices[i] for i in ids])
        contexts = enumerate_contexts(graph)
    payload = _dump_payload(graph, contexts)
    assert (bool(payload["edges"]), bool(contexts)) == (has_edges,
                                                        has_contexts)
    path = tmp_path / "dump.json"
    cli._dump_ks_set(str(path), graph, contexts)
    expected = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    assert path.read_bytes() == expected.encode("ascii")


@pytest.mark.parametrize("argv", [
    ["steane-search", "--max", "-3"],
    ["steane-search", "--max", "0"],
    ["steane-search", "--budget", "-1"],
])
def test_out_of_range_bounds_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert "must be at least" in capsys.readouterr().err


@pytest.mark.parametrize("state", ["0", "1"])
def test_steane_search_one_state_matches_its_golden_entry(capsys, state):
    code, payload = run_json(capsys, "steane-search", "--max", "10",
                             "--state", state)
    assert code == 0
    results = json.loads(golden("steane-search"))["details"]["results"]
    entry = f"codeword{state}"
    assert payload["details"]["results"] == {entry: results[entry]}


def test_steane_search_single_state(capsys):
    code, payload = run_json(capsys, "steane-search", "--max", "4",
                             "--state", "1")
    assert code == 0
    assert list(payload["details"]["results"]) == ["codeword1"]


def test_selftest(capsys):
    for seed in ("1", "2", "3"):
        code, payload = run_json(capsys, "selftest", "--seed", seed)
        assert code == 0
        assert payload["details"]["seed"] == int(seed)
        assert all(s["ok"] for s in payload["details"]["suites"])


def test_json_output_is_deterministic(capsys):
    _, first = run_cli(capsys, "pentagon", "--format", "json")
    _, second = run_cli(capsys, "pentagon", "--format", "json")
    assert first == second


def test_report_dir_env(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv(REPORT_DIR_ENV, str(tmp_path))
    code, _ = run_cli(capsys, "array", "--format", "json")
    assert code == 0
    written = json.loads((tmp_path / "array.json").read_text())
    assert written["verdict"] == "contradiction-confirmed"


def test_json_report_is_encoded_once_for_stdout_and_report_dir(
        capsys, tmp_path, monkeypatch):
    monkeypatch.setenv(REPORT_DIR_ENV, str(tmp_path))
    calls = []
    to_json = Report.to_json

    def counted(report):
        calls.append(report.command)
        return to_json(report)

    monkeypatch.setattr(Report, "to_json", counted)
    code, out = run_cli(capsys, "array", "--format", "json")
    assert code == 0
    assert calls == ["array"]
    assert (tmp_path / "array.json").read_text(encoding="utf-8") == out


def test_text_report_still_writes_the_json_file(capsys, tmp_path, monkeypatch):
    _, encoded = run_cli(capsys, "array", "--format", "json")
    monkeypatch.setenv(REPORT_DIR_ENV, str(tmp_path))
    code, out = run_cli(capsys, "array")
    path = tmp_path / "array.json"
    assert code == 0
    assert out.startswith("command: array\n")
    assert out.endswith(f"report written to {path}\n")
    assert path.read_text(encoding="utf-8") == encoded


def test_unwritable_dump_path_is_usage_error(capsys, tmp_path, monkeypatch):
    def no_proof():
        raise AssertionError("the proof ran before the dump path was opened")

    # the path is opened before any proof work
    monkeypatch.setattr(cli, "build_ks_set", no_proof)
    code = main(["ks", "--dump-set", str(tmp_path / "missing" / "x.json")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_exhausted_ks_budget_leaves_the_dump_path_as_it_was(capsys, tmp_path,
                                                           monkeypatch):
    _starve_context_enumeration(monkeypatch)
    fresh = tmp_path / "fresh.json"
    assert main(["ks", "--dump-set", str(fresh)]) == 3
    assert not fresh.exists()
    older = tmp_path / "older.json"
    older.write_text("an older dump\n")
    assert main(["ks", "--dump-set", str(older)]) == 3
    assert older.read_text() == "an older dump\n"


def test_report_dir_that_is_a_file_is_usage_error(capsys, tmp_path, monkeypatch):
    blocker = tmp_path / "not-a-dir"
    blocker.write_text("")
    monkeypatch.setenv(REPORT_DIR_ENV, str(blocker))
    code = main(["array", "--format", "json"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1


def test_text_format_mentions_verdict(capsys):
    code, out = run_cli(capsys, "verify-code", "--code", "mermin")
    assert code == 0
    assert "verdict: pass" in out


def test_console_script_entry_point():
    # the child interpreter imports the package this one imported, also
    # when it comes from a checkout that is not installed
    src = str(Path(codeword_paradoxes.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "codeword_paradoxes.cli", "verify-code",
         "--code", "mermin", "--format", "json"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["verdict"] == "pass"
