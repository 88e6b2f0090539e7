"""The benchmark's tracer must find every layer entry point it wraps.

perfbench/spans.py patches names on the package modules from outside; a
rename inside the package would leave its span silently reading 0.
"""

import contextlib
import importlib.util
from collections import Counter
from pathlib import Path

from codeword_paradoxes import cli, codes, paradoxes, report, selftest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@contextlib.contextmanager
def _traced():
    """perfbench's tracer installed on the package; every patched attribute
    is restored on exit."""
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    targets = (cli, codes, paradoxes, selftest, report.Report)
    saved = [(t, dict(vars(t))) for t in targets]
    tracer = spans.Tracer()
    try:
        spans.install(tracer)
        yield tracer
    finally:
        for target, attrs in saved:
            for name, value in attrs.items():
                if vars(target).get(name) is not value:
                    setattr(target, name, value)


def test_every_traced_entry_point_exists(capsys):
    with _traced():
        pass
    err = capsys.readouterr().err
    assert "not found; span" not in err, err


def test_ks_traces_both_colorings(capsys):
    # the canonical colouring is told apart by the identity of the list
    # canonical_contexts returns; a copy would leave its span empty
    with _traced() as tracer:
        assert cli.main(["ks", "--format", "json"]) == 0
    names = Counter(span[0] for span in tracer.spans)
    assert names["kochen_specker.coloring"] == 1
    assert names["kochen_specker.coloring_canonical"] == 1
    assert tracer.counts["kochen_specker.decisions"] == 681


def test_steane_search_counts_read_the_search_result(capsys):
    # spans._search_counts reads ParitySearchResult fields by name; a
    # renamed field would only show in a traced bench run
    with _traced() as tracer:
        assert cli.main(["steane-search", "--max", "4", "--state", "0",
                         "--format", "json"]) == 0
    assert tracer.counts["paradoxes.search_calls"] == 1
    assert tracer.counts["paradoxes.search_nodes"] == 341_503
    assert tracer.counts["paradoxes.instances"] == 2016
    assert tracer.counts["paradoxes.complete_to_size"] == 4


def test_steane_search_both_codewords_search_once(capsys):
    # one search serves both codewords' entries, with the same work counts
    # as a single-codeword run
    with _traced() as tracer:
        assert cli.main(["steane-search", "--max", "4", "--state", "both",
                         "--format", "json"]) == 0
    assert tracer.counts["paradoxes.search_calls"] == 1
    assert tracer.counts["paradoxes.search_nodes"] == 341_503
    assert tracer.counts["paradoxes.instances"] == 2016
    assert tracer.counts["paradoxes.complete_to_size"] == 4


def test_verify_code_closes_once_and_counts_kl_pairs(capsys):
    # the closure is built behind CodeDefinition.group(); its span must
    # still see the one call through codes.close
    codes.mermin_code.cache_clear()
    with _traced() as tracer:
        assert cli.main(["verify-code", "--code", "mermin",
                         "--format", "json"]) == 0
    names = Counter(span[0] for span in tracer.spans)
    assert names["stabilizer.close"] == 1
    assert tracer.counts["stabilizer.kl_pairs"] == 41


def test_selftest_traces_its_suites(capsys):
    with _traced() as tracer:
        assert cli.main(["selftest", "--seed", "0", "--format", "json"]) == 0
    names = Counter(span[0] for span in tracer.spans)
    for suite in ("dense_oracle", "apply_compose", "algebra_laws",
                  "parity_rediscovery"):
        assert names[f"selftest.{suite}"] == 1
    assert tracer.counts["paradoxes.search_nodes"] == 206_367
    assert tracer.counts["paradoxes.instances"] == 812
