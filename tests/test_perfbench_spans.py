"""The benchmark's tracer must find every layer entry point it wraps.

perfbench/spans.py patches names on the package modules from outside; a
rename inside the package would leave its span silently reading 0.
"""

import importlib.util
from pathlib import Path

from codeword_paradoxes import cli, codes, paradoxes, report, selftest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_traced_entry_point_exists(capsys):
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    targets = (cli, codes, paradoxes, selftest, report.Report)
    saved = [(t, dict(vars(t))) for t in targets]
    try:
        spans.install(spans.Tracer())
    finally:
        for target, attrs in saved:
            for name, value in attrs.items():
                if vars(target).get(name) is not value:
                    setattr(target, name, value)
    err = capsys.readouterr().err
    assert "not found; span" not in err, err
