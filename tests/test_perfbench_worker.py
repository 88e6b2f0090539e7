"""The benchmark's kernel timings must read what they expect off the package.

perfbench/worker.py's `kernels` mode reads `steane_code().norm2`,
`codeword(w)` and the group, and checks the kernels' results against them;
a change there would only show in a traced bench run.
"""

import importlib.util
from pathlib import Path
from types import SimpleNamespace

WORKER = Path(__file__).resolve().parents[1] / "perfbench" / "worker.py"


def test_kernel_timings_find_no_failures():
    spec = importlib.util.spec_from_file_location("perfbench_worker", WORKER)
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    result = worker.kernel_timings(0, SimpleNamespace(busy=0.0))
    assert result["failures"] == []
    assert set(result["kernels"]) == {"pauli.mul_us", "statevector.apply_us",
                                      "statevector.eigensign_us",
                                      "statevector.inner_us"}
