import contextlib
import io
from types import SimpleNamespace

import pytest

from codeword_paradoxes.cli import main
from codeword_paradoxes.codes import five_qubit_code, mermin_code, steane_code
from codeword_paradoxes.kochen_specker import (build_ks_set,
                                               build_orthogonality_graph,
                                               enumerate_contexts)


@pytest.fixture(scope="session")
def five():
    return five_qubit_code()


@pytest.fixture(scope="session")
def five_group(five):
    return five.group()


@pytest.fixture(scope="session")
def mermin():
    return mermin_code()


@pytest.fixture(scope="session")
def steane():
    return steane_code()


@pytest.fixture(scope="session")
def ks_vertices():
    return build_ks_set()


@pytest.fixture(scope="session")
def ks_graph(ks_vertices):
    return build_orthogonality_graph(ks_vertices)


@pytest.fixture(scope="session")
def ks_contexts(ks_graph):
    return enumerate_contexts(ks_graph)


@pytest.fixture(scope="session")
def ks_dump_run(tmp_path_factory):
    """One `ks --dump-set PATH --format json` run shared by the CLI tests:
    its exit code, its stdout and the dump's path."""
    path = tmp_path_factory.mktemp("ks") / "ks.json"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["ks", "--dump-set", str(path), "--format", "json"])
    return SimpleNamespace(code=code, out=out.getvalue(), path=path)
