import contextlib
import io
from types import SimpleNamespace

import pytest

from codeword_paradoxes.cli import main
from codeword_paradoxes.codes import five_qubit_code, mermin_code, steane_code
from codeword_paradoxes.kochen_specker import (build_ks_set,
                                               build_orthogonality_graph,
                                               enumerate_contexts)
from codeword_paradoxes.paradoxes import OperatorArray
from codeword_paradoxes.pauli import from_letters
from codeword_paradoxes.statevector import StateVector

# The paper's ket listings of each code's |0_L>.  The five-qubit word has
# sixteen kets of amplitude -1/4 or +1/4, kept here 4 times over (-1 or +1)
# so that its amplitudes are integers; the Steane word is the sum of the
# eight Hamming-coset words.  Each |1_L> is the bit complement of its |0_L>,
# except the GHZ pair |000> + |111>, |000> - |111>.
FIVE_MINUS = ("00000", "11000", "01100", "00110", "00011", "10001")
FIVE_PLUS = ("10010", "10100", "01001", "01010", "00101",
             "11110", "11101", "11011", "10111", "01111")
STEANE_WORDS = ("0000000", "1010101", "0110011", "1100110",
                "0001111", "1011010", "0111100", "1101001")


def _listing(n, kets, complemented=False):
    """The state with real amplitude a at each (label, a) of kets, every
    label bit-complemented when asked."""
    flip = (1 << n) - 1 if complemented else 0
    return StateVector(n, {int(label, 2) ^ flip: (a, 0) for label, a in kets})


@pytest.fixture(scope="session")
def five():
    return five_qubit_code()


@pytest.fixture(scope="session")
def paper_codewords():
    """{code name: (|0_L>, |1_L>)} as the paper lists them (the five-qubit
    pair times 4): the oracle the derived codewords are checked against."""
    five0 = ([(label, -1) for label in FIVE_MINUS]
             + [(label, 1) for label in FIVE_PLUS])
    steane0 = [(label, 1) for label in STEANE_WORDS]
    return {
        "five": (_listing(5, five0), _listing(5, five0, complemented=True)),
        "mermin": (_listing(3, [("000", 1), ("111", 1)]),
                   _listing(3, [("000", 1), ("111", -1)])),
        "steane": (_listing(7, steane0), _listing(7, steane0, complemented=True)),
    }


@pytest.fixture(scope="session")
def five_listing(paper_codewords):
    return paper_codewords["five"]


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
def mermin_peres_square():
    """The classic two-qubit 3x3 square, a small instance of the operator
    array's multiplicative argument: one column multiplies to -I."""
    grid = (("XI", "IX", "XX"),
            ("IZ", "ZI", "ZZ"),
            ("XZ", "ZX", "YY"))
    rows = tuple(tuple(from_letters(cell) for cell in row) for row in grid)
    return OperatorArray(rows=rows,
                         declared_row_signs=(+1, +1, +1),
                         declared_col_signs=(+1, +1, -1))


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
