"""The shim perfbench's kernels mode compares inner products against."""

from codeword_paradoxes.codes import five_qubit_code
from codeword_paradoxes.dyadic import Dyadic
from codeword_paradoxes.statevector import inner


def test_equality_compares_both_parts():
    assert Dyadic(1) == Dyadic(1, 0) == (1, 0)
    assert Dyadic(1, 1) != Dyadic(1, -1)
    assert Dyadic(3, 1) != Dyadic(1, 1)
    assert Dyadic(0, 1) != Dyadic(1, 0)
    assert (Dyadic(1) == 1) is False
    code = five_qubit_code()
    assert inner(code.codeword(0), code.codeword(0)) == Dyadic(code.norm2)
