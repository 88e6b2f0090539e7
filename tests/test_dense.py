"""The dense oracle's zero-skipping kron and mat_mul against the index
formulas they replaced."""

import ast
import random
from itertools import product
from pathlib import Path

import pytest

from codeword_paradoxes import dense
from codeword_paradoxes.dyadic import ONE, ZERO, Dyadic
from codeword_paradoxes.pauli import from_letters


def kron_by_index(a, b):
    ra, rb = len(a), len(b)
    return tuple(
        tuple(a[i // rb][j // rb] * b[i % rb][j % rb] for j in range(ra * rb))
        for i in range(ra * rb))


def mat_mul_by_index(a, b):
    rows = []
    for row in a:
        out = []
        for col in zip(*b):
            total = ZERO
            for x, y in zip(row, col):
                total = total + x * y
            out.append(total)
        rows.append(tuple(out))
    return tuple(rows)


def random_matrix(rng, size, zero_share):
    return tuple(
        tuple(ZERO if rng.random() < zero_share else
              Dyadic(rng.randint(-4, 4), rng.randint(-4, 4), rng.randrange(3))
              for _ in range(size))
        for _ in range(size))


@pytest.mark.parametrize("zero_share", [0.1, 0.8])
def test_kron_and_mat_mul_match_index_formulas(zero_share):
    rng = random.Random(7)
    for _ in range(150):
        a = random_matrix(rng, rng.randint(1, 4), zero_share)
        b = random_matrix(rng, rng.randint(1, 4), zero_share)
        assert dense.kron(a, b) == kron_by_index(a, b)
        c = random_matrix(rng, len(a), zero_share)
        assert dense.mat_mul(a, c) == mat_mul_by_index(a, c)


def _by_index_pauli_matrix(p):
    m = ((ONE.times_i_power(p.phase_exp),),)
    for letter in p.letters:
        m = kron_by_index(m, dense._LETTER_MATRIX[letter])
    return m


@pytest.mark.parametrize("n", [1, 2])
def test_every_pauli_matrix_matches_index_formulas(n):
    strings = [from_letters(ls, t)
               for ls in product("IXYZ", repeat=n) for t in range(4)]
    mats = {p: dense.pauli_matrix(p) for p in strings}
    for p in strings:
        assert mats[p] == _by_index_pauli_matrix(p)
    for p in strings:
        for q in strings:
            if q.phase_exp == 0:   # a phase on q only scales the product
                assert dense.mat_mul(mats[p], mats[q]) == \
                    mat_mul_by_index(mats[p], mats[q])


def test_dense_imports_nothing_from_statevector():
    """The oracle checks the state-vector route, so it must not use it."""
    tree = ast.parse(Path(dense.__file__).read_text())
    sources = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            sources.append(node.module or "")
            sources.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            sources.extend(alias.name for alias in node.names)
    assert not [s for s in sources if s.split(".")[-1] == "statevector"]


def test_projector_matrix_divides_by_each_norm():
    half = Dyadic(1, 0, 1)
    m = dense.projector_matrix([(ONE, ONE), (ONE, Dyadic(-1))])
    assert m == ((ONE, ZERO), (ZERO, ONE))
    assert dense.projector_matrix([(ONE, ONE)]) == ((half, half), (half, half))
    with pytest.raises(ValueError, match="not a power of two"):
        dense.projector_matrix([(ONE, ONE, ONE, ZERO)])


def test_mat_eq_compares_shapes():
    one_qubit = dense.pauli_matrix(from_letters("I"))
    two_qubit = dense.pauli_matrix(from_letters("II"))
    assert not dense.mat_eq(one_qubit, two_qubit)
    assert not dense.mat_eq(two_qubit, one_qubit)
    assert not dense.mat_eq(((ONE, ZERO),), ((ONE,),))
    assert dense.mat_eq(one_qubit, ((ONE, ZERO), (ZERO, ONE)))


def test_mat_vec_rejects_wrong_length():
    m = dense.pauli_matrix(from_letters("XZ"))
    assert dense.mat_vec(m, [ONE, ZERO, ZERO, ZERO]) == [ZERO, ZERO, ONE, ZERO]
    for length in (1, 3, 5, 8):
        with pytest.raises(ValueError, match="length"):
            dense.mat_vec(m, [ONE] * length)
