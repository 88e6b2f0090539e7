"""The dense oracle's sparse-row kron and mat_mul against the index
formulas on full matrices, and the canonical form mat_eq relies on."""

import random
from itertools import product

import pytest

from codeword_paradoxes import dense
from codeword_paradoxes.dyadic import I_UNIT, ONE, ZERO, Dyadic
from codeword_paradoxes.pauli import from_letters


def sparse(m):
    """A full tuple-of-tuples matrix in the oracle's sparse-row form."""
    return tuple(tuple((j, x) for j, x in enumerate(row) if not x.is_zero())
                 for row in m)


def full(m):
    """A sparse-row matrix written out in full, zeros included, once its
    form is checked to be the canonical one that mat_eq relies on."""
    assert_canonical(m)
    rows = []
    for row in m:
        out = [ZERO] * len(m)
        for j, x in row:
            out[j] = x
        rows.append(tuple(out))
    return tuple(rows)


def assert_canonical(m):
    """Strictly increasing columns below the size, and no stored zero."""
    for row in m:
        cols = [j for j, _ in row]
        assert all(0 <= j < len(m) for j in cols)
        assert all(j < k for j, k in zip(cols, cols[1:]))
        assert not any(x.is_zero() for _, x in row)


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
        assert full(dense.kron(sparse(a), sparse(b))) == kron_by_index(a, b)
        c = random_matrix(rng, len(a), zero_share)
        # the sums of mat_mul may cancel to zero
        assert full(dense.mat_mul(sparse(a), sparse(c))) == \
            mat_mul_by_index(a, c)


def _by_index_pauli_matrix(p):
    phase = ONE
    for _ in range(p.phase_exp):
        phase = phase * I_UNIT
    m = ((phase,),)
    for letter in p.letters:
        m = kron_by_index(m, full(dense._LETTER_MATRIX[letter]))
    return m


@pytest.mark.parametrize("n", [1, 2])
def test_every_pauli_matrix_matches_index_formulas(n):
    strings = [from_letters(ls, t)
               for ls in product("IXYZ", repeat=n) for t in range(4)]
    mats = {p: dense.pauli_matrix(p) for p in strings}
    for p in strings:
        assert full(mats[p]) == _by_index_pauli_matrix(p)
    for p in strings:
        for q in strings:
            if q.phase_exp == 0:   # a phase on q only scales the product
                assert full(dense.mat_mul(mats[p], mats[q])) == \
                    mat_mul_by_index(full(mats[p]), full(mats[q]))


def test_projector_matrix_divides_by_each_norm():
    half = Dyadic(1, 0, 1)
    # the off-diagonal entries of the two outer products cancel
    m = dense.projector_matrix([(ONE, ONE), (ONE, Dyadic(-1))])
    assert full(m) == ((ONE, ZERO), (ZERO, ONE))
    assert full(dense.projector_matrix([(ONE, ONE)])) == \
        ((half, half), (half, half))
    # |s><s| puts s_i times the conjugate of s_j at (i, j)
    assert full(dense.projector_matrix([(ONE, I_UNIT)])) == \
        ((half, -half * I_UNIT), (half * I_UNIT, half))
    with pytest.raises(ValueError, match="not a power of two"):
        dense.projector_matrix([(ONE, ONE, ONE, ZERO)])


def test_mat_eq_compares_shapes():
    one_qubit = dense.pauli_matrix(from_letters("I"))
    two_qubit = dense.pauli_matrix(from_letters("II"))
    assert not dense.mat_eq(one_qubit, two_qubit)
    assert not dense.mat_eq(two_qubit, one_qubit)
    assert not dense.mat_eq(((),), ((), ()))
    assert dense.mat_eq(one_qubit, (((0, ONE),), ((1, ONE),)))


def test_mat_vec_rejects_wrong_length():
    m = dense.pauli_matrix(from_letters("XZ"))
    assert dense.mat_vec(m, [ONE, ZERO, ZERO, ZERO]) == [ZERO, ZERO, ONE, ZERO]
    for length in (1, 3, 5, 8):
        with pytest.raises(ValueError, match="length"):
            dense.mat_vec(m, [ONE] * length)


@pytest.mark.parametrize("vectors", [[(ONE, ZERO), (ONE,)],
                                     [(ONE,), (ONE, ZERO)],
                                     []],
                         ids=["shorter-second", "longer-second", "empty"])
def test_projector_matrix_rejects_ragged_or_empty_spans(vectors):
    with pytest.raises(ValueError, match="one length"):
        dense.projector_matrix(vectors)
