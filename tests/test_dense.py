"""The dense oracle's sparse-row kron and mat_mul, and the tests' own
projector_matrix (conftest.py), against the index formulas on full
matrices, and the canonical form that lets matrices compare by tuple
equality.  The oracle's entries are integer (re, im)
pairs; the index formulas multiply, add and conjugate them as the 2x2
integer matrices [[a, -b], [b, a]] that represent a + b i, so they share
no arithmetic with it."""

import random
from itertools import product

import pytest

from codeword_paradoxes import dense
from codeword_paradoxes.pauli import from_letters
from conftest import projector_matrix

ZERO, ONE, I_UNIT = (0, 0), (1, 0), (0, 1)


def as_matrix(x):
    """a + b i as the integer matrix [[a, -b], [b, a]]."""
    a, b = x
    return ((a, -b), (b, a))


def as_pair(m):
    """The pair a matrix [[a, -b], [b, a]] represents: its first column."""
    assert m[0][0] == m[1][1] and m[0][1] == -m[1][0]
    return m[0][0], m[1][0]


def times(x, y):
    """The pair x·y, as the product of the two matrices."""
    p, q = as_matrix(x), as_matrix(y)
    return as_pair(tuple(tuple(sum(p[i][k] * q[k][j] for k in range(2))
                               for j in range(2)) for i in range(2)))


def plus(x, y):
    p, q = as_matrix(x), as_matrix(y)
    return as_pair(tuple(tuple(p[i][j] + q[i][j] for j in range(2))
                         for i in range(2)))


def conj(x):
    """The conjugate, as the transposed matrix."""
    p = as_matrix(x)
    return as_pair(tuple(tuple(p[j][i] for j in range(2)) for i in range(2)))


def sparse(m):
    """A full tuple-of-tuples matrix in the oracle's sparse-row form."""
    return tuple(tuple((j, x) for j, x in enumerate(row) if x != ZERO)
                 for row in m)


def full(m):
    """A sparse-row matrix written out in full, zeros included, once its
    form is checked to be the canonical one that tuple equality relies on."""
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
        assert not any(x == ZERO for _, x in row)
        assert all(type(x) is tuple and len(x) == 2 for _, x in row)


def kron_by_index(a, b):
    ra, rb = len(a), len(b)
    return tuple(
        tuple(times(a[i // rb][j // rb], b[i % rb][j % rb])
              for j in range(ra * rb))
        for i in range(ra * rb))


def mat_mul_by_index(a, b):
    rows = []
    for row in a:
        out = []
        for col in zip(*b):
            total = ZERO
            for x, y in zip(row, col):
                total = plus(total, times(x, y))
            out.append(total)
        rows.append(tuple(out))
    return tuple(rows)


def random_matrix(rng, size, zero_share):
    return tuple(
        tuple(ZERO if rng.random() < zero_share else
              (rng.randint(-4, 4), rng.randint(-4, 4))
              for _ in range(size))
        for _ in range(size))


@pytest.mark.parametrize("zero_share", [0.1, 0.8])
def test_kron_and_mat_mul_match_index_formulas(zero_share):
    rng = random.Random(7)
    for _ in range(150):
        a = random_matrix(rng, rng.randint(1, 4), zero_share)
        b = random_matrix(rng, rng.randint(1, 4), zero_share)
        assert full(dense.kron(sparse(a), sparse(b))) == kron_by_index(a, b)
        v = [(rng.randint(-4, 4), rng.randint(-4, 4)) for _ in a]
        column = tuple((x,) for x in v)
        assert dense.mat_vec(sparse(a), v) == \
            [x for x, in mat_mul_by_index(a, column)]
        c = random_matrix(rng, len(a), zero_share)
        # the sums of mat_mul may cancel to zero
        assert full(dense.mat_mul(sparse(a), sparse(c))) == \
            mat_mul_by_index(a, c)


# Few distinct entries, so that the sums in a product often cancel.
UNITS = [ONE, (-1, 0), I_UNIT, (0, -1), (2, 0), (-2, 0), (1, 1)]


def random_sparse(rng, size):
    """A sparse-row matrix whose rows hold no entry, one, or several."""
    rows = []
    for _ in range(size):
        count = rng.choice([0, 1, rng.randint(2, size + 1)])
        cols = sorted(rng.sample(range(size), min(count, size)))
        rows.append(tuple((j, rng.choice(UNITS)) for j in cols))
    return tuple(rows)


def test_mat_mul_matches_index_formula_on_mixed_rows():
    rng = random.Random(11)
    cancelled = one_entry_rows = 0
    for _ in range(300):
        size = rng.randint(1, 6)
        a, b = random_sparse(rng, size), random_sparse(rng, size)
        product = dense.mat_mul(a, b)
        assert full(product) == mat_mul_by_index(full(a), full(b))
        for row_a, row in zip(a, product):
            reached = {j for k, _ in row_a for j, _ in b[k]}
            cancelled += len(reached) - len(row)
            one_entry_rows += len(row_a) == 1
    # both paths ran, and the summing one dropped cancelled entries
    assert cancelled > 0 and one_entry_rows > 0


def _by_index_pauli_matrix(p):
    phase = ONE
    for _ in range(p.phase_exp):
        phase = times(phase, I_UNIT)
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


def test_projector_matrix_sums_outer_products():
    two = (2, 0)
    # the off-diagonal entries of the two outer products cancel
    m = projector_matrix([(ONE, ONE), (ONE, (-1, 0))])
    assert full(m) == ((two, ZERO), (ZERO, two))
    # nothing is divided by the norm
    assert full(projector_matrix([(ONE, ONE)])) == ((ONE, ONE), (ONE, ONE))
    # |s><s| puts s_i times the conjugate of s_j at (i, j)
    assert full(projector_matrix([(ONE, I_UNIT)])) == \
        ((ONE, (0, -1)), (I_UNIT, ONE))
    rng = random.Random(5)
    for _ in range(50):
        size = rng.randint(1, 5)
        vectors = [tuple(ZERO if rng.random() < 0.3 else
                         (rng.randint(-3, 3), rng.randint(-3, 3))
                         for _ in range(size))
                   for _ in range(rng.randint(1, 3))]
        want = [[ZERO] * size for _ in range(size)]
        for v in vectors:
            for i in range(size):
                for j in range(size):
                    want[i][j] = plus(want[i][j], times(v[i], conj(v[j])))
        assert full(projector_matrix(vectors)) == \
            tuple(map(tuple, want))


def test_mat_eq_compares_shapes():
    one_qubit = dense.pauli_matrix(from_letters("I"))
    two_qubit = dense.pauli_matrix(from_letters("II"))
    assert one_qubit != two_qubit
    assert two_qubit != one_qubit
    assert ((),) != ((), ())
    assert one_qubit == (((0, ONE),), ((1, ONE),))


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
        projector_matrix(vectors)
