"""Exact matrices in sparse rows, used only as an independent oracle.

Builds 2**n x 2**n matrices by Kronecker products of the literal 2x2 letter
matrices and multiplies them entry by entry.  Nothing here shares code with
the symplectic fast paths in pauli/statevector, which is the point: the two
routes must agree exactly, and tests check that they do.

A matrix is square, and its size is its number of rows.  Row i is a tuple
of (column, entry) pairs holding only the nonzero entries, in increasing
column order.  Every function returns this one form, so matrices compare
by plain tuple equality and two of different sizes are unequal.  No memo
of built matrices is kept here: it would hold the few hundred Pauli
matrices that `selftest` meets for the rest of the process.  Instead
`selftest.dense_oracle_suite` keeps a table local to one suite call, which
builds each distinct phased string's matrix once, by `pauli_matrix`, and
is freed when the suite returns, so no matrix outlives the call.
"""

from __future__ import annotations

from .dyadic import Dyadic, ZERO, ONE, MINUS_ONE, I_UNIT
from .pauli import PauliString

__all__ = [
    "pauli_matrix",
    "projector_matrix",
    "kron",
    "mat_mul",
    "mat_vec",
    "mat_eq",
    "commutator_is_zero",
]

Row = tuple[tuple[int, Dyadic], ...]
Matrix = tuple[Row, ...]

_LETTER_MATRIX: dict[str, Matrix] = {
    "I": (((0, ONE),), ((1, ONE),)),
    "X": (((1, ONE),), ((0, ONE),)),
    "Y": (((1, -I_UNIT),), ((0, I_UNIT),)),
    "Z": (((0, ONE),), ((1, MINUS_ONE),)),
}


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Column i·w + j of a product row holds a's entry at column i times b's
    at column j, w = len(b); a product of two nonzero entries is never zero."""
    w = len(b)
    return tuple(
        tuple((i * w + j, x * y) for i, x in row_a for j, y in row_b)
        for row_a in a for row_b in b)


def pauli_matrix(p: PauliString) -> Matrix:
    m: Matrix = (((0, (ONE, I_UNIT, MINUS_ONE, -I_UNIT)[p.phase_exp]),),)
    for letter in p.letters:
        m = kron(m, _LETTER_MATRIX[letter])
    return m


def _row(acc: dict[int, Dyadic]) -> Row:
    """The sparse row of column sums: cancelled entries dropped, columns sorted."""
    return tuple((j, acc[j]) for j in sorted(acc) if not acc[j].is_zero())


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """Row i of a·b as the sum of a[i][k] · (row k of b) over stored a[i][k].

    A row of a with one stored entry x at column k, as every row of a Pauli
    matrix has, yields x times row k of b directly: that row is sorted, and
    a product of nonzero entries is never zero, so nothing is summed or
    dropped."""
    rows = []
    for row_a in a:
        if len(row_a) == 1:
            (k, x), = row_a
            rows.append(tuple((j, x * y) for j, y in b[k]))
            continue
        acc: dict[int, Dyadic] = {}
        for k, x in row_a:
            for j, y in b[k]:
                acc[j] = acc.get(j, ZERO) + x * y
        rows.append(_row(acc))
    return tuple(rows)


def mat_vec(a: Matrix, v: list[Dyadic]) -> list[Dyadic]:
    if len(v) != len(a):
        raise ValueError(f"vector of length {len(v)} for a matrix of size {len(a)}")
    return [sum((x * v[k] for k, x in row), ZERO) for row in a]


def mat_eq(a: Matrix, b: Matrix) -> bool:
    return a == b


def commutator_is_zero(a: Matrix, b: Matrix) -> bool:
    return mat_eq(mat_mul(a, b), mat_mul(b, a))


def projector_matrix(vectors) -> Matrix:
    """Sum of |s><s| / <s|s> over the spanning vectors, as an exact matrix.

    Each vector is a sequence of Dyadic amplitudes; its norm <s|s> must be a
    power of two so that the division stays in the ring.  The sum is the
    orthogonal projector onto their span only when the vectors are pairwise
    orthogonal, which callers check separately.  The vectors must be at
    least one and all of one length (ValueError otherwise).
    """
    if len({len(s) for s in vectors}) != 1:
        raise ValueError("spanning vectors must be nonempty and of one length")
    acc: list[dict[int, Dyadic]] = [{} for _ in vectors[0]]
    for s in vectors:
        support = [(i, x) for i, x in enumerate(s) if not x.is_zero()]
        m = sum((x.conj() * x for _, x in support), ZERO).as_pow2()
        if m is None:
            raise ValueError("spanning norm is not a power of two")
        for i, x in support:
            for j, y in support:
                acc[i][j] = acc[i].get(j, ZERO) + (x * y.conj()).half_power(m)
    return tuple(_row(r) for r in acc)
