"""Exact matrices in sparse rows, used only as an independent oracle.

Builds 2**n x 2**n matrices by Kronecker products of the literal 2x2 letter
matrices and multiplies them entry by entry.  Nothing here shares code with
the symplectic fast paths in pauli/statevector, which is the point: the two
routes must agree exactly, and tests check that they do.

Every entry is a Gaussian integer, an integer (re, im) pair, and every
product of two entries goes through `_mul`; vectors are lists of such
pairs.  Nothing divides, so no entry needs a denominator.

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

from .pauli import PauliString

__all__ = [
    "pauli_matrix",
    "projector_matrix",
    "kron",
    "mat_mul",
    "mat_vec",
]

Entry = tuple[int, int]
Row = tuple[tuple[int, Entry], ...]
Matrix = tuple[Row, ...]

_ZERO: Entry = (0, 0)
_POWERS_OF_I: tuple[Entry, ...] = ((1, 0), (0, 1), (-1, 0), (0, -1))

_LETTER_MATRIX: dict[str, Matrix] = {
    "I": (((0, (1, 0)),), ((1, (1, 0)),)),
    "X": (((1, (1, 0)),), ((0, (1, 0)),)),
    "Y": (((1, (0, -1)),), ((0, (0, 1)),)),
    "Z": (((0, (1, 0)),), ((1, (-1, 0)),)),
}


def _mul(a: Entry, b: Entry) -> Entry:
    ar, ai = a
    br, bi = b
    return ar * br - ai * bi, ar * bi + ai * br


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Column i·w + j of a product row holds a's entry at column i times b's
    at column j, w = len(b); a product of two nonzero entries is never zero."""
    w = len(b)
    return tuple(
        tuple((i * w + j, _mul(x, y)) for i, x in row_a for j, y in row_b)
        for row_a in a for row_b in b)


def pauli_matrix(p: PauliString) -> Matrix:
    m: Matrix = (((0, _POWERS_OF_I[p.phase_exp]),),)
    for letter in p.letters:
        m = kron(m, _LETTER_MATRIX[letter])
    return m


def _row(acc: dict[int, Entry]) -> Row:
    """The sparse row of column sums: cancelled entries dropped, columns sorted."""
    return tuple((j, acc[j]) for j in sorted(acc) if acc[j] != _ZERO)


def _add_into(acc: dict[int, Entry], j: int, x: Entry) -> None:
    re, im = acc.get(j, _ZERO)
    acc[j] = re + x[0], im + x[1]


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
            rows.append(tuple((j, _mul(x, y)) for j, y in b[k]))
            continue
        acc: dict[int, Entry] = {}
        for k, x in row_a:
            for j, y in b[k]:
                _add_into(acc, j, _mul(x, y))
        rows.append(_row(acc))
    return tuple(rows)


def mat_vec(a: Matrix, v: list[Entry]) -> list[Entry]:
    if len(v) != len(a):
        raise ValueError(f"vector of length {len(v)} for a matrix of size {len(a)}")
    out = []
    for row in a:
        re = im = 0
        for k, x in row:
            pr, pi = _mul(x, v[k])
            re += pr
            im += pi
        out.append((re, im))
    return out


def projector_matrix(vectors) -> Matrix:
    """Sum of the outer products |s><s| over the spanning vectors.

    Each vector is a sequence of (re, im) amplitudes; |s><s| puts s_i times
    the conjugate of s_j at (i, j).  Nothing is divided by a norm: for
    pairwise orthogonal vectors of one norm m, which callers check
    separately, the sum is m times the orthogonal projector onto their
    span.  The vectors must be at least one and all of one length
    (ValueError otherwise).
    """
    if len({len(s) for s in vectors}) != 1:
        raise ValueError("spanning vectors must be nonempty and of one length")
    acc: list[dict[int, Entry]] = [{} for _ in vectors[0]]
    for s in vectors:
        support = [(i, x) for i, x in enumerate(s) if x != _ZERO]
        for i, x in support:
            for j, (re, im) in support:
                _add_into(acc[i], j, _mul(x, (re, -im)))
    return tuple(_row(r) for r in acc)
