"""Dense exact matrices, used only as an independent oracle.

Builds 2**n x 2**n matrices by Kronecker products of the literal 2x2 letter
matrices and multiplies them entry by entry.  Nothing here shares code with
the symplectic fast paths in pauli/statevector, which is the point: the two
routes must agree exactly, and tests check that they do.

kron and mat_mul skip every product with a zero factor (a Pauli matrix
has one nonzero entry per row), but each matrix is still a dense tuple of
tuples built from the literal letter matrices, so the module stays an
independent oracle.  It keeps no cache of built matrices either: a table
of the few hundred distinct Pauli matrices that `selftest` meets would
spare rebuilding them, but it would hold them for the rest of the
process, more memory on every run for a saving in one command.  Matrices
compare by plain tuple equality, so two of different shapes are unequal.
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

Matrix = tuple[tuple[Dyadic, ...], ...]

_LETTER_MATRIX: dict[str, Matrix] = {
    "I": ((ONE, ZERO), (ZERO, ONE)),
    "X": ((ZERO, ONE), (ONE, ZERO)),
    "Y": ((ZERO, -I_UNIT), (I_UNIT, ZERO)),
    "Z": ((ONE, ZERO), (ZERO, MINUS_ONE)),
}


def kron(a: Matrix, b: Matrix) -> Matrix:
    zeros = (ZERO,) * len(b[0])
    rows = []
    for row_a in a:
        for row_b in b:
            row: list[Dyadic] = []
            for x in row_a:
                if x.re or x.im:
                    row.extend(x * y if y.re or y.im else ZERO for y in row_b)
                else:
                    row.extend(zeros)
            rows.append(tuple(row))
    return tuple(rows)


def pauli_matrix(p: PauliString) -> Matrix:
    m: Matrix = ((ONE.times_i_power(p.phase_exp),),)
    for letter in p.letters:
        m = kron(m, _LETTER_MATRIX[letter])
    return m


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """Row i of a·b as the sum of a[i][k] · (row k of b) over nonzero a[i][k]."""
    width = len(b[0])
    rows = []
    for row_a in a:
        acc = [ZERO] * width
        for x, row_b in zip(row_a, b):
            if x.re or x.im:
                for j, y in enumerate(row_b):
                    if y.re or y.im:
                        acc[j] = acc[j] + x * y
        rows.append(tuple(acc))
    return tuple(rows)


def _dot(row, col) -> Dyadic:
    total = ZERO
    for x, y in zip(row, col):
        if (x.re or x.im) and (y.re or y.im):
            total = total + x * y
    return total


def mat_vec(a: Matrix, v: list[Dyadic]) -> list[Dyadic]:
    if len(v) != len(a[0]):
        raise ValueError(f"vector of length {len(v)} for a matrix of width {len(a[0])}")
    return [_dot(row, v) for row in a]


def mat_eq(a: Matrix, b: Matrix) -> bool:
    return a == b


def commutator_is_zero(a: Matrix, b: Matrix) -> bool:
    return mat_eq(mat_mul(a, b), mat_mul(b, a))


def projector_matrix(vectors) -> Matrix:
    """Sum of |s><s| / <s|s> over the spanning vectors, as an exact dense matrix.

    Each vector is a sequence of Dyadic amplitudes; its norm <s|s> must be a
    power of two so that the division stays in the ring.  The sum is the
    orthogonal projector onto their span only when the vectors are pairwise
    orthogonal, which callers check separately.
    """
    dim = len(vectors[0])
    rows = [[ZERO] * dim for _ in range(dim)]
    for s in vectors:
        m = _dot([a.conj() for a in s], s).as_pow2()
        if m is None:
            raise ValueError("spanning norm is not a power of two")
        for i, ai in enumerate(s):
            if ai.re or ai.im:
                for j, aj in enumerate(s):
                    if aj.re or aj.im:
                        rows[i][j] = rows[i][j] + (ai * aj.conj()).half_power(m)
    return tuple(tuple(r) for r in rows)
