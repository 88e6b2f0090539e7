"""Exact state vectors on n qubits, stored as their support.

A state maps each basis index to a Gaussian-integer amplitude, an integer
(re, im) pair, and stores no zero amplitude; the basis is ordered
lexicographically with site 1 as the most significant bit, so a ket label
like |10010> maps straight to its integer index.  Every state built here
has integer amplitudes (codewords are 0 or ±1, spanning vectors are kept
unnormalized), so every eigenvector and orthogonality statement below is
decided by exact integer comparison over the support only.
"""

from __future__ import annotations

from .errors import DimensionMismatchError, NonHermitianError
from .pauli import PauliString

__all__ = [
    "StateVector",
    "apply",
    "eigensign",
    "inner",
]

_POWERS_OF_I = ((1, 0), (0, 1), (-1, 0), (0, -1))   # i**t as (re, im)


class StateVector:
    """Immutable n-qubit vector: support maps basis index -> (re, im), zeros
    dropped, so two vectors are equal exactly when their supports are."""

    __slots__ = ("n", "support")

    def __init__(self, n: int, support):
        if support and (min(support) < 0 or max(support) >= 1 << n):
            raise ValueError(f"basis index out of range for {n} qubits")
        support = {j: (re, im) for j, (re, im) in support.items() if re or im}
        _set_n(self, n)
        _set_support(self, support)

    def __setattr__(self, name, value):
        raise AttributeError("StateVector is immutable")

    def __eq__(self, other) -> bool:
        if not isinstance(other, StateVector):
            return NotImplemented
        return self.n == other.n and self.support == other.support

    def __neg__(self) -> "StateVector":
        return _raw(self.n, {j: (-re, -im) for j, (re, im) in self.support.items()})

    def phase_canonical(self) -> "StateVector":
        """Rotate by a power of i so the first nonzero amplitude is positive real.

        Raises if no power of i achieves that (never the case for vectors
        built here, whose leading amplitudes are along the axes).
        """
        if not self.support:
            return self
        re, im = self.support[min(self.support)]
        if im == 0 and re > 0:
            return self
        if re and im:
            raise ValueError("leading amplitude is not on a quarter-turn axis")
        # turns a leading -1, +i or -i to +1
        c, s = _POWERS_OF_I[2 if re else (3 if im > 0 else 1)]
        return _raw(self.n, {j: (ar * c - ai * s, ar * s + ai * c)
                             for j, (ar, ai) in self.support.items()})

    def __repr__(self) -> str:
        return f"StateVector({self.n}, {dict(sorted(self.support.items()))})"


_set_n = StateVector.n.__set__
_set_support = StateVector.support.__set__


def _raw(n: int, support: dict) -> StateVector:
    """A StateVector that takes ownership of support, without the checks.

    Only for a support built fresh from a valid vector's by a map that
    permutes the kets j -> j ^ x (x < 2**n) and multiplies each amplitude
    by a power of i: the indices stay in 0..2**n-1, and a unit times a
    nonzero Gaussian integer is nonzero, so there is no zero to drop.
    """
    v = object.__new__(StateVector)
    _set_n(v, n)
    _set_support(v, support)
    return v


def _same_n(p, v) -> None:
    if p.n != v.n:
        raise DimensionMismatchError(f"dimension mismatch: {p.n} vs {v.n} qubits")


def apply(p: PauliString, v: StateVector) -> StateVector:
    """Exact matrix-vector product p·v.

    X permutes basis indices, Z flips signs on set bits, Y does both with an
    i factor; the global i**phase_exp rides along.  So ket j goes to
    j ^ x times i**t, t = phase_exp + |x & z|, when |j & z| is even, and
    times -i**t when it is odd.  That maps the support to a support of the
    same size, so the image is built raw (see _raw).
    """
    _same_n(p, v)
    x, z = p.x, p.z
    c, s = _POWERS_OF_I[(p.phase_exp + (x & z).bit_count()) & 3]
    image = {}
    for j, (re, im) in v.support.items():
        if (j & z).bit_count() & 1:
            image[j ^ x] = (im * s - re * c, -re * s - im * c)
        else:
            image[j ^ x] = (re * c - im * s, re * s + im * c)
    return _raw(v.n, image)


def eigensign(p: PauliString, v: StateVector):
    """+1 or -1 when p·v == ±v exactly, None when v is not an eigenvector.

    The zero vector has every sign, so it is refused.
    """
    if not p.is_hermitian():
        raise NonHermitianError(f"{p} has phase i**{p.phase_exp}; eigensigns need ±1 spectra")
    w = apply(p, v)
    if not v.support:
        raise ValueError("eigensign of the zero vector: every sign fits")
    if w == v:
        return +1
    if w == -v:
        return -1
    return None


def inner(u: StateVector, v: StateVector) -> tuple[int, int]:
    """<u|v>, conjugate-linear in the first argument, as the Gaussian
    integer (re, im): the sum of conj(a)·b over the common support."""
    _same_n(u, v)
    re = im = 0
    other = v.support
    for j, (ar, ai) in u.support.items():
        b = other.get(j)
        if b is not None:
            br, bi = b
            re += ar * br + ai * bi
            im += ar * bi - ai * br
    return (re, im)
