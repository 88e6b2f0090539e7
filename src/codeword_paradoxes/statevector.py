"""Exact dense linear algebra on 2**n-dimensional vectors.

Amplitudes are Dyadic values and the basis is ordered lexicographically with
site 1 as the most significant bit, so a ket label like |10010> maps straight
to its integer index.  Zero means zero: every eigenvector and orthogonality
statement below is decided by exact comparison.
"""

from __future__ import annotations

from .dyadic import Dyadic, ZERO, ONE
from .errors import DimensionMismatchError, NonHermitianError
from .pauli import PauliString

__all__ = [
    "StateVector",
    "basis_ket",
    "apply",
    "eigensign",
    "inner",
]


class StateVector:
    """Length-2**n vector of exact amplitudes."""

    __slots__ = ("n", "amps")

    def __init__(self, n: int, amps):
        amps = tuple(amps)
        if len(amps) != 1 << n:
            raise ValueError(f"expected {1 << n} amplitudes, got {len(amps)}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "amps", amps)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("StateVector is immutable")

    def __eq__(self, other) -> bool:
        if not isinstance(other, StateVector):
            return NotImplemented
        return self.n == other.n and self.amps == other.amps

    def __hash__(self) -> int:
        return hash((self.n, self.amps))

    def scaled(self, c: Dyadic) -> "StateVector":
        return StateVector(self.n, (a * c for a in self.amps))

    def __neg__(self) -> "StateVector":
        return StateVector(self.n, (-a for a in self.amps))

    def norm2(self) -> Dyadic:
        return inner(self, self)

    def phase_canonical(self) -> "StateVector":
        """Rotate by a power of i so the first nonzero amplitude is positive real.

        Raises if no power of i achieves that (never the case for vectors
        built here, whose leading amplitudes are along the axes).
        """
        for a in self.amps:
            if not a.is_zero():
                for t in range(4):
                    rotated = a.times_i_power(t)
                    if rotated.im == 0 and rotated.re > 0:
                        if t == 0:
                            return self
                        return StateVector(self.n, (x.times_i_power(t) for x in self.amps))
                raise ValueError("leading amplitude is not on a quarter-turn axis")
        return self

    def to_pairs(self) -> list[tuple[str, str]]:
        """Nonzero amplitudes as (basis label, amplitude text) pairs."""
        return [(format(j, f"0{self.n}b"), str(a))
                for j, a in enumerate(self.amps) if not a.is_zero()]

    def __repr__(self) -> str:
        body = ", ".join(f"|{label}> {amp}" for label, amp in self.to_pairs())
        return f"StateVector({body or '0'})"


def basis_ket(n: int, label) -> StateVector:
    """Basis vector from an integer index or a '01001'-style label."""
    index = int(label, 2) if isinstance(label, str) else label
    amps = [ZERO] * (1 << n)
    amps[index] = ONE
    return StateVector(n, amps)


def _same_n(u, v) -> None:
    if u.n != v.n:
        raise DimensionMismatchError(f"dimension mismatch: {u.n} vs {v.n} qubits")


def apply(p: PauliString, v: StateVector) -> StateVector:
    """Exact matrix-vector product p·v.

    X permutes basis indices, Z flips signs on set bits, Y does both with an
    i factor; the global i**phase_exp rides along.
    """
    if p.n != v.n:
        raise DimensionMismatchError(f"operator on {p.n} qubits, state on {v.n}")
    y_count = (p.x & p.z).bit_count()
    base_phase = (p.phase_exp + y_count) & 3
    out = [ZERO] * (1 << v.n)
    for j, a in enumerate(v.amps):
        if a.is_zero():
            continue
        t = base_phase + 2 * ((j & p.z).bit_count() & 1)
        out[j ^ p.x] = a.times_i_power(t)
    return StateVector(v.n, out)


def eigensign(p: PauliString, v: StateVector):
    """+1 or -1 when p·v == ±v exactly, None when v is not an eigenvector."""
    if not p.is_hermitian():
        raise NonHermitianError(f"{p} has phase i**{p.phase_exp}; eigensigns need ±1 spectra")
    w = apply(p, v)
    if w == v:
        return +1
    if w == -v:
        return -1
    return None


def inner(u: StateVector, v: StateVector) -> Dyadic:
    """<u|v>, conjugate-linear in the first argument."""
    _same_n(u, v)
    total = ZERO
    for a, b in zip(u.amps, v.amps):
        if not (a.is_zero() or b.is_zero()):
            total = total + a.conj() * b
    return total
