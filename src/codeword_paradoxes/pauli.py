"""Exact n-qubit Pauli strings with i-power phase tracking.

A string is i**phase_exp times a tensor product of single-site letters from
{I, X, Y, Z}.  Letters are encoded symplectically: site k carries the bit
pair (x, z) with X=(1,0), Z=(0,1), Y=(1,1), I=(0,0).  Site 1 is the leftmost
letter in text form and the most significant bit of a basis index; bit
position n-1-k of the x/z masks belongs to site k (0-based internally).

All user-facing site indices are 1-based, matching the sigma_{1x} style of
the text format.  The conversion happens here and nowhere else.
"""

from __future__ import annotations

import re
from typing import Iterable

from .errors import DimensionMismatchError, PauliFormatError

__all__ = [
    "PauliString",
    "LETTERS",
    "letter_mul",
    "identity",
    "from_letters",
    "single_site",
    "parse",
]

LETTERS = ("I", "X", "Y", "Z")

# (x, z) bit pair per letter and back.
_LETTER_TO_BITS = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
_BITS_TO_LETTER = {v: k for k, v in _LETTER_TO_BITS.items()}

# letter_mul table: (a, b) -> (product letter, t) with a·b = i**t · product.
_MUL: dict[tuple[str, str], tuple[str, int]] = {}
for _a in LETTERS:
    _MUL[("I", _a)] = (_a, 0)
    _MUL[(_a, "I")] = (_a, 0)
    _MUL[(_a, _a)] = ("I", 0)
for _a, _b, _c in (("X", "Y", "Z"), ("Y", "Z", "X"), ("Z", "X", "Y")):
    _MUL[(_a, _b)] = (_c, 1)   # e.g. X·Y = iZ
    _MUL[(_b, _a)] = (_c, 3)   # e.g. Y·X = -iZ

_TEXT_RE = re.compile(r"^([+-])?(i)?([IXYZ]+)$")


def letter_mul(a: str, b: str) -> tuple[str, int]:
    """Single-site product a·b = i**t · c, returned as (c, t)."""
    return _MUL[(a, b)]


class PauliString:
    """Immutable Pauli string; value semantics, safe to share freely."""

    __slots__ = ("n", "phase_exp", "x", "z")

    def __init__(self, n: int, phase_exp: int, x: int, z: int):
        if n <= 0:
            raise ValueError("qubit count must be positive")
        mask = (1 << n) - 1
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "phase_exp", phase_exp & 3)
        object.__setattr__(self, "x", x & mask)
        object.__setattr__(self, "z", z & mask)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("PauliString is immutable")

    # -- views -------------------------------------------------------------

    def letter(self, site: int) -> str:
        """Letter at 1-based site."""
        if not 1 <= site <= self.n:
            raise ValueError(f"site {site} out of range 1..{self.n}")
        b = self.n - site
        return _BITS_TO_LETTER[(self.x >> b & 1, self.z >> b & 1)]

    @property
    def letters(self) -> tuple[str, ...]:
        x, z = self.x, self.z
        return tuple(_BITS_TO_LETTER[(x >> b & 1, z >> b & 1)]
                     for b in range(self.n - 1, -1, -1))

    @property
    def weight(self) -> int:
        return ((self.x | self.z)).bit_count()

    def is_hermitian(self) -> bool:
        return self.phase_exp in (0, 2)

    def is_identity_op(self) -> bool:
        """True when the letter part is all-I (any phase)."""
        return self.x == 0 and self.z == 0

    def bare(self) -> "PauliString":
        """The same letters with phase_exp forced to 0."""
        return PauliString(self.n, 0, self.x, self.z)

    # -- algebra -----------------------------------------------------------

    def __mul__(self, other: "PauliString") -> "PauliString":
        """The product, its phase in closed form from the bit masks.

        Each letter is i**(x·z) X**x Z**z and Z**z X**x = (-1)**(x·z) X**x Z**z,
        so the site-by-site phases of letter_mul sum to these popcounts.
        """
        if self.n != other.n:
            raise DimensionMismatchError(
                f"cannot multiply strings on {self.n} and {other.n} qubits")
        x1, z1, x2, z2 = self.x, self.z, other.x, other.z
        x, z = x1 ^ x2, z1 ^ z2
        phase = (self.phase_exp + other.phase_exp + (x1 & z1).bit_count()
                 + (x2 & z2).bit_count() + 2 * (z1 & x2).bit_count()
                 - (x & z).bit_count())
        return PauliString(self.n, phase, x, z)

    def commutes_with(self, other: "PauliString") -> bool:
        if self.n != other.n:
            raise DimensionMismatchError(
                f"cannot compare strings on {self.n} and {other.n} qubits")
        return ((self.x & other.z).bit_count()
                + (self.z & other.x).bit_count()) % 2 == 0

    def shift(self, k: int) -> "PauliString":
        """Cyclic shift moving the letter at site j to site j+k (mod n)."""
        n = self.n
        k %= n
        if k == 0:
            return self
        mask = (1 << n) - 1
        rot = lambda m: ((m >> k) | (m << (n - k))) & mask
        return PauliString(n, self.phase_exp, rot(self.x), rot(self.z))

    def support(self) -> frozenset[int]:
        """1-based sites carrying a non-identity letter."""
        m = self.x | self.z
        return frozenset(k for k in range(1, self.n + 1)
                         if m & (1 << (self.n - k)))

    def restrict(self, sites: Iterable[int]) -> "PauliString":
        """Keep letters on the given 1-based sites, identity elsewhere, phase 0."""
        keep = 0
        for k in sites:
            if not 1 <= k <= self.n:
                raise ValueError(f"site {k} out of range 1..{self.n}")
            keep |= 1 << (self.n - k)
        return PauliString(self.n, 0, self.x & keep, self.z & keep)

    # -- identity / ordering -------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, PauliString):
            return NotImplemented
        return (self.n, self.phase_exp, self.x, self.z) == \
            (other.n, other.phase_exp, other.x, other.z)

    def __hash__(self) -> int:
        return hash((self.n, self.phase_exp, self.x, self.z))

    def key(self) -> tuple:
        """Deterministic sort key: letters first, then phase."""
        return (self.letters, self.phase_exp)

    # -- text ----------------------------------------------------------------

    def __str__(self) -> str:
        prefix = ("", "i", "-", "-i")[self.phase_exp]
        return prefix + "".join(self.letters)

    def __repr__(self) -> str:
        return f"PauliString({str(self)!r})"


def identity(n: int) -> PauliString:
    return PauliString(n, 0, 0, 0)


def from_letters(letters: Iterable[str], phase_exp: int = 0) -> PauliString:
    seq = list(letters)
    n = len(seq)
    x = z = 0
    for k, letter in enumerate(seq, start=1):
        try:
            xb, zb = _LETTER_TO_BITS[letter]
        except KeyError:
            raise PauliFormatError(f"invalid Pauli letter {letter!r}") from None
        bit = 1 << (n - k)
        x |= xb * bit
        z |= zb * bit
    return PauliString(n, phase_exp, x, z)


def single_site(n: int, site: int, letter: str) -> PauliString:
    """The operator with one letter at a 1-based site, identity elsewhere."""
    if not 1 <= site <= n:
        raise ValueError(f"site {site} out of range 1..{n}")
    return from_letters(letter if k == site else "I" for k in range(1, n + 1))


def parse(text: str) -> PauliString:
    """Parse canonical text: optional sign, optional i, then letters IXYZ."""
    m = _TEXT_RE.match(text.strip())
    if not m:
        raise PauliFormatError(f"cannot parse Pauli text {text!r}")
    sign, imag, letters = m.groups()
    phase = (2 if sign == "-" else 0) + (1 if imag else 0)
    return from_letters(letters, phase)
