"""Exact complex numbers with power-of-two denominators.

Every amplitude this package ever constructs is of the form
(a + b*i) / 2**k with integers a, b, k >= 0: codeword amplitudes are
quarters, projector spanning vectors have integer or quarter entries, and
Pauli action only multiplies by powers of i and permutes entries.  Staying
inside this ring makes every comparison exact; there is no epsilon anywhere.

The canonical text form is ``a/2^k + b/2^k i`` (terms with zero numerator
are dropped, ``0`` for the zero value).
"""

from __future__ import annotations

import re

__all__ = ["Dyadic", "ZERO", "ONE", "MINUS_ONE", "I_UNIT"]

_TERM_RE = re.compile(r"^([+-]?\d+)(?:/2\^(\d+))?$")


class Dyadic:
    """Immutable Gaussian rational (a + b*i) / 2**exp, kept in lowest terms.

    Lowest terms means exp == 0 or at least one of a, b is odd; the zero
    value is stored as (0, 0, 0).
    """

    __slots__ = ("re", "im", "exp")

    def __init__(self, re: int, im: int = 0, exp: int = 0):
        if exp < 0:
            re <<= -exp
            im <<= -exp
            exp = 0
        if re == 0 and im == 0:
            exp = 0
        else:
            while exp > 0 and (re & 1) == 0 and (im & 1) == 0:
                re >>= 1
                im >>= 1
                exp -= 1
        object.__setattr__(self, "re", re)
        object.__setattr__(self, "im", im)
        object.__setattr__(self, "exp", exp)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("Dyadic values are immutable")

    # -- ring operations -------------------------------------------------

    def __add__(self, other: "Dyadic") -> "Dyadic":
        if self.exp >= other.exp:
            shift = self.exp - other.exp
            return Dyadic(self.re + (other.re << shift),
                          self.im + (other.im << shift), self.exp)
        shift = other.exp - self.exp
        return Dyadic((self.re << shift) + other.re,
                      (self.im << shift) + other.im, other.exp)

    def __sub__(self, other: "Dyadic") -> "Dyadic":
        return self + (-other)

    def __neg__(self) -> "Dyadic":
        return Dyadic(-self.re, -self.im, self.exp)

    def __mul__(self, other: "Dyadic") -> "Dyadic":
        return Dyadic(self.re * other.re - self.im * other.im,
                      self.re * other.im + self.im * other.re,
                      self.exp + other.exp)

    def conj(self) -> "Dyadic":
        return Dyadic(self.re, -self.im, self.exp)

    def times_i_power(self, t: int) -> "Dyadic":
        """Multiply by i**t without general complex multiplication."""
        t &= 3
        if t == 0:
            return self
        if t == 1:
            return Dyadic(-self.im, self.re, self.exp)
        if t == 2:
            return Dyadic(-self.re, -self.im, self.exp)
        return Dyadic(self.im, -self.re, self.exp)

    def half_power(self, k: int) -> "Dyadic":
        """Divide by 2**k (k may be negative to multiply)."""
        return Dyadic(self.re, self.im, self.exp + k)

    # -- predicates ------------------------------------------------------

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def is_real(self) -> bool:
        return self.im == 0

    def as_pow2(self) -> int | None:
        """If the value is a positive real power of two, return its exponent.

        Returns m with self == 2**m, or None.  Used where a reciprocal is
        needed (projector application) without leaving the dyadic ring.
        """
        if self.im != 0 or self.re <= 0:
            return None
        if self.re & (self.re - 1):
            return None
        return self.re.bit_length() - 1 - self.exp

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dyadic):
            return NotImplemented
        return (self.re, self.im, self.exp) == (other.re, other.im, other.exp)

    def __hash__(self) -> int:
        return hash((self.re, self.im, self.exp))

    # -- text ------------------------------------------------------------

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        if self.re != 0:
            parts.append(_term(self.re, self.exp, ""))
        if self.im != 0:
            term = _term(self.im, self.exp, " i")
            if parts and not term.startswith("-"):
                term = "+ " + term
            elif parts:
                term = "- " + term.lstrip("-")
            parts.append(term)
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"Dyadic({self.re}, {self.im}, {self.exp})"

    @staticmethod
    def parse(text: str) -> "Dyadic":
        """Inverse of str(); accepts e.g. '-1/2^2', '3/2^1 + 1/2^1 i', '0'."""
        text = text.strip()
        if text == "0":
            return ZERO
        total = ZERO
        # normalize "a - b i" into "a + -b i" before splitting on '+'
        normalized = re.sub(r"\s*-\s+", " + -", text)
        for chunk in normalized.split("+"):
            chunk = chunk.strip()
            if not chunk:
                continue
            imag = chunk.endswith("i")
            if imag:
                chunk = chunk[:-1].strip()
            m = _TERM_RE.match(chunk)
            if not m:
                raise ValueError(f"bad dyadic literal: {text!r}")
            num = int(m.group(1))
            exp = int(m.group(2) or 0)
            total = total + (Dyadic(0, num, exp) if imag else Dyadic(num, 0, exp))
        return total


def _term(num: int, exp: int, suffix: str) -> str:
    if exp == 0:
        return f"{num}{suffix}"
    return f"{num}/2^{exp}{suffix}"


ZERO = Dyadic(0)
ONE = Dyadic(1)
MINUS_ONE = Dyadic(-1)
I_UNIT = Dyadic(0, 1)
