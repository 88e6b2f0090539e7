"""Exact complex numbers with power-of-two denominators.

(a + b*i) / 2**k with integers a, b, k >= 0 is the type that
`statevector.inner` returns its integer sum in, its only production use;
state vectors and the dense oracle's matrices hold Gaussian integers as
integer (re, im) pairs.  Tests use the ring's division by powers of two
as a reference.  Staying inside this ring keeps every comparison exact;
there is no epsilon anywhere.

Every value is kept in lowest terms: exp == 0, or at least one of re, im
is odd; zero is (0, 0, 0).  The form is unique, so equality and hashing
compare the three fields.  The constructor reaches it in one step, by
shifting out the trailing zero bits common to re and im (those of re | im),
at most exp of them.  Negation and conjugation skip that step and build
their result raw: each maps (re, im) to (±re, ±im) at the same exp, and a
sign does not change which parts are odd, so a value in lowest terms stays
in them.  So do a sum and a product of two values at exp == 0, whose result
is at exp == 0 and so already in lowest terms.

The canonical text form is ``a/2^k + b/2^k i`` (terms with zero numerator
are dropped, ``0`` for the zero value).
"""

from __future__ import annotations

__all__ = ["Dyadic", "ZERO", "ONE", "MINUS_ONE", "I_UNIT"]


class Dyadic:
    """Immutable Gaussian rational (re + im*i) / 2**exp, kept in lowest terms
    (see the module docstring)."""

    __slots__ = ("re", "im", "exp")

    def __init__(self, re: int, im: int = 0, exp: int = 0):
        if exp < 0:
            re <<= -exp
            im <<= -exp
            exp = 0
        elif exp:
            both = re | im
            if both:
                shift = (both & -both).bit_length() - 1
                if shift > exp:
                    shift = exp
                re >>= shift
                im >>= shift
                exp -= shift
            else:
                exp = 0
        _set_re(self, re)
        _set_im(self, im)
        _set_exp(self, exp)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("Dyadic values are immutable")

    # -- ring operations -------------------------------------------------

    def __add__(self, other: "Dyadic") -> "Dyadic":
        if not (self.exp or other.exp):
            return _raw(self.re + other.re, self.im + other.im, 0)
        if self.exp >= other.exp:
            shift = self.exp - other.exp
            return Dyadic(self.re + (other.re << shift),
                          self.im + (other.im << shift), self.exp)
        shift = other.exp - self.exp
        return Dyadic((self.re << shift) + other.re,
                      (self.im << shift) + other.im, other.exp)

    def __neg__(self) -> "Dyadic":
        return _raw(-self.re, -self.im, self.exp)

    def __mul__(self, other: "Dyadic") -> "Dyadic":
        re = self.re * other.re - self.im * other.im
        im = self.re * other.im + self.im * other.re
        if not (self.exp or other.exp):
            return _raw(re, im, 0)
        return Dyadic(re, im, self.exp + other.exp)

    def conj(self) -> "Dyadic":
        return _raw(self.re, -self.im, self.exp)

    def half_power(self, k: int) -> "Dyadic":
        """Divide by 2**k (k may be negative to multiply)."""
        return Dyadic(self.re, self.im, self.exp + k)

    # -- predicates ------------------------------------------------------

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def as_pow2(self) -> int | None:
        """If the value is a positive real power of two, return its exponent.

        Returns m with self == 2**m, or None.  Used where a reciprocal is
        needed (a projector's matrix) without leaving the dyadic ring.
        """
        if self.im != 0 or self.re <= 0:
            return None
        if self.re & (self.re - 1):
            return None
        return self.re.bit_length() - 1 - self.exp

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dyadic):
            return NotImplemented
        return (self.re == other.re and self.im == other.im
                and self.exp == other.exp)

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


_set_re = Dyadic.re.__set__
_set_im = Dyadic.im.__set__
_set_exp = Dyadic.exp.__set__


def _raw(re: int, im: int, exp: int) -> Dyadic:
    """A Dyadic from a triple already in lowest terms, without the check."""
    z = object.__new__(Dyadic)
    _set_re(z, re)
    _set_im(z, im)
    _set_exp(z, exp)
    return z


def _term(num: int, exp: int, suffix: str) -> str:
    if exp == 0:
        return f"{num}{suffix}"
    return f"{num}/2^{exp}{suffix}"


ZERO = Dyadic(0)
ONE = Dyadic(1)
MINUS_ONE = Dyadic(-1)
I_UNIT = Dyadic(0, 1)
