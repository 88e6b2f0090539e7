"""The exact value of an inner product: a Gaussian integer re + im*i.

`statevector.inner` returns its integer sum of conj(a)·b in this type, its
only production use; state vectors and the dense oracle's matrices hold
Gaussian integers as plain integer (re, im) pairs.  Every comparison is
exact integer equality; there is no epsilon anywhere.

The text form is ``a + b i`` (terms with zero parts are dropped, ``0`` for
zero), as in ``3``, ``-16``, ``16 i`` and ``1 - 1 i``.
"""

from __future__ import annotations

__all__ = ["Dyadic"]


class Dyadic:
    """Immutable Gaussian integer re + im*i."""

    __slots__ = ("re", "im")

    def __init__(self, re: int, im: int = 0):
        _set_re(self, re)
        _set_im(self, im)

    def __setattr__(self, name, value):
        raise AttributeError("Dyadic values are immutable")

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dyadic):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self) -> int:
        return hash((self.re, self.im))

    def __str__(self) -> str:
        re, im = self.re, self.im
        if not im:
            return str(re)
        if not re:
            return f"{im} i"
        return f"{re} {'-' if im < 0 else '+'} {abs(im)} i"

    def __repr__(self) -> str:
        return f"Dyadic({self.re}, {self.im})"


_set_re = Dyadic.re.__set__
_set_im = Dyadic.im.__set__
