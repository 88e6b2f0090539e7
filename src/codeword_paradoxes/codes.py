"""Concrete code definitions: five-qubit, three-qubit GHZ-type, seven-qubit.

Each definition carries exact codewords, sign-decorated generators, and the
structural expectations the rest of the package asserts against (group
order, invariant-subgroup order, correctable error sets).  Codewords are
stored unnormalized where the physical normalization is irrational; the
norm2 field records the exact squared norm of what is stored, and every
consumer is normalization-independent.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

from .dyadic import Dyadic, ZERO
from .pauli import PauliString, identity, parse, single_site
from .stabilizer import StabilizerElement, StabilizerGroup, close, codeword_index
from .statevector import StateVector

__all__ = ["CodeDefinition", "five_qubit_code", "mermin_code", "steane_code",
           "code_by_name", "CODE_NAMES", "single_qubit_errors"]


@dataclass(frozen=True)
class CodeDefinition:
    name: str
    n: int
    codeword0: StateVector
    codeword1: StateVector
    norm2: int                      # exact squared norm of the stored codewords
    generators: tuple[StabilizerElement, ...]
    expected_group_order: int
    expected_stable_order: int      # size of the sign-stable subgroup
    correctable: tuple[PauliString, ...]   # error set the code claims to handle
    must_fail: tuple[PauliString, ...]     # errors the code claims NOT to handle

    def group(self) -> StabilizerGroup:
        """The closure of this definition's generators, built once."""
        return self._group

    @cached_property
    def _group(self) -> StabilizerGroup:
        return close(self.generators)

    def codeword(self, which_state: int) -> StateVector:
        return self.codeword1 if codeword_index(which_state) else self.codeword0


def single_qubit_errors(n: int) -> tuple[PauliString, ...]:
    """Identity plus every weight-1 Pauli, the standard weight<=1 error set."""
    errs = [identity(n)]
    for site in range(1, n + 1):
        for letter in "XYZ":
            errs.append(single_site(n, site, letter))
    return tuple(errs)


# ---------------------------------------------------------------------------
# five-qubit code
# ---------------------------------------------------------------------------

# The sixteen signed kets of the logical zero; amplitude magnitude 1/4.
_FIVE_MINUS = ("00000", "11000", "01100", "00110", "00011", "10001")
_FIVE_PLUS = ("10010", "10100", "01001", "01010", "00101",
              "11110", "11101", "11011", "10111", "01111")


def _five_codeword(complemented: bool) -> StateVector:
    amps = [ZERO] * 32
    for label in _FIVE_MINUS:
        amps[_ket_index(label, complemented)] = Dyadic(-1, 0, 2)
    for label in _FIVE_PLUS:
        amps[_ket_index(label, complemented)] = Dyadic(1, 0, 2)
    return StateVector(5, amps)


def _ket_index(label: str, complemented: bool) -> int:
    j = int(label, 2)
    return j ^ 0b11111 if complemented else j


@lru_cache(maxsize=None)
def five_qubit_code() -> CodeDefinition:
    base = parse("XZIZX")
    gens = [StabilizerElement(base.shift(k), +1, +1) for k in range(4)]
    gens.append(StabilizerElement(parse("ZZZZZ"), +1, -1))
    return CodeDefinition(
        name="five",
        n=5,
        codeword0=_five_codeword(False),
        codeword1=_five_codeword(True),
        norm2=1,
        generators=tuple(gens),
        expected_group_order=32,
        expected_stable_order=16,
        correctable=single_qubit_errors(5),
        must_fail=(),
    )


# ---------------------------------------------------------------------------
# three-qubit GHZ-type code (corrects one bit flip, nothing else)
# ---------------------------------------------------------------------------


def _ghz_state(sign: int) -> StateVector:
    amps = [ZERO] * 8
    amps[0b000] = Dyadic(1)
    amps[0b111] = Dyadic(sign)
    return StateVector(3, amps)


@lru_cache(maxsize=None)
def mermin_code() -> CodeDefinition:
    # XYY·YXY already equals ZZI, so the third generator must be another
    # of the sign-flipping triples to span the full eight-element listing.
    gens = (
        StabilizerElement(parse("XYY"), -1, +1),
        StabilizerElement(parse("YXY"), -1, +1),
        StabilizerElement(parse("YYX"), -1, +1),
    )
    bitflips = (identity(3),) + tuple(single_site(3, k, "X") for k in (1, 2, 3))
    return CodeDefinition(
        name="mermin",
        n=3,
        codeword0=_ghz_state(+1),
        codeword1=_ghz_state(-1),
        norm2=2,
        generators=gens,
        expected_group_order=8,
        expected_stable_order=4,
        correctable=bitflips,
        must_fail=(single_site(3, 1, "Z"),),
    )


# ---------------------------------------------------------------------------
# seven-qubit code (Hamming-based CSS construction)
# ---------------------------------------------------------------------------

# Rows of the [7,4] Hamming parity-check matrix, site 1 leftmost.
_HAMMING_ROWS = ("1010101", "0110011", "0001111")


def _hamming_dual_words() -> list[int]:
    """The eight bitmasks spanned by the parity-check rows."""
    masks = [int(r, 2) for r in _HAMMING_ROWS]
    span = {0}
    for m in masks:
        span |= {s ^ m for s in span}
    return sorted(span)


def _steane_codeword(complemented: bool) -> StateVector:
    amps = [ZERO] * 128
    flip = 0b1111111 if complemented else 0
    for w in _hamming_dual_words():
        amps[w ^ flip] = Dyadic(1)
    return StateVector(7, amps)


def _row_operator(row: str, letter: str) -> PauliString:
    return parse("".join(letter if c == "1" else "I" for c in row))


@lru_cache(maxsize=None)
def steane_code() -> CodeDefinition:
    gens = [StabilizerElement(_row_operator(r, "X"), +1, +1) for r in _HAMMING_ROWS]
    gens += [StabilizerElement(_row_operator(r, "Z"), +1, +1) for r in _HAMMING_ROWS]
    gens.append(StabilizerElement(parse("ZZZZZZZ"), +1, -1))
    return CodeDefinition(
        name="steane",
        n=7,
        codeword0=_steane_codeword(False),
        codeword1=_steane_codeword(True),
        norm2=8,
        generators=tuple(gens),
        expected_group_order=128,
        expected_stable_order=64,
        correctable=single_qubit_errors(7),
        must_fail=(),
    )


_CODES = {"five": five_qubit_code,
          "mermin": mermin_code,
          "steane": steane_code}
CODE_NAMES = tuple(_CODES)


def code_by_name(name: str) -> CodeDefinition:
    try:
        return _CODES[name]()
    except KeyError:
        raise ValueError(f"unknown code {name!r}; choose from {CODE_NAMES}") from None
