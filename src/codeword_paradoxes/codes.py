"""Concrete code definitions: five-qubit, three-qubit GHZ-type, seven-qubit.

Each definition is its sign-decorated generators plus the error sets the
code is claimed to correct and not to correct.  The orders the package
asserts against follow from n: the group has 2**n elements and its
sign-stable subgroup 2**(n-1).  The codewords are not stored: codeword j
is the vector the closed group fixes with its signs on codeword j, derived
once per definition.  It is left unnormalized: a state vector of Gaussian
integers with amplitude 1 on the first ket of its support and a power of i
on the rest, so it needs no denominator; every consumer is
normalization-independent.  The paper's ket listings are kept in the
tests, which check each derived codeword against them.
"""

from __future__ import annotations

from functools import cached_property, lru_cache

from .pauli import PauliString, identity, parse, single_site
from .stabilizer import StabilizerElement, StabilizerGroup, close, codeword_index
from .statevector import StateVector, apply

__all__ = ["CodeDefinition", "five_qubit_code", "mermin_code", "steane_code",
           "code_by_name", "CODE_NAMES", "single_qubit_errors"]


class CodeDefinition:
    """A code's signed generators and the errors claimed for it.

    Read-only after construction.  The closed group and the codewords are
    derived on first use and cached in the instance __dict__, so each
    definition derives its own.
    """

    def __init__(self, name: str, n: int,
                 generators: tuple[StabilizerElement, ...],
                 correctable: tuple[PauliString, ...],  # errors the code handles
                 must_fail: tuple[PauliString, ...]):   # errors it does NOT handle
        self.__dict__.update(
            name=name, n=n, generators=generators, correctable=correctable,
            must_fail=must_fail)

    def __setattr__(self, name, value):
        raise AttributeError("CodeDefinition is read-only")

    def __repr__(self) -> str:
        return f"CodeDefinition(name={self.name!r}, n={self.n})"

    def group(self) -> StabilizerGroup:
        """The closure of this definition's generators, built once."""
        return self._group

    @cached_property
    def _group(self) -> StabilizerGroup:
        return close(self.generators)

    def codeword(self, which_state: int) -> StateVector:
        """The vector the group fixes with its which_state signs, built once."""
        index = codeword_index(which_state)   # before any derivation
        return self._codewords[index]

    @cached_property
    def _codewords(self) -> tuple[StateVector, StateVector]:
        group = self.group()
        if len(group) != 1 << self.n:
            raise ValueError(
                f"{self.name}: {len(group)} group elements on {self.n} qubits "
                f"fix a space of dimension {(1 << self.n) // len(group)} per "
                f"codeword, not one vector")
        return _fixed_vector(group, 0), _fixed_vector(group, 1)

    @property
    def norm2(self) -> int:
        """<v|v> for either codeword: the size of its support, since each
        amplitude is 0 or a power of i."""
        return len(self.codeword(0).support)


def _fixed_vector(group: StabilizerGroup, which_state: int) -> StateVector:
    """Sum of s_g·g|k> over the group, for the first basis ket |k> that the
    sum does not annihilate, divided by its amplitude at k.

    With |G| = 2**n the sum is |G|·|c><c|k> for the one vector c that every
    g fixes with sign s_g.  It is nonzero exactly when k is in c's support,
    that is when every X-free element fixes |k> with its sign, and its
    amplitude at k is |G|·|<c|k>|**2, a power of two that divides every
    sum exactly.  So the result has amplitude 1 at k and 0 or a power of i
    elsewhere.
    """
    signed = [(e.op, e.sign(which_state)) for e in group]
    diagonal = [(op.z, s) for op, s in signed if not op.x]
    k = next(k for k in range(1 << group.n)
             if all((-1) ** (k & z).bit_count() == s for z, s in diagonal))
    ket = StateVector(group.n, {k: (1, 0)})
    sums: dict[int, tuple[int, int]] = {}
    for op, s in signed:
        [(j, (dr, di))] = apply(op, ket).support.items()
        re, im = sums.get(j, (0, 0))
        sums[j] = (re + s * dr, im + s * di)
    pivot = sums[k][0]
    return StateVector(group.n, {j: (re // pivot, im // pivot)
                                 for j, (re, im) in sums.items()})


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

@lru_cache(maxsize=None)
def five_qubit_code() -> CodeDefinition:
    base = parse("XZIZX")
    gens = [StabilizerElement(base.shift(k), +1, +1) for k in range(4)]
    gens.append(StabilizerElement(parse("ZZZZZ"), +1, -1))
    return CodeDefinition(
        name="five",
        n=5,
        generators=tuple(gens),
        correctable=single_qubit_errors(5),
        must_fail=(),
    )


# ---------------------------------------------------------------------------
# three-qubit GHZ-type code (corrects one bit flip, nothing else)
# ---------------------------------------------------------------------------

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
        generators=gens,
        correctable=bitflips,
        must_fail=(single_site(3, 1, "Z"),),
    )


# ---------------------------------------------------------------------------
# seven-qubit code (Hamming-based CSS construction)
# ---------------------------------------------------------------------------

# Rows of the [7,4] Hamming parity-check matrix, site 1 leftmost.
_HAMMING_ROWS = ("1010101", "0110011", "0001111")


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
        generators=tuple(gens),
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
