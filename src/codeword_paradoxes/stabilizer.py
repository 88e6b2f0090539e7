"""Sign-decorated Abelian groups attached to a pair of codewords.

An element is a bare (phase-0) Hermitian Pauli string together with its exact
eigenvalues on the two codewords.  Any minus sign that operator algebra
produces (for instance X·Z = -iY per site) is folded into those eigenvalues
during closure, so the operator table stays canonical and deduplication is a
plain dictionary lookup on the letter masks.

The signs are the ground truth: each code's codewords are derived from them
(codes.CodeDefinition.codeword), and verify_stabilizes replays every element
against those vectors by an independent route, Pauli action and eigensign.
The paper's ket listings are checked against the derived codewords in the
tests.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import (DimensionMismatchError, NonCommutingGeneratorsError,
                     NonHermitianError, SignConflictError)
from .pauli import PauliString, identity
from .statevector import StateVector, apply, eigensign, inner

__all__ = [
    "StabilizerElement",
    "StabilizerGroup",
    "close",
    "verify_stabilizes",
    "invariant_subgroup",
    "knill_laflamme_check",
    "KnillLaflammeReport",
]


def codeword_index(which_state: int) -> int:
    """which_state itself, once checked to name codeword 0 or codeword 1."""
    if which_state not in (0, 1):
        raise ValueError(f"which_state must be 0 or 1, not {which_state!r}")
    return which_state


class StabilizerElement(NamedTuple):
    """Bare Hermitian operator plus its eigenvalue on each codeword.

    close() checks the fields of the elements it is given: a phased
    operator or a sign other than +1 or -1 is refused there."""

    op: PauliString
    sign0: int
    sign1: int

    @property
    def sign_stable(self) -> bool:
        return self.sign0 == self.sign1

    def sign(self, which_state: int) -> int:
        return self.sign1 if codeword_index(which_state) else self.sign0

    def __str__(self) -> str:
        return f"{self.sign0:+d} {self.sign1:+d} {self.op}"


class StabilizerGroup:
    """Closed, Abelian, sign-consistent set of StabilizerElements."""

    def __init__(self, n: int, elements):
        self.n = n
        self.elements = sorted(elements, key=lambda e: e.op.key())
        self._by_xz = {(e.op.x, e.op.z): e for e in self.elements}

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def find(self, op: PauliString) -> StabilizerElement | None:
        """The element with op's letters (any phase), or None."""
        if op.n != self.n:
            return None
        return self._by_xz.get((op.x, op.z))

    def non_identity(self) -> list[StabilizerElement]:
        return [e for e in self.elements if not e.op.is_identity_op()]


def close(generators) -> StabilizerGroup:
    """Smallest multiplicatively closed sign-consistent set containing the input.

    Built by coset doubling: the table starts as the identity, and each
    generator in turn either is already in it (by letters) or is multiplied
    into every element there.  The table is a group, so that coset is
    disjoint from it and the table doubles; closure takes |G| products.

    Raises NonHermitianError when a generator's operator has a phase,
    ValueError when a sign is not +1 or -1, NonCommutingGeneratorsError
    when two generators anticommute, and SignConflictError when a generator
    is already in the table (a product of earlier generators, or a repeat)
    with other signs: the generators would then produce minus the identity.
    """
    generators = list(generators)
    if not generators:
        raise ValueError("need at least one generator")
    n = generators[0].op.n
    for i, a in enumerate(generators):
        if a.op.phase_exp != 0:
            raise NonHermitianError(
                f"stabilizer elements store the bare operator; got {a.op}")
        if a.sign0 not in (+1, -1) or a.sign1 not in (+1, -1):
            raise ValueError("signs must be +1 or -1")
        for b in generators[i + 1:]:
            if not a.op.commutes_with(b.op):
                raise NonCommutingGeneratorsError(
                    f"generators {a.op} and {b.op} anticommute")

    ident = identity(n)
    table: dict[tuple[int, int], StabilizerElement] = {
        (ident.x, ident.z): StabilizerElement(ident, +1, +1)
    }
    for g in generators:
        existing = table.get((g.op.x, g.op.z))
        if existing is not None:
            if (existing.sign0, existing.sign1) != (g.sign0, g.sign1):
                raise SignConflictError(
                    f"operator {g.op} derived with signs "
                    f"({existing.sign0},{existing.sign1}) and ({g.sign0},{g.sign1})")
            continue
        for a in list(table.values()):
            prod = a.op * g.op   # the factors commute: phase_exp is 0 or 2
            flip = 1 - prod.phase_exp
            table[(prod.x, prod.z)] = StabilizerElement(
                prod.bare(), a.sign0 * g.sign0 * flip, a.sign1 * g.sign1 * flip)

    return StabilizerGroup(n, table.values())


def verify_stabilizes(group: StabilizerGroup, v0: StateVector,
                      v1: StateVector) -> list[dict]:
    """Check eigensign(op, v0) == sign0 and eigensign(op, v1) == sign1 exactly.

    Returns one record per element whose signs disagree; empty when every
    element stabilizes the codewords with its declared signs.
    """
    violations = []
    for e in group:
        got0 = eigensign(e.op, v0)
        got1 = eigensign(e.op, v1)
        if got0 != e.sign0 or got1 != e.sign1:
            violations.append({
                "op": str(e.op),
                "expected": (e.sign0, e.sign1),
                "observed": (got0, got1),
            })
    return violations


def invariant_subgroup(group: StabilizerGroup) -> StabilizerGroup:
    """Elements whose sign is the same on both codewords.

    Closed with close(), so it refuses what close() refuses (anticommuting
    or sign-inconsistent elements); the closure must add nothing, and the
    subgroup must have index 1 or 2.  In an Abelian group that is all the
    structure there is to check.
    """
    stable = [e for e in group if e.sign_stable]
    closed = close(stable)
    if len(closed) > len(stable):
        raise SignConflictError(
            f"sign-stable elements are not closed: {len(stable)} generate "
            f"{len(closed)}")
    index = len(group) // len(closed)
    if index * len(closed) != len(group) or index not in (1, 2):
        raise SignConflictError(
            f"sign-stable subset has impossible index {len(group)}/{len(closed)}")
    return closed


class KnillLaflammeReport(NamedTuple):
    """Pairwise error-correctability conditions, checked exactly.

    For every error pair (Ea, Eb): <0|Ea·Eb|1> must vanish and the two
    diagonal matrix elements must agree.
    """

    pairs_checked: int
    failures: list[dict]

    @property
    def ok(self) -> bool:
        return not self.failures


def knill_laflamme_check(v0: StateVector, v1: StateVector, errors,
                         stable: StabilizerGroup) -> KnillLaflammeReport:
    """Check every pair of errors by the stabilizer rule for E = Ea·Eb.

    stable is S, the sign-stable subgroup of the codewords' group
    (invariant_subgroup): each element fixes v0 and v1 with one sign s, and
    the codewords have one norm.  The letters of Ea·Eb and Ea†·Eb agree, so
    one rule serves both, and it decides each pair with one XOR and one
    lookup:
    - if E anticommutes with an element g of S, the three terms are zero,
      <v_i|E|v_j> = s<v_i|E g|v_j> = -s<v_i|g E|v_j> = -<v_i|E|v_j>.
      Each error's syndrome (its anticommutation bits against the
      elements of S) is found once, and a pair's is the XOR of its
      errors';
    - if E is c·g for an element g of S, both diagonals are c·s times the
      common norm and the off-diagonal term is c·s<v0|v1>.  That is zero
      when S has order 2**(n-1): an element of the group outside S then
      has opposite signs on the two codewords.  Only then does E pass, by
      a lookup of its letters among the elements'.  When S has order 2**n
      it fixes one state, the codewords coincide, and the pair fails;
    - otherwise E commutes with S without lying in it: it acts on the span
      as a logical Pauli other than the identity, and the pair fails.
    Only a failing pair is applied to the codewords, to write its terms
    <v0|E v1>, <v0|E v0> and <v1|E v1>.
    """
    errors = list(errors)
    syndromes = []
    for e in errors:
        if e.n != v0.n:
            raise DimensionMismatchError(
                f"dimension mismatch: {e.n} vs {v0.n} qubits")
        syndromes.append(sum(1 << k for k, g in enumerate(stable)
                             if not e.commutes_with(g.op)))
    # at order 2**n the codewords coincide, and no pair passes by lying in S
    in_s = stable._by_xz if len(stable) == 1 << (stable.n - 1) else {}
    failures = []
    for ea, sa in zip(errors, syndromes):
        for eb, sb in zip(errors, syndromes):
            if sa != sb or (ea.x ^ eb.x, ea.z ^ eb.z) in in_s:
                continue
            e = ea * eb
            w1 = apply(e, v1)
            failures.append({
                "pair": (str(ea), str(eb)),
                "off_diagonal": _gaussian_text(inner(v0, w1)),
                "diag0": _gaussian_text(inner(v0, apply(e, v0))),
                "diag1": _gaussian_text(inner(v1, w1)),
            })
    return KnillLaflammeReport(len(errors) ** 2, failures)


def _gaussian_text(value: tuple[int, int]) -> str:
    """re + im*i as ``a + b i``, dropping zero parts: ``0``, ``3``,
    ``-16``, ``16 i``, ``1 - 1 i``."""
    re, im = value
    if not im:
        return str(re)
    if not re:
        return f"{im} i"
    return f"{re} {'-' if im < 0 else '+'} {abs(im)} i"

