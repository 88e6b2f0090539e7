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

from dataclasses import dataclass, field

from .errors import NonCommutingGeneratorsError, NonHermitianError, SignConflictError
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


@dataclass(frozen=True)
class StabilizerElement:
    """Bare Hermitian operator plus its eigenvalue on each codeword."""

    op: PauliString
    sign0: int
    sign1: int

    def __post_init__(self):
        if self.op.phase_exp != 0:
            raise NonHermitianError(
                f"stabilizer elements store the bare operator; got {self.op}")
        if self.sign0 not in (+1, -1) or self.sign1 not in (+1, -1):
            raise ValueError("signs must be +1 or -1")

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

    Raises NonCommutingGeneratorsError when two generators anticommute, and
    SignConflictError when a generator is already in the table (a product of
    earlier generators, or a repeat) with other signs: the generators would
    then produce minus the identity.
    """
    generators = list(generators)
    if not generators:
        raise ValueError("need at least one generator")
    n = generators[0].op.n
    for i, a in enumerate(generators):
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


@dataclass
class KnillLaflammeReport:
    """Pairwise error-correctability conditions, checked exactly.

    For every error pair (Ea, Eb): <0|Ea·Eb|1> must vanish and the two
    diagonal matrix elements must agree.
    """

    pairs_checked: int
    failures: list[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def knill_laflamme_check(v0: StateVector, v1: StateVector,
                         errors) -> KnillLaflammeReport:
    """Check every pair of errors, each error applied once per codeword.

    <v_i|Ea·Eb|v_j> = <Ea†v_i|Eb v_j>, and (i**p P)† = i**(-p) P for a
    Hermitian letter part P, so the left images Ea†v_0, Ea†v_1 and the
    right images Eb v_0, Eb v_1 are built once per error (4·|E| applies)
    and each term is one inner product of two of them.
    """
    errors = list(errors)
    left = [(apply(a, v0), apply(a, v1)) for a in map(_adjoint, errors)]
    right = [(apply(e, v0), apply(e, v1)) for e in errors]
    report = KnillLaflammeReport(pairs_checked=len(errors) ** 2)
    for ea, (l0, l1) in zip(errors, left):
        for eb, (r0, r1) in zip(errors, right):
            off = inner(l0, r1)
            d0 = inner(l0, r0)
            d1 = inner(l1, r1)
            if not off.is_zero() or d0 != d1:
                report.failures.append({
                    "pair": (str(ea), str(eb)),
                    "off_diagonal": str(off),
                    "diag0": str(d0),
                    "diag1": str(d1),
                })
    return report


def _adjoint(p: PauliString) -> PauliString:
    return PauliString(p.n, -p.phase_exp, p.x, p.z)
