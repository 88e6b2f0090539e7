"""State-dependent contradictions: reality determinations, parity arguments,
and the multiplicative operator-array argument.

Everything here reduces a physical claim to exact bookkeeping.  A parity
instance records operators together with their eigenvalues on one codeword;
classical value assignments would force the product of those eigenvalues to
+1 whenever every single-qubit symbol appears an even number of times, so an
instance with even multiplicities and eigenvalue product -1 is a
contradiction.  The exact operator product (which must then equal minus the
identity) is computed as an independent cross-check on the sign data.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import comb

from .errors import BudgetExceededError, NonHermitianError
from .pauli import PauliString, from_letters, identity, single_site
from .stabilizer import StabilizerGroup
from .statevector import StateVector, eigensign

__all__ = [
    "Determination",
    "find_determinations",
    "compatible_pairs",
    "ParityInstance",
    "ParityReport",
    "check_parity_contradiction",
    "parity_instance_from_group",
    "canonical_pentagon_instance",
    "pentagon_description",
    "XZX_TRIPLES",
    "ROW_SITES",
    "xzx_operator",
    "OperatorArray",
    "ArrayReport",
    "check_array",
    "build_canonical_array",
    "mermin_peres_square",
    "ParitySearchResult",
    "search_parity_contradictions",
]


# ---------------------------------------------------------------------------
# elements of reality
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Determination:
    """A recipe fixing one single-qubit observable from the other qubits.

    The underlying group element factors as (target letter at the target
    site) x (witness on the remaining sites); measuring the witness factors
    site by site and multiplying determines the target with certainty.
    """

    witness: PauliString
    predicted_product: int


def find_determinations(group: StabilizerGroup, site: int, letter: str,
                        which_state: int = 0) -> list[Determination]:
    """All group elements carrying `letter` at `site`, split into witnesses."""
    if letter not in ("X", "Y", "Z"):
        raise ValueError(f"target letter must be X, Y or Z, not {letter!r}")
    out = []
    n = group.n
    if not 1 <= site <= n:
        raise ValueError(f"site {site} out of range 1..{n}")
    other_sites = [k for k in range(1, n + 1) if k != site]
    for e in group:
        if e.op.letter(site) == letter:
            out.append(Determination(e.op.restrict(other_sites),
                                     e.sign(which_state)))
    out.sort(key=lambda d: d.witness.key())
    return out


def compatible_pairs(determinations) -> list[tuple[Determination, Determination]]:
    """Pairs of witnesses measurable simultaneously qubit by qubit.

    Site-wise compatibility (letters equal or identity) is the operational
    notion; commutation of the witness products would be strictly weaker.
    """
    ds = list(determinations)
    pairs = []
    for i in range(len(ds)):
        for j in range(i + 1, len(ds)):
            if _sitewise_compatible(ds[i].witness, ds[j].witness):
                pairs.append((ds[i], ds[j]))
    return pairs


def _sitewise_compatible(a: PauliString, b: PauliString) -> bool:
    """Letters equal or one of them I at every site, read off the masks:
    no site in both supports where the (x, z) bits differ."""
    return not ((a.x ^ b.x) | (a.z ^ b.z)) & (a.x | a.z) & (b.x | b.z)


# ---------------------------------------------------------------------------
# parity contradictions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ParityInstance:
    """Operators with their eigenvalues on one fixed state."""

    state_label: str
    state: StateVector
    members: tuple[tuple[PauliString, int], ...]

    def factor_multiset(self) -> dict[tuple[int, str], int]:
        counts: Counter = Counter()
        for op, _sign in self.members:
            for k, letter in enumerate(op.letters, start=1):
                if letter != "I":
                    counts[(k, letter)] += 1
        return dict(counts)

    def operator_texts(self) -> list[str]:
        return [f"{sign:+d} {op}" for op, sign in self.members]


@dataclass
class ParityReport:
    operators: list[str]
    multiplicities: dict
    all_even: bool
    eigenvalue_product: int
    matrix_product: str
    contradiction: bool


def check_parity_contradiction(inst: ParityInstance) -> ParityReport:
    """Verdict plus the independent matrix-product cross-check.

    Raises ValueError when a member is not an eigenoperator of the state
    with the declared sign; that is an input error, not a report entry.
    """
    if not inst.members:
        raise ValueError("parity instance has no operators")
    for op, sign in inst.members:
        _check_eigensign(op, sign, inst.state, inst.state_label)

    all_even, product_sign, prod = _parity_bookkeeping(
        inst.members, [_coord_mask(op) for op, _sign in inst.members])
    mult = inst.factor_multiset()
    return ParityReport(
        operators=inst.operator_texts(),
        multiplicities={f"{site},{letter}": c for (site, letter), c in sorted(mult.items())},
        all_even=all_even,
        eigenvalue_product=product_sign,
        matrix_product=str(prod),
        contradiction=all_even and product_sign == -1,
    )


def _check_eigensign(op: PauliString, sign: int, state: StateVector,
                     state_label: str) -> None:
    got = eigensign(op, state)
    if got != sign:
        raise ValueError(
            f"{op} is not a {sign:+d} eigenoperator of {state_label}"
            f" (observed {got})")


def _parity_bookkeeping(members, masks) -> tuple[bool, int, PauliString]:
    """(all multiplicities even, eigenvalue product, operator product).

    masks are the members' _coord_masks, in order.  The members'
    eigensigns must already be verified against the state: then an
    even-multiplicity instance has operator product exactly (eigenvalue
    product) x identity, and a disagreement is a bug.
    """
    coords = 0
    product_sign = 1
    for (_op, sign), mask in zip(members, masks):
        coords ^= mask
        product_sign *= sign
    all_even = coords == 0
    prod = _product([op for op, _sign in members])
    if all_even and (_scalar_sign(prod) == -1) != (product_sign == -1):
        raise AssertionError("sign bookkeeping and matrix product disagree")
    return all_even, product_sign, prod


def parity_instance_from_group(group: StabilizerGroup, state: StateVector,
                               state_label: str, ops, which_state: int) -> ParityInstance:
    """Build an instance by looking up each operator's sign in the group."""
    members = []
    for op in ops:
        elem = group.find(op)
        if elem is None:
            raise ValueError(f"{op} is not a group element")
        members.append((elem.op, elem.sign(which_state)))
    return ParityInstance(state_label, state, tuple(members))


# The five cyclic XZX triples (a, b, c) of the five-qubit code, one per
# pentagon side: X on sites a and c, Z on site b.
XZX_TRIPLES = tuple((k, k % 5 + 1, (k + 1) % 5 + 1) for k in range(1, 6))

# Row r of the operator array constrains X on sites (r-2, r) and Z on r-1.
ROW_SITES = {r: XZX_TRIPLES[(r - 3) % 5] for r in range(2, 7)}


def xzx_operator(a: int, b: int, c: int) -> PauliString:
    """X_a·Z_b·X_c on five qubits; the sites are distinct, so the phase is 0."""
    letters = {a: "X", b: "Z", c: "X"}
    return from_letters(letters.get(k, "I") for k in range(1, 6))


def canonical_pentagon_instance(code, which_state: int) -> ParityInstance:
    """The six-operator instance: all-Z plus the five XZX triples."""
    group = code.group()
    ops = [from_letters("Z" * 5)]
    ops += [xzx_operator(*t) for t in XZX_TRIPLES]
    label = "|0_L>" if which_state == 0 else "|1_L>"
    return parity_instance_from_group(group, code.codeword(which_state),
                                      label, ops, which_state)


def pentagon_description(code) -> dict:
    """Text/JSON rendering of the pentagon figure: one side per XZX triple."""
    group = code.group()
    sides = []
    for k, (a, b, c) in enumerate(XZX_TRIPLES, start=1):
        elem = group.find(xzx_operator(a, b, c))
        sides.append({
            "side": k,
            "measurements": [f"sigma_{a}x", f"sigma_{b}z", f"sigma_{c}x"],
            "product_operator": str(elem.op),
            "value_on_codeword0": elem.sign0,
            "value_on_codeword1": elem.sign1,
        })
    zz = group.find(from_letters("Z" * 5))
    return {
        "vertices": [f"qubit_{k}" for k in range(1, 6)],
        "sides": sides,
        "closing_relation": {
            "measurements": [f"sigma_{k}z" for k in range(1, 6)],
            "product_operator": str(zz.op),
            "value_on_codeword0": zz.sign0,
            "value_on_codeword1": zz.sign1,
        },
    }


# ---------------------------------------------------------------------------
# operator array (multiplicative argument)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OperatorArray:
    """Grid of Hermitian operators with declared row/column product signs."""

    rows: tuple[tuple[PauliString, ...], ...]
    declared_row_signs: tuple[int, ...]
    declared_col_signs: tuple[int, ...]

    def __post_init__(self):
        widths = {len(r) for r in self.rows}
        if len(widths) != 1:
            raise ValueError("ragged operator array")
        for row in self.rows:
            for cell in row:
                if not cell.is_hermitian():
                    raise NonHermitianError(f"array cell {cell} is not Hermitian")

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.rows), len(self.rows[0])

    def cell(self, row: int, col: int) -> PauliString:
        """1-based access (row 1, column 1 is the top-left cell)."""
        return self.rows[row - 1][col - 1]

    def column(self, col: int) -> tuple[PauliString, ...]:
        return tuple(row[col - 1] for row in self.rows)


@dataclass
class ArrayReport:
    row_commuting: list[bool]
    row_products: list[str]
    row_signs_match: bool
    col_commuting: list[bool]
    col_products: list[str]
    col_signs_match: bool
    rowwise_total: str
    colwise_total: str
    impossibility: bool


def _product(ops) -> PauliString:
    prod = identity(ops[0].n)
    for op in ops:
        prod = prod * op
    return prod


def _scalar_sign(p: PauliString) -> int | None:
    """+1 / -1 when p is ±identity, else None."""
    if not p.is_identity_op():
        return None
    return {0: +1, 2: -1}.get(p.phase_exp)


def _all_commute(ops) -> bool:
    return all(a.commutes_with(b) for i, a in enumerate(ops) for b in ops[i + 1:])


def check_array(arr: OperatorArray) -> ArrayReport:
    nrows, ncols = arr.shape
    row_products = [_product(row) for row in arr.rows]
    col_products = [_product(arr.column(c)) for c in range(1, ncols + 1)]

    rowwise = _product(row_products)
    colwise = _product(col_products)

    return ArrayReport(
        row_commuting=[_all_commute(row) for row in arr.rows],
        row_products=[str(p) for p in row_products],
        row_signs_match=all(_scalar_sign(p) == s
                            for p, s in zip(row_products, arr.declared_row_signs)),
        col_commuting=[_all_commute(arr.column(c)) for c in range(1, ncols + 1)],
        col_products=[str(p) for p in col_products],
        col_signs_match=all(_scalar_sign(p) == s
                            for p, s in zip(col_products, arr.declared_col_signs)),
        rowwise_total=str(rowwise),
        colwise_total=str(colwise),
        impossibility=rowwise != colwise,
    )


def build_canonical_array() -> OperatorArray:
    """The 6x13 grid: z block in columns 1-5, x block in columns 6-10
    (column 5+k holds the site-k X operator), identity padding in 11-12,
    row products in column 13."""
    ident = identity(5)
    rows = []

    row1 = [single_site(5, k, "Z") for k in range(1, 6)]
    row1 += [ident] * 7
    row1.append(from_letters("Z" * 5))
    rows.append(tuple(row1))

    for r in range(2, 7):
        a, b, c = ROW_SITES[r]
        row = [ident] * 13
        row[b - 1] = single_site(5, b, "Z")
        row[5 + a - 1] = single_site(5, a, "X")
        row[5 + c - 1] = single_site(5, c, "X")
        row[12] = xzx_operator(a, b, c)
        rows.append(tuple(row))

    return OperatorArray(
        rows=tuple(rows),
        declared_row_signs=(+1,) * 6,
        declared_col_signs=(+1,) * 12 + (-1,),
    )


def mermin_peres_square() -> OperatorArray:
    """The classic two-qubit 3x3 square; a regression instance of the same
    multiplicative argument."""
    grid = (("XI", "IX", "XX"),
            ("IZ", "ZI", "ZZ"),
            ("XZ", "ZX", "YY"))
    rows = tuple(tuple(from_letters(cell) for cell in row) for row in grid)
    return OperatorArray(rows=rows,
                         declared_row_signs=(+1, +1, +1),
                         declared_col_signs=(+1, +1, -1))


# ---------------------------------------------------------------------------
# automated parity-contradiction search
# ---------------------------------------------------------------------------


@dataclass
class ParitySearchResult:
    instances: list[ParityInstance]  # smallest first, then by element index
    complete_to_size: int
    nodes_used: int


_LETTER_INDEX = {"X": 0, "Y": 1, "Z": 2}


def _coord_mask(op: PauliString) -> int:
    mask = 0
    for k, letter in enumerate(op.letters, start=1):
        if letter != "I":
            mask |= 1 << ((k - 1) * 3 + _LETTER_INDEX[letter])
    return mask


def search_parity_contradictions(group: StabilizerGroup, which_state: int,
                                 max_subset: int, state: StateVector,
                                 node_budget: int = 3_000_000) -> ParitySearchResult:
    """Subsets of the group whose sign bookkeeping is classically impossible.

    Each element maps to a GF(2) vector over (site, letter) coordinates;
    even-multiplicity subsets are exactly the nullspace of that linear map.
    Tier t (subsets of size t) visits each (t-1)-subset once and costs
    comb(n, t-1) nodes.  The tiers that fit node_budget are fixed before
    anything is enumerated, so each is completed atomically and the result
    is deterministic; the signs then select the even subsets with an odd
    number of -1 members.

    Every element's sign is checked against the given state with eigensign
    (ValueError on a mismatch), which covers every member of every returned
    subset.  Each subset is then rechecked by the bookkeeping that
    check_parity_contradiction uses: even multiplicities, eigenvalue
    product -1, and operator product exactly minus the identity.

    The identity element is excluded: it contributes nothing and would only
    pad otherwise-minimal subsets.  Subsets come smallest first, then in
    element index order.  The group keeps its elements sorted by op.key(),
    and they all have phase 0 and one length, so index order is the order
    of their texts.
    """
    elements = group.non_identity()
    vecs = tuple(_coord_mask(e.op) for e in elements)
    signs = [e.sign(which_state) for e in elements]
    neg_mask = sum(1 << i for i, s in enumerate(signs) if s == -1)
    label = f"codeword{which_state}"

    complete_to, used = _completed_tiers(len(vecs), max_subset, node_budget)
    subsets = [idxs for idxs in _even_subsets(vecs, complete_to)
               if _odd_parity(idxs, neg_mask)]
    if not subsets and complete_to < max_subset:
        raise BudgetExceededError(
            f"parity search exhausted its budget at size {complete_to} "
            f"of {max_subset} with nothing found")

    for e, sign in zip(elements, signs):
        _check_eigensign(e.op, sign, state, label)
    subsets.sort(key=lambda idxs: (len(idxs), idxs))
    instances = []
    for idxs in subsets:
        members = tuple((elements[i].op, signs[i]) for i in idxs)
        all_even, product_sign, _prod = _parity_bookkeeping(
            members, [vecs[i] for i in idxs])
        if not (all_even and product_sign == -1):
            raise AssertionError("search returned a non-contradiction subset")
        instances.append(ParityInstance(label, state, members))
    return ParitySearchResult(instances, complete_to, used)


def _odd_parity(idxs, neg_mask: int) -> bool:
    """True when an odd number of the indexed elements have sign -1."""
    return sum((neg_mask >> i) & 1 for i in idxs) % 2 == 1


def _completed_tiers(n: int, max_subset: int, node_budget: int) -> tuple[int, int]:
    """(largest size t whose tiers 2..t fit node_budget, their node cost).

    Tier t costs comb(n, t-1), one node per (t-1)-subset.  Sizes 0 and 1
    are vacuously complete: a non-identity element has at least one odd
    letter multiplicity.  No subset is larger than n, so once tier n+1
    (the single n-subset) fits, every larger tier is complete at no cost.
    """
    complete_to = min(1, max_subset)
    used = 0
    for t in range(2, max_subset + 1):
        cost = comb(n, t - 1)
        if used + cost > node_budget:
            break
        used += cost
        complete_to = t
        if t > n:
            return max_subset, used
    return complete_to, used


def _even_subsets(vecs, max_size: int) -> list[tuple[int, ...]]:
    """Every subset of size 2..max_size whose vectors XOR to zero, as
    increasing index tuples, each found exactly once.

    The vectors are distinct, so a subset XORs to zero exactly when its
    smaller members XOR to the vector of an element whose index comes
    after all of them.  A depth-first walk over the subsets of size
    1..max_size-1 carries their running XOR and finds each zero-XOR subset
    by one lookup; it visits each of those subsets once, which is the node
    count of _completed_tiers.
    """
    last = {v: i for i, v in enumerate(vecs)}
    if len(last) != len(vecs):
        raise ValueError("coordinate vectors are not distinct")
    n = len(vecs)
    found: list[tuple[int, ...]] = []

    def extend(prefix: tuple[int, ...], r: int) -> None:
        deeper = len(prefix) + 2 < max_size
        for i in range(prefix[-1] + 1 if prefix else 0, n):
            ri = r ^ vecs[i]
            if last.get(ri, -1) > i:
                found.append(prefix + (i, last[ri]))
            if deeper:
                extend(prefix + (i,), ri)

    if max_size >= 2:
        extend((), 0)
    return found
