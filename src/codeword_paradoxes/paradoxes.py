"""State-dependent contradictions: reality determinations, parity arguments,
and the multiplicative operator-array argument.

Everything here reduces a physical claim to exact bookkeeping.  A parity
instance is a tuple of a code's group elements; a codeword only picks which
of each element's two signs is its eigenvalue.  Classical value assignments
would force the product of the eigenvalues to +1 whenever every single-qubit
symbol appears an even number of times.  The operator product is then +-I,
and that scalar is the eigenvalue product on either codeword, so an instance
whose product is -I is a contradiction on both.  The exact product is
computed as an independent cross-check on the sign data.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations
from math import comb
from typing import NamedTuple

from .codes import CodeDefinition
from .errors import BudgetExceededError, NonHermitianError
from .pauli import PauliString, from_letters, identity, single_site
from .stabilizer import StabilizerElement, StabilizerGroup, codeword_index
from .statevector import eigensign

__all__ = [
    "Determination",
    "find_determinations",
    "compatible_pairs",
    "ParityInstance",
    "ParityReport",
    "check_parity_contradiction",
    "parity_instance",
    "canonical_pentagon_instance",
    "pentagon_description",
    "XZX_TRIPLES",
    "ROW_SITES",
    "xzx_operator",
    "OperatorArray",
    "ArrayReport",
    "check_array",
    "build_canonical_array",
    "ParitySearchResult",
    "search_parity_contradictions",
]


# ---------------------------------------------------------------------------
# elements of reality
# ---------------------------------------------------------------------------


class Determination(NamedTuple):
    """A recipe fixing one single-qubit observable from the other qubits.

    The underlying group element factors as (target letter at the target
    site) x (witness on the remaining sites); measuring the witness factors
    site by site and multiplying determines the target with certainty.
    """

    witness: PauliString
    predicted_product: int


def find_determinations(group: StabilizerGroup, site: int, letter: str,
                        which_state: int = 0) -> list[Determination]:
    """All group elements carrying `letter` at `site`, split into witnesses.

    The group keeps its elements sorted by key, and clearing the one site
    they all share keeps that order, so the witnesses come out sorted.
    """
    if letter not in ("X", "Y", "Z"):
        raise ValueError(f"target letter must be X, Y or Z, not {letter!r}")
    codeword_index(which_state)
    target = single_site(group.n, site, letter)
    bit = target.x | target.z
    return [Determination(PauliString(group.n, 0, e.op.x & ~bit, e.op.z & ~bit),
                          e.sign(which_state))
            for e in group
            if (e.op.x & bit, e.op.z & bit) == (target.x, target.z)]


def compatible_pairs(determinations) -> list[tuple[Determination, Determination]]:
    """Pairs of witnesses measurable simultaneously qubit by qubit.

    Site-wise compatibility (letters equal or identity) is the operational
    notion; commutation of the witness products would be strictly weaker.
    It is read off the masks: no site in both supports where the (x, z)
    bits differ.  The pairs come in combinations order, each a pair of the
    given determinations themselves.
    """
    masks = []
    for d in determinations:
        w = d.witness
        masks.append((d, w.x, w.z, w.x | w.z))
    return [(a, b)
            for (a, ax, az, a_support), (b, bx, bz, b_support)
            in combinations(masks, 2)
            if not ((ax ^ bx) | (az ^ bz)) & a_support & b_support]


# ---------------------------------------------------------------------------
# parity contradictions
# ---------------------------------------------------------------------------


class ParityInstance(NamedTuple):
    """Elements of code's group; a codeword picks the sign read of each."""

    code: CodeDefinition
    members: tuple[StabilizerElement, ...]

    def factor_multiset(self) -> dict[tuple[int, str], int]:
        counts: Counter = Counter()
        for e in self.members:
            for k, letter in enumerate(e.op.letters, start=1):
                if letter != "I":
                    counts[(k, letter)] += 1
        return dict(counts)

    def operator_texts(self, which_state: int) -> list[str]:
        return [f"{e.sign(which_state):+d} {e.op}" for e in self.members]


class ParityReport(NamedTuple):
    operators: list[str]
    symbol_multiplicities: dict
    all_multiplicities_even: bool
    eigenvalue_product: int
    operator_product: str
    contradiction: bool


def check_parity_contradiction(inst: ParityInstance,
                               which_state: int) -> ParityReport:
    """Verdict on codeword which_state, plus the matrix-product cross-check.

    Raises ValueError when a member's sign on that codeword is not its
    eigenvalue there; that is an input error, not a report entry.
    """
    state = inst.code.codeword(which_state)
    if not inst.members:
        raise ValueError("parity instance has no operators")
    for e in inst.members:
        sign = e.sign(which_state)
        got = eigensign(e.op, state)
        if got != sign:
            raise ValueError(
                f"{e.op} is not a {sign:+d} eigenoperator of the state"
                f" (observed {got})")

    xor, prod = _parity_bookkeeping(inst.members, which_state)
    mult = inst.factor_multiset()
    return ParityReport(
        operators=inst.operator_texts(which_state),
        symbol_multiplicities={f"{site},{letter}": c
                               for (site, letter), c in sorted(mult.items())},
        all_multiplicities_even=xor & ~_ODD_SIGNS == 0,
        eigenvalue_product=-1 if xor & _ODD_SIGNS else +1,
        operator_product=str(prod),
        contradiction=xor == _ODD_SIGNS,
    )


# Bit 0 of a parity vector: set for an eigenvalue of -1.
_ODD_SIGNS = 1


def _parity_vector(op: PauliString, sign: int) -> int:
    """One GF(2) coordinate per (site, letter) symbol of op, above the sign
    bit _ODD_SIGNS: the X, Y and Z sites of op in three n-bit fields.

    A set of members XORs to 0 or _ODD_SIGNS exactly when every symbol
    occurs an even number of times, and to _ODD_SIGNS exactly when,
    besides, an odd number of the eigenvalues are -1: a contradiction.
    """
    x, z, n = op.x, op.z, op.n
    symbols = (x & ~z) | (x & z) << n | (z & ~x) << 2 * n
    return symbols << 1 | (sign == -1)


def _parity_bookkeeping(members, which_state: int) -> tuple[int, PauliString]:
    """(XOR of the parity vectors on codeword which_state, operator product).

    The members' signs must be their eigenvalues on the codeword: then an
    even-multiplicity instance has operator product exactly
    (eigenvalue product) x identity, and a disagreement is a bug.
    """
    xor = 0
    for e in members:
        xor ^= _parity_vector(e.op, e.sign(which_state))
    prod = _product([e.op for e in members])
    all_even = xor & ~_ODD_SIGNS == 0
    if all_even and (_scalar_sign(prod) == -1) != (xor == _ODD_SIGNS):
        raise AssertionError("sign bookkeeping and matrix product disagree")
    return xor, prod


def parity_instance(code: CodeDefinition, ops) -> ParityInstance:
    """The elements of the code's group with the letters of ops."""
    group = code.group()
    return ParityInstance(code, tuple(_element(group, op) for op in ops))


def _element(group: StabilizerGroup, op: PauliString) -> StabilizerElement:
    """The element of group with op's letters; ValueError when there is none."""
    elem = group.find(op)
    if elem is None:
        raise ValueError(f"{op} is not a group element")
    return elem


# The five cyclic XZX triples (a, b, c) of the five-qubit code, one per
# pentagon side: X on sites a and c, Z on site b.
XZX_TRIPLES = tuple((k, k % 5 + 1, (k + 1) % 5 + 1) for k in range(1, 6))

# Row r of the operator array constrains X on sites (r-2, r) and Z on r-1.
ROW_SITES = {r: XZX_TRIPLES[(r - 3) % 5] for r in range(2, 7)}


def xzx_operator(a: int, b: int, c: int) -> PauliString:
    """X_a·Z_b·X_c on five qubits; the sites are distinct, so the phase is 0."""
    letters = {a: "X", b: "Z", c: "X"}
    return from_letters(letters.get(k, "I") for k in range(1, 6))


def canonical_pentagon_instance(code: CodeDefinition) -> ParityInstance:
    """The six-operator instance: all-Z plus the five XZX triples."""
    ops = [from_letters("Z" * 5)]
    ops += [xzx_operator(*t) for t in XZX_TRIPLES]
    return parity_instance(code, ops)


def pentagon_description(code: CodeDefinition) -> dict:
    """Text/JSON rendering of the pentagon figure: one side per XZX triple."""
    zz, *xzx = canonical_pentagon_instance(code).members
    sides = [{
        "side": k,
        "measurements": [f"sigma_{a}x", f"sigma_{b}z", f"sigma_{c}x"],
        "product_operator": str(elem.op),
        "value_on_codeword0": elem.sign0,
        "value_on_codeword1": elem.sign1,
    } for k, ((a, b, c), elem) in enumerate(zip(XZX_TRIPLES, xzx), start=1)]
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


class OperatorArray(NamedTuple):
    """Grid of Hermitian operators with declared row/column product signs;
    check_array checks its shape and cells."""

    rows: tuple[tuple[PauliString, ...], ...]
    declared_row_signs: tuple[int, ...]
    declared_col_signs: tuple[int, ...]


class ArrayReport(NamedTuple):
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
    prod = ops[0]
    for op in ops[1:]:
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
    """Row and column products of arr against its declared signs.

    Raises ValueError when arr has no rows or no columns, when its rows
    are ragged or when its declared signs do not match its shape, and
    NonHermitianError when a cell is not Hermitian.
    """
    rows = arr.rows
    if not rows:
        raise ValueError("operator array has no rows")
    if len({len(r) for r in rows}) != 1:
        raise ValueError("ragged operator array")
    if not rows[0]:
        raise ValueError("operator array has no columns")
    shape = len(rows), len(rows[0])
    declared = len(arr.declared_row_signs), len(arr.declared_col_signs)
    if declared != shape:
        raise ValueError(
            f"declared signs for {declared[0]} rows and {declared[1]} "
            f"columns; the array is {shape[0]}x{shape[1]}")
    for row in rows:
        for cell in row:
            if not cell.is_hermitian():
                raise NonHermitianError(f"array cell {cell} is not Hermitian")
    columns = list(zip(*rows))
    row_products = [_product(row) for row in rows]
    col_products = [_product(col) for col in columns]

    rowwise = _product(row_products)
    colwise = _product(col_products)

    return ArrayReport(
        row_commuting=[_all_commute(row) for row in rows],
        row_products=[str(p) for p in row_products],
        row_signs_match=all(_scalar_sign(p) == s
                            for p, s in zip(row_products, arr.declared_row_signs)),
        col_commuting=[_all_commute(col) for col in columns],
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


# ---------------------------------------------------------------------------
# automated parity-contradiction search
# ---------------------------------------------------------------------------


class ParitySearchResult(NamedTuple):
    instances: list[ParityInstance]  # smallest first, then by element index
    complete_to_size: int
    nodes_used: int


def search_parity_contradictions(code: CodeDefinition, max_subset: int,
                                 node_budget: int = 3_000_000) -> ParitySearchResult:
    """Subsets of the code's group whose sign bookkeeping is classically
    impossible, on both of its codewords.

    Each element maps to its _parity_vector: its (site, letter) symbols
    over GF(2) plus its sign bit on codeword 0.  The contradictions are
    exactly the subsets whose vectors XOR to _ODD_SIGNS.  Tier t (subsets
    of size t) costs comb(n, t-1) nodes, one per (t-1)-subset it settles.
    The tiers that fit node_budget are fixed before anything is enumerated,
    so each is completed atomically and the result is deterministic.

    No eigensign is replayed: the group's signs define its codewords, so
    they are the elements' eigenvalues there.  Each subset is rechecked by
    the bookkeeping check_parity_contradiction uses (its vectors XOR to
    _ODD_SIGNS, its operator product is exactly -I), and it must hold an
    even number of elements whose signs differ between the codewords, so
    that it is a contradiction on codeword 1 too.

    The identity element is excluded: it contributes nothing and would only
    pad otherwise-minimal subsets.  Subsets come smallest first, then in
    element index order.  The group keeps its elements sorted by op.key(),
    and they all have phase 0 and one length, so index order is the order
    of their texts.  max_subset must be at least 1 (ValueError otherwise).
    """
    if max_subset < 1:
        raise ValueError(f"max_subset must be at least 1, got {max_subset}")
    elements = code.group().non_identity()
    vecs = tuple(_parity_vector(e.op, e.sign0) for e in elements)

    complete_to, used = _completed_tiers(len(vecs), max_subset, node_budget)
    subsets = _contradiction_subsets(vecs, complete_to)
    if not subsets and complete_to < max_subset:
        raise BudgetExceededError(
            f"parity search exhausted its budget at size {complete_to} "
            f"of {max_subset} with nothing found")

    subsets.sort(key=lambda idxs: (len(idxs), idxs))
    instances = []
    for idxs in subsets:
        members = tuple(elements[i] for i in idxs)
        if (_parity_bookkeeping(members, 0)[0] != _ODD_SIGNS
                or sum(e.sign0 != e.sign1 for e in members) % 2):
            raise AssertionError("search returned a non-contradiction subset")
        instances.append(ParityInstance(code, members))
    return ParitySearchResult(instances, complete_to, used)


def _completed_tiers(n: int, max_subset: int, node_budget: int) -> tuple[int, int]:
    """(largest size t whose tiers 2..t fit node_budget, their node cost).

    Tier t costs comb(n, t-1): one node per (t-1)-subset, whose extensions
    by a later element size t settles.  The cost counts those subsets, not
    the steps _contradiction_subsets takes.  Sizes 0 and 1 are vacuously
    complete: a non-identity element has at least one odd letter
    multiplicity.  No subset is larger than n, so once tier n+1 (the single
    n-subset) fits, every larger tier is complete at no cost.
    """
    complete_to = 1
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


def _contradiction_subsets(vecs, max_size: int) -> list[tuple[int, ...]]:
    """Every subset of size 2..max_size whose vectors XOR to _ODD_SIGNS, as
    increasing index tuples, each found exactly once.

    A subset XORs to _ODD_SIGNS exactly when its members before the last two,
    i < j, XOR to vecs[i] ^ vecs[j] ^ _ODD_SIGNS.  tails maps that value to
    the j of every pair, by decreasing i; the vectors are distinct, so each
    j gives back its i through index.  A depth-first walk over the subsets
    of size 0..max_size-2 carries their running XOR and last index, and
    reads each subset off tails until i falls to or below that index.
    The empty prefix's pairs are read first; every other prefix is read
    in its parent's loop, so the deepest prefixes cost no call.
    """
    index = {v: i for i, v in enumerate(vecs)}
    if len(index) != len(vecs):
        raise ValueError("parity vectors are not distinct")
    if max_size < 2:
        return []
    n = len(vecs)
    tails: dict[int, list[int]] = {}
    for i in range(n - 2, -1, -1):
        vi = vecs[i] ^ _ODD_SIGNS
        for j in range(i + 1, n):
            tails.setdefault(vi ^ vecs[j], []).append(j)
    found = [(index[_ODD_SIGNS ^ vecs[j]], j) for j in tails.get(0, ())]

    def extend(prefix: tuple[int, ...], r: int, after: int) -> None:
        """Read every child prefix + (k,), k > after, and walk on from
        those that are shorter than max_size - 2."""
        deeper = len(prefix) + 3 < max_size
        for k in range(after + 1, n):
            rk = r ^ vecs[k]
            js = tails.get(rk)
            if js is not None:
                for j in js:
                    i = index[rk ^ _ODD_SIGNS ^ vecs[j]]
                    if i <= k:
                        break
                    found.append(prefix + (k, i, j))
            if deeper:
                extend(prefix + (k,), rk, k)

    if max_size > 2:
        extend((), 0, -1)
    return found
