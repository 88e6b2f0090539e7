"""The 104-projector additive contradiction: set, graph, contexts, coloring.

The projector set has three families: the 32 computational-basis kets, the
two codewords with their 30 single-Pauli mutations, and 40 rank-4 subspaces
(five operator-array rows, eight sign patterns each).  Spanning vectors are
kept as unnormalized integer vectors whose every entry is 0 or ±1 (mutations
are scaled by 4).  The graph stores each one as two bit masks, its support
and its negative entries, so all orthogonality and identity-resolution
arithmetic is bit counting.

Context enumeration is exhaustive by construction: the search always
branches on a specific uncovered basis direction, so every resolution of
identity inside the vertex set is produced exactly once, and a node budget
turns an unfinished search into a hard error rather than a silent partial
answer.  It tracks only the diagonal of the partial projector sum: the
chosen projectors are pairwise orthogonal, so their sum is a projector, and
a projector fixes basis ket j exactly when its (j, j) entry is 1 (the
premises are checked when the tables are built; see _cover_tables).  A
branch is cut at its branching ket j: whatever a completion adds at j
comes from the vertices still open there and must fill j's missing diagonal
entry exactly, so a branch whose open entries at j sum to less than that
entry holds no context and stops.

The coloring search works on the same vertex bitmasks.  Its clauses are one
(not u or not v) per edge (KS1: orthogonal vertices are never both true)
and one vertex mask per context (KS2: some member is true), and its
assignment is two masks, the true vertices and the false ones.
"""

from __future__ import annotations

from typing import NamedTuple

from .codes import five_qubit_code, single_qubit_errors
from .errors import BudgetExceededError
from .paradoxes import ROW_SITES
from .pauli import PauliString
from .statevector import StateVector, apply

__all__ = [
    "KSVertex",
    "OrthogonalityGraph",
    "build_ks_set",
    "build_orthogonality_graph",
    "enumerate_contexts",
    "canonical_contexts",
    "ks_colorability",
    "ColorabilityVerdict",
]

_DIM = 32


class KSVertex(NamedTuple):
    """One projector of the set, tagged with how it was built.  A vertex's
    id is its position in the vertex list.

    provenance is one of
      ("classical", ket_label)
      ("mutation", codeword_index, pauli_text)
      ("row", row_index, m, n, z_sign)
    and determines the projector uniquely.  ivecs is the only stored form:
    mutually orthogonal integer spanning vectors, every entry 0 or ±1,
    equal to the amplitudes times 2**scale_exp (scale_exp is 2 for mutation
    vectors, whose sixteen nonzero amplitudes are ±1/4 at unit norm, and 0
    otherwise).
    """

    provenance: tuple
    ivecs: tuple[tuple[int, ...], ...]
    scale_exp: int = 0

    @property
    def rank(self) -> int:
        return len(self.ivecs)

    @property
    def kind(self) -> str:
        return self.provenance[0]

    def label(self) -> str:
        if self.kind == "classical":
            return f"|{self.provenance[1]}>"
        if self.kind == "mutation":
            _, cw, text = self.provenance
            return f"{text}|{cw}_L>"
        _, r, m, n, s = self.provenance
        return f"row{r}[m={m:+d},n={n:+d},z={s:+d}]"


def _int_vector(v: StateVector) -> tuple[int, ...]:
    if any(im for _, im in v.support.values()):
        raise ValueError("spanning vectors must have real amplitudes")
    return tuple(v.support.get(j, (0, 0))[0] for j in range(_DIM))


def build_ks_set() -> list[KSVertex]:
    """Exactly 104 vertices: 32 classical + 32 mutations + 40 rank-4."""
    code = five_qubit_code()
    vertices: list[KSVertex] = []

    for j in range(_DIM):
        ket = tuple(int(i == j) for i in range(_DIM))
        vertices.append(KSVertex(("classical", format(j, "05b")), (ket,)))

    for cw in (0, 1):
        base = code.codeword(cw)
        texts: dict[tuple[int, ...], str] = {}
        for op in single_qubit_errors(5):
            vec = _int_vector(apply(op, base).phase_canonical())
            texts.setdefault(vec, _error_label(op))
        if len(texts) != 16:
            raise AssertionError(
                f"codeword {cw}: expected 16 distinct mutation vectors, "
                f"got {len(texts)}")
        for vec, text in texts.items():
            vertices.append(KSVertex(("mutation", cw, text), (vec,),
                                     scale_exp=2))

    for r in range(2, 7):
        a, b, c = ROW_SITES[r]
        for s in (+1, -1):
            for m in (+1, -1):
                for n in (+1, -1):
                    vecs = _row_subspace_vectors(a, b, c, m, n, s)
                    vertices.append(KSVertex(("row", r, m, n, s), vecs))

    if len(vertices) != 104:
        raise AssertionError(f"built {len(vertices)} vertices, expected 104")
    return vertices


def _error_label(op: PauliString) -> str:
    """'I' for the identity, else letter and site of a weight-1 Pauli: 'X3'."""
    if op.is_identity_op():
        return "I"
    (site,) = op.support()
    return f"{op.letter(site)}{site}"


def _row_subspace_vectors(a: int, b: int, c: int, m: int, n: int,
                          s: int) -> tuple[tuple[int, ...], ...]:
    """Four integer vectors spanning (x_a = m) ∧ (z_b = s) ∧ (x_c = n)."""
    d, e = sorted(set(range(1, 6)) - {a, b, c})
    # site k is bit 5 - k of a basis index (site 1 most significant)
    fixed = (0 if s == +1 else 1) << (5 - b)
    vectors = []
    for bd in (0, 1):
        for be in (0, 1):
            amps = [0] * _DIM
            for ba in (0, 1):
                for bc in (0, 1):
                    index = (fixed | ba << (5 - a) | bc << (5 - c)
                             | bd << (5 - d) | be << (5 - e))
                    amps[index] = (m if ba else 1) * (n if bc else 1)
            vectors.append(tuple(amps))
    return tuple(vectors)


def bit_indices(mask: int) -> list[int]:
    """Positions of the set bits of mask, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


# ---------------------------------------------------------------------------
# orthogonality graph
# ---------------------------------------------------------------------------


class OrthogonalityGraph:
    """Vertices plus their exact mutual-orthogonality relation, computed
    from the vertices alone: adj[i] is the mask of the vertices whose
    spanning vectors are all orthogonal to those of vertex i.

    Every spanning entry is 0 or ±1, so sign_masks[i] holds vertex i's
    spanning vectors as (support, negative entries) mask pairs, and a dot
    product is a bit count (see _orthogonal); vectors whose supports do not
    meet pass it.  Raises ValueError naming the vertex for a spanning
    vector that is not 32 entries of 0 or ±1.
    """

    def __init__(self, vertices: list[KSVertex]):
        sign_masks = []
        for i, v in enumerate(vertices):
            if any(len(u) != _DIM for u in v.ivecs):
                raise ValueError(f"vertex {i}: spanning vectors must have "
                                 f"{_DIM} entries")
            if not {a for u in v.ivecs for a in u} <= {-1, 0, 1}:
                raise ValueError(f"vertex {i}: spanning vector entries must "
                                 "be 0, 1 or -1")
            sign_masks.append([
                (sum(1 << k for k, a in enumerate(u) if a),
                 sum(1 << k for k, a in enumerate(u) if a < 0))
                for u in v.ivecs])
        nv = len(vertices)
        adj = [0] * nv
        for i in range(nv):
            for j in range(i + 1, nv):
                if _orthogonal(sign_masks[i], sign_masks[j]):
                    adj[i] |= 1 << j
                    adj[j] |= 1 << i
        self.vertices = vertices
        self.sign_masks = sign_masks
        self.adj = adj
        self.edge_count = sum(m.bit_count() for m in adj) // 2

    def __len__(self) -> int:
        return len(self.vertices)

    def edges(self) -> list[tuple[int, int]]:
        return [(u, u + 1 + k) for u, m in enumerate(self.adj)
                for k in bit_indices(m >> (u + 1))]


def _orthogonal(p: list[tuple[int, int]], q: list[tuple[int, int]]) -> bool:
    """Whether every vector of p is orthogonal to every vector of q, each a
    (support, negative entries) mask pair of a 0/±1 vector.  On the shared
    support c the entries agree in sign or differ, so the dot product is
    |c| - 2·|c ∧ (nu ⊕ nw)|."""
    for su, nu in p:
        for sw, nw in q:
            c = su & sw
            if 2 * (c & (nu ^ nw)).bit_count() != c.bit_count():
                return False
    return True


def build_orthogonality_graph(vertices: list[KSVertex]) -> OrthogonalityGraph:
    """The orthogonality graph of a vertex list.  A vertex's id is its list
    position, so the graph of a sublist, [vertices[i] for i in ids], is the
    sub-instance on those vertices."""
    return OrthogonalityGraph(vertices)


# ---------------------------------------------------------------------------
# contexts (resolutions of identity)
# ---------------------------------------------------------------------------


_FIELD_BITS = 8  # 16 times a projector's diagonal entry lies in [0, 16]
_FIELD_MASK = (1 << _FIELD_BITS) - 1
_TARGET = sum(16 << (_FIELD_BITS * j) for j in range(_DIM))  # 16·diag(I)


def _cover_tables(sign_masks: list[list[tuple[int, int]]]
                  ) -> tuple[list[int], list[list[tuple[int, int]]], list[int]]:
    """Packed-integer tables for exact-cover reasoning, scale 16, from a
    graph's sign_masks: returns (covers, entries, deltas), the first two
    indexed by basis ket, the last by vertex id.

    deltas[i] is 16 times the diagonal of vertex i's projector, one 8-bit
    field per basis ket inside one integer.  covers[j] is the bitmask of
    vertices whose projector does not annihilate basis ket j, and
    entries[j] splits it by diagonal entry: one (16 times the entry, mask
    of the vertices with that entry) pair per distinct nonzero entry.

    The diagonal is all the search needs.  It only ever adds pairwise
    orthogonal vertices (orthogonality is exact, from the graph), so the
    partial sum P is a projector, and for a projector P e_j = e_j exactly
    when P_jj = 1, since |e_j - P e_j|^2 = 1 - P_jj.  The first basis ket
    whose row of P differs from the identity is therefore the first ket
    whose diagonal field is below 16, and P = I exactly when every field is
    16.  Packed fields never exceed 16, so addition never carries.  The
    premises are checked here: each vertex's spanning vectors must be
    mutually orthogonal with one nonzero norm that divides 16, so that 16
    times the projector is the scaled sum of their outer products.  A 0/±1
    vector's norm is its support's size, and its outer product puts 1 on
    the diagonal at each support bit.
    """
    deltas: list[int] = []
    for i, masks in enumerate(sign_masks):
        norms = {support.bit_count() for support, _ in masks}
        norm = norms.pop() if len(norms) == 1 else 0
        if not norm or 16 % norm:
            raise ValueError(f"vertex {i}: spanning norms must be a "
                             "uniform nonzero divisor of 16")
        if not all(_orthogonal(masks[k:k + 1], masks[k + 1:])
                   for k in range(len(masks))):
            raise ValueError(f"vertex {i}: spanning vectors must be "
                             "mutually orthogonal")
        scale = 16 // norm
        deltas.append(sum(scale << (_FIELD_BITS * j) for support, _ in masks
                          for j in bit_indices(support)))
    covers: list[int] = []
    entries: list[list[tuple[int, int]]] = []
    for j in range(_DIM):
        by_entry: dict[int, int] = {}
        for i, delta in enumerate(deltas):
            if entry := delta >> (_FIELD_BITS * j) & _FIELD_MASK:
                by_entry[entry] = by_entry.get(entry, 0) | 1 << i
        covers.append(sum(by_entry.values()))
        entries.append(list(by_entry.items()))
    return covers, entries, deltas


def enumerate_contexts(graph: OrthogonalityGraph,
                       node_budget: int = 1_000_000) -> list[int]:
    """Every subset of pairwise-orthogonal vertices whose projectors resolve
    the identity, found by cover-directed backtracking.

    A context is the mask of its vertex ids; the list is ordered by the
    members' ids (bit_indices), not by the masks' integer values.  The
    search always branches on the first basis ket j the partial sum does
    not yet reproduce, trying each compatible vertex that hits it and then
    excluding that vertex, so every context is produced exactly once.

    A branch stops as soon as the candidates still open at j cannot fill
    j's missing diagonal entry.  Every vertex a completion could still add
    at j is one of those candidates, and the completion's entries at j
    must sum to exactly the missing entry, so when all the open entries
    together fall short no completion exists.  Each tried candidate is
    then excluded, so the open sum only falls and the loop ends at the
    first shortfall.  Raises BudgetExceededError before returning any
    partial enumeration.
    """
    covers, entries, deltas = _cover_tables(graph.sign_masks)
    ranks = [v.rank for v in graph.vertices]
    adj = graph.adj
    results: list[int] = []
    nodes = 0

    def search(chosen: int, cov: int, allowed: int, rank_sum: int) -> None:
        nonlocal nodes
        nodes += 1
        if nodes > node_budget:
            raise BudgetExceededError(
                f"context enumeration exceeded {node_budget} nodes")
        diff = cov ^ _TARGET
        if diff == 0:
            if rank_sum != _DIM:
                raise AssertionError("covered identity with wrong rank sum")
            results.append(chosen)
            return
        j = ((diff & -diff).bit_length() - 1) // _FIELD_BITS
        shift = _FIELD_BITS * j
        missing = 16 - (cov >> shift & _FIELD_MASK)
        cands = allowed & covers[j]
        open_sum = sum(e * (cands & m).bit_count() for e, m in entries[j])
        while open_sum >= missing:  # missing > 0, so cands is not empty
            low = cands & -cands
            vid = low.bit_length() - 1
            cands ^= low
            r = rank_sum + ranks[vid]
            if r <= _DIM:
                search(chosen | low, cov + deltas[vid], allowed & adj[vid], r)
            allowed &= ~low
            open_sum -= deltas[vid] >> shift & _FIELD_MASK

    search(0, 0, (1 << len(graph.vertices)) - 1, 0)
    results.sort(key=bit_indices)
    return results


def canonical_contexts(graph: OrthogonalityGraph) -> list[int]:
    """The contexts read straight off the construction, as vertex masks: one
    per family present (a rank-1 basis or a row family), in order of first
    appearance."""
    masks: dict = {}
    for i, v in enumerate(graph.vertices):
        family = v.provenance[1] if v.kind == "row" else v.kind
        masks[family] = masks.get(family, 0) | 1 << i
    return list(masks.values())


# ---------------------------------------------------------------------------
# KS1/KS2 coloring search
# ---------------------------------------------------------------------------


class ColorabilityVerdict(NamedTuple):
    satisfiable: bool
    true: int  # mask of the true vertices; 0 when UNSAT
    decisions: int
    propagations: int
    conflicts: int


def ks_colorability(adj: list[int], contexts: list[int],
                    decision_budget: int = 1_000_000) -> ColorabilityVerdict:
    """Search for a true/false labeling with no true-true edge (KS1) and at
    least one true per context (KS2).

    The clauses are explicit: one (not u or not v) per edge of the
    adjacency masks adj (a graph's .adj) and one per context, its vertex
    mask.  The assignment is two vertex masks, true and false.  A context
    is satisfied when it meets true, dead when every member is false, and
    forces its one open member true when only one is left.  Within a
    context all members are mutually orthogonal, so the two rules force
    exactly one true member; the search branches on
    which one it is, in ascending id, on the unsatisfied context with the
    fewest open members (the first such context on ties).  Propagation
    visits neighbours in ascending id and each vertex's contexts in list
    order, and stops at the first conflict.  Returns UNSAT with
    statistics, or SAT with the mask of true vertices (checked before it
    is returned).  Raises ValueError on an empty context, and on a context
    or an adjacency mask with a vertex beyond len(adj).
    """
    nv = len(adj)

    def check_within(mask: int, what: str) -> None:
        if mask >> nv:
            raise ValueError(f"{what} has vertex "
                             f"{nv + bit_indices(mask >> nv)[0]}, beyond the "
                             f"{nv} vertices")

    for i, mask in enumerate(adj):
        check_within(mask, f"adjacency mask {i}")
    member_ctxs: list[list[int]] = [[] for _ in range(nv)]
    for k, ctx in enumerate(contexts):
        if not ctx:
            raise ValueError(f"context {k} is empty")
        check_within(ctx, f"context {k}")
        for vid in bit_indices(ctx):
            member_ctxs[vid].append(ctx)

    true = false = 0
    decisions = propagations = conflicts = 0

    def set_true(vid: int) -> bool:
        """Assign vid true and propagate; False on conflict."""
        nonlocal true, propagations
        bit = 1 << vid
        if true & bit:
            return True
        if false & bit:
            return False
        true |= bit
        propagations += 1
        todo = adj[vid]
        while todo := todo & ~false:  # a neighbour already false is settled
            low = todo & -todo
            if not set_false(low.bit_length() - 1):
                return False
            todo ^= low
        return True

    def set_false(vid: int) -> bool:
        nonlocal false, propagations
        bit = 1 << vid
        if false & bit:
            return True
        if true & bit:
            return False
        false |= bit
        propagations += 1
        for ctx in member_ctxs[vid]:
            if ctx & true:
                continue
            left = ctx & ~false
            if not left:
                return False
            if left & (left - 1) == 0 and not set_true(left.bit_length() - 1):
                return False
        return True

    def pick_context() -> int | None:
        best, best_open = None, nv + 1
        for ctx in contexts:
            if not ctx & true:
                left = (ctx & ~false).bit_count()
                if left < best_open:
                    best, best_open = ctx, left
        return best

    def solve() -> bool:
        nonlocal true, false, decisions, conflicts
        ctx = pick_context()
        if ctx is None:
            return True
        decisions += 1
        if decisions > decision_budget:
            raise BudgetExceededError(
                f"coloring search exceeded {decision_budget} decisions")
        while left := ctx & ~(true | false):
            vid = (left & -left).bit_length() - 1
            saved = true, false
            if set_true(vid) and solve():
                return True
            true, false = saved
            # vid is not the true member of ctx in any remaining branch
            if not set_false(vid):
                break
        else:
            # ruling members out can force the last open one true: that
            # state is a branch of its own, not a dead end
            if ctx & true and solve():
                return True
        conflicts += 1
        return False

    if not solve():
        return ColorabilityVerdict(False, 0, decisions, propagations,
                                   conflicts)
    _check_coloring(adj, contexts, true)
    return ColorabilityVerdict(True, true, decisions, propagations, conflicts)


def _check_coloring(adj: list[int], contexts: list[int], true: int) -> None:
    for u in bit_indices(true):
        clash = adj[u] & true
        if clash:
            v = (clash & -clash).bit_length() - 1
            raise AssertionError(f"KS1 violated on edge ({u},{v})")
    for ctx in contexts:
        if not ctx & true:
            raise AssertionError(f"KS2 violated on context {bit_indices(ctx)}")
