import random

import pytest

from codeword_paradoxes import dense
from codeword_paradoxes.codes import five_qubit_code
from codeword_paradoxes.errors import BudgetExceededError
from codeword_paradoxes.kochen_specker import (KSVertex, bit_indices,
                                               build_orthogonality_graph,
                                               canonical_contexts,
                                               enumerate_contexts,
                                               ks_colorability,
                                               _check_coloring)
from codeword_paradoxes.paradoxes import ROW_SITES
from codeword_paradoxes.pauli import identity, single_site
from codeword_paradoxes.statevector import apply, eigensign, inner
from conftest import (assert_resolves_identity, ks_spanning, ks_states, norm16,
                      projector_matrix)

EDGE_COUNT = 3084        # frozen from the first exhaustive pairwise run
CONTEXT_COUNT = 39       # frozen from the first exhaustive enumeration
CONTEXT_NODES = 4581     # search nodes of that enumeration, pinned exactly


def _family(vertices, kind):
    return [v for v in vertices if v.kind == kind]


def _family_ids(vertices, kind):
    return [i for i, v in enumerate(vertices) if v.kind == kind]


def _orthogonal(p, q):
    return all(inner(u, w) == (0, 0)
               for u in ks_states(p) for w in ks_states(q))


def _row_family(vertices, r, **conds):
    out = []
    for v in vertices:
        if v.kind == "row" and v.provenance[1] == r:
            vals = dict(zip("mns", v.provenance[2:]))
            if all(vals[k] == val for k, val in conds.items()):
                out.append(v)
    return out


def test_vertex_counts(ks_vertices):
    assert len(ks_vertices) == 104
    assert len(_family(ks_vertices, "classical")) == 32
    assert len(_family(ks_vertices, "mutation")) == 32
    assert len(_family(ks_vertices, "row")) == 40
    assert len(ks_vertices) * 4 == 13 * 32


def test_mutation_family_is_orthonormal_basis(ks_vertices):
    mutations = _family(ks_vertices, "mutation")
    # norm 4**scale_exp: exactly 1 once each ivec is divided by 2**scale_exp
    assert all(inner(u, u) == (4 ** v.scale_exp, 0)
               for v in mutations for u in ks_states(v))
    assert_resolves_identity(ks_spanning(mutations))


def test_sixteen_mutations_per_codeword(ks_vertices):
    for cw in (0, 1):
        members = [v for v in _family(ks_vertices, "mutation")
                   if v.provenance[1] == cw]
        assert len(members) == 16
        assert sum(1 for v in members if v.provenance[2] == "I") == 1


def test_classical_mutation_cross_orthogonality(ks_graph):
    classical = _family_ids(ks_graph.vertices, "classical")
    mutation = _family_ids(ks_graph.vertices, "mutation")
    classical_mask = sum(1 << i for i in classical)
    mutation_mask = sum(1 << i for i in mutation)
    for i in classical:
        assert (ks_graph.adj[i] & mutation_mask).bit_count() == 16
    for i in mutation:
        assert (ks_graph.adj[i] & classical_mask).bit_count() == 16


def test_row3_spanning_vectors_match_expected_form(ks_vertices):
    """m = n = +1, sigma_2z > 0: the three-qubit factor is
    |000> + |001> + |100> + |101> on sites 1-3, tensored with each basis
    state of sites 4 and 5."""
    v = _row_family(ks_vertices, 3, m=+1, n=+1, s=+1)[0]
    assert v.scale_exp == 0
    expected_supports = []
    for bd in (0, 1):
        for be in (0, 1):
            tail = (bd << 1) | be
            expected_supports.append({(ba << 4) | (bc << 2) | tail
                                      for ba in (0, 1) for bc in (0, 1)})
    got_supports = []
    for iv in v.ivecs:
        support = {j for j, x in enumerate(iv) if x}
        assert all(iv[j] == 1 for j in support)
        got_supports.append(support)
    assert got_supports == expected_supports


def test_row_spanning_vectors_are_eigenvectors_of_their_triple(ks_vertices):
    """Every spanning vector of row vertex (r, m, n, s) has eigenvalue m for
    X_a, s for Z_b and n for X_c, where (a, b, c) = ROW_SITES[r]."""
    rows = _family(ks_vertices, "row")
    assert len(rows) == 40
    checked = 0
    for v in rows:
        _, r, m, n, s = v.provenance
        a, b, c = ROW_SITES[r]
        for vec in ks_states(v):
            assert eigensign(single_site(5, a, "X"), vec) == m
            assert eigensign(single_site(5, b, "Z"), vec) == s
            assert eigensign(single_site(5, c, "X"), vec) == n
            checked += 1
    assert checked == 160


def test_row_families_resolve_identity(ks_vertices):
    for r in range(2, 7):
        family = _row_family(ks_vertices, r)
        assert len(family) == 8
        assert all(v.rank == 4 for v in family)
        assert_resolves_identity(ks_spanning(family))


def _times(k, m):
    """k times the dense matrix m, entry by entry."""
    return tuple(tuple((j, (k * re, k * im)) for j, (re, im) in row)
                 for row in m)


def test_rank4_projector_matrix_properties(ks_vertices):
    v = _row_family(ks_vertices, 3, m=+1, n=+1, s=+1)[0]
    # m is 16 times the projector, so its square is 16 m
    m = projector_matrix([norm16(s) for s in ks_states(v)])
    assert dense.mat_mul(m, m) == _times(16, m)
    # its trace is 16 times the rank
    assert sum(x[0] for i, row in enumerate(m) for j, x in row if i == j) == 64
    # Hermitian: each stored (i, j) has its conjugate stored at (j, i)
    entries = {(i, j): x for i, row in enumerate(m) for j, x in row}
    assert all(entries.get((j, i)) == (re, -im)
               for (i, j), (re, im) in entries.items())


def test_rank4_acts_as_identity_on_untouched_qubits(ks_vertices):
    v = _row_family(ks_vertices, 3, m=+1, n=-1, s=-1)[0]
    p = projector_matrix([norm16(s) for s in ks_states(v)])
    for op in (single_site(5, 4, "X"), single_site(5, 5, "Z"),
               single_site(5, 4, "Y")):
        q = dense.pauli_matrix(op)
        assert dense.mat_mul(p, q) == dense.mat_mul(q, p)


def test_row3_z_minus_family_orthogonal_to_a0cde_kets(ks_vertices):
    """The sigma_2z < 0 branch annihilates every ket with a 0 at site 2."""
    family = _row_family(ks_vertices, 3, s=-1)
    assert len(family) == 4
    for v in family:
        for j in range(32):
            if not (j >> 3) & 1:
                assert all(iv[j] == 0 for iv in v.ivecs)


def test_row3_m_equals_n_family_orthogonal_to_codeword1_mutations(ks_vertices):
    code = five_qubit_code()
    family = [v for v in _row_family(ks_vertices, 3, s=-1)
              if v.provenance[2] == v.provenance[3]]
    assert len(family) == 2
    for d in "IXYZ":
        for e in "IXYZ":
            op = identity(5)
            if d != "I":
                op = op * single_site(5, 4, d)
            if e != "I":
                op = op * single_site(5, 5, e)
            w = apply(op, code.codeword(1))
            for v in family:
                assert all(inner(s, w) == (0, 0) for s in ks_states(v))


def test_row3_m_equals_n_family_orthogonal_to_odd_codeword0_mutations(ks_vertices):
    code = five_qubit_code()
    family = [v for v in _row_family(ks_vertices, 3, s=-1)
              if v.provenance[2] == v.provenance[3]]
    for site, letter in ((1, "Y"), (1, "Z"), (2, "X"), (2, "Y"),
                         (3, "Y"), (3, "Z")):
        w = apply(single_site(5, site, letter), code.codeword(0))
        for v in family:
            assert all(inner(s, w) == (0, 0) for s in ks_states(v))


def test_row3_row6_shared_x_orthogonality(ks_vertices):
    """Third-row projectors with <sigma_1x> = +1 are orthogonal to
    sixth-row projectors with <sigma_1x> = -1 (and vice versa)."""
    for sign in (+1, -1):
        r3 = _row_family(ks_vertices, 3, m=sign)
        r6 = _row_family(ks_vertices, 6, n=-sign)
        assert len(r3) == 4 and len(r6) == 4
        for a in r3:
            for b in r6:
                assert _orthogonal(a, b)


def test_row_sites_table():
    assert ROW_SITES == {2: (5, 1, 2), 3: (1, 2, 3), 4: (2, 3, 4),
                         5: (3, 4, 5), 6: (4, 5, 1)}


def test_edge_count_frozen(ks_graph):
    assert ks_graph.edge_count == EDGE_COUNT


def test_graph_is_symmetric_irreflexive_and_reproducible(ks_graph, ks_vertices):
    adj = ks_graph.adj
    for v in range(len(ks_graph)):
        assert not adj[v] >> v & 1
        for u in bit_indices(adj[v]):
            assert adj[u] >> v & 1
    rebuilt = build_orthogonality_graph(ks_vertices)
    assert rebuilt.adj == ks_graph.adj


def test_graph_matches_every_spanning_dot_product(ks_graph, ks_vertices):
    """The sign-mask test agrees with every integer dot product."""
    def orthogonal_by_dots(p, q):
        return all(sum(a * b for a, b in zip(u, v)) == 0
                   for u in p.ivecs for v in q.ivecs)

    for i, p in enumerate(ks_vertices):
        for j in range(i + 1, len(ks_vertices)):
            assert bool(ks_graph.adj[i] >> j & 1) == \
                orthogonal_by_dots(p, ks_vertices[j])


def test_graph_matches_dot_products_of_random_sign_vectors():
    # 0/±1 vectors on a few nearby coordinates, so that supports meet
    # often and a shared support cancels about as often as it does not
    rng = random.Random(24)

    def vector():
        lo = rng.randrange(24)
        coords = rng.sample(range(lo, lo + 8), rng.randint(1, 6))
        return tuple(rng.choice((-1, 1)) if k in coords else 0
                     for k in range(32))

    vertices = [KSVertex(("classical", f"random{i}"),
                         tuple(vector() for _ in range(rng.randint(1, 3))))
                for i in range(60)]
    adj = build_orthogonality_graph(vertices).adj
    meeting = {True: 0, False: 0}
    for i, p in enumerate(vertices):
        for j in range(i + 1, len(vertices)):
            q = vertices[j]
            dots = [sum(a * b for a, b in zip(u, w))
                    for u in p.ivecs for w in q.ivecs]
            assert bool(adj[i] >> j & 1) == (not any(dots)), (i, j)
            if any(a and b for u in p.ivecs for w in q.ivecs
                   for a, b in zip(u, w)):
                meeting[not any(dots)] += 1
    assert min(meeting.values()) >= 50, meeting


def test_graph_edges_match_exact_projector_orthogonality(ks_graph):
    rng = random.Random(17)
    verts = ks_graph.vertices
    for _ in range(300):
        u, v = rng.sample(range(len(verts)), 2)
        assert bool(ks_graph.adj[u] >> v & 1) == _orthogonal(verts[u], verts[v])


def test_context_enumeration(ks_graph, ks_contexts):
    assert len(ks_contexts) == CONTEXT_COUNT
    sizes = {}
    for ctx in ks_contexts:
        sizes[ctx.bit_count()] = sizes.get(ctx.bit_count(), 0) + 1
    assert sizes == {8: 15, 20: 20, 32: 4}
    for canon in canonical_contexts(ks_graph):
        assert canon in ks_contexts


def test_contexts_are_ordered_by_member_ids(ks_graph, ks_contexts):
    assert ks_contexts == sorted(ks_contexts, key=bit_indices)
    assert ks_contexts != sorted(ks_contexts)   # not the masks' int order

    def span(first, last):
        return (1 << last + 1) - (1 << first)

    rows = [span(64 + 8 * k, 71 + 8 * k) for k in range(5)]
    assert canonical_contexts(ks_graph) == [span(0, 31), span(32, 63), *rows]


def test_contexts_are_exact_resolutions(ks_graph, ks_contexts):
    verts = ks_graph.vertices
    for ctx in ks_contexts:
        members = [verts[v] for v in bit_indices(ctx)]
        assert sum(v.rank for v in members) == 32
        assert_resolves_identity(ks_spanning(members))


def _maximal_cliques(adj):
    """Every maximal clique of the graph with adjacency masks adj, as a
    frozenset of vertex ids, found by plain Bron-Kerbosch with pivoting."""
    neighbors = [set(bit_indices(mask)) for mask in adj]
    cliques = []

    def extend(clique, candidates, excluded):
        if not candidates and not excluded:
            cliques.append(frozenset(clique))
            return
        pivot = max(candidates | excluded,
                    key=lambda u: len(candidates & neighbors[u]))
        for v in sorted(candidates - neighbors[pivot]):
            extend(clique | {v}, candidates & neighbors[v],
                   excluded & neighbors[v])
            candidates = candidates - {v}
            excluded = excluded | {v}

    extend(set(), set(range(len(adj))), set())
    return cliques


def _contexts_by_clique_search(graph):
    """The contexts of a graph found without the cover search: its maximal
    cliques whose ranks sum to 32, as masks ordered like enumerate_contexts.

    Pairwise-orthogonal projectors of total rank 32 sum to a rank-32
    projector, which is I; and a clique with that sum is maximal, since
    only the zero vector is orthogonal to every vector."""
    verts = graph.vertices
    return sorted((sum(1 << v for v in clique)
                   for clique in _maximal_cliques(graph.adj)
                   if sum(verts[v].rank for v in clique) == 32),
                  key=bit_indices)


def test_rank4_contexts_against_independent_clique_search(ks_graph, ks_contexts):
    """Dual route: all rank-4-only contexts are exactly the 8-cliques of the
    induced 40-vertex subgraph, found here by plain Bron-Kerbosch."""
    row_ids = _family_ids(ks_graph.vertices, "row")
    sub = build_orthogonality_graph([ks_graph.vertices[i] for i in row_ids])
    remap = {old: new for new, old in enumerate(row_ids)}
    eight_cliques = {c for c in _maximal_cliques(sub.adj) if len(c) == 8}

    back = {new: old for old, new in remap.items()}
    from_enumeration = {
        frozenset(remap[v] for v in bit_indices(ctx))
        for ctx in ks_contexts
        if all(ks_graph.vertices[v].kind == "row" for v in bit_indices(ctx))
    }
    assert len(from_enumeration) == 15
    assert eight_cliques == from_enumeration
    assert all(back[v] in row_ids for c in eight_cliques for v in c)


def test_contexts_against_maximal_clique_search(ks_graph, ks_contexts):
    assert len(_maximal_cliques(ks_graph.adj)) == 479
    assert _contexts_by_clique_search(ks_graph) == ks_contexts


def _family_key(v):
    return v.provenance[:1] if v.kind == "classical" else v.provenance[:2]


@pytest.mark.parametrize("dropped", [
    ("classical",), ("mutation", 0), ("mutation", 1),
    *(("row", r) for r in range(2, 7))],
    ids=["classical", "mutations0", "mutations1",
         *(f"row{r}" for r in range(2, 7))])
def test_sublist_contexts_against_maximal_clique_search(ks_vertices, dropped):
    # dropping one family leaves contexts that must be completed across
    # families, through entries of 1/16 (mutations) and 1/4 (rows)
    keep = [v for v in ks_vertices if _family_key(v) != dropped]
    graph = build_orthogonality_graph(keep)
    contexts = enumerate_contexts(graph)
    assert contexts and contexts == _contexts_by_clique_search(graph)


def test_context_enumeration_budget_error(ks_graph):
    with pytest.raises(BudgetExceededError):
        enumerate_contexts(ks_graph, node_budget=10)


def test_context_enumeration_takes_exactly_4581_nodes(ks_graph, ks_contexts):
    with pytest.raises(BudgetExceededError):
        enumerate_contexts(ks_graph, node_budget=CONTEXT_NODES - 1)
    assert enumerate_contexts(ks_graph, node_budget=CONTEXT_NODES) == ks_contexts


def _block_vertices(*blocks):
    """One vertex per block of basis kets, spanned by their unit vectors."""
    def ket(j):
        return tuple(int(k == j) for k in range(32))
    return [KSVertex(("classical", f"block{i}"),
                     tuple(ket(j) for j in range(lo, hi)))
            for i, (lo, hi) in enumerate(blocks)]


def _tilings(blocks):
    """The subsets of blocks that tile the 32 kets, by brute force over
    all subsets, as masks ordered like enumerate_contexts."""
    return sorted((mask for mask in range(1, 1 << len(blocks))
                   if sorted(j for v in bit_indices(mask)
                             for j in range(*blocks[v])) == list(range(32))),
                  key=bit_indices)


@pytest.mark.parametrize("blocks", [
    [(0, 8), (8, 16), (16, 32)],
    [(0, 8), (8, 16), (16, 24), (24, 32)],
    [(0, 2), (2, 32)],
    [(0, 4), (4, 32), (28, 32), (0, 28)],
], ids=["8+8+16", "8+8+8+8", "2+30", "4+28-twice"])
def test_contexts_weigh_each_vertex_by_its_own_rank(blocks):
    # blocks that tile the 32 kets resolve the identity whatever their ranks
    graph = build_orthogonality_graph(_block_vertices(*blocks))
    tiles = _tilings(blocks)
    assert tiles and enumerate_contexts(graph) == tiles


def test_contexts_tile_blocks_of_three_ranks():
    graph = build_orthogonality_graph(
        _block_vertices((0, 1), (1, 4), (4, 32)))
    assert enumerate_contexts(graph) == [0b111]


def test_contexts_match_brute_force_tilings_of_random_blocks():
    rng = random.Random(18)
    many_ranks = 0
    for _ in range(400):
        cuts = sorted(rng.sample(range(1, 32), rng.randint(1, 5)))
        bounds = [0, *cuts, 32]
        blocks = list(zip(bounds, bounds[1:]))
        for _ in range(rng.randint(0, 3)):
            lo, hi = sorted(rng.sample(range(33), 2))
            blocks.append((lo, hi))
        rng.shuffle(blocks)
        graph = build_orthogonality_graph(_block_vertices(*blocks))
        assert enumerate_contexts(graph) == _tilings(blocks), blocks
        many_ranks += len({hi - lo for lo, hi in blocks}) >= 3
    assert many_ranks >= 300


def test_cover_tables_reject_non_orthogonal_spanning_vectors():
    # equal norms (2, a divisor of 16) but a nonzero dot product
    u = (1, 1) + (0,) * 30
    v = (0, 1, 1) + (0,) * 29
    bad = KSVertex(("row", 0, +1, +1, +1), (u, v))
    with pytest.raises(ValueError, match="mutually orthogonal"):
        enumerate_contexts(build_orthogonality_graph([bad]))


@pytest.mark.parametrize("ivecs", [((0,) * 32,), ()],
                         ids=["zero-vector", "no-vectors"])
def test_cover_tables_reject_empty_spans(ivecs):
    # a zero vector is orthogonal to everything, so it reaches the tables
    ket = (1,) + (0,) * 31
    bad = KSVertex(("classical", "00000"), ivecs)
    good = KSVertex(("classical", "00001"), (ket,))
    with pytest.raises(ValueError, match="vertex 0: .* nonzero divisor"):
        enumerate_contexts(build_orthogonality_graph([bad, good]))


def test_a_sublist_is_the_induced_instance(ks_vertices, ks_graph,
                                           ks_contexts):
    # a vertex's id is its position, so a graph built from any vertex list
    # is the same instance as the induced graph on those vertices: here
    # the full graph's masks and contexts shifted past the 32 dropped ids
    rebuilt = build_orthogonality_graph(ks_vertices[32:])
    assert rebuilt.adj == [ks_graph.adj[i] >> 32 for i in range(32, 104)]
    contexts = enumerate_contexts(rebuilt)
    assert len(contexts) == 26
    assert contexts == [ctx >> 32 for ctx in ks_contexts
                        if not ctx & (1 << 32) - 1]
    assert set(canonical_contexts(rebuilt)) <= set(contexts)
    assert ks_colorability(rebuilt.adj, contexts).satisfiable


def test_canonical_contexts_are_the_families_present(ks_vertices):
    sub = build_orthogonality_graph([v for v in ks_vertices if v.rank == 1])
    canon = canonical_contexts(sub)
    assert canon == [(1 << 32) - 1, ((1 << 32) - 1) << 32]
    assert ks_colorability(sub.adj, canon).satisfiable


def test_colorability_rejects_an_empty_context(ks_graph):
    with pytest.raises(ValueError, match="context 1 is empty"):
        ks_colorability(ks_graph.adj, [(1 << 32) - 1, 0])


def test_colorability_rejects_a_context_beyond_the_vertices(ks_vertices):
    adj = build_orthogonality_graph(ks_vertices[:32]).adj
    with pytest.raises(ValueError, match="context 1 has vertex 40, beyond "
                                         "the 32 vertices"):
        ks_colorability(adj, [(1 << 32) - 1, 1 << 40])


def test_colorability_rejects_an_adjacency_mask_beyond_the_vertices():
    with pytest.raises(ValueError, match="adjacency mask 0 has vertex 1, "
                                         "beyond the 1 vertices"):
        ks_colorability([0b10], [0b1])


def test_graph_rejects_spanning_vectors_of_the_wrong_length(ks_vertices):
    for entries in (16, 33):
        bad = KSVertex(("classical", "odd"), ((1,) + (0,) * (entries - 1),))
        with pytest.raises(ValueError, match="vertex 1: spanning vectors "
                                             "must have 32 entries"):
            build_orthogonality_graph([ks_vertices[0], bad])


@pytest.mark.parametrize("entry", [2, -2])
def test_graph_rejects_spanning_entries_other_than_0_and_unit(ks_vertices,
                                                              entry):
    bad = KSVertex(("classical", "big"), ((entry,) + (0,) * 31,))
    with pytest.raises(ValueError, match="vertex 1: spanning vector entries "
                                         "must be 0, 1 or -1"):
        build_orthogonality_graph([ks_vertices[0], bad])


def _counts(verdict):
    return verdict.decisions, verdict.propagations, verdict.conflicts


def _true_ids(verdict):
    return set(bit_indices(verdict.true))


def test_colorability_unsat(ks_graph, ks_contexts):
    verdict = ks_colorability(ks_graph.adj, ks_contexts)
    assert not verdict.satisfiable
    assert verdict.true == 0
    assert _counts(verdict) == (681, 13427, 681)


def test_canonical_contexts_alone_already_unsat(ks_graph):
    verdict = ks_colorability(ks_graph.adj, canonical_contexts(ks_graph))
    assert not verdict.satisfiable
    assert _counts(verdict) == (681, 13939, 681)


def test_classical_context_alone_is_satisfiable(ks_vertices):
    sub = build_orthogonality_graph(_family(ks_vertices, "classical"))
    verdict = ks_colorability(sub.adj, [(1 << 32) - 1])
    assert verdict.satisfiable
    assert _true_ids(verdict) == {0}
    assert _counts(verdict) == (1, 32, 0)


def test_rank1_subinstance_with_basis_contexts_is_satisfiable(ks_graph):
    """Regression fact: without the rank-4 projectors the two bases plus
    their cross edges still admit a classical labeling."""
    keep = [i for i, v in enumerate(ks_graph.vertices) if v.rank == 1]
    sub = build_orthogonality_graph([ks_graph.vertices[i] for i in keep])
    remap = {old: new for new, old in enumerate(keep)}
    classical = sum(1 << remap[i]
                    for i in _family_ids(ks_graph.vertices, "classical"))
    mutation = sum(1 << remap[i]
                   for i in _family_ids(ks_graph.vertices, "mutation"))
    verdict = ks_colorability(sub.adj, [classical, mutation])
    assert verdict.satisfiable
    assert _true_ids(verdict) == {0, 32}
    assert _counts(verdict) == (2, 64, 0)


def test_check_coloring_rejects_ks1_and_ks2_violations(ks_graph):
    classical = (1 << 32) - 1
    u, v = ks_graph.edges()[0]
    ks1 = fr"KS1 violated on edge \({u},{v}\)"
    with pytest.raises(AssertionError, match=ks1):
        _check_coloring(ks_graph.adj, [classical], 1 << u | 1 << v)
    with pytest.raises(AssertionError, match="KS2 violated on context"):
        _check_coloring(ks_graph.adj, [classical], 0)


def _small_instance(nv, edges, contexts):
    """A colouring instance on nv abstract vertices: (adjacency masks,
    context masks), all the search reads."""
    adj = [0] * nv
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj, [sum(1 << vid for vid in ids) for ids in contexts]


def _brute_force_satisfiable(adj, contexts) -> bool:
    nv = len(adj)
    for true in range(1 << nv):
        if all(m & true for m in contexts) and not any(
                true >> u & 1 and adj[u] & true for u in range(nv)):
            return True
    return False


def test_forced_last_member_is_searched():
    # ruling 0 out of {0,1} forces 1 true, whose branch holds the colouring
    adj, contexts = _small_instance(
        4, [(0, 1), (2, 3), (0, 2), (0, 3)], [(0, 1), (2, 3)])
    verdict = ks_colorability(adj, contexts)
    assert verdict.satisfiable
    assert _true_ids(verdict) == {1, 2}


def test_colorability_matches_brute_force_on_small_instances():
    rng = random.Random(2024)
    sat = 0
    for _ in range(2000):
        nv = rng.randint(2, 9)
        edges = {tuple(rng.sample(range(nv), 2))
                 for _ in range(rng.randint(0, nv))}
        contexts = []
        for _ in range(rng.randint(1, 4)):
            ids = sorted(rng.sample(range(nv), rng.randint(1, min(nv, 4))))
            contexts.append(ids)
            edges.update((u, v) for i, u in enumerate(ids) for v in ids[i + 1:])
        adj, ctxs = _small_instance(nv, edges, contexts)
        expected = _brute_force_satisfiable(adj, ctxs)
        assert ks_colorability(adj, ctxs).satisfiable == expected, \
            (nv, sorted(edges), contexts)
        sat += expected
    assert 0 < sat < 2000


def test_colorability_budget_error(ks_graph, ks_contexts):
    with pytest.raises(BudgetExceededError):
        ks_colorability(ks_graph.adj, ks_contexts, decision_budget=5)


def test_verdict_stable_under_vertex_reordering(ks_vertices):
    for seed in (1, 2, 3):
        rng = random.Random(seed)
        order = list(range(104))
        rng.shuffle(order)
        shuffled = [ks_vertices[old] for old in order]
        graph = build_orthogonality_graph(shuffled)
        contexts = enumerate_contexts(graph)
        assert len(contexts) == CONTEXT_COUNT
        assert contexts == _contexts_by_clique_search(graph)
        assert not ks_colorability(graph.adj, contexts).satisfiable
