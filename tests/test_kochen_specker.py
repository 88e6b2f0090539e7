import random
from dataclasses import replace

import pytest

from codeword_paradoxes import dense
from codeword_paradoxes.codes import five_qubit_code
from codeword_paradoxes.errors import BudgetExceededError
from codeword_paradoxes.kochen_specker import (KSVertex, ROW_SITES,
                                               OrthogonalityGraph,
                                               bit_indices,
                                               build_orthogonality_graph,
                                               canonical_contexts,
                                               enumerate_contexts,
                                               ks_colorability,
                                               _check_coloring)
from codeword_paradoxes.pauli import identity, single_site
from codeword_paradoxes.statevector import apply, eigensign, inner

EDGE_COUNT = 3084        # frozen from the first exhaustive pairwise run
CONTEXT_COUNT = 39       # frozen from the first exhaustive enumeration
IDENTITY_MATRIX = dense.pauli_matrix(identity(5))


def _family(vertices, kind):
    return [v for v in vertices if v.kind == kind]


def _spanning(vertices):
    return [s for v in vertices for s in v.vectors]


def _orthogonal(p, q):
    return all(inner(u, w).is_zero() for u in p.vectors for w in q.vectors)


def _assert_resolves_identity(vectors):
    """32 pairwise orthogonal vectors whose dense projector sum is exactly
    the identity; by their orthogonality that sum is the sum of the
    vertices' projectors."""
    assert len(vectors) == 32
    for i, u in enumerate(vectors):
        for w in vectors[i + 1:]:
            assert inner(u, w).is_zero()
    assert dense.mat_eq(dense.projector_matrix([v.amps for v in vectors]),
                        IDENTITY_MATRIX)


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
    assert len(ks_vertices) / 32 == 3.25


def test_mutation_family_is_orthonormal_basis(ks_vertices):
    vectors = _spanning(_family(ks_vertices, "mutation"))
    assert all(inner(u, u).as_pow2() == 0 for u in vectors)   # exactly norm 1
    _assert_resolves_identity(vectors)


def test_sixteen_mutations_per_codeword(ks_vertices):
    for cw in (0, 1):
        members = [v for v in _family(ks_vertices, "mutation")
                   if v.provenance[1] == cw]
        assert len(members) == 16
        assert sum(1 for v in members if v.provenance[2] == "I") == 1


def test_classical_mutation_cross_orthogonality(ks_graph):
    verts = ks_graph.vertices
    classical_mask = sum(1 << v.vid for v in _family(verts, "classical"))
    mutation_mask = sum(1 << v.vid for v in _family(verts, "mutation"))
    for v in _family(verts, "classical"):
        assert (ks_graph.adj[v.vid] & mutation_mask).bit_count() == 16
    for v in _family(verts, "mutation"):
        assert (ks_graph.adj[v.vid] & classical_mask).bit_count() == 16


def test_row3_spanning_vectors_match_expected_form(ks_vertices):
    """m = n = +1, sigma_2z > 0: the three-qubit factor is
    |000> + |001> + |100> + |101> on sites 1-3, tensored with each basis
    state of sites 4 and 5."""
    v = _row_family(ks_vertices, 3, m=+1, n=+1, s=+1)[0]
    from codeword_paradoxes.dyadic import ONE
    expected_supports = []
    for bd in (0, 1):
        for be in (0, 1):
            tail = (bd << 1) | be
            expected_supports.append({(ba << 4) | (bc << 2) | tail
                                      for ba in (0, 1) for bc in (0, 1)})
    got_supports = []
    for vec in v.vectors:
        support = {j for j, a in enumerate(vec.amps) if not a.is_zero()}
        assert all(vec.amps[j] == ONE for j in support)
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
        for vec in v.vectors:
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
        _assert_resolves_identity(_spanning(family))


def test_rank4_projector_matrix_properties(ks_vertices):
    v = _row_family(ks_vertices, 3, m=+1, n=+1, s=+1)[0]
    m = dense.projector_matrix([s.amps for s in v.vectors])
    assert dense.mat_eq(dense.mat_mul(m, m), m)
    assert all(m[i][j] == m[j][i].conj()
               for i in range(32) for j in range(32))


def test_rank4_acts_as_identity_on_untouched_qubits(ks_vertices):
    v = _row_family(ks_vertices, 3, m=+1, n=-1, s=-1)[0]
    p = dense.projector_matrix([s.amps for s in v.vectors])
    for op in (single_site(5, 4, "X"), single_site(5, 5, "Z"),
               single_site(5, 4, "Y")):
        assert dense.commutator_is_zero(p, dense.pauli_matrix(op))


def test_row3_z_minus_family_orthogonal_to_a0cde_kets(ks_vertices):
    """The sigma_2z < 0 branch annihilates every ket with a 0 at site 2."""
    family = _row_family(ks_vertices, 3, s=-1)
    assert len(family) == 4
    for v in family:
        for j in range(32):
            if not (j >> 3) & 1:
                assert all(vec.amps[j].is_zero()
                           for vec in v.vectors)


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
            w = apply(op, code.codeword1)
            for v in family:
                assert all(inner(s, w).is_zero() for s in v.vectors)


def test_row3_m_equals_n_family_orthogonal_to_odd_codeword0_mutations(ks_vertices):
    code = five_qubit_code()
    family = [v for v in _row_family(ks_vertices, 3, s=-1)
              if v.provenance[2] == v.provenance[3]]
    for site, letter in ((1, "Y"), (1, "Z"), (2, "X"), (2, "Y"),
                         (3, "Y"), (3, "Z")):
        w = apply(single_site(5, site, letter), code.codeword0)
        for v in family:
            assert all(inner(s, w).is_zero() for s in v.vectors)


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
    """The support prefilter only skips dot products that are zero."""
    def orthogonal_by_dots(p, q):
        return all(sum(a * b for a, b in zip(u, v)) == 0
                   for u in p.ivecs for v in q.ivecs)

    for i, p in enumerate(ks_vertices):
        for j in range(i + 1, len(ks_vertices)):
            assert bool(ks_graph.adj[i] >> j & 1) == \
                orthogonal_by_dots(p, ks_vertices[j])


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
        _assert_resolves_identity(_spanning(members))


def test_rank4_contexts_against_independent_clique_search(ks_graph, ks_contexts):
    """Dual route: all rank-4-only contexts are exactly the 8-cliques of the
    induced 40-vertex subgraph, found here by plain Bron-Kerbosch."""
    row_ids = [v.vid for v in ks_graph.vertices if v.kind == "row"]
    sub, remap = ks_graph.induced(row_ids)
    neighbors = {v: set(bit_indices(sub.adj[v])) for v in range(len(sub))}

    cliques = []

    def bron_kerbosch(clique, candidates, excluded):
        if not candidates and not excluded:
            cliques.append(frozenset(clique))
            return
        pivot = max(candidates | excluded,
                    key=lambda u: len(candidates & neighbors[u]))
        for v in sorted(candidates - neighbors[pivot]):
            bron_kerbosch(clique | {v}, candidates & neighbors[v],
                          excluded & neighbors[v])
            candidates = candidates - {v}
            excluded = excluded | {v}

    bron_kerbosch(set(), set(range(len(sub))), set())
    eight_cliques = {c for c in cliques if len(c) == 8}

    back = {new: old for old, new in remap.items()}
    from_enumeration = {
        frozenset(remap[v] for v in bit_indices(ctx))
        for ctx in ks_contexts
        if all(ks_graph.vertices[v].kind == "row" for v in bit_indices(ctx))
    }
    assert len(from_enumeration) == 15
    assert eight_cliques == from_enumeration
    assert all(back[v] in row_ids for c in eight_cliques for v in c)


def test_context_enumeration_budget_error(ks_graph):
    with pytest.raises(BudgetExceededError):
        enumerate_contexts(ks_graph, node_budget=10)


def test_context_enumeration_takes_exactly_74093_nodes(ks_graph, ks_contexts):
    with pytest.raises(BudgetExceededError):
        enumerate_contexts(ks_graph, node_budget=74_092)
    assert enumerate_contexts(ks_graph, node_budget=74_093) == ks_contexts


def test_cover_tables_reject_non_orthogonal_spanning_vectors():
    # equal norms (2, a divisor of 16) but a nonzero dot product
    u = (1, 1) + (0,) * 30
    v = (0, 1, 1) + (0,) * 29
    bad = KSVertex(0, ("row", 0, +1, +1, +1), (u, v))
    with pytest.raises(ValueError, match="mutually orthogonal"):
        enumerate_contexts(build_orthogonality_graph([bad]))


@pytest.mark.parametrize("ivecs", [((0,) * 32,), ()],
                         ids=["zero-vector", "no-vectors"])
def test_cover_tables_reject_empty_spans(ivecs):
    # a zero vector is orthogonal to everything, so it reaches the tables
    ket = (1,) + (0,) * 31
    bad = KSVertex(0, ("classical", "00000"), ivecs)
    good = KSVertex(1, ("classical", "00001"), (ket,))
    with pytest.raises(ValueError, match="vertex 0: .* nonzero divisor"):
        enumerate_contexts(build_orthogonality_graph([bad, good]))


def _counts(verdict):
    return verdict.decisions, verdict.propagations, verdict.conflicts


def _true_ids(verdict):
    return set(bit_indices(verdict.true))


def test_colorability_unsat(ks_graph, ks_contexts):
    verdict = ks_colorability(ks_graph, ks_contexts)
    assert not verdict.satisfiable
    assert verdict.true == 0
    assert _counts(verdict) == (681, 13427, 681)


def test_canonical_contexts_alone_already_unsat(ks_graph):
    verdict = ks_colorability(ks_graph, canonical_contexts(ks_graph))
    assert not verdict.satisfiable
    assert _counts(verdict) == (681, 13939, 681)


def test_classical_context_alone_is_satisfiable(ks_graph):
    classical = [v.vid for v in ks_graph.vertices if v.kind == "classical"]
    sub, remap = ks_graph.induced(classical)
    verdict = ks_colorability(sub, [(1 << 32) - 1])
    assert verdict.satisfiable
    assert _true_ids(verdict) == {0}
    assert _counts(verdict) == (1, 32, 0)


def test_rank1_subinstance_with_basis_contexts_is_satisfiable(ks_graph):
    """Regression fact: without the rank-4 projectors the two bases plus
    their cross edges still admit a classical labeling."""
    keep = [v.vid for v in ks_graph.vertices if v.rank == 1]
    sub, remap = ks_graph.induced(keep)
    classical = sum(1 << remap[v.vid] for v in ks_graph.vertices
                    if v.kind == "classical")
    mutation = sum(1 << remap[v.vid] for v in ks_graph.vertices
                   if v.kind == "mutation")
    verdict = ks_colorability(sub, [classical, mutation])
    assert verdict.satisfiable
    assert _true_ids(verdict) == {0, 32}
    assert _counts(verdict) == (2, 64, 0)


def test_check_coloring_rejects_ks1_and_ks2_violations(ks_graph):
    classical = (1 << 32) - 1
    u, v = ks_graph.edges()[0]
    ks1 = fr"KS1 violated on edge \({u},{v}\)"
    with pytest.raises(AssertionError, match=ks1):
        _check_coloring(ks_graph, [classical], 1 << u | 1 << v)
    with pytest.raises(AssertionError, match="KS2 violated on context"):
        _check_coloring(ks_graph, [classical], 0)


def _small_instance(nv, edges, contexts):
    """A colouring instance on nv abstract vertices: the search reads only
    the vertex count and the adjacency masks."""
    adj = [0] * nv
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return (OrthogonalityGraph([None] * nv, adj),
            [sum(1 << vid for vid in ids) for ids in contexts])


def _brute_force_satisfiable(graph, contexts) -> bool:
    nv = len(graph.vertices)
    for true in range(1 << nv):
        if all(m & true for m in contexts) and not any(
                true >> u & 1 and graph.adj[u] & true for u in range(nv)):
            return True
    return False


def test_forced_last_member_is_searched():
    # ruling 0 out of {0,1} forces 1 true, whose branch holds the colouring
    graph, contexts = _small_instance(
        4, [(0, 1), (2, 3), (0, 2), (0, 3)], [(0, 1), (2, 3)])
    verdict = ks_colorability(graph, contexts)
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
        graph, ctxs = _small_instance(nv, edges, contexts)
        expected = _brute_force_satisfiable(graph, ctxs)
        assert ks_colorability(graph, ctxs).satisfiable == expected, \
            (nv, sorted(edges), contexts)
        sat += expected
    assert 0 < sat < 2000


def test_colorability_budget_error(ks_graph, ks_contexts):
    with pytest.raises(BudgetExceededError):
        ks_colorability(ks_graph, ks_contexts, decision_budget=5)


def test_verdict_stable_under_vertex_reordering(ks_vertices):
    for seed in (1, 2, 3):
        rng = random.Random(seed)
        order = list(range(104))
        rng.shuffle(order)
        shuffled = [replace(ks_vertices[old], vid=new)
                    for new, old in enumerate(order)]
        graph = build_orthogonality_graph(shuffled)
        contexts = enumerate_contexts(graph)
        assert len(contexts) == CONTEXT_COUNT
        assert not ks_colorability(graph, contexts).satisfiable
