"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (visible with pytest -s or in the
captured output) and asserts both the claim and its runtime bound.  All
comparisons are exact; there are no numerical tolerances anywhere.

Run with:  pytest tests/test_acceptance.py -v -s
"""

import random
import time
from contextlib import contextmanager

from codeword_paradoxes import dense, stabilizer
from codeword_paradoxes.codes import five_qubit_code, mermin_code, steane_code
from codeword_paradoxes.kochen_specker import (build_ks_set,
                                               build_orthogonality_graph,
                                               canonical_contexts,
                                               enumerate_contexts,
                                               ks_colorability)
from codeword_paradoxes.paradoxes import (build_canonical_array,
                                          canonical_pentagon_instance,
                                          check_array,
                                          check_parity_contradiction,
                                          compatible_pairs,
                                          find_determinations,
                                          search_parity_contradictions)
from codeword_paradoxes.pauli import identity, parse, single_site
from codeword_paradoxes.selftest import dense_amplitudes, random_pauli, random_state
from codeword_paradoxes.stabilizer import (invariant_subgroup,
                                           knill_laflamme_check,
                                           verify_stabilizes)
from codeword_paradoxes.statevector import apply, eigensign, inner
from conftest import assert_resolves_identity, ks_spanning, ks_states


@contextmanager
def criterion(number: int, limit_s: float, title: str):
    start = time.perf_counter()
    failed = False
    try:
        yield
    except BaseException:
        failed = True
        raise
    finally:
        elapsed = time.perf_counter() - start
        status = "FAIL" if failed else "PASS"
        print(f"criterion {number}: {status} ({elapsed:.2f}s / limit {limit_s:.0f}s)"
              f" - {title}")
        if not failed:
            assert elapsed < limit_s, (
                f"criterion {number} exceeded its {limit_s}s budget: {elapsed:.2f}s")


def test_criterion_1_stabilizer_verification(monkeypatch):
    calls = []

    def counting_eigensign(op, state):
        calls.append(op)
        return eigensign(op, state)

    monkeypatch.setattr(stabilizer, "eigensign", counting_eigensign)
    with criterion(1, 1.0, "five-qubit stabilizer group, signs, subgroup"):
        code = five_qubit_code()
        group = code.group()
        assert len(group) == 32
        assert verify_stabilizes(group, code.codeword(0), code.codeword(1)) == []
        assert len(calls) == 2 * 32
        # reference sign table: (sign on |0_L>, sign on |1_L>)
        reference = {"XZIZX": (+1, +1), "YXIXY": (+1, +1), "ZYIYZ": (+1, +1),
                   "IXZXI": (-1, +1), "YIZIY": (-1, +1), "XYZYX": (+1, -1)}
        expected = {parse("IIIII"): (+1, +1), parse("ZZZZZ"): (+1, -1)}
        for text, signs in reference.items():
            for k in range(5):
                expected[parse(text).shift(k)] = signs
        assert {e.op: (e.sign0, e.sign1) for e in group} == expected
        ops = [e.op for e in group]
        assert all(a.commutes_with(b) for i, a in enumerate(ops)
                   for b in ops[i + 1:])
        assert len(invariant_subgroup(group)) == 16


def test_criterion_2_mermin_code():
    with criterion(2, 1.0, "GHZ-type code: order 8, bit flips only"):
        code = mermin_code()
        group = code.group()
        assert len(group) == 8
        listing = {str(e.op): (e.sign0, e.sign1) for e in group}
        assert listing == {
            "III": (+1, +1), "XYY": (-1, +1), "YXY": (-1, +1),
            "YYX": (-1, +1), "XXX": (+1, -1), "ZZI": (+1, +1),
            "ZIZ": (+1, +1), "IZZ": (+1, +1),
        }
        stable = invariant_subgroup(group)
        bitflips = knill_laflamme_check(code.codeword(0), code.codeword(1),
                                        code.correctable, stable)
        assert bitflips.ok
        phase = knill_laflamme_check(code.codeword(0), code.codeword(1),
                                     list(code.correctable)
                                     + [single_site(3, 1, "Z")], stable)
        assert not phase.ok


def test_criterion_3_elements_of_reality():
    with criterion(3, 1.0, "8 determinations per target and 5 pairs"):
        code = five_qubit_code()
        group = code.group()
        ds = find_determinations(group, 1, "X")
        known = {"IZXII", "IIIXZ", "IIXYY", "IXYZY",
                 "IXZIZ", "IYYXI", "IYZYX", "IZIZX"}
        assert {str(d.witness) for d in ds} == known
        assert len(compatible_pairs(ds)) == 5
        for site in range(1, 6):
            for letter in "XYZ":
                assert len(find_determinations(group, site, letter)) == 8


def test_criterion_4_parity_contradiction():
    with criterion(4, 1.0, "six-operator parity contradiction, both codewords"):
        code = five_qubit_code()
        inst = canonical_pentagon_instance(code)
        for ws in (0, 1):
            rep = check_parity_contradiction(inst, ws)
            assert rep.all_multiplicities_even
            assert rep.eigenvalue_product == -1
            assert rep.operator_product == "-IIIII"
            assert rep.contradiction


def test_criterion_5_operator_array():
    with criterion(5, 1.0, "6x13 array: rows +1, columns +1 except the last"):
        rep = check_array(build_canonical_array())
        assert all(rep.row_commuting) and all(rep.col_commuting)
        assert rep.row_products == ["IIIII"] * 6
        assert rep.col_products == ["IIIII"] * 12 + ["-IIIII"]
        assert rep.impossibility


def test_criterion_6_ks_set_construction():
    with criterion(6, 10.0, "104 projectors and the claimed orthogonalities"):
        code = five_qubit_code()
        vertices = build_ks_set()
        assert len(vertices) == 104
        by_kind = {}
        for v in vertices:
            by_kind.setdefault(v.kind, []).append(v)
        assert len(by_kind["classical"]) == 32
        assert len(by_kind["mutation"]) == 32
        assert len(by_kind["row"]) == 40
        assert len(vertices) * 4 == 13 * 32

        for family in ("classical", "mutation"):
            # norm 4**scale_exp: exactly 1 once each ivec is divided by 2**scale_exp
            assert all(inner(u, u) == (4 ** v.scale_exp, 0)
                       for v in by_kind[family] for u in ks_states(v))
            assert_resolves_identity(ks_spanning(by_kind[family]))

        graph = build_orthogonality_graph(vertices)
        ids = {kind: [i for i, v in enumerate(vertices) if v.kind == kind]
               for kind in ("classical", "mutation")}
        mutation_mask = sum(1 << i for i in ids["mutation"])
        classical_mask = sum(1 << i for i in ids["classical"])
        assert all((graph.adj[i] & mutation_mask).bit_count() == 16
                   for i in ids["classical"])
        assert all((graph.adj[i] & classical_mask).bit_count() == 16
                   for i in ids["mutation"])

        for r in range(2, 7):
            fam = [v for v in by_kind["row"] if v.provenance[1] == r]
            assert len(fam) == 8
            assert all(v.rank == 4 for v in fam)
            assert_resolves_identity(ks_spanning(fam))

        row3_minus = [v for v in by_kind["row"]
                      if v.provenance[1] == 3 and v.provenance[4] == -1]
        assert len(row3_minus) == 4
        for v in row3_minus:
            for j in range(32):
                if not (j >> 3) & 1:  # kets |a0cde>
                    assert all(iv[j] == 0 for iv in v.ivecs)

        m_eq_n = [v for v in row3_minus if v.provenance[2] == v.provenance[3]]
        assert len(m_eq_n) == 2
        for d in "IXYZ":
            for e in "IXYZ":
                op = identity(5)
                if d != "I":
                    op = op * single_site(5, 4, d)
                if e != "I":
                    op = op * single_site(5, 5, e)
                w = apply(op, code.codeword(1))
                for v in m_eq_n:
                    assert all(inner(s, w) == (0, 0) for s in ks_states(v))


def test_criterion_7_ks_non_colorability():
    with criterion(7, 60.0, "KS1/KS2 with exhaustive contexts is UNSAT"):
        vertices = build_ks_set()
        graph = build_orthogonality_graph(vertices)
        contexts = enumerate_contexts(graph)
        assert set(canonical_contexts(graph)) <= set(contexts)
        verdict = ks_colorability(graph.adj, contexts)
        if verdict.satisfiable:
            print("UNEXPECTED COLORING FOUND:")
            for i, v in enumerate(graph.vertices):
                print(f"  {v.label()}: {bool(verdict.true >> i & 1)}")
        assert not verdict.satisfiable


def test_criterion_8_steane_code():
    with criterion(8, 30.0, "7-qubit group and its parity contradictions"):
        code = steane_code()
        group = code.group()
        assert len(group) == 128
        assert all(3 <= e.op.weight <= 7 for e in group.non_identity())
        res = search_parity_contradictions(code, 10)
        assert res.instances


def test_criterion_9_property_suites():
    with criterion(9, 30.0, "dense-matrix oracle and composition properties"):
        rng = random.Random(0)
        for _ in range(1000):
            n = rng.randint(1, 3)
            a, b = random_pauli(rng, n), random_pauli(rng, n)
            ma, mb = dense.pauli_matrix(a), dense.pauli_matrix(b)
            mab = dense.mat_mul(ma, mb)
            assert dense.pauli_matrix(a * b) == mab
            assert a.commutes_with(b) == (mab == dense.mat_mul(mb, ma))
            v = random_state(rng, n)
            assert dense_amplitudes(apply(a, v)) == \
                dense.mat_vec(ma, dense_amplitudes(v))
        for _ in range(200):
            p, q = random_pauli(rng, 5), random_pauli(rng, 5)
            v = random_state(rng, 5)
            assert apply(p, apply(q, v)) == apply(p * q, v)
        code = five_qubit_code()
        res = search_parity_contradictions(code, 6)
        canon = set(canonical_pentagon_instance(code).members)
        assert any(set(inst.members) == canon for inst in res.instances)
