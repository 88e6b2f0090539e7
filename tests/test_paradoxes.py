from collections import Counter, defaultdict
from itertools import combinations, product

import pytest

from codeword_paradoxes import paradoxes
from codeword_paradoxes.codes import code_by_name
from codeword_paradoxes.errors import BudgetExceededError
from codeword_paradoxes.paradoxes import (OperatorArray, ParityInstance,
                                          build_canonical_array,
                                          canonical_pentagon_instance,
                                          check_array,
                                          check_parity_contradiction,
                                          compatible_pairs,
                                          find_determinations,
                                          mermin_peres_square,
                                          parity_instance_from_group,
                                          pentagon_description,
                                          search_parity_contradictions)
from codeword_paradoxes.pauli import from_letters, identity, parse
from codeword_paradoxes.statevector import eigensign

# The eight ways of learning sigma_1x from the other qubits, written as
# witnesses on sites 2..5.
KNOWN_WITNESSES_1X = {
    "IZXII",   # sigma_2z sigma_3x
    "IIIXZ",   # sigma_4x sigma_5z
    "IIXYY",   # sigma_3x sigma_4y sigma_5y
    "IXYZY",   # sigma_2x sigma_3y sigma_4z sigma_5y
    "IXZIZ",   # sigma_2x sigma_3z sigma_5z
    "IYYXI",   # sigma_2y sigma_3y sigma_4x
    "IYZYX",   # sigma_2y sigma_3z sigma_4y sigma_5x
    "IZIZX",   # sigma_2z sigma_4z sigma_5x
}

KNOWN_PAIRS_1X = {
    frozenset({"IZXII", "IIIXZ"}),   # the simultaneously testable example
    frozenset({"IZXII", "IZIZX"}),
    frozenset({"IZXII", "IIXYY"}),
    frozenset({"IIIXZ", "IXZIZ"}),
    frozenset({"IIIXZ", "IYYXI"}),
}


def test_determinations_match_known_list(five_group):
    ds = find_determinations(five_group, 1, "X")
    assert {str(d.witness) for d in ds} == KNOWN_WITNESSES_1X
    # sigma_1x sigma_2z sigma_3x |0_L> = -|0_L>, so that witness predicts -1
    by_witness = {str(d.witness): d.predicted_product for d in ds}
    assert by_witness["IZXII"] == -1
    assert by_witness["IIIXZ"] == -1
    assert sum(1 for v in by_witness.values() if v == -1) == 2


def test_z_target_includes_all_z_witness(five_group):
    ds = find_determinations(five_group, 1, "Z")
    assert "IZZZZ" in {str(d.witness) for d in ds}   # read off the all-Z element


def test_determination_soundness(five, five_group):
    """predicted_product times the witness eigen-factor reproduces the
    group element's eigensign on the codeword."""
    from codeword_paradoxes.pauli import single_site
    from codeword_paradoxes.statevector import eigensign
    for d in find_determinations(five_group, 1, "X"):
        element = single_site(5, 1, "X") * d.witness
        assert eigensign(element, five.codeword0) == d.predicted_product


def test_compatible_pairs_match_known_count(five_group):
    ds = find_determinations(five_group, 1, "X")
    pairs = compatible_pairs(ds)
    assert len(pairs) == 5
    got = {frozenset({str(a.witness), str(b.witness)}) for a, b in pairs}
    assert got == KNOWN_PAIRS_1X


def test_incompatible_example(five_group):
    ds = {str(d.witness): d for d in find_determinations(five_group, 1, "X")}
    pairs = compatible_pairs([ds["IZXII"], ds["IXYZY"]])
    assert pairs == []   # site 2 letters Z vs X differ


@pytest.mark.parametrize("n", [1, 2, 3])
def test_sitewise_compatible_matches_letter_rule(n):
    strings = [from_letters(ls) for ls in product("IXYZ", repeat=n)]

    def letterwise(a, b):
        return all(la == "I" or lb == "I" or la == lb
                   for la, lb in zip(a.letters, b.letters))

    for a in strings:
        for b in strings:
            assert paradoxes._sitewise_compatible(a, b) == letterwise(a, b), (a, b)


def test_empty_determinations():
    from codeword_paradoxes.stabilizer import StabilizerElement, close
    trivial = close([StabilizerElement(identity(1), +1, +1)])
    assert find_determinations(trivial, 1, "X") == []


def test_pentagon_contradiction_both_codewords(five):
    for ws in (0, 1):
        report = check_parity_contradiction(canonical_pentagon_instance(five, ws))
        assert report.all_even
        assert report.eigenvalue_product == -1
        assert report.matrix_product == "-IIIII"
        assert report.contradiction
        # every symbol that appears does so exactly twice
        assert set(report.multiplicities.values()) == {2}


def test_pentagon_symbol_count(five):
    report = check_parity_contradiction(canonical_pentagon_instance(five, 0))
    assert len(report.multiplicities) == 10   # five z symbols, five x symbols


def test_pentagon_description(five):
    desc = pentagon_description(five)
    assert len(desc["sides"]) == 5
    assert desc["sides"][0]["measurements"] == ["sigma_1x", "sigma_2z", "sigma_3x"]
    assert desc["sides"][0]["value_on_codeword0"] == -1
    assert desc["closing_relation"]["value_on_codeword0"] == +1


def test_parity_instance_rejects_wrong_sign(five):
    inst = ParityInstance("bad", five.codeword0,
                          ((parse("ZZZZZ"), -1),))   # actual eigensign is +1
    with pytest.raises(ValueError):
        check_parity_contradiction(inst)


def test_mermin_ghz_instance(mermin):
    group = mermin.group()
    ops = [parse(s) for s in ("XXX", "XYY", "YXY", "YYX")]
    inst = parity_instance_from_group(group, mermin.codeword0, "|+>", ops, 0)
    report = check_parity_contradiction(inst)
    assert report.contradiction
    assert report.eigenvalue_product == -1
    assert set(report.multiplicities.values()) == {2}


def test_canonical_array_layout():
    arr = build_canonical_array()
    assert arr.shape == (6, 13)
    assert str(arr.cell(2, 13)) == "ZXIIX"    # sigma_5x sigma_1z sigma_2x
    assert str(arr.cell(6, 13)) == "XIIXZ"    # sigma_4x sigma_5z sigma_1x
    assert str(arr.cell(1, 7)) == "IIIII"
    assert str(arr.cell(3, 2)) == "IZIII"
    assert str(arr.cell(3, 6)) == "XIIII"
    assert str(arr.cell(3, 8)) == "IIXII"
    assert str(arr.cell(3, 13)) == "XZXII"
    assert str(arr.cell(1, 13)) == "ZZZZZ"


def test_canonical_array_verdict():
    report = check_array(build_canonical_array())
    assert all(report.row_commuting)
    assert all(report.col_commuting)
    assert report.row_products == ["IIIII"] * 6
    assert report.col_products == ["IIIII"] * 12 + ["-IIIII"]
    assert report.row_signs_match and report.col_signs_match
    assert report.impossibility
    assert report.rowwise_total == "IIIII"
    assert report.colwise_total == "-IIIII"


def test_array_last_column_is_the_pentagon_instance(five):
    """The multiplicative and parity arguments share their operators: the
    array's final column is exactly the six-operator instance."""
    arr = build_canonical_array()
    column_ops = {str(op) for op in arr.column(13)}
    instance_ops = {str(op) for op, _sign in
                    canonical_pentagon_instance(five, 0).members}
    assert column_ops == instance_ops


def test_mermin_peres_square():
    report = check_array(mermin_peres_square())
    assert report.row_products == ["II", "II", "II"]
    assert report.col_products == ["II", "II", "-II"]
    assert all(report.row_commuting) and all(report.col_commuting)
    assert report.impossibility


def test_trivial_array_has_no_contradiction():
    arr = OperatorArray(rows=((identity(1),),),
                        declared_row_signs=(+1,),
                        declared_col_signs=(+1,))
    report = check_array(arr)
    assert not report.impossibility
    assert report.row_products == ["I"] and report.col_products == ["I"]


def test_array_rejects_non_hermitian_cells():
    with pytest.raises(Exception):
        OperatorArray(rows=((parse("iZ"),),),
                      declared_row_signs=(+1,),
                      declared_col_signs=(+1,))


def test_search_five_qubit(five, five_group):
    res = search_parity_contradictions(five_group, 0, 6, five.codeword0)
    assert res.complete_to_size == 6
    # tiers 2..6 visit every 1..5-subset of the 31 elements once
    assert res.nodes_used == 206_367
    sizes = [len(inst.members) for inst in res.instances]
    assert Counter(sizes) == {4: 60, 5: 180, 6: 572}
    canon = set(canonical_pentagon_instance(five, 0).members)
    assert any(set(inst.members) == canon for inst in res.instances)
    # results are ordered smallest first
    assert sizes == sorted(sizes)


def test_search_is_deterministic(five, five_group):
    a = search_parity_contradictions(five_group, 0, 5, five.codeword0)
    b = search_parity_contradictions(five_group, 0, 5, five.codeword0)
    assert [i.operator_texts() for i in a.instances] == \
        [i.operator_texts() for i in b.instances]


def test_search_mermin_finds_ghz(mermin):
    res = search_parity_contradictions(mermin.group(), 0, 4, mermin.codeword0)
    assert len(res.instances) == 1
    assert res.instances[0].operator_texts() == \
        ["+1 XXX", "-1 XYY", "-1 YXY", "-1 YYX"]


def test_search_tiny_bounds(five, five_group, steane):
    # no contradiction can use fewer than two elements
    empty = search_parity_contradictions(five_group, 0, 2, five.codeword0)
    assert empty.instances == [] and empty.complete_to_size == 2
    tiny = search_parity_contradictions(steane.group(), 0, 1, steane.codeword0)
    assert tiny.instances == [] and tiny.complete_to_size == 1


def test_check_rejects_empty_instance(five):
    with pytest.raises(ValueError):
        check_parity_contradiction(ParityInstance("empty", five.codeword0, ()))


def test_search_steane_finds_small_subsets(steane):
    group = steane.group()
    for ws in (0, 1):
        res = search_parity_contradictions(group, ws, 10, steane.codeword(ws))
        sizes = [len(inst.members) for inst in res.instances]
        assert res.instances
        assert min(sizes) == 4
        assert sizes.count(4) == 2016
        # 127 + 8001 + 333,375 nodes; size 5 would need another 10,334,625
        assert res.complete_to_size == 4
        assert res.nodes_used == 341_503


def _size4_contradictions(group, which_state) -> tuple[set, set]:
    """(even-multiplicity 4-subsets, four-element contradictions), found
    without the search's code.

    Pairs of non-identity elements are bucketed by the set of (site, letter)
    symbols occurring an odd number of times in the pair; two disjoint pairs
    in one bucket form an even-multiplicity 4-subset, and it is a
    contradiction when its eigenvalue product is -1.
    """
    elems = [(e.op, e.sign(which_state)) for e in group.non_identity()]
    odd = [frozenset((k, letter) for k, letter in enumerate(op.letters)
                     if letter != "I") for op, _sign in elems]
    buckets = defaultdict(list)
    for i, j in combinations(range(len(elems)), 2):
        buckets[odd[i] ^ odd[j]].append((i, j))
    even = {frozenset(a + b) for pairs in buckets.values()
            for a, b in combinations(pairs, 2) if not set(a) & set(b)}
    return even, {frozenset(elems[i] for i in idxs) for idxs in even
                  if [elems[i][1] for i in idxs].count(-1) % 2}


def _size4_instances(res) -> set[frozenset]:
    return {frozenset(inst.members) for inst in res.instances
            if len(inst.members) == 4}


def test_steane_size4_matches_pair_bucket_oracle(steane):
    group = steane.group()
    for ws in (0, 1):
        even, expected = _size4_contradictions(group, ws)
        assert len(even) == 4557
        assert len(expected) == 2016
        res = search_parity_contradictions(group, ws, 10, steane.codeword(ws))
        assert _size4_instances(res) == expected


def test_five_qubit_size4_matches_pair_bucket_oracle(five, five_group):
    for ws in (0, 1):
        _even, expected = _size4_contradictions(five_group, ws)
        assert len(expected) == 60
        res = search_parity_contradictions(five_group, ws, 6, five.codeword(ws))
        assert _size4_instances(res) == expected


def test_search_rejects_the_wrong_state(steane, five, five_group):
    with pytest.raises(ValueError):
        search_parity_contradictions(steane.group(), 0, 4, steane.codeword1)
    with pytest.raises(ValueError):
        search_parity_contradictions(five_group, 0, 6, five.codeword1)


def test_search_checks_each_element_sign_once(steane, monkeypatch):
    calls = []

    def counting_eigensign(op, state):
        calls.append(op)
        return eigensign(op, state)

    monkeypatch.setattr(paradoxes, "eigensign", counting_eigensign)
    group = steane.group()
    res = search_parity_contradictions(group, 1, 10, steane.codeword1)
    assert len(res.instances) == 2016
    assert sorted(map(str, calls)) == sorted(str(e.op) for e in group.non_identity())


def test_steane_budget_is_spent_by_whole_tiers(steane):
    group = steane.group()
    # tiers 2..4 cost 127 + 8001 + 333,375 nodes: any budget below their
    # sum stops at size 3, on every call and for either codeword
    messages = set()
    for ws, budget in ((0, 100_000), (1, 100_000), (0, 100_000), (1, 341_502)):
        with pytest.raises(BudgetExceededError) as err:
            search_parity_contradictions(group, ws, 10, steane.codeword(ws),
                                         node_budget=budget)
        messages.add(str(err.value))
    assert messages == {"parity search exhausted its budget at size 3 "
                        "of 10 with nothing found"}
    res = search_parity_contradictions(group, 0, 10, steane.codeword0,
                                       node_budget=341_503)
    assert res.complete_to_size == 4 and res.nodes_used == 341_503
    assert [len(inst.members) for inst in res.instances] == [4] * 2016


@pytest.mark.parametrize("name, max_subset",
                         [("steane", 10), ("five", 6), ("mermin", 10)])
def test_search_orders_by_size_then_element_index(name, max_subset):
    """Instances come smallest first, then by the group indices of their
    members; for these phase-0 elements of one length that is also the
    order of the members' texts."""
    code = code_by_name(name)
    group = code.group()
    index = {e.op: i for i, e in enumerate(group.non_identity())}
    for ws in (0, 1):
        res = search_parity_contradictions(group, ws, max_subset,
                                           code.codeword(ws))
        by_index = [(len(inst.members),
                     tuple(index[op] for op, _ in inst.members))
                    for inst in res.instances]
        assert all(list(idxs) == sorted(idxs) for _size, idxs in by_index)
        assert by_index == sorted(set(by_index))
        by_text = [(len(inst.members), [str(op) for op, _ in inst.members])
                   for inst in res.instances]
        assert by_text == sorted(by_text)


def test_three_qubit_search_matches_every_subset(mermin):
    """All 2^7 subsets of the seven non-identity elements, by bitmask: the
    contradictions of every size are exactly the search's instances."""
    group = mermin.group()
    elems = group.non_identity()
    assert len(elems) == 7
    for ws in (0, 1):
        members = [(e.op, e.sign(ws)) for e in elems]
        expected = set()
        for mask in range(1, 1 << len(members)):
            chosen = [m for k, m in enumerate(members) if mask >> k & 1]
            counts = Counter((k, letter) for op, _sign in chosen
                             for k, letter in enumerate(op.letters)
                             if letter != "I")
            if (all(c % 2 == 0 for c in counts.values())
                    and [sign for _op, sign in chosen].count(-1) % 2):
                expected.add(frozenset(chosen))
        res = search_parity_contradictions(group, ws, 7, mermin.codeword(ws))
        assert res.complete_to_size == 7
        assert {frozenset(inst.members) for inst in res.instances} == expected
        assert len(res.instances) == len(expected) == 2


def test_even_subsets_requires_distinct_vectors():
    assert paradoxes._even_subsets([0b011, 0b101, 0b110], 3) == [(0, 1, 2)]
    with pytest.raises(ValueError):
        paradoxes._even_subsets([0b011, 0b101, 0b011], 3)
