import random
from collections import Counter, defaultdict
from functools import reduce
from itertools import combinations, product
from operator import xor

import pytest

from codeword_paradoxes import cli, paradoxes, stabilizer
from codeword_paradoxes.codes import code_by_name
from codeword_paradoxes.errors import BudgetExceededError, NonHermitianError
from codeword_paradoxes.paradoxes import (Determination, OperatorArray,
                                          ParityInstance,
                                          build_canonical_array,
                                          canonical_pentagon_instance,
                                          check_array,
                                          check_parity_contradiction,
                                          compatible_pairs,
                                          find_determinations,
                                          parity_instance,
                                          pentagon_description,
                                          search_parity_contradictions)
from codeword_paradoxes.pauli import from_letters, identity, parse
from codeword_paradoxes.stabilizer import StabilizerElement, verify_stabilizes
from codeword_paradoxes.statevector import eigensign
from conftest import redefine

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
        assert eigensign(element, five.codeword(0)) == d.predicted_product


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
    # compatible_pairs on each two-element list applies its mask rule once
    strings = [from_letters(ls) for ls in product("IXYZ", repeat=n)]

    def letterwise(a, b):
        return all(la == "I" or lb == "I" or la == lb
                   for la, lb in zip(a.letters, b.letters))

    for a in strings:
        for b in strings:
            da, db = Determination(a, 1), Determination(b, 1)
            want = [(da, db)] if letterwise(a, b) else []
            assert compatible_pairs([da, db]) == want, (a, b)


def test_empty_determinations():
    from codeword_paradoxes.stabilizer import StabilizerElement, close
    trivial = close([StabilizerElement(identity(1), +1, +1)])
    assert find_determinations(trivial, 1, "X") == []


def test_determinations_check_the_codeword_before_any_match():
    from codeword_paradoxes.stabilizer import StabilizerElement, close
    group = close([StabilizerElement(parse("ZZ"), 1, 1)])
    for letter in ("X", "Z"):   # X matches no element, Z matches ZZ
        with pytest.raises(ValueError, match="which_state must be 0 or 1, not 7"):
            find_determinations(group, 1, letter, which_state=7)


@pytest.mark.parametrize("name", ["five", "mermin", "steane"])
def test_determinations_come_sorted_by_witness_key(name):
    code = code_by_name(name)
    for site in range(1, code.n + 1):
        for letter in "XYZ":
            witnesses = [d.witness for d in
                         find_determinations(code.group(), site, letter)]
            assert witnesses == sorted(witnesses, key=lambda w: w.key())


def test_pentagon_contradiction_both_codewords(five):
    inst = canonical_pentagon_instance(five)
    for ws in (0, 1):
        report = check_parity_contradiction(inst, ws)
        assert report.all_multiplicities_even
        assert report.eigenvalue_product == -1
        assert report.operator_product == "-IIIII"
        assert report.contradiction
        # every symbol that appears does so exactly twice
        assert set(report.symbol_multiplicities.values()) == {2}


def test_pentagon_symbol_count(five):
    report = check_parity_contradiction(canonical_pentagon_instance(five), 0)
    assert len(report.symbol_multiplicities) == 10   # five z symbols, five x symbols


def test_pentagon_description(five):
    desc = pentagon_description(five)
    assert len(desc["sides"]) == 5
    assert desc["sides"][0]["measurements"] == ["sigma_1x", "sigma_2z", "sigma_3x"]
    assert desc["sides"][0]["value_on_codeword0"] == -1
    assert desc["closing_relation"]["value_on_codeword0"] == +1


@pytest.mark.parametrize("name", ["steane", "mermin"])
def test_pentagon_needs_the_five_qubit_group(name):
    code = code_by_name(name)
    with pytest.raises(ValueError, match="ZZZZZ is not a group element"):
        pentagon_description(code)
    with pytest.raises(ValueError, match="ZZZZZ is not a group element"):
        canonical_pentagon_instance(code)


def test_parity_instance_rejects_wrong_sign(five):
    # the actual eigensign of ZZZZZ is +1 on codeword 0, -1 on codeword 1
    inst = ParityInstance(five, (StabilizerElement(parse("ZZZZZ"), -1, -1),))
    with pytest.raises(ValueError):
        check_parity_contradiction(inst, 0)
    assert check_parity_contradiction(inst, 1).operators == ["-1 ZZZZZ"]


@pytest.mark.parametrize("which_state", [-1, 2, 5])
def test_parity_check_takes_only_codeword_0_or_1(five, which_state):
    inst = canonical_pentagon_instance(five)
    with pytest.raises(ValueError, match="which_state must be 0 or 1"):
        check_parity_contradiction(inst, which_state)
    with pytest.raises(ValueError, match="which_state must be 0 or 1"):
        inst.operator_texts(which_state)


def test_mermin_ghz_instance(mermin):
    ops = [parse(s) for s in ("XXX", "XYY", "YXY", "YYX")]
    inst = parity_instance(mermin, ops)
    report = check_parity_contradiction(inst, 0)
    assert report.contradiction
    assert report.eigenvalue_product == -1
    assert set(report.symbol_multiplicities.values()) == {2}


def test_canonical_array_layout():
    rows = build_canonical_array().rows
    assert [len(row) for row in rows] == [13] * 6
    assert str(rows[1][12]) == "ZXIIX"    # sigma_5x sigma_1z sigma_2x
    assert str(rows[5][12]) == "XIIXZ"    # sigma_4x sigma_5z sigma_1x
    assert str(rows[0][6]) == "IIIII"
    assert str(rows[2][1]) == "IZIII"
    assert str(rows[2][5]) == "XIIII"
    assert str(rows[2][7]) == "IIXII"
    assert str(rows[2][12]) == "XZXII"
    assert str(rows[0][12]) == "ZZZZZ"


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
    column_ops = {str(row[12]) for row in arr.rows}
    instance_ops = {str(e.op) for e in canonical_pentagon_instance(five).members}
    assert column_ops == instance_ops


def test_mermin_peres_square(mermin_peres_square):
    report = check_array(mermin_peres_square)
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
    with pytest.raises(NonHermitianError, match="^array cell iZ is not Hermitian$"):
        check_array(OperatorArray(rows=((parse("iZ"),),),
                                  declared_row_signs=(+1,),
                                  declared_col_signs=(+1,)))


def test_array_rejects_ragged_rows():
    with pytest.raises(ValueError, match="^ragged operator array$"):
        check_array(OperatorArray(rows=((parse("Z"),), (parse("Z"), parse("X"))),
                                  declared_row_signs=(+1, +1),
                                  declared_col_signs=(+1,)))


def test_array_rejects_declared_signs_off_its_shape():
    # check_array zips the declared signs with the products, so a short
    # tuple would leave the -I column 13 uncompared
    arr = build_canonical_array()
    for bad in ({"declared_col_signs": (+1,)},
                {"declared_col_signs": arr.declared_col_signs + (+1,)},
                {"declared_row_signs": (+1,) * 5},
                {"declared_row_signs": (+1,) * 7}):
        with pytest.raises(ValueError, match=r"^declared signs for \d+ rows "
                                             r"and \d+ columns; the array is 6x13$"):
            check_array(arr._replace(**bad))
    with pytest.raises(ValueError, match="no columns"):
        check_array(OperatorArray(rows=((), ()), declared_row_signs=(+1, +1),
                                  declared_col_signs=()))
    with pytest.raises(ValueError, match="no rows"):
        check_array(OperatorArray(rows=(), declared_row_signs=(),
                                  declared_col_signs=()))


def test_search_five_qubit(five):
    res = search_parity_contradictions(five, 6)
    assert res.complete_to_size == 6
    # tiers 2..6 visit every 1..5-subset of the 31 elements once
    assert res.nodes_used == 206_367
    sizes = [len(inst.members) for inst in res.instances]
    assert Counter(sizes) == {4: 60, 5: 180, 6: 572}
    canon = set(canonical_pentagon_instance(five).members)
    assert any(set(inst.members) == canon for inst in res.instances)
    # results are ordered smallest first
    assert sizes == sorted(sizes)


def test_search_is_deterministic(five):
    a = search_parity_contradictions(five, 5)
    b = search_parity_contradictions(five, 5)
    assert [i.operator_texts(0) for i in a.instances] == \
        [i.operator_texts(0) for i in b.instances]


def test_search_mermin_finds_ghz(mermin):
    res = search_parity_contradictions(mermin, 4)
    assert len(res.instances) == 1
    assert res.instances[0].operator_texts(0) == \
        ["+1 XXX", "-1 XYY", "-1 YXY", "-1 YYX"]


def test_search_tiny_bounds(five, steane):
    # no contradiction can use fewer than two elements
    empty = search_parity_contradictions(five, 2)
    assert empty.instances == [] and empty.complete_to_size == 2
    tiny = search_parity_contradictions(steane, 1)
    assert tiny.instances == [] and tiny.complete_to_size == 1
    for bad in (0, -3):
        with pytest.raises(ValueError, match="at least 1"):
            search_parity_contradictions(steane, bad)


def test_check_rejects_empty_instance(five):
    with pytest.raises(ValueError):
        check_parity_contradiction(ParityInstance(five, ()), 0)


def test_search_steane_finds_small_subsets(steane):
    res = search_parity_contradictions(steane, 10)
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


def _signed_members(inst, which_state) -> frozenset:
    """inst's members as (operator, sign on codeword which_state) pairs."""
    return frozenset((e.op, e.sign(which_state)) for e in inst.members)


def _size4_instances(res, which_state) -> set[frozenset]:
    return {_signed_members(inst, which_state) for inst in res.instances
            if len(inst.members) == 4}


def test_steane_size4_matches_pair_bucket_oracle(steane):
    group = steane.group()
    res = search_parity_contradictions(steane, 10)
    for ws in (0, 1):
        even, expected = _size4_contradictions(group, ws)
        assert len(even) == 4557
        assert len(expected) == 2016
        assert _size4_instances(res, ws) == expected


def test_five_qubit_size4_matches_pair_bucket_oracle(five, five_group):
    res = search_parity_contradictions(five, 6)
    for ws in (0, 1):
        _even, expected = _size4_contradictions(five_group, ws)
        assert len(expected) == 60
        assert _size4_instances(res, ws) == expected


def test_check_rejects_codewords_that_contradict_the_group(steane, five,
                                                           monkeypatch):
    # with the codewords swapped, the first element whose sign differs
    # between them is declared with the wrong eigenvalue on codeword 0
    for code in (steane, five):
        swapped = redefine(code)
        monkeypatch.setitem(vars(swapped), "codeword",
                            lambda w, code=code: code.codeword(1 - w))
        first = next(e.op for e in code.group().non_identity()
                     if e.sign0 != e.sign1)
        with pytest.raises(ValueError, match=f"^{first} is not a"):
            check_parity_contradiction(parity_instance(swapped, [first]), 0)
        assert verify_stabilizes(swapped.group(), swapped.codeword(0),
                                 swapped.codeword(1))


def test_eigensigns_are_checked_only_for_the_printed_examples(steane, capsys,
                                                              monkeypatch):
    """The search replays no eigensign.  steane-search confirms each
    printed example (three per codeword) with check_parity_contradiction,
    one eigensign per member and codeword."""
    calls, checking = [], []

    def counting_eigensign(op, state):
        calls.append(bool(checking))
        return eigensign(op, state)

    def tracked_check(inst, which_state):
        checking.append(which_state)
        try:
            return check(inst, which_state)
        finally:
            checking.pop()

    for module in (paradoxes, stabilizer):
        monkeypatch.setattr(module, "eigensign", counting_eigensign)
    check = cli.check_parity_contradiction
    monkeypatch.setattr(cli, "check_parity_contradiction", tracked_check)
    res = search_parity_contradictions(steane, 10)
    assert len(res.instances) == 2016
    assert calls == []

    for state, count in (("both", 3 * 4 * 2), ("0", 3 * 4)):
        calls.clear()
        assert cli.main(["steane-search", "--max", "10", "--state", state,
                         "--format", "json"]) == 0
        capsys.readouterr()
        assert len(calls) == count and all(calls)


@pytest.mark.parametrize("name, max_subset, count",
                         [("steane", 4, 2016), ("five", 6, 812),
                          ("mermin", 7, 2)])
def test_every_search_instance_passes_the_parity_check(name, max_subset,
                                                       count):
    """The search replays no eigensign, so its instances are confirmed
    here, on both codewords, by eigensign and the exact operator product."""
    code = code_by_name(name)
    res = search_parity_contradictions(code, max_subset)
    assert len(res.instances) == count
    for inst in res.instances:
        for ws in (0, 1):
            report = check_parity_contradiction(inst, ws)
            assert report.contradiction
            assert report.operator_product == "-" + "I" * code.n


def test_steane_budget_is_spent_by_whole_tiers(steane):
    # tiers 2..4 cost 127 + 8001 + 333,375 nodes: any budget below their
    # sum stops at size 3, on every call
    messages = set()
    for budget in (100_000, 100_000, 341_502):
        with pytest.raises(BudgetExceededError) as err:
            search_parity_contradictions(steane, 10, node_budget=budget)
        messages.add(str(err.value))
    assert messages == {"parity search exhausted its budget at size 3 "
                        "of 10 with nothing found"}
    res = search_parity_contradictions(steane, 10, node_budget=341_503)
    assert res.complete_to_size == 4 and res.nodes_used == 341_503
    assert [len(inst.members) for inst in res.instances] == [4] * 2016


@pytest.mark.parametrize("name, max_subset",
                         [("steane", 10), ("five", 6), ("mermin", 10)])
def test_search_orders_by_size_then_element_index(name, max_subset):
    """Instances come smallest first, then by the group indices of their
    members; for these phase-0 elements of one length that is also the
    order of the members' texts."""
    code = code_by_name(name)
    index = {e.op: i for i, e in enumerate(code.group().non_identity())}
    res = search_parity_contradictions(code, max_subset)
    by_index = [(len(inst.members), tuple(index[e.op] for e in inst.members))
                for inst in res.instances]
    assert all(list(idxs) == sorted(idxs) for _size, idxs in by_index)
    assert by_index == sorted(set(by_index))
    by_text = [(len(inst.members), [str(e.op) for e in inst.members])
               for inst in res.instances]
    assert by_text == sorted(by_text)


@pytest.mark.parametrize("name, max_subset, count",
                         [("steane", 4, 2016), ("five", 6, 812),
                          ("mermin", 7, 2)])
def test_both_codewords_give_the_same_contradiction_subsets(name, max_subset,
                                                             count):
    """When every symbol occurs an even number of times, the members'
    operator product is +-I, and the product of their eigenvalues on a
    codeword is that scalar on every codeword.  So whether a subset is a
    contradiction does not depend on the codeword: the oracles, run on each
    codeword, find the same operator sets, and every instance of the one
    search has an odd number of -1 signs on both codewords.  The oracle is
    every subset for the three-qubit group, the pair buckets' size-4
    subsets for the others."""
    code = code_by_name(name)
    res = search_parity_contradictions(code, max_subset)
    assert res.complete_to_size == max_subset
    assert len(res.instances) == count
    ops = {frozenset(e.op for e in inst.members) for inst in res.instances}
    oracle = []
    for ws in (0, 1):
        assert all([e.sign(ws) for e in inst.members].count(-1) % 2
                   for inst in res.instances)
        found = (_every_contradiction(code.group(), ws) if name == "mermin"
                 else _size4_contradictions(code.group(), ws)[1])
        oracle.append({frozenset(op for op, _sign in s) for s in found})
    assert oracle[0] == oracle[1]
    assert oracle[0] <= ops


def _every_contradiction(group, which_state) -> set[frozenset]:
    """Every subset of the non-identity elements, by bitmask, that is a
    contradiction on codeword which_state, as (operator, sign) pairs."""
    members = [(e.op, e.sign(which_state)) for e in group.non_identity()]
    expected = set()
    for mask in range(1, 1 << len(members)):
        chosen = [m for k, m in enumerate(members) if mask >> k & 1]
        counts = Counter((k, letter) for op, _sign in chosen
                         for k, letter in enumerate(op.letters)
                         if letter != "I")
        if (all(c % 2 == 0 for c in counts.values())
                and [sign for _op, sign in chosen].count(-1) % 2):
            expected.add(frozenset(chosen))
    return expected


def test_three_qubit_search_matches_every_subset(mermin):
    """All 2^7 subsets of the seven non-identity elements, by bitmask: the
    contradictions of every size are exactly the search's instances."""
    group = mermin.group()
    assert len(group.non_identity()) == 7
    res = search_parity_contradictions(mermin, 7)
    assert res.complete_to_size == 7
    for ws in (0, 1):
        expected = _every_contradiction(group, ws)
        assert {_signed_members(inst, ws) for inst in res.instances} == expected
        assert len(res.instances) == len(expected) == 2


def test_contradiction_subsets_requires_distinct_vectors():
    assert paradoxes._contradiction_subsets([0b011, 0b101, 0b111], 3) == [(0, 1, 2)]
    with pytest.raises(ValueError):
        paradoxes._contradiction_subsets([0b011, 0b101, 0b011], 3)


def test_contradiction_subsets_match_every_subset():
    """Seeded random lists of up to 12 distinct vectors below 256, so that
    pair XORs collide in the last-pair table and its early break runs on
    mixed lists: the walk finds each subset of size 2..max_size that XORs
    to the sign bit, once."""
    rng = random.Random(11)
    for _trial in range(300):
        vecs = rng.sample(range(256), rng.randint(0, 12))
        max_size = rng.randint(0, len(vecs) + 1)
        expected = [idxs for size in range(2, max_size + 1)
                    for idxs in combinations(range(len(vecs)), size)
                    if reduce(xor, (vecs[i] for i in idxs)) == paradoxes._ODD_SIGNS]
        got = paradoxes._contradiction_subsets(vecs, max_size)
        assert sorted(got) == sorted(expected)


def _last_element_subsets(vecs, max_size):
    """Reference walk: each subset found by one lookup of its last member,
    at the end of a depth-first walk over its smaller members."""
    last = {v ^ paradoxes._ODD_SIGNS: i for i, v in enumerate(vecs)}
    found = []

    def extend(prefix, r):
        for i in range(prefix[-1] + 1 if prefix else 0, len(vecs)):
            ri = r ^ vecs[i]
            if last.get(ri, -1) > i:
                found.append(prefix + (i, last[ri]))
            if len(prefix) + 2 < max_size:
                extend(prefix + (i,), ri)

    if max_size >= 2:
        extend((), 0)
    return found


@pytest.mark.parametrize("name, max_size",
                         [("steane", 4), ("five", 3), ("five", 6), ("five", 7),
                          ("mermin", 8)])
def test_contradiction_subsets_match_the_last_element_walk(name, max_size):
    code = code_by_name(name)
    for ws in (0, 1):
        vecs = [paradoxes._parity_vector(e.op, e.sign(ws))
                for e in code.group().non_identity()]
        got = paradoxes._contradiction_subsets(vecs, max_size)
        assert sorted(got) == sorted(_last_element_subsets(vecs, max_size))


# _contradiction_subsets(vecs, 6) on the five-qubit code's codeword-0
# vectors, in the order the walk returns them, each subset its indices as
# base-32 digits; taken from the walk when it made one call per prefix.
FIVE_MAX6_WALK_ORDER = """
01fi 0189 0124ns 0126nu 013ij 0134gi 0159e 015679 017bij 018atu 018bqs
018dhl 019cos 019ent 019egm 01acfk 01aenu 01bcoq 01fhrs 01fmqu 01hjns
01ijnr 01ilou 01lmoq 024ps 026pu 027cqr 027dqu 027dim 027epu 0289no
028chj 029bgk 029cns 029eot 02aeou 02aefl 02bcnq 02fino 02gjps 02gkqs
02glqt 02hjos 02ijor 02ilnu 02lmnq 0346gl 036jl 0379hk 037dst 037dkl
037ejl 0389pr 038cfg 039agk 039cgi 03acnq 03beou 03befl 03cefm 03fgos
03fhps 03fipr 03gktu 03glsu 03ijnp 03iknq 03kmnu 04os 048c 045ce 04567c
047aps 048aik 048blm 048dru 049afk 049boq 049cfi 04begl 04cent 04cegm
04fktu 04flsu 04ghps 04gipr 04hior 04klot 0578ou 0578fl 0579il 057csu
057drs 057dhi 0589pt 058apu 058bjl 058cjm 059dnq 059enp 05adgi 05bdns
05cdgk 05cegj 05fipt 05gkru 05hlnq 05jmos 06ou 06fl 0679pt 067apu 067bjl
067cjm 0689il 068csu 068drs 068dhi 069aot 069dfh 06bcfm 06cdor 06fkst
06ghpu 06imoq 06jlnr 07eou 07efl 089np 08cgj 09bhk 09dqt 09ept 0acqr
0adqu 0adim 0aepu 0bdst 0bdkl 0bejl 0cdkm 0cejm 0finp 0gjos 0hjps 0hkqs
0hlqt 0ijpr 0ikqr 0kmru 12lm 12bc 1237c 1236ce 1245jl 125gl 127cnr
127cfj 127dnu 1289oq 128bos 128egl 129cqs 129dhm 12abik 12bdru 12fioq
12fmou 12gkns 12glnt 12ilqu 12kmst 13ik 13ac 1345pu 1356ps 1378ps 137cop
137cgh 1389fk 138aos 139ctu 139drt 13ablm 13adru 13deij 13hkrs 13hlrt
13ijpq 13ilst 13jmpu 13kmqu 1479or 147cfh 1489gk 148cnq 149apr 149bno
149djm 149ekm 14acfg 14bchj 14cdpt 14ceqt 14fgik 14hjlm 14noqs 14prtu
15hl 159d 157agl 158dfi 159cru 159epq 159ejk 15acrt 15adtu 15bchm 15bdqs
15beps 15fgpu 15fhou 15glop 15hkst 15ikrt 15ilrs 1678hl 16789d 167dfi
168agl 16abce 16aelm 16bdij 16beik 16flnq 16giot 16hipt 16imno 16jlqr
16klpr 16noqu 16prst 17alm 17abc 17bik 189pq 189jk 189de 18bps 18ehl
19dnt 19dgm 1acnr 1acfj 1adnu 1bcop 1bcgh 1defi 1fipq 1fijk 1fmpu 1ghlm
1hkns 1hlnt 1iknr 1lmop 23479 23469e 2379gj 237cnp 238ans 238bgi 239ahj
239bfg 239esu 23acno 23adjl 23aest 23aekl 23bcpr 23bdpu 23bequ 23beim
23ceil 23fgqs 23hjtu 23ikno 23lmpr 24qs 249b 2456ij 2478ij 2479nr 2479fj
248bfi 248coq 249clm 24abtu 24bdhl 24cdhm 24deps 24hiqr 24hmru 24imsu
24jkps 24jlpt 24klqt 256gi 2578qu 2578im 2579fm 257egi 259bjm 259cjl
259dno 25aers 25aehi 25bcpt 25cdhj 25cehk 25fhnu 25glnp 25hjru 25hlno
25ijsu 25jmqs 25kmps 25lmpt 26qu 26im 2689fm 268egi 269aqt 269bsu 269efg
26abst 26abkl 26ackm 26bcil 26cdqr 26cepr 26depu 26floq 26gint 26hmrs
26jkpu 278gi 279fg 27cpr 27dpu 27equ 27eim 28ars 28ahi 28chk 29afh 29bgj
29dot 2acor 2adou 2adfl 2bcnp 2fhtu 2gjqs 2gkps 2glpt 2hkos 2hlot 2ikor
2lmnp 34tu 349a 345nu 3479op 3479gh 347dgl 348afi 348cfk 348enu 349cik
34abqs 34adhl 34cdrt 34fkos 34flot 34ginq 34gmnu 34imqt 34klsu 356ns
3578st 3578kl 357cot 357ens 359ajm 359cpu 359dpr 359eqr 35acpt 35bers
35behi 35cdfg 35fgru 35gjnu 35glor 35hlpr 35ijqt 35ikpt 35ilps 35jmtu
36st 36kl 368cot 368ens 369asu 369bqt 369dhk 369ehj 36abqu 36abim 36acil
36bckm 36ceno 36dejl 36fkou 36gmns 36hirt 36jlpq 378ns 379hj 37cno 37djl
37est 37ekl 389qr 38brs 38bhi 39agj 39bfh 3acnp 3bcor 3bdou 3bdfl 3cdfm
3fhqs 3fiqr 3fmru 3gjtu 3ijnq 3iknp 3jmnu 3lmor 45ru 45cd 457bnu 458dos
459art 459bhm 459chl 45adik 45aeij 45bdlm 45cepq 45cejk 45fjnu 45flor
45hisu 45hmqs 45imqr 45jlno 4678ru 4678cd 467dos 468bnu 469abe 46adps
46aeqs 46betu 46fgst 46fgkl 46fmns 46gkou 46hijm 46hjqu 46hkpu 46jmrs
479ab 47aqs 47btu 48aij 48cpq 48cjk 48cde 48eru 49anr 49afj 49bop 49bgh
4bdgl 4cdnt 4cdgm 4deos 4fjtu 4ghqs 4giqr 4gmru 4jkos 4jlot 4nrtu 4opqs
56rs 56hi 5679nq 567agi 567bns 567cgk 5689fh 568cor 568dou 568dfl 569bqr
569dil 56achk 56cdsu 56fjns 56giop 56hmqu 56klrt 57ers 57ehi 589qt 58aqu
58aim 58bst 58bkl 58ckm 59afm 59dnp 59enq 5aegi 5bcot 5bens 5cdgj 5cegk
5fgnu 5fiqt 5fmtu 5gjru 5glno 5hlnp 5kmos 5lmot 679qt 67aqu 67aim 67bst
67bkl 67ckm 68ers 68ehi 69efh 6ceor 6deou 6defl 6fjst 6fjkl 6flpq 6ghqu
6ghim 6gmrs 6hint 6imop 6jkou 6klnr 6nrst 6opqu 78rs 78hi 789bqr 789dil
78achk 78cdsu 78fjns 78giop 78hmqu 78klrt 79fh 79abgj 79adot 79fgop
79firs 79glpu 79hjnr 79hlou 79ijns 7abcnp 7afhtu 7agjqs 7agkps 7aglpt
7ahkos 7ahlot 7aikor 7almnp 7bcdfm 7bfhqs 7bfiqr 7bfmru 7bgjtu 7bijnq
7biknp 7bjmnu 7blmor 7cor 7cfjno 7cflru 7cghpr 7cgips 7chios 7cjlnu 7dou
7dfl 7dfkst 7dghpu 7dimoq 7djlnr 7efjst 7efjkl 7eflpq 7eghqu 7eghim
7egmrs 7ehint 7eimop 7ejkou 7eklnr 7enrst 7eopqu 89nq 89aefm 89denp
89fjqr 89fkpr 89gitu 89gmqt 89imnu 89jknp 8agi 8aghrs 8agmqu 8ahiop
8aimnt 8anqtu 8aoprs 8bns 8bceot 8bfhij 8bfjrs 8bgklm 8bgmst 8bhinr
8bklnt 8cgk 8cdegj 8cgjpq 8cglst 8chjoq 8chkop 8ckmnt 8clmns 8dfipt
8dgkru 8dhlnq 8djmos 8efgnu 8efiqt 8efmtu 8egjru 8eglno 8ehlnp 8ekmos
8elmot 9afg 9abesu 9afhop 9afmnt 9agjnr 9aglou 9ahlpu 9ajmrt 9bhj 9bdehk
9bfhnr 9bfins 9bgjop 9bgkoq 9bhkpq 9bijrs 9cfgik 9chjlm 9cnoqs 9cprtu
9dpt 9dghot 9dgmnp 9dhmno 9djkqt 9djlqs 9dklps 9eqt 9eginu 9egmnq 9eimtu
9ejkpt 9ejlps 9eklqs abceil abfgqs abhjtu abikno ablmpr acpr acdeqr
acfjnp acfknq acghor acgios achips acjkqr adpu adfghl adflop adghou
adijkm adimpq adjkqu aequ aeim aefloq aegint aehmrs aejkpu bcno bcfjor
bcflnu bcghnp bcgmot bchmpt bcjlru bdjl bdfjou bdflnr bdjkst bdklpq
bdnoru bdpqst best bekl befkou begmns behirt bejlpq cdjm cdfgrt cdfmnr
cdgjnt cdijqu cdikpu cdkmpq cekm cegknt ceglns ceijpu ceikqu cejmpq
celmst definp degjos dehjps dehkqs dehlqt deijpr deikqr dekmru fgtu
fgimqt fgklsu fhnqrs fhoptu finq fijknp fjlmor fmnu ghikor ghlmnp gjnrtu
gjopqs gkos glot hijmsu hjqs hjklqt hkps hlpt ijqr ikpr ilnoqu ilprst
jmru kmnost kmpqru lmno
""".split()


def test_contradiction_subsets_keep_their_walk_order():
    """The walk returns its subsets in depth-first order: the pairs, then
    each prefix's subsets before its children's."""
    vecs = [paradoxes._parity_vector(e.op, e.sign0)
            for e in code_by_name("five").group().non_identity()]
    digits = "0123456789abcdefghijklmnopqrstuv"
    got = paradoxes._contradiction_subsets(vecs, 6)
    assert ["".join(digits[i] for i in idxs) for idxs in got] == \
        FIVE_MAX6_WALK_ORDER


def _even_completion(n, ops):
    """Up to three operators that make every (site, letter) count of ops
    even, with the odd letters of each site spread across them."""
    odd = [sorted(letter for letter in "XYZ"
                  if sum(op.letters[k] == letter for op in ops) % 2)
           for k in range(n)]
    return [from_letters(site[j] if j < len(site) else "I" for site in odd)
            for j in range(3)]


def test_parity_vector_xor_matches_letter_counts():
    """Random phase-0 Pauli lists with Y letters, n <= 7, half of them made
    even: the XOR reads _ODD_SIGNS exactly when every letter count is even
    and an odd number of signs are -1, and its symbol part is 0 exactly when
    every count is even."""
    rng = random.Random(7)
    seen = Counter()
    for _trial in range(2000):
        n = rng.randint(1, 7)
        ops = [from_letters(rng.choice("IXYZ") for _ in range(n))
               for _ in range(rng.randint(1, 6))]
        if rng.random() < 0.5:
            ops += _even_completion(n, ops)
            rng.shuffle(ops)
        members = [(op, rng.choice((+1, -1))) for op in ops]
        counts = Counter((k, letter) for op, _sign in members
                         for k, letter in enumerate(op.letters) if letter != "I")
        all_even = all(c % 2 == 0 for c in counts.values())
        odd_signs = [sign for _op, sign in members].count(-1) % 2 == 1
        got = reduce(xor, (paradoxes._parity_vector(op, sign)
                           for op, sign in members))
        assert (got == paradoxes._ODD_SIGNS) == (all_even and odd_signs)
        assert (got & ~paradoxes._ODD_SIGNS == 0) == all_even
        seen[all_even, odd_signs] += 1
    assert min(seen.values()) > 100 and len(seen) == 4
