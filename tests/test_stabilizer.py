import collections
import itertools

import pytest

from codeword_paradoxes import stabilizer
from codeword_paradoxes.codes import CODE_NAMES, code_by_name, single_qubit_errors
from codeword_paradoxes.errors import (DimensionMismatchError,
                                       NonCommutingGeneratorsError,
                                       NonHermitianError, SignConflictError)
from codeword_paradoxes.pauli import from_letters, parse, single_site
from codeword_paradoxes.stabilizer import (StabilizerElement, StabilizerGroup,
                                           close, invariant_subgroup,
                                           knill_laflamme_check,
                                           verify_stabilizes)
from codeword_paradoxes.statevector import apply, eigensign, inner
from conftest import (coinciding, gaussian_rule_text,
                      knill_laflamme_by_state_vectors)


def _expected_five_qubit_listing():
    """The reference table: identity, the signed all-Z string, and six base
    operators with their cyclic shifts.  Signs are (on codeword 0, on
    codeword 1)."""
    base = {
        "XZIZX": (+1, +1),
        "YXIXY": (+1, +1),
        "ZYIYZ": (+1, +1),
        "IXZXI": (-1, +1),
        "YIZIY": (-1, +1),
        "XYZYX": (+1, -1),
    }
    table = {parse("IIIII"): (+1, +1), parse("ZZZZZ"): (+1, -1)}
    for text, signs in base.items():
        op = parse(text)
        for k in range(5):
            table[op.shift(k)] = signs
    return table


def test_five_qubit_closure_reproduces_reference_table(five, five_group):
    expected = _expected_five_qubit_listing()
    assert len(expected) == 32
    assert len(five_group) == 32
    for e in five_group:
        assert e.op in expected, str(e.op)
        assert (e.sign0, e.sign1) == expected[e.op], str(e.op)


def test_four_shifts_generate_the_positive_half():
    gens = [StabilizerElement(parse("XZIZX").shift(k), +1, +1) for k in range(4)]
    half = close(gens)
    assert len(half) == 16
    assert all(e.sign_stable for e in half)


def test_singleton_closure():
    g = close([StabilizerElement(parse("IIIII"), +1, +1)])
    assert len(g) == 1


def test_close_rejects_anticommuting_generators():
    with pytest.raises(NonCommutingGeneratorsError):
        close([StabilizerElement(parse("XI"), +1, +1),
               StabilizerElement(parse("ZI"), +1, +1)])


def test_close_detects_sign_conflicts():
    with pytest.raises(SignConflictError):
        close([StabilizerElement(parse("ZZ"), +1, +1),
               StabilizerElement(parse("ZZ"), -1, +1)])


def test_close_detects_sign_conflicts_only_a_product_reveals():
    # ZIZ = ZZI · IZZ, so the third generator must carry signs (+1, +1)
    gens = [StabilizerElement(parse("ZZI"), +1, +1),
            StabilizerElement(parse("IZZ"), +1, +1)]
    with pytest.raises(SignConflictError):
        close(gens + [StabilizerElement(parse("ZIZ"), -1, +1)])
    redundant = close(gens + [StabilizerElement(parse("ZIZ"), +1, +1)])
    assert {str(e) for e in redundant} == \
        {"+1 +1 III", "+1 +1 ZZI", "+1 +1 IZZ", "+1 +1 ZIZ"}



def test_element_sign_takes_only_codeword_0_or_1():
    e = StabilizerElement(parse("ZZ"), +1, -1)
    assert (e.sign(0), e.sign(1)) == (+1, -1)
    for which_state in (-1, 2, 5):
        with pytest.raises(ValueError, match="which_state must be 0 or 1"):
            e.sign(which_state)


def test_element_refuses_a_phase_and_signs_other_than_plus_minus_one():
    # close() is where elements enter a group, so it checks their fields
    zz = StabilizerElement(parse("ZZ"), +1, +1)
    with pytest.raises(NonHermitianError,
                       match="^stabilizer elements store the bare operator; got -ZZ$"):
        close([zz, StabilizerElement(parse("-ZZ"), +1, +1)])
    for signs in ((0, +1), (+1, 2), (-2, -1)):
        with pytest.raises(ValueError, match=r"^signs must be \+1 or -1$"):
            close([StabilizerElement(parse("ZZ"), *signs)])


def test_elements_are_values(five_group):
    found = five_group.find(parse("XZIZX"))
    built = StabilizerElement(parse("XZIZX"), found.sign0, found.sign1)
    assert built == found and hash(built) == hash(found)
    assert len({built, found}) == 1
    assert built != StabilizerElement(parse("XZIZX"), -found.sign0, found.sign1)
    assert repr(built) == "StabilizerElement(op=PauliString('XZIZX'), sign0=1, sign1=1)"


@pytest.mark.parametrize("name", ["five", "mermin", "steane"])
def test_closed_groups_are_closed_with_multiplicative_signs(name):
    group = code_by_name(name).group()
    for a in group:
        for b in group:
            prod = a.op * b.op
            assert prod.phase_exp in (0, 2)
            flip = -1 if prod.phase_exp == 2 else +1
            c = group.find(prod)
            assert c is not None, (str(a.op), str(b.op))
            assert (c.sign0, c.sign1) == (a.sign0 * b.sign0 * flip,
                                          a.sign1 * b.sign1 * flip)


def test_verify_stabilizes_all_pass(five, five_group, monkeypatch):
    calls = []

    def counting_eigensign(op, state):
        calls.append(op)
        return eigensign(op, state)

    monkeypatch.setattr(stabilizer, "eigensign", counting_eigensign)
    assert verify_stabilizes(five_group, five.codeword(0), five.codeword(1)) == []
    assert len(calls) == 2 * 32


def test_verify_stabilizes_reports_violations(five):
    # claiming +1 on codeword 1 for the all-Z operator is wrong
    bogus = StabilizerGroup(5, [StabilizerElement(parse("ZZZZZ"), +1, +1)])
    violations = verify_stabilizes(bogus, five.codeword(0), five.codeword(1))
    assert violations == [{"op": "ZZZZZ", "expected": (+1, +1),
                           "observed": (+1, -1)}]


def test_verify_identity_only_group(five):
    trivial = StabilizerGroup(5, [StabilizerElement(parse("IIIII"), +1, +1)])
    assert verify_stabilizes(trivial, five.codeword(0), five.codeword(1)) == []


def test_invariant_subgroup_five(five_group):
    stable = invariant_subgroup(five_group)
    assert len(stable) == 16
    ops = {str(e.op) for e in stable}
    assert "IIIII" in ops
    for text in ("XZIZX", "YXIXY", "ZYIYZ"):
        for k in range(5):
            assert str(parse(text).shift(k)) in ops
    assert "ZZZZZ" not in ops


def test_invariant_subgroup_mermin(mermin):
    stable = invariant_subgroup(mermin.group())
    assert {str(e.op) for e in stable} == {"III", "ZZI", "ZIZ", "IZZ"}


def test_invariant_subgroup_trivial_when_all_stable():
    g = close([StabilizerElement(parse("ZZ"), +1, +1)])
    assert len(invariant_subgroup(g)) == len(g)


def _hand_built(n, *elements):
    """A StabilizerGroup taken as given: no closure, no sign check."""
    return StabilizerGroup(n, [StabilizerElement(parse(text), s0, s1)
                               for text, s0, s1 in elements])


def test_invariant_subgroup_refuses_signs_that_imply_minus_identity():
    # ZIIII · IZIII = ZZIII at (+1, +1), not the listed (-1, -1)
    group = _hand_built(5, ("IIIII", +1, +1), ("ZIIII", +1, +1),
                        ("IZIII", +1, +1), ("ZZIII", -1, -1))
    with pytest.raises(SignConflictError, match="ZZIII"):
        invariant_subgroup(group)


def test_invariant_subgroup_refuses_anticommuting_elements():
    group = _hand_built(1, ("I", +1, +1), ("X", +1, +1), ("Y", +1, +1),
                        ("Z", +1, +1))
    with pytest.raises(NonCommutingGeneratorsError):
        invariant_subgroup(group)


@pytest.mark.parametrize("elements", [
    # not closed: ZIIII · IZIII = ZZIII is missing
    [("IIIII", +1, +1), ("ZIIII", +1, +1), ("IZIII", +1, +1)],
    # only the identity is sign-stable: index 4
    [("IIIII", +1, +1), ("ZIIII", +1, -1), ("IZIII", +1, -1),
     ("ZZIII", -1, +1)],
])
def test_invariant_subgroup_refuses_open_or_small_stable_sets(elements):
    with pytest.raises(SignConflictError):
        invariant_subgroup(_hand_built(5, *elements))


def _kl(code, errors):
    """knill_laflamme_check on code's codewords, given their sign-stable
    subgroup as the command does."""
    return knill_laflamme_check(code.codeword(0), code.codeword(1), errors,
                                invariant_subgroup(code.group()))


def test_knill_laflamme_five_qubit(five):
    report = _kl(five, single_qubit_errors(5))
    assert report.ok
    assert report.pairs_checked == 256


def test_knill_laflamme_mermin_bit_flips_only(mermin):
    ok = _kl(mermin, mermin.correctable)
    assert ok.ok and ok.pairs_checked == 16
    with_phase = _kl(mermin, list(mermin.correctable) + [single_site(3, 1, "Z")])
    assert not with_phase.ok
    failing_pairs = {tuple(f["pair"]) for f in with_phase.failures}
    assert ("III", "ZII") in failing_pairs


def _failure(pair, off, d0, d1):
    return {"pair": pair, "off_diagonal": off, "diag0": d0, "diag1": d1}


def test_knill_laflamme_failure_texts_are_literals(mermin, five):
    """The failure records as fixed text.  The state-vector oracle writes
    its texts by the literal gaussian_rule_text, so it would fail a format
    change too; these literals also pin which pairs fail, in what order."""
    probe = _kl(mermin, list(mermin.correctable) + [single_site(3, 1, "Z")])
    assert probe.pairs_checked == 25
    assert probe.failures == [_failure(("III", "ZII"), "2", "0", "0"),
                              _failure(("ZII", "III"), "2", "0", "0")]
    logical = _kl(five, [parse(t) for t in ("IIIII", "XXXXX", "YYYYY")])
    assert logical.pairs_checked == 9
    assert logical.failures == [
        _failure(("IIIII", "XXXXX"), "-16", "0", "0"),
        _failure(("IIIII", "YYYYY"), "16 i", "0", "0"),
        _failure(("XXXXX", "IIIII"), "-16", "0", "0"),
        _failure(("XXXXX", "YYYYY"), "0", "16 i", "-16 i"),
        _failure(("YYYYY", "IIIII"), "16 i", "0", "0"),
        _failure(("YYYYY", "XXXXX"), "0", "-16 i", "16 i"),
    ]


def test_knill_laflamme_steane(steane):
    report = _kl(steane, single_qubit_errors(7))
    assert report.ok
    assert report.pairs_checked == 484


@pytest.mark.parametrize("errors, n", [
    (["XIII"], 4),
    # IIIII and XXXXX would make a failing pair, applied to the codewords
    (["IIIII", "XXXXX", "ZZZZZZ"], 6),
])
def test_knill_laflamme_refuses_other_qubit_counts(monkeypatch, five, errors, n):
    """An error on another qubit count raises before any pair is decided."""
    def no_apply(*args):
        raise AssertionError("a pair was decided")

    monkeypatch.setattr(stabilizer, "apply", no_apply)
    with pytest.raises(DimensionMismatchError,
                       match=f"dimension mismatch: {n} vs 5 qubits"):
        _kl(five, [parse(t) for t in errors])


def test_gaussian_text_forms():
    text = stabilizer._gaussian_text
    assert text((3, 0)) == "3"
    assert text((-16, 0)) == "-16"
    assert text((0, 16)) == "16 i"
    assert text((1, 1)) == "1 + 1 i"
    assert text((1, -1)) == "1 - 1 i"
    assert text((0, 0)) == "0"


def test_gaussian_text_matches_the_rule_on_a_grid():
    for a in range(-3, 4):
        for b in range(-3, 4):
            assert stabilizer._gaussian_text((a, b)) == gaussian_rule_text(a, b), (a, b)


def _kl_error_lists():
    for name in CODE_NAMES:
        for code in (code_by_name(name), coinciding(code_by_name(name))):
            yield code, list(code.correctable)
            for err in code.must_fail:
                yield code, list(code.correctable) + [err]
    # phases 1, 2 and 3 exercise the adjoint on the left; the logical
    # XXXXX and YYYYY fail KL, <0|YYYYY|1> and <1|YYYYY|0> differ
    code = code_by_name("five")
    yield code, [parse(t) for t in ("IIIII", "iXIIII", "-ZIIII", "-iYIIII",
                                    "iIZIII", "XXXXX", "-iXXXXX", "YYYYY")]


def _weight_two(n):
    """Every weight-2 Pauli on n sites, bare, sites and letters in order."""
    out = []
    for a, b in itertools.combinations(range(n), 2):
        for p, q in itertools.product("XYZ", repeat=2):
            letters = ["I"] * n
            letters[a], letters[b] = p, q
            out.append(from_letters(letters))
    return out


def _kl_probe_lists():
    """(code, errors): the lists above, and on every code the correctable
    list plus each weight-2 Pauli."""
    yield from _kl_error_lists()
    for name in CODE_NAMES:
        code = code_by_name(name)
        for err in _weight_two(code.n):
            yield code, list(code.correctable) + [err]


def test_knill_laflamme_rule_matches_state_vector_route():
    """The rule's pairs, their order and their texts equal the state-vector
    oracle's on every probe list; both of the rule's passing branches and
    its failing one are met."""
    verdicts = collections.Counter()
    for code, errors in _kl_probe_lists():
        report = _kl(code, errors)
        assert (report.pairs_checked, report.failures) == \
            knill_laflamme_by_state_vectors(code.codeword(0), code.codeword(1),
                                            errors), (code.name, errors[-1])
        verdicts[code.name, report.ok] += 1
    # five: the phased list fails; the code is perfect, so each weight-2
    # error shares its syndrome with a weight-1 one and every probe fails;
    # mermin: ZZI, ZIZ, IZZ (in the stable subgroup) and each of them times
    # a bit flip on a Z site (YZI, ZYI, ...) pass, 9 of its 27 probes;
    # steane: a weight-2 error fails exactly when its two letters agree,
    # for times a single-site error it is then a weight-3 logical on the
    # line through its sites, 63 of the 189 probes; with coinciding
    # codewords every error pairs with itself into the stable subgroup,
    # whose off-diagonal term is the norm, so every list fails
    assert verdicts == {("five", True): 1, ("five", False): 91,
                        ("mermin", True): 10, ("mermin", False): 19,
                        ("steane", True): 127, ("steane", False): 63,
                        ("five-coinciding", False): 1,
                        ("mermin-coinciding", False): 2,
                        ("steane-coinciding", False): 1}


@pytest.mark.parametrize("name", CODE_NAMES)
def test_passing_knill_laflamme_applies_nothing(monkeypatch, name):
    calls = []

    def counting(fn):
        def counted(*args):
            calls.append(fn.__name__)
            return fn(*args)
        return counted

    monkeypatch.setattr(stabilizer, "apply", counting(apply))
    monkeypatch.setattr(stabilizer, "inner", counting(inner))
    code = code_by_name(name)
    assert _kl(code, code.correctable).ok
    assert calls == []
    # a failing pair is applied to each codeword once, for its three terms
    for err in code.must_fail:
        failing = len(_kl(code, list(code.correctable) + [err]).failures)
        assert failing and collections.Counter(calls) == \
            {"apply": 2 * failing, "inner": 3 * failing}
        calls.clear()


def test_group_serialization_lines(five_group):
    lines = [str(e) for e in five_group]
    assert "+1 +1 IIIII" in lines
    assert "+1 -1 ZZZZZ" in lines
    assert "-1 +1 IXZXI" in lines


def test_find_in_group(five_group):
    elem = five_group.find(parse("ZZZZZ"))
    assert elem is not None and (elem.sign0, elem.sign1) == (+1, -1)
    assert five_group.find(parse("ZIIII")) is None


def test_mermin_group_commutes_like_dense_matrices(mermin):
    from codeword_paradoxes import dense
    ops = [e.op for e in mermin.group()]
    mats = {op: dense.pauli_matrix(op) for op in ops}
    for i, a in enumerate(ops):
        for b in ops[i + 1:]:
            assert a.commutes_with(b)
            assert (dense.mat_mul(mats[a], mats[b])
                    == dense.mat_mul(mats[b], mats[a]))
