import pytest

from codeword_paradoxes import stabilizer
from codeword_paradoxes.codes import CODE_NAMES, code_by_name, single_qubit_errors
from codeword_paradoxes.errors import (NonCommutingGeneratorsError,
                                       NonHermitianError, SignConflictError)
from codeword_paradoxes.pauli import parse, single_site
from codeword_paradoxes.stabilizer import (StabilizerElement, StabilizerGroup,
                                           close, invariant_subgroup,
                                           knill_laflamme_check,
                                           verify_stabilizes)
from codeword_paradoxes.statevector import apply, eigensign, inner


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
    with pytest.raises(NonHermitianError,
                       match="^stabilizer elements store the bare operator; got -ZZ$"):
        StabilizerElement(parse("-ZZ"), +1, +1)
    for signs in ((0, +1), (+1, 2), (-2, -1)):
        with pytest.raises(ValueError, match=r"^signs must be \+1 or -1$"):
            StabilizerElement(parse("ZZ"), *signs)


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


def test_knill_laflamme_five_qubit(five):
    report = knill_laflamme_check(five.codeword(0), five.codeword(1),
                                  single_qubit_errors(5))
    assert report.ok
    assert report.pairs_checked == 256


def test_knill_laflamme_mermin_bit_flips_only(mermin):
    ok = knill_laflamme_check(mermin.codeword(0), mermin.codeword(1),
                              mermin.correctable)
    assert ok.ok and ok.pairs_checked == 16
    with_phase = knill_laflamme_check(mermin.codeword(0), mermin.codeword(1),
                                      list(mermin.correctable)
                                      + [single_site(3, 1, "Z")])
    assert not with_phase.ok
    failing_pairs = {tuple(f["pair"]) for f in with_phase.failures}
    assert ("III", "ZII") in failing_pairs


def _failure(pair, off, d0, d1):
    return {"pair": pair, "off_diagonal": off, "diag0": d0, "diag1": d1}


def test_knill_laflamme_failure_texts_are_literals(mermin, five):
    """The failure records as fixed text: the per-pair reference below goes
    through the same inner and apply, so it would follow a format change."""
    probe = knill_laflamme_check(mermin.codeword(0), mermin.codeword(1),
                                 list(mermin.correctable)
                                 + [single_site(3, 1, "Z")])
    assert probe.pairs_checked == 25
    assert probe.failures == [_failure(("III", "ZII"), "2", "0", "0"),
                              _failure(("ZII", "III"), "2", "0", "0")]
    logical = knill_laflamme_check(five.codeword(0), five.codeword(1),
                                   [parse(t) for t in ("IIIII", "XXXXX", "YYYYY")])
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
    report = knill_laflamme_check(steane.codeword(0), steane.codeword(1),
                                  single_qubit_errors(7))
    assert report.ok
    assert report.pairs_checked == 484


def _knill_laflamme_per_pair(v0, v1, errors):
    """Reference: each term as <v|(Ea·Eb) w>, three applies per pair."""
    pairs, failures = 0, []
    for ea in errors:
        for eb in errors:
            m = ea * eb
            off = inner(v0, apply(m, v1))
            d0 = inner(v0, apply(m, v0))
            d1 = inner(v1, apply(m, v1))
            pairs += 1
            if off != (0, 0) or d0 != d1:
                failures.append({"pair": (str(ea), str(eb)),
                                 "off_diagonal": _rule_text(*off),
                                 "diag0": _rule_text(*d0),
                                 "diag1": _rule_text(*d1)})
    return pairs, failures


def _rule_text(a, b):
    """The text form as a literal rule: 0, a, b i, a + b i or a - |b| i."""
    if a == 0 and b == 0:
        return "0"
    if b == 0:
        return f"{a}"
    if a == 0:
        return f"{b} i"
    if b > 0:
        return f"{a} + {b} i"
    return f"{a} - {-b} i"


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
            assert stabilizer._gaussian_text((a, b)) == _rule_text(a, b), (a, b)


def _kl_error_lists():
    for name in CODE_NAMES:
        code = code_by_name(name)
        yield code, list(code.correctable)
        for err in code.must_fail:
            yield code, list(code.correctable) + [err]
    # phases 1, 2 and 3 exercise the adjoint on the left; the logical
    # XXXXX and YYYYY fail KL, <0|YYYYY|1> and <1|YYYYY|0> differ
    code = code_by_name("five")
    yield code, [parse(t) for t in ("IIIII", "iXIIII", "-ZIIII", "-iYIIII",
                                    "iIZIII", "XXXXX", "-iXXXXX", "YYYYY")]


def test_knill_laflamme_matches_per_pair_products():
    failing = 0
    for code, errors in _kl_error_lists():
        report = knill_laflamme_check(code.codeword(0), code.codeword(1), errors)
        assert (report.pairs_checked, report.failures) == \
            _knill_laflamme_per_pair(code.codeword(0), code.codeword(1), errors)
        failing += not report.ok
    assert failing == 2   # the mermin Z probe and the phased list


@pytest.mark.parametrize("name, applies", [("five", 64), ("steane", 88),
                                           ("mermin", 16)])
def test_knill_laflamme_applies_each_error_once_per_side(monkeypatch, name,
                                                         applies):
    calls = []

    def counting_apply(p, v):
        calls.append(p)
        return apply(p, v)

    monkeypatch.setattr(stabilizer, "apply", counting_apply)
    code = code_by_name(name)
    knill_laflamme_check(code.codeword(0), code.codeword(1), code.correctable)
    assert len(calls) == applies == 4 * len(code.correctable)


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
