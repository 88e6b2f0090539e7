from dataclasses import replace

import pytest

from codeword_paradoxes.codes import (code_by_name, five_qubit_code,
                                      mermin_code, steane_code)
from codeword_paradoxes.dyadic import Dyadic, ONE
from codeword_paradoxes.paradoxes import compatible_pairs, find_determinations
from codeword_paradoxes.pauli import parse
from codeword_paradoxes.statevector import StateVector, eigensign, inner


def test_five_qubit_amplitudes(five_listing):
    quarter = Dyadic(1, 0, 2)
    amps = five_listing[0].amps
    assert amps[0b10010] == quarter
    assert amps[0b11000] == -quarter
    assert amps[0b00000] == -quarter
    assert sum(1 for a in amps if not a.is_zero()) == 16
    assert all(a.is_zero() or a in (quarter, -quarter) for a in amps)


def test_five_qubit_codeword1_is_bit_complement(five):
    # the derived words are -4 and 4 times the paper's, hence the minus sign
    for j in range(32):
        assert five.codeword(1).amps[j] == -five.codeword(0).amps[j ^ 0b11111]


def test_five_qubit_codewords_cyclically_invariant(five):
    for word in (five.codeword(0), five.codeword(1)):
        shifted = [word.amps[((j >> 1) | ((j & 1) << 4))] for j in range(32)]
        assert StateVector(5, shifted) == word


def test_codeword_norms(five_listing, five, mermin, steane):
    assert inner(five_listing[0], five_listing[0]) == ONE
    assert inner(mermin.codeword(0), mermin.codeword(0)) == Dyadic(mermin.norm2)
    assert inner(steane.codeword(0), steane.codeword(0)) == Dyadic(steane.norm2)
    assert (five.norm2, mermin.norm2, steane.norm2) == (16, 2, 8)
    for code in (five, mermin, steane):
        assert inner(code.codeword(1), code.codeword(1)) == Dyadic(code.norm2)
        assert inner(code.codeword(0), code.codeword(1)).is_zero()


def test_mermin_signs(mermin):
    for state in (mermin.codeword(0), mermin.codeword(1)):
        assert eigensign(parse("ZZI"), state) == +1
    assert eigensign(parse("XXX"), mermin.codeword(0)) == +1
    assert eigensign(parse("XXX"), mermin.codeword(1)) == -1
    assert eigensign(parse("XYY"), mermin.codeword(0)) == -1


def test_mermin_group_order(mermin):
    assert len(mermin.group()) == 8


def test_steane_structure(steane):
    group = steane.group()
    assert len(group) == 128
    weights = {e.op.weight for e in group.non_identity()}
    assert weights == {3, 4, 5, 6, 7}
    # generators: three X rows and three Z rows of weight 4, plus all-Z
    xgens = [g for g in steane.generators if set(g.op.letters) <= {"I", "X"}]
    zgens = [g for g in steane.generators
             if set(g.op.letters) <= {"I", "Z"} and g.op.weight == 4]
    assert len(xgens) == 3 and all(g.op.weight == 4 for g in xgens)
    assert len(zgens) == 3


def test_steane_sign_pattern_histogram(steane):
    """Pinned by structure: X/Y/Z-pure stabilizer elements (and identity)
    carry (+,+); mixed X-and-Z stabilizer elements pick up a -1 from the
    per-site Y recombination; the logical-Z coset flips the second sign."""
    counts = {}
    for e in steane.group():
        counts[(e.sign0, e.sign1)] = counts.get((e.sign0, e.sign1), 0) + 1
    assert counts == {(+1, +1): 22, (-1, -1): 42, (+1, -1): 22, (-1, +1): 42}


def test_steane_codeword_support(steane):
    support0 = {j for j, a in enumerate(steane.codeword(0).amps) if not a.is_zero()}
    support1 = {j for j, a in enumerate(steane.codeword(1).amps) if not a.is_zero()}
    assert len(support0) == 8 and len(support1) == 8
    assert not support0 & support1
    assert 0 in support0 and 0b1111111 in support1


def test_reality_census_all_targets(five, five_group):
    """Eight determinations and five compatible pairs for every site/letter."""
    for site in range(1, 6):
        for letter in "XYZ":
            ds = find_determinations(five_group, site, letter)
            assert len(ds) == 8, (site, letter)
            assert len(compatible_pairs(ds)) == 5, (site, letter)
            for d in ds:
                assert site not in d.witness.support()


def test_mermin_reality_example(mermin):
    ds = find_determinations(mermin.group(), 1, "Z")
    witnesses = {str(d.witness) for d in ds}
    assert "IZI" in witnesses   # measure sigma_2z to learn sigma_1z
    assert all(d.predicted_product == +1 for d in ds)


def test_code_by_name():
    assert code_by_name("five") is five_qubit_code()
    assert code_by_name("mermin") is mermin_code()
    assert code_by_name("steane") is steane_code()
    with pytest.raises(ValueError):
        code_by_name("shor")


@pytest.mark.parametrize("which_state", [-1, 2, 5])
def test_codeword_takes_only_0_or_1(five, which_state):
    assert [eigensign(parse("ZZZZZ"), five.codeword(w)) for w in (0, 1)] == [+1, -1]
    assert five.codeword(0) is five.codeword(0)
    with pytest.raises(ValueError, match="which_state must be 0 or 1"):
        five.codeword(which_state)


def test_group_closes_its_own_generators(five):
    # the closure belongs to the definition, not to the name it is filed under
    two = replace(five, generators=five.generators[:2])
    assert len(two.group()) == 4
    assert {e.op for e in two.generators} <= {e.op for e in two.group()}
    custom = replace(five, name="custom")
    assert [str(e) for e in custom.group()] == [str(e) for e in five.group()]
    assert five.group() is five.group()


def test_codeword_needs_a_full_group(five):
    # four elements on five qubits fix an 8-dimensional space, not one vector
    two = replace(five, generators=five.generators[:2])
    for which_state in (0, 1):
        with pytest.raises(ValueError, match="fix a space of dimension 8 "):
            two.codeword(which_state)
    with pytest.raises(ValueError, match="which_state must be 0 or 1"):
        two.codeword(2)


@pytest.mark.parametrize("name, factors", [("five", (-4, 4)),
                                           ("mermin", (1, 1)),
                                           ("steane", (1, 1))])
def test_derived_codewords_are_the_paper_listings(paper_codewords, name,
                                                 factors):
    code = code_by_name(name)
    for which_state, factor in enumerate(factors):
        listing = paper_codewords[name][which_state]
        scaled = StateVector(code.n, (a * Dyadic(factor) for a in listing.amps))
        assert code.codeword(which_state) == scaled
