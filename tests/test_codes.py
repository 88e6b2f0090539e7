
import pytest

from codeword_paradoxes.codes import (code_by_name, five_qubit_code,
                                      mermin_code, steane_code)
from codeword_paradoxes.paradoxes import compatible_pairs, find_determinations
from codeword_paradoxes.pauli import parse
from codeword_paradoxes.statevector import StateVector, eigensign, inner
from conftest import redefine


def test_five_qubit_amplitudes(five_listing):
    # the listing is 4 times the paper's: ±1 where the paper has ±1/4
    amps = five_listing[0].support
    assert amps[0b10010] == (1, 0)
    assert amps[0b11000] == (-1, 0)
    assert amps[0b00000] == (-1, 0)
    assert len(amps) == 16
    assert set(amps.values()) == {(1, 0), (-1, 0)}


def test_five_qubit_codeword1_is_bit_complement(five):
    # the derived words are -4 and 4 times the paper's, hence the minus sign
    complement = StateVector(5, {j ^ 0b11111: a
                                 for j, a in five.codeword(0).support.items()})
    assert five.codeword(1) == -complement


def test_five_qubit_codewords_cyclically_invariant(five):
    for word in (five.codeword(0), five.codeword(1)):
        # ket j moves to the rotation of its bits one site to the left
        shifted = {((j << 1) | (j >> 4)) & 0b11111: a
                   for j, a in word.support.items()}
        assert StateVector(5, shifted) == word


def test_codeword_norms(five_listing, five, mermin, steane):
    assert inner(five_listing[0], five_listing[0]) == (16, 0)   # 4 x unit
    assert inner(mermin.codeword(0), mermin.codeword(0)) == (mermin.norm2, 0)
    assert inner(steane.codeword(0), steane.codeword(0)) == (steane.norm2, 0)
    assert (five.norm2, mermin.norm2, steane.norm2) == (16, 2, 8)
    for code in (five, mermin, steane):
        assert inner(code.codeword(1), code.codeword(1)) == (code.norm2, 0)
        assert inner(code.codeword(0), code.codeword(1)) == (0, 0)


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
    support0 = set(steane.codeword(0).support)
    support1 = set(steane.codeword(1).support)
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
    two = redefine(five, generators=five.generators[:2])
    assert len(two.group()) == 4
    assert {e.op for e in two.generators} <= {e.op for e in two.group()}
    custom = redefine(five, name="custom")
    assert [str(e) for e in custom.group()] == [str(e) for e in five.group()]
    assert five.group() is five.group()


def test_a_copy_derives_its_own_group_and_codewords(five):
    five.codeword(0)
    copy = redefine(five)
    assert "_group" not in vars(copy) and "_codewords" not in vars(copy)
    assert copy.group() is not five.group()
    assert [str(e) for e in copy.group()] == [str(e) for e in five.group()]
    assert copy.codeword(1) == five.codeword(1)
    assert [copy.name, copy.n, copy.correctable] == [five.name, five.n,
                                                     five.correctable]
    with pytest.raises(TypeError):
        redefine(five, codeword0=None)


def test_codeword_needs_a_full_group(five):
    # four elements on five qubits fix an 8-dimensional space, not one vector
    two = redefine(five, generators=five.generators[:2])
    for which_state in (0, 1):
        with pytest.raises(ValueError, match="fix a space of dimension 8 "):
            two.codeword(which_state)
    with pytest.raises(ValueError, match="which_state must be 0 or 1"):
        two.codeword(2)


@pytest.mark.parametrize("name, factors", [("five", (-1, 1)),
                                           ("mermin", (1, 1)),
                                           ("steane", (1, 1))])
def test_derived_codewords_are_the_paper_listings(paper_codewords, name,
                                                 factors):
    code = code_by_name(name)
    for which_state, factor in enumerate(factors):
        listing = paper_codewords[name][which_state]
        scaled = StateVector(code.n, {j: (factor * re, factor * im)
                                      for j, (re, im) in listing.support.items()})
        assert code.codeword(which_state) == scaled
