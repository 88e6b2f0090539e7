import itertools
import random

import pytest

from codeword_paradoxes import dense
from codeword_paradoxes.errors import DimensionMismatchError, PauliFormatError
from codeword_paradoxes.pauli import (LETTERS, PauliString, from_letters,
                                      identity, parse, single_site)
from codeword_paradoxes.selftest import random_pauli

# Reference single-site products: (a, b) -> (c, t) with a·b = i**t · c.
_MUL: dict[tuple[str, str], tuple[str, int]] = {}
for _a in LETTERS:
    _MUL[("I", _a)] = (_a, 0)
    _MUL[(_a, "I")] = (_a, 0)
    _MUL[(_a, _a)] = ("I", 0)
for _a, _b, _c in (("X", "Y", "Z"), ("Y", "Z", "X"), ("Z", "X", "Y")):
    _MUL[(_a, _b)] = (_c, 1)   # e.g. X·Y = iZ
    _MUL[(_b, _a)] = (_c, 3)   # e.g. Y·X = -iZ


def test_letter_table_matches_dense_matrices():
    for a in LETTERS:
        for b in LETTERS:
            c, t = _MUL[(a, b)]
            fast = dense.pauli_matrix(from_letters(c, t))
            slow = dense.mat_mul(dense.pauli_matrix(from_letters(a)),
                                 dense.pauli_matrix(from_letters(b)))
            assert fast == slow, (a, b)


def test_single_qubit_products():
    assert parse("X") * parse("Y") == parse("iZ")
    assert parse("Y") * parse("X") == parse("-iZ")
    assert parse("Z") * parse("X") == parse("iY")
    assert parse("X") * parse("X") == parse("I")


def test_identity_is_two_sided():
    p = parse("XZIZX")
    assert identity(5) * p == p
    assert p * identity(5) == p


def test_five_qubit_product_phase_against_dense_oracle():
    a = parse("XZIZX")
    b = parse("YXIXY")
    prod = a * b
    assert prod.letters == tuple("ZYIYZ")
    assert prod.phase_exp == 0
    oracle = dense.mat_mul(dense.pauli_matrix(a), dense.pauli_matrix(b))
    assert dense.pauli_matrix(prod) == oracle


def _site_by_site_product(a, b):
    """Reference product: fold _MUL over the sites, adding phases."""
    phase = a.phase_exp + b.phase_exp
    letters = []
    for la, lb in zip(a.letters, b.letters):
        c, t = _MUL[(la, lb)]
        letters.append(c)
        phase += t
    return from_letters(letters, phase)


def test_product_matches_site_by_site_letter_table():
    for n in (1, 2):
        strings = [PauliString(n, p, x, z) for p in range(4)
                   for x in range(1 << n) for z in range(1 << n)]
        for a, b in itertools.product(strings, repeat=2):
            assert a * b == _site_by_site_product(a, b), (a, b)
    rng = random.Random(7)
    for _ in range(2000):
        a, b = (PauliString(7, rng.randrange(4), rng.getrandbits(7),
                            rng.getrandbits(7)) for _ in range(2))
        assert a * b == _site_by_site_product(a, b), (a, b)


def test_constructor_masks_its_fields_and_the_string_is_immutable():
    p = PauliString(3, 7, 0b11010, -1)
    assert (p.n, p.phase_exp, p.x, p.z) == (3, 3, 0b010, 0b111)
    assert PauliString(3, -1, 0, 0).phase_exp == 3
    for name in ("n", "phase_exp", "x", "z", "other"):
        with pytest.raises(AttributeError, match="immutable"):
            setattr(p, name, 0)
    assert str(p) == "-iZYZ"


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        parse("XX") * parse("X")
    with pytest.raises(DimensionMismatchError):
        parse("XX").commutes_with(parse("X"))


def test_commutation():
    assert not parse("X").commutes_with(parse("Z"))
    # sigma_2z sigma_3x vs sigma_4x sigma_5z as five-qubit strings
    assert parse("IZXII").commutes_with(parse("IIIXZ"))


def test_five_qubit_group_is_abelian(five_group):
    ops = [e.op for e in five_group]
    assert len(ops) == 32
    for i, a in enumerate(ops):
        for b in ops[i + 1:]:
            assert a.commutes_with(b)


def test_commutation_matches_dense_commutator():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(1, 3)
        a, b = random_pauli(rng, n), random_pauli(rng, n)
        ma, mb = dense.pauli_matrix(a), dense.pauli_matrix(b)
        assert a.commutes_with(b) == \
            (dense.mat_mul(ma, mb) == dense.mat_mul(mb, ma))


def test_cyclic_shift():
    p = parse("XZIZX")
    assert p.shift(1) == parse("XXZIZ")
    assert p.shift(5) == p
    assert p.shift(0) == p
    orbit = {p.shift(k) for k in range(5)}
    assert parse("ZXXZI") in orbit


def test_orbit_of_uxzxu_contains_xzxuu():
    p = parse("IXZXI")
    orbit = {p.shift(k) for k in range(5)}
    assert parse("XZXII") in orbit


def test_shift_is_algebra_automorphism():
    rng = random.Random(3)
    for _ in range(50):
        a, b = random_pauli(rng, 5), random_pauli(rng, 5)
        k = rng.randrange(5)
        assert (a * b).shift(k) == a.shift(k) * b.shift(k)


def test_parse_format_round_trip():
    for text in ("XZIZX", "-ZZZZZ", "iXY", "-iYZ", "IIIII"):
        assert str(parse(text)) == text
    # canonical form drops the explicit plus
    assert str(parse("+XZIZX")) == "XZIZX"


def test_parse_examples():
    p = parse("XZIZX")
    assert p.phase_exp == 0
    assert p.letters == ("X", "Z", "I", "Z", "X")
    q = parse("-ZZZZZ")
    assert q.phase_exp == 2
    assert q.letters == ("Z",) * 5


def test_parse_errors():
    with pytest.raises(PauliFormatError):
        parse("XQZ")
    with pytest.raises(PauliFormatError):
        parse("")
    with pytest.raises(PauliFormatError):
        parse("x z")


def test_support_and_restrict():
    p = parse("IXZXI")
    assert p.support() == frozenset({2, 3, 4})


def test_letter_rejects_out_of_range_sites():
    p = parse("XYZ")
    for site in (-1, 0, 4):
        with pytest.raises(ValueError, match=f"site {site} out of range 1..3"):
            p.letter(site)


def test_letter_and_letters_read_every_site():
    for n in (1, 2, 3):
        for ls in itertools.product(LETTERS, repeat=n):
            p = from_letters(ls)
            assert p.letters == ls
            assert tuple(p.letter(k) for k in range(1, n + 1)) == ls


_SITE_LETTER = {(0, 0): "I", (1, 0): "X", (1, 1): "Y", (0, 1): "Z"}
_PHASE_TEXT = {0: "", 1: "i", 2: "-", 3: "-i"}


def _letters_by_site(p):
    """Reference letters: one (x, z) bit pair per site, site 1 leftmost."""
    return tuple(_SITE_LETTER[(p.x >> b & 1, p.z >> b & 1)]
                 for b in range(p.n - 1, -1, -1))


def _assert_text_matches_sites(p):
    letters = _letters_by_site(p)
    assert p.letters == letters
    assert str(p) == _PHASE_TEXT[p.phase_exp] + "".join(letters)


def test_text_matches_site_reference_for_every_string_to_four_qubits():
    for n in range(1, 5):
        for x, z, t in itertools.product(range(1 << n), range(1 << n), range(4)):
            _assert_text_matches_sites(PauliString(n, t, x, z))


def test_text_matches_site_reference_across_chunk_edges():
    # n = 5..13 crosses the four-site chunk edges at 4, 8 and 12 and every
    # ragged length between them
    rng = random.Random(17)
    for n in range(5, 14):
        full = (1 << n) - 1
        for x, z in [(0, 0), (full, 0), (0, full), (full, full)]:
            _assert_text_matches_sites(PauliString(n, 0, x, z))
        for _ in range(300):
            _assert_text_matches_sites(PauliString(
                n, rng.randrange(4), rng.getrandbits(n), rng.getrandbits(n)))


def test_steane_group_order_follows_site_letters(steane):
    elements = steane.group().elements
    assert [e.op.key() for e in elements] == \
        [(_letters_by_site(e.op), e.op.phase_exp) for e in elements]
    assert elements == sorted(elements, key=lambda e: (_letters_by_site(e.op),
                                                       e.op.phase_exp))


def test_single_site():
    assert single_site(5, 2, "Z") == parse("IZIII")
    with pytest.raises(ValueError):
        single_site(5, 6, "Z")


def test_weight_and_hermiticity():
    assert parse("IXZXI").weight == 3
    assert parse("ZZZZZ").weight == 5
    assert parse("-ZZZZZ").is_hermitian()
    assert not parse("iZ").is_hermitian()


def test_squares():
    rng = random.Random(11)
    for _ in range(50):
        p = random_pauli(rng, rng.randint(1, 5)).bare()
        assert p * p == identity(p.n)


def test_sort_key_is_deterministic():
    ops = [parse(s) for s in ("ZZZZZ", "IIIII", "XZIZX", "-ZZZZZ")]
    ordered = sorted(ops, key=lambda p: p.key())
    assert [str(p) for p in ordered] == ["IIIII", "XZIZX", "ZZZZZ", "-ZZZZZ"]
