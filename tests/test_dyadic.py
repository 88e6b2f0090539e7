from codeword_paradoxes.dyadic import Dyadic, ZERO, ONE, I_UNIT


def test_normalization_strips_common_twos():
    assert Dyadic(2, 0, 1) == Dyadic(1)
    assert Dyadic(4, 8, 2) == Dyadic(1, 2, 0)
    assert Dyadic(0, 0, 5) == ZERO
    # one odd component blocks reduction
    assert Dyadic(1, 2, 3).exp == 3


def test_negative_exponent_means_multiplication():
    assert Dyadic(1, 0, -2) == Dyadic(4)


def test_ring_operations():
    a = Dyadic(1, 0, 2)   # 1/4
    b = Dyadic(3, 0, 2)   # 3/4
    assert a + b == ONE
    assert b + -a == Dyadic(1, 0, 1)
    assert a * Dyadic(4) == ONE
    assert -a == Dyadic(-1, 0, 2)
    assert (a + a + a + a) == ONE


def test_complex_arithmetic():
    z = Dyadic(1, 1)          # 1 + i
    assert z * z == Dyadic(0, 2)
    assert z.conj() == Dyadic(1, -1)
    assert z * z.conj() == Dyadic(2)
    assert I_UNIT * I_UNIT == Dyadic(-1)


def test_as_pow2():
    assert Dyadic(1).as_pow2() == 0
    assert Dyadic(4).as_pow2() == 2
    assert Dyadic(1, 0, 3).as_pow2() == -3
    assert Dyadic(3).as_pow2() is None
    assert Dyadic(-4).as_pow2() is None
    assert Dyadic(1, 1).as_pow2() is None


def test_half_power():
    assert Dyadic(1).half_power(2) == Dyadic(1, 0, 2)
    assert Dyadic(1, 0, 2).half_power(-2) == ONE


def test_text_forms():
    assert str(Dyadic(-1, 0, 2)) == "-1/2^2"
    assert str(Dyadic(1, 1)) == "1 + 1 i"
    assert str(Dyadic(1, -1)) == "1 - 1 i"
    assert str(ZERO) == "0"


def test_hash_consistency():
    assert hash(Dyadic(2, 0, 1)) == hash(Dyadic(1))
    assert len({Dyadic(1), Dyadic(2, 0, 1), Dyadic(1, 0, 0)}) == 1


def _halving_loop(re, im, exp):
    """The constructor's lowest-terms form, one halving at a time."""
    if exp < 0:
        re, im, exp = re << -exp, im << -exp, 0
    if re == 0 and im == 0:
        return 0, 0, 0
    while exp > 0 and re % 2 == 0 and im % 2 == 0:
        re, im, exp = re // 2, im // 2, exp - 1
    return re, im, exp


TRIPLES = [(re, im, exp) for re in range(-17, 18) for im in range(-17, 18)
           for exp in range(-3, 7)]


def test_constructor_matches_halving_loop():
    for re, im, exp in TRIPLES:
        z = Dyadic(re, im, exp)
        assert (z.re, z.im, z.exp) == _halving_loop(re, im, exp), (re, im, exp)


def test_raw_built_results_are_in_lowest_terms():
    """-z and conj skip normalisation; the form must match."""
    for re, im, exp in TRIPLES:
        z = Dyadic(re, im, exp)
        a, b, k = z.re, z.im, z.exp
        assert -z == Dyadic(-a, -b, k)
        assert z.conj() == Dyadic(a, -b, k)


def test_equality_compares_all_three_fields():
    assert Dyadic(1, 0, 1) != Dyadic(1, 0, 2)
    assert Dyadic(1, 1, 1) != Dyadic(1, -1, 1)
    assert Dyadic(3, 1) != Dyadic(1, 1)
    assert (Dyadic(1) == 1) is False
