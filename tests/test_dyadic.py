from codeword_paradoxes.dyadic import Dyadic


def test_text_forms():
    assert str(Dyadic(3)) == "3"
    assert str(Dyadic(-16)) == "-16"
    assert str(Dyadic(0, 16)) == "16 i"
    assert str(Dyadic(1, 1)) == "1 + 1 i"
    assert str(Dyadic(1, -1)) == "1 - 1 i"
    assert str(Dyadic(0)) == "0"
    assert repr(Dyadic(1, -1)) == "Dyadic(1, -1)"
    assert repr(Dyadic(4)) == "Dyadic(4, 0)"


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


def test_text_matches_the_rule_on_a_grid():
    for a in range(-3, 4):
        for b in range(-3, 4):
            assert str(Dyadic(a, b)) == _rule_text(a, b), (a, b)


def test_hash_consistency():
    assert hash(Dyadic(2, -1)) == hash(Dyadic(2, -1))
    assert len({Dyadic(1), Dyadic(1, 0), Dyadic(0, 1)}) == 2


def test_equality_compares_both_parts():
    assert Dyadic(1) == Dyadic(1, 0)
    assert Dyadic(1, 1) != Dyadic(1, -1)
    assert Dyadic(3, 1) != Dyadic(1, 1)
    assert Dyadic(0, 1) != Dyadic(1, 0)
    assert (Dyadic(1) == 1) is False


def test_is_zero():
    assert Dyadic(0).is_zero() and Dyadic(0, 0).is_zero()
    assert not Dyadic(0, 1).is_zero() and not Dyadic(-1).is_zero()
