"""The dense-oracle suite builds each Pauli matrix once per call and is still
an oracle: it draws what it drew before, and planted faults in the fast
paths still fail it with the matching detail."""

import random

import pytest

from codeword_paradoxes import dense, selftest
from codeword_paradoxes.pauli import PauliString
from codeword_paradoxes.statevector import StateVector

# rng.getrandbits(64) after dense_oracle_suite(random.Random(seed)), taken
# from the suite as it was when it built 3000 matrices per call
NEXT_DRAW = {0: 18166635445406853563, 1: 258090534178890913,
             2: 11447823051259556803, 3: 5877744325573159105}


@pytest.fixture
def built(monkeypatch):
    """The (n, phase_exp, x, z) of each dense.pauli_matrix call, in order."""
    calls = []
    build = dense.pauli_matrix

    def counted(p):
        calls.append((p.n, p.phase_exp, p.x, p.z))
        return build(p)

    monkeypatch.setattr(dense, "pauli_matrix", counted)
    return calls


@pytest.mark.parametrize("seed", sorted(NEXT_DRAW))
def test_each_matrix_is_built_once_per_call(built, seed):
    rng = random.Random(seed)
    result = selftest.dense_oracle_suite(rng)
    assert result == ("dense-oracle", selftest.DENSE_ORACLE_TRIALS, True, "")
    assert rng.getrandbits(64) == NEXT_DRAW[seed]
    # 4 phases times 4 + 16 + 64 letter strings at n <= 3
    assert len(built) <= 4 * (4 + 16 + 64)
    assert len(set(built)) == len(built)
    # the table lives for one call: a second call builds them all again
    first = list(built)
    built.clear()
    selftest.dense_oracle_suite(random.Random(seed))
    assert built == first


def test_a_wrong_product_phase_fails_the_suite(monkeypatch):
    mul = PauliString.__mul__

    def off_by_two(a, b):
        ab = mul(a, b)
        return PauliString(ab.n, ab.phase_exp + 2, ab.x, ab.z)

    monkeypatch.setattr(PauliString, "__mul__", off_by_two)
    result = selftest.dense_oracle_suite(random.Random(0))
    assert (result.trials, result.ok) == (1, False)
    assert result.detail.startswith("product mismatch for ")


def test_a_dropped_amplitude_fails_the_suite(monkeypatch):
    apply = selftest.apply

    def drops_one(p, v):
        out = apply(p, v)
        support = dict(out.support)
        if support:
            del support[min(support)]
        return StateVector(out.n, support)

    monkeypatch.setattr(selftest, "apply", drops_one)
    result = selftest.dense_oracle_suite(random.Random(0))
    assert not result.ok
    assert result.detail.startswith("action mismatch for ")
