"""The dense-oracle suite builds each Pauli matrix once per call, folded
from two smaller ones, and is still an oracle: it draws what it drew
before, and planted faults in the fast paths still fail it with the
matching detail."""

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
    """Each matrix dense.kron returns, in order.  pauli_matrix builds by
    kron too, so this is every matrix the suite builds."""
    calls = []
    kron = dense.kron

    def counted(a, b):
        m = kron(a, b)
        calls.append(m)
        return m

    monkeypatch.setattr(dense, "kron", counted)
    return calls


@pytest.fixture
def pauli_built(monkeypatch):
    """The (n, phase_exp, x, z) of each dense.pauli_matrix call, in order."""
    calls = []
    build = dense.pauli_matrix

    def counted(p):
        calls.append((p.n, p.phase_exp, p.x, p.z))
        return build(p)

    monkeypatch.setattr(dense, "pauli_matrix", counted)
    return calls


def _phased_strings(n):
    return [PauliString(n, phase, x, z) for phase in range(4)
            for x in range(1 << n) for z in range(1 << n)]


@pytest.mark.parametrize("seed", sorted(NEXT_DRAW))
def test_each_matrix_is_built_once_per_call(built, pauli_built, seed):
    rng = random.Random(seed)
    result = selftest.dense_oracle_suite(rng)
    assert result == ("dense-oracle", selftest.DENSE_ORACLE_TRIALS, True, "")
    assert rng.getrandbits(64) == NEXT_DRAW[seed]
    # one kron per distinct phased string (their matrices are distinct), of
    # 4 phases times 4 + 16 + 64 letter strings at n <= 3
    assert len(built) <= 4 * (4 + 16 + 64)
    assert len(set(built)) == len(built)
    # only 1-site strings go to pauli_matrix; longer ones are folded
    assert len(set(pauli_built)) == len(pauli_built) <= 16
    assert {n for n, *_ in pauli_built} == {1}
    # the table lives for one call: a second call builds them all again
    first = list(built)
    built.clear()
    selftest.dense_oracle_suite(random.Random(seed))
    assert built == first


def test_folded_matrices_equal_pauli_matrix(built):
    strings = [p for n in (1, 2, 3) for p in _phased_strings(n)]
    assert len(strings) == 336
    matrix = selftest._matrix_table()
    folded = [matrix(p) for p in strings]
    assert len(built) == 336   # one kron per string, none repeated
    assert folded == [dense.pauli_matrix(p) for p in strings]


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


def test_parity_rediscovery_finds_the_pentagon_and_misses_it_when_dropped(
        monkeypatch):
    assert selftest.parity_rediscovery_suite() == \
        ("parity-rediscovery", 812, True, "")
    search = selftest.search_parity_contradictions
    canon = set(selftest.canonical_pentagon_instance(
        selftest.five_qubit_code()).members)

    def without_pentagon(code, max_subset):
        res = search(code, max_subset)
        kept = [inst for inst in res.instances if set(inst.members) != canon]
        assert len(kept) == len(res.instances) - 1
        return res._replace(instances=kept)

    monkeypatch.setattr(selftest, "search_parity_contradictions", without_pentagon)
    assert selftest.parity_rediscovery_suite() == \
        ("parity-rediscovery", 811, False, "canonical instance missing")
