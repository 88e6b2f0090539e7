import random

import pytest

from codeword_paradoxes import dense
from codeword_paradoxes.dyadic import Dyadic, I_UNIT, ONE, ZERO
from codeword_paradoxes.errors import DimensionMismatchError, NonHermitianError
from codeword_paradoxes.pauli import identity, parse, single_site
from codeword_paradoxes.selftest import random_pauli, random_state
from codeword_paradoxes.statevector import (StateVector, apply, basis_ket,
                                            eigensign, inner)


def test_basis_ket_labels():
    v = basis_ket(5, "10010")
    assert v.amps[0b10010] == ONE
    assert sum(1 for a in v.amps if not a.is_zero()) == 1
    assert basis_ket(5, 18) == v


def test_apply_identity(five):
    assert apply(parse("IIIII"), five.codeword0) == five.codeword0


def test_apply_stabilizer_and_antistabilizer(five):
    assert apply(parse("XZIZX"), five.codeword0) == five.codeword0
    # sigma_1x sigma_2z sigma_3x flips the sign of the logical zero
    assert apply(parse("XZXII"), five.codeword0) == -five.codeword0


def test_apply_single_qubit_conventions():
    plus = basis_ket(1, 0)
    assert apply(parse("X"), plus) == basis_ket(1, 1)
    y0 = apply(parse("Y"), plus)
    assert y0.amps[1] == I_UNIT and y0.amps[0] == ZERO
    z1 = apply(parse("Z"), basis_ket(1, 1))
    assert z1.amps[1] == Dyadic(-1)


def test_apply_dimension_mismatch(five):
    with pytest.raises(DimensionMismatchError):
        apply(parse("XX"), five.codeword0)


def test_apply_matches_dense_oracle():
    rng = random.Random(23)
    for _ in range(40):
        n = rng.randint(1, 3)
        p = random_pauli(rng, n)
        v = random_state(rng, n)
        assert list(apply(p, v).amps) == dense.mat_vec(dense.pauli_matrix(p),
                                                       list(v.amps))


def test_apply_composition_small_n():
    rng = random.Random(5)
    for n in (1, 2, 3, 5):
        for _ in range(20):
            p, q = random_pauli(rng, n), random_pauli(rng, n)
            v = random_state(rng, n)
            assert apply(p, apply(q, v)) == apply(p * q, v)


def test_eigensign_table_entries(five):
    assert eigensign(parse("IXZXI"), five.codeword0) == -1
    assert eigensign(parse("IXZXI"), five.codeword1) == +1
    assert eigensign(parse("XYZYX"), five.codeword0) == +1
    assert eigensign(parse("ZZZZZ"), five.codeword1) == -1


def test_eigensign_none_for_non_eigenvector(five):
    assert eigensign(single_site(5, 1, "Z"), five.codeword0) is None


def test_eigensign_requires_hermitian(five):
    with pytest.raises(NonHermitianError):
        eigensign(parse("iZZZZZ"), five.codeword0)


def test_eigensign_global_phase_invariant(five):
    rotated = five.codeword0.scaled(I_UNIT)
    assert eigensign(parse("XZIZX"), rotated) == +1
    assert eigensign(parse("IXZXI"), rotated) == -1


def test_inner_products(five):
    assert inner(five.codeword0, five.codeword0) == ONE
    assert inner(five.codeword0, five.codeword1) == ZERO
    assert inner(basis_ket(5, "00000"), five.codeword0) == Dyadic(-1, 0, 2)
    with pytest.raises(DimensionMismatchError):
        inner(basis_ket(2, 0), five.codeword0)


def test_inner_conjugate_linearity():
    u = StateVector(1, [Dyadic(0, 1), ZERO])    # i|0>
    v = StateVector(1, [ONE, ZERO])
    assert inner(u, v) == Dyadic(0, -1)
    assert inner(v, u) == Dyadic(0, 1)


def test_projector_orthogonality():
    p = basis_ket(5, "00000")
    q = basis_ket(5, "11111")
    assert inner(p, q).is_zero()
    assert not inner(p, p).is_zero()


def test_classical_basis_resolves_identity():
    kets = [basis_ket(5, j) for j in range(32)]
    assert all(inner(u, w).is_zero() for i, u in enumerate(kets)
               for w in kets[i + 1:])
    identity_matrix = dense.pauli_matrix(identity(5))
    assert dense.mat_eq(dense.projector_matrix([k.amps for k in kets]),
                        identity_matrix)
    # 31 kets are pairwise orthogonal too, but one short of the identity
    assert not dense.mat_eq(dense.projector_matrix([k.amps for k in kets[:31]]),
                            identity_matrix)


def test_projector_matrix_idempotent(five):
    m = dense.projector_matrix([five.codeword0.amps, five.codeword1.amps])
    assert dense.mat_eq(dense.mat_mul(m, m), m)
    # Hermitian: entry (i,j) is the conjugate of (j,i)
    dim = len(m)
    assert all(m[i][j] == m[j][i].conj() for i in range(dim) for j in range(dim))


def test_serialization_round_trip(five):
    pairs = five.codeword0.to_pairs()
    assert ("00000", "-1/2^2") in pairs
    assert ("10010", "1/2^2") in pairs
    assert len(pairs) == 16


def test_phase_canonical():
    v = StateVector(1, [Dyadic(0, -1), ZERO])   # -i|0>
    w = v.phase_canonical()
    assert w.amps[0] == ONE
    plain = StateVector(1, [ONE, ONE])
    assert plain.phase_canonical() is plain
