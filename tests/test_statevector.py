import random

import pytest

from codeword_paradoxes import dense
from codeword_paradoxes.dyadic import Dyadic, I_UNIT, ONE, ZERO
from codeword_paradoxes.errors import DimensionMismatchError, NonHermitianError
from codeword_paradoxes.pauli import from_letters, identity, parse, single_site
from codeword_paradoxes.selftest import random_pauli, random_state
from codeword_paradoxes.statevector import StateVector, apply, eigensign, inner


def basis_ket(n: int, label) -> StateVector:
    """Basis vector from an integer index or a '01001'-style label."""
    index = int(label, 2) if isinstance(label, str) else label
    amps = [ZERO] * (1 << n)
    amps[index] = ONE
    return StateVector(n, amps)


def test_basis_ket_labels():
    v = basis_ket(5, "10010")
    assert v.amps[0b10010] == ONE
    assert sum(1 for a in v.amps if not a.is_zero()) == 1
    assert basis_ket(5, 18) == v


def test_apply_identity(five):
    assert apply(parse("IIIII"), five.codeword(0)) == five.codeword(0)


def test_apply_stabilizer_and_antistabilizer(five):
    assert apply(parse("XZIZX"), five.codeword(0)) == five.codeword(0)
    # sigma_1x sigma_2z sigma_3x flips the sign of the logical zero
    assert apply(parse("XZXII"), five.codeword(0)) == -five.codeword(0)


def test_apply_single_qubit_conventions():
    plus = basis_ket(1, 0)
    assert apply(parse("X"), plus) == basis_ket(1, 1)
    y0 = apply(parse("Y"), plus)
    assert y0.amps[1] == I_UNIT and y0.amps[0] == ZERO
    z1 = apply(parse("Z"), basis_ket(1, 1))
    assert z1.amps[1] == Dyadic(-1)


def test_apply_dimension_mismatch(five):
    with pytest.raises(DimensionMismatchError):
        apply(parse("XX"), five.codeword(0))


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
    assert eigensign(parse("IXZXI"), five.codeword(0)) == -1
    assert eigensign(parse("IXZXI"), five.codeword(1)) == +1
    assert eigensign(parse("XYZYX"), five.codeword(0)) == +1
    assert eigensign(parse("ZZZZZ"), five.codeword(1)) == -1


def test_eigensign_none_for_non_eigenvector(five):
    assert eigensign(single_site(5, 1, "Z"), five.codeword(0)) is None


def test_eigensign_requires_hermitian(five):
    with pytest.raises(NonHermitianError):
        eigensign(parse("iZZZZZ"), five.codeword(0))


def _times_i(v):
    return StateVector(v.n, (a.times_i_power(1) for a in v.amps))


def test_eigensign_global_phase_invariant(five):
    rotated = _times_i(five.codeword(0))
    assert rotated.amps[0] == five.codeword(0).amps[0] * I_UNIT
    assert eigensign(parse("XZIZX"), rotated) == +1
    assert eigensign(parse("IXZXI"), rotated) == -1


def test_inner_products(five_listing):
    zero, one = five_listing
    assert inner(zero, zero) == ONE
    assert inner(zero, one) == ZERO
    assert inner(basis_ket(5, "00000"), zero) == Dyadic(-1, 0, 2)
    with pytest.raises(DimensionMismatchError):
        inner(basis_ket(2, 0), zero)


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
    m = dense.projector_matrix([five.codeword(0).amps, five.codeword(1).amps])
    assert dense.mat_eq(dense.mat_mul(m, m), m)
    # Hermitian: each stored (i, j) has its conjugate stored at (j, i)
    entries = {(i, j): x for i, row in enumerate(m) for j, x in row}
    assert all(entries.get((j, i)) == x.conj() for (i, j), x in entries.items())


def test_serialization_round_trip(five_listing):
    pairs = five_listing[0].to_pairs()
    assert ("00000", "-1/2^2") in pairs
    assert ("10010", "1/2^2") in pairs
    assert len(pairs) == 16


def test_phase_canonical():
    v = StateVector(1, [Dyadic(0, -1), ZERO])   # -i|0>
    w = v.phase_canonical()
    assert w.amps[0] == ONE
    plain = StateVector(1, [ONE, ONE])
    assert plain.phase_canonical() is plain


def _inner_by_terms(u, v):
    total = ZERO
    for a, b in zip(u.amps, v.amps):
        total = total + a.conj() * b
    return total


def _eigensign_by_vectors(p, v):
    w = apply(p, v)
    if w == v:
        return +1
    if w == -v:
        return -1
    return None


def _eigenvectors(p, v):
    """v + p·v and v - p·v: eigenvectors of p for +1 and -1 (or zero)."""
    w = apply(p, v)
    return (StateVector(v.n, (a + b for a, b in zip(v.amps, w.amps))),
            StateVector(v.n, (a - b for a, b in zip(v.amps, w.amps))))


@pytest.mark.parametrize("n", range(1, 8))
def test_inner_and_eigensign_match_reference_formulas(n):
    rng = random.Random(100 + n)
    signs = set()
    for _ in range(12):
        u, v = random_state(rng, n), random_state(rng, n)
        p = random_pauli(rng, n)
        if not p.is_hermitian():
            p = from_letters(p.letters)
        plus, minus = _eigenvectors(p, v)
        vectors = [u, v, -v, _times_i(v), plus, minus, -plus, _times_i(minus)]
        for a in vectors:
            for b in vectors:
                assert inner(a, b) == _inner_by_terms(a, b)
            if any(x.re or x.im for x in a.amps):
                got = eigensign(p, a)
                assert got == _eigensign_by_vectors(p, a)
                signs.add(got)
    assert signs == {+1, -1, None}


def test_eigensign_rejects_zero_vector():
    zero = StateVector(3, [ZERO] * 8)
    with pytest.raises(ValueError, match="zero vector"):
        eigensign(parse("XZY"), zero)
    with pytest.raises(ValueError, match="zero vector"):
        eigensign(identity(3), zero)

