import random
from fractions import Fraction
from itertools import product

import pytest

from codeword_paradoxes import dense, selftest
from codeword_paradoxes.codes import single_qubit_errors
from codeword_paradoxes.errors import DimensionMismatchError, NonHermitianError
from codeword_paradoxes.pauli import from_letters, identity, parse, single_site
from codeword_paradoxes.selftest import dense_amplitudes, random_pauli, random_state
from codeword_paradoxes.statevector import StateVector, apply, eigensign, inner
from conftest import projector_matrix


def basis_ket(n: int, label) -> StateVector:
    """Basis vector from an integer index or a '01001'-style label."""
    index = int(label, 2) if isinstance(label, str) else label
    return StateVector(n, {index: (1, 0)})


def test_basis_ket_labels():
    v = basis_ket(5, "10010")
    assert v.support == {0b10010: (1, 0)}
    assert basis_ket(5, 18) == v


def test_support_drops_zeros_and_checks_indices():
    v = StateVector(2, {0: (0, 0), 3: (2, -1), 1: [0, 0]})
    assert v.support == {3: (2, -1)}
    assert v != StateVector(3, {3: (2, -1)})
    assert StateVector(2, {}) == StateVector(2, {1: (0, 0)})
    assert StateVector(2, {0: [0, 0], 2: [0, 3]}).support == {2: (0, 3)}
    for n in range(1, 6):
        last = (1 << n) - 1
        assert StateVector(n, {last: (1, 0), 0: (0, 1)}).support == \
            {0: (0, 1), last: (1, 0)}
        # a zero amplitude is range-checked before it is dropped
        for index, amplitude in product((-1, 1 << n), ((1, 0), (0, 0))):
            with pytest.raises(ValueError) as err:
                StateVector(n, {0: (1, 0), index: amplitude})
            assert str(err.value) == f"basis index out of range for {n} qubits"
    with pytest.raises(ValueError):
        StateVector(2, {7: (0, 0), -1: [0, 0]})


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
    assert y0.support == {1: (0, 1)}
    z1 = apply(parse("Z"), basis_ket(1, 1))
    assert z1.support == {1: (-1, 0)}


def test_apply_dimension_mismatch(five):
    with pytest.raises(DimensionMismatchError):
        apply(parse("XX"), five.codeword(0))
    with pytest.raises(DimensionMismatchError):
        eigensign(parse("XX"), five.codeword(0))


def test_apply_matches_dense_oracle():
    rng = random.Random(23)
    for _ in range(40):
        n = rng.randint(1, 3)
        p = random_pauli(rng, n)
        v = random_state(rng, n)
        assert dense_amplitudes(apply(p, v)) == \
            dense.mat_vec(dense.pauli_matrix(p), dense_amplitudes(v))


@pytest.mark.parametrize("n", [1, 2])
def test_apply_matches_dense_oracle_on_every_phased_string(n):
    """All 4·4**n phased strings on a full-support state whose amplitudes
    are no unit multiples of each other, so a ket sent to the wrong place
    or turned by the wrong power of i shows in the image."""
    amplitudes = [(2, 3), (5, -7), (-11, 13), (17, 19)][:1 << n]
    v = StateVector(n, dict(enumerate(amplitudes)))
    for letters in product("IXYZ", repeat=n):
        for phase_exp in range(4):
            p = from_letters(letters, phase_exp)
            assert dense_amplitudes(apply(p, v)) == \
                dense.mat_vec(dense.pauli_matrix(p), amplitudes), p


def test_apply_composition_small_n():
    rng = random.Random(5)
    for n in (1, 2, 3, 5):
        for _ in range(20):
            p, q = random_pauli(rng, n), random_pauli(rng, n)
            v = random_state(rng, n)
            assert apply(p, apply(q, v)) == apply(p * q, v)


def test_raw_images_equal_checked_ones(five):
    # apply, negation and phase_canonical skip the constructor's checks;
    # rebuilding each result through them must change nothing
    rng = random.Random(31)
    for n in (1, 2, 3, 5, 7):
        for _ in range(25):
            p, v = random_pauli(rng, n), random_state(rng, n)
            for w in (apply(p, v), -v):
                assert w == StateVector(n, w.support)
                assert w.support is not v.support
                assert len(w.support) == len(v.support)
    for p in single_qubit_errors(5):
        v = apply(p, five.codeword(1))
        w = v.phase_canonical()
        assert w == StateVector(5, w.support)
        assert len(w.support) == len(v.support) == 16


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
    return StateVector(v.n, {j: (-im, re) for j, (re, im) in v.support.items()})


def test_eigensign_global_phase_invariant(five):
    rotated = _times_i(five.codeword(0))
    assert five.codeword(0).support[0] == (1, 0)
    assert rotated.support[0] == (0, 1)
    assert eigensign(parse("XZIZX"), rotated) == +1
    assert eigensign(parse("IXZXI"), rotated) == -1


def test_inner_products(five_listing):
    zero, one = five_listing                  # 4 times the unit codewords
    assert inner(zero, zero) == (16, 0)
    assert inner(zero, one) == (0, 0)
    assert inner(basis_ket(5, "00000"), zero) == (-1, 0)
    with pytest.raises(DimensionMismatchError):
        inner(basis_ket(2, 0), zero)


def test_inner_conjugate_linearity():
    u = StateVector(1, {0: (0, 1)})    # i|0>
    v = StateVector(1, {0: (1, 0)})
    assert inner(u, v) == (0, -1)
    assert inner(v, u) == (0, 1)


def test_projector_orthogonality():
    p = basis_ket(5, "00000")
    q = basis_ket(5, "11111")
    assert inner(p, q) == (0, 0)
    assert inner(p, p) != (0, 0)


def test_classical_basis_resolves_identity():
    kets = [basis_ket(5, j) for j in range(32)]
    assert all(inner(u, w) == (0, 0) for i, u in enumerate(kets)
               for w in kets[i + 1:])
    identity_matrix = dense.pauli_matrix(identity(5))
    columns = [dense_amplitudes(k) for k in kets]
    assert projector_matrix(columns) == identity_matrix
    # 31 kets are pairwise orthogonal too, but one short of the identity
    assert projector_matrix(columns[:31]) != identity_matrix


def test_projector_matrix_idempotent(five):
    # the codewords have norm 16, so m is 16 times the code-space
    # projector and its square is 16 m
    m = projector_matrix([dense_amplitudes(five.codeword(0)),
                          dense_amplitudes(five.codeword(1))])
    sixteen_m = tuple(tuple((j, (16 * re, 16 * im)) for j, (re, im) in row)
                      for row in m)
    assert dense.mat_mul(m, m) == sixteen_m
    assert sum(x[0] for i, row in enumerate(m) for j, x in row if i == j) == 32
    # Hermitian: each stored (i, j) has its conjugate stored at (j, i)
    entries = {(i, j): x for i, row in enumerate(m) for j, x in row}
    assert all(entries.get((j, i)) == (re, -im)
               for (i, j), (re, im) in entries.items())


def test_phase_canonical():
    v = StateVector(1, {0: (0, -1), 1: (3, 0)})   # -i|0> + 3|1>
    assert v.phase_canonical() == StateVector(1, {0: (1, 0), 1: (0, 3)})
    for lead in ((-2, 0), (0, 2), (0, -2)):
        w = StateVector(2, {1: lead, 2: (1, 1)}).phase_canonical()
        assert w.support[1] == (2, 0)
        assert inner(w, w) == (6, 0)
    plain = StateVector(1, {0: (1, 0), 1: (1, 0)})
    assert plain.phase_canonical() is plain
    with pytest.raises(ValueError, match="quarter-turn axis"):
        StateVector(1, {0: (1, 1)}).phase_canonical()


def _inner_by_terms(u, v):
    """The sum of conj(a)·b over all kets, in Fraction (re, im) pairs."""
    re = im = Fraction(0)
    for (ar, ai), (br, bi) in zip(dense_amplitudes(u), dense_amplitudes(v)):
        cr, ci = Fraction(ar), -Fraction(ai)
        re += cr * br - ci * bi
        im += cr * bi + ci * br
    assert re.denominator == im.denominator == 1
    return (re.numerator, im.numerator)


def _eigensign_by_matrix(m, v):
    """+1 or -1 when the dense matrix m maps v's amplitudes to plus or
    minus themselves, None otherwise."""
    amps = dense_amplitudes(v)
    image = dense.mat_vec(m, amps)
    if image == amps:
        return +1
    if image == [(-re, -im) for re, im in amps]:
        return -1
    return None


def _eigenvectors(p, v):
    """v + p·v and v - p·v: eigenvectors of p for +1 and -1 (or zero)."""
    w = apply(p, v)
    return _add(v, w, 1), _add(v, w, -1)


def _add(v, w, sign):
    """v + sign·w, amplitude by amplitude."""
    out = dict(v.support)
    for j, (re, im) in w.support.items():
        r0, i0 = out.get(j, (0, 0))
        out[j] = (r0 + sign * re, i0 + sign * im)
    return StateVector(v.n, out)


@pytest.mark.parametrize("n", range(1, 8))
def test_inner_and_eigensign_match_reference_formulas(n):
    rng = random.Random(100 + n)
    signs = set()
    for _ in range(12):
        u, v = random_state(rng, n), random_state(rng, n)
        p = random_pauli(rng, n)
        if not p.is_hermitian():
            p = from_letters(p.letters)
        m = dense.pauli_matrix(p)
        plus, minus = _eigenvectors(p, v)
        # plus without its first ket: p maps some ket off the support
        cut = StateVector(n, dict(list(plus.support.items())[1:]))
        vectors = [u, v, -v, _times_i(v), plus, minus, -plus, _times_i(minus),
                   cut]
        for a in vectors:
            for b in vectors:
                assert inner(a, b) == _inner_by_terms(a, b)
            if a.support:
                got = eigensign(p, a)
                assert got == _eigensign_by_matrix(m, a)
                signs.add(got)
    assert signs == {+1, -1, None}


@pytest.mark.parametrize("n", [1, 3, 5])
def test_random_state_is_four_times_the_drawn_dyadics(n):
    """Per ket, in order, the draws a, b in [-4, 4] and e in [0, 2] give
    the amplitude 4·(a + b i)/2**e, and the generator ends where exactly
    those draws leave it."""
    rng, reference = random.Random(n), random.Random(n)
    v = random_state(rng, n)
    draws = [(reference.randint(-4, 4), reference.randint(-4, 4),
              reference.randrange(3)) for _ in range(1 << n)]
    assert [(Fraction(re), Fraction(im)) for re, im in dense_amplitudes(v)] == \
        [(4 * Fraction(a, 2 ** e), 4 * Fraction(b, 2 ** e)) for a, b, e in draws]
    assert v == StateVector(n, {j: (a << (2 - e), b << (2 - e))
                                for j, (a, b, e) in enumerate(draws)})
    assert rng.getstate() == reference.getstate()


def _random_state_storing_zeros(rng, n):
    """random_state's rule as it was: every ket's amplitude is stored, a
    zero included, for the constructor to drop."""
    bits = rng.getrandbits
    support = {}
    for j in range(1 << n):
        a = bits(4)
        while a >= 9:
            a = bits(4)
        b = bits(4)
        while b >= 9:
            b = bits(4)
        e = bits(2)
        while e >= 3:
            e = bits(2)
        support[j] = ((a - 4) << (2 - e), (b - 4) << (2 - e))
    return StateVector(n, support)


def test_random_state_draws_what_the_zero_storing_rule_drew():
    zeros = 0
    for seed in range(6):
        rng, reference = random.Random(seed), random.Random(seed)
        for n in range(1, 6):
            for _ in range(3):
                v = random_state(rng, n)
                assert v == _random_state_storing_zeros(reference, n)
                assert rng.getstate() == reference.getstate()
                zeros += (1 << n) - len(v.support)
    assert zeros   # some draws were zero, and were skipped


@pytest.mark.parametrize("n", range(1, 8))
def test_random_pauli_draws_what_choice_and_randrange_draw(n):
    """Draw for draw, the letters are rng.choice("IXYZ") per site and the
    phase exponent rng.randrange(4), and the generator ends in the same
    state: a change to random.Random's draws fails here, not silently."""
    rng, reference = random.Random(n), random.Random(n)
    for _ in range(50):
        letters = [reference.choice("IXYZ") for _ in range(n)]
        assert random_pauli(rng, n) == from_letters(letters, reference.randrange(4))
    assert rng.getstate() == reference.getstate()


@pytest.mark.parametrize("m", range(1, 10))
def test_below_draws_what_randrange_draws(m):
    rng, reference = random.Random(m), random.Random(m)
    assert [selftest._below(rng, m) for _ in range(200)] == \
        [reference.randrange(m) for _ in range(200)]
    assert rng.getstate() == reference.getstate()


def test_eigensign_rejects_zero_vector():
    zero = StateVector(3, {})
    with pytest.raises(ValueError, match="zero vector"):
        eigensign(parse("XZY"), zero)
    with pytest.raises(ValueError, match="zero vector"):
        eigensign(identity(3), zero)


def test_eigensign_checks_hermiticity_then_dimension_then_zero():
    """A zero vector is refused only after p's phase and qubit count pass."""
    zero = StateVector(3, {})
    with pytest.raises(DimensionMismatchError):
        eigensign(parse("XZ"), zero)
    for phased in ("iXZY", "-iXZY"):
        with pytest.raises(NonHermitianError):
            eigensign(parse(phased), zero)
    with pytest.raises(NonHermitianError):
        eigensign(parse("iXZ"), zero)
