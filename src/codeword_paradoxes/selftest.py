"""Randomized property suites cross-checking the fast paths against the
dense-matrix oracle.

The oracle's entries and vectors are Gaussian integers, integer (re, im)
pairs, as state amplitudes are: a state reaches the oracle as the list of
its amplitudes over every ket (`dense_amplitudes`), with no conversion.

These are the only sampled (seeded) checks in the package; every physics
verification elsewhere is deterministic and seedless.  Every draw is a
uniform integer in range(m), m >= 1, taken by one rule on the public
`getrandbits`: draw r = rng.getrandbits(m.bit_length()), and draw again
while r >= m.  That is the rule `random.Random` itself uses for
`randrange`, `randint` and `choice`, so the samples are the ones those
calls give.
"""

from __future__ import annotations

import random
from typing import NamedTuple

from . import dense
from .codes import five_qubit_code
from .pauli import PauliString, identity
from .paradoxes import canonical_pentagon_instance, search_parity_contradictions
from .statevector import StateVector, apply

__all__ = ["SuiteResult", "run_all", "random_pauli", "random_state",
           "dense_amplitudes"]


# Trials per seeded suite; the selftest report records them.
DENSE_ORACLE_TRIALS = 1000
APPLY_COMPOSE_TRIALS = 200
ALGEBRA_LAWS_TRIALS = 300


class SuiteResult(NamedTuple):
    name: str
    trials: int
    ok: bool
    detail: str = ""


def _below(rng: random.Random, m: int) -> int:
    """A uniform draw from range(m), m >= 1, by the module's draw rule."""
    k = m.bit_length()
    r = rng.getrandbits(k)
    while r >= m:
        r = rng.getrandbits(k)
    return r


def random_pauli(rng: random.Random, n: int) -> PauliString:
    """Sites 1..n, then the phase exponent, each a draw from range(4);
    a site's draw r picks letter r of "IXYZ", so x = r in (1, 2) and
    z = r >= 2.  The site draws are _below(rng, 4) inlined."""
    bits = rng.getrandbits
    x = z = 0
    for _ in range(n):
        r = bits(3)
        while r >= 4:
            r = bits(3)
        x = x << 1 | (r in (1, 2))
        z = z << 1 | (r >= 2)
    return PauliString(n, _below(rng, 4), x, z)


def random_state(rng: random.Random, n: int) -> StateVector:
    """Amplitudes (a + b i)/2**e, a, b in [-4, 4] and e in [0, 2], times 4
    so that they are Gaussian integers; the draws run over the kets in
    order, three per ket: a + 4 and b + 4 from range(9) and e from
    range(3), each _below inlined."""
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
        if a != 4 or b != 4:   # a zero amplitude is not stored
            support[j] = ((a - 4) << (2 - e), (b - 4) << (2 - e))
    return StateVector(n, support)


def dense_amplitudes(v: StateVector) -> list[tuple[int, int]]:
    """v's amplitudes over all 2**n kets, zeros included, as the dense
    oracle's (re, im) vector."""
    return [v.support.get(j, (0, 0)) for j in range(1 << v.n)]


def _matrix_table():
    """p -> dense matrix of p, from a table that builds each distinct
    phased string's matrix once and is freed with the function.

    A 1-site string's matrix is dense.pauli_matrix's; an n-site one's is
    one dense.kron of two table entries: its (n-1)-site prefix, sites
    1..n-1 with the phase, and its last site's bare letter.  Site n is the
    lowest bit of x and z."""
    built: dict[tuple[int, int, int, int], dense.Matrix] = {}

    def fold(key: tuple[int, int, int, int]) -> dense.Matrix:
        m = built.get(key)
        if m is None:
            n, phase, x, z = key
            if n == 1:
                m = dense.pauli_matrix(PauliString(1, phase, x, z))
            else:
                m = dense.kron(fold((n - 1, phase, x >> 1, z >> 1)),
                               fold((1, 0, x & 1, z & 1)))
            built[key] = m
        return m

    return lambda p: fold((p.n, p.phase_exp, p.x, p.z))


def dense_oracle_suite(rng: random.Random) -> SuiteResult:
    """Multiplication, commutation and eigen-action against dense matrices,
    on random pairs at n <= 3.

    The matrices come from a _matrix_table local to the call: at n <= 3
    there are only 336 phased strings, where the trials ask for 3000
    matrices, and each is one kron of two smaller ones."""
    matrix = _matrix_table()
    for t in range(DENSE_ORACLE_TRIALS):
        n = 1 + _below(rng, 3)
        a = random_pauli(rng, n)
        b = random_pauli(rng, n)
        ma, mb = matrix(a), matrix(b)
        mab = dense.mat_mul(ma, mb)
        if matrix(a * b) != mab:
            return SuiteResult("dense-oracle", t + 1, False,
                               f"product mismatch for {a}, {b}")
        if a.commutes_with(b) != (mab == dense.mat_mul(mb, ma)):
            return SuiteResult("dense-oracle", t + 1, False,
                               f"commutation mismatch for {a}, {b}")
        v = random_state(rng, n)
        if dense_amplitudes(apply(a, v)) != dense.mat_vec(ma, dense_amplitudes(v)):
            return SuiteResult("dense-oracle", t + 1, False,
                               f"action mismatch for {a}")
    return SuiteResult("dense-oracle", DENSE_ORACLE_TRIALS, True)


def apply_compose_suite(rng: random.Random) -> SuiteResult:
    """apply(p, apply(q, v)) == apply(p·q, v) on random triples at n = 5."""
    for t in range(APPLY_COMPOSE_TRIALS):
        p = random_pauli(rng, 5)
        q = random_pauli(rng, 5)
        v = random_state(rng, 5)
        if apply(p, apply(q, v)) != apply(p * q, v):
            return SuiteResult("apply-compose", t + 1, False,
                               f"composition mismatch for {p}, {q}")
    return SuiteResult("apply-compose", APPLY_COMPOSE_TRIALS, True)


def algebra_laws_suite(rng: random.Random) -> SuiteResult:
    """Associativity, ± symmetry of products, squares, shift homomorphism."""
    for t in range(ALGEBRA_LAWS_TRIALS):
        n = 1 + _below(rng, 5)
        a, b, c = (random_pauli(rng, n) for _ in range(3))
        if (a * b) * c != a * (b * c):
            return SuiteResult("algebra-laws", t + 1, False, "associativity")
        ab, ba = a * b, b * a
        expected_phase = (ab.phase_exp + (0 if a.commutes_with(b) else 2)) & 3
        if (ba.x, ba.z, ba.phase_exp) != (ab.x, ab.z, expected_phase):
            return SuiteResult("algebra-laws", t + 1, False, "product symmetry")
        sq = a * a
        want = (0 if a.phase_exp in (0, 2) else 2)
        if not sq.is_identity_op() or sq.phase_exp != want:
            return SuiteResult("algebra-laws", t + 1, False, "square")
        k = _below(rng, n)
        if (a * b).shift(k) != a.shift(k) * b.shift(k):
            return SuiteResult("algebra-laws", t + 1, False, "shift homomorphism")
        if identity(n) * a != a or a * identity(n) != a:
            return SuiteResult("algebra-laws", t + 1, False, "identity")
    return SuiteResult("algebra-laws", ALGEBRA_LAWS_TRIALS, True)


def parity_rediscovery_suite() -> SuiteResult:
    """The bounded search must rediscover the canonical six-operator instance."""
    code = five_qubit_code()
    res = search_parity_contradictions(code, 6)
    # an instance's members come in group order, sorted by op.key()
    canon = tuple(sorted(canonical_pentagon_instance(code).members,
                         key=lambda e: e.op.key()))
    hit = any(inst.members == canon for inst in res.instances)
    return SuiteResult("parity-rediscovery", len(res.instances), hit,
                       "" if hit else "canonical instance missing")


def run_all(seed: int = 0) -> list[SuiteResult]:
    rng = random.Random(seed)
    return [
        dense_oracle_suite(rng),
        apply_compose_suite(rng),
        algebra_laws_suite(rng),
        parity_rediscovery_suite(),
    ]
