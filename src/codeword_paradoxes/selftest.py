"""Randomized property suites cross-checking the fast paths against the
dense-matrix oracle.

The oracle's entries and vectors are Gaussian integers, integer (re, im)
pairs, as state amplitudes are: a state reaches the oracle as the list of
its amplitudes over every ket (`dense_amplitudes`), with no conversion.

These are the only sampled (seeded) checks in the package; every physics
verification elsewhere is deterministic and seedless.
"""

from __future__ import annotations

import random
from typing import NamedTuple

from . import dense
from .codes import five_qubit_code
from .pauli import PauliString, from_letters, identity
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


def random_pauli(rng: random.Random, n: int) -> PauliString:
    letters = [rng.choice("IXYZ") for _ in range(n)]
    return from_letters(letters, rng.randrange(4))


def random_state(rng: random.Random, n: int) -> StateVector:
    """Amplitudes (a + b i)/2**e, a, b in [-4, 4] and e in [0, 2], times 4
    so that they are Gaussian integers; the draws run over the kets in
    order, three per ket."""
    draws = [(rng.randint(-4, 4), rng.randint(-4, 4), rng.randrange(3))
             for _ in range(1 << n)]
    return StateVector(n, {j: (a << (2 - e), b << (2 - e))
                           for j, (a, b, e) in enumerate(draws)})


def dense_amplitudes(v: StateVector) -> list[tuple[int, int]]:
    """v's amplitudes over all 2**n kets, zeros included, as the dense
    oracle's (re, im) vector."""
    return [v.support.get(j, (0, 0)) for j in range(1 << v.n)]


def dense_oracle_suite(rng: random.Random) -> SuiteResult:
    """Multiplication, commutation and eigen-action against dense matrices,
    on random pairs at n <= 3.

    Each distinct phased string's matrix is built once per call, by
    dense.pauli_matrix, into a table that is freed on return: at n <= 3
    there are only 336 of them, where the trials ask for 3000."""
    built: dict[tuple[int, int, int, int], dense.Matrix] = {}

    def matrix(p: PauliString) -> dense.Matrix:
        key = (p.n, p.phase_exp, p.x, p.z)
        m = built.get(key)
        if m is None:
            m = built[key] = dense.pauli_matrix(p)
        return m

    for t in range(DENSE_ORACLE_TRIALS):
        n = rng.randint(1, 3)
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
        n = rng.randint(1, 5)
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
        k = rng.randrange(n)
        if (a * b).shift(k) != a.shift(k) * b.shift(k):
            return SuiteResult("algebra-laws", t + 1, False, "shift homomorphism")
        if identity(n) * a != a or a * identity(n) != a:
            return SuiteResult("algebra-laws", t + 1, False, "identity")
    return SuiteResult("algebra-laws", ALGEBRA_LAWS_TRIALS, True)


def parity_rediscovery_suite() -> SuiteResult:
    """The bounded search must rediscover the canonical six-operator instance."""
    code = five_qubit_code()
    res = search_parity_contradictions(code, 6)
    canon = set(canonical_pentagon_instance(code).members)
    hit = any(set(inst.members) == canon for inst in res.instances)
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
