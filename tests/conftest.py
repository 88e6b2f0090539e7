import contextlib
import io
from types import SimpleNamespace

import pytest

from codeword_paradoxes.cli import main
from codeword_paradoxes.codes import (CodeDefinition, five_qubit_code,
                                      mermin_code, steane_code)
from codeword_paradoxes.kochen_specker import (build_ks_set,
                                               build_orthogonality_graph,
                                               enumerate_contexts)
from codeword_paradoxes.paradoxes import OperatorArray
from codeword_paradoxes.pauli import PauliString, from_letters
from codeword_paradoxes.selftest import dense_amplitudes
from codeword_paradoxes.statevector import StateVector, apply, inner

# The paper's ket listings of each code's |0_L>.  The five-qubit word has
# sixteen kets of amplitude -1/4 or +1/4, kept here 4 times over (-1 or +1)
# so that its amplitudes are integers; the Steane word is the sum of the
# eight Hamming-coset words.  Each |1_L> is the bit complement of its |0_L>,
# except the GHZ pair |000> + |111>, |000> - |111>.
FIVE_MINUS = ("00000", "11000", "01100", "00110", "00011", "10001")
FIVE_PLUS = ("10010", "10100", "01001", "01010", "00101",
             "11110", "11101", "11011", "10111", "01111")
STEANE_WORDS = ("0000000", "1010101", "0110011", "1100110",
                "0001111", "1011010", "0111100", "1101001")


def _listing(n, kets, complemented=False):
    """The state with real amplitude a at each (label, a) of kets, every
    label bit-complemented when asked."""
    flip = (1 << n) - 1 if complemented else 0
    return StateVector(n, {int(label, 2) ^ flip: (a, 0) for label, a in kets})


def projector_matrix(vectors):
    """Sum of the outer products |s><s| over the spanning vectors, as a
    dense matrix (sparse rows of (column, entry) pairs, zeros dropped).

    Each vector is a sequence of (re, im) amplitudes; |s><s| puts s_i times
    the conjugate of s_j at (i, j).  Nothing is divided by a norm: for
    pairwise orthogonal vectors of one norm m, which callers check
    separately, the sum is m times the orthogonal projector onto their
    span.  The vectors must be at least one and all of one length
    (ValueError otherwise).
    """
    if len({len(s) for s in vectors}) != 1:
        raise ValueError("spanning vectors must be nonempty and of one length")
    acc = [{} for _ in vectors[0]]
    for s in vectors:
        support = [(i, x) for i, x in enumerate(s) if x != (0, 0)]
        for i, (ar, ai) in support:
            for j, (br, bi) in support:    # ar + ai i times br - bi i
                re, im = acc[i].get(j, (0, 0))
                acc[i][j] = re + ar * br + ai * bi, im - ar * bi + ai * br
    return tuple(tuple((j, row[j]) for j in sorted(row) if row[j] != (0, 0))
                 for row in acc)


# The KS oracle shared by test_kochen_specker and test_acceptance: a
# vertex's integer spanning vectors as states, and the dense check that a
# family of them resolves the identity.
SIXTEEN_I = tuple(((j, (16, 0)),) for j in range(32))   # dense 16·I


def ks_states(v):
    """A KS vertex's integer spanning vectors as state vectors."""
    return [StateVector(5, {j: (x, 0) for j, x in enumerate(iv)})
            for iv in v.ivecs]


def ks_spanning(vertices):
    return [s for v in vertices for s in ks_states(v)]


def norm16(s):
    """s's dense amplitudes scaled to norm 16.  Spanning vectors have norm
    1, 4 or 16 and are scaled by 4, 2 or 1, so the outer products of a
    vertex's scaled vectors sum to 16 times its projector."""
    amps = dense_amplitudes(s)
    factor = {1: 4, 4: 2, 16: 1}[sum(re * re + im * im for re, im in amps)]
    return [(factor * re, factor * im) for re, im in amps]


def assert_resolves_identity(vectors):
    """32 pairwise orthogonal vectors whose outer products, each vector
    scaled to norm 16, sum to exactly 16 times the identity; by their
    orthogonality that sum is 16 times the sum of the vertices'
    projectors."""
    assert len(vectors) == 32
    for i, u in enumerate(vectors):
        for w in vectors[i + 1:]:
            assert inner(u, w) == (0, 0)
    assert projector_matrix([norm16(v) for v in vectors]) == SIXTEEN_I


def gaussian_rule_text(a, b):
    """a + b i as text by a literal rule: 0, a, b i, a + b i or a - |b| i."""
    if a == 0 and b == 0:
        return "0"
    if b == 0:
        return f"{a}"
    if a == 0:
        return f"{b} i"
    if b > 0:
        return f"{a} + {b} i"
    return f"{a} - {-b} i"


def knill_laflamme_by_state_vectors(v0, v1, errors):
    """The Knill-Laflamme check by state vectors alone, the oracle for
    stabilizer.knill_laflamme_check's rule: (pairs checked, failures).

    <v_i|Ea·Eb|v_j> = <Ea†v_i|Eb v_j>, and (i**p P)† = i**(-p) P for a
    Hermitian letter part P, so the left images Ea†v_0, Ea†v_1 and the
    right images Eb v_0, Eb v_1 are built once per error and each term is
    one inner product of two of them."""
    errors = list(errors)
    left = [(apply(a, v0), apply(a, v1))
            for a in (PauliString(e.n, -e.phase_exp, e.x, e.z) for e in errors)]
    right = [(apply(e, v0), apply(e, v1)) for e in errors]
    failures = []
    for ea, (l0, l1) in zip(errors, left):
        for eb, (r0, r1) in zip(errors, right):
            off = inner(l0, r1)
            d0 = inner(l0, r0)
            d1 = inner(l1, r1)
            if off != (0, 0) or d0 != d1:
                failures.append({"pair": (str(ea), str(eb)),
                                 "off_diagonal": gaussian_rule_text(*off),
                                 "diag0": gaussian_rule_text(*d0),
                                 "diag1": gaussian_rule_text(*d1)})
    return len(errors) ** 2, failures


def redefine(code, **changes):
    """A new CodeDefinition built by the constructor from code's
    arguments, the given ones changed; it derives its own group and
    codewords."""
    arguments = {"name": code.name, "n": code.n, "generators": code.generators,
                 "correctable": code.correctable, "must_fail": code.must_fail}
    return CodeDefinition(**{**arguments, **changes})


def coinciding(code):
    """code with each generator's codeword-1 sign set to its codeword-0
    sign: every element is sign-stable, so the sign-stable subgroup is the
    whole group and the two codewords coincide."""
    return redefine(code, name=f"{code.name}-coinciding",
                    generators=tuple(g._replace(sign1=g.sign0)
                                     for g in code.generators))


@pytest.fixture(scope="session")
def five():
    return five_qubit_code()


@pytest.fixture(scope="session")
def paper_codewords():
    """{code name: (|0_L>, |1_L>)} as the paper lists them (the five-qubit
    pair times 4): the oracle the derived codewords are checked against."""
    five0 = ([(label, -1) for label in FIVE_MINUS]
             + [(label, 1) for label in FIVE_PLUS])
    steane0 = [(label, 1) for label in STEANE_WORDS]
    return {
        "five": (_listing(5, five0), _listing(5, five0, complemented=True)),
        "mermin": (_listing(3, [("000", 1), ("111", 1)]),
                   _listing(3, [("000", 1), ("111", -1)])),
        "steane": (_listing(7, steane0), _listing(7, steane0, complemented=True)),
    }


@pytest.fixture(scope="session")
def five_listing(paper_codewords):
    return paper_codewords["five"]


@pytest.fixture(scope="session")
def five_group(five):
    return five.group()


@pytest.fixture(scope="session")
def mermin():
    return mermin_code()


@pytest.fixture(scope="session")
def steane():
    return steane_code()


@pytest.fixture(scope="session")
def mermin_peres_square():
    """The classic two-qubit 3x3 square, a small instance of the operator
    array's multiplicative argument: one column multiplies to -I."""
    grid = (("XI", "IX", "XX"),
            ("IZ", "ZI", "ZZ"),
            ("XZ", "ZX", "YY"))
    rows = tuple(tuple(from_letters(cell) for cell in row) for row in grid)
    return OperatorArray(rows=rows,
                         declared_row_signs=(+1, +1, +1),
                         declared_col_signs=(+1, +1, -1))


@pytest.fixture(scope="session")
def ks_vertices():
    return build_ks_set()


@pytest.fixture(scope="session")
def ks_graph(ks_vertices):
    return build_orthogonality_graph(ks_vertices)


@pytest.fixture(scope="session")
def ks_contexts(ks_graph):
    return enumerate_contexts(ks_graph)


@pytest.fixture(scope="session")
def ks_dump_run(tmp_path_factory):
    """One `ks --dump-set PATH --format json` run shared by the CLI tests:
    its exit code, its stdout and the dump's path."""
    path = tmp_path_factory.mktemp("ks") / "ks.json"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["ks", "--dump-set", str(path), "--format", "json"])
    return SimpleNamespace(code=code, out=out.getvalue(), path=path)
