"""Conjugacy decisions: lattices, local tests, search, certificates."""

import random
import subprocess
import sys

import pytest
from helpers import (
    random_sl,
    random_split_conjugate,
    same_span,
    subprocess_env,
    unimodular_inverse,
)

from zconj.conjugacy import (
    DetNotOne,
    IntertwinerLattice,
    RankMismatch,
    _eigenblock_basis,
    _sylvester_basis,
    bqf_from_lattice,
    conjugator_search,
    decide,
    intertwiner_lattice,
    local_test,
    relevant_primes,
    sl_lift,
    verify_conjugator,
)
from zconj.linalg import det, snf_invariants
from zconj.matrix import IntMatrix
from zconj.spectral import NotSplit, check_assumption, split_spectrum

X1 = IntMatrix([[0, 2], [-3, 0]])
Y1 = IntMatrix([[0, 1], [-6, 0]])
X2 = IntMatrix([[1, 2], [0, 6]])
Y2 = IntMatrix([[1, 1], [0, 6]])


def flatten(basis):
    return [[v for row in b.rows for v in row] for b in basis]


def test_intertwiner_lattice_frozen():
    lat1 = intertwiner_lattice(X1, Y1)
    assert lat1.rank == 2
    # solutions of T X1 = Y1 T are exactly [[a, b], [-3b, 2a]]
    expected = [IntMatrix([[1, 0], [0, 2]]), IntMatrix([[0, 1], [-3, 0]])]
    assert same_span(list(lat1.basis), expected)
    for t in lat1.basis:
        assert t * X1 == Y1 * t

    lat2 = intertwiner_lattice(X2, Y2)
    assert lat2.rank == 2
    assert same_span(
        list(lat2.basis), [IntMatrix([[1, 0], [0, 2]]), IntMatrix([[0, 1], [0, 5]])]
    )

    assert intertwiner_lattice(IntMatrix.identity(2), IntMatrix.identity(2)).rank == 4


def test_intertwiner_lattice_saturated():
    for x, y in ((X1, Y1), (X2, Y2), (IntMatrix.identity(2), IntMatrix.identity(2))):
        lat = intertwiner_lattice(x, y)
        assert all(v == 1 for v in snf_invariants(IntMatrix(flatten(lat.basis))))


def test_intertwiner_lattice_partial_spectrum():
    assert intertwiner_lattice(IntMatrix.diagonal([1, 2]), IntMatrix.diagonal([3, 4])).rank == 0
    lat = intertwiner_lattice(IntMatrix.diagonal([1, 2]), IntMatrix.diagonal([2, 3]))
    assert lat.rank == 1
    sv = _sylvester_basis(IntMatrix.diagonal([1, 2]), IntMatrix.diagonal([2, 3]))
    assert same_span(list(lat.basis), sv)


def test_eigenblock_matches_sylvester():
    rng = random.Random(13)
    for _ in range(20):
        n = rng.randint(2, 4)
        x = IntMatrix.diagonal([rng.randint(-6, 6) for _ in range(n)])
        u = random_sl(n, rng, steps=4)
        y = u * x * unimodular_inverse(u)
        try:
            spx, spy = split_spectrum(x), split_spectrum(y)
        except NotSplit:
            continue
        lattice = _eigenblock_basis(x, y, spx, spy)
        eb = list(lattice.basis)
        sv = _sylvester_basis(x, y)
        assert len(eb) == len(sv)
        assert same_span(eb, sv)
        if lattice.aligned is not None:
            assert verify_conjugator(lattice.aligned, x, y)


def test_verify_conjugator_frozen():
    t2 = IntMatrix([[0, -1], [3, 0]])
    assert verify_conjugator(t2, X1, Y1, prime=2)
    assert not verify_conjugator(t2, X1, Y1, prime=3)  # det 3 is not a 3-adic unit
    assert not verify_conjugator(t2, X1, Y1)  # nor a global unit
    tp = IntMatrix([[1, 0], [0, 2]])
    assert verify_conjugator(tp, X1, Y1, prime=3)
    assert verify_conjugator(tp, X1, Y1, prime=5)
    assert verify_conjugator(IntMatrix([[-1, 1], [0, 3]]), X2, Y2, prime=2)


def test_relevant_primes():
    def primes_of(entries):
        return relevant_primes(split_spectrum(IntMatrix.diagonal(entries)))

    assert primes_of([1, 6]) == [5]
    assert primes_of([4, 1, -2]) == [2, 3]
    assert primes_of([0, 1]) == []


def test_local_test_finds_certificates():
    for x, y, p in ((X2, Y2, 5), (X1, Y1, 3), (X1, Y1, 2)):
        v = local_test(x, y, p)
        assert v.status == "PASS"
        assert verify_conjugator(v.certificate, x, y, prime=p)


def test_local_test_fail_is_exhaustive():
    v = local_test(IntMatrix.diagonal([1, 2]), IntMatrix.diagonal([1, 3]), 2)
    assert v.status == "FAIL"
    assert v.method == "exhaustive"


def test_sl_lift():
    m = IntMatrix([[3, 0], [0, 2]])
    lifted = sl_lift(m, 5)
    assert det(lifted) == 1
    assert all((lifted[i, j] - m[i, j]) % 5 == 0 for i in range(2) for j in range(2))


def test_sl_lift_rejects_nonunit_det():
    with pytest.raises(DetNotOne):
        sl_lift(IntMatrix([[2, 0], [0, 2]]), 5)


def test_sl_lift_random():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(1, 5)
        q = rng.randint(2, 36)
        w = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        for _ in range(rng.randint(0, 12)):
            i, j = rng.randrange(n), rng.randrange(n)
            if i == j:
                continue
            lam = rng.randrange(q)
            for t in range(n):
                w[i][t] = (w[i][t] + lam * w[j][t]) % q
        m = IntMatrix(w)
        lifted = sl_lift(m, q)
        assert det(lifted) == 1
        assert all(
            (lifted[i, j] - m[i, j]) % q == 0 for i in range(n) for j in range(n)
        )


def test_bqf_from_lattice_frozen():
    basis1 = (IntMatrix([[1, 0], [0, 2]]), IntMatrix([[0, 1], [-3, 0]]))
    f1 = bqf_from_lattice(IntertwinerLattice(2, basis1, X1, Y1))
    assert (f1.a, f1.b, f1.c) == (2, 0, 3)
    assert f1.discriminant == -24

    basis2 = (IntMatrix([[1, 0], [0, 2]]), IntMatrix([[0, 1], [0, 5]]))
    f2 = bqf_from_lattice(IntertwinerLattice(2, basis2, X2, Y2))
    assert (f2.a, f2.b, f2.c) == (2, 5, 0)
    assert f2.discriminant == 25

    with pytest.raises(RankMismatch):
        bqf_from_lattice(intertwiner_lattice(IntMatrix.identity(2), IntMatrix.identity(2)))


def test_decide_first_pair():
    v = decide(X1, Y1)
    assert v.status == "NOT_CONJUGATE"
    assert v.reason == "bqf-certificate"
    assert v.bqf is not None
    assert v.bqf_proof is not None and not v.bqf_proof.represents
    assert v.bqf_proof.proof == "definite-minimum"
    obj = v.to_json_obj()
    assert obj["status"] == "NOT_CONJUGATE"
    assert "bqf" in obj["certificates"]


def test_decide_second_pair():
    v = decide(X2, Y2)
    assert v.status == "NOT_CONJUGATE"
    assert v.reason == "bqf-certificate"
    assert v.bqf_proof is not None and v.bqf_proof.proof == "factor-system"
    # the exponent assumption fails here, so the form endgame ran
    assert v.assumption is not None and not v.assumption.holds
    assert len(v.local) == 1
    assert v.local[0].prime == 5 and v.local[0].status == "PASS"


def test_decide_charpoly_mismatch():
    v = decide(IntMatrix.diagonal([1, 2]), IntMatrix.diagonal([1, 3]))
    assert v.status == "NOT_CONJUGATE"
    assert v.reason == "charpoly-mismatch"


def test_decide_identical_input():
    v = decide(X1, X1)
    assert v.status == "CONJUGATE"
    assert v.conjugator == IntMatrix.identity(2)


def test_decide_conjugate_pairs_explicit():
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randint(2, 6)
        x = random_split_conjugate(n, rng)
        u = random_sl(n, rng)
        y = u * x * unimodular_inverse(u)
        v = decide(x, y)
        assert v.status == "CONJUGATE"
        assert v.conjugator is not None
        assert verify_conjugator(v.conjugator, x, y)


def test_decide_swapped_route():
    # only Y meets the exponent condition, so the pair cannot be conjugate
    x = IntMatrix([[-3, 2], [0, 3]])
    y = IntMatrix.diagonal([-3, 3])
    assert check_assumption(x).per_index != check_assumption(y).per_index
    v = decide(x, y)
    assert v.swapped and v.to_json_obj()["swapped"] is True
    assert v.status == "NOT_CONJUGATE"
    assert v.reason == "local-obstruction"
    by_prime = {lv.prime: lv for lv in v.local}
    assert by_prime[2].status == "PASS"
    assert verify_conjugator(by_prime[2].certificate, x, y, prime=2)
    assert by_prime[3].status == "FAIL"


def test_certificate_checks_survive_optimize():
    # under python -O a failed re-check must still raise, not be skipped
    code = (
        "import zconj.conjugacy as c\n"
        "from zconj.matrix import IntMatrix\n"
        "assert False, 'asserts are live'\n"
        "c.verify_conjugator = lambda *args, **kwargs: False\n"
        "try:\n"
        "    c.decide(IntMatrix([[1, 2], [0, 3]]), IntMatrix.diagonal([1, 3]))\n"
        "except c.CertificateError:\n"
        "    print('CertificateError')\n"
    )
    r = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True,
        text=True,
        env=subprocess_env(),
    )
    assert r.returncode == 0, r.stderr
    assert r.stdout == "CertificateError\n"


def test_conjugator_search_adjacency_route():
    # a 5-cycle against a relabeling: the search walks the graph
    # isomorphism route and returns a permutation matrix
    c5 = [[0] * 5 for _ in range(5)]
    for i in range(5):
        c5[i][(i + 1) % 5] = 1
        c5[(i + 1) % 5][i] = 1
    x = IntMatrix(c5)
    perm = [2, 0, 3, 1, 4]
    p_rows = [[0] * 5 for _ in range(5)]
    for u in range(5):
        p_rows[perm[u]][u] = 1
    p = IntMatrix(p_rows)
    y = p * x * unimodular_inverse(p)
    t = conjugator_search(intertwiner_lattice(x, y))
    assert t is not None
    assert verify_conjugator(t, x, y)
    assert all(v in (0, 1) for row in t.rows for v in row)


def test_decide_non_square_rejected():
    with pytest.raises(ValueError):
        decide(IntMatrix([[1, 2]]), IntMatrix([[1], [2]]))
