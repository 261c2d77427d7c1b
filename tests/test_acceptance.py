"""Acceptance suite: one test per shipped claim, budgets pinned.

Each test states a complete end-to-end claim about the package: the
two small non-conjugate pairs with their certificates, the nine,
forty-nine and 121 vertex graph pairs, the invariant lemma, the Jacobi sum
valuations, and the randomized property suites.  Wall-clock budgets
are asserted where a claim includes one.
"""

import hashlib
import json
import random
import resource
import time
from collections import Counter

from helpers import (
    factor_powers,
    gcd_minor_invariants,
    obj,
    random_sl,
    random_split_conjugate,
    unimodular_inverse,
)

import pytest

from zconj.conjugacy import (
    bqf_from_lattice,
    decide,
    intertwiner_lattice,
    relevant_primes,
    sl_lift,
    verify_conjugator,
)
from zconj.corpus import load_corpus
from zconj.forms import BinaryQuadraticForm, bqf_represents_unit
from zconj.graphs import (
    expected_invariant_counts,
    field_build,
    paley_adjacency,
    peisert_adjacency,
    verify_smith_lemma,
)
from zconj.linalg import det, kernel_basis, snf_invariants
from zconj.matrix import IntMatrix
from zconj.padic import TruncatedUnramifiedRing, c_of_j, jacobi_sum
from zconj.spectral import NotSplit, check_assumption, split_spectrum

X1 = IntMatrix([[0, 2], [-3, 0]])
Y1 = IntMatrix([[0, 1], [-6, 0]])
X2 = IntMatrix([[1, 2], [0, 6]])
Y2 = IntMatrix([[1, 1], [0, 6]])


@pytest.fixture(scope="module")
def corpus():
    return load_corpus()


def split_corpus_matrices(corpus):
    out = []
    for fx in corpus:
        for m in (fx.x, fx.y):
            try:
                out.append((fx.name, split_spectrum(m)))
            except NotSplit:
                continue
    return out


def test_criterion_1_irrational_pair_blocked_by_definite_form():
    t0 = time.monotonic()
    verdict = decide(X1, Y1)
    assert verdict.status == "NOT_CONJUGATE"
    assert verdict.reason == "bqf-certificate"
    # the obstruction is the class of 2x^2 + 3y^2, which represents
    # no unit; reduced forms are compared to absorb basis choice
    reduced, _ = verdict.bqf.reduced()
    expected, _ = BinaryQuadraticForm(2, 0, 3).reduced()
    assert (reduced.a, abs(reduced.b), reduced.c) == (expected.a, abs(expected.b), expected.c)
    assert verdict.bqf_proof is not None and not verdict.bqf_proof.represents
    # the pair is still conjugate over every localization
    assert verify_conjugator(IntMatrix([[0, -1], [3, 0]]), X1, Y1, prime=2)
    diag12 = IntMatrix.diagonal([1, 2])
    assert verify_conjugator(diag12, X1, Y1, prime=3)
    assert verify_conjugator(diag12, X1, Y1, prime=5)
    assert time.monotonic() - t0 < 1.0


def test_criterion_2_split_pair_blocked_by_factor_system():
    t0 = time.monotonic()
    report = check_assumption(X2)
    assert not report.holds  # both idempotents have Smith exponent 1 != 5
    assert report.per_index == ((5, 1, 1), (5, 1, 1))
    # two eigenvalues: the glue route decides, class 2 against 1 mod 5
    verdict = decide(X2, Y2)
    assert (verdict.status, verdict.reason) == ("NOT_CONJUGATE", "glue-invariant")
    assert [side[-1] for side in verdict.glue] == [2, 1]
    # the fixture's form 2x^2 + 5xy, recomputed, represents no unit
    form = bqf_from_lattice(intertwiner_lattice(X2, Y2))
    assert (form.a, form.b, form.c) == (2, 5, 0)
    rep = bqf_represents_unit(form)
    assert not rep.represents and rep.proof == "factor-system"
    assert verify_conjugator(IntMatrix([[-1, 1], [0, 3]]), X2, Y2, prime=2)
    assert time.monotonic() - t0 < 1.0


def test_criterion_3_nine_vertex_pair_explicit_conjugator():
    t0 = time.monotonic()
    f9 = field_build(3, 2)
    x9, xs9 = paley_adjacency(f9), peisert_adjacency(f9)
    assert check_assumption(x9).clause_b
    verdict = decide(x9, xs9)
    assert verdict.status == "CONJUGATE"
    t = verdict.conjugator
    assert t is not None
    assert verify_conjugator(t, x9, xs9)
    assert t * x9 == xs9 * t and abs(det(t.array)) == 1
    # the search lands on a vertex relabeling
    assert all(sorted(row) == [0] * 8 + [1] for row in t.to_lists())
    assert time.monotonic() - t0 < 10.0


def test_criterion_4_forty_nine_vertex_pair_by_theorem():
    t0 = time.monotonic()
    f49 = field_build(7, 2)
    x49, xs49 = paley_adjacency(f49), peisert_adjacency(f49)
    verdict = decide(x49, xs49)
    assert verdict.status == "CONJUGATE"
    # decided by the local-global theorem, no 49x49 conjugator needed
    assert verdict.reason == "theorem+local-passes"
    assert verdict.assumption is not None and verdict.assumption.clause_b
    primes = relevant_primes(split_spectrum(x49))
    assert [v.prime for v in verdict.local] == primes
    assert all(v.status == "PASS" for v in verdict.local)
    for v in verdict.local:
        assert verify_conjugator(v.certificate, x49, xs49, prime=v.prime)
    assert time.monotonic() - t0 < 300.0


def test_criterion_4b_one_hundred_twenty_one_vertex_pair_by_theorem():
    # 7-8 s wall and a peak RSS of about 0.57 GB on a 2-core host with one
    # BLAS thread; the time budget leaves room for slower runners, and the
    # RSS bound catches a dense m x m basis (0.42 GB at m = 7,201) coming
    # back.  The digest of the verdict JSON pins its certificates as
    # test_digests does
    t0 = time.monotonic()
    f121 = field_build(11, 2)
    x121, xs121 = paley_adjacency(f121), peisert_adjacency(f121)
    verdict = decide(x121, xs121)
    digest = hashlib.sha256(json.dumps(verdict.to_json_obj(), sort_keys=True).encode()).hexdigest()
    assert digest == "d54a502664db51d982d4ae7d5d3007ad04f87fd0d9e7dc68399b4a4592901ba8"
    assert verdict.status == "CONJUGATE"
    assert verdict.reason == "theorem+local-passes"
    assert [v.prime for v in verdict.local] == relevant_primes(split_spectrum(x121)) == [2, 3, 5, 11]
    assert all(v.status == "PASS" for v in verdict.local)
    for v in verdict.local:
        assert verify_conjugator(v.certificate, x121, xs121, prime=v.prime)
    assert time.monotonic() - t0 < 120.0
    assert resource.getrusage(resource.RUSAGE_SELF).ru_maxrss < 800 * 1024  # KiB


def test_criterion_5_invariant_multisets():
    for p in (3, 7):
        report = verify_smith_lemma(p)
        assert report.ok
    t0 = time.monotonic()
    report = verify_smith_lemma(11)
    assert report.ok
    assert time.monotonic() - t0 < 120.0
    # n = 529, 142 pivots at level 1: 0.16 s on a 2-core host, where the
    # row-at-a-time eliminator took 0.7-0.9 s
    t0 = time.monotonic()
    report = verify_smith_lemma(23)
    assert report.ok
    assert time.monotonic() - t0 < 2.0
    assert expected_invariant_counts(23) == (1, 142, 121)
    for p in (3, 7, 11, 23):
        ones, ps, p2s = expected_invariant_counts(p)
        assert (ones, ps, p2s) == (1, (p + 1) ** 2 // 4 - 2, (p - 1) ** 2 // 4)
        expected = (1,) * ones + (p,) * ps + (p * p,) * p2s
        for entry in (report if p == 23 else verify_smith_lemma(p)).entries:
            assert entry.invariants == expected


def test_criterion_6_jacobi_valuations():
    t0 = time.monotonic()
    for p in (3, 7):
        ring = TruncatedUnramifiedRing(p)
        k = (ring.q - 1) // 2
        records = {j: jacobi_sum(j, ring) for j in range(1, 2 * k)}
        p_squared = ring.element(p * p, 0)
        for j in range(1, k):
            assert ring.mul(records[j].alpha, records[j + k].alpha) == p_squared
            assert records[j].valuation == c_of_j(j, p)
        counts = Counter(records[j].valuation for j in range(1, k))
        assert counts[0] == ((p + 1) // 2) ** 2 - 2
        assert counts[1] == ((p - 1) // 2) ** 2
    assert time.monotonic() - t0 < 30.0


def test_criterion_7a_snf_property_suite():
    rng = random.Random(101)
    for _ in range(500):
        nrows, ncols = rng.randint(1, 4), rng.randint(1, 4)
        m = IntMatrix(
            [[rng.randint(-5, 5) for _ in range(ncols)] for _ in range(nrows)]
        )
        invariants = snf_invariants(m)
        for a, b in zip(invariants, invariants[1:]):
            assert b % a == 0
        assert invariants == gcd_minor_invariants(m)


def test_criterion_7b_sl_lift_property_suite():
    rng = random.Random(103)
    for _ in range(200):
        n = rng.randint(1, 5)
        q = rng.randint(2, 36)
        rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        for _ in range(rng.randint(0, 12)):
            i, j = rng.randrange(n), rng.randrange(n)
            if i == j:
                continue
            lam = rng.randrange(q)
            for t in range(n):
                rows[i][t] = (rows[i][t] + lam * rows[j][t]) % q
        m = IntMatrix(rows)
        lifted = sl_lift(m, q)
        assert det(lifted.array) == 1
        assert all(
            (lifted[i, j] - m[i, j]) % q == 0 for i in range(n) for j in range(n)
        )


def test_criterion_7c_decide_property_suite():
    rng = random.Random(107)
    for _ in range(100):
        n = rng.randint(2, 6)
        x = random_split_conjugate(n, rng)
        u = random_sl(n, rng)
        y = u * x * unimodular_inverse(u)
        verdict = decide(x, y)
        assert verdict.status == "CONJUGATE"
        assert verdict.conjugator is not None
        assert verify_conjugator(verdict.conjugator, x, y)


def test_criterion_7d_idempotent_identities_on_fixtures(corpus):
    seen = 0
    for name, spectrum in split_corpus_matrices(corpus):
        n = spectrum.n
        idem = [obj(e) for e in spectrum.idempotents]
        for e, q, mult in zip(idem, spectrum.scales, spectrum.multiplicities):
            assert (e @ e == e * q).all()
            # rank checked independently through the kernel
            assert n - len(kernel_basis(e)) == mult
        for i in range(len(idem)):
            for j in range(i + 1, len(idem)):
                assert not (idem[i] @ idem[j]).any()
        assert sum(spectrum.multiplicities) == n
        seen += 1
    assert seen >= 4  # both order-9 graphs and the split 2x2 pair


def test_criterion_8_quotient_invariants_consistent(corpus):
    from zconj.modular import scaled_idempotent_invariants
    from zconj.spectral import quotient_invariants

    seen = 0
    for name, spectrum in split_corpus_matrices(corpus):
        for e, q, mult in zip(
            spectrum.idempotents, spectrum.scales, spectrum.multiplicities
        ):
            divisors = scaled_idempotent_invariants(e.array, q)
            quotients = quotient_invariants(e, q)
            assert len(divisors) == len(quotients) == mult
            for d, m in zip(divisors, quotients):
                assert q % d == 0  # m_j = q_i / d_j is integral
                assert m * d == q
            factors = factor_powers(q)
            if len(factors) == 1 and q > 1:
                p, exponent = factors[0]

                def vp(x):
                    v = 0
                    while x % p == 0:
                        x //= p
                        v += 1
                    return v

                total = sum(vp(m) + vp(d) for d, m in zip(divisors, quotients))
                assert total == mult * exponent
            seen += 1
    assert seen >= 8
