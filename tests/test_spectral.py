"""Split spectra, scaled idempotents and the exponent assumption."""

import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from helpers import (
    hidden,
    integer_roots_divisors,
    local_minimal_polynomial_columns,
    local_minimal_polynomial_fraction,
    minimal_polynomial_columns,
    obj,
    poly_mul,
    random_sl,
    split_spectrum_intmatrix,
    subprocess_env,
    unimodular_inverse,
)

import zconj.spectral as spectral
from zconj.matrix import IntMatrix
from zconj.spectral import (
    AssumptionReport,
    NotSplit,
    _check_projector_identities,
    _integer_roots,
    _local_minimal_polynomial,
    _spectrum_at,
    check_assumption,
    minimal_polynomial,
    quotient_invariants,
    split_spectrum,
)


def test_minimal_polynomial():
    # ascending coefficients, monic
    assert minimal_polynomial(np.eye(3, dtype=np.int64)) == (-1, 1)
    assert minimal_polynomial(np.array([[1, 2], [0, 6]])) == (6, -7, 1)
    assert minimal_polynomial(np.array([[0, 2], [-3, 0]])) == (6, 0, 1)
    assert minimal_polynomial(np.array([[0, 1], [0, 0]])) == (0, 0, 1)
    # minimal, not characteristic: a repeated eigenvalue drops out
    assert minimal_polynomial(np.diag([2, 2, 5])) == (10, -7, 1)


def test_split_spectrum_frozen_example():
    sp = split_spectrum(IntMatrix([[1, 2], [0, 6]]))
    assert sp.eigenvalues == (1, 6)
    assert sp.multiplicities == (1, 1)
    assert sp.scales == (5, 5)
    assert sp.idempotents[0] == IntMatrix([[5, -2], [0, 0]])
    assert sp.idempotents[1] == IntMatrix([[0, 2], [0, 5]])


def test_split_spectrum_scalar():
    sp = split_spectrum(IntMatrix.diagonal([2, 2]))
    assert sp.eigenvalues == (2,)
    assert sp.multiplicities == (2,)
    assert sp.scales == (1,)
    assert sp.idempotents[0] == IntMatrix.identity(2)


def test_split_spectrum_identities():
    rng = random.Random(17)
    for _ in range(40):
        n = rng.randint(2, 5)
        diag = [rng.randint(-5, 5) for _ in range(n)]
        u = random_sl(n, rng, steps=4)
        x = u * IntMatrix.diagonal(diag) * unimodular_inverse(u)
        sp = split_spectrum(x)
        assert sp.eigenvalues == tuple(sorted(set(diag)))
        assert sum(sp.multiplicities) == n
        es = [obj(e) for e in sp.idempotents]
        for e, q, lam in zip(es, sp.scales, sp.eigenvalues):
            assert (e @ e == e * q).all()
            assert (obj(x) @ e == e * lam).all()
        for i in range(len(es)):
            for j in range(i + 1, len(es)):
                assert not (es[i] @ es[j]).any()


def test_not_split():
    with pytest.raises(NotSplit):
        split_spectrum(IntMatrix([[0, 2], [-3, 0]]))  # irrational spectrum
    with pytest.raises(NotSplit):
        split_spectrum(IntMatrix([[0, 1], [0, 0]]))  # nilpotent, not semisimple


def test_check_assumption_fails_on_trivial_smith_groups():
    rep = check_assumption(IntMatrix([[1, 2], [0, 6]]))
    assert rep.clause_a is False and rep.clause_b is False
    assert rep.holds is False
    assert rep.per_index == ((5, 1, 1), (5, 1, 1))


def test_check_assumption_identity():
    rep = check_assumption(IntMatrix.identity(4))
    assert rep.clause_a is True and rep.holds
    assert rep.per_index == ((1, 1, 4),)


def test_check_assumption_conjugation_invariant():
    rng = random.Random(3)
    for _ in range(30):
        n = rng.randint(2, 4)
        vals = rng.sample(range(-4, 8), rng.randint(1, n))
        diag = [rng.choice(vals) for _ in range(n)]
        for v in vals:
            if v not in diag:
                diag[rng.randrange(n)] = v
        x = IntMatrix.diagonal(sorted(diag))
        u = random_sl(n, rng)
        y = u * x * unimodular_inverse(u)
        ra, rb = check_assumption(x), check_assumption(y)
        assert ra.clause_a == rb.clause_a
        assert ra.clause_b == rb.clause_b
        assert sorted(ra.per_index) == sorted(rb.per_index)


def test_assumption_report_json_round_trip():
    rep = check_assumption(IntMatrix([[1, 2], [0, 6]]))
    assert AssumptionReport.from_json_obj(rep.to_json_obj()) == rep


def test_quotient_invariants():
    assert quotient_invariants(IntMatrix([[0, 2], [0, 5]]), 5) == (5,)
    assert quotient_invariants(IntMatrix.diagonal([1, 3, 3, 9]), 9) == (9, 3, 3, 1)
    assert quotient_invariants(IntMatrix.identity(3), 1) == (1, 1, 1)


def test_minimal_polynomial_matches_fraction_oracle(monkeypatch):
    # each Krylov dependency on a vector, then the whole polynomial
    # against the rational oracle run from the identity matrix
    rng = random.Random(31)
    cases = []
    for _ in range(80):
        n = rng.randint(1, 7)
        if rng.random() < 0.5:
            diag = [rng.randint(-3, 3) for _ in range(n)]
            u = random_sl(n, rng)
            x = u * IntMatrix.diagonal(diag) * unimodular_inverse(u)
        else:
            bound = rng.choice((2, 2**40))
            x = IntMatrix([[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)])
        w = [rng.randint(-3, 3) for _ in range(n)]
        w[rng.randrange(n)] = 1
        assert _local_minimal_polynomial(x.array, w) == local_minimal_polynomial_fraction(x.array, w)
        cases.append((x, minimal_polynomial(x.array)))
    monkeypatch.setattr(spectral, "_local_minimal_polynomial", local_minimal_polynomial_fraction)
    for x, mu in cases:
        assert minimal_polynomial(x.array) == mu


def test_integer_roots_match_divisor_oracle():
    # repeated roots, the root 0 and factors without integer roots
    rng = random.Random(32)
    for _ in range(600):
        f = (1,)
        for _ in range(rng.randint(0, 5)):
            f = poly_mul(f, (-rng.randint(-12, 12), 1))
        for _ in range(rng.randint(0, 2)):
            f = poly_mul(f, tuple(rng.randint(-9, 9) for _ in range(rng.randint(1, 3))) + (1,))
        if abs(f[0]) > 10**6:
            continue
        assert _integer_roots(f) == integer_roots_divisors(f), f
    # constant terms whose divisors trial division could not enumerate
    big = 3**40
    assert _integer_roots((0, -big, 1)) == ([0, big], True)
    assert _integer_roots(poly_mul((-big, 1), (1, 0, 1))) == ([big], False)
    assert _integer_roots(poly_mul((big * 7, 1), (-big, 1))) == ([big, -7 * big], True)


def _spectrum_cases(rng):
    """Matrices for the spectrum path, split or not, n 1-9."""
    for _ in range(90):  # hidden diagonal
        n = rng.randint(1, 9)
        vals = rng.sample(range(-9, 10), rng.randint(1, min(n, 5)))
        yield hidden(IntMatrix.diagonal(vals + rng.choices(vals, k=n - len(vals))), rng)
    for n in range(1, 10):  # scalar
        yield IntMatrix.diagonal([rng.randint(-6, 6)] * n)
    for _ in range(40):  # a 2 x 2 Jordan block, nilpotent when a = 0, beside a diagonal part
        a = rng.randint(-3, 3)
        rows = IntMatrix.diagonal([a, a] + rng.choices(range(-3, 4), k=rng.randint(0, 7))).to_lists()
        rows[0][1] = 1
        yield hidden(IntMatrix(rows), rng)
    for _ in range(40):  # no integer spectrum, mostly
        n = rng.randint(1, 9)
        yield IntMatrix([[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)])
    for _ in range(20):  # x^2 - 2 or x^2 + 1 beside a diagonal part
        rows = IntMatrix.diagonal([0, 0] + rng.choices(range(-3, 4), k=rng.randint(0, 7))).to_lists()
        rows[0][1], rows[1][0] = 1, rng.choice((2, -1))
        yield hidden(IntMatrix(rows), rng)
    for _ in range(20):  # entries past 2^40: object products
        n = rng.randint(1, 6)
        vals = [rng.randint(-(2**40), 2**40) for _ in range(rng.randint(1, n))]
        yield hidden(IntMatrix.diagonal(vals + rng.choices(vals, k=n - len(vals))), rng)
        yield IntMatrix([[rng.randint(-(2**40), 2**40) for _ in range(n)] for _ in range(n)])


def test_split_spectrum_matches_intmatrix_reference():
    # one Krylov sequence and array projectors against the column loop
    # with Horner evaluations and object-array projectors checked pairwise
    rng = random.Random(41)
    outcomes = {"split": 0, "not split": 0}
    for x in _spectrum_cases(rng):
        assert minimal_polynomial(x.array) == minimal_polynomial_columns(x)
        try:
            want = split_spectrum_intmatrix(x)
        except NotSplit as exc:
            with pytest.raises(NotSplit) as got:
                split_spectrum(x)
            assert str(got.value) == str(exc)
            outcomes["not split"] += 1
            continue
        got = split_spectrum(x)
        assert got == want
        assert [e.array.dtype for e in got.idempotents] == [e.array.dtype for e in want.idempotents]
        outcomes["split"] += 1
    assert sum(outcomes.values()) >= 200
    assert min(outcomes.values()) >= 60


@pytest.mark.parametrize("scale", (1, 2**40))
def test_projector_identities_catch_each_tampered_family(scale):
    # eigenvalues -2, 1, 3 with multiplicities 2, 1, 1, the last two
    # sharing a scale; scaled by 2^40 the check runs on Python ints
    x = hidden(IntMatrix.diagonal([-2 * scale, scale, -2 * scale, 3 * scale]), random.Random(5))
    sp = split_spectrum(x)
    assert sp.multiplicities == (2, 1, 1) and sp.scales[1] == sp.scales[2]
    es = [e.array for e in sp.idempotents]
    args = (x.array, sp.eigenvalues, tuple(es), sp.scales, sp.multiplicities)
    assert _check_projector_identities(*args) is True

    def tampered(i, value):
        return args[:i] + (value,) + args[i + 1 :]

    cases = [
        tampered(2, (obj(es[0]) * 2, es[1], es[2])),  # (2 E_0)^2 = 2 q_0 (2 E_0)
        tampered(1, (sp.eigenvalues[0] + 1,) + sp.eigenvalues[1:]),  # X E_0 != a_0 E_0
        tampered(2, (es[0], obj(es[1]) + obj(es[2]), es[2])),  # E_1 E_2 != 0
        # E_2 left out, its multiplicity given to E_1: only the sum fails
        (x.array, sp.eigenvalues[:2], tuple(es[:2]), sp.scales[:2], (2, 2)),
        tampered(4, (3, 1, 1)),  # multiplicities sum to n + 1
        # X = I with the eigenvalue 1 listed twice: X E_i = E_i and the sum
        # hold, yet E_0 E_1 = diag(-2, 0); only distinct eigenvalues give
        # E_i E_j = 0
        (np.eye(2, dtype=np.int64), (1, 1), (np.diag([2, 0]), np.diag([-1, 1])), (1, 1), (2, 0)),
    ]
    for case in cases:
        assert _check_projector_identities(*case) is False


def last_identity_tampers(x, sp):
    """Arguments of _check_projector_identities for which only the last
    eigenvalue's linear identity can object: X E_i = a_i E_i for i < k
    and the sum identity hold, and X E_k != a_k E_k."""
    es, qs, last = [obj(e.array) for e in sp.idempotents], sp.scales, len(sp.idempotents) - 1
    wrong = sp.eigenvalues[:-1] + (sp.eigenvalues[-1] + 1,)
    cases = [(x.array, wrong, tuple(es), qs, sp.multiplicities)]
    # E_i + q_i M and E_k - q_k M keep sum (L/q_i) E_i; with M = E_i,
    # X E_i = a_i E_i still holds, while X E_k = a_k E_k fails
    for i in range(last):
        moved = list(es)
        moved[i], moved[last] = es[i] + qs[i] * es[i], es[last] - qs[last] * es[i]
        cases.append((x.array, sp.eigenvalues, tuple(moved), qs, sp.multiplicities))
    return cases


@pytest.mark.parametrize("scale", (1, 2**40))
@pytest.mark.parametrize("entries", ([0, 3, 0, 0], [-2, 1, -2, 3]))
def test_last_eigenvalue_identity_catches_tampering(entries, scale):
    # k = 2 and k = 3; scaled by 2^40 the identity runs on Python ints
    x = hidden(IntMatrix.diagonal([v * scale for v in entries]), random.Random(7))
    sp = split_spectrum(x)
    assert len(sp.eigenvalues) == len(set(entries))
    cases = last_identity_tampers(x, sp)
    for xa, eigenvalues, es, qs, mults in cases:
        big = np.lcm.reduce(np.array(qs, dtype=object))
        assert (sum(e * (big // q) for e, q in zip(es, qs)) == big * np.eye(len(xa), dtype=object)).all()
        assert all((obj(xa).dot(e) == a * e).all() for a, e in zip(eigenvalues[:-1], es[:-1]))
        assert not (obj(xa).dot(es[-1]) == eigenvalues[-1] * es[-1]).all()
        assert _check_projector_identities(xa, eigenvalues, es, qs, mults) is False
    args = (x.array, sp.eigenvalues, tuple(e.array for e in sp.idempotents), sp.scales, sp.multiplicities)
    assert _check_projector_identities(*args) is True


def test_last_eigenvalue_identity_survives_optimize():
    code = (
        "assert False, 'asserts are live'\n"
        "import random\n"
        "from test_spectral import last_identity_tampers, hidden, IntMatrix, split_spectrum\n"
        "from zconj.spectral import _check_projector_identities as check\n"
        "x = hidden(IntMatrix.diagonal([-2, 1, -2, 3]), random.Random(7))\n"
        "print(*(check(*case) for case in last_identity_tampers(x, split_spectrum(x))))\n"
    )
    tests = Path(__file__).resolve().parent
    r = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True, env=subprocess_env(), cwd=tests)
    assert r.returncode == 0, r.stderr
    assert r.stdout.split() == ["False"] * 3


def _companion(poly):
    """The companion matrix of a monic polynomial, as rows."""
    k = len(poly) - 1
    return [[int(i == j + 1) for j in range(k - 1)] + [-poly[i]] for i in range(k)]


def test_minimal_polynomial_matches_size_two_krylov_oracle():
    # degree k from 1 to 5 in n from 1 to 9: a companion block of f beside
    # blocks whose minimal polynomials divide f, hidden by SL_n(Z); the
    # oracle's Krylov batches still double from two
    rng = random.Random(43)
    degrees = set()
    for _ in range(150):
        k = rng.randint(1, 5)
        # k integer roots, or k - 2 and a quadratic factor without real roots
        roots = [rng.randint(-4, 4) for _ in range(k - 2 * (k >= 2 and rng.random() < 0.5))]
        f = (1,)
        for r in roots:
            f = poly_mul(f, (-r, 1))
        if len(roots) < k:
            f = poly_mul(f, (rng.choice((2, 3)), rng.randint(-2, 2), 1))
        blocks, size, n = [_companion(f)], k, rng.randint(k, 9)
        while True:
            options = [[[r]] for r in roots] + ([_companion(f)] if size + k <= n else [])
            if size == n or not options:
                break
            blocks.append(rng.choice(options))
            size += len(blocks[-1])
        rows = [[0] * size for _ in range(size)]
        off = 0
        for b in blocks:
            for i, row in enumerate(b):
                rows[off + i][off : off + len(b)] = row
            off += len(b)
        x = hidden(IntMatrix(rows), rng, steps=2 * size)
        assert minimal_polynomial(x.array) == minimal_polynomial_columns(x) == f
        w = [rng.randint(-2, 2) for _ in range(size)]
        w[rng.randrange(size)] = 1
        assert _local_minimal_polynomial(x.array, w) == local_minimal_polynomial_columns(x, w)
        degrees.add((size, k))
    assert {k for _, k in degrees} == {1, 2, 3, 4, 5}
    assert {n for n, _ in degrees} == set(range(1, 10))


def _same_spectrum(got, want):
    assert got == want
    assert [e.array.dtype for e in got.idempotents] == [e.array.dtype for e in want.idempotents]


def test_spectrum_at_equals_split_spectrum():
    # y hidden from x, or with x's eigenvalue set in other multiplicities;
    # entries past 2^40 take the object routes
    rng = random.Random(47)
    for _ in range(60):
        n = rng.randint(1, 8)
        scale = rng.choice((1, 1, 2**40))
        vals = [scale * v for v in rng.sample(range(-9, 10), rng.randint(1, min(n, 4)))]
        x = hidden(IntMatrix.diagonal(vals + rng.choices(vals, k=n - len(vals))), rng)
        for y in (hidden(x, rng), hidden(IntMatrix.diagonal(vals + rng.choices(vals, k=n - len(vals))), rng)):
            sp = _spectrum_at(y, split_spectrum(x).eigenvalues)
            _same_spectrum(sp, split_spectrum(y))


def test_spectrum_at_falls_back():
    # not diagonalizable with x's characteristic polynomial, a proper
    # subset of x's eigenvalues, not split, and a 2 x 2 Jordan block
    rng = random.Random(53)
    cases = [
        (IntMatrix.diagonal([1, 1, 2]), IntMatrix([[1, 1, 0], [0, 1, 0], [0, 0, 2]])),
        (IntMatrix.diagonal([0, 1, 2]), hidden(IntMatrix.diagonal([0, 0, 1]), rng)),
        (IntMatrix.diagonal([0, 1, 2]), IntMatrix.diagonal([1, 1, 1])),
        (IntMatrix.diagonal([1, -1]), IntMatrix([[0, 1], [-1, 0]])),
        (IntMatrix.diagonal([1, -1]), IntMatrix([[0, 2], [-3, 0]])),
        (IntMatrix.diagonal([1, 1]), IntMatrix([[1, 1], [0, 1]])),
    ]
    for x, y in cases:
        assert _spectrum_at(hidden(y, rng), split_spectrum(x).eigenvalues) is None
