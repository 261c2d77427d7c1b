"""Exact linear algebra: HNF, Smith invariants, kernels, determinants, LLL."""

import ast
import random
from fractions import Fraction
from math import prod

import numpy as np
from helpers import (
    SRC,
    bareiss_step_maxima,
    charpoly_intmatrix,
    det_small,
    gcd_minor_invariants,
    hidden,
    kernel_basis_fraction,
    lattice_hnf,
    lll_fraction,
    obj,
    rref_fraction,
    same_span,
)

from zconj import linalg
from zconj.linalg import (
    _kernel_basis_rref,
    charpoly,
    det,
    fraction_free_rref,
    hnf,
    kernel_basis,
    lll_reduce,
    snf_invariants,
)
from zconj.matrix import IntMatrix

# entry sizes on both sides of the int64 switch (2 M^2 < 2^62) and far past it
BOUNDS = (1, 4, 2**15, 2**15 + 9, 2**31, 2**62, 2**80)


def random_matrix(rng, nrows, ncols, bound=5):
    return IntMatrix(
        [[rng.randint(-bound, bound) for _ in range(ncols)] for _ in range(nrows)]
    )


def rank_deficient(rng, m: IntMatrix) -> IntMatrix:
    """m with its last row replaced by a combination of two others."""
    rows = m.to_lists()
    if len(rows) > 1:
        a, b = rng.randrange(len(rows) - 1), rng.randrange(len(rows) - 1)
        rows[-1] = [x - 2 * y for x, y in zip(rows[a], rows[b])]
    return IntMatrix(rows)


def kernel_rows(kernel, m: IntMatrix):
    """The rows of kernel(m.array) as tuples of Python ints."""
    return [tuple(v) for v in kernel(m.array).tolist()]


def test_hnf_shape_and_transform():
    rng = random.Random(1)
    for _ in range(120):
        m = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        h, u = hnf(m.array)
        assert (u @ obj(m) == h).all()
        assert abs(det(u)) == 1
        # row echelon with positive pivots and reduced entries above
        last = -1
        for i in range(len(h)):
            row = h.tolist()[i]
            if not any(row):
                assert not any(any(r) for r in h.tolist()[i:])
                break
            piv = next(j for j, v in enumerate(row) if v)
            assert piv > last
            last = piv
            assert row[piv] > 0
            for k in range(i):
                assert 0 <= h[k, piv] < row[piv]


def test_hnf_idempotent():
    rng = random.Random(2)
    for _ in range(60):
        m = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        h, _ = hnf(m.array)
        h2, _ = hnf(h)
        assert h2.tolist() == h.tolist()


def test_snf_identity():
    assert snf_invariants(IntMatrix.identity(3)) == (1, 1, 1)


def test_snf_against_minor_gcds():
    rng = random.Random(3)
    for _ in range(150):
        m = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        inv = snf_invariants(m)
        assert inv == gcd_minor_invariants(m)
        assert all(b % a == 0 for a, b in zip(inv, inv[1:]))
    # snf_invariants reads the chain mod a maximal minor; the gcds of all
    # minors are its independent reference: rank-deficient and non-square
    # shapes, zero matrices, entries past int64, multiples
    cases = [IntMatrix([[0] * c for _ in range(r)]) for r, c in ((1, 1), (2, 3), (4, 2))]
    for bound in BOUNDS:
        for _ in range(6):
            m = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5), bound)
            cases += [m, rank_deficient(rng, m), IntMatrix(obj(m) * rng.choice((2, 12, 2**61 - 1)))]
    for m in cases:
        assert snf_invariants(m) == gcd_minor_invariants(m)
    # a 40 x 40 matrix, far past what a gcd elimination with transforms finishes
    m = random_matrix(random.Random(5), 40, 40, 9)
    inv = snf_invariants(m)
    assert len(inv) == 40 and all(b % a == 0 for a, b in zip(inv, inv[1:]))
    assert prod(inv) == abs(det(m.array))


def test_smith_group():
    assert snf_invariants(IntMatrix.diagonal([4, 6])) == (2, 12)
    assert snf_invariants(IntMatrix.identity(2)) == (1, 1)


def test_charpoly_descending_coefficients():
    # leading coefficient first: t^2 - 3t + 2
    assert charpoly(np.diag([1, 2])) == [1, -3, 2]
    assert charpoly(np.array([[0, 2], [-3, 0]])) == [1, 0, 6]
    rng = random.Random(4)
    for _ in range(60):
        n = rng.randint(1, 5)
        m = random_matrix(rng, n, n, bound=4)
        cp = charpoly(m.array)
        assert cp[0] == 1 and len(cp) == n + 1
        assert cp[-1] == (-1) ** n * det_small(m.to_lists())
        assert cp[1] == -obj(m).trace()


def test_charpoly_matches_intmatrix_faddeev():
    # one array and a carried bound against an IntMatrix per step, on
    # both sides of float64, int64 and object products
    rng = random.Random(13)
    for _ in range(150):
        n = rng.randint(1, 9)
        if rng.random() < 0.3:
            m = hidden(IntMatrix.diagonal(rng.choices(range(-8, 9), k=n)), rng)
        else:
            m = random_matrix(rng, n, n, rng.choice((1, 4, 2**15, 2**40)))
        assert charpoly(m.array) == charpoly_intmatrix(m)


def test_det_against_laplace():
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(1, 5)
        m = random_matrix(rng, n, n)
        assert det(m.array) == det_small(m.to_lists())
    # entries across the int64 switch and past 2^62, singular ones included
    for _ in range(400):
        n = rng.randint(1, 6)
        m = random_matrix(rng, n, n, rng.choice(BOUNDS))
        if rng.random() < 0.2:
            m = rank_deficient(rng, m)
        assert det(m.array) == det_small(m.to_lists())


def test_kernel_basis_saturated():
    rng = random.Random(6)
    for _ in range(150):
        nrows = rng.randint(1, 5)
        ncols = rng.randint(1, 5)
        m = random_matrix(rng, nrows, ncols, bound=4)
        basis = kernel_rows(kernel_basis, m)
        for v in basis:
            assert all(
                sum(m[i, j] * v[j] for j in range(ncols)) == 0 for i in range(nrows)
            )
        expected_rank = ncols - len([r for r in hnf(m.array.T)[0].tolist() if any(r)])
        assert len(basis) == expected_rank
        if basis:
            assert all(v == 1 for v in snf_invariants(IntMatrix(basis)))


def test_kernel_basis_routes_agree():
    # the small-matrix HNF route and the rational elimination route
    # must produce the same saturated lattice
    from zconj.linalg import _kernel_basis_rref

    rng = random.Random(7)
    for _ in range(120):
        nrows = rng.randint(1, 6)
        ncols = rng.randint(1, 6)
        m = random_matrix(rng, nrows, ncols, bound=6)
        a = kernel_rows(kernel_basis, m)
        b = kernel_rows(_kernel_basis_rref, m)
        if not a and not b:
            continue
        ha = lattice_hnf([IntMatrix([v]) for v in a])
        hb = lattice_hnf([IntMatrix([v]) for v in b])
        assert ha == hb


def test_kernel_basis_large_dispatch():
    # above the dispatch cutoff only the elimination route runs; the
    # kernel of (v extended by zero rows) is still saturated and exact
    n = 20
    rows = [[0] * n for _ in range(n)]
    for j in range(n - 1):
        rows[0][j] = j + 1
    rows[0][n - 1] = -1
    basis = kernel_rows(kernel_basis, IntMatrix(rows))
    assert len(basis) == n - 1
    for v in basis:
        assert sum(rows[0][j] * v[j] for j in range(n)) == 0
    assert all(v == 1 for v in snf_invariants(IntMatrix(basis)))


def test_lll_preserves_lattice():
    rng = random.Random(8)
    for _ in range(60):
        n = rng.randint(2, 5)
        basis = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        if det_small(basis) == 0:
            continue
        reduced = lll_reduce([list(v) for v in basis])
        assert len(reduced) == n
        assert same_span(
            [IntMatrix([v]) for v in basis], [IntMatrix([v]) for v in reduced]
        )
        assert abs(det_small(reduced)) == abs(det_small(basis))
        # repeating the reduction changes nothing
        assert lll_reduce([list(v) for v in reduced]) == reduced


def test_lll_shortens():
    basis = [[1, 0, 0], [0, 1, 0], [100, 99, 1]]
    reduced = lll_reduce([list(v) for v in basis])
    assert max(sum(x * x for x in v) for v in reduced) <= 3


def test_lll_accepts_fraction_delta():
    basis = [[3, 1], [1, 2]]
    assert lll_reduce(basis, delta=Fraction(3, 4)) is not None


def test_fraction_free_rref_is_scaled_rational_rref():
    rng = random.Random(11)
    for _ in range(200):
        m = random_matrix(rng, rng.randint(1, 7), rng.randint(1, 7), rng.choice(BOUNDS))
        if rng.random() < 0.4:
            m = rank_deficient(rng, m)
        r, pivots, d, sign = fraction_free_rref(m.array)
        rref, pivcols = rref_fraction(m.to_lists())
        assert pivots == pivcols
        assert [[Fraction(int(v), d) for v in row] for row in r.tolist()] == rref
        if len(pivots) == m.nrows == m.ncols:
            assert sign * d == det_small(m.to_lists())


def test_fraction_free_rref_dtype_follows_each_step():
    # each step runs in int_dtype(2 M^2), M the largest magnitude of the
    # working array, and stays on Python ints once there: R is int64
    # exactly when every step's 2 M^2 is below 2^62 (M <= 1518500249).
    # An int64, an object and a list input give the same R, equal to the
    # rational RREF, and none is written
    rng = random.Random(12)
    edge = 1518500249  # the largest M with 2 M^2 < 2^62
    cases = [[[edge]], [[edge + 1]], [[edge, 1], [1, edge]], [[0, 0], [0, 0]]]
    for _ in range(300):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        bound = rng.choice((1, 9, 2**15, 2**29, 2**30, 2**30 + 2**29, 2**31, 2**40))
        rows = [[rng.randint(-bound, bound) for _ in range(ncols)] for _ in range(nrows)]
        if rng.random() < 0.3:
            rows = rank_deficient(rng, IntMatrix(rows)).to_lists()
        cases.append(rows)
    # small entries, minors past 2^31 partway through the elimination
    for _ in range(40):
        rows = [[rng.randint(-99, 99) for _ in range(8)] for _ in range(8)]
        cases.append(rank_deficient(rng, IntMatrix(rows)).to_lists() if rng.random() < 0.3 else rows)
    mixed = 0
    for rows in cases:
        fits = [2 * m * m < 2**62 for m in bareiss_step_maxima(rows)]
        mixed += bool(fits) and fits[0] and not all(fits)
        rref, pivcols = rref_fraction(rows)
        inputs = (IntMatrix(rows).array, np.array(rows, dtype=object), rows)
        want = None
        for a in inputs:
            r, pivots, d, sign = fraction_free_rref(a)
            assert r.dtype == (np.int64 if all(fits) else object)
            assert pivots == pivcols
            assert [[Fraction(int(v), d) for v in row] for row in r.tolist()] == rref
            want = want or (r.tolist(), pivots, d, sign)
            assert (r.tolist(), pivots, d, sign) == want
        assert inputs[1].tolist() == rows
    assert mixed > 20


def test_fraction_free_rref_int64_steps_match_object_twin(monkeypatch):
    # the int64 steps against the same code with every step on Python
    # ints, on entries and minors near the int64 switch
    rng = random.Random(13)
    cases = []
    for _ in range(150):
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
        bound = rng.choice((2**29, 2**30, 1518500249, 99))
        rows = [[rng.randint(-bound, bound) for _ in range(ncols)] for _ in range(nrows)]
        cases.append(rank_deficient(rng, IntMatrix(rows)).to_lists() if rng.random() < 0.3 else rows)
    results = [fraction_free_rref(np.array(rows, dtype=object)) for rows in cases]
    assert any(r.dtype == np.int64 and np.abs(r).max() > 2**29 for r, *_ in results)
    monkeypatch.setattr(linalg, "int_dtype", lambda *bounds: object)
    for rows, want in zip(cases, results):
        r, pivots, d, sign = fraction_free_rref(np.array(rows, dtype=object))
        assert r.dtype == object or not pivots
        assert (r.tolist(), pivots, d, sign) == (want[0].tolist(), *want[1:])


def test_kernel_basis_matches_fraction_oracle():
    # both sides of the 16 cutoff for the RREF route, the public
    # dispatch above it; equality of the vectors, not only of the span
    rng = random.Random(12)
    for _ in range(60):
        nrows, ncols = rng.randint(1, 25), rng.randint(1, 25)
        m = random_matrix(rng, nrows, ncols, rng.choice(BOUNDS))
        if rng.random() < 0.5:
            m = rank_deficient(rng, m)
        expected = kernel_basis_fraction(m)
        assert kernel_rows(_kernel_basis_rref, m) == expected
        if nrows > 16 or ncols > 16:
            assert kernel_rows(kernel_basis, m) == expected
        else:
            assert same_span(
                [IntMatrix([v]) for v in kernel_rows(kernel_basis, m)], [IntMatrix([v]) for v in expected]
            )


def test_lll_matches_fraction_oracle():
    # same vectors as rational Gram-Schmidt; small entries give rounding
    # ties, and dependent rows (integral, half-integral, zero) give zero
    # Gram-Schmidt vectors anywhere in the basis
    rng = random.Random(14)
    for _ in range(300):
        n = rng.randint(2, 6)
        dim = rng.randint(n, 8)
        bound = rng.choice((2, 3, 9, 100, 2**62, 2**70))
        basis = [[rng.randint(-bound, bound) for _ in range(dim)] for _ in range(n)]
        kind = rng.random()
        if kind < 0.2:
            basis[-1] = [x + 2 * y for x, y in zip(basis[0], basis[1])]
        elif kind < 0.5:
            basis[0], basis[1] = [2 * x for x in basis[0]], [2 * x for x in basis[1]]
            half = [(x + y) // 2 for x, y in zip(basis[0], basis[1])]
            basis.insert(rng.randrange(len(basis) + 1), half)
        elif kind < 0.6:
            basis[0] = [0] * dim
        delta = rng.choice((Fraction(99, 100), Fraction(3, 4), 1))
        expected = lll_fraction(basis, delta)
        assert lll_reduce(basis, delta) == expected
        if delta == Fraction(99, 100):
            assert lll_reduce(basis) == expected
    # a zero Gram-Schmidt vector at k - 1 must pass the Lovasz test, or
    # these two swap forever
    for basis in ([[0, 0], [3, 3], [6, 6]], [[4, 0, 4], [2, 2, 1], [0, 4, -2], [-2, 0, -2]]):
        assert lll_reduce(basis) == lll_fraction(basis)


def test_lll_swaps_with_dependent_rows_match_fraction_oracle():
    # several dependent rows among up to 7 short ones: swaps that move a
    # zero Gram-Schmidt vector down (mu = 0) and swaps past one (mu != 0),
    # where every later Gram determinant changes, both happen often
    rng = random.Random(15)
    for _ in range(200):
        n, dim = rng.randint(2, 7), rng.randint(1, 5)
        bound = rng.choice((1, 2, 5, 30))
        basis = [[rng.randint(-bound, bound) for _ in range(dim)] for _ in range(n)]
        for _ in range(rng.randint(0, 3)):
            i, j = rng.randrange(n), rng.randrange(n)
            ci, cj = rng.randint(-3, 3), rng.randint(-3, 3)
            basis[rng.randrange(n)] = [ci * x + cj * y for x, y in zip(basis[i], basis[j])]
        assert lll_reduce(basis) == lll_fraction(basis)


def test_no_module_imports_fractions():
    # exact rational work is fraction-free: integer minors over one denominator
    for path in sorted((SRC / "zconj").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert "fractions" not in names, path.name
