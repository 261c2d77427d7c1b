"""Modular arithmetic: unit scalings, congruence lattices, invariants."""

import ast
import itertools
import random
import sys
from math import gcd, prod
from pathlib import Path

import numpy as np
import pytest
from helpers import (
    adjugate,
    det_bareiss,
    det_small,
    eliminate_chain_rows,
    gcd_minor_invariants,
    hermite_columns_pivotwise,
    obj,
    prime_factors_trial_division,
    random_sl,
    solve_congruence_lattice_full,
)

from zconj import modular
from zconj.matrix import CertificateError, IntMatrix, matmul, product_dtype
from zconj.modular import (
    _BLOCK,
    _diagonalize_mod,
    _eliminate_chain,
    _howell_rows,
    _refine,
    _ZeroDivisor,
    det_mod,
    inv_mod,
    prime_factors,
    reduce_mod,
    residues,
    scaled_idempotent_invariants,
    solve_congruence_lattice,
    unit_scaling,
)
from zconj.spectral import AssumptionReport, check_assumption, split_spectrum

# moduli on both sides of the int64 bound q^2 + q < 2^62 of the mod-q kernels
BOUNDARY_PRIMES = (2**31 - 1, 3037000493, 4294967311, 2**61 - 1)
BOUNDARY_MODULI = (2**31 - 1, 2**31, 2**31 + 11, 10**20 + 39, 2**40 * 3**5)


REDUCE_MODULI = (1, 2, 25, 361, 2**31 - 1, 2**61 - 1, 2**63 + 5)


def test_reduce_mod_matches_remainder():
    # against numpy's % on int64 (q fitting int64) and Python's % on object
    # arrays: signs, entries near +-2^62 and the int64 extremes, where
    # q (x // q) wraps, empty arrays and (K, n, n) stacks
    rng = np.random.default_rng(71)
    edge = [0, 1, -1, 2**62, -(2**62), 2**62 - 1, -(2**62) + 1, 2**63 - 1, -(2**63)]
    shapes = [(0,), (0, 4), (len(edge),), (5, 7), (3, 4, 4)]
    for q in REDUCE_MODULI:
        for shape in shapes:
            x = rng.integers(-(2**62), 2**62, size=shape, dtype=np.int64)
            if shape == (len(edge),):
                x[:] = edge
            want = [v % q for v in x.ravel().tolist()]
            got = reduce_mod(x.copy(), q)
            assert got.shape == x.shape
            assert got.dtype == (np.int64 if q < 2**63 else object)
            assert got.ravel().tolist() == want, (q, shape)
            if q < 2**63:
                assert (got == x % q).all()
            # object arrays, entries past int64 included
            big = x.astype(object) * (2**70 + 1)
            got = reduce_mod(big.copy(), q)
            assert got.dtype == object
            assert got.ravel().tolist() == [v % q for v in big.ravel().tolist()]
    # the int64 steps work in place and hand x back
    x = np.arange(-50, 50, dtype=np.int64).reshape(10, 10)
    assert reduce_mod(x, 7) is x and (x == np.arange(-50, 50).reshape(10, 10) % 7).all()
    # narrower integer dtypes take the int64 steps, uint64 Python ints
    assert reduce_mod(np.array([-3, 200], dtype=np.int16), 7).tolist() == [4, 4]
    u = np.array([2**64 - 1, 5], dtype=np.uint64)
    assert reduce_mod(u, 2**61 - 1).tolist() == [(2**64 - 1) % (2**61 - 1), 5]


def test_reduce_mod_rejects_and_never_writes_read_only_input():
    for q in (0, -1, -361):
        with pytest.raises(ValueError):
            reduce_mod(np.arange(4), q)
        with pytest.raises(ValueError):
            reduce_mod(np.arange(4, dtype=object), q)
    for bad in (np.array([1.0, 2.0]), np.array([1.0, 2.0], dtype=np.float32), np.array([1 + 0j])):
        with pytest.raises(ValueError):
            reduce_mod(bad, 5)
    for dtype in (np.int64, object):
        x = np.arange(-12, 12).astype(dtype).reshape(2, 3, 4)
        x.flags.writeable = False
        for q in (5, 2**63 + 5):
            got = reduce_mod(x, q)
            assert got.tolist() == [[[v % q for v in row] for row in m] for m in x.tolist()]
            assert x.tolist() == np.arange(-12, 12).reshape(2, 3, 4).tolist()


def test_moduli_below_one_raise():
    # residues(rows, 0) once returned zeros with a RuntimeWarning, and
    # det_mod(m, 0) returned 0
    for q in (0, -5):
        with pytest.raises(ValueError):
            residues([[1, 2], [3, 4]], q)
        with pytest.raises(ValueError):
            residues(np.array([[1, 2], [3, 4]]), q)
        with pytest.raises(ValueError):
            det_mod([[1, 2], [3, 4]], q)
        with pytest.raises(ValueError):
            det_mod(np.ones((3, 2, 2), dtype=np.int64), q)
    assert det_mod([[1, 2], [3, 4]], 1) == 0


def test_one_remainder_rule():
    # every whole-array reduction goes through modular.reduce_mod: numpy's
    # remainder ufunc (np.remainder, np.mod) is called in reduce_mod alone
    hits = []
    for path in sorted(Path(modular.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        scopes = [(node.name, node) for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr in ("remainder", "mod", "fmod"):
                inside = [name for name, f in scopes if f.lineno <= node.lineno <= f.end_lineno]
                hits.append((path.name, inside[-1] if inside else None, node.attr))
    assert hits == [("modular.py", "reduce_mod", "remainder")], hits


def test_unit_scaling():
    for q in range(2, 40):
        for a in range(q):
            g, u = unit_scaling(a, q)
            assert gcd(u, q) == 1
            assert (u * a) % q == g % q
            assert g == (gcd(a, q) % q if a else 0)


def test_inv_mod():
    for q in range(2, 40):
        for a in range(1, q):
            if gcd(a, q) != 1:
                continue
            assert (a * inv_mod(a, q)) % q == 1


def test_prime_factors():
    assert prime_factors(1) == []
    assert prime_factors(12) == [2, 3]
    assert prime_factors(97) == [97]
    assert prime_factors(588) == [2, 3, 7]


def test_prime_factors_past_trial_division():
    # trial division by the primes below 1000 leaves a cofactor with no
    # smaller prime factor: prime below 10^6, uncertified from there on
    rng = random.Random(23)
    for _ in range(200):
        n = rng.randrange(1, 10**9) * rng.choice((1, 997, 1009**2))
        expected = prime_factors_trial_division(n)
        rest = n
        for p in expected:
            while p < 1000 and rest % p == 0:
                rest //= p
        if rest < 10**6:
            assert prime_factors(n) == prime_factors(-n) == expected
        else:
            with pytest.raises(ValueError, match="cannot factor %d " % rest):
                prime_factors(n)
    assert prime_factors(0) == []
    assert prime_factors(991 * 999983) == [991, 999983]


def test_prime_factors_gives_up_instead_of_guessing():
    # a cofactor of 10^6 or more is neither proven prime nor split, even
    # a prime one, and the ValueError names it
    hard = 1152921504606846883 * 1152921504606847009
    for n, rest in ((1009 * 1013, 1009 * 1013), (1000003, 1000003), (2**89 - 1, 2**89 - 1), (12 * hard, hard)):
        with pytest.raises(ValueError, match="cannot factor %d " % rest):
            prime_factors(n)


def brute_solutions(rows, m, q):
    sols = []
    for s in itertools.product(range(q), repeat=m):
        if all(sum(r[j] * s[j] for j in range(m)) % q == 0 for r in rows):
            sols.append(s)
    return sols


def in_lattice(vec, basis, m):
    # triangular basis: eliminate top down, remainder must vanish
    v = list(vec)
    for i in range(m):
        d = basis[i][i]
        if v[i] % d:
            return False
        f = v[i] // d
        for j in range(m):
            v[j] -= f * basis[i][j]
    return all(x == 0 for x in v)


def test_solve_congruence_lattice_brute_force():
    rng = random.Random(7)
    checked = 0
    for _ in range(150):
        m = rng.randint(1, 4)
        q = rng.choice([2, 3, 4, 6, 8, 9, 12, 15, 16, 18, 24])
        k = rng.randint(0, 3)
        rows = [[rng.randrange(-q, q) for _ in range(m)] for _ in range(k)]
        basis = solve_congruence_lattice(rows, m, q).tolist()
        assert len(basis) == m
        detl = 1
        for i in range(m):
            assert basis[i][i] > 0 and q % basis[i][i] == 0
            assert all(basis[i][j] == 0 for j in range(i))
            detl *= basis[i][i]
        for b in basis:
            for r in rows:
                assert sum(r[j] * b[j] for j in range(m)) % q == 0
        if q**m <= 20000:
            sols = brute_solutions(rows, m, q)
            # index times solution count is the full group order
            assert len(sols) * detl == q**m
            for s in rng.sample(sols, min(10, len(sols))):
                assert in_lattice(s, basis, m)
            checked += 1
    assert checked > 60


def test_solve_congruence_lattice_composite_modulus():
    # composite q, where the least-gcd pivot need not divide its row;
    # the result must match a direct brute force
    rng = random.Random(9)
    for _ in range(60):
        m = rng.randint(1, 3)
        q = rng.choice([6, 12, 30, 36, 60])
        rows = [[rng.randrange(q) for _ in range(m)] for _ in range(rng.randint(1, 2))]
        basis = solve_congruence_lattice(rows, m, q).tolist()
        detl = 1
        for i in range(m):
            detl *= basis[i][i]
        if q**m <= 46656:
            sols = brute_solutions(rows, m, q)
            assert len(sols) * detl == q**m
            for s in sols[:: max(1, len(sols) // 8)]:
                assert in_lattice(s, basis, m)


def test_solve_congruence_lattice_matches_pure_python():
    # the numpy one-pass solver against the list oracle (gcd sweep plus
    # howell_py) on small systems
    rng = random.Random(11)
    for _ in range(60):
        m = rng.randint(1, 5)
        q = rng.choice([4, 6, 9, 12, 30])
        k = rng.randint(1, 4)
        rows = [[rng.randrange(q) for _ in range(m)] for _ in range(k)]
        expected = [list(r) for r in solve_congruence_lattice_full(rows, m, q)]
        assert solve_congruence_lattice(rows, m, q).tolist() == expected


def test_solve_congruence_lattice_checks_its_divisions(monkeypatch):
    # mod 4 the row (1, 2) alone is an echelon form without the Howell
    # property: the annihilator row (2, 0) is missing, and the entry of
    # column 1 would need 1 / 2
    assert solve_congruence_lattice([[1, 2]], 2, 4).tolist() == [[2, 1], [0, 2]]
    monkeypatch.setattr(modular, "_howell_rows", lambda a, q: {1: np.array([1, 2])})
    with pytest.raises(CertificateError):
        solve_congruence_lattice([[1, 2]], 2, 4)


def test_scaled_idempotent_invariants_match_snf():
    # E = M P adj(M) (sign-fixed) satisfies E^2 = |det M| E; its
    # invariants computed mod the scale must equal the gcds of its minors
    rng = random.Random(13)
    good = 0
    while good < 120:
        n = rng.randint(2, 4)
        r = rng.randint(0, n)
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        d = det_small(rows)
        if d == 0:
            continue
        proj = [[1 if (i == j and i < r) else 0 for j in range(n)] for i in range(n)]
        e = obj(rows) @ obj(proj) @ obj(adjugate(rows)) * (1 if d > 0 else -1)
        scale = abs(d)
        assert (e @ e == e * scale).all()
        e = IntMatrix(e)
        assert scaled_idempotent_invariants(e.array, scale) == gcd_minor_invariants(e)
        good += 1
    # over a composite scale the Smith chain can reach the scale itself:
    # for this Y the diagonal (2, 3) mod 6 chains to (1, 6)
    y = IntMatrix([[9, -8], [9, -9]])
    spectrum = split_spectrum(y)
    for e, scale in zip(spectrum.idempotents, spectrum.scales):
        assert scaled_idempotent_invariants(e.array, scale) == gcd_minor_invariants(e)
    assert isinstance(check_assumption(y), AssumptionReport)


def test_det_mod_at_dtype_boundary():
    rng = random.Random(17)
    for p in BOUNDARY_PRIMES:
        cases = [[[0, 1], [1, 0]], [[2**70, 3], [5, -(2**65)]], [[p - 1, p - 2], [2 * p - 2, 2 * p - 4]]]
        for n in (1, 2, 3, 5):
            cases.append([[rng.randrange(-p, p) for _ in range(n)] for _ in range(n)])
        for rows in cases:
            expected = det_small(rows) % p
            assert det_mod(rows, p) == expected
            if max(abs(x) for row in rows for x in row) < 2**62:
                assert det_mod(np.array(rows, dtype=np.int64), p) == expected


def test_solve_congruence_lattice_at_dtype_boundary():
    rng = random.Random(19)
    for q in BOUNDARY_MODULI:
        for _ in range(4):
            m = rng.randint(1, 4)
            rows = [
                [rng.randrange(-q, q) * rng.choice((1, 2**20, 3**3, 6)) for _ in range(m)]
                for _ in range(rng.randint(1, 3))
            ]
            rows.append([sum(col) for col in zip(*rows)])
            basis = solve_congruence_lattice(rows, m, q).tolist()
            index = 1
            for i, b in enumerate(basis):
                assert all(b[j] == 0 for j in range(i)) and q % b[i] == 0
                index *= b[i]
                for r in rows:
                    assert sum(r[j] * b[j] for j in range(m)) % q == 0
            # solutions mod q number prod gcd(d_j, q) over the m Smith
            # invariants of A, counting each missing one as 0
            d = gcd_minor_invariants(IntMatrix(rows))
            count = 1
            for j in range(m):
                count *= gcd(d[j], q) if j < len(d) else q
            assert index * count == q**m


def test_det_mod_on_stacks():
    # one kernel for a matrix and for a (K, n, n) stack, on both sides of
    # the int64 bound; zero and singular matrices included
    rng = random.Random(29)
    for p in (2, 7) + BOUNDARY_PRIMES:
        for n in range(1, 7):
            stack = [[[0] * n for _ in range(n)]]
            for _ in range(12):
                rows = [[rng.randrange(-2 * p, 2 * p) for _ in range(n)] for _ in range(n)]
                if rng.random() < 0.4:
                    # a row that is a combination of the others mod p
                    i = rng.randrange(n)
                    others = rows[:i] + rows[i + 1 :]
                    coeffs = [rng.randrange(3) for _ in others]
                    rows[i] = [
                        sum(c * r[j] for c, r in zip(coeffs, others)) + p * rng.randrange(-2, 3)
                        for j in range(n)
                    ]
                if rng.random() < 0.3:
                    # a zero diagonal entry that needs a row from below
                    rows[0][0] = p * rng.randrange(-1, 2)
                stack.append(rows)
            expected = [det_small(rows) % p for rows in stack]
            got = det_mod(stack, p)
            assert got.shape == (len(stack),)
            assert [int(v) for v in got] == expected
            assert [det_mod(rows, p) for rows in stack] == expected
            if 4 * p < 2**62:
                assert [int(v) for v in det_mod(np.array(stack, dtype=np.int64), p)] == expected


# two primes near 2^60: trial division leaves their product as one base
P60, Q60 = 1152921504606846883, 1152921504606847009


def test_det_mod_over_composite_moduli():
    # det % b, or _ZeroDivisor with a proper factor of b, for single
    # matrices and stacks whose pivot vectors are short (one pow per
    # entry) or long (Fermat over the array, which for composite b is
    # checked and mended entry by entry)
    rng = random.Random(31)
    for b, factors in ((1009 * 1013, (1009, 1013)), (6 * P60 * Q60, (2, 3, P60, Q60))):
        units = [u for u in range(2, 99) if gcd(u, b) == 1]

        def unit_pivots(n):
            # unit lower times upper with units on the diagonal
            low = [[rng.randrange(b) if j < i else int(i == j) for j in range(n)] for i in range(n)]
            up = [[rng.randrange(b) if j > i else (i == j) * rng.choice(units) for j in range(n)] for i in range(n)]
            return [[sum(low[i][t] * up[t][j] for t in range(n)) for j in range(n)] for i in range(n)]

        def any_pivots(n):
            rows = [[rng.randrange(b) * rng.choice((1, 1) + factors) for _ in range(n)] for _ in range(n)]
            if rng.random() < 0.3:
                rows[-1] = [sum(r[j] for r in rows[:-1]) for j in range(n)]
            return rows

        splits = 0
        for n in range(1, 6):
            for size in (1, 3, 2 * b.bit_length() + 5):
                stack = [unit_pivots(n) for _ in range(size)]
                got = det_mod(stack, b)
                assert [int(v) for v in got] == [det_bareiss(rows) % b for rows in stack]
                assert all(gcd(int(v), b) == 1 for v in got)
                for stack in ([any_pivots(n) for _ in range(size)], [[[0] * n] * n] * size):
                    try:
                        got = det_mod(stack, b)
                    except _ZeroDivisor as exc:
                        assert 1 < exc.args[0] < b and b % exc.args[0] == 0
                        splits += 1
                        continue
                    assert [int(v) for v in got] == [det_bareiss(rows) % b for rows in stack]
            for rows in (unit_pivots(n), any_pivots(n), [[factors[0]] + [0] * (n - 1)] + unit_pivots(n)[1:]):
                try:
                    assert det_mod(rows, b) == det_bareiss(rows) % b
                except _ZeroDivisor as exc:
                    assert 1 < exc.args[0] < b and b % exc.args[0] == 0
                    splits += 1
        assert splits > 5
    # a non-unit pivot raises wherever it stands, the last one included
    for rows in ([[1009, 0], [0, 1]], [[1, 0], [0, 1013]], [[1013]]):
        with pytest.raises(_ZeroDivisor):
            det_mod(rows, 1009 * 1013)


def test_solve_congruence_lattice_matches_gcd_sweep_oracle():
    # the chain-ring eliminator against the parent's gcd sweep plus
    # howell_py: prime powers, composite moduli, moduli past the int64
    # bound, and an unfactored base that only an entry splits
    rng = random.Random(37)
    moduli = (2, 7, 8, 49, 243, 6, 12, 36, 225, 360, 1009**2, 2**31 + 11, P60 * Q60, 6 * P60**2 * Q60)
    for q in moduli:
        for _ in range(12):
            m = rng.randint(1, 6)
            rows = [
                [rng.randrange(q) * rng.choice((1, 1, 2, 3, 5, 1009, P60)) for _ in range(m)]
                for _ in range(rng.randint(1, 5))
            ]
            expected = [list(r) for r in solve_congruence_lattice_full(rows, m, q)]
            assert solve_congruence_lattice(rows, m, q).tolist() == expected
    # composite moduli, prime powers and moduli past the int64 bound,
    # where the residues are Python ints; empty systems, and fewer or
    # more rows than columns, up to 12 columns
    moduli = (6, 12, 30, 36, 60, 225, 8, 27, 49, 125, 3037000493, (2**31 - 1) ** 2)
    for q in moduli:
        for shape in ("empty", "wide", "tall") * 2:
            m = rng.randint(1, 12)
            k = {"empty": 0, "wide": rng.randint(1, m), "tall": rng.randint(m + 1, m + 4)}[shape]
            rows = [[rng.randrange(q) * rng.choice((1, 1, 2, 3, 7)) for _ in range(m)] for _ in range(k)]
            if shape == "tall":
                rows.append([sum(col) for col in zip(*rows)])
            expected = [list(r) for r in solve_congruence_lattice_full(rows or [[0] * m], m, q)]
            assert solve_congruence_lattice(rows, m, q).tolist() == expected
            if not rows:
                assert expected == [[int(i == j) for j in range(m)] for i in range(m)]


def test_diagonalize_mod_gives_a_divisor_chain():
    rng = random.Random(41)
    for q in (12, 36, 225, 1009**2, P60 * Q60, P60**2 * Q60):
        for _ in range(8):
            m = rng.randint(1, 5)
            rows = [[rng.randrange(q) * rng.choice((1, 2, 3, 1009, P60)) for _ in range(m)] for _ in range(m)]
            diag = _diagonalize_mod(rows, q)
            assert len(diag) == m and all(q % d == 0 for d in diag)
            assert all(diag[j + 1] % diag[j] == 0 for j in range(m - 1))
            # the solutions count prod d_j mod q, as many as A's Smith
            # invariants give
            d = gcd_minor_invariants(IntMatrix(rows))
            count = 1
            for j in range(m):
                count *= gcd(d[j], q) if j < len(d) else q
            assert count == prod(diag)


def chain_residues(rng, b: int, k: int, nrows: int, ncols: int, rank: int):
    """Residues mod b^k whose rows are rank base rows, in order, with
    combinations of the rows before them plus b^e times noise (e >= 1)
    mixed in: such a row has no pivot left at level 0 once the rows it
    combines are pivots, so rows drop out partway through a level."""
    q = b**k
    rows = []
    used = 0
    for _ in range(nrows):
        if used < rank and (not rows or rng.random() < 0.6):
            rows.append([rng.randrange(q) for _ in range(ncols)])
            used += 1
            continue
        e = b ** rng.randint(1, k)
        coeffs = [rng.randrange(q) for _ in rows]
        rows.append([
            (sum(c * r[j] for c, r in zip(coeffs, rows)) + e * rng.randrange(q)) % q
            for j in range(ncols)
        ])
    return np.array(rows, dtype=np.int64).reshape(nrows, ncols)


def test_eliminate_chain_matches_row_at_a_time_oracle():
    # the delayed-update eliminator against the rank-1-per-pivot one:
    # the levels are the divisor chain, whatever order the pivots come in
    rng = random.Random(53)
    longest = 0
    for b in (2, 3, 5, 7, 19):
        for k in (1, 2, 3):
            for shape in ("square", "wide", "tall"):
                n = rng.randint(40, 100)
                nrows, ncols = {"square": (n, n), "wide": (n // 2, n), "tall": (n, n // 2)}[shape]
                cases = [
                    chain_residues(rng, b, k, nrows, ncols, rng.randint(0, min(nrows, ncols))),
                    chain_residues(rng, b, k, nrows, ncols, min(nrows, ncols)) * b ** rng.randint(0, k - 1) % b**k,
                    np.array([[rng.randrange(b**k) for _ in range(ncols)] for _ in range(nrows)], dtype=np.int64),
                    np.array([[rng.randrange(4) for _ in range(ncols)] for _ in range(rng.randint(1, 8))], dtype=np.int64) % b**k,
                ]
                for a in cases:
                    levels = _eliminate_chain(a.copy(), b, k)
                    assert levels == eliminate_chain_rows(a.copy(), b, k)
                    longest = max([longest] + [levels.count(l) for l in range(k)])
    # dense and full rank (unit triangular L times U); with residues in
    # int64 but products past it (2^31 - 1), and residues past it
    for b, k, n in ((19, 2, 100), (2**31 - 1, 1, 60), (2**61 - 1, 2, 40)):
        q = b**k
        lower, upper = (
            np.array([[rng.randrange(q) if j < i else int(i == j) for j in range(n)] for i in range(n)], dtype=object)
            for _ in range(2)
        )
        a = residues(lower @ upper.T, q)
        assert _eliminate_chain(a.copy(), b, k) == eliminate_chain_rows(a.copy(), b, k) == [0] * n
    assert longest > 2 * _BLOCK


def test_int64_kernels_match_their_object_twins(monkeypatch):
    # the int64 steps of the Howell pass, the chain-ring eliminator and
    # det_mod against the same code on Python-int residues, at moduli
    # just below the int64 bound q^2 + q < 2^62 of the mod-q kernels
    rng = random.Random(67)
    for q in (2**31 - 1, 2**31 - 2, 2**30, 3**19):
        for _ in range(6):
            m = rng.randint(2, 12)
            rows = [[rng.randrange(q) * rng.choice((1, 2, 3, 7)) for _ in range(m)] for _ in range(rng.randint(1, 10))]
            rows.append([sum(col) for col in zip(*rows)])
            a = residues(rows, q)
            assert a.dtype == np.int64
            twin = a.astype(object)
            out, out_twin = _howell_rows(a, q), _howell_rows(twin, q)
            assert sorted(out) == sorted(out_twin)
            assert all(out[c].tolist() == out_twin[c].tolist() for c in out)
            assert a.tolist() == twin.tolist()
    for b, k in ((2**31 - 1, 1), (46337, 2), (2, 30), (3, 19)):
        for rank in (20, 50):
            a = chain_residues(rng, b, k, 50, 60, rank)
            twin = a.astype(object)
            assert _eliminate_chain(a, b, k) == _eliminate_chain(twin, b, k)
            assert a.tolist() == twin.tolist()
    stacks = {
        (p, n): [[[rng.randrange(p) for _ in range(n)] for _ in range(n)] for _ in range(6)]
        for p in (2**31 - 1, 46337**2)
        for n in (1, 3, 6)
    }
    want = {(p, n): det_mod(stack, p).tolist() for (p, n), stack in stacks.items()}
    monkeypatch.setattr(modular, "int_dtype", lambda *bounds: object)
    for (p, n), stack in stacks.items():
        got = det_mod(stack, p)
        assert got.dtype == object and got.tolist() == want[p, n]


def test_blocked_read_off_matches_pivotwise_oracle(monkeypatch):
    # the read-off by blocks of pivots against the one-product-per-pivot
    # read-off, on systems whose pivots span three or more blocks: in
    # float32 (q = 36) and float64 (q = 225) at the default block size,
    # then in int64 and on Python ints (q^2 (P + 1) >= 2^62) with blocks
    # of 5 pivots; composite q throughout
    routes = set()

    def recorded(a, b, bound):
        if sys._getframe(1).f_code.co_name == "_hermite_columns":
            routes.add(product_dtype(bound))
        return matmul(a, b, bound)

    rng = random.Random(79)
    cases = [(36, 400, 420), (225, 410, 400)]
    cases += [(q, 40, 36) for q in (2**24 - 2, 2**31 - 2, 2 * 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23 * 29)]
    for q, m, k in cases:
        rows = [[rng.randrange(q) * rng.choice((1, 1, 2, 3)) for _ in range(m)] for _ in range(k)]
        want = hermite_columns_pivotwise(rows, m, q)
        if m < 100:
            monkeypatch.setattr(modular, "_READ_BLOCK", 5)
        monkeypatch.setattr(modular, "matmul", recorded)
        got = modular._hermite_columns(residues(rows, q), m, q)
        monkeypatch.undo()
        assert len(got[1]) >= 3 * (5 if m < 100 else modular._READ_BLOCK)
        assert all(u.tolist() == v.tolist() for u, v in zip(got, want))
    assert routes == {np.float32, np.float64, np.int64, object}


def test_solve_congruence_lattice_reaches_every_product_route(monkeypatch):
    # the read-off's products in float64 (q^2 (P + 1) < 2^53), in int64
    # (q near 2^24 with at least 32 pivots), on Python ints and, last, in
    # float32 (q^2 (P + 1) < 2^24), against the gcd sweep oracle
    routes = set()

    def recorded(a, b, bound):
        if sys._getframe(1).f_code.co_name == "_hermite_columns":
            routes.add(product_dtype(bound))
        return matmul(a, b, bound)

    monkeypatch.setattr(modular, "matmul", recorded)
    rng = random.Random(71)
    for q, m, k in (
        (1009**2, 12, 10), (2**24 - 3, 40, 36), (2**24 - 1, 40, 38), (2**24, 40, 36), (2**31 + 11, 8, 6), (1009, 12, 10)
    ):
        rows = [[rng.randrange(q) * rng.choice((1, 1, 2, 3)) for _ in range(m)] for _ in range(k)]
        expected = [list(r) for r in solve_congruence_lattice_full(rows, m, q)]
        assert solve_congruence_lattice(rows, m, q).tolist() == expected
    assert routes == {np.float32, np.float64, np.int64, object}


def test_diagonalize_mod_splits_a_base_after_a_flush(monkeypatch):
    # the unfactored base P60 * Q60 shows a zero divisor only at pivot
    # `units`, past the first _BLOCK, so after a flush; the chain must be
    # the one the row-at-a-time eliminator gives
    rng = random.Random(59)
    splits = []
    monkeypatch.setattr(modular, "_refine", lambda parts: splits.append(parts[0][0]) or _refine(parts))
    for q in (P60 * Q60, P60**2 * Q60, 6 * P60 * Q60):
        for _ in range(3):
            m = rng.randint(_BLOCK + 8, 80)
            units = rng.randint(_BLOCK + 1, m - 4)
            rows = [[rng.randrange(q) for _ in range(m)] for _ in range(units)]
            for i in range(units, m):
                g = P60 if i == units else rng.choice((P60, Q60, P60 * Q60, 1))
                coeffs = [rng.randrange(q) for _ in range(units)]
                rows.append([
                    (g * rng.randrange(q) + sum(c * r[j] for c, r in zip(coeffs, rows[:units]))) % q
                    for j in range(m)
                ])
            del splits[:]
            diag = _diagonalize_mod(rows, q)
            assert splits[0] == P60
            with monkeypatch.context() as patch:
                patch.setattr(modular, "_eliminate_chain", eliminate_chain_rows)
                assert _diagonalize_mod(rows, q) == diag
            assert all(q % d == 0 for d in diag)
            assert all(diag[j + 1] % diag[j] == 0 for j in range(m - 1))


def test_refine_gives_coprime_bases():
    # a base and a proper factor of it, as a zero divisor gives them, and
    # several numbers at once, as relevant_primes gives them
    splits = ((P60 * Q60, P60), (P60**2 * Q60, P60), (P60**3, P60), (12, 2), (36, 6), (360, 12))
    cases = [[(g, 1), (b // g, 1)] for b, g in splits]
    cases += [[(P60 * Q60, 2), (P60 * 1009, 1), (Q60, 3), (1, 5)], [(6, 1), (10, 1), (15, 1), (6, 2)]]
    cases.append([(P60, 1)] * 3)
    for given in cases:
        parts = _refine(given)
        assert all(c > 1 and f >= 1 for c, f in parts)
        assert [c for c, _ in parts] == sorted(c for c, _ in parts)
        assert prod(c**f for c, f in parts) == prod(c**f for c, f in given)
        assert all(gcd(c, d) == 1 for (c, _), (d, _) in itertools.combinations(parts, 2))
    assert _refine([(6, 1), (10, 1), (15, 1)]) == [(2, 2), (3, 2), (5, 2)]


def test_scaled_idempotent_invariants_composite_scales():
    # E = M P adj(M) with det M = +-scale: E^2 = det(M) E, invariants
    # against the gcds of minors
    rng = random.Random(43)
    for scale in (6, 12, 30, 36, 60, 225, 360):
        for _ in range(6):
            n = rng.randint(2, 4)
            r = rng.randint(0, n)
            split = [1] * n
            left = scale
            for i in range(n - 1):
                g = rng.choice([d for d in range(1, left + 1) if left % d == 0])
                split[i], left = g, left // g
            split[-1] = left
            rows = (random_sl(n, rng) * IntMatrix.diagonal(split) * random_sl(n, rng)).to_lists()
            proj = [[1 if (i == j and i < r) else 0 for j in range(n)] for i in range(n)]
            e = obj(rows) @ obj(proj) @ obj(adjugate(rows)) * (1 if det_small(rows) > 0 else -1)
            assert (e @ e == e * scale).all()
            e = IntMatrix(e)
            assert scaled_idempotent_invariants(e.array, scale) == gcd_minor_invariants(e)
