"""Independent oracles and random constructors shared by the tests.

Everything here is deliberately naive: Laplace determinants, gcds of
enumerated minors, adjugate inverses.  Slow but obviously correct, so
the production routines are checked against arithmetic that cannot
share their bugs.
"""

import itertools
from math import gcd

from zconj.linalg import hnf
from zconj.matrix import IntMatrix
from zconj.modular import prime_factors, unit_scaling


def det_small(rows) -> int:
    """Laplace expansion along the first row."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        sub = [r[:j] + r[j + 1 :] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * det_small(sub)
    return total


def adjugate(rows):
    n = len(rows)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            sub = [
                [rows[r][c] for c in range(n) if c != i]
                for r in range(n)
                if r != j
            ]
            out[i][j] = (-1) ** (i + j) * det_small(sub)
    return out


def unimodular_inverse(u: IntMatrix) -> IntMatrix:
    """Inverse of a determinant +-1 matrix via the adjugate."""
    d = det_small(u.to_lists())
    assert abs(d) == 1
    inv = IntMatrix(adjugate(u.to_lists())) * d
    assert u * inv == IntMatrix.identity(u.nrows)
    return inv


def random_sl(n: int, rng, steps: int = 6) -> IntMatrix:
    """Product of random shears, so always determinant one."""
    rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        lam = rng.choice((-2, -1, 1, 2))
        for t in range(n):
            rows[i][t] += lam * rows[j][t]
    return IntMatrix(rows)


def random_split_conjugate(n: int, rng, steps: int = 4):
    """A matrix with split integer spectrum, hidden by conjugation."""
    vals = rng.sample(range(-8, 9), rng.randint(1, n))
    diag = [rng.choice(vals) for _ in range(n)]
    for val in vals:
        if val not in diag:
            diag[rng.randrange(n)] = val
    u = random_sl(n, rng, steps=steps)
    return u * IntMatrix.diagonal(diag) * unimodular_inverse(u)


def gcd_minor_invariants(matrix: IntMatrix):
    """Smith invariants via gcds of all k x k minors."""
    rows = matrix.to_lists()
    out = []
    prev = 1
    for k in range(1, min(matrix.nrows, matrix.ncols) + 1):
        g = 0
        for rset in itertools.combinations(range(matrix.nrows), k):
            for cset in itertools.combinations(range(matrix.ncols), k):
                sub = [[rows[i][j] for j in cset] for i in rset]
                g = gcd(g, abs(det_small(sub)))
        if g == 0:
            break
        out.append(g // prev)
        prev = g
    return tuple(out)


def flat(m: IntMatrix):
    return [v for row in m.rows for v in row]


def lattice_hnf(basis):
    """Canonical form of the lattice spanned by flattened matrices."""
    if not basis:
        return None
    h, _ = hnf(IntMatrix([flat(b) for b in basis]))
    return tuple(tuple(r) for r in h.rows if any(r))


def same_span(basis_a, basis_b) -> bool:
    return lattice_hnf(basis_a) == lattice_hnf(basis_b)


def factor_powers(n: int):
    """[(p, e)] with n = product of p**e, primes ascending."""
    m = abs(n)
    out = []
    for p in prime_factors(m):
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        out.append((p, e))
    return out


def howell_py(gens, m: int, q: int):
    """Triangular basis of gens + qZ^m by list arithmetic on Python ints."""
    pool = [[x % q for x in row] for row in gens]
    out = {}
    for col in range(m):
        while True:
            active = [r for r in pool if r[col]]
            if not active:
                break
            best = min(active, key=lambda r: gcd(r[col], q))
            g, u = unit_scaling(best[col], q)
            if u != 1:
                for j in range(col, m):
                    best[j] = (best[j] * u) % q
            pivrow = list(best)
            for r in active:
                if r is best:
                    continue
                f = r[col] // g
                for j in range(col, m):
                    r[j] = (r[j] - f * pivrow[j]) % q
            for j in range(m):
                best[j] = 0
            pool = [r for r in pool if any(r)]
            if not any(r[col] for r in pool):
                out[col] = pivrow
                ann = q // gcd(g, q)
                if ann > 1:
                    annrow = [(x * ann) % q for x in pivrow]
                    if any(annrow):
                        pool.append(annrow)
                break
            pool.append(pivrow)
    basis = []
    for col in range(m):
        if col in out:
            row = list(out[col])
            row[col] = gcd(row[col], q)
            basis.append(row)
        else:
            row = [0] * m
            row[col] = q
            basis.append(row)
    for col in range(m):
        d = basis[col][col]
        bc = basis[col]
        for i in range(col):
            f = basis[i][col] // d
            if f:
                bi = basis[i]
                for j in range(col, m):
                    bi[j] -= f * bc[j]
                for j in range(col + 1, m):
                    bi[j] %= q
    return [tuple(row) for row in basis]
