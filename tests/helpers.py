"""Independent oracles and random constructors shared by the tests.

Everything here is deliberately naive: Laplace determinants, gcds of
enumerated minors, adjugate inverses, eliminations and Gram-Schmidt
over Fraction, integer roots by trying divisors.  Slow but obviously
correct, so the production routines are checked against arithmetic
that cannot share their bugs.
"""

import functools
import itertools
import os
import random
from fractions import Fraction
from math import gcd, isqrt, lcm
from pathlib import Path

import numpy as np

from zconj.linalg import fraction_free_rref, hnf, xgcd
from zconj.matrix import CertificateError, IntMatrix, matmul, product_dtype
from zconj.modular import (
    _howell_rows,
    _ZeroDivisor,
    prime_factors,
    residues,
    solve_congruence_lattice,
    unit_scaling,
)
from zconj.spectral import NotSplit, SplitSpectrum, _integer_roots


SRC = Path(__file__).resolve().parents[1] / "src"


def obj(m):
    """m (an IntMatrix, an integer array or nested lists) as an object
    array of Python ints, for reference arithmetic that cannot overflow."""
    return np.array(m.to_lists() if isinstance(m, IntMatrix) else np.asarray(m).tolist(), dtype=object)


def subprocess_env():
    """Environment in which a child python imports zconj from this checkout."""
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


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
    inv = IntMatrix(obj(adjugate(u.to_lists())) * d)
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


def hidden(m: IntMatrix, rng, steps: int = 6) -> IntMatrix:
    """u m u^-1 for u a product of random shears, inverted shear by shear,
    so any size is cheap."""
    n = m.nrows
    u, u_inv = IntMatrix.identity(n), IntMatrix.identity(n)
    for _ in range(steps if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        lam = rng.choice((-2, -1, 1, 2))
        shear = [[int(r == c) + lam * ((r, c) == (i, j)) for c in range(n)] for r in range(n)]
        inverse = [[int(r == c) - lam * ((r, c) == (i, j)) for c in range(n)] for r in range(n)]
        u, u_inv = u * IntMatrix(shear), IntMatrix(inverse) * u_inv
    assert u * u_inv == IntMatrix.identity(n)
    return u * m * u_inv


def upper_triangular(diag, rng) -> IntMatrix:
    """Upper-triangular matrix with the given diagonal and random entries
    in [-3, 3] above it exactly where the row's and the column's diagonal
    entries differ."""
    n = len(diag)
    return IntMatrix(
        [[diag[i] if i == j else rng.randint(-3, 3) * (j > i and diag[i] != diag[j]) for j in range(n)]
         for i in range(n)]
    )


def scalar_blocks(eigenvalues, n: int, rng) -> IntMatrix:
    """upper_triangular n x n, the eigenvalues in the order given on the
    diagonal in scalar blocks of near-equal size."""
    return upper_triangular([eigenvalues[i * len(eigenvalues) // n] for i in range(n)], rng)


def three_eigenvalue_probe(n: int, seed: int):
    """(X, Y): one scalar_blocks matrix with eigenvalues -3, 0 and 25,
    each side hidden by its own 3n shears.  The inputs have a few digits,
    the HNF transform rows of their eigenlattices hundreds at n = 12."""
    rng = random.Random(seed)
    x = scalar_blocks((-3, 0, 25), n, rng)
    return hidden(x, rng, steps=3 * n), hidden(x, rng, steps=3 * n)


def bit_size_pair(bits: int, seed: int):
    """(X, Y): one 6 x 6 scalar_blocks matrix with eigenvalues 0, g1 and
    -g2, two each, for random gaps g1 and g2 of the given bit size, each
    side hidden by its own 2n = 12 shears."""
    rng = random.Random(seed)
    g1, g2 = (rng.randrange(2 ** (bits - 1), 2**bits) for _ in range(2))
    x = scalar_blocks((0, g1, -g2), 6, rng)
    return hidden(x, rng, steps=12), hidden(x, rng, steps=12)


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


def signed_divisors(n: int):
    """Every divisor of n > 0 with both signs, smallest |d| first."""
    out = set()
    for d in range(1, n + 1):
        if d * d > n:
            break
        if n % d == 0:
            out.update((d, -d, n // d, -(n // d)))
    return sorted(out, key=abs)


def unit_by_divisors(a: int, b: int, c: int):
    """A witness (x, y) with a x^2 + b xy + c y^2 = +-1, or None, for a
    square discriminant e^2 by enumerating the divisor systems of
    4a f = (2ax + (b - e) y)(2ax + (b + e) y); a = 0 gives f = y (bx + cy)."""
    e = isqrt(b * b - 4 * a * c)
    assert e * e == b * b - 4 * a * c

    def unit(x, y):
        return a * x * x + b * x * y + c * y * y in (1, -1)

    if a == 0:
        if b == 0:
            return (0, 1) if unit(0, 1) else None
        for y in (1, -1):
            for lin in (1, -1):
                x, r = divmod(lin - c * y, b)
                if not r and unit(x, y):
                    return x, y
        return None
    if e == 0:
        # 4a f = (2ax + by)^2, so 2ax + by = +-t with t^2 = |4a|
        t = isqrt(4 * abs(a))
        g, u, v = xgcd(2 * a, b)
        for rhs in (t, -t):
            k, r = divmod(rhs, g)
            if t * t == 4 * abs(a) and not r and unit(u * k, v * k):
                return u * k, v * k
        return None
    for d1 in signed_divisors(4 * abs(a)):
        for d2 in (4 * a // d1, -4 * a // d1):
            y, r = divmod(d2 - d1, 2 * e)
            x, s = divmod(d1 - (b - e) * y, 2 * a)
            if not r and not s and unit(x, y):
                return x, y
    return None


def flat(m: IntMatrix):
    return [v for row in m.to_lists() for v in row]


def lattice_hnf(basis):
    """Canonical form of the lattice spanned by flattened matrices."""
    if not basis:
        return None
    h, _ = hnf(obj([flat(b) for b in basis]))
    return tuple(tuple(r) for r in h.tolist() if any(r))


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


def prime_factors_trial_division(n: int):
    """Sorted distinct prime factors of n > 0 by trying every divisor."""
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    return out + ([n] if n > 1 else [])


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


def diagonalize_mod_gcd_sweep(rows, q: int):
    """(diag, V) over Z/q by the gcd sweep, on lists of Python ints.

    Row and column operations invertible mod q; each pivot is an entry
    of least gcd with q in the residual block (first in row-major order
    among ties), and the sweep repeats while the pivot fails to divide
    its column or row.  diag holds the raw pivots, V the column side.
    """
    a = [[x % q for x in row] for row in rows]
    nrows, ncols = len(a), len(a[0])
    v = [[int(i == j) for j in range(ncols)] for i in range(ncols)]
    t = 0
    while t < min(nrows, ncols):
        if not any(a[i][j] for i in range(t, nrows) for j in range(t, ncols)):
            break
        while True:
            _, i, j = min(
                (gcd(a[i][j], q), i, j)
                for i in range(t, nrows)
                for j in range(t, ncols)
                if a[i][j]
            )
            a[t], a[i] = a[i], a[t]
            for row in a + v:
                row[t], row[j] = row[j], row[t]
            piv, u = unit_scaling(a[t][t], q)
            a[t] = [x * u % q for x in a[t]]
            for r in range(t + 1, nrows):
                f = a[r][t] // piv
                a[r] = [(x - f * y) % q for x, y in zip(a[r], a[t])]
            if any(a[r][t] for r in range(t + 1, nrows)):
                continue
            f = [a[t][c] // piv for c in range(ncols)]
            for row in a + v:
                for c in range(t + 1, ncols):
                    row[c] = (row[c] - row[t] * f[c]) % q
            if any(a[t][t + 1 :]) or any(a[r][t] for r in range(t + 1, nrows)):
                continue
            break
        t += 1
    return [a[i][i] for i in range(t)], v


def solve_congruence_lattice_full(rows, m: int, q: int):
    """Triangular basis of {s : A s = 0 (mod q)}: the gcd sweep, the
    generators (q / gcd(d_j, q)) V e_j, then howell_py."""
    diag, v = diagonalize_mod_gcd_sweep(rows, q)
    diag = list(diag) + [0] * (m - len(diag))
    gens = [[v[i][j] * (q // gcd(diag[j], q)) % q for i in range(m)] for j in range(m)]
    gens = [g for g in gens if any(g)] or [[0] * m]
    return howell_py(gens, m, q)


def eigenblock_basis_full(x: IntMatrix, y: IntMatrix, spx, spy):
    """Basis of C(X,Y) for split X, Y from the uncompressed system.

    With B, C the stacked eigenlattice bases and D = q B^-1, T = (1/q)
    sum_a C_a S_a D_a; integrality is the n^2-row congruence system
    sum_a C_a S_a D_a = 0 (mod q), one row per entry of T and one
    column per entry of the blocks S_a, solved by
    solve_congruence_lattice_full.  Each element is assembled and
    checked with object-dtype arithmetic.
    """
    from zconj.conjugacy import _eigenbases, _scaled_inverse

    n = x.nrows
    b_mat, bx = _eigenbases(x.array, spx)
    c_mat, cy = _eigenbases(y.array, spy)
    q = lcm(*spx.scales)
    d_mat, _ = _scaled_inverse(b_mat, q)
    c_mat, d_mat = obj(c_mat), obj(d_mat)
    common = [a for a in spx.eigenvalues if a in cy]
    cols = []  # (a, u, v): the entry S_a[u, v]
    for a in common:
        cols += [(a, u, w) for u in range(cy[a].start, cy[a].stop) for w in range(bx[a].start, bx[a].stop)]
    if not cols:
        return ()
    rows = [[c_mat[r, u] * d_mat[w, c] for _, u, w in cols] for r in range(n) for c in range(n)]
    basis = []
    for s in solve_congruence_lattice_full(rows, len(cols), q):
        total = [[sum(sv * c_mat[r, u] * d_mat[w, c] for sv, (_, u, w) in zip(s, cols)) for c in range(n)] for r in range(n)]
        assert all(v % q == 0 for row in total for v in row)
        t = IntMatrix([[v // q for v in row] for row in total])
        assert (obj(t) @ obj(x) == obj(y) @ obj(t)).all()
        basis.append(t)
    return tuple(basis)


# -- exact rational eliminations (oracles for the fraction-free kernel) -----


def scaled_inverse_fraction(m: IntMatrix, scale: int) -> IntMatrix:
    """scale * m^-1 by Gauss-Jordan over Fraction; CertificateError unless integral."""
    n = m.nrows
    a = [[Fraction(m[i, j]) for j in range(n)] for i in range(n)]
    inv = [[Fraction(scale if i == j else 0) for j in range(n)] for i in range(n)]
    for c in range(n):
        piv = next((i for i in range(c, n) if a[i][c]), None)
        if piv is None:
            raise CertificateError("matrix is singular")
        a[c], a[piv] = a[piv], a[c]
        inv[c], inv[piv] = inv[piv], inv[c]
        f = a[c][c]
        a[c] = [v / f for v in a[c]]
        inv[c] = [v / f for v in inv[c]]
        for i in range(n):
            if i != c and a[i][c]:
                g = a[i][c]
                a[i] = [v - g * w for v, w in zip(a[i], a[c])]
                inv[i] = [v - g * w for v, w in zip(inv[i], inv[c])]
    if any(v.denominator != 1 for row in inv for v in row):
        raise CertificateError("scaled inverse is not integral")
    return IntMatrix([[int(v) for v in row] for row in inv])


def rref_fraction(rows):
    """(RREF over Fraction, pivot columns)."""
    m = [[Fraction(v) for v in row] for row in rows]
    pivcols = []
    for c in range(len(m[0])):
        r = len(pivcols)
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        m[r] = [v / m[r][c] for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [v - f * w for v, w in zip(m[i], m[r])]
        pivcols.append(c)
        if len(pivcols) == len(m):
            break
    return m, pivcols


def kernel_basis_fraction(matrix: IntMatrix):
    """Saturated kernel from the rational RREF plus one congruence solve."""
    m, pivcols = rref_fraction(matrix.to_lists())
    free = [c for c in range(matrix.ncols) if c not in pivcols]
    if not free:
        return []
    r = len(pivcols)
    d = lcm(1, *(m[i][c].denominator for i in range(r) for c in free))
    scaled = [[int(m[i][c] * d) for c in free] for i in range(r)]
    basis = []
    for srow in solve_congruence_lattice(scaled, len(free), d).tolist():
        v = [Fraction(0)] * matrix.ncols
        for j, c in enumerate(free):
            v[c] += srow[j]
            for i in range(r):
                v[pivcols[i]] -= srow[j] * m[i][c]
        assert all(x.denominator == 1 for x in v)
        basis.append(tuple(int(x) for x in v))
    return basis


def local_minimal_polynomial_fraction(x, w):
    """Monic minimal polynomial of x acting on w by left multiplication,
    w a vector or an n x m matrix, by incremental rational echelon of the
    flattened Krylov terms."""
    echelon = []  # (reduced vector, pivot position, combination coefficients)
    kry = np.array(w, dtype=object).reshape(len(x), -1).tolist()
    k = 0
    while True:
        vec = [Fraction(a) for row in kry for a in row]
        comb = [Fraction(0)] * k + [Fraction(1)]
        for evec, pos, ecomb in echelon:
            f = vec[pos]
            if f:
                vec = [a - f * e for a, e in zip(vec, evec)]
                for j, c in enumerate(ecomb):
                    comb[j] -= f * c
        pos = next((j for j in range(len(vec)) if vec[j]), None)
        if pos is None:
            assert all(c.denominator == 1 for c in comb)
            return tuple(int(c) for c in comb)
        piv = vec[pos]
        echelon.append(([a / piv for a in vec], pos, [c / piv for c in comb]))
        kry = [[sum(a * row[j] for a, row in zip(xrow, kry)) for j in range(len(kry[0]))] for xrow in x.tolist()]
        k += 1


# -- the split-spectrum path as it was before the Krylov sequence of x's
# powers: local minimal polynomials column by column, evaluated at x by
# Horner's rule, and projectors checked pair by pair, all on object
# arrays of Python ints


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return tuple(out)


def poly_eval_matrix(poly, m):
    """poly(m) for an object array m, by Horner's rule."""
    eye = np.eye(len(m), dtype=object)
    acc = eye * poly[-1]
    for c in reversed(poly[:-1]):
        acc = acc @ m + eye * c
    return acc


def local_minimal_polynomial_columns(x: IntMatrix, w):
    """Monic minimal polynomial of x acting on the vector w (w != 0), from
    the fraction-free RREF of the Krylov vectors themselves."""
    xo, kry, size = obj(x), [np.array(w, dtype=object)], 2
    while True:
        while len(kry) < size:
            kry.append(xo @ kry[-1])
        r, pivots, d, _ = fraction_free_rref(np.stack(kry, axis=1))
        k = len(pivots)
        if k < size:
            if (r[:k, k] % d).any():
                raise CertificateError("Krylov dependency is not integral")
            return tuple(-int(v) // d for v in r[:k, k]) + (1,)
        size = min(2 * size, x.nrows + 1)


def minimal_polynomial_columns(x: IntMatrix):
    """Accumulates local minimal polynomials column by column; the running
    product always divides the true minimal polynomial, so the loop can
    stop as soon as the product annihilates the matrix."""
    n = x.nrows
    mu = (1,)
    mu_at_x = np.eye(n, dtype=object)
    for col in range(n):
        w = mu_at_x[:, col].tolist()
        if not any(w):
            continue
        nu = local_minimal_polynomial_columns(x, w)
        mu = poly_mul(mu, nu)
        mu_at_x = poly_eval_matrix(nu, obj(x)) @ mu_at_x
        if not mu_at_x.any():
            break
    return mu


def split_spectrum_intmatrix(x: IntMatrix) -> SplitSpectrum:
    """split_spectrum with object-array numerators and pairwise checks."""
    mu = minimal_polynomial_columns(x)
    roots, full = _integer_roots(mu)
    if not full:
        raise NotSplit("minimal polynomial %s has a non-integer root" % (mu,))
    if len(set(roots)) != len(roots):
        raise NotSplit("minimal polynomial %s has a repeated root" % (mu,))
    eigenvalues = tuple(sorted(roots))
    n = x.nrows
    eye, xo = np.eye(n, dtype=object), obj(x)
    idempotents = []
    scales = []
    multiplicities = []
    for a in eigenvalues:
        num = eye
        den = 1
        for b in eigenvalues:
            if b != a:
                num = num @ (xo - eye * b)
                den *= a - b
        g = gcd(*num.flat, abs(den))
        q = abs(den) // g
        sign = 1 if den > 0 else -1
        e = num // (sign * g)
        tr = e.trace()
        if tr % q or tr < 0:
            raise CertificateError("idempotent trace is not a multiple of its scale")
        idempotents.append(e)
        scales.append(q)
        multiplicities.append(tr // q)
    check_projector_identities_pairwise(xo, eigenvalues, idempotents, scales, multiplicities)
    return SplitSpectrum(
        n=n,
        eigenvalues=eigenvalues,
        multiplicities=tuple(multiplicities),
        idempotents=tuple(map(IntMatrix, idempotents)),
        scales=tuple(scales),
    )


def check_projector_identities_pairwise(x, eigenvalues, idempotents, scales, mults):
    """E_i E_i = q_i E_i, X E_i = a_i E_i, E_i E_j = 0, sum (L/q_i) E_i = L I,
    on object arrays."""
    x, es = obj(x), [obj(e) for e in idempotents]
    n = len(x)
    big = lcm(*scales)
    total = np.zeros((n, n), dtype=object)
    ok = sum(mults) == n
    for i, (e, q, a) in enumerate(zip(es, scales, eigenvalues)):
        ok = ok and (e @ e == e * q).all() and (x @ e == e * a).all()
        ok = ok and not any((e @ f).any() for f in es[i + 1 :])
        total = total + e * (big // q)
    if not (ok and (total == np.eye(n, dtype=object) * big).all()):
        raise CertificateError("scaled idempotents fail the projector identities")


def charpoly_intmatrix(matrix: IntMatrix):
    """Faddeev-LeVerrier with an object-array product, trace and diagonal
    shift per step."""
    n = matrix.nrows
    a, eye = obj(matrix), np.eye(n, dtype=object)
    coeffs = [1]
    m = eye
    for k in range(1, n + 1):
        m = a @ m
        c = -m.trace()
        if c % k:
            raise CertificateError("Faddeev-LeVerrier division is not exact")
        c //= k
        coeffs.append(c)
        if k < n:
            m = m + eye * c
    return coeffs


def gram_schmidt_fraction(basis):
    """(mu, norms): the rational Gram-Schmidt coefficients mu_ij, j < i,
    and squared norms |b_i*|^2 of integer rows; mu_ij = 0 when b_j* = 0."""
    n = len(basis)

    def dot(u, v):
        return sum(x * y for x, y in zip(u, v))

    mu = [[Fraction(0)] * n for _ in range(n)]
    norms = [Fraction(0)] * n
    for i in range(n):
        for j in range(i):
            mu_ij = Fraction(dot(basis[i], basis[j]))
            for l in range(j):
                mu_ij -= mu[j][l] * mu[i][l] * norms[l]
            mu[i][j] = mu_ij / norms[j] if norms[j] else Fraction(0)
        norms[i] = dot(basis[i], basis[i]) - sum(mu[i][j] ** 2 * norms[j] for j in range(i))
    return mu, norms


def lll_fraction(basis):
    """LLL (delta = 99/100) with exact rational Gram-Schmidt, recomputed
    after every change."""
    b = [list(v) for v in basis]
    n = len(b)
    mu, norms = gram_schmidt_fraction(b)
    k = 1
    while k < n:
        for j in range(k - 1, -1, -1):
            q = mu[k][j]
            if q * 2 > 1 or q * 2 < -1:
                r = int(q + Fraction(1, 2)) if q > 0 else -int(-q + Fraction(1, 2))
                b[k] = [a - r * c for a, c in zip(b[k], b[j])]
                mu, norms = gram_schmidt_fraction(b)
        if norms[k] >= (Fraction(99, 100) - mu[k][k - 1] ** 2) * norms[k - 1]:
            k += 1
        else:
            b[k], b[k - 1] = b[k - 1], b[k]
            mu, norms = gram_schmidt_fraction(b)
            k = max(k - 1, 1)
    return [tuple(v) for v in b]


def integer_roots_divisors(poly):
    """(roots, fully_split) of a monic polynomial by trying divisors of its constant term."""
    roots, p = [], list(poly)
    while len(p) > 1:
        c = abs(p[0])
        cands = [0] if c == 0 else [s * e for e in range(1, c + 1) if c % e == 0 for s in (1, -1)]
        root = next((r for r in cands if sum(a * r**i for i, a in enumerate(p)) == 0), None)
        if root is None:
            return roots, False
        roots.append(root)
        q, acc = [0] * (len(p) - 1), 0
        for i in range(len(p) - 1, 0, -1):
            acc = acc * root + p[i]
            q[i - 1] = acc
        p = q
    return roots, True


def det_bareiss(rows) -> int:
    """Determinant by fraction-free (Bareiss) elimination on Python ints:
    every division is exact, so any modulus can reduce the result."""
    a = [[int(v) for v in row] for row in rows]
    n, sign, prev = len(a), 1, 1
    for c in range(n):
        piv = next((i for i in range(c, n) if a[i][c]), None)
        if piv is None:
            return 0
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            sign = -sign
        for i in range(c + 1, n):
            for j in range(c + 1, n):
                a[i][j] = (a[i][j] * a[c][c] - a[i][c] * a[c][j]) // prev
        prev = a[c][c]
    return sign * prev if n else 1


def bareiss_step_maxima(rows):
    """Largest entry magnitude of the working matrix before each step of
    the fraction-free Gauss-Jordan elimination (pivot: the first nonzero
    entry at or below the next pivot row), on Python ints."""
    a = [[int(v) for v in row] for row in rows]
    maxima, d, r = [], 1, 0
    for c in range(len(a[0]) if a else 0):
        if r == len(a):
            break
        k = next((i for i in range(r, len(a)) if a[i][c]), None)
        if k is None:
            continue
        maxima.append(max(abs(v) for row in a for v in row))
        a[r], a[k] = a[k], a[r]
        p, top = a[r][c], a[r]
        a = [row if i == r else [(p * x - row[c] * y) // d for x, y in zip(row, top)] for i, row in enumerate(a)]
        d, r = p, r + 1
    return maxima


def det_mod_list(rows, p: int) -> int:
    """Determinant modulo a prime p by Gaussian elimination on lists."""
    a = [[v % p for v in row] for row in rows]
    n = len(a)
    out = 1
    for c in range(n):
        piv = next((i for i in range(c, n) if a[i][c]), None)
        if piv is None:
            return 0
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            out = -out
        out = out * a[c][c] % p
        inv = pow(a[c][c], p - 2, p)
        for i in range(c + 1, n):
            f = a[i][c] * inv % p
            if f:
                a[i] = [(u - f * v) % p for u, v in zip(a[i], a[c])]
    return out % p


def local_test_sequential(lattice, p: int, budget: int = 100000, seed: int = 0):
    """The local test one candidate at a time: (status, T, method, phase).

    Candidate order, random draws and budget accounting as in
    zconj.conjugacy.local_test: seeded random draws, then every class of
    C(X,Y)/p in itertools.product order when p^rank <= 2^20.  phase
    names where the hit came from (random, exhaustive).
    """
    basis = [flat(b) for b in lattice.basis]
    m, n = len(basis), lattice.n
    if m == 0:
        return "FAIL", None, "exhaustive", None

    def combine(coeffs):
        vec = [sum(c * b[i] for c, b in zip(coeffs, basis)) for i in range(n * n)]
        return [vec[r * n : (r + 1) * n] for r in range(n)]

    def unit(coeffs):
        return det_mod_list(combine(coeffs), p) != 0

    def hit(coeffs, method, phase):
        return "PASS", IntMatrix(combine(coeffs)), method, phase

    spent = 0
    exhaustible = p**m <= 1 << 20
    rng = random.Random(seed)
    quick = budget
    if exhaustible:
        quick = 0 if p**m <= 4096 else min(budget, 4096)
    while spent < quick:
        spent += 1
        coeffs = [rng.randrange(p) for _ in range(m)]
        if any(coeffs) and unit(coeffs):
            return hit(coeffs, "sampled", "random")
    if exhaustible:
        for coeffs in itertools.product(range(p), repeat=m):
            if any(coeffs) and unit(coeffs):
                return hit(coeffs, "exhaustive", "exhaustive")
        return "FAIL", None, "exhaustive", None
    return "UNDECIDED", None, None, None


@functools.lru_cache(maxsize=64)
def _lll_fraction_of(vectors):
    return lll_fraction(vectors)


def conjugator_search_sequential(lattice, budget: int, seed: int = 0):
    """(T, stage): the stages of conjugator_search after the aligned
    intertwiner, one candidate at a time.

    Basis elements, then, for at most 64 of them, the LLL-reduced ones
    (lll_fraction) and the growing-radius enumeration over the reduced
    basis, then seeded rng.randint(-3, 3) combinations of the reduced
    basis (of the basis above 64 elements), each candidate evaluated,
    and each node the enumeration walks, counted against the budget; a
    candidate is accepted when its Bareiss determinant is +-1.
    """
    from zconj.conjugacy import _enumerate_short

    n = lattice.n
    vectors = [flat(b) for b in lattice.basis]
    m = len(vectors)
    reduced = _lll_fraction_of(tuple(map(tuple, vectors))) if m <= 64 else vectors
    spent = 0

    def unimodular(coeffs, basis):
        vec = [sum(c * v[i] for c, v in zip(coeffs, basis)) for i in range(n * n)]
        rows = [vec[r * n : (r + 1) * n] for r in range(n)]
        return IntMatrix(rows) if abs(det_bareiss(rows)) == 1 else None

    for stage, basis in (("basis", vectors), ("reduced", reduced))[: 2 if m <= 64 else 1]:
        for i in range(m):
            spent += 1
            t = unimodular([int(j == i) for j in range(m)], basis)
            if t is not None:
                return t, stage
            if spent >= budget:
                return None, None
    if m <= 64:
        r2, prev = float(max(sum(v * v for v in w) for w in reduced)) * 1.1, 0.0
        for _ in range(10):
            if spent >= budget:
                break
            for coeffs in _enumerate_short(reduced, r2, prev):
                spent += 1
                t = None if coeffs is None else unimodular(coeffs, reduced)
                if t is not None:
                    return t, "enumeration"
                if spent >= budget:
                    break
            prev, r2 = r2, r2 * 2.0
    rng = random.Random(seed)
    while spent < budget:
        spent += 1
        coeffs = [rng.randint(-3, 3) for _ in range(m)]
        t = unimodular(coeffs, reduced) if any(coeffs) else None
        if t is not None:
            return t, "random"
    return None, None


def jacobi_sum_per_x(j: int, ring, table):
    """alpha_j and its valuation by the direct sum over x = 2..q-1, with
    log x and 1 - x looked up afresh for every x."""
    field, q = ring.field, ring.q
    k = (q - 1) // 2
    total = ring.zero
    for x in range(2, q):
        onemx = field._index(tuple((a - b) % field.p for a, b in zip(field.coeffs(1), field.coeffs(x))))
        term = ring.mul(table[(-j * field.log[x]) % (q - 1)], table[(k * field.log[onemx]) % (q - 1)])
        total = ring.add(total, term)
    return total, ring.valuation(total)


# the pivot-at-a-time Hermite read-off: one product per pivot over every
# pivot column found before it
def hermite_columns_pivotwise(rows, m: int, q: int):
    """(diag, pivots, sp) as modular._hermite_columns gives them, q >= 1.

    The pivot c' of Howell row E_c' gets, in the rows c above it, the
    entry -(sum_{j<c'} E_c'j S_cj) / g_c' mod q / g_c': the diagonal
    term plus one product of all the pivot columns found so far against
    E_c' at those pivots.
    """
    a = residues(rows, q).reshape(len(rows), m)
    howell = sorted(_howell_rows(a, q).items())
    pivots = np.array([c for c, _ in howell], dtype=np.intp)
    bound = q * q * (len(pivots) + 1)
    diag = np.ones(m, dtype=a.dtype)
    sp = np.zeros((m, len(pivots)), dtype=product_dtype(bound))
    for i, (c, e) in enumerate(howell):
        g = int(e[c])
        x = matmul(sp[:c, :i], e[pivots[:i]], bound) + diag[:c] * e[:c]
        if (x % g).any():
            raise CertificateError("Howell rows do not give an exact division")
        sp[:c, i], diag[c] = -(x // g) % (q // g), q // g
    return diag, pivots, sp


# the row-at-a-time chain-ring eliminator: one rank-1 update per pivot
def eliminate_chain_rows(a, b: int, k: int):
    """Levels of the diagonalization of the residues a modulo b^k, in place.

    At level l every entry of the residual block is divisible by b^l,
    and a pivot is any entry that b^(l+1) does not divide, found by
    scanning one row; a row without one moves below the candidates,
    where this level's row operations keep it divisible by b^(l+1).
    Row operations clear the pivot's column, and the pivot row is never
    read again.  Returns levels, levels[j] the level of the j-th pivot.
    A base b that is not prime raises _ZeroDivisor with a proper factor
    when a pivot is not b^l times a unit.
    """
    n_mod = b**k
    nrows, ncols = a.shape
    levels = []
    t = 0
    for level in range(k):
        low, high = b**level, b ** (level + 1)
        end = nrows  # rows t..end-1 may still hold a pivot of this level
        while t < min(end, ncols):
            hits = np.flatnonzero(a[t, t:] % high)
            if not len(hits):
                end -= 1
                a[[t, end]] = a[[end, t]]
                continue
            j = t + int(hits[0])
            a[:, [t, j]] = a[:, [j, t]]
            unit = int(a[t, t]) // low
            if gcd(unit, b) != 1:
                raise _ZeroDivisor(gcd(unit, b))
            below = t + 1 + np.flatnonzero(a[t + 1 :, t])
            if len(below):
                f = (a[below, t] // low) * pow(unit, -1, n_mod // low) % n_mod
                a[below, t:] = (a[below, t:] - f[:, None] * a[t, t:]) % n_mod
            levels.append(level)
            t += 1
    return levels


def glue_orbits(r: int, s: int, d: int):
    """{N: root} for every r x s matrix N mod d, as a flat tuple, where
    N and M share a root exactly when M = P N R^-1 (mod d) with det P
    and det R = +-1 mod d.  Union-find over all d^(rs) matrices; the
    generators are I + e_ij (i != j) and diag(-1, 1, ...) on either
    side, since elementary matrices generate SL_n(Z), which maps onto
    SL_n(Z/d)."""
    parent = {}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    states = list(itertools.product(range(d), repeat=r * s))
    for v in states:
        parent[v] = v
    for v in states:
        m = [list(v[i * s : (i + 1) * s]) for i in range(r)]
        images = []
        for i, j in itertools.permutations(range(r), 2):
            images.append([[(u + w) % d for u, w in zip(m[i], m[j])] if k == i else m[k] for k in range(r)])
        images.append([[(-u) % d for u in m[0]]] + m[1:])
        cols = [list(c) for c in zip(*m)]
        for i, j in itertools.permutations(range(s), 2):
            added = [[(u + w) % d for u, w in zip(cols[i], cols[j])] if k == i else cols[k] for k in range(s)]
            images.append(list(zip(*added)))
        images.append([[(-row[0]) % d] + row[1:] for row in m])
        for image in images:
            a, b = find(v), find(tuple(u for row in image for u in row))
            if a != b:
                parent[a] = b
    return {v: find(v) for v in states}
