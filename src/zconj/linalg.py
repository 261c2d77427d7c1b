"""Exact normal forms and lattice utilities over the integers.

Everything here is computed with exact integer arithmetic.  Rational
data is carried fraction-free: fraction_free_rref is the one elimination
behind det, the RREF kernel route, the scaled inverse in conjugacy and
the minimal polynomial in spectral, each of its steps typed by the
entries it holds (int64 while they stay below about 2^30.5), and LLL
keeps integral Gram-Schmidt data.  Invariant factors come from one
kernel, the divisor chain of modular._diagonalize_mod taken modulo a
nonzero maximal minor that fraction_free_rref supplies (Domich, Kannan
and Trotter 1987), so their cost is polynomial in the bit size of the
input.  The Hermite form comes from gcd row operations; its unimodular
transform is accumulated as a product of elementary row operations,
never recovered by solving.

Conventions:

* hnf is row-style: U * A = H with H in row Hermite normal form
  (positive pivots, entries above a pivot reduced into [0, pivot),
  zero rows last)
* snf_invariants returns the invariant factors d_1 | d_2 | ... | d_r,
  d_i > 0, of a matrix of rank r, without transforms
* kernel_basis returns a basis of the saturated integer kernel
  {v : A v = 0}, so the basis extends to a basis of Z^ncols
"""

from __future__ import annotations

from math import gcd

import numpy as np

from .matrix import CertificateError, IntMatrix, int_dtype, matmul, max_abs
from .modular import _diagonalize_mod, solve_congruence_lattice, xgcd


# -- Hermite normal form ------------------------------------------------


def _hnf_inplace(m, rows, cols, transform):
    """Row-reduce m to HNF in place; apply the same ops to transform."""
    r = 0
    for c in range(cols):
        # find a row with a nonzero entry in column c at or below r
        pivot = None
        for i in range(r, rows):
            if m[i][c]:
                pivot = i
                break
        if pivot is None:
            continue
        if pivot != r:
            m[r], m[pivot] = m[pivot], m[r]
            transform[r], transform[pivot] = transform[pivot], transform[r]
        # fold every lower row into the pivot row with a unimodular 2x2 step
        for i in range(r + 1, rows):
            if not m[i][c]:
                continue
            a, b = m[r][c], m[i][c]
            g, x, y = xgcd(a, b)
            ag, bg = a // g, b // g
            ri, rr = m[i], m[r]
            for j in range(c, cols):
                u, v = rr[j], ri[j]
                rr[j] = x * u + y * v
                ri[j] = ag * v - bg * u
            ti, tr = transform[i], transform[r]
            for j in range(len(tr)):
                u, v = tr[j], ti[j]
                tr[j] = x * u + y * v
                ti[j] = ag * v - bg * u
        if m[r][c] < 0:
            m[r] = [-a for a in m[r]]
            transform[r] = [-a for a in transform[r]]
        piv = m[r][c]
        # reduce the rows above the pivot into [0, piv)
        for i in range(r):
            q = m[i][c] // piv
            if q:
                mi, mr = m[i], m[r]
                for j in range(c, cols):
                    mi[j] -= q * mr[j]
                ti, tr = transform[i], transform[r]
                for j in range(len(tr)):
                    ti[j] -= q * tr[j]
        r += 1
        if r == rows:
            break


def hnf(a):
    """Return (H, U), object arrays, with U unimodular and U a = H in row HNF."""
    m = a.tolist()
    rows, cols = a.shape
    u = [[1 if i == j else 0 for j in range(rows)] for i in range(rows)]
    _hnf_inplace(m, rows, cols, u)
    return np.array(m, dtype=object), np.array(u, dtype=object)


# -- Smith invariants ---------------------------------------------------


def snf_invariants(matrix: IntMatrix) -> tuple:
    """Invariant factors d_1 | ... | d_r of a matrix of rank r.

    fraction_free_rref gives r and d, a nonzero r x r minor.  The product
    d_1 ... d_r divides every r x r minor, so each d_i divides |d| and the
    divisor chain of the diagonalization over Z/|d| lists them first,
    followed by |d| for each of the remaining columns.
    """
    _, pivots, d, _ = fraction_free_rref(matrix.array)
    r, d = len(pivots), abs(d)
    if not r:
        return ()
    diag = _diagonalize_mod(matrix.array, d)
    if any(x != d for x in diag[r:]):
        raise CertificateError("Smith chain has more invariants than the rank")
    return tuple(diag[:r])


# -- fraction-free elimination ------------------------------------------


def fraction_free_rref(rows):
    """Integer-preserving Gauss-Jordan elimination of an integer matrix A.

    Returns (R, pivots, d, sign): the integer array R = d * RREF(A),
    whose zero rows follow its len(pivots) pivot rows; the pivot columns
    in increasing order; d, the determinant of A's pivot rows and
    columns after the row swaps (1 at rank 0); and sign = (-1)^swaps.
    Each step keeps the pivot row and replaces every other row by
    (p row - a_ic pivot_row) / d_prev, an exact division (Bareiss).
    Every stored entry is a minor of A and every intermediate a product
    of two.  Each step picks its own dtype: with M the largest magnitude
    in the working array, both products are at most M^2 and their
    difference at most 2 M^2, so the step runs in int_dtype(2 M^2),
    int64 until the minors pass about 2^30.5.  A step on Python ints is
    followed by more of them, without the scan.  A is never written.
    """
    a = rows if isinstance(rows, np.ndarray) else np.array(rows, dtype=object)
    nrows, ncols = a.shape
    pivots, d, sign = [], 1, 1
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        nz = np.flatnonzero(a[r:, c])
        if not len(nz):
            continue
        if not pivots or a.dtype != object:
            m = max_abs(a)
            a = a.astype(int_dtype(2 * m * m), copy=False)
        k = r + int(nz[0])
        p, pivot_row = a[k, c], a[k]
        # the step makes a new array, so A is never written; rows r and k swap after it
        a = (p * a - np.outer(a[:, c], pivot_row)) // d
        if k != r:
            a[k], sign = a[r], -sign
        a[r] = pivot_row
        pivots.append(c)
        d = int(p)
    if not pivots:
        return np.zeros(a.shape, dtype=np.int64), pivots, d, sign
    return a, pivots, d, sign


# -- kernels, determinant ------------------------------------------------


KERNEL_RREF_CUTOFF = 16  # kernel_basis eliminates fraction-free above this size


def kernel_basis(a):
    """Rows of a basis of the saturated integer kernel {v : A v = 0}.

    Small systems go through the row HNF of the transpose: rows of the
    transform matching zero rows of the HNF form a basis, and because
    the transform is unimodular the basis is automatically saturated.
    Systems with a side above KERNEL_RREF_CUTOFF switch to fraction-free
    elimination, where entry growth stays bounded by minor sizes instead
    of compounding through gcd folds.  There a kernel of rank one is the
    primitive vector whose last nonzero entry is positive: that entry is
    the one free coordinate, and the Hermite diagonal is positive.
    """
    if max(a.shape) > KERNEL_RREF_CUTOFF:
        return _kernel_basis_rref(a)
    h, u = hnf(a.T)
    return u[~h.any(axis=1)]


def _kernel_basis_rref(a):
    """Saturated kernel via the fraction-free RREF plus one congruence solve.

    With R = d RREF(A), pivot columns p_i and free columns f_j, every
    rational kernel vector is determined by its free coordinates c,
    with pivot coordinates -N c for the block N = R[:, free] / d.  Its
    common denominator is den = |d| / gcd(d, R[:, free]), and
    integrality of the pivot coordinates is the congruence (den N) c =
    0 mod den, so the saturated kernel is the image of that solution
    lattice.
    """
    r_mat, pivots, d, _ = fraction_free_rref(a)
    ncols = a.shape[1]
    free = [c for c in range(ncols) if c not in pivots]
    if not free:
        return np.zeros((0, ncols), dtype=np.int64)
    num = r_mat[: len(pivots), free].astype(object)
    den = abs(d) // gcd(d, *num.flat)
    coeffs = solve_congruence_lattice(num // (d // den), len(free), den)
    # coeffs are reduced mod den <= |d|; the bound covers d, which
    # divides the product next
    pivot_part = matmul(num, coeffs.T, max(abs(d), max_abs(num) * den * len(free)))
    if (pivot_part % d).any():
        raise CertificateError("kernel vector is not integral")
    basis = np.zeros((len(coeffs), ncols), dtype=object)
    basis[:, free] = coeffs
    basis[:, pivots] = -(pivot_part // d).T
    ma, mb = max_abs(a), max_abs(basis)
    if matmul(a, basis.T, max(ma, mb, ma * mb * ncols)).any():
        raise CertificateError("kernel vector is not annihilated")
    return basis


def det(a) -> int:
    """Determinant: sign * d of the fraction-free elimination at full rank."""
    if a.shape[0] != a.shape[1]:
        raise ValueError("determinant needs a square matrix")
    _, pivots, d, sign = fraction_free_rref(a)
    return sign * d if len(pivots) == a.shape[0] else 0


def charpoly(a):
    """Characteristic polynomial coefficients [1, c_1, ..., c_n].

    Faddeev-LeVerrier on one integer array: each step is one exact
    product, whose bound is max |A| n times the last, an exact division
    and a diagonal shift.  The polynomial is t^n + c_1 t^(n-1) + ... + c_n.
    """
    if a.shape[0] != a.shape[1]:
        raise ValueError("characteristic polynomial needs a square matrix")
    n = len(a)
    mx = max_abs(a)
    coeffs = [1]
    m, bound = np.eye(n, dtype=np.int64), 1
    for k in range(1, n + 1):
        bound = max(mx, bound, mx * bound * n)
        m = matmul(a, m, bound)
        c = -sum(m.diagonal().tolist())
        if c % k:
            raise CertificateError("Faddeev-LeVerrier division is not exact")
        c //= k
        coeffs.append(c)
        if k < n:
            bound += abs(c)
            m = m.astype(int_dtype(bound), copy=False)
            m.flat[:: n + 1] += c
    return coeffs


# -- lattice reduction ---------------------------------------------------


def lll_reduce(basis, delta=None):
    """LLL-reduce integer row vectors with integral Gram-Schmidt data.

    Returns a new list of vectors spanning the same lattice.  delta is
    the Lovasz parameter, an exact rational 1/4 < delta <= 1 given as
    any number with as_integer_ratio() (default 99/100).  In place of
    the rational mu_ij and |b_i*|^2 the loop keeps de Weger's integers
    (Cohen, Alg. 2.6.7): d_i, the Gram determinant of the independent
    vectors among b_0..b_i, and lam_ij = d_j mu_ij.  A vector that
    depends on its predecessors has b_i* = 0, so mu_ji = 0 and d_i =
    d_(i-1).  A swap updates these in place, as SWAPI does for
    independent vectors and MLLL (Alg. 2.6.8) when b_k* = 0.
    """
    b = [list(v) for v in basis]
    n = len(b)
    if any(len(v) != len(b[0]) for v in b):
        raise ValueError("basis vectors must share a dimension")
    num, den = (99, 100) if delta is None else delta.as_integer_ratio()
    d = [1] * (n + 1)  # d[i + 1] belongs to b_i, d[0] = 1
    lam = [[0] * n for _ in range(n)]
    zero = [False] * n  # b_i* = 0

    def swap(k):
        # b_(k-1)* != 0; below, d[k - 1], d[k] and d[k + 1] belong to
        # b_(k-2), b_(k-1) and b_k before the swap
        b[k], b[k - 1] = b[k - 1], b[k]
        for j in range(k - 1):
            lam[k][j], lam[k - 1][j] = lam[k - 1][j], lam[k][j]
        lk, dk = lam[k][k - 1], d[k]
        if not zero[k]:
            big = (d[k - 1] * d[k + 1] + lk * lk) // dk
            for i in range(k + 1, n):
                t = lam[i][k]
                lam[i][k] = (d[k + 1] * lam[i][k - 1] - lk * t) // dk
                lam[i][k - 1] = (big * t + lk * lam[i][k]) // d[k + 1]
            d[k] = big
        elif lk == 0:
            # the new b_(k-1) depends on b_0..b_(k-2); the new b_k* is the old b_(k-1)*
            zero[k - 1], zero[k], d[k] = True, False, d[k - 1]
            for i in range(k + 1, n):
                lam[i][k], lam[i][k - 1] = lam[i][k - 1], 0
        else:
            # the new b_(k-1)* is mu b_(k-1)*, the new b_k depends: every
            # d_j from k - 1 on is multiplied by mu^2 = lk^2 / dk^2
            big = lk * lk // dk
            for i in range(k + 1, n):
                lam[i][k - 1] = lk * lam[i][k - 1] // dk
                for j in range(k + 1, i):
                    lam[i][j] = lam[i][j] * big // dk
            for j in range(k + 1, n + 1):
                d[j] = d[j] * big // dk
            d[k] = big

    for i in range(n):
        for j in range(i + 1):
            u = sum(x * y for x, y in zip(b[i], b[j]))
            for l in range(j):
                if not zero[l]:
                    u = (d[l + 1] * u - lam[i][l] * lam[j][l]) // d[l]
            if j < i:
                lam[i][j] = 0 if zero[j] else u
            else:
                zero[i] = u == 0
                d[i + 1] = d[i] if zero[i] else u
    k = 1
    while k < n:
        # size reduction of b_k against b_j for j < k: |mu_kj| > 1/2,
        # rounded half away from zero
        for j in range(k - 1, -1, -1):
            l2, dj = 2 * lam[k][j], d[j + 1]
            if abs(l2) > dj:
                r = (l2 + dj) // (2 * dj) if l2 > 0 else -((dj - l2) // (2 * dj))
                b[k] = [a - r * c for a, c in zip(b[k], b[j])]
                lam[k][j] -= r * dj
                for l in range(j):
                    lam[k][l] -= r * lam[j][l]
        # Lovasz: |b_k*|^2 >= (delta - mu^2) |b_(k-1)*|^2, times den d_(k-1) d_(k-2)
        lk, dk = lam[k][k - 1], 0 if zero[k] else d[k + 1]
        if zero[k - 1] or den * (dk * d[k - 1] + lk * lk) >= num * d[k] * d[k]:
            k += 1
        else:
            swap(k)
            k = max(k - 1, 1)
    return [tuple(v) for v in b]
