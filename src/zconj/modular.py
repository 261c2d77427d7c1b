"""Linear algebra over Z/q and lattices defined by congruences.

The central object is the solution lattice {s in Z^m : A s = 0 (mod q)}.
It always contains q Z^m, so a triangular basis can be maintained with
all intermediate entries reduced mod q.  Every kernel here keeps its
residues in [0, q), so no intermediate exceeds q^2 + q in magnitude;
that bound picks the numpy dtype (int64 for small q, Python ints
otherwise) and the same code runs for every modulus.

Also here: the invariant-factor shortcut for scaled idempotents.  If
E * E = L * E exactly, every invariant factor of E divides L (for v in
the saturation of the column space, c v = E w gives c E v = L c v, so
L v lies in the column space), the matrix is semisimple with spectrum
in {0, L}, and rank(E) = trace(E) / L.  The invariant factors are then
read off from a Smith chain over Z/L, with rank many in total and the
reductions that vanish mod L standing for invariant factors equal to L.
"""

from __future__ import annotations

from math import gcd

import numpy as np

from .linalg import xgcd
from .matrix import IntMatrix, int_dtype


def inv_mod(a: int, q: int) -> int:
    g, x, _ = xgcd(a % q, q)
    if g != 1:
        raise ValueError("%d is not a unit modulo %d" % (a, q))
    return x % q


def unit_scaling(a: int, q: int):
    """Return (g, u) with g = gcd(a, q), u a unit mod q, u*a = g (mod q).

    For a = 0 (mod q) returns (0, 1).  Existence of the unit is the
    standard lemma that any element of Z/q is a unit times a divisor
    of q.
    """
    a %= q
    if a == 0:
        return 0, 1
    g = gcd(a, q)
    aq = a // g
    qq = q // g
    u = inv_mod(aq, qq) if qq > 1 else 1
    # adjust u by multiples of q/g until it is a unit mod q
    while gcd(u, q) != 1:
        u += qq
    return g, u % q


def prime_factors(n: int):
    """Sorted distinct prime factors by trial division."""
    n = abs(n)
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


def residues(rows, q: int):
    """rows (nested int lists or an integer array) reduced into [0, q).

    The result has the dtype every mod-q kernel uses, chosen by the
    bound q^2 + q.  Lists go through Python ints so that no entry is
    rounded or wrapped on the way in.
    """
    dtype = int_dtype(q * q + q)
    if dtype is object or not isinstance(rows, np.ndarray):
        rows = np.array(rows, dtype=object)
    return (rows % q).astype(dtype, copy=False)


def det_mod(rows, p: int) -> int:
    """Determinant of rows (int lists or an integer array) modulo a prime p.

    Gaussian elimination over Z/p.
    """
    a = residues(rows, p)
    n = a.shape[0]
    result = 1
    for c in range(n):
        nz = np.nonzero(a[c:, c])[0]
        if len(nz) == 0:
            return 0
        piv = int(nz[0]) + c
        if piv != c:
            a[[c, piv]] = a[[piv, c]]
            result = -result
        pv = int(a[c, c])
        result = (result * pv) % p
        below = a[c + 1 :, c]
        if below.any():
            f = (below * pow(pv, -1, p)) % p
            a[c + 1 :, c:] = (a[c + 1 :, c:] - np.outer(f, a[c, c:])) % p
    return result % p


# -- diagonalization over Z/q --------------------------------------------


def _diagonalize_mod(rows, q: int):
    """Diagonalize rows over Z/q; returns (diag, V).

    Row and column operations invertible mod q only; V collects the
    column side so that the solution lattice can be reconstructed.
    Each pivot is an entry of least gcd with q in the residual block;
    when it fails to divide its row or column, the sweep repeats with
    the smaller gcd it leaves behind.
    """
    a = residues(rows, q)
    nrows, ncols = a.shape
    v = np.eye(ncols, dtype=a.dtype)
    steps = min(nrows, ncols)
    t = 0
    while t < steps:
        block = a[t:, t:]
        nz = block != 0
        if not nz.any():
            break
        while True:
            block = a[t:, t:]
            nz = block != 0
            gs = np.gcd(block, q)
            gs[~nz] = q + 1
            i, j = np.unravel_index(int(np.argmin(gs)), gs.shape)
            i += t
            j += t
            if i != t:
                a[[t, i], :] = a[[i, t], :]
            if j != t:
                a[:, [t, j]] = a[:, [j, t]]
                v[:, [t, j]] = v[:, [j, t]]
            g, u = unit_scaling(int(a[t, t]), q)
            if u != 1:
                a[t, t:] = (a[t, t:] * u) % q
            piv = g
            col = a[t + 1 :, t]
            if col.any():
                f = col // piv
                a[t + 1 :, t:] = (a[t + 1 :, t:] - np.outer(f, a[t, t:])) % q
                if a[t + 1 :, t].any():
                    continue
            row = a[t, t + 1 :]
            if row.any():
                f = row // piv
                a[:, t + 1 :] = (a[:, t + 1 :] - np.outer(a[:, t], f)) % q
                v[:, t + 1 :] = (v[:, t + 1 :] - np.outer(v[:, t], f)) % q
                if a[t, t + 1 :].any() or a[t + 1 :, t].any():
                    continue
            break
        t += 1
    diag = [int(a[i, i]) for i in range(t)]
    return diag, v


# -- Howell-style triangular bases ----------------------------------------


def _kernel_gens(diag, v, q: int):
    """Generators (q / gcd(d_j, q)) V e_j of the solution lattice, as rows."""
    m = v.shape[1]
    d = list(diag) + [0] * (m - len(diag))
    mults = np.array([q // gcd(x, q) for x in d], dtype=v.dtype)
    gens = ((v * mults) % q).T
    return gens[(gens != 0).any(axis=1)]


def _howell(gens, m: int, q: int):
    pool = residues(gens, q)
    out = {}
    for col in range(m):
        while True:
            mask = pool[:, col] != 0
            if not mask.any():
                break
            active = np.nonzero(mask)[0]
            vals = pool[active, col]
            gs = np.gcd(vals, q)
            kbest = active[int(np.argmin(gs))]
            g, u = unit_scaling(int(pool[kbest, col]), q)
            if u != 1:
                pool[kbest] = (pool[kbest] * u) % q
            pivrow = pool[kbest].copy()
            others = active[active != kbest]
            if len(others):
                f = pool[others, col] // g
                pool[others] = (pool[others] - np.outer(f, pivrow)) % q
            pool[kbest] = 0
            if not (pool[:, col] != 0).any():
                out[col] = pivrow
                ann = q // gcd(g, q)
                if ann > 1:
                    annrow = (pivrow * ann) % q
                    if annrow.any():
                        pool = np.vstack([pool, annrow[None, :]])
                break
            pool = np.vstack([pool, pivrow[None, :]])
    basis = []
    for col in range(m):
        if col in out:
            row = out[col].copy()
            row[col] = gcd(int(row[col]), q)
            basis.append(row)
        else:
            row = np.zeros(m, dtype=pool.dtype)
            row[col] = q
            basis.append(row)
    basis = np.array(basis, dtype=pool.dtype)
    # reduce entries above each pivot; reducing mod q afterwards only
    # adds q e_j rows, which lie in the lattice, and never touches the
    # pivots sitting strictly left of the current column
    for col in range(m):
        d = int(basis[col, col])
        above = basis[:col, col]
        f = above // d
        if f.any():
            basis[:col, col:] = basis[:col, col:] - np.outer(f, basis[col, col:])
            basis[:col, col + 1 :] %= q
    return [tuple(int(x) for x in row) for row in basis]


def triangular_lattice_basis(gens, m: int, q: int):
    """Triangular basis of the lattice generated by gens together with qZ^m.

    Rows of the result form a basis: row j has its pivot at column j,
    the pivot divides q, and a column no generator reaches gets the
    plain q e_j row.
    """
    if len(gens) == 0:
        gens = [[0] * m]
    return _howell(gens, m, q)


def solve_congruence_lattice(rows, m: int, q: int):
    """Basis of {s in Z^m : A s = 0 (mod q)} for A given by rows.

    Diagonalize A over Z/q as U A V = D; with t = V^-1 s the system
    becomes d_j t_j = 0 (mod q), so the solutions are generated by
    (q / gcd(d_j, q)) V e_j together with q Z^m.
    """
    if q <= 1:
        return [tuple(q if i == j else 0 for i in range(m)) for j in range(m)] if q else []
    if len(rows) == 0:
        rows = [[0] * m]
    diag, v = _diagonalize_mod(rows, q)
    return triangular_lattice_basis(_kernel_gens(diag, v, q), m, q)


# -- invariant factors of scaled idempotents -------------------------------


class NotScaledIdempotent(ValueError):
    """Raised when E * E differs from L * E."""


def scaled_idempotent_invariants(e: IntMatrix, scale: int):
    """Invariant factors of a matrix E satisfying E*E = scale*E exactly.

    Verifies the identity, derives rank = trace/scale, and reads the
    invariant factors from a Smith chain over Z/scale; a diagonal entry
    that vanishes mod scale is an invariant factor equal to scale.
    """
    if scale <= 0:
        raise ValueError("scale must be positive")
    if e * e != e * scale:
        raise NotScaledIdempotent("matrix is not a scaled idempotent")
    tr = e.trace()
    if tr % scale:
        raise NotScaledIdempotent("trace is not a multiple of the scale")
    r = tr // scale
    if r < 0 or r > e.nrows:
        raise NotScaledIdempotent("trace out of range")
    if scale == 1:
        return (1,) * r
    diag, _ = _diagonalize_mod(e.rows, scale)
    vals = [gcd(d, scale) for d in diag if d]
    # Smith chain over divisors of the scale
    for i in range(len(vals)):
        for j in range(i + 1, len(vals)):
            a, b = vals[i], vals[j]
            if b % a:
                g = gcd(a, b)
                vals[i], vals[j] = g, a // g * b
    # an entry equal to the scale vanishes mod the scale
    vals = sorted(x for x in vals if x != scale)
    if len(vals) > r:
        raise NotScaledIdempotent("more invariant factors than the rank allows")
    return tuple(vals) + (scale,) * (r - len(vals))
