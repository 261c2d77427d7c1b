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

from math import gcd, isqrt

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


class FactorizationBudget(ValueError):
    """Some cofactor was neither proven prime nor split within the step
    budget.  primes holds the prime factors that were found.
    """

    def __init__(self, message: str, primes=()):
        super().__init__(message)
        self.primes = list(primes)


def _primes_below(n: int):
    sieve = np.ones(n, dtype=bool)
    sieve[:2] = False
    for d in range(2, isqrt(n) + 1):
        sieve[d * d :: d] = False
    return tuple(np.flatnonzero(sieve).tolist())


_SMALL_PRIMES = _primes_below(1000)
# Miller-Rabin with the first 13 prime bases (2 to 41) is a proof below
# this bound, the least strong pseudoprime to all of them
_MR_BASES = _SMALL_PRIMES[:13]
_MR_PROOF_LIMIT = 3317044064679887385961981
_RHO_STEPS = 1 << 20


def _strong_probable_prime(n: int) -> bool:
    """Miller-Rabin on an odd n > 41 with the bases _MR_BASES."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _brent_factor(n: int, steps: int):
    """(d, steps left): a proper factor d of the odd composite n by
    Pollard-Brent rho within a budget of steps, or d = None once the
    budget runs out.
    """
    for c in range(1, n):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            steps -= r
            k = 0
            while k < r and g == 1:
                ys = y
                batch = min(128, r - k)
                for _ in range(batch):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                steps -= batch
                if steps < 0:
                    return None, steps
                g = gcd(q, n)
                k += batch
            r *= 2
        if g == n:
            # the batch overshot the collision: redo it one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g, steps
    return None, steps


def prime_factors(n: int):
    """Sorted distinct prime factors of n.

    Trial division by the primes below 1000, then Miller-Rabin on each
    cofactor and Pollard-Brent rho to split the composite ones, under a
    fixed step budget.  A probable prime is never taken as prime: when a
    cofactor is neither proven prime nor split within the budget, the
    other cofactors are still factored and FactorizationBudget is raised
    with the primes found.
    """
    n = abs(n)
    if n < 2:
        return []
    out = set()
    for d in _SMALL_PRIMES:
        if d * d > n:
            break
        if n % d == 0:
            out.add(d)
            while n % d == 0:
                n //= d
    pending = [n] if n > 1 else []
    stuck = []
    steps = _RHO_STEPS
    while pending:
        c = pending.pop()
        if c < 1000 * 1000:
            out.add(c)  # it has no factor below min(1000, sqrt(c))
        elif _strong_probable_prime(c):
            if c < _MR_PROOF_LIMIT:
                out.add(c)
            else:
                stuck.append(c)  # a probable prime with no proof
        else:
            d, steps = _brent_factor(c, steps)
            if d is None:
                stuck.append(c)
            else:
                pending += [d, c // d]
    if stuck:
        raise FactorizationBudget(
            "cannot factor %s within the step budget" % ", ".join(map(str, sorted(stuck))),
            sorted(out),
        )
    return sorted(out)


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


def _inverses_mod(v, p: int):
    """Inverses modulo a prime p of the residues v (0 maps to 0).

    Fermat, v^(p-2), by square-and-multiply over the whole array: about
    2 log2(p) array operations, whatever the length of v.  When v has
    fewer entries than that, one Python pow per entry is cheaper.
    """
    e = p - 2
    if len(v) < 2 * e.bit_length():
        return np.array([pow(u, -1, p) if u else 0 for u in v.tolist()], dtype=v.dtype)
    out = np.ones_like(v)
    base = v.copy()
    while e:
        if e & 1:
            out = (out * base) % p
        base = (base * base) % p
        e >>= 1
    return out


def det_mod(rows, p: int):
    """Determinant modulo a prime p of one matrix or of a (K, n, n) stack.

    rows: int lists or an integer array.  Returns an int for a matrix and
    an array of K residues for a stack.  One Gaussian elimination over
    Z/p runs on every matrix at once, a single matrix being the K = 1
    stack.  A zero diagonal entry gets the first row below it with a
    nonzero entry in that column added, which keeps the determinant and
    needs no sign; with no such row the determinant is 0.  The
    elimination stops once every determinant is known to be 0.
    """
    a = residues(rows, p)
    single = a.ndim == 2
    if single:
        a = a[None]
    k, n = a.shape[0], a.shape[-1]
    result = np.ones(k, dtype=a.dtype)
    for c in range(n):
        if not a[:, c, c].all():
            zero = np.flatnonzero(a[:, c, c] == 0)
            piv = c + np.argmax(a[zero, c:, c] != 0, axis=1)
            a[zero, c] = (a[zero, c] + a[zero, piv]) % p
        pv = a[:, c, c]
        result = (result * pv) % p
        if not result.any():
            break
        if c + 1 < n:
            f = (a[:, c + 1 :, c] * _inverses_mod(pv, p)[:, None]) % p
            a[:, c + 1 :, c:] = (a[:, c + 1 :, c:] - f[:, :, None] * a[:, None, c, c:]) % p
    return int(result[0]) if single else result


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
