"""Linear algebra over Z/q and lattices defined by congruences.

The central object is the solution lattice {s in Z^m : A s = 0 (mod q)}.
It always contains q Z^m, so its Hermite normal form has all entries
reduced mod q, and it is read off the Howell form of A over Z/q in one
pass (Storjohann and Mulders, ESA 1998).  The divisor chain of a
diagonalization over Z/q comes from a chain-ring eliminator: q splits
into coprime prime powers p^k, over Z/p^k every entry is p^l times a
unit and pivots go by level l, and the chain of q multiplies the
chains of the pieces.  Its row operations are delayed and applied a
block of pivots at a time as one product, with bound p^(2k) times the
block size (Dumas, Giorgi and Pernet, FFLAS-FFPACK, ACM TOMS 2008).
Every kernel keeps its residues in [0, q), so no elementwise step
exceeds q^2 + q in magnitude; that bound picks the numpy dtype (int64
for small q, Python ints otherwise), matrix products go through
matrix.matmul with bound q^2 times the number of terms summed, and the
same code runs for every modulus.  Whole-array reductions mod q go
through the one residue kernel, reduce_mod, in place on the array its
caller gives up: numpy divides an int64 array by one divisor with a
multiply and shifts (libdivide; Granlund and Montgomery, PLDI 1994),
where % divides entry by entry, so x - q (x // q) is several times
faster.  The rule is by call site, not by size: % stays on scalars and
on per-pivot rows and vectors (the Howell pass, the Hermite read-off,
the eliminator's row scan and multipliers), where one division pass
costs less than reduce_mod's three array operations.

No modulus is factored.  Trial division by the primes below 1000 leaves
a cofactor, which is taken for a prime (a base) until a nonzero entry
that is not a unit shows up modulo it; its gcd with the base splits it,
and _refine keeps the parts coprime (Della Dora, Dicrescenzo and Duval,
EUROCAL 1985).  The divisor chain and decide's local tests
(conjugacy.relevant_primes, det_mod) share this scheme.

smith_mod gives the Smith form over Z/q with its transforms and their
inverses, by gcd steps on residues, for the small glue blocks of
two-eigenvalue pairs.

Also here: the invariant-factor shortcut for scaled idempotents.  If
E * E = L * E exactly, every invariant factor of E divides L (for v in
the saturation of the column space, c v = E w gives c E v = L c v, so
L v lies in the column space), the matrix is semisimple with spectrum
in {0, L}, and rank(E) = trace(E) / L.  The invariant factors are then
the first rank(E) entries of the divisor chain over Z/L, the way
linalg.snf_invariants reads them modulo a maximal minor.
"""

from __future__ import annotations

from collections import Counter
from math import gcd, isqrt

import numpy as np

from .matrix import CertificateError, int_dtype, matmul, max_abs, product_dtype


def xgcd(a: int, b: int):
    """Return (g, x, y) with g = gcd(a, b) >= 0 and x*a + y*b = g."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


def inv_mod(a: int, q: int) -> int:
    """Inverse of a modulo q; ValueError when a is not a unit."""
    return pow(a, -1, q)


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


class _ZeroDivisor(ArithmeticError):
    """A base taken for a prime has a proper factor, args[0]."""


def _primes_below(n: int):
    sieve = np.ones(n, dtype=bool)
    sieve[:2] = False
    for d in range(2, isqrt(n) + 1):
        sieve[d * d :: d] = False
    return tuple(np.flatnonzero(sieve).tolist())


_SMALL_PRIMES = _primes_below(1000)


def _local_moduli(q: int):
    """Pairwise coprime [(b, k)] with q = prod b^k, increasing: the primes
    below 1000, then the cofactor as one base taken for a prime.  Trial
    division stops at p^2 > q, so a cofactor below 10^6 is prime."""
    out = []
    for p in _SMALL_PRIMES:
        if p * p > q:
            break
        if q % p == 0:
            k = 0
            while q % p == 0:
                q //= p
                k += 1
            out.append((p, k))
    return out + [(q, 1)] if q > 1 else out


def prime_factors(n: int):
    """Sorted distinct prime factors of n by trial division: the cofactor
    left is prime below 10^6, and ValueError names a larger one."""
    bases = [b for b, _ in _local_moduli(abs(n))]
    if bases and bases[-1] >= 1000 * 1000:
        raise ValueError("cannot factor %d by trial division" % bases[-1])
    return bases


_INT64_MAX = int(np.iinfo(np.int64).max)
# entries of reduce_mod's temporary: 64 KiB of int64, which the allocator
# serves without mapping fresh pages, where a whole-array temporary of the
# 121-vertex pair's congruence system would add 250 MB
_RESIDUE_BLOCK = 1 << 13


def reduce_mod(x, q: int):
    """x mod q, in [0, q), for an integer array x that the caller gives up.

    An int64 x takes t = x // q; t *= q; x -= t in place, over blocks of
    leading-axis slices, so that its one temporary t stays near
    _RESIDUE_BLOCK entries.  Floor division rounds negative quotients
    down, so the result is exact, even where q (x // q) wraps.  Object
    arrays, integer dtypes int64 cannot hold and q past int64 go through
    Python ints; a read-only x is copied first.  ValueError for q < 1 and
    for a non-integer x.
    """
    if x.dtype == np.int64 and x.flags.writeable and 0 < q <= _INT64_MAX:
        blocks = (x,)
        if x.size > _RESIDUE_BLOCK:
            step = max(1, _RESIDUE_BLOCK // x[0].size)
            blocks = (x[i : i + step] for i in range(0, len(x), step))
        for block in blocks:
            t = block // q
            t *= q
            block -= t
        return x
    if q < 1:
        raise ValueError("modulus must be at least 1, got %d" % q)
    if x.dtype.kind not in "biuO":
        raise ValueError("reduce_mod needs an integer array, got %s" % x.dtype)
    if x.dtype != object and q <= _INT64_MAX and np.can_cast(x.dtype, np.int64):
        return reduce_mod(x.astype(np.int64), q)
    if x.dtype != object or not x.flags.writeable:
        x = x.astype(object)
    return np.remainder(x, q, out=x)


def residues(rows, q: int):
    """rows (nested int lists or an integer array) reduced into [0, q).

    The result has the dtype every mod-q kernel uses, chosen by the
    bound q^2 + q.  Lists go through Python ints so that no entry is
    rounded or wrapped on the way in.  An array is copied, never reduced
    in place.
    """
    dtype = int_dtype(q * q + q)
    if dtype is object or not isinstance(rows, np.ndarray):
        rows = np.array(rows, dtype=object)
    else:
        rows = rows.copy()
    return reduce_mod(rows, q).astype(dtype, copy=False)


def matmul_mod(a, b, q: int):
    """a @ b mod q for arrays of residues in [0, q], with residues' dtype;
    the product is matmul's, with bound q^2 times the inner dimension."""
    return reduce_mod(matmul(a, b, q * q * max(1, a.shape[-1])), q).astype(int_dtype(q * q + q), copy=False)


def _inverses_mod(v, b: int):
    """Inverses modulo b of the nonzero residues v; _ZeroDivisor with a
    proper factor of b when one is not a unit.

    Fermat, v^(b-2), by square-and-multiply over the whole array: about
    2 log2(b) array operations, whatever the length of v.  A result that
    is not an inverse (b composite) takes one Python pow, as every entry
    does when v has fewer entries than that.
    """
    e = b - 2
    try:
        if len(v) < 2 * e.bit_length():
            return np.array([pow(u, -1, b) if u else 0 for u in v.tolist()], dtype=v.dtype)
        out, base = np.ones_like(v), v.copy()
        while e:
            if e & 1:
                out = (out * base) % b
            base = (base * base) % b
            e >>= 1
        check = out * v % b == 1
        if np.count_nonzero(check) < np.count_nonzero(v):
            for i in np.flatnonzero(~check & (v != 0)).tolist():
                out[i] = pow(int(v[i]), -1, b)
        return out
    except ValueError:
        raise _ZeroDivisor(next(g for u in v.tolist() if 1 < (g := gcd(u, b)) < b)) from None


def det_mod(rows, b: int):
    """Determinant modulo b of one matrix or of a (K, n, n) stack.

    rows: int lists or an integer array.  Returns an int for a matrix and
    an array of K residues for a stack.  One Gaussian elimination over
    Z/b runs on every matrix at once, a single matrix being the K = 1
    stack.  A zero diagonal entry gets the first row below it with a
    nonzero entry in that column added, which keeps the determinant and
    needs no sign; with no such row the determinant is 0.  The
    elimination stops once every determinant is known to be 0.  Exact
    for every b: a nonzero pivot that is not a unit raises _ZeroDivisor
    with a proper factor of b, so a nonzero result is a unit.
    """
    a = residues(rows, b)
    single = a.ndim == 2
    if single:
        a = a[None]
    k, n = a.shape[0], a.shape[-1]
    result = np.ones(k, dtype=a.dtype)
    for c in range(n):
        if not a[:, c, c].all():
            zero = np.flatnonzero(a[:, c, c] == 0)
            piv = c + np.argmax(a[zero, c:, c] != 0, axis=1)
            a[zero, c] = reduce_mod(a[zero, c] + a[zero, piv], b)
        pv = a[:, c, c]
        result = (result * pv) % b
        if not result.any():
            break
        if c + 1 < n:
            f = (a[:, c + 1 :, c] * _inverses_mod(pv, b)[:, None]) % b
            a[:, c + 1 :, c:] = reduce_mod(a[:, c + 1 :, c:] - f[:, :, None] * a[:, None, c, c:], b)
    # every pivot but the last is a unit here, so the last decides; with
    # results in [0, b) only 0 has gcd b
    if np.count_nonzero(np.gcd(result, b) != 1) > k - np.count_nonzero(result):
        raise _ZeroDivisor(next(g for u in result.tolist() if 1 < (g := gcd(u, b)) < b))
    return int(result[0]) if single else result


# -- diagonalization over Z/q --------------------------------------------


def _refine(parts):
    """Pairwise coprime [(c, f)], each c > 1, in increasing order, with
    prod c^f the product of the given (c, f): while two bases x and y
    share d = gcd(x, y) > 1, they give way to d, x/d and y/d (factor
    refinement: Bach, Driscoll and Shallit, J. Algorithms 1993)."""
    out = Counter()
    for c, f in parts:
        if c > 1:
            out[c] += f
    while True:
        pair = next(((x, y) for x in out for y in out if x < y and gcd(x, y) > 1), None)
        if pair is None:
            return sorted(out.items())
        x, y = pair
        d, fx, fy = gcd(x, y), out.pop(x), out.pop(y)
        for c, f in ((d, fx + fy), (x // d, fx), (y // d, fy)):
            if c > 1:
                out[c] += f


_BLOCK = 32  # pivots whose row operations _eliminate_chain applies as one product


def _eliminate_chain(a, b: int, k: int):
    """Levels of the diagonalization of the residues a modulo b^k, in place.

    At level l every entry of the residual block is divisible by b^l,
    and a pivot is any entry that b^(l+1) does not divide, found by
    scanning one row.  Row operations clear the pivot's column, and the
    pivot row is never read again.  They are delayed: the pivot rows
    found since the last flush stay in a[t0:t], and each row below keeps
    its multipliers for them in f.  A row takes its pending operations
    as one product when it is scanned, and the pivot column of the rows
    below as one matrix-vector product, which gives their multipliers.
    Every _BLOCK pivots the rows below take all of theirs as one product
    f @ a[t0:t], bound b^(2k) times the pending count (on BLAS while
    that is below 2^53), and f is held in the product dtype of the
    flush bound b^(2k) _BLOCK, so that no flush casts it; pending
    operations carry over from one level to the next.  A scanned row
    with no pivot moves below the candidates, where this level's
    multipliers, divisible by b, keep it so; when the row moved up in
    its place has none either, the rows below are flushed and every
    such row moves down at once.  Returns levels, levels[j] the level
    of the j-th pivot.  A base b that is not prime raises _ZeroDivisor
    with a proper factor when a pivot is not b^l times a unit.
    """
    n_mod = b**k
    nrows, ncols = a.shape
    f = np.zeros((nrows, min(_BLOCK, ncols)), dtype=product_dtype(n_mod * n_mod * min(_BLOCK, ncols)))
    levels = []
    t = t0 = 0
    dead = -1  # where the last scan found no pivot

    def updated(rows, cols):
        # a[rows, cols] after the pending row operations
        n = t - t0
        return reduce_mod(a[rows, cols] - matmul(f[rows, :n], a[t0:t, cols], n_mod * n_mod * n), n_mod)

    def flush():
        nonlocal t0
        if t0 < t < min(nrows, ncols):
            done = matmul(f[t:, : t - t0], a[t0:t, t:], n_mod * n_mod * (t - t0))
            rest = a[t:, t:].astype(np.result_type(a, done), copy=False)  # a's own block when it holds done
            a[t:, t:] = reduce_mod(np.subtract(rest, done, out=rest), n_mod)
        t0 = t

    for level in range(k):
        low, high = b**level, b ** (level + 1)
        end = nrows  # rows t..end-1 may still hold a pivot of this level
        while t < min(end, ncols):
            if t > t0:
                a[t, t:] = updated(t, slice(t, None))
                f[t] = 0
            hits = np.flatnonzero(a[t, t:] % high)
            if not len(hits):
                if dead != t:
                    end, dead = end - 1, t
                    a[[t, end]], f[[t, end]] = a[[end, t]], f[[end, t]]
                else:
                    flush()
                    rest = a[t:end, t:]  # divisibility by floor division, a left as it is
                    keep = (rest != rest // high * high).any(axis=1)
                    a[t:end] = a[t:end][np.argsort(~keep, kind="stable")]
                    end = t + int(keep.sum())
                continue
            j = t + int(hits[0])
            a[:, [t, j]] = a[:, [j, t]]
            unit = int(a[t, t]) // low
            if gcd(unit, b) != 1:
                raise _ZeroDivisor(gcd(unit, b))
            col = updated(slice(t + 1, None), t) if t > t0 else a[t + 1 :, t]
            f[t + 1 :, t - t0] = (col // low) * pow(unit, -1, n_mod // low) % n_mod
            levels.append(level)
            t += 1
            if t - t0 == _BLOCK:
                flush()
    return levels


def _diagonalize_mod(rows, q: int):
    """Divisor chain of rows over Z/q.

    U A V = D (mod q) for some U and V invertible mod q; the result
    lists, for each of the m columns, the divisor gcd(D_jj, q) of q,
    each dividing the next.  q is split into coprime prime powers, each
    diagonalized by _eliminate_chain, and by the Chinese remainder
    theorem the diagonal entries of the pieces multiply.
    """
    pending = _local_moduli(q)
    a = residues(rows, q) if len(pending) > 1 else rows  # one piece takes its residues itself
    diag = [1] * np.shape(a)[1]
    while pending:
        b, k = pending.pop()
        try:
            levels = _eliminate_chain(residues(a, b**k), b, k)
        except _ZeroDivisor as exc:
            pending += _refine([(exc.args[0], k), (b // exc.args[0], k)])
            continue
        for j in range(len(diag)):
            diag[j] *= b ** levels[j] if j < len(levels) else b**k
    return diag


def smith_mod(rows, q: int):
    """Smith form over Z/q with its transforms, for small matrices.

    Returns (g, u, u_inv, w, w_inv, det_u): u A w = diag(g) (mod q), A
    r x s, with g_1 | g_2 | ... the t = min(r, s) divisors of q, q
    standing for 0; u u_inv = I_r and w w_inv = I_s (mod q); det w = 1
    and det_u = det u (mod q).  Each pivot is an entry of least gcd with
    q.  Steps of determinant 1 on two rows or columns (a gcd step, a
    swap with one sign changed, adding one row to another) clear its
    column and row; a pivot that does not divide the rest of the block
    takes in a row that it does not divide, and the next gcd step makes
    it smaller.  Each pivot is then scaled to its gcd with q by a unit
    (modular.unit_scaling), the only step of determinant other than 1.
    The transforms are lists of residues; their inverses take the
    inverse steps.
    """
    r, s = len(rows), len(rows[0])
    a = [[int(v) % q for v in row] for row in rows]
    u, u_inv, w, w_inv = ([[int(i == j) for j in range(k)] for i in range(k)] for k in (r, r, s, s))

    def on_rows(m, i, j, c):
        m[i], m[j] = (
            [(c[0] * x + c[1] * y) % q for x, y in zip(m[i], m[j])],
            [(c[2] * x + c[3] * y) % q for x, y in zip(m[i], m[j])],
        )

    def on_cols(m, i, j, c):
        for row in m:
            row[i], row[j] = (c[0] * row[i] + c[1] * row[j]) % q, (c[2] * row[i] + c[3] * row[j]) % q

    def row_step(i, j, c):
        # rows i, j of a and u <- [[c0, c1], [c2, c3]] rows; u_inv takes the inverse on columns
        on_rows(a, i, j, c)
        on_rows(u, i, j, c)
        on_cols(u_inv, i, j, (c[3], -c[2], -c[1], c[0]))

    def col_step(i, j, c):
        on_cols(a, i, j, c)
        on_cols(w, i, j, c)
        on_rows(w_inv, i, j, (c[3], -c[2], -c[1], c[0]))

    def gcd_step(step, k, i, p, e):
        # x p + y e = h: the pivot becomes h, the entry e becomes 0; a
        # pivot that divides e stays, so a cleared line stays clear
        h, x, y = (p, 1, 0) if e % p == 0 else xgcd(p, e)
        step(k, i, (x, y, -e // h, p // h))

    g, det_u = [], 1
    for k in range(min(r, s)):
        best, i, j = min((gcd(a[i][j], q), i, j) for i in range(k, r) for j in range(k, s))
        if best == q:
            break
        if i != k:
            row_step(k, i, (0, 1, -1, 0))
        if j != k:
            col_step(k, j, (0, 1, -1, 0))
        while True:
            for i in range(k + 1, r):
                if a[i][k]:
                    gcd_step(row_step, k, i, a[k][k], a[i][k])
            for j in range(k + 1, s):
                if a[k][j]:
                    gcd_step(col_step, k, j, a[k][k], a[k][j])
            if any(a[i][k] for i in range(k + 1, r)):
                continue
            h = gcd(a[k][k], q)
            rest = next((i for i in range(k + 1, r) if any(v % h for v in a[i][k + 1 :])), None)
            if rest is None:
                break
            row_step(k, rest, (1, 1, 0, 1))
        h, unit = unit_scaling(a[k][k], q)
        a[k] = [v * unit % q for v in a[k]]
        u[k] = [v * unit % q for v in u[k]]
        inv = inv_mod(unit, q)
        for row in u_inv:
            row[k] = row[k] * inv % q
        g.append(h)
        det_u = det_u * unit % q
    g += [q] * (min(r, s) - len(g))
    return g, u, u_inv, w, w_inv, det_u


# -- congruence lattices ---------------------------------------------------


def _howell_rows(a, q: int):
    """Howell form of the row span of the residues a over Z/q; {c: E_c}.

    Columns go right to left, in place on a.  E_c is columns 0..c of a
    row with pivot g_c | q at column c and zeros right of it.  The pool
    row of least gcd with q in the column is scaled to that gcd g and
    clears the column in the others; if g fails to divide some entry
    (composite q) the step repeats.  The pivot row then leaves the pool
    and its multiple by q/g takes its slot, which gives the Howell
    property: a vector of the row span that vanishes from column c on
    is a combination of the E_j with j < c.
    """
    out = {}
    for col in range(a.shape[1] - 1, -1, -1):
        while True:
            (active,) = a[:, col].nonzero()
            if not len(active):
                break
            column = a[active, col]
            k = int(np.gcd(column, q).argmin())
            kbest = active[k]
            g, u = unit_scaling(int(column[k]), q)
            if u != 1:
                a[kbest, : col + 1] = (a[kbest, : col + 1] * u) % q
            pivrow = a[kbest, : col + 1].copy()
            if len(active) > 1:
                keep = active != kbest
                others = active[keep]
                a[others, : col + 1] = (a[others, : col + 1] - (column[keep] // g)[:, None] * pivrow) % q
                if a[others, col].any():
                    continue
            out[col] = pivrow
            a[kbest, : col + 1] = (pivrow * (q // g)) % q
            break
    return out


def solve_congruence_lattice(rows, m: int, q: int):
    """Hermite normal form of {s in Z^m : A s = 0 (mod q)}, A given by rows,
    as an m x m integer array in the mod-q kernels' dtype (q I for q <= 1,
    no rows for q = 0): _hermite_columns of A's residues, assembled."""
    if q <= 1:
        return np.eye(m if q else 0, m, dtype=int_dtype(abs(q))) * q
    return _hermite_dense(*_hermite_columns(residues(rows, q), m, q))


def _hermite_dense(diag, pivots, sp):
    """The m x m array of a basis from _hermite_columns."""
    s = np.diag(diag)
    # sp's column i is 0 on its pivot's row, so this only drops the diagonal
    s[:, pivots] = sp
    s[pivots, pivots] = diag[pivots]
    return s


_READ_BLOCK = 128  # least number of pivots in a block of _hermite_columns' read-off


def _hermite_columns(a, m: int, q: int):
    """(diag, pivots, sp), q >= 1: solve_congruence_lattice's Hermite basis
    S is diag on the diagonal plus sp (m x P) at its P pivot columns.

    a holds the rows of A as residues (the residues function's dtype),
    m to a row; the Howell pass overwrites it, so a caller that still
    needs A passes a copy.

    Read off the Howell form of A (_howell_rows: rows E_c, pivots g_c)
    in one pass.  Row c of the basis S has q / g_c on the diagonal (1
    at a non-pivot column), zeros left of it and at non-pivot columns,
    and at each pivot column c' > c the entry -(sum_{j<c'} E_c'j S_cj) /
    g_c' mod q / g_c' that solves E_c'.  The division is exact, and
    checked: (q / g_c') E_c' vanishes from c' on, so it is a combination
    of the E_j (j < c') that S_c already solves.  det S = prod q / g_c is
    the order of A's row span, the index of the lattice, so S is a basis;
    its entries are reduced below the pivots, so S is the unique HNF.

    The sum for c' is the diagonal term plus the pivot columns found so
    far, rows above c', against E_c' at those pivots.  The pivots go in
    max(1, P // _READ_BLOCK) blocks of equal size: one product gives
    every row of a block its sum over the columns found before the
    block, which vanish from the block's first pivot down, and each
    pivot adds one matrix-vector product over the block's own earlier
    columns.  Every sum stays within q^2 (P + 1), the products' bound,
    and sp is held in the dtype matmul multiplies in, so no pivot
    copies it.
    """
    a = a.reshape(len(a), m)
    howell = sorted(_howell_rows(a, q).items())
    pivots = np.array([c for c, _ in howell], dtype=np.intp)
    bound = q * q * (len(pivots) + 1)
    diag = np.ones(m, dtype=a.dtype)
    sp = np.zeros((m, len(pivots)), dtype=product_dtype(bound))
    nb = max(1, len(howell) // _READ_BLOCK)
    ends = {len(howell) * k // nb: len(howell) * (k + 1) // nb for k in range(1, nb)}  # block start: end
    i0 = 0
    for i, (c, e) in enumerate(howell):
        if i in ends:
            i0, c0 = i, c
            block = np.array([f[pivots[:i0]] for _, f in howell[i0 : ends[i0]]])
            ahead = matmul(sp[:c0, :i0], block.T, bound)
        g = int(e[c])
        x = matmul(sp[:c, i0:i], e[pivots[i0:i]], bound) + diag[:c] * e[:c]
        if i0:
            x[:c0] += ahead[:, i - i0]
        if (x % g).any():
            raise CertificateError("Howell rows do not give an exact division")
        sp[:c, i], diag[c] = -(x // g) % (q // g), q // g
    return diag, pivots, sp


# -- invariant factors of scaled idempotents -------------------------------


class NotScaledIdempotent(ValueError):
    """Raised when E * E differs from L * E."""


def scaled_idempotent_invariants(e, scale: int):
    """Invariant factors of a matrix E satisfying E*E = scale*E exactly:
    verifies the identity, then reads them by _idempotent_invariants."""
    if scale <= 0:
        raise ValueError("scale must be positive")
    n, me = len(e), max_abs(e)
    if (matmul(e, e, max(me, me * me * n)) != e.astype(int_dtype(scale, me * scale), copy=False) * scale).any():
        raise NotScaledIdempotent("matrix is not a scaled idempotent")
    return _idempotent_invariants(e, scale)


def _idempotent_invariants(e, scale: int):
    """scaled_idempotent_invariants of an E whose E*E = scale*E its caller
    certified in the same call (graphs.verify_smith_lemma's projectors): the
    first trace/scale entries of the divisor chain over Z/scale, the rest scale."""
    tr = sum(e.diagonal().tolist())
    if tr % scale:
        raise NotScaledIdempotent("trace is not a multiple of the scale")
    r = tr // scale
    if r < 0 or r > len(e):
        raise NotScaledIdempotent("trace out of range")
    diag = _diagonalize_mod(e, scale)
    if any(d != scale for d in diag[r:]):
        raise NotScaledIdempotent("more invariant factors than the rank allows")
    return tuple(diag[:r])
