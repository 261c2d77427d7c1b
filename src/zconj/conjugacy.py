"""GL_n(Z)-conjugacy of integer matrices, with verifiable certificates.

The objects of study are intertwiner lattices C(X,Y) = {T : TX = YT}.
X and Y are conjugate over Z exactly when C(X,Y) contains a unimodular
element; the local-global route certifies conjugacy from assumption
checks plus local passes, and 2x2 non-conjugacy from the determinant
form of a rank-2 lattice.

Orientation: everything here uses TX = YT, so a unimodular T is
directly the conjugator T X T^{-1} = Y.  (For the transposed
convention AX = YA used when identifying C(X,Y) with a module Hom,
apply the dictionary A = T^t between the two.)

Intertwiner lattices of split matrices are computed blockwise: a T in
C(X,Y) maps the saturated a-eigenlattice of X into the one of Y, so T
is determined by integer block matrices S_i, and integrality of T cuts
out a congruence lattice mod q = lcm(q_i) that modular.solve handles.
Non-split pairs fall back to the saturated kernel of the n^2 x n^2
difference map.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from math import gcd, lcm

import numpy as np

from .forms import BinaryQuadraticForm, FormBudget, UnitRepresentation, bqf_represents_unit
from .linalg import charpoly, det, fraction_free_rref, kernel_basis, lll_reduce
from .matrix import CertificateError, IntMatrix, int_dtype
from .modular import (
    FactorizationBudget,
    _diagonalize_mod,
    det_mod,
    inv_mod,
    prime_factors,
    residues,
    solve_congruence_lattice,
)
from .spectral import NotSplit, SplitSpectrum, check_assumption, split_spectrum

_DET_FILTER_PRIME = (1 << 31) - 1
_EXHAUSTIVE_LIMIT = 1 << 20
_CHUNK_ENTRIES = 1 << 14  # largest candidate stack local_test evaluates at once


def _chunks(total: int, cap: int):
    """(lo, hi) spans covering range(total), of sizes 1, 2, 4, ... up to cap."""
    lo, size = 0, 1
    while lo < total:
        hi = min(total, lo + size)
        yield lo, hi
        lo, size = hi, min(2 * size, cap)


class _Randranges:
    """rng.randrange(p) drawn in bulk: the same values in the same order.

    randrange(p) draws getrandbits(k), k = p.bit_length(), until the
    result is below p; getrandbits(k) takes ceil(k/32) 32-bit words of
    the generator, least significant first, keeping the top bits of the
    last, and getrandbits(32 N) the next N words in the same order.  So
    draws are assembled from one buffer of words and the accepted ones
    kept until asked for; nothing else may draw from rng meanwhile.
    """

    def __init__(self, rng: random.Random, p: int):
        self.rng, self.p, self.k = rng, p, p.bit_length()
        self.w = -(-self.k // 32)
        self.kept = np.zeros(0, dtype=np.uint64 if self.k <= 64 else object)

    def take(self, count: int):
        while len(self.kept) < count:
            draws = 2 * (count - len(self.kept)) + 8  # at least half are accepted
            words = self.rng.getrandbits(32 * self.w * draws).to_bytes(4 * self.w * draws, "little")
            words = np.frombuffer(words, "<u4").reshape(draws, self.w).astype(self.kept.dtype)
            vals = words[:, -1] >> (32 * self.w - self.k)
            for i in range(self.w - 2, -1, -1):
                vals = (vals << 32) | words[:, i]
            self.kept = np.concatenate([self.kept, vals[vals < self.p]])
        out, self.kept = self.kept[:count], self.kept[count:]
        return out


class RankMismatch(ValueError):
    """Lattice rank does not fit the requested construction."""


class DetNotOne(ValueError):
    """Input to sl_lift has determinant != 1 modulo q."""


def _certified(t: IntMatrix, x: IntMatrix, y: IntMatrix, prime=None) -> IntMatrix:
    """t, once verify_conjugator has accepted it for (x, y)."""
    if not verify_conjugator(t, x, y, prime=prime):
        raise CertificateError("certificate failed verification")
    return t


@dataclass(frozen=True)
class IntertwinerLattice:
    """Saturated Z-basis of {T : T source = target T}.

    aligned is the eigenbasis-aligned intertwiner C B^{-1} (B and C
    stacking the eigenlattice bases of source and target), set when
    both spectra agree and it is integral; it is unimodular exactly
    when |det B| = |det C|.  closed_form, C D = q C B^{-1}, is set when
    both spectra agree; its determinant is det C q^n / det B.
    """

    n: int
    basis: tuple
    source: IntMatrix
    target: IntMatrix
    aligned: IntMatrix | None = None
    closed_form: IntMatrix | None = None

    @property
    def rank(self) -> int:
        return len(self.basis)


def _scaled_inverse(m: IntMatrix, scale: int) -> IntMatrix:
    """Integer matrix D with M D = scale I, read off the fraction-free
    RREF d [I | scale M^{-1}] of [M | scale I].

    Exists iff scale M^{-1} is integral; raises CertificateError otherwise.
    """
    n = m.nrows
    r, pivots, d, _ = fraction_free_rref(
        [list(row) + [scale if i == j else 0 for j in range(n)] for i, row in enumerate(m.rows)]
    )
    if pivots != list(range(n)):
        raise CertificateError("matrix is singular")
    if (r[:, n:] % d).any():
        raise CertificateError("scaled inverse is not integral")
    return IntMatrix((r[:, n:] // d).tolist())


def _eigenbases(m: IntMatrix, sp: SplitSpectrum):
    """Saturated eigenlattice bases of m stacked as columns, in spectrum
    order, and the slice of columns that belongs to each eigenvalue."""
    n = m.nrows
    cols = []
    blocks = {}
    for a, mult in zip(sp.eigenvalues, sp.multiplicities):
        rows = kernel_basis(m - IntMatrix.identity(n) * a)
        if len(rows) != mult:
            raise CertificateError("eigenlattice rank differs from multiplicity")
        blocks[a] = slice(len(cols), len(cols) + mult)
        cols.extend(rows)
    return IntMatrix(cols).transpose(), blocks


def _max_abs(m: IntMatrix) -> int:
    return max(abs(v) for row in m.rows for v in row)


def _eigenblock_basis(x, y, spx: SplitSpectrum, spy: SplitSpectrum):
    """C(X,Y) for split X, Y via per-eigenvalue blocks.

    B and C stack the eigenlattice bases of X and Y as columns.  T is
    parametrized by blocks S_a (one per eigenvalue common to both
    spectra) through T B_a = C_a S_a; with D = q B^{-1} (integral
    because q Z^n lies inside the sum of the X-eigenlattices), T =
    (1/q) sum_a C_a S_a D_a, and integrality of T is the congruence
    sum_a C_a S_a D_a = 0 (mod q) solved over Z/q.  It is solved with D
    replaced by D V, V the column transform of D's diagonalization mod
    q: V is invertible mod q, so the solutions stay, and D V is nonzero
    mod q only in the columns of B's invariant factors other than 1,
    the only ones kept.  With equal spectra C D intertwines X and Y
    (closed_form), and C D / q is the aligned intertwiner if integral.
    """
    n = x.nrows
    b_mat, bx = _eigenbases(x, spx)
    c_mat, cy = _eigenbases(y, spy)
    q = lcm(*spx.scales)
    d_mat = _scaled_inverse(b_mat, q)
    if b_mat * d_mat != IntMatrix.identity(n) * q:
        raise CertificateError("B D is not q I")
    closed_form = aligned = None
    if spx.eigenvalues == spy.eigenvalues and spx.multiplicities == spy.multiplicities:
        closed_form = c_mat * d_mat
        if all(v % q == 0 for row in closed_form.rows for v in row):
            aligned = IntMatrix([[v // q for v in row] for row in closed_form.rows])
    common = [a for a in spx.eigenvalues if a in cy]
    if not common:
        return IntertwinerLattice(
            n=n, basis=(), source=x, target=y, aligned=aligned, closed_form=closed_form
        )
    c = np.array(c_mat.rows, dtype=object)
    d = np.array(d_mat.rows, dtype=object)
    diag, v = _diagonalize_mod(d, q)
    keep = [j for j, dj in enumerate(diag) if dj != q]
    wide = int_dtype(n * q * q)
    dv = residues(d, q).astype(wide) @ v[:, keep].astype(wide) % q
    # congruence rows: entry (r,c) of sum_a C_a S_a (D V)_a, coefficient
    # of S_a[u,v] is C_a[r,u] * (D V)_a[v,c]; as a block this is
    # kron(C_a, (D V)_a^t)
    eq = np.concatenate(
        [np.kron(residues(c[:, cy[a]], q), residues(dv[bx[a]], q).T) % q for a in common],
        axis=1,
    )
    m = eq.shape[1]
    sols = solve_congruence_lattice(eq, m, q)
    # solution entries lie in [0, q], so |C S D| <= max|C| q max|D| m in
    # the assembly and |T X| <= max|C| max|D| m max|X, Y| n in the check
    bound = _max_abs(c_mat) * _max_abs(d_mat) * m
    dtype = int_dtype(bound * q, bound * max(_max_abs(x), _max_abs(y)) * n)
    c, d, s = c.astype(dtype), d.astype(dtype), np.array(sols, dtype=dtype)
    # every basis element at once: S_a is the next my x mx slice of each row
    total = np.zeros((len(s), n, n), dtype=dtype)
    off = 0
    for a in common:
        ca, da = c[:, cy[a]], d[bx[a]]
        my, mx = ca.shape[1], da.shape[0]
        total += ca @ s[:, off : off + my * mx].reshape(-1, my, mx) @ da
        off += my * mx
    if (total % q).any():
        raise CertificateError("lattice element is not divisible by q")
    t = total // q
    if not np.array_equal(
        t @ np.array(x.rows, dtype=dtype), np.array(y.rows, dtype=dtype) @ t
    ):
        raise CertificateError("lattice element does not intertwine")
    basis = tuple(IntMatrix(b) for b in t.tolist())
    return IntertwinerLattice(
        n=n, basis=basis, source=x, target=y, aligned=aligned, closed_form=closed_form
    )


def _sylvester_basis(x: IntMatrix, y: IntMatrix):
    """Saturated kernel of T -> TX - YT, flattened row-major."""
    n = x.nrows
    rows = []
    for r in range(n):
        for c in range(n):
            row = [0] * (n * n)
            for u in range(n):
                row[r * n + u] += x[u, c]
                row[u * n + c] -= y[r, u]
            rows.append(row)
    ker = kernel_basis(IntMatrix(rows))
    basis = []
    for flat in ker:
        t = IntMatrix([[flat[r * n + c] for c in range(n)] for r in range(n)])
        if t * x != y * t:
            raise CertificateError("lattice element does not intertwine")
        basis.append(t)
    return basis


def intertwiner_lattice(x: IntMatrix, y: IntMatrix) -> IntertwinerLattice:
    """Saturated basis of C(X,Y) = {T : TX = YT}.

    Split pairs go through the eigenblock construction, which also sets
    the aligned intertwiner; anything else through the kernel of the
    n^2-dimensional difference map.  The basis always consists of exact
    intertwiners and spans every integral one.
    """
    if not (x.is_square and y.is_square and x.nrows == y.nrows):
        raise ValueError("intertwiner lattice needs square matrices of equal size")
    try:
        spx = split_spectrum(x)
        spy = split_spectrum(y)
    except NotSplit:
        basis = tuple(_sylvester_basis(x, y))
        return IntertwinerLattice(n=x.nrows, basis=basis, source=x, target=y)
    return _eigenblock_basis(x, y, spx, spy)


def verify_conjugator(t: IntMatrix, x: IntMatrix, y: IntMatrix, prime=None) -> bool:
    """Check TX = YT plus the right determinant condition.

    Global mode (prime None): det(T) must be +1 or -1.  Local mode:
    det(T) must not be divisible by the given prime.
    """
    if t.nrows != x.nrows or t.ncols != x.nrows or x.nrows != y.nrows:
        return False
    if t * x != y * t:
        return False
    if prime is None:
        return abs(det(t)) == 1
    return det_mod(t.rows, prime) != 0


def relevant_primes(spectrum: SplitSpectrum):
    """Primes dividing some eigenvalue difference.

    Away from these, equal characteristic polynomials already force
    local conjugacy (the order generated by the matrix localizes to a
    maximal order with free eigenlattices), so local tests only need to
    run here.  When some difference cannot be factored within
    prime_factors' budget, FactorizationBudget is raised with every
    prime found.
    """
    out, stuck = set(), []
    for a, b in combinations(spectrum.eigenvalues, 2):
        try:
            out.update(prime_factors(a - b))
        except FactorizationBudget as exc:
            out.update(exc.primes)
            stuck.append(str(exc))
    if stuck:
        raise FactorizationBudget("; ".join(stuck), sorted(out))
    return sorted(out)


@dataclass(frozen=True)
class LocalVerdict:
    """Outcome of a conjugacy test over Z localized at one prime."""

    prime: int
    status: str  # PASS | FAIL | UNDECIDED
    certificate: IntMatrix | None = None
    method: str | None = None  # closed-form | sampled | exhaustive

    def to_json_obj(self):
        obj = {"p": str(self.prime), "status": self.status}
        if self.certificate is not None:
            obj["T"] = self.certificate.to_json_obj()
        if self.method is not None:
            obj["method"] = self.method
        return obj


def local_test(
    x: IntMatrix,
    y: IntMatrix,
    p: int,
    budget: int = 100000,
    seed: int = 0,
    lattice: IntertwinerLattice | None = None,
) -> LocalVerdict:
    """Search C(X,Y) for an element of unit determinant mod p.

    PASS certificates re-verify exactly.  FAIL is only reported after
    every class of C(X,Y)/p has been evaluated, which is attempted when
    p^rank <= 2^20.  The determinant of T + pS is det(T) mod p, so
    classes mod p decide.  Characteristic polynomials are compared only
    when no lattice is given and it is built here: a mismatch FAILs at
    once, because any nonsingular intertwiner would force equality.  A
    given lattice must be C(x, y), and decide passes one only after the
    characteristic polynomials have matched.  Candidates are evaluated
    as stacks of residues mod p; their order, the random draws and the
    budget accounting are those of a loop over one candidate at a time.
    """
    if lattice is None:
        if charpoly(x) != charpoly(y):
            return LocalVerdict(prime=p, status="FAIL", method="exhaustive")
        lattice = intertwiner_lattice(x, y)
    m = lattice.rank
    if m == 0:
        return LocalVerdict(prime=p, status="FAIL", method="exhaustive")
    n = lattice.n
    # candidates are combinations with coefficients in [0, p); the exact
    # stack is only combined for the hit, everything else runs on residues
    max_entry = max(abs(v) for b in lattice.basis for row in b.rows for v in row)
    stack = np.array(
        [b.rows for b in lattice.basis], dtype=int_dtype(max_entry, p * max_entry * m)
    ).reshape(m, n * n)
    res = residues(stack, p)
    cap = max(1, _CHUNK_ENTRIES // max(n * n, m))

    def first_unit(cands):
        """Index of the first candidate (a row of cands) with unit det mod p."""
        hits = np.flatnonzero(det_mod(cands.reshape(-1, n, n), p))
        return int(hits[0]) if len(hits) else None

    def certify(coeffs, method):
        t = np.asarray(coeffs).astype(stack.dtype) @ stack
        t = _certified(IntMatrix(t.reshape(n, n).tolist()), x, y, prime=p)
        return LocalVerdict(prime=p, status="PASS", certificate=t, method=method)

    # candidates in a fixed order: basis elements, prefix sums, close
    # pairs, random draws, then every class when that is affordable.  The
    # zero combination has determinant 0, so it needs no skipping.  Each
    # phase runs in chunks that grow from 1 to cap candidates, so an
    # early hit stays cheap and memory stays flat.
    exhaustible = p ** m <= _EXHAUSTIVE_LIMIT
    # deterministic candidates: e_i, the prefix sums e_0 + ... + e_i for
    # i < 24 and e_i + e_j for i < j < 40.  Each is the sum of rows first
    # and second of [basis; prefix sums; 0], whose coefficients are the
    # same rows of coeff_rows.  Two row additions per candidate are much
    # cheaper than a row of the product used below when the rank is large
    # (3-4x per local test on the 49-vertex pair).
    k = min(m, 24)
    rows = np.concatenate([res, np.cumsum(res[:k], axis=0) % p, np.zeros_like(res[:1])])
    coeff_rows = np.concatenate(
        [np.eye(m, dtype=np.int8), np.tri(k, m, dtype=np.int8), np.zeros((1, m), np.int8)]
    )
    pi, pj = np.triu_indices(min(m, 40), 1)
    first = np.concatenate([np.arange(m + k), pi])
    second = np.concatenate([np.full(m + k, m + k), pj])
    spent = max(0, min(len(first), budget))
    for lo, hi in _chunks(spent, cap):
        hit = first_unit(rows[first[lo:hi]] + rows[second[lo:hi]])
        if hit is not None:
            h = lo + hit
            return certify(coeff_rows[first[h]] + coeff_rows[second[h]], "sampled")

    # the other candidates come from one (K x m) @ (m x n^2) product per
    # chunk, in float64 while p^2 m < 2^53, where every partial sum is exact
    dtype = np.float64 if p * p * m < 1 << 53 else int_dtype(p * p * m)
    basis = res.astype(dtype)

    def combinations(coeffs):
        """Residue rows of the combinations of the basis given as rows of coeffs."""
        return ((coeffs.astype(dtype) @ basis) % p).astype(res.dtype)

    draws = _Randranges(random.Random(seed), p)
    quick = budget
    if exhaustible:
        quick = 0 if p ** m <= 4096 else min(budget, 4096)
    for lo, hi in _chunks(quick - spent, cap):
        coeffs = draws.take((hi - lo) * m).astype(res.dtype).reshape(-1, m)
        hit = first_unit(combinations(coeffs))
        if hit is not None:
            return certify(coeffs[hit], "sampled")
    if exhaustible:
        # FAIL demands that every class of C(X,Y)/p has been evaluated;
        # class t has the base-p digits of t as coefficients, the last
        # one fastest (itertools.product order)
        powers = p ** np.arange(m - 1, -1, -1, dtype=np.int64)
        for lo, hi in _chunks(p ** m, cap):
            coeffs = np.arange(lo, hi, dtype=np.int64)[:, None] // powers % p
            hit = first_unit(combinations(coeffs))
            if hit is not None:
                return certify(coeffs[hit], "exhaustive")
        return LocalVerdict(prime=p, status="FAIL", method="exhaustive")
    return LocalVerdict(prime=p, status="UNDECIDED")


# -- explicit conjugator search ---------------------------------------------


def _is_adjacency(m: IntMatrix) -> bool:
    if not m.is_square:
        return False
    n = m.nrows
    for i in range(n):
        if m[i, i] != 0:
            return False
        for j in range(n):
            if m[i, j] not in (0, 1) or m[i, j] != m[j, i]:
                return False
    return True


class _BudgetExceeded(Exception):
    pass


def _graph_isomorphism(x: IntMatrix, y: IntMatrix, budget: int):
    """Vertex bijection with X[u,v] = Y[pi(u), pi(v)], by backtracking."""
    n = x.nrows
    ax = x.rows
    ay = y.rows
    deg_x = [sum(r) for r in ax]
    deg_y = [sum(r) for r in ay]
    if sorted(deg_x) != sorted(deg_y):
        return None
    # most-constrained-first ordering: each vertex maximally adjacent
    # to the already ordered ones
    order = [0]
    placed = {0}
    while len(order) < n:
        best = max(
            (u for u in range(n) if u not in placed),
            key=lambda u: (sum(ax[u][v] for v in order), -u),
        )
        order.append(best)
        placed.add(best)
    mapping = [-1] * n
    used = [False] * n
    nodes = 0

    def bt(k: int) -> bool:
        nonlocal nodes
        if k == n:
            return True
        u = order[k]
        for v in range(n):
            if used[v] or deg_y[v] != deg_x[u]:
                continue
            if any(ax[u][order[j]] != ay[v][mapping[order[j]]] for j in range(k)):
                continue
            nodes += 1
            if nodes > budget:
                raise _BudgetExceeded
            mapping[u] = v
            used[v] = True
            if bt(k + 1):
                return True
            used[v] = False
            mapping[u] = -1
        return False

    try:
        found = bt(0)
    except _BudgetExceeded:
        return None
    return mapping if found else None


def _unit_det(t: IntMatrix) -> bool:
    d = det_mod(t.rows, _DET_FILTER_PRIME)
    if d != 1 and d != _DET_FILTER_PRIME - 1:
        return False
    return abs(det(t)) == 1


def _gram_schmidt(vectors):
    """Float GSO data (mu, squared norms) of integer row vectors."""
    m = len(vectors)
    basis = [np.array(v, dtype=float) for v in vectors]
    ortho = []
    mu = [[0.0] * m for _ in range(m)]
    norms = []
    for i in range(m):
        w = basis[i].copy()
        for j in range(i):
            if norms[j] == 0.0:
                continue
            mu[i][j] = float(basis[i] @ ortho[j]) / norms[j]
            w -= mu[i][j] * ortho[j]
        ortho.append(w)
        norms.append(float(w @ w))
    return mu, norms


def _enumerate_short(vectors, r2, skip_below, budget):
    """Coefficient vectors of lattice points with squared norm <= r2.

    Standard depth-first enumeration through the Gram-Schmidt
    coordinates of the (reduced) basis.  Float bounds carry a slack
    factor, so marginal vectors may appear in a later (larger) round
    instead.  Points with squared norm <= skip_below are suppressed so
    growing-radius rounds see each annulus once.  Only one of x and -x
    is produced.  Yields at most budget coefficient tuples.
    """
    m = len(vectors)
    mu, norms = _gram_schmidt(vectors)
    if any(d <= 0.0 for d in norms):
        return
    coeffs = [0] * m
    produced = 0

    def q_value():
        total = 0.0
        for i in range(m):
            t = coeffs[i] + sum(mu[j][i] * coeffs[j] for j in range(i + 1, m))
            total += norms[i] * t * t
        return total

    def walk(level, remaining):
        nonlocal produced
        if produced >= budget:
            return
        if level < 0:
            q = q_value()
            if q <= r2 * 1.001 and q > skip_below:
                produced += 1
                yield tuple(coeffs)
            return
        center = sum(mu[j][level] * coeffs[j] for j in range(level + 1, m))
        half = (max(remaining, 0.0) / norms[level]) ** 0.5 + 1e-9
        lo = int(np.ceil(-center - half))
        hi = int(np.floor(-center + half))
        for v in range(lo, hi + 1):
            coeffs[level] = v
            used = norms[level] * (v + center) ** 2
            yield from walk(level - 1, remaining - used)
            if produced >= budget:
                break
        coeffs[level] = 0

    for c in walk(m - 1, r2 * 1.001):
        # canonical sign: first nonzero coefficient positive
        lead = next((v for v in c if v), 0)
        if lead < 0:
            continue
        if any(c):
            yield c


def conjugator_search(
    lattice: IntertwinerLattice, budget: int = 1000000, seed: int = 0
):
    """Look for a unimodular element of the lattice; None if not found.

    Tries, in order: the identity when source equals target, a
    permutation conjugator when both endpoints are adjacency matrices,
    the lattice's aligned intertwiner (built with the lattice of a
    split pair, so this stage costs one verification), single basis
    elements before and after LLL reduction, then short-vector
    enumeration over the reduced basis in growing-radius rounds, and
    finally seeded random combinations until the budget runs out.  Any
    hit is verified before being returned; a hit that fails raises
    CertificateError.
    """
    x, y = lattice.source, lattice.target
    n = lattice.n
    if x == y:
        return IntMatrix.identity(n)
    m = lattice.rank
    if m == 0:
        return None
    if _is_adjacency(x) and _is_adjacency(y):
        perm = _graph_isomorphism(x, y, budget)
        if perm is not None:
            rows = [[0] * n for _ in range(n)]
            for u in range(n):
                rows[perm[u]][u] = 1
            return _certified(IntMatrix(rows), x, y)
    if lattice.aligned is not None and verify_conjugator(lattice.aligned, x, y):
        return lattice.aligned

    spent = 0

    def check(t: IntMatrix):
        return _certified(t, x, y) if _unit_det(t) else None

    for b in lattice.basis:
        spent += 1
        hit = check(b)
        if hit is not None:
            return hit
        if spent >= budget:
            return None
    vectors = [tuple(v for row in b.rows for v in row) for b in lattice.basis]
    if m <= 64:
        vectors = lll_reduce(vectors)
    mats = [
        IntMatrix([[v[r * n + c] for c in range(n)] for r in range(n)])
        for v in vectors
    ]
    for t in mats:
        spent += 1
        hit = check(t)
        if hit is not None:
            return hit
        if spent >= budget:
            return None
    # determinant filter on each combination before it is assembled exactly
    max_entry = max(abs(v) for w in vectors for v in w)
    stack = np.array([t.rows for t in mats], dtype=int_dtype(max_entry))

    def check_coeffs(coeffs):
        cmax = max(abs(c) for c in coeffs)
        dtype = int_dtype(max_entry, cmax, max_entry * cmax * m)
        t = np.tensordot(np.array(coeffs, dtype=dtype), stack, axes=1)
        if det_mod(t, _DET_FILTER_PRIME) not in (1, _DET_FILTER_PRIME - 1):
            return None
        return check(IntMatrix(t.tolist()))

    # growing-radius short-vector rounds over the reduced basis
    if m <= 64:
        base = max(sum(v * v for v in w) for w in vectors)
        r2 = float(base) * 1.1
        prev = 0.0
        for _ in range(10):
            if spent >= budget:
                break
            for coeffs in _enumerate_short(vectors, r2, prev, budget - spent):
                spent += 1
                hit = check_coeffs(coeffs)
                if hit is not None:
                    return hit
                if spent >= budget:
                    break
            prev = r2
            r2 *= 2.0
    rng = random.Random(seed)
    while spent < budget:
        spent += 1
        coeffs = [rng.randint(-3, 3) for _ in range(m)]
        if not any(coeffs):
            continue
        hit = check_coeffs(coeffs)
        if hit is not None:
            return hit
    return None


# -- lifting SL_n(Z/q) to SL_n(Z) --------------------------------------------


def _balanced(v: int, q: int) -> int:
    v %= q
    if v >= (q + 1) // 2:
        v -= q
    return v


def sl_lift(m: IntMatrix, q: int) -> IntMatrix:
    """Integer matrix with determinant exactly 1 reducing to m mod q.

    Reduces m to the identity over Z/q with shear row operations only
    (unit pivots are arranged by row combinations, and the leftover
    diagonal of units is cleared with the six-shear identity
    diag(u, u^{-1}) = w(u) w(-1), w(z) = e12(z) e21(-z^{-1}) e12(z)),
    then multiplies the lifted inverse shears over Z in reverse.
    """
    if q < 2:
        raise ValueError("modulus must be at least 2")
    if not m.is_square:
        raise ValueError("sl_lift needs a square matrix")
    n = m.nrows
    if det(m) % q != 1 % q:
        raise DetNotOne("determinant is not 1 modulo %d" % q)
    w = [[v % q for v in row] for row in m.rows]
    ops = []

    def shear(i: int, j: int, lam: int):
        lam %= q
        if lam == 0:
            return
        wi, wj = w[i], w[j]
        for t in range(n):
            wi[t] = (wi[t] + lam * wj[t]) % q
        ops.append((i, j, lam))

    for c in range(n):
        while gcd(w[c][c], q) != 1:
            best = None
            g0 = gcd(w[c][c], q)
            for i in range(c + 1, n):
                if w[i][c] % q == 0:
                    continue
                for t in range(1, q):
                    g2 = gcd((w[c][c] + t * w[i][c]) % q, q)
                    if best is None or g2 < best[0]:
                        best = (g2, i, t)
                    if g2 == 1:
                        break
                if best and best[0] == 1:
                    break
            if best is None or best[0] >= g0:
                raise CertificateError("no unit pivot is reachable")
            shear(c, best[1], best[2])
        uinv = inv_mod(w[c][c], q)
        for i in range(n):
            if i != c and w[i][c]:
                shear(i, c, (-w[i][c] * uinv) % q)
    # diagonal of units with product 1; clear with Whitehead shears
    for c in range(n - 1):
        u = w[c][c]
        if u == 1:
            continue
        z = inv_mod(u, q)
        # apply w(-1) then w(z): diag(z, u) in rows (c, c+1)
        shear(c, c + 1, q - 1)
        shear(c + 1, c, 1)
        shear(c, c + 1, q - 1)
        shear(c, c + 1, z)
        shear(c + 1, c, (q - u) % q)
        shear(c, c + 1, z)
    if w != [[1 if i == j else 0 for j in range(n)] for i in range(n)]:
        raise CertificateError("shears did not reduce the matrix to the identity")
    # m = (E_r ... E_1)^{-1} = E_1^{-1} ... E_r^{-1} mod q; lift each
    # inverse shear with a balanced representative and multiply
    a = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j, lam in ops:
        mu = _balanced(-lam, q)
        if mu == 0:
            continue
        for r in range(n):
            a[r][j] += mu * a[r][i]
    lifted = IntMatrix(a)
    if det(lifted) != 1 or any(
        (lifted[i, j] - m[i, j]) % q for i in range(n) for j in range(n)
    ):
        raise CertificateError("lift is not in SL_n(Z) or does not reduce to m")
    return lifted


# -- determinant forms of rank-2 lattices ------------------------------------


def bqf_from_lattice(lattice: IntertwinerLattice) -> BinaryQuadraticForm:
    """det(x B_1 + y B_2) as a binary quadratic form, for 2x2 rank-2 lattices."""
    if lattice.n != 2 or lattice.rank != 2:
        raise RankMismatch(
            "determinant form needs a rank-2 lattice of 2x2 matrices, got "
            "n=%d rank=%d" % (lattice.n, lattice.rank)
        )
    b1, b2 = lattice.basis
    a = det(b1)
    c = det(b2)
    b = det(b1 + b2) - a - c
    return BinaryQuadraticForm(a, b, c)


# -- the decision pipeline ----------------------------------------------------


@dataclass(frozen=True)
class Verdict:
    """Decision outcome with machine-checkable certificates attached."""

    status: str  # CONJUGATE | NOT_CONJUGATE | UNKNOWN
    reason: str
    conjugator: IntMatrix | None = None
    local: tuple = ()
    bqf: BinaryQuadraticForm | None = None
    bqf_proof: UnitRepresentation | None = None
    assumption: object = None
    swapped: bool = False
    note: str | None = None

    def to_json_obj(self):
        certs = {}
        if self.conjugator is not None:
            certs["conjugator"] = self.conjugator.to_json_obj()
        if self.local:
            certs["local"] = [v.to_json_obj() for v in self.local]
        if self.bqf is not None:
            bqf = self.bqf.to_json_obj()
            if self.bqf_proof is not None:
                bqf["proof"] = self.bqf_proof.to_json_obj()
            certs["bqf"] = bqf
        if self.assumption is not None:
            certs["assumption"] = self.assumption.to_json_obj()
        obj = {"status": self.status, "reason": self.reason, "certificates": certs}
        if self.swapped:
            obj["swapped"] = True
        if self.note:
            obj["note"] = self.note
        return obj


def _decide_bqf(x, y, lattice, locals_=(), assumption=None):
    """Exact 2x2 endgame through the determinant form of C(X,Y)."""

    def verdict(status, reason, **kw):
        return Verdict(status=status, reason=reason, local=tuple(locals_), assumption=assumption, **kw)

    r = lattice.rank
    if r == 0:
        return verdict("NOT_CONJUGATE", "bqf-certificate", note="intertwiner lattice is zero")
    if r == 1:
        b1 = lattice.basis[0]
        d = det(b1)
        if abs(d) == 1:
            return verdict("CONJUGATE", "explicit-conjugator", conjugator=_certified(b1, x, y))
        return verdict("NOT_CONJUGATE", "bqf-certificate", note="rank-1 lattice with |det| = %d" % abs(d))
    if r == 2:
        form = bqf_from_lattice(lattice)
        if form.is_zero:
            return verdict(
                "NOT_CONJUGATE", "bqf-certificate", bqf=form, note="determinant form vanishes identically"
            )
        try:
            rep = bqf_represents_unit(form)
        except FormBudget as exc:
            return verdict("UNKNOWN", "form-budget", bqf=form, note=str(exc))
        if rep.represents:
            xc, yc = rep.witness
            t = _certified(lattice.basis[0] * xc + lattice.basis[1] * yc, x, y)
            return verdict("CONJUGATE", "explicit-conjugator", conjugator=t, bqf=form, bqf_proof=rep)
        return verdict("NOT_CONJUGATE", "bqf-certificate", bqf=form, bqf_proof=rep)
    # rank 3 cannot occur for 2x2; rank 4 means both scalar (equal was
    # handled); decide by direct search as a safety net
    t = conjugator_search(lattice)
    if t is not None:
        return verdict("CONJUGATE", "explicit-conjugator", conjugator=t)
    return verdict("UNKNOWN", "unsupported", note="degenerate high-rank 2x2 lattice")


def decide(
    x: IntMatrix,
    y: IntMatrix,
    budget: int = 100000,
    search_budget: int = 1000000,
    seed: int = 0,
    search_dim_cap: int = 12,
) -> Verdict:
    """Decide GL_n(Z)-conjugacy of x and y with certificates.

    Pipeline: identical inputs; characteristic polynomial comparison;
    split-spectrum analysis with the exponent assumption checked on x
    and then y; local tests at the relevant primes in increasing order,
    always on C(x,y), stopping at the first FAIL (so local ends there),
    each a closed-form PASS when the lattice's C D verifies there and a
    local_test otherwise; the local-global theorem when the assumption
    holds and all locals pass; the exact quadratic-form endgame for n =
    2; explicit conjugator search otherwise.  UNKNOWN verdicts name what
    blocked the decision: factorization-budget when an eigenvalue
    difference could not be factored within prime_factors' step budget
    and the primes found, the 2x2 endgame and the search did not
    decide; form-budget when the form endgame passed its step cap.

    swapped marks that the assumption holds for y but not for x.  Local
    conjugacy is symmetric (T in C(x,y) has unit determinant mod p iff
    adj T in C(y,x) does), so the tests need no swap.  The (scale,
    exponent, rank) triples are conjugation invariants, so a swapped
    pair is never conjugate.  Every returned certificate has been
    re-verified; a failed re-check raises CertificateError.
    """
    if not (x.is_square and y.is_square and x.nrows == y.nrows):
        raise ValueError("conjugacy needs square matrices of equal size")
    n = x.nrows
    if x == y:
        return Verdict(status="CONJUGATE", reason="explicit-conjugator", conjugator=IntMatrix.identity(n))
    if charpoly(x) != charpoly(y):
        return Verdict(status="NOT_CONJUGATE", reason="charpoly-mismatch")
    try:
        spx = split_spectrum(x)
        spy = split_spectrum(y)
    except NotSplit:
        spx = spy = None
    if spx is None:
        if n == 2:
            lattice = intertwiner_lattice(x, y)
            return _decide_bqf(x, y, lattice)
        return Verdict(
            status="UNKNOWN",
            reason="unsupported",
            note="minimal polynomial is not split with distinct integer roots",
        )
    # equal characteristic polynomials force equal spectra
    if spx.eigenvalues != spy.eigenvalues or spx.multiplicities != spy.multiplicities:
        raise CertificateError("equal characteristic polynomials gave unequal spectra")
    rep = check_assumption(x, spectrum=spx)
    swapped = False
    if not rep.holds:
        rep_y = check_assumption(y, spectrum=spy)
        if rep_y.holds:
            rep = rep_y
            swapped = True
    # without every relevant prime the theorem cannot apply, but the
    # primes found can still give an obstruction
    try:
        primes, unfactored = relevant_primes(spx), None
    except FactorizationBudget as exc:
        primes, unfactored = exc.primes, exc
    lattice = _eigenblock_basis(x, y, spx, spy)
    # primes in order, stopping at the first FAIL: one obstruction decides.
    # The lattice's closed form C D is offered first at each prime
    cd = lattice.closed_form
    locals_ = []
    for p in primes:
        if verify_conjugator(cd, x, y, prime=p):
            locals_.append(LocalVerdict(prime=p, status="PASS", certificate=cd, method="closed-form"))
            continue
        locals_.append(local_test(x, y, p, budget=budget, seed=seed, lattice=lattice))
        if locals_[-1].status == "FAIL":
            break
    locals_ = tuple(locals_)

    def verdict(status, reason, **kw):
        return Verdict(status=status, reason=reason, local=locals_, assumption=rep, swapped=swapped, **kw)

    if locals_ and locals_[-1].status == "FAIL":
        return verdict("NOT_CONJUGATE", "local-obstruction")
    theorem = rep.holds and unfactored is None and all(v.status == "PASS" for v in locals_)
    if n == 2 and not theorem:
        return _decide_bqf(x, y, lattice, locals_=locals_, assumption=rep)
    conj = None
    if n <= search_dim_cap or not theorem:
        conj = conjugator_search(lattice, budget=search_budget, seed=seed)
    if conj is not None:
        return verdict("CONJUGATE", "explicit-conjugator", conjugator=_certified(conj, x, y))
    if theorem:
        return verdict("CONJUGATE", "theorem+local-passes")
    if not rep.holds:
        return verdict("UNKNOWN", "assumption-unverified")
    if unfactored is not None:
        return verdict("UNKNOWN", "factorization-budget", note=str(unfactored))
    return verdict(
        "UNKNOWN", "local-undecided", note="some local test exhausted its budget without a verdict"
    )
