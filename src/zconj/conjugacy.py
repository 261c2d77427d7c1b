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

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

import numpy as np

from .forms import BinaryQuadraticForm, UnitRepresentation, bqf_represents_unit
from .linalg import charpoly, det, kernel_basis, lll_reduce
from .matrix import IntMatrix, int_dtype
from .modular import det_mod, inv_mod, prime_factors, residues, solve_congruence_lattice
from .spectral import NotSplit, SplitSpectrum, check_assumption, split_spectrum

_DET_FILTER_PRIME = (1 << 31) - 1
_EXHAUSTIVE_LIMIT = 1 << 20


class RankMismatch(ValueError):
    """Lattice rank does not fit the requested construction."""


class DetNotOne(ValueError):
    """Input to sl_lift has determinant != 1 modulo q."""


class CertificateError(AssertionError):
    """A computed certificate or lattice basis failed its exact re-check.

    Raised explicitly, so every check still runs under python -O.
    """


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
    when |det B| = |det C|.
    """

    n: int
    basis: tuple
    source: IntMatrix
    target: IntMatrix
    aligned: IntMatrix | None = None

    @property
    def rank(self) -> int:
        return len(self.basis)


def _scaled_inverse(m: IntMatrix, scale: int) -> IntMatrix:
    """Integer matrix D with M D = scale I, via exact rational elimination.

    Exists iff scale M^{-1} is integral; raises CertificateError otherwise.
    """
    n = m.nrows
    a = [[Fraction(m[i, j]) for j in range(n)] for i in range(n)]
    inv = [
        [Fraction(scale) if i == j else Fraction(0) for j in range(n)]
        for i in range(n)
    ]
    for c in range(n):
        piv = next((i for i in range(c, n) if a[i][c]), None)
        if piv is None:
            raise CertificateError("matrix is singular")
        if piv != c:
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
    sum_a C_a S_a D_a = 0 (mod q) solved over Z/q.  When the spectra
    agree, C D / q is the aligned intertwiner.
    """
    n = x.nrows
    b_mat, bx = _eigenbases(x, spx)
    c_mat, cy = _eigenbases(y, spy)
    q = lcm(*spx.scales)
    d_mat = _scaled_inverse(b_mat, q)
    if b_mat * d_mat != IntMatrix.identity(n) * q:
        raise CertificateError("B D is not q I")
    aligned = None
    if spx.eigenvalues == spy.eigenvalues and spx.multiplicities == spy.multiplicities:
        cd = c_mat * d_mat
        if all(v % q == 0 for row in cd.rows for v in row):
            aligned = IntMatrix([[v // q for v in row] for row in cd.rows])
    common = [a for a in spx.eigenvalues if a in cy]
    if not common:
        return IntertwinerLattice(n=n, basis=(), source=x, target=y, aligned=aligned)
    # congruence rows: entry (r,c) of sum_a C_a S_a D_a, coefficient of
    # S_a[u,v] is C_a[r,u] * D_a[v,c]; as a block this is kron(C_a, D_a^t)
    c = np.array(c_mat.rows, dtype=object)
    d = np.array(d_mat.rows, dtype=object)
    eq = np.concatenate(
        [np.kron(residues(c[:, cy[a]], q), residues(d[bx[a]], q).T) % q for a in common],
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
    return IntertwinerLattice(n=n, basis=basis, source=x, target=y, aligned=aligned)


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
    run here.
    """
    out = set()
    eig = spectrum.eigenvalues
    for i in range(len(eig)):
        for j in range(i + 1, len(eig)):
            out.update(prime_factors(eig[i] - eig[j]))
    return sorted(out)


@dataclass(frozen=True)
class LocalVerdict:
    """Outcome of a conjugacy test over Z localized at one prime."""

    prime: int
    status: str  # PASS | FAIL | UNDECIDED
    certificate: IntMatrix | None = None
    method: str | None = None  # sampled | exhaustive | supplied

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
    p^rank <= 2^20; mismatched characteristic polynomials also FAIL,
    because any nonsingular intertwiner would force equality.  The
    determinant of T + pS is det(T) mod p, so classes mod p decide.
    """
    if charpoly(x) != charpoly(y):
        return LocalVerdict(prime=p, status="FAIL", method="exhaustive")
    if lattice is None:
        lattice = intertwiner_lattice(x, y)
    m = lattice.rank
    if m == 0:
        return LocalVerdict(prime=p, status="FAIL", method="exhaustive")
    # candidates are combinations with coefficients in [0, p)
    max_entry = max(abs(v) for b in lattice.basis for row in b.rows for v in row)
    dtype = int_dtype(max_entry, p, p * max_entry * m)
    stack = np.array([b.rows for b in lattice.basis], dtype=dtype)

    def combine(coeffs):
        return np.tensordot(np.array(coeffs, dtype=dtype), stack, axes=1)

    def certify(coeffs, method):
        t = _certified(IntMatrix(combine(coeffs).tolist()), x, y, prime=p)
        return LocalVerdict(prime=p, status="PASS", certificate=t, method=method)

    # quick phase first: basis elements, prefix sums, close pairs, then
    # random draws; most passing pairs certify within a few evaluations
    spent = 0
    exhaustible = p ** m <= _EXHAUSTIVE_LIMIT
    deterministic = []
    for i in range(m):
        e = [0] * m
        e[i] = 1
        deterministic.append(e)
    run = [0] * m
    for i in range(min(m, 24)):
        run = list(run)
        run[i] = 1
        deterministic.append(list(run))
    for i in range(min(m, 40)):
        for j in range(i + 1, min(m, 40)):
            e = [0] * m
            e[i] = 1
            e[j] = 1
            deterministic.append(e)
    for coeffs in deterministic:
        if spent >= budget:
            break
        spent += 1
        if det_mod(combine(coeffs), p):
            return certify(coeffs, "sampled")
    rng = random.Random(seed)
    quick = budget
    if exhaustible:
        quick = 0 if p ** m <= 4096 else min(budget, 4096)
    while spent < quick:
        spent += 1
        coeffs = [rng.randrange(p) for _ in range(m)]
        if not any(coeffs):
            continue
        if det_mod(combine(coeffs), p):
            return certify(coeffs, "sampled")
    if exhaustible:
        # FAIL demands that every class of C(X,Y)/p has been evaluated
        for coeffs in itertools.product(range(p), repeat=m):
            if not any(coeffs):
                continue
            if det_mod(combine(coeffs), p):
                return certify(coeffs, "exhaustive")
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
            assert best is not None and best[0] < g0, "unit pivot must be reachable"
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
        assert w[c][c] == 1
    assert w == [[1 if i == j else 0 for j in range(n)] for i in range(n)]
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
    r = lattice.rank
    if r == 0:
        return Verdict(
            status="NOT_CONJUGATE",
            reason="bqf-certificate",
            local=tuple(locals_),
            assumption=assumption,
            note="intertwiner lattice is zero",
        )
    if r == 1:
        b1 = lattice.basis[0]
        d = det(b1)
        if abs(d) == 1:
            return Verdict(
                status="CONJUGATE",
                reason="explicit-conjugator",
                conjugator=_certified(b1, x, y),
                local=tuple(locals_),
                assumption=assumption,
            )
        return Verdict(
            status="NOT_CONJUGATE",
            reason="bqf-certificate",
            local=tuple(locals_),
            assumption=assumption,
            note="rank-1 lattice with |det| = %d" % abs(d),
        )
    if r == 2:
        form = bqf_from_lattice(lattice)
        if form.is_zero:
            return Verdict(
                status="NOT_CONJUGATE",
                reason="bqf-certificate",
                bqf=form,
                local=tuple(locals_),
                assumption=assumption,
                note="determinant form vanishes identically",
            )
        rep = bqf_represents_unit(form)
        if rep.represents:
            xc, yc = rep.witness
            t = _certified(lattice.basis[0] * xc + lattice.basis[1] * yc, x, y)
            return Verdict(
                status="CONJUGATE",
                reason="explicit-conjugator",
                conjugator=t,
                bqf=form,
                bqf_proof=rep,
                local=tuple(locals_),
                assumption=assumption,
            )
        return Verdict(
            status="NOT_CONJUGATE",
            reason="bqf-certificate",
            bqf=form,
            bqf_proof=rep,
            local=tuple(locals_),
            assumption=assumption,
        )
    # rank 3 cannot occur for 2x2; rank 4 means both scalar (equal was
    # handled); decide by direct search as a safety net
    t = conjugator_search(lattice)
    if t is not None:
        return Verdict(
            status="CONJUGATE",
            reason="explicit-conjugator",
            conjugator=t,
            local=tuple(locals_),
            assumption=assumption,
        )
    return Verdict(
        status="UNKNOWN",
        reason="unsupported",
        local=tuple(locals_),
        assumption=assumption,
        note="degenerate high-rank 2x2 lattice",
    )


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
    and then y; local tests at every relevant prime, always on C(x,y);
    the local-global theorem when the assumption holds and all locals
    pass; the exact quadratic-form endgame for n = 2; explicit
    conjugator search otherwise.  UNKNOWN verdicts name what blocked
    the decision.

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
        ident = IntMatrix.identity(n)
        return Verdict(
            status="CONJUGATE", reason="explicit-conjugator", conjugator=ident
        )
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
    assert spx.eigenvalues == spy.eigenvalues
    assert spx.multiplicities == spy.multiplicities
    rep = check_assumption(x, spectrum=spx)
    swapped = False
    if not rep.holds:
        rep_y = check_assumption(y, spectrum=spy)
        if rep_y.holds:
            rep = rep_y
            swapped = True
    lattice = intertwiner_lattice(x, y)
    locals_ = tuple(
        local_test(x, y, p, budget=budget, seed=seed, lattice=lattice)
        for p in relevant_primes(spx)
    )
    if any(v.status == "FAIL" for v in locals_):
        return Verdict(
            status="NOT_CONJUGATE",
            reason="local-obstruction",
            local=locals_,
            assumption=rep,
            swapped=swapped,
        )
    theorem = rep.holds and all(v.status == "PASS" for v in locals_)
    if n == 2 and not theorem:
        return _decide_bqf(x, y, lattice, locals_=locals_, assumption=rep)
    conj = None
    if n <= search_dim_cap or not theorem:
        conj = conjugator_search(lattice, budget=search_budget, seed=seed)
    if conj is not None:
        return Verdict(
            status="CONJUGATE",
            reason="explicit-conjugator",
            conjugator=_certified(conj, x, y),
            local=locals_,
            assumption=rep,
            swapped=swapped,
        )
    if theorem:
        return Verdict(
            status="CONJUGATE",
            reason="theorem+local-passes",
            local=locals_,
            assumption=rep,
            swapped=swapped,
        )
    if not rep.holds:
        return Verdict(
            status="UNKNOWN",
            reason="assumption-unverified",
            local=locals_,
            assumption=rep,
            swapped=swapped,
        )
    return Verdict(
        status="UNKNOWN",
        reason="local-undecided",
        local=locals_,
        assumption=rep,
        swapped=swapped,
        note="some local test exhausted its budget without a verdict",
    )
