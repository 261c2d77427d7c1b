"""GL_n(Z)-conjugacy of integer matrices, with verifiable certificates.

The objects of study are intertwiner lattices C(X,Y) = {T : TX = YT}.
X and Y are conjugate over Z exactly when C(X,Y) contains a unimodular
element; the local-global route certifies conjugacy from assumption
checks plus local passes, and non-split 2x2 pairs are decided by the
determinant form of their rank-2 lattice.

Orientation: everything here uses TX = YT, so a unimodular T is
directly the conjugator T X T^{-1} = Y.  (For the transposed
convention AX = YA used when identifying C(X,Y) with a module Hom,
apply the dictionary A = T^t between the two.)

Intertwiner lattices of split matrices are computed blockwise: a T in
C(X,Y) maps the saturated a-eigenlattice of X into the one of Y, so T
is determined by integer block matrices S_i, and integrality of T cuts
out a congruence lattice mod q = lcm(q_i) that modular.solve handles.
Non-split pairs fall back to the saturated kernel of the n^2 x n^2
difference map.  Split pairs with two eigenvalues a < b, 2x2 included,
build no lattice: they are decided in closed form from their glue
blocks N in [[aI, N], [0, bI]], by a complete invariant modulo b - a
and a conjugator built from Smith transforms over Z/(b - a) where it
agrees (_glue_route).

By the boundary rule of zconj.matrix the private functions work on
integer arrays, each product a matmul with a stated bound, and an
IntMatrix is built once per certificate (aligned, closed_form, basis, a
hit); _certified and _decide_bqf take what the public functions they
serve take, and the IntMatrix products are verify_conjugator's TX = YT
and the closed form's C D X = Y C D.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, count, islice
from math import gcd, lcm, prod

import numpy as np

from .forms import BinaryQuadraticForm, FormBudget, UnitRepresentation, bqf_represents_unit
from .linalg import (
    KERNEL_RREF_CUTOFF,
    charpoly,
    det,
    fraction_free_rref,
    hnf,
    kernel_basis,
    lll_reduce,
)
from .matrix import CertificateError, IntMatrix, int_dtype, matmul, max_abs, product_dtype
from .modular import (
    _hermite_columns,
    _hermite_dense,
    _howell_rows,
    _local_moduli,
    _refine,
    _ZeroDivisor,
    det_mod,
    inv_mod,
    matmul_mod,
    residues,
    smith_mod,
)
from .spectral import NotSplit, SplitSpectrum, _spectrum_at, check_assumption, split_spectrum

_DET_FILTER_PRIME = (1 << 31) - 1
_EXHAUSTIVE_LIMIT = 1 << 20
_CHUNK_ENTRIES = 1 << 14  # largest candidate stack local_test evaluates at once
_BLOCK_BYTES = 1 << 24  # bytes of one block (8 an entry) of a product with an m-wide operand


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


class IntertwinerLattice:
    """Saturated Z-basis of {T : T source = target T}, in block coordinates.

    Basis element i is T = (1/q) C blockdiag(S_a) D: row i of coords
    holds its blocks S_a side by side, each row-major with sizes[a] =
    (rows, cols); c has the matching eigenlattice bases of the target
    as columns, d the matching rows of D = q B^-1 for the source's
    bases B, so T B_a = C_a S_a; det_b and det_c are det B and det C.
    blocks gives (coords, c, d, sizes, q, det_b, det_c); a basis given
    instead, an (m, n^2) integer array of the elements flattened
    row-major, is one n x n block with B = C = I and q = 1.  The elements
    as an (m, n, n) array (stack) and as IntMatrix (basis) are
    assembled on first use; rank needs neither.

    aligned is the eigenbasis-aligned intertwiner C B^{-1}, set when
    both spectra agree and it is integral; it is unimodular exactly
    when |det B| = |det C|.  closed_form, C D = q C B^{-1}, is set when
    both spectra agree; its determinant is det C q^n / det B.
    """

    def __init__(
        self, n, basis=None, source=None, target=None, aligned=None, closed_form=None, blocks=None
    ):
        self.n, self.source, self.target = n, source, target
        self.aligned, self.closed_form = aligned, closed_form
        if blocks is None:
            eye = np.eye(n, dtype=np.int64)
            blocks = basis.astype(int_dtype(max_abs(basis))), eye, eye, ((n, n),), 1, 1, 1
        self.coords, self.c, self.d, self.sizes, self.q, self.det_b, self.det_c = blocks

    @property
    def rank(self) -> int:
        return len(self.coords)

    def elements(self, coords):
        """The elements with the given rows of block coordinates, as a
        (K, n, n) integer array; CertificateError unless each is integral."""
        # one bound for every block's two products and for their sum
        mc, md, ms = max_abs(self.c), max_abs(self.d), max_abs(coords)
        bound = max(mc, md, ms, mc * md * ms * coords.shape[1])
        total = np.zeros((len(coords), self.n, self.n), dtype=int_dtype(bound))
        off = row = col = 0
        for my, mx in self.sizes:
            s_a = coords[:, off : off + my * mx].reshape(-1, my, mx)
            total += matmul(matmul(self.c[:, row : row + my], s_a, bound), self.d[col : col + mx], bound)
            off, row, col = off + my * mx, row + my, col + mx
        if (total % self.q).any():
            raise CertificateError("lattice element is not divisible by q")
        return total // self.q

    def combination(self, coeffs) -> IntMatrix:
        """sum_i coeffs[i] basis[i] for integer coefficients, as an IntMatrix."""
        # coords is m x m on the theorem route: its magnitude without an
        # |coords| copy, and the product over column blocks, each cast alone
        mc, mk = max(int(self.coords.max()), -int(self.coords.min())), max_abs(coeffs)
        bound, step = max(mc, mk, mc * mk * self.rank), max(1, _BLOCK_BYTES // (8 * self.rank))
        s = np.empty(self.coords.shape[1], dtype=int_dtype(bound))
        for lo in range(0, len(s), step):
            s[lo : lo + step] = matmul(coeffs, self.coords[:, lo : lo + step], bound)
        return IntMatrix(self.elements(s[None])[0])

    @cached_property
    def stack(self):
        return self.elements(self.coords)

    @cached_property
    def basis(self) -> tuple:
        return tuple(IntMatrix(t) for t in self.stack)


def _scaled_inverse(m, scale: int):
    """(D, det M) for the integer matrix D with M D = scale I, read off
    the fraction-free RREF d [I | scale M^{-1}] of [M | scale I].

    Exists iff scale M^{-1} is integral; raises CertificateError otherwise.
    """
    n = len(m)
    r, pivots, d, sign = fraction_free_rref(np.hstack([m, np.eye(n, dtype=object) * scale]))
    if pivots != list(range(n)):
        raise CertificateError("matrix is singular")
    if (r[:, n:] % d).any():
        raise CertificateError("scaled inverse is not integral")
    return r[:, n:] // d, sign * d


def _eigenbasis(m, a: int, mult: int, f):
    """Saturated a-eigenlattice basis of m as columns; CertificateError
    unless it has mult columns and m maps each to a times it.

    f is the scaled idempotent F_a, whose columns span the eigenspace.
    Above KERNEL_RREF_CUTOFF a rank-one lattice is read off f in closed
    form: its first nonzero column divided by its content, signed so
    that its last nonzero entry is positive, which is the vector
    kernel_basis returns there.  Every other lattice is kernel_basis of
    M - aI.  The rank check with the certified multiplicity and the
    eigenvector check make either output the whole eigenlattice.
    """
    n, mm = len(m), max(max_abs(m), abs(a))
    if n > KERNEL_RREF_CUTOFF and mult == 1:
        basis = f[:, np.flatnonzero(f.any(axis=0))[:1]].astype(object)  # no column when f = 0
        if basis.size:
            g = gcd(*basis.flat)
            basis //= g if basis.flat[np.flatnonzero(basis)[-1]] > 0 else -g
    else:
        shifted = m.astype(int_dtype(2 * mm))
        shifted.flat[:: n + 1] -= a
        basis = kernel_basis(shifted).T
    if basis.shape[1] != mult:
        raise CertificateError("eigenlattice rank differs from multiplicity")
    mb = max_abs(basis)
    bound = max(mm, mb, mm * mb * n)
    if (matmul(m, basis, bound) != basis.astype(int_dtype(bound)) * a).any():
        raise CertificateError("eigenlattice basis is not made of eigenvectors")
    return basis


def _eigenbases(m, sp: SplitSpectrum):
    """The _eigenbasis of m at each eigenvalue side by side, in spectrum
    order, and the range of columns that belongs to each eigenvalue."""
    ends = np.cumsum(sp.multiplicities).tolist()
    blocks = {a: range(end - mult, end) for a, mult, end in zip(sp.eigenvalues, sp.multiplicities, ends)}
    bases = [_eigenbasis(m, a, len(blocks[a]), e.array) for a, e in zip(sp.eigenvalues, sp.idempotents)]
    return np.concatenate(bases, axis=1), blocks


def _eigenblock_basis(x, y, spx: SplitSpectrum, spy: SplitSpectrum):
    """C(X,Y) for split X, Y via per-eigenvalue blocks.

    B and C stack the eigenlattice bases of X and Y as columns.  T is
    parametrized by blocks S_a (one per eigenvalue common to both
    spectra) through T B_a = C_a S_a; with D = q B^{-1} (integral
    because q Z^n lies inside the sum of the X-eigenlattices), T =
    (1/q) sum_a C_a S_a D_a, and integrality of T is the congruence
    sum_a C_a S_a D_a = 0 (mod q) solved over Z/q.  The congruence
    only sees the span of D's columns mod q, so D is replaced by the
    rows H of that span's Howell form, with pivots g_c.  Two checks
    make the spans equal: B H^t = 0 (mod q), which puts every row of H
    in D's span because B D = q I, and prod_c q / g_c = |det B|, the
    order of D's span mod q, which a triangular set with pivots g_c
    spans at least.  Every solution is checked against the congruences;
    with X B = B diag(a) and Y C = C diag(a) that makes every element
    an integral intertwiner.  The lattice stays in these block
    coordinates.  With equal spectra C D intertwines X and Y
    (closed_form): C D X = C Lambda D = Y C D, which is checked once
    here, and C D / q is the aligned intertwiner if integral.
    """
    n = x.nrows
    b, bx = _eigenbases(x.array, spx)
    c, cy = _eigenbases(y.array, spy)
    q = lcm(*spx.scales)
    d, det_b = _scaled_inverse(b, q)
    mb, mc, md = max_abs(b), max_abs(c), max_abs(d)
    if (matmul(b, d, max(mb, md, mb * md * n)) != np.diag([q] * n)).any():
        raise CertificateError("B D is not q I")
    closed_form = aligned = None
    if spx.eigenvalues == spy.eigenvalues and spx.multiplicities == spy.multiplicities:
        cd = matmul(c, d, max(mc, md, mc * md * n))
        closed_form = IntMatrix._of(cd)
        if not closed_form * x == y * closed_form:
            raise CertificateError("C D does not intertwine X and Y")
        if not residues(cd, q).any():
            # C D is nonsingular, so some entry is a nonzero multiple of q
            # and the array's dtype holds q
            aligned = IntMatrix._of(cd // q)
    common = [a for a in spx.eigenvalues if a in cy]
    sols = np.zeros((0, 0), dtype=np.int64)
    if common:
        howell = _howell_rows(residues(d.T, q), q)
        h = np.zeros((len(howell), n), dtype=int_dtype(q * q + q))
        for i, (col, e) in enumerate(sorted(howell.items())):
            h[i, : col + 1] = e
        if matmul_mod(residues(b, q), h.T, q).any():
            raise CertificateError("Howell rows lie outside the span of D mod q")
        if prod(q // int(e[col]) for col, e in howell.items()) != abs(det_b):
            raise CertificateError("Howell rows do not span a group of order |det B|")
        # congruence rows: entry (r,c) of sum_a C_a S_a H_a^t, coefficient
        # of S_a[u,v] is C_a[r,u] * H[c,v] over B_a's columns v; as a
        # block this is kron(C_a, H_a)
        eq = np.concatenate([np.kron(residues(c[:, cy[a]], q), h[:, bx[a]]) % q for a in common], axis=1)
        # S is diag plus cols at the pivot columns: eq S^t = eq diag + eq[:, pivots] cols^t
        diag, pivots, cols = _hermite_columns(eq, eq.shape[1], q)
        # checked over blocks of rows, each temporary one block x m; eq and
        # its blocks are gone before the m x m basis is allocated
        step = max(1, _BLOCK_BYTES // (8 * eq.shape[1]))
        blocks = (eq[lo : lo + step] for lo in range(0, len(eq), step))
        if any(((matmul_mod(e[:, pivots], cols.T, q) + e * diag) % q).any() for e in blocks):
            raise CertificateError("block coordinates do not satisfy the congruences")
        del eq
        sols = _hermite_dense(diag, pivots, cols)
    c_common, d_common = c[:, [j for a in common for j in cy[a]]], d[[j for a in common for j in bx[a]]]
    sizes = tuple((len(cy[a]), len(bx[a])) for a in common)
    blocks = sols, c_common, d_common, sizes, q, det_b, det(c)
    return IntertwinerLattice(n, None, x, y, aligned, closed_form, blocks)


def _sylvester_basis(x, y):
    """Saturated kernel of T -> TX - YT, one element per row, flattened
    row-major; CertificateError unless every element intertwines."""
    n = len(x)
    eye = np.eye(n, dtype=object)
    # row-major vec(T X - Y T) = (I kron X^t - Y kron I) vec(T)
    ker = kernel_basis(np.kron(eye, x.T) - np.kron(y, eye))
    ts, mt = ker.reshape(-1, n, n), max_abs(ker)
    mxy = max(max_abs(x), max_abs(y))
    bound = max(mt, mxy, mt * mxy * n)
    if (matmul(ts, x, bound) != matmul(y, ts, bound)).any():
        raise CertificateError("lattice element does not intertwine")
    return ker


def intertwiner_lattice(x: IntMatrix, y: IntMatrix, spectra=None) -> IntertwinerLattice:
    """Saturated basis of C(X,Y) = {T : TX = YT}.

    Split pairs go through the eigenblock construction, which also sets
    the aligned intertwiner; spectra, the pair (split_spectrum(x),
    split_spectrum(y)), saves computing them by _split_spectra.  Anything
    else goes through the kernel of the n^2-dimensional difference map.
    The basis always consists of exact intertwiners and spans every
    integral one.
    """
    if not (x.is_square and y.is_square and x.nrows == y.nrows):
        raise ValueError("intertwiner lattice needs square matrices of equal size")
    if spectra is None:
        try:
            spectra = _split_spectra(x, y)
        except NotSplit:
            return IntertwinerLattice(x.nrows, _sylvester_basis(x.array, y.array), x, y)
    return _eigenblock_basis(x, y, *spectra)


def _split_spectra(x: IntMatrix, y: IntMatrix):
    """(split_spectrum(x), split_spectrum(y)) or NotSplit, y's read at x's
    eigenvalues (spectral._spectrum_at) unless its identities fail there."""
    spx = split_spectrum(x)
    return spx, _spectrum_at(y, spx.eigenvalues) or split_spectrum(y)


def verify_conjugator(t: IntMatrix, x: IntMatrix, y: IntMatrix, prime=None) -> bool:
    """Check TX = YT plus the right determinant condition.

    Global mode (prime None): det(T) must be +1 or -1.  Local mode:
    det(T) must be a unit modulo prime, which may be a composite base of
    relevant_primes (det_mod may then raise modular._ZeroDivisor).
    """
    if t.nrows != x.nrows or t.ncols != x.nrows or x.nrows != y.nrows:
        return False
    if t * x != y * t:
        return False
    if prime is None:
        return abs(det(t.array)) == 1
    return det_mod(t.array, prime) != 0


def relevant_primes(spectrum: SplitSpectrum):
    """Increasing pairwise coprime bases whose primes are those dividing
    some eigenvalue difference: of each difference, the primes below
    1000 and the cofactor (modular._local_moduli), refined by
    modular._refine.  A base is prime unless that cofactor is 10^6 or
    more.  Away from these primes, equal characteristic polynomials
    already force local conjugacy (the order generated by the matrix
    localizes to a maximal order with free eigenlattices).
    """
    moduli = [m for a, b in combinations(spectrum.eigenvalues, 2) for m in _local_moduli(abs(a - b))]
    return [b for b, _ in _refine(moduli)]


@dataclass(frozen=True)
class LocalVerdict:
    """Outcome of a conjugacy test over Z localized at one prime, or at
    every prime of a base of relevant_primes."""

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

    p may be a base of relevant_primes: a PASS there holds at each of
    its primes, a FAIL is an obstruction as at a prime, and det_mod may
    raise modular._ZeroDivisor.  PASS certificates re-verify exactly.
    Candidates are up to budget seeded random combinations of the basis
    mod p (method sampled), then, when p^rank <= 2^20, every class of
    C(X,Y)/p (method exhaustive); an exhaustible lattice gets at most
    4096 draws, and none when p^rank <= 4096.  FAIL is only reported
    after every class has been evaluated.  The determinant of T + pS is
    det(T) mod p, so classes mod p decide.  Characteristic
    polynomials are compared only when no lattice is given and it is
    built here: a mismatch FAILs at once, because any nonsingular
    intertwiner would force equality.  A given lattice must be C(x, y),
    and decide passes one only after the spectra, and so the
    characteristic polynomials, have matched.

    Candidates are evaluated in the lattice's block coordinates: T B =
    C blockdiag(S_a) gives det T det B = det C prod_a det S_a, so when
    v_p(det B) = v_p(det C) a candidate has a unit determinant mod p
    exactly when every det S_a has.  Otherwise no element has one, nor
    when the blocks are not square or miss an eigenvalue (every element
    is then singular), and the verdict evaluating every candidate would
    give is returned at once.  Candidates are stacks of residues mod p;
    their order, the random draws and the budget accounting are those
    of a loop over one candidate at a time, and only the hit is
    assembled as an n x n matrix.
    """
    if lattice is None:
        if charpoly(x.array) != charpoly(y.array):
            return LocalVerdict(prime=p, status="FAIL", method="exhaustive")
        lattice = intertwiner_lattice(x, y)
    m, sizes = lattice.rank, lattice.sizes
    exhaustible = p ** m <= _EXHAUSTIVE_LIMIT
    # the verdict once every candidate has been evaluated without a hit
    fail = LocalVerdict(p, "FAIL", method="exhaustive")
    exhausted = fail if exhaustible else LocalVerdict(p, "UNDECIDED")
    square = all(r == c for r, c in sizes) and sum(c for _, c in sizes) == lattice.n
    if m == 0 or not square or _valuation(lattice.det_b, p) != _valuation(lattice.det_c, p):
        return exhausted
    # the residues once, in the dtype matmul_mod multiplies them in (no
    # chunk re-casts them, and no int64 copy precedes them); candidates
    # stay in the integer residue dtype
    dtype, coeff_dtype = product_dtype(p * p * m), int_dtype(p * p + p)
    if dtype is object:
        res = residues(lattice.coords, p).astype(object, copy=False)
    else:
        res = np.remainder(lattice.coords, p, out=np.empty(lattice.coords.shape, dtype), casting="unsafe")
    cap = max(1, _CHUNK_ENTRIES // max(res.shape[1], m))
    offsets = np.cumsum([0] + [k * k for k, _ in sizes])
    by_size = sorted(zip(offsets, (k for k, _ in sizes)), key=lambda b: b[1])

    def first_unit(cands):
        """Index of the first candidate (a row of block coordinates mod p)
        whose blocks all have a unit determinant mod p; small blocks first."""
        alive = np.arange(len(cands))
        for off, k in by_size:
            alive = alive[det_mod(cands[alive, off : off + k * k].reshape(-1, k, k), p) != 0]
            if not len(alive):
                return None
        return int(alive[0])

    def certify(coeffs, method):
        t = _certified(lattice.combination(coeffs), x, y, prime=p)
        return LocalVerdict(prime=p, status="PASS", certificate=t, method=method)

    # candidates in a fixed order: seeded random draws, then every class
    # when that is affordable.  The zero combination has determinant 0,
    # so it needs no skipping.  Each phase runs in chunks that grow from
    # 1 to cap candidates, one (K x m) @ (m x w) product per chunk, so an
    # early hit stays cheap and memory stays flat.
    draws = _Randranges(random.Random(seed), p)
    quick = budget
    if exhaustible:
        quick = 0 if p ** m <= 4096 else min(budget, 4096)
    for lo, hi in _chunks(quick, cap):
        coeffs = draws.take((hi - lo) * m).astype(coeff_dtype).reshape(-1, m)
        hit = first_unit(matmul_mod(coeffs, res, p))
        if hit is not None:
            return certify(coeffs[hit], "sampled")
    if exhaustible:
        # FAIL demands that every class of C(X,Y)/p has been evaluated;
        # class t has the base-p digits of t as coefficients, the last
        # one fastest (itertools.product order)
        powers = p ** np.arange(m - 1, -1, -1, dtype=np.int64)
        for lo, hi in _chunks(p ** m, cap):
            coeffs = np.arange(lo, hi, dtype=np.int64)[:, None] // powers % p
            hit = first_unit(matmul_mod(coeffs, res, p))
            if hit is not None:
                return certify(coeffs[hit], "exhaustive")
    return exhausted


def _valuation(v: int, p: int) -> int:
    """The largest e with p^e dividing the nonzero integer v."""
    return next(e for e in count() if v % p ** (e + 1))


# -- explicit conjugator search ---------------------------------------------


def _is_adjacency(a) -> bool:
    return ((a == 0) | (a == 1)).all() and (a == a.T).all() and not a.diagonal().any()


class _BudgetExceeded(Exception):
    pass


def _graph_isomorphism(x, y, budget: int):
    """Vertex bijection with X[u,v] = Y[pi(u), pi(v)], by backtracking."""
    n = len(x)
    ax = x.tolist()
    ay = y.tolist()
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


def _enumerate_short(vectors, r2, skip_below):
    """Coefficient vectors of lattice points with squared norm <= r2.

    Standard depth-first enumeration through the Gram-Schmidt
    coordinates of the (reduced) basis.  Float bounds carry a slack
    factor, so marginal vectors may appear in a later (larger) round
    instead.  Points with squared norm <= skip_below are suppressed so
    growing-radius rounds see each annulus once.  Only one of x and -x
    is produced, the one whose first nonzero coefficient is positive.
    Yields one item per node walked: the coefficient tuple at a leaf
    that is such a point, None at every other node.  A caller that
    counts the items against its budget stops the walk in time even
    where a level's range of coefficients is astronomically wide.
    """
    m = len(vectors)
    mu, norms = _gram_schmidt(vectors)
    if any(d <= 0.0 for d in norms):
        return
    coeffs = [0] * m

    def q_value():
        total = 0.0
        for i in range(m):
            t = coeffs[i] + sum(mu[j][i] * coeffs[j] for j in range(i + 1, m))
            total += norms[i] * t * t
        return total

    def walk(level, remaining):
        if level < 0:
            q = q_value()
            lead = next((v for v in coeffs if v), 0)
            yield tuple(coeffs) if lead > 0 and skip_below < q <= r2 * 1.001 else None
            return
        yield None
        center = sum(mu[j][level] * coeffs[j] for j in range(level + 1, m))
        half = (max(remaining, 0.0) / norms[level]) ** 0.5 + 1e-9
        lo = int(np.ceil(-center - half))
        hi = int(np.floor(-center + half))
        for v in range(lo, hi + 1):
            coeffs[level] = v
            used = norms[level] * (v + center) ** 2
            yield from walk(level - 1, remaining - used)
        coeffs[level] = 0

    yield from walk(m - 1, r2 * 1.001)


def conjugator_search(lattice: IntertwinerLattice, budget: int = 1000000, seed: int = 0):
    """Look for a unimodular element of the lattice; None if not found.

    Tries, in order: the identity when source equals target, a
    permutation conjugator when both endpoints are adjacency matrices,
    the lattice's aligned intertwiner (built with the lattice of a
    split pair, so this stage costs one verification), single basis
    elements before and after LLL reduction, then short-vector
    enumeration over the reduced basis in growing-radius rounds, and
    finally seeded random combinations until the budget runs out.  Each
    candidate, and each node the enumeration walks, counts against the
    budget.  Any hit is verified before being returned; a hit that fails
    raises CertificateError.
    """
    x, y = lattice.source, lattice.target
    n, m = lattice.n, lattice.rank
    if x == y:
        return IntMatrix.identity(n)
    if m == 0:
        return None
    if _is_adjacency(x.array) and _is_adjacency(y.array):
        perm = _graph_isomorphism(x.array, y.array, budget)
        if perm is not None:
            rows = np.zeros((n, n), dtype=np.int64)
            rows[perm, range(n)] = 1
            return _certified(IntMatrix(rows), x, y)
    if lattice.aligned is not None and verify_conjugator(lattice.aligned, x, y):
        return lattice.aligned

    def first_unimodular(ts):
        """The first of the (K, n, n) exact candidates ts with determinant
        +-1, filtered as one stack mod 2^31 - 1; None if there is none."""
        dets = det_mod(ts, _DET_FILTER_PRIME)
        for i in np.flatnonzero((dets == 1) | (dets == _DET_FILTER_PRIME - 1)):
            if abs(det(ts[i])) == 1:
                return _certified(IntMatrix(ts[i]), x, y)
        return None

    # single basis elements, then single reduced ones; spent counts the
    # candidates, and at least one is evaluated
    hit = first_unimodular(lattice.stack[: max(1, budget)])
    if hit is not None or m >= budget:
        return hit
    vectors = [tuple(v) for v in lattice.stack.reshape(m, n * n).tolist()]
    if m <= 64:
        vectors = lll_reduce(vectors)
    max_entry = max(abs(v) for w in vectors for v in w)
    reduced = np.array(vectors, dtype=int_dtype(max_entry))
    hit = first_unimodular(reduced[: budget - m].reshape(-1, n, n))
    spent = 2 * m
    if hit is not None or spent >= budget:
        return hit
    cap = max(1, _CHUNK_ENTRIES // max(n * n, m))

    def first_combination(coeffs):
        """first_unimodular over the combinations of the reduced basis
        with the rows of coeffs as coefficients."""
        cmax = max_abs(coeffs)
        bound = max(max_entry, cmax, max_entry * cmax * m)
        return first_unimodular(matmul(coeffs, reduced, bound).reshape(-1, n, n))

    # growing-radius short-vector rounds over the reduced basis, in chunks
    if m <= 64:
        r2, prev = float(max(sum(v * v for v in w) for w in vectors)) * 1.1, 0.0
        for _ in range(10):
            if spent >= budget:
                break
            short = _enumerate_short(vectors, r2, prev)
            for lo, hi in _chunks(budget - spent, cap):
                batch = list(islice(short, hi - lo))
                if not batch:
                    break
                spent += len(batch)
                points = [c for c in batch if c is not None]
                if points and (hit := first_combination(np.array(points, dtype=object))) is not None:
                    return hit
            prev = r2
            r2 *= 2.0
    # seeded random coefficients in [-3, 3]: rng.randint(-3, 3) is
    # -3 + rng.randrange(7), drawn in bulk
    draws = _Randranges(random.Random(seed), 7)
    for lo, hi in _chunks(budget - spent, cap):
        coeffs = draws.take((hi - lo) * m).astype(np.int64).reshape(-1, m) - 3
        hit = first_combination(coeffs)
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
    (each unit pivot is built by one shear per lower row, and the leftover
    diagonal of units is cleared with the six-shear identity
    diag(u, u^{-1}) = w(u) w(-1), w(z) = e12(z) e21(-z^{-1}) e12(z)),
    then multiplies the lifted inverse shears over Z in reverse.
    """
    if q < 2:
        raise ValueError("modulus must be at least 2")
    if not m.is_square:
        raise ValueError("sl_lift needs a square matrix")
    n = m.nrows
    if det(m.array) % q != 1 % q:
        raise DetNotOne("determinant is not 1 modulo %d" % q)
    w = residues(m.array, q).tolist()
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
        for i in range(c + 1, n):
            # t is q/g with every prime of w_cc/g divided out: a prime of
            # q/g divides t or w_cc/g, and then not w_ic/g, so adding
            # t row i leaves gcd(w_cc, q) = g
            g = gcd(w[c][c], w[i][c], q)
            if gcd(w[c][c], q) == g:
                continue
            t = q // g
            while (h := gcd(t, w[c][c] // g)) > 1:
                t //= h
            shear(c, i, t)
        # det w is a unit, so column c below row c has no prime of q in common
        if gcd(w[c][c], q) != 1:
            raise CertificateError("no unit pivot is reachable")
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
    a = np.eye(n, dtype=object)
    for i, j, lam in ops:
        a[:, j] += _balanced(-lam, q) * a[:, i]
    if det(a) != 1 or residues(a - m.array, q).any():
        raise CertificateError("lift is not in SL_n(Z) or does not reduce to m")
    return IntMatrix(a)


# -- split pairs with two eigenvalues in closed form ----------------------------


def _glue_block(m, basis, a: int, b: int):
    """(V, V^-1, N) with V unimodular, V basis U = [I; 0] for some
    unimodular U and V m V^-1 = [[aI, N], [0, bI]], for m with
    eigenvalues a and b and basis its saturated a-eigenlattice basis as
    columns.  The columns are LLL-reduced first, since kernel_basis's
    HNF transform rows, and with them V and the built conjugator, grow
    fast with n.  V is the transform of the HNF of the reduced basis,
    and V^-1 the transform of the HNF of V, which is I; CertificateError
    unless both forms and V m V^-1 have that shape."""
    n, r = basis.shape
    h, v = hnf(np.array(lll_reduce(basis.T.tolist()), dtype=object).T)
    if (h != np.eye(n, r, dtype=np.int64)).any():
        raise CertificateError("eigenlattice basis is not saturated")
    h, v_inv = hnf(v)
    if (h != np.eye(n, dtype=np.int64)).any():
        raise CertificateError("HNF transform is not unimodular")
    mv, mi, mm = max_abs(v), max_abs(v_inv), max_abs(m)
    vm_bound = max(mv, mm, mv * mm * n)
    bound = max(vm_bound, mi, vm_bound * mi * n)
    g = matmul(matmul(v, m, vm_bound), v_inv, bound)
    form = np.diag(np.array([a] * r + [b] * (n - r), dtype=g.dtype))
    form[:r, r:] = g[:r, r:]
    if (g != form).any():
        raise CertificateError("eigenlattice basis does not split off the glue block")
    return v, v_inv, g[:r, r:]


def _glue_invariant(a: int, b: int, r: int, s: int, g, det_u: int):
    """(a, b, r, s, g, class) of an r x s glue block N with u N w =
    diag(g) (mod d = b - a) and det w = 1 (modular.smith_mod).  The
    class is +-prod e_i/g_i modulo d/g_t, e_i the Smith invariants of
    N, which is +-det_u^-1, reduced into [0, d/(2 g_t)]; it is None when
    r != s or g_t = d, where it carries no information."""
    if r != s or g[-1] == b - a:
        return a, b, r, s, tuple(g), None
    m = (b - a) // g[-1]
    c = inv_mod(det_u, b - a) % m
    return a, b, r, s, tuple(g), min(c, m - c)


def _glue_route(x: IntMatrix, y: IntMatrix, spx: SplitSpectrum, spy: SplitSpectrum):
    """(T, None) with T X T^-1 = Y, certified by _certified, or (None,
    (invariant of X, invariant of Y)) when no such T exists, for split X
    and Y with spectra spx and spy, both with eigenvalues a < b of
    multiplicities r and s.

    _glue_block gives V_X X V_X^-1 = [[aI_r, N], [0, bI_s]] from the
    a-eigenlattice basis of _eigenbasis (the only one read), and M from
    Y the same way, each with its own a-idempotent.
    Every intertwiner of these forms is [[P, Q], [0, R]], and it
    conjugates exactly when P N - M R = (a - b) Q, so the pair is
    conjugate iff P N = M R (mod d = b - a) for some P and R of
    determinant +-1.  Over Z/d, u_N N w_N = D = u_M M w_M for D =
    diag(g_i) when the g_i agree, and then P = u_M^-1 S u_N and R = w_M
    S' w_N^-1 for any (S, S') with S D = D S'.  The determinant pairs of
    those (S, S') are all pairs of units when r != s or g_t = d, and the
    pairs (u, v) with u = v (mod d/g_t) otherwise, so the class of
    _glue_invariant decides the rest.  With equal invariants, diagonal
    S and S' give det P = 1 and det R = eps = +-1 mod d; sl_lift lifts
    P, and R diag(eps, 1, ...), whose lift takes the sign back.  Then Q
    = (P N - M R)/(a - b) is exact and T = V_Y^-1 [[P, Q], [0, R]] V_X.
    d = 1 takes P = R = I, since every block is then congruent.
    """
    (a, b), (r, s) = spx.eigenvalues, spx.multiplicities
    d, n = b - a, r + s
    vx, _, nx = _glue_block(x.array, _eigenbasis(x.array, a, r, spx.idempotents[0].array), a, b)
    _, vy_inv, ny = _glue_block(y.array, _eigenbasis(y.array, a, r, spy.idempotents[0].array), a, b)
    g, u_n, _, _, w_n_inv, det_n = smith_mod(nx.tolist(), d)
    g_m, _, u_m_inv, w_m, _, det_m = smith_mod(ny.tolist(), d)
    invariants = _glue_invariant(a, b, r, s, g, det_n), _glue_invariant(a, b, r, s, g_m, det_m)
    if invariants[0] != invariants[1]:
        return None, invariants
    p_lift, r_lift = np.eye(r, dtype=np.int64), np.eye(s, dtype=np.int64)
    if d > 1:
        # S = diag(1, .., sigma) gives det P = 1.  For r = s, S' = diag(1,
        # .., eps) needs sigma = eps (mod d/g_t); for r > s the last row of
        # D is 0 and S' = I; for r < s S' takes sigma at D's last pivot,
        # column r, and sigma^-1 at its last column, which is 0
        sigma = det_m * inv_mod(det_n, d) % d
        eps = -1 if invariants[0][-1] is not None and (sigma - 1) % (d // g[-1]) else 1
        s_p, s_r = [1] * r, [1] * s
        s_p[-1] = sigma
        if r == s:
            s_r[-1] = eps
        elif r < s:
            s_r[r - 1], s_r[-1] = sigma, inv_mod(sigma, d)
        scaled_u_n = residues([[f * v for v in row] for f, row in zip(s_p, u_n)], d)
        scaled_w_n_inv = residues([[f * v for v in row] for f, row in zip(s_r, w_n_inv)], d)
        p_lift = sl_lift(IntMatrix(matmul_mod(residues(u_m_inv, d), scaled_u_n, d)), d).array
        r_mod = matmul_mod(residues(w_m, d), scaled_w_n_inv, d)
        r_mod[:, 0] = r_mod[:, 0] * eps % d
        r_lift = sl_lift(IntMatrix(r_mod), d).array.copy()
        r_lift[:, 0] *= eps
    mp, mr, mn, mm = max_abs(p_lift), max_abs(r_lift), max_abs(nx), max_abs(ny)
    bound = max(mp, mr, mn, mm, mp * mn * r + mm * mr * s)
    diff = matmul(p_lift, nx, bound) - matmul(ny, r_lift, bound)
    if (diff % d).any():
        raise CertificateError("P N - M R is not divisible by b - a")
    k = np.zeros((n, n), dtype=int_dtype(bound))
    k[:r, :r], k[:r, r:], k[r:, r:] = p_lift, diff // (a - b), r_lift
    mk, mv, mi = max_abs(k), max_abs(vx), max_abs(vy_inv)
    kv_bound = max(mk, mv, mk * mv * n)
    bound = max(kv_bound, mi, kv_bound * mi * n)
    return _certified(IntMatrix(matmul(vy_inv, matmul(k, vx, kv_bound), bound)), x, y), None


# -- determinant forms of rank-2 lattices ------------------------------------


def bqf_from_lattice(lattice: IntertwinerLattice) -> BinaryQuadraticForm:
    """det(x B_1 + y B_2) as a binary quadratic form, for 2x2 rank-2 lattices."""
    if lattice.n != 2 or lattice.rank != 2:
        raise RankMismatch(
            "determinant form needs a rank-2 lattice of 2x2 matrices, got "
            "n=%d rank=%d" % (lattice.n, lattice.rank)
        )
    # stack entries stay below 2^62 in int64, so b1 + b2 cannot wrap
    b1, b2 = lattice.stack
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
    glue: tuple | None = None  # the glue invariants of x and y

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
        if self.glue is not None:
            certs["glue"] = {}
            for side, (a, b, r, s, g, cls) in zip("xy", self.glue):
                obj = {"a": str(a), "b": str(b), "r": str(r), "s": str(s), "g": [str(v) for v in g]}
                if cls is not None:
                    obj["class"] = str(cls)
                certs["glue"][side] = obj
        obj = {"status": self.status, "reason": self.reason, "certificates": certs}
        if self.swapped:
            obj["swapped"] = True
        if self.note:
            obj["note"] = self.note
        return obj


def _decide_bqf(x, y):
    """Exact endgame for non-split 2x2 pairs with one characteristic
    polynomial, through the determinant form of C(X,Y)."""
    lattice = IntertwinerLattice(2, _sylvester_basis(x.array, y.array), x, y)
    # with equal characteristic polynomials C(X,Y) has rank 2 (a scalar
    # X = aI and a Y with Y - aI of rank 1 included), and rank 4 only for
    # X = Y = aI, which decide answers first
    if lattice.rank != 2:
        raise CertificateError("2x2 intertwiner lattice of rank %d" % lattice.rank)
    form = bqf_from_lattice(lattice)
    if form.is_zero:
        note = "determinant form vanishes identically"
        return Verdict("NOT_CONJUGATE", "bqf-certificate", bqf=form, note=note)
    try:
        rep = bqf_represents_unit(form)
    except FormBudget as exc:
        return Verdict("UNKNOWN", "form-budget", bqf=form, note=str(exc))
    if rep.represents:
        t = _certified(lattice.combination(np.array(rep.witness, dtype=object)), x, y)
        return Verdict("CONJUGATE", "explicit-conjugator", conjugator=t, bqf=form, bqf_proof=rep)
    return Verdict("NOT_CONJUGATE", "bqf-certificate", bqf=form, bqf_proof=rep)


def decide(
    x: IntMatrix,
    y: IntMatrix,
    budget: int = 100000,
    search_budget: int = 1000000,
    seed: int = 0,
    search_dim_cap: int = 12,
) -> Verdict:
    """Decide GL_n(Z)-conjugacy of x and y with certificates.

    Pipeline: identical inputs; split spectra of x and y (_split_spectra:
    y's at x's eigenvalues), compared as eigenvalues with multiplicities,
    which for split matrices is the characteristic polynomial comparison
    (charpoly runs only when one is not split).  One route per input
    class: non-split 2x2 pairs with one characteristic polynomial take
    the exact quadratic-form endgame of _decide_bqf, other non-split
    pairs are UNKNOWN unsupported, and split pairs with two eigenvalues
    take the closed form of _glue_route, which always decides: a built
    conjugator, or NOT_CONJUGATE glue-invariant with both invariants.
    Split pairs with three or more eigenvalues go on: the exponent
    assumption checked on x and then y; local tests at the bases of
    relevant_primes in increasing order, always on C(x,y), stopping at
    the first FAIL (so local ends there), each a closed-form PASS when
    the lattice's C D has a unit determinant there, and a local_test
    otherwise, a base that meets a zero divisor giving way to its parts;
    the local-global theorem when the assumption holds and all locals
    pass; then, where the search would run (n <= search_dim_cap, or the
    theorem does not apply), explicit conjugator search.  UNKNOWN
    verdicts name what blocked the decision: assumption-unverified,
    local-undecided, or form-budget when the form endgame passed its
    step cap.

    swapped marks, on pairs that take the local tests, that the
    assumption holds for y but not for x.  Local conjugacy is symmetric
    (T in C(x,y) has unit determinant mod p iff adj T in C(y,x) does),
    so the tests need no swap.  The (scale, exponent, rank) triples are
    conjugation invariants, so a swapped pair is never conjugate.  Every
    returned certificate has been re-verified; a failed re-check raises
    CertificateError.
    """
    if not (x.is_square and y.is_square and x.nrows == y.nrows):
        raise ValueError("conjugacy needs square matrices of equal size")
    n = x.nrows
    if x == y:
        return Verdict(status="CONJUGATE", reason="explicit-conjugator", conjugator=IntMatrix.identity(n))
    mismatch = Verdict(status="NOT_CONJUGATE", reason="charpoly-mismatch")
    try:
        spx, spy = _split_spectra(x, y)
    except NotSplit:
        if charpoly(x.array) != charpoly(y.array):
            return mismatch
        if n == 2:
            return _decide_bqf(x, y)
        return Verdict(
            status="UNKNOWN",
            reason="unsupported",
            note="minimal polynomial is not split with distinct integer roots",
        )
    # charpoly = prod (t - a)^mult(a): equal exactly when sorted spectra are
    for sp in (spx, spy):
        if list(sp.eigenvalues) != sorted(set(sp.eigenvalues)) or sum(sp.multiplicities) != n:
            raise CertificateError("split spectrum is not in canonical form")
    if spx.eigenvalues != spy.eigenvalues or spx.multiplicities != spy.multiplicities:
        return mismatch
    if len(spx.eigenvalues) == 2:
        conj, invariants = _glue_route(x, y, spx, spy)
        if conj is None:
            return Verdict(status="NOT_CONJUGATE", reason="glue-invariant", glue=invariants)
        return Verdict(status="CONJUGATE", reason="explicit-conjugator", conjugator=conj)
    rep = check_assumption(x, spectrum=spx)
    swapped = False
    if not rep.holds:
        rep_y = check_assumption(y, spectrum=spy)
        if rep_y.holds:
            rep = rep_y
            swapped = True
    lattice = intertwiner_lattice(x, y, spectra=(spx, spy))
    # bases in order, stopping at the first FAIL: one obstruction decides.
    # The closed form C D, checked to intertwine when it was built, is
    # offered first at each base; a zero divisor splits the base, and
    # its parts are tested in its place.  Three distinct integer
    # eigenvalues have a gap of at least 2, so there is always a base
    cd, bases, locals_ = lattice.closed_form, relevant_primes(spx), []
    while bases:
        b = bases.pop(0)
        try:
            if det_mod(cd.array, b):
                local = LocalVerdict(prime=b, status="PASS", certificate=cd, method="closed-form")
            else:
                local = local_test(x, y, b, budget=budget, seed=seed, lattice=lattice)
        except _ZeroDivisor as exc:
            bases[:0] = [c for c, _ in _refine([(exc.args[0], 1), (b // exc.args[0], 1)])]
            continue
        locals_.append(local)
        if local.status == "FAIL":
            break
    locals_ = tuple(locals_)

    def verdict(status, reason, **kw):
        return Verdict(status=status, reason=reason, local=locals_, assumption=rep, swapped=swapped, **kw)

    if locals_ and locals_[-1].status == "FAIL":
        return verdict("NOT_CONJUGATE", "local-obstruction")
    theorem = rep.holds and all(v.status == "PASS" for v in locals_)
    if n <= search_dim_cap or not theorem:
        conj = conjugator_search(lattice, budget=search_budget, seed=seed)
        if conj is not None:
            return verdict("CONJUGATE", "explicit-conjugator", conjugator=conj)
    if theorem:
        return verdict("CONJUGATE", "theorem+local-passes")
    if not rep.holds:
        return verdict("UNKNOWN", "assumption-unverified")
    return verdict(
        "UNKNOWN", "local-undecided", note="some local test exhausted its budget without a verdict"
    )
