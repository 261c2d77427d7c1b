"""Split spectra of integer matrices.

A square integer matrix is split when its minimal polynomial is a
product of distinct linear factors with integer roots.  For such X the
Lagrange interpolants e_i = prod_{j != i} (X - a_j I) / (a_i - a_j) are
the spectral projectors; scaling each by the least q_i that clears the
denominators gives integer matrices E_i = q_i e_i, the basic certified
data used by the conjugacy decision procedure.

The minimal polynomial is one Krylov dependency among X's powers; the
numerators and the projector identities are exact products and linear
identities of integer arrays, and each E_i becomes an IntMatrix once, at
the end (the boundary rule of zconj.matrix; quotient_invariants takes an
IntMatrix because the public snf_invariants it wraps does).

Polynomials are tuples of integer coefficients in ascending order.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm

import numpy as np

from .linalg import fraction_free_rref, snf_invariants
from .matrix import CertificateError, IntMatrix, int_dtype, int_from_json, matmul, max_abs, product_dtype
from .modular import scaled_idempotent_invariants


class NotSplit(ValueError):
    """Minimal polynomial has a repeated or non-integer root."""


class DivisibilityViolation(ValueError):
    """An abelian invariant of a scaled idempotent fails to divide its scale."""


# -- polynomial helpers -----------------------------------------------------


def poly_eval_int(poly, x: int) -> int:
    acc = 0
    for c in reversed(poly):
        acc = acc * x + c
    return acc


def _local_minimal_polynomial(x, w):
    """Monic minimal polynomial of x acting by left multiplication on w != 0,
    an integer vector or n x m array.

    The Krylov terms w, xw, x^2 w, ..., flattened, are the columns of K.
    Over Q, v^T K^T K v = |Kv|^2, so the Gram matrix K^T K (one row and
    column per term) has K's kernel and hence K's RREF: its first
    non-pivot column k writes x^k w in the earlier terms, which gives
    the polynomial.  It divides x's monic integer minimal polynomial, so
    its coefficients are integers.  Terms come in doubling batches from
    four (degree <= 3 takes one Gram elimination), so entries grow only
    to about twice the degree needed, or to x^3 w.
    """
    kry, size = [np.asarray(w)], min(4, len(x) + 1)
    mx, bound = max_abs(x), max_abs(kry[0])
    while True:
        while len(kry) < size:
            # entries of x^k w stay within (mx n)^k max |w|
            bound = max(mx, bound, mx * bound * len(x))
            kry.append(matmul(x, kry[-1], bound))
        k_mat = np.stack([t.reshape(-1) for t in kry], axis=1)
        gram = matmul(k_mat.T, k_mat, max(bound, bound * bound * k_mat.shape[0]))
        r, pivots, d, _ = fraction_free_rref(gram)
        k = len(pivots)
        if k < size:
            if (r[:k, k] % d).any():
                raise CertificateError("Krylov dependency is not integral")
            return tuple(-int(v) // d for v in r[:k, k]) + (1,)
        size = min(2 * size, len(x) + 1)


def minimal_polynomial(x):
    """Monic integer polynomial of minimal degree annihilating x: that of
    left multiplication by x on I, one Krylov sequence of x's powers."""
    if x.shape[0] != x.shape[1]:
        raise ValueError("minimal polynomial needs a square matrix")
    return _local_minimal_polynomial(x, np.eye(len(x), dtype=np.int64))


def _derivative(poly):
    return [i * c for i, c in enumerate(poly)][1:]


def _squarefree_part(f):
    """f / gcd(f, f') for monic f, by primitive pseudo-remainders over Z."""
    a, b = list(f), _derivative(f)
    while b:
        g = gcd(*b)
        b = [v // g for v in b]
        while len(a) >= len(b):
            c, shift = a[-1], len(a) - len(b)
            a = [b[-1] * v for v in a]
            for i, v in enumerate(b):
                a[i + shift] -= c * v
            while a and not a[-1]:
                a.pop()
        a, b = b, a
    # the primitive gcd divides the monic f, so by Gauss's lemma its
    # leading coefficient is +-1; divide f by the monic associate h
    h = [v * a[-1] for v in a]
    q, r = [0] * (len(f) - len(h) + 1), list(f)
    for i in range(len(q) - 1, -1, -1):
        q[i] = r[i + len(h) - 1]
        for j, v in enumerate(h):
            r[i + j] -= q[i] * v
    return q


def _integer_roots(poly):
    """All integer roots of a monic integer polynomial, with multiplicity.

    Returns (roots, fully_split) where fully_split means the polynomial
    is a product of the returned linear factors and nothing else; roots
    are ordered by absolute value, positive first.  No coefficient is
    factored: the roots of the squarefree part g modulo the least m >= 2
    at which g' is a unit at every one of them are lifted by Newton's
    iteration past twice the Cauchy bound (Hensel), and the lifts that
    are exact roots are kept.
    """
    f = list(poly)
    g = _squarefree_part(f)
    dg = _derivative(g)
    bound = 1 + max((abs(c) for c in f[:-1]), default=0)
    m = 1
    while True:
        m += 1
        mods = [r for r in range(m) if poly_eval_int(g, r) % m == 0]
        if all(gcd(poly_eval_int(dg, r), m) == 1 for r in mods):
            break
    roots = []
    for r in mods:
        mod = m
        while mod <= 2 * bound:
            mod *= mod
            r = (r - poly_eval_int(g, r) * pow(poly_eval_int(dg, r), -1, mod)) % mod
        if r > mod // 2:
            r -= mod
        # the multiplicity of r: how many derivatives of f vanish there
        h = f
        while poly_eval_int(h, r) == 0:
            roots.append(r)
            h = _derivative(h)
    roots.sort(key=lambda r: (abs(r), r < 0))
    return roots, len(roots) == len(f) - 1


# -- split spectra -----------------------------------------------------------


@dataclass(frozen=True)
class SplitSpectrum:
    """Eigenvalue data of a split matrix with integral scaled projectors.

    idempotents[i] equals scales[i] times the spectral projector onto
    the eigenvalues[i] eigenspace, with scales[i] minimal positive.
    """

    n: int
    eigenvalues: tuple
    multiplicities: tuple
    idempotents: tuple
    scales: tuple


def split_spectrum(x: IntMatrix) -> SplitSpectrum:
    """Eigenvalues, multiplicities and scaled idempotents of a split matrix;
    NotSplit when the minimal polynomial has a repeated or non-integer root."""
    mu = minimal_polynomial(x.array)
    roots, full = _integer_roots(mu)
    if not full:
        raise NotSplit("minimal polynomial %s has a non-integer root" % (mu,))
    if len(set(roots)) != len(roots):
        raise NotSplit("minimal polynomial %s has a repeated root" % (mu,))
    sp = _spectrum_at(x, tuple(sorted(roots)))
    if sp is None:
        raise CertificateError("scaled idempotents fail the projector identities")
    return sp


def _spectrum_at(x: IntMatrix, eigenvalues):
    """split_spectrum(x), given its eigenvalues in increasing order; None
    unless the projector identities hold there with every E_i != 0, which
    makes x diagonalizable with exactly these eigenvalues.  Each numerator
    prod_{b != a} (X - b I) is an integer array, bounds carried from the factors.
    """
    n, xa = x.nrows, x.array
    mx = max_abs(xa)
    idempotents = []
    scales = []
    multiplicities = []
    for a in eigenvalues:
        num, bound, den = None, 1, 1
        for b in eigenvalues:
            if b != a:
                fb = mx + abs(b)
                f = xa.astype(int_dtype(fb))
                f.flat[:: n + 1] -= b
                if num is None:
                    num, bound = f, fb
                else:
                    num = matmul(num, f, max(bound, fb, bound * fb * n))
                    bound *= fb * n
                den *= a - b
        if num is None:  # one eigenvalue: the numerator is I
            num = np.eye(n, dtype=np.int64)
        if not num.any():
            return None
        g = gcd(int(np.gcd.reduce(num, axis=None)), abs(den))
        q = abs(den) // g
        # g divides num's entries, and one is nonzero, so their dtype holds g
        e = num // ((1 if den > 0 else -1) * g)
        idempotents.append(e)
        scales.append(q)
        multiplicities.append(sum(e.diagonal().tolist()) // q)
    if not _check_projector_identities(xa, eigenvalues, idempotents, scales, multiplicities):
        return None
    return SplitSpectrum(
        n=n,
        eigenvalues=eigenvalues,
        multiplicities=tuple(multiplicities),
        idempotents=tuple(map(IntMatrix._of, idempotents)),
        scales=tuple(scales),
    )


def _check_projector_identities(x, eigenvalues, idempotents, scales, mults):
    """Whether X E_i = a_i E_i and sum (L/q_i) E_i = L I for distinct a_i,
    with multiplicities summing to n; x and the E_i are integer arrays.

    These give E_i E_j = [i = j] q_i E_i as well: with P_i = E_i / q_i,
    every v in the a_i-eigenspace is sum_j P_j v with P_j v in the a_j-
    eigenspace, and eigenspaces of distinct eigenvalues are independent,
    so P_j v = [i = j] v; the columns of P_i are such v (so trace E_i is
    q_i rank P_i).  Given the sum, L X - sum_i (L/q_i) a_i E_i is
    sum_i (L/q_i) (X - a_i I) E_i, so once X E_i = a_i E_i for i < k the
    linear identity sum_i (L/q_i) a_i E_i = L X holds exactly when
    X E_k = a_k E_k: k - 1 products, one per E_i, so that the product-dtype
    copies (matrix.product_dtype) of one E_i are held at a time, and X is
    cast to that dtype once.  The sums accumulate in place, in the dtype of
    L (k max |E| + 1) max(|X|, |a_i|, 1), which bounds their partial sums,
    and of max |E| max(|X|, |a_i|) n, which bounds the products.
    """
    n, k = len(x), len(idempotents)
    if sum(mults) != n or len(set(eigenvalues)) != k:
        return False
    big, me = lcm(*scales), max(max_abs(e) for e in idempotents)
    mx = max(max_abs(x), *map(abs, eigenvalues))
    dtype = int_dtype(big * (k * me + 1) * max(mx, 1), me * mx * n)
    es = [e.astype(dtype, copy=False) for e in idempotents]
    acc, tmp = np.empty((n, n), dtype=dtype), np.empty((n, n), dtype=dtype)
    for t in (0, 1):  # sum_i (L/q_i) a_i^t E_i - L X^t
        acc[...] = x if t else 0
        acc.flat[:: n + 1] += 1 - t
        acc *= -big
        for a, e, q in zip(eigenvalues, es, scales):
            acc += np.multiply(e, big // q * a**t, out=tmp)
        if acc.any():
            return False
    bound = max(mx, me, mx * me * n)
    xp = x.astype(product_dtype(bound), copy=False)
    for a, e in zip(eigenvalues, es[:-1]):
        if not (matmul(xp, e, bound) == e * a).all():
            return False
    return True


# -- the two-clause hypothesis on Smith exponents ----------------------------


@dataclass(frozen=True)
class AssumptionReport:
    """Outcome of the exponent conditions on the scaled idempotents.

    per_index lists (scale, smith exponent, rank) per eigenvalue in
    ascending eigenvalue order.  clause_a holds when every exponent
    equals its scale; clause_b when some rank-one idempotent can be set
    aside and all remaining exponents equal their scales.
    """

    clause_a: bool
    clause_b: bool
    per_index: tuple
    witness_index_for_b: object = None

    @property
    def holds(self) -> bool:
        return self.clause_a or self.clause_b

    def to_json_obj(self):
        return {
            "clause_a": self.clause_a,
            "clause_b": self.clause_b,
            "per_index": [
                {"scale": str(q), "smith_exponent": str(s), "rank": str(r)}
                for q, s, r in self.per_index
            ],
            "witness_index_for_b": (
                None
                if self.witness_index_for_b is None
                else str(self.witness_index_for_b)
            ),
        }

    @classmethod
    def from_json_obj(cls, obj):
        per = tuple(
            (
                int_from_json(row["scale"]),
                int_from_json(row["smith_exponent"]),
                int_from_json(row["rank"]),
            )
            for row in obj["per_index"]
        )
        w = obj.get("witness_index_for_b")
        return cls(
            clause_a=bool(obj["clause_a"]),
            clause_b=bool(obj["clause_b"]),
            per_index=per,
            witness_index_for_b=None if w is None else int_from_json(w),
        )


def check_assumption(x: IntMatrix, spectrum: SplitSpectrum | None = None):
    """Evaluate both exponent clauses for a split matrix.

    Clause (a): every idempotent's Smith exponent equals its scale.
    Clause (b): some rank-one idempotent may be exempted, provided all
    the others meet the clause (a) condition.  Rank-one candidates are
    tried in ascending eigenvalue order and the first success is the
    recorded witness.
    """
    if spectrum is None:
        spectrum = split_spectrum(x)
    exponents = []
    for e, q in zip(spectrum.idempotents, spectrum.scales):
        inv = scaled_idempotent_invariants(e.array, q)
        exponents.append(inv[-1] if inv else 1)
    per_index = tuple(
        (q, s, r)
        for q, s, r in zip(spectrum.scales, exponents, spectrum.multiplicities)
    )
    clause_a = all(s == q for q, s, _ in per_index)
    clause_b = False
    witness = None
    for i, (q, s, r) in enumerate(per_index):
        if r != 1:
            continue
        if all(s2 == q2 for j, (q2, s2, _) in enumerate(per_index) if j != i):
            clause_b = True
            witness = i
            break
    return AssumptionReport(
        clause_a=clause_a,
        clause_b=clause_b,
        per_index=per_index,
        witness_index_for_b=witness,
    )


def quotient_invariants(e: IntMatrix, scale: int):
    """Invariants (scale/d_1, ..., scale/d_r) of a scaled idempotent.

    The d_j are the abelian invariants of e; each must divide the scale
    or DivisibilityViolation is raised.  Values come out in descending
    order because the d_j ascend.
    """
    if scale <= 0:
        raise ValueError("scale must be positive")
    out = []
    for d in snf_invariants(e):
        if scale % d:
            raise DivisibilityViolation(
                "invariant %d does not divide the scale %d" % (d, scale)
            )
        out.append(scale // d)
    return tuple(out)
