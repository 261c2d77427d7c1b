"""Split spectra of integer matrices.

A square integer matrix is split when its minimal polynomial is a
product of distinct linear factors with integer roots.  For such X the
Lagrange interpolants e_i = prod_{j != i} (X - a_j I) / (a_i - a_j) are
the spectral projectors; scaling each by the least q_i that clears the
denominators gives integer matrices E_i = q_i e_i, the basic certified
data used by the conjugacy decision procedure.

Polynomials are tuples of integer coefficients in ascending order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .linalg import snf_invariants
from .matrix import IntMatrix, int_from_json
from .modular import NotScaledIdempotent, scaled_idempotent_invariants


class NotSplit(ValueError):
    """Minimal polynomial has a repeated or non-integer root."""


class DivisibilityViolation(ValueError):
    """An abelian invariant of a scaled idempotent fails to divide its scale."""


# -- polynomial helpers -----------------------------------------------------


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return tuple(out)


def poly_eval_int(poly, x: int) -> int:
    acc = 0
    for c in reversed(poly):
        acc = acc * x + c
    return acc


def poly_eval_matrix(poly, m: IntMatrix) -> IntMatrix:
    n = m.nrows
    acc = IntMatrix.identity(n) * poly[-1]
    for c in reversed(poly[:-1]):
        acc = acc * m + IntMatrix.identity(n) * c
    return acc


def _matvec(m: IntMatrix, v):
    return [sum(a * b for a, b in zip(row, v)) for row in m.rows]


def _local_minimal_polynomial(x: IntMatrix, w):
    """Monic minimal polynomial of x acting on the vector w (w != 0)."""
    n = x.nrows
    echelon = []  # (reduced vector, pivot position, combination coefficients)
    kry = list(w)
    k = 0
    while True:
        vec = [Fraction(a) for a in kry]
        comb = [Fraction(0)] * k + [Fraction(1)]
        for evec, pos, ecomb in echelon:
            f = vec[pos]
            if f:
                for j in range(n):
                    vec[j] -= f * evec[j]
                for j, c in enumerate(ecomb):
                    comb[j] -= f * c
        pos = next((j for j in range(n) if vec[j]), None)
        if pos is None:
            # comb is monic of degree k; it divides the monic integer
            # minimal polynomial, hence has integer coefficients
            assert all(c.denominator == 1 for c in comb)
            return tuple(int(c) for c in comb)
        piv = vec[pos]
        vec = [a / piv for a in vec]
        comb = [c / piv for c in comb]
        echelon.append((vec, pos, comb))
        kry = _matvec(x, kry)
        k += 1
        assert k <= n, "dependency must appear within n steps"


def minimal_polynomial(x: IntMatrix):
    """Monic integer polynomial of minimal degree annihilating x.

    Accumulates local minimal polynomials column by column; the running
    product always divides the true minimal polynomial, so the loop can
    stop as soon as the product annihilates the matrix.
    """
    if not x.is_square:
        raise ValueError("minimal polynomial needs a square matrix")
    n = x.nrows
    mu = (1,)
    mu_at_x = IntMatrix.identity(n)
    for col in range(n):
        w = [mu_at_x[i, col] for i in range(n)]
        if not any(w):
            continue
        nu = _local_minimal_polynomial(x, w)
        mu = poly_mul(mu, nu)
        mu_at_x = poly_eval_matrix(nu, x) * mu_at_x
        if mu_at_x.is_zero():
            break
    assert len(mu) >= 2
    return mu


def _divisors(n: int):
    n = abs(n)
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d * d != n:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def _integer_roots(poly):
    """All integer roots of a monic integer polynomial, with multiplicity.

    Returns (roots, fully_split) where fully_split means the polynomial
    is a product of the returned linear factors and nothing else.
    """
    roots = []
    p = list(poly)
    while len(p) > 1:
        if p[0] == 0:
            root = 0
        else:
            root = None
            for d in _divisors(p[0]):
                for cand in (d, -d):
                    if poly_eval_int(p, cand) == 0:
                        root = cand
                        break
                if root is not None:
                    break
            if root is None:
                return roots, False
        roots.append(root)
        # synthetic division by (t - root), exact since root is a root
        q = [0] * (len(p) - 1)
        acc = 0
        for i in range(len(p) - 1, 0, -1):
            acc = acc * root + p[i]
            q[i - 1] = acc
        assert acc * root + p[0] == 0
        p = q
    return roots, True


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
    """Eigenvalues, multiplicities and scaled idempotents of a split matrix.

    Raises NotSplit when the minimal polynomial has a repeated or
    non-integer root.
    """
    mu = minimal_polynomial(x)
    roots, full = _integer_roots(mu)
    if not full:
        raise NotSplit("minimal polynomial %s has a non-integer root" % (mu,))
    if len(set(roots)) != len(roots):
        raise NotSplit("minimal polynomial %s has a repeated root" % (mu,))
    eigenvalues = tuple(sorted(roots))
    n = x.nrows
    ident = IntMatrix.identity(n)
    idempotents = []
    scales = []
    multiplicities = []
    for a in eigenvalues:
        num = ident
        den = 1
        for b in eigenvalues:
            if b != a:
                num = num * (x - ident * b)
                den *= a - b
        g = gcd(num.content(), abs(den))
        q = abs(den) // g
        sign = 1 if den > 0 else -1
        e = IntMatrix([[v * sign // g for v in row] for row in num.rows])
        tr = e.trace()
        assert tr % q == 0 and tr >= 0
        idempotents.append(e)
        scales.append(q)
        multiplicities.append(tr // q)
    _check_projector_identities(x, eigenvalues, idempotents, scales, multiplicities)
    return SplitSpectrum(
        n=n,
        eigenvalues=eigenvalues,
        multiplicities=tuple(multiplicities),
        idempotents=tuple(idempotents),
        scales=tuple(scales),
    )


def _check_projector_identities(x, eigenvalues, idempotents, scales, mults):
    n = x.nrows
    assert sum(mults) == n
    total = IntMatrix.zeros(n, n)
    big = lcm(*scales)
    for i, e in enumerate(idempotents):
        q = scales[i]
        a = eigenvalues[i]
        assert e * e == e * q
        assert x * e == e * a
        total = total + e * (big // q)
        for j in range(i + 1, len(idempotents)):
            prod = e * idempotents[j]
            assert prod.is_zero()
    assert total == IntMatrix.identity(n) * big


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
        inv = scaled_idempotent_invariants(e, q)
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
    try:
        invs = scaled_idempotent_invariants(e, scale)
    except NotScaledIdempotent:
        invs = snf_invariants(e)
    out = []
    for d in invs:
        if scale % d:
            raise DivisibilityViolation(
                "invariant %d does not divide the scale %d" % (d, scale)
            )
        out.append(scale // d)
    return tuple(out)
