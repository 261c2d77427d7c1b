"""Finite fields of square order and the Paley and Peisert graphs.

Fields F_q with q = p^(2t), p = 3 mod 4, are built deterministically:
the modulus is the lexicographically smallest monic irreducible
polynomial whose canonical root is primitive, so adjacency matrices
are bit-reproducible.  Elements are indexed 0..q-1 by their
coefficient vectors read as base-p digits (constant digit lowest).

For q = p**2 the quadratic-residue (Paley) and fourth-power-union
(Peisert) graphs share the spectrum {k, r, s}, and the scaled spectral
projectors E_i are integer matrices with E_i^2 = p^2 E_i whose Smith
groups the lemma checker compares against the closed-form multiset
(one 1, (p+1)^2/4 - 2 copies of p, (p-1)^2/4 copies of p^2).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd

import numpy as np

from .matrix import CertificateError, IntMatrix
from .modular import _idempotent_invariants, prime_factors, reduce_mod
from .spectral import _check_projector_identities


class NotThreeModFour(ValueError):
    """The construction needs a prime p with p = 3 mod 4."""


# polynomials over Z/p: tuples of coefficients, constant first,
# trailing zeros trimmed


def _poly_trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _poly_mul_mod(a, b, modulus, p):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    # reduce by the monic modulus
    d = len(modulus) - 1
    for i in range(len(out) - 1, d - 1, -1):
        f = out[i]
        if not f:
            continue
        out[i] = 0
        for j in range(d):
            out[i - d + j] = (out[i - d + j] - f * modulus[j]) % p
    return _poly_trim(out)


def _poly_pow_mod(base, e, modulus, p):
    result = (1,)
    acc = _poly_trim(base)
    while e:
        if e & 1:
            result = _poly_mul_mod(result, acc, modulus, p)
        acc = _poly_mul_mod(acc, acc, modulus, p)
        e >>= 1
    return result


def _root_is_primitive(modulus, p: int, q: int) -> bool:
    """Whether x has order q - 1 = p^d - 1 modulo the monic f of degree
    d; then f is irreducible, as a reducible f leaves fewer than q - 1
    units in F_p[x]/(f)."""
    x = (0, 1)
    if _poly_pow_mod(x, q - 1, modulus, p) != (1,):
        return False
    for r in prime_factors(q - 1):
        if _poly_pow_mod(x, (q - 1) // r, modulus, p) == (1,):
            return False
    return True


class FieldSpec:
    """F_q with q = p^(2t), deterministic modulus, primitive root tables.

    Elements are integer indices: index = sum of c_i p^i over the
    coefficient vector (c_0, ..., c_{2t-1}).  exp[i] is the index of
    beta^i and log[idx] recovers i; beta is the canonical root x of
    the modulus.
    """

    def __init__(self, p: int, t: int, modulus):
        self.p = p
        self.t = t
        self.degree = 2 * t
        self.q = p ** self.degree
        self.modulus = tuple(modulus)
        self.beta = p  # index of the canonical root x
        # x^(i+1) = x x^i: shift up, and fold the top coefficient back by the monic modulus
        exp, cur = [], [1] + [0] * (self.degree - 1)
        for _ in range(self.q - 1):
            exp.append(self._index(cur))
            cur = [(c - cur[-1] * m) % p for c, m in zip([0] + cur[:-1], self.modulus)]
        self.exp = exp
        self.log = {idx: i for i, idx in enumerate(exp)}
        if self._index(cur) != 1 or len(self.log) != self.q - 1:
            raise ValueError("root of the modulus is not primitive")

    def _index(self, coeffs) -> int:
        return sum(c * self.p**i for i, c in enumerate(coeffs))

    def coeffs(self, idx: int):
        return tuple(idx // self.p**i % self.p for i in range(self.degree))

    @cached_property
    def differences(self):
        """The read-only q x q table whose entry (i, j) is the index of
        i - j: the p x p table of (a - b) mod p summed over the digits
        with weights p^t (a Kronecker sum), in int16 while q <= 2^15."""
        p, r = self.p, np.arange(self.p)
        out = digit = reduce_mod(r[:, None] - r, p).astype(np.int16 if self.q <= 1 << 15 else np.int64)
        for t in range(1, self.degree):
            out = ((digit * p**t)[:, None, :, None] + out[None, :, None, :]).reshape(p ** (t + 1), -1)
        out.flags.writeable = False
        return out

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self.exp[(self.log[a] + self.log[b]) % (self.q - 1)]

    def power(self, a: int, e: int) -> int:
        if a == 0:
            return int(e == 0)
        return self.exp[(self.log[a] * e) % (self.q - 1)]


def field_build(p: int, degree: int) -> FieldSpec:
    """Deterministic field of order p^degree for prime p = 3 mod 4.

    Scans monic polynomials in lexicographic order (high-degree
    coefficients compared first) and takes the first one whose
    canonical root generates the multiplicative group, which makes it
    irreducible.
    """
    if prime_factors(p) != [p]:
        raise ValueError("p must be prime, got %d" % p)
    if p % 4 != 3:
        raise NotThreeModFour("p must be 3 mod 4, got %d" % p)
    if degree % 2 or degree <= 0:
        raise ValueError("degree must be a positive even integer")
    q = p ** degree
    # enumerate non-leading coefficients (a_{d-1}, ..., a_0) in lex order
    for code in range(q):
        rest = []
        v = code
        for _ in range(degree):
            rest.append(v % p)
            v //= p
        # rest[0] is a_{d-1} (compared first), rest[-1] is a_0
        coeffs = tuple(reversed(rest)) + (1,)
        if _root_is_primitive(coeffs, p, q):
            return FieldSpec(p, degree // 2, coeffs)
    raise CertificateError("no primitive polynomial found")


def quarter_cosets(field: FieldSpec):
    """The fourth-power subgroup U and its cosets bU, b^2 U, b^3 U.

    Lists of element indices, each sorted ascending; together they
    partition the nonzero elements.
    """
    if (field.q - 1) % 4:
        raise ValueError("the field order must be 1 mod 4")
    cosets = [[], [], [], []]
    for i, idx in enumerate(field.exp):
        cosets[i % 4].append(idx)
    return [sorted(c) for c in cosets]


def _difference_graph(field: FieldSpec, connection) -> IntMatrix:
    """Adjacency joining i and j when i - j lies in the connection set,
    read as the set's mask at field.differences."""
    conn = set(connection)
    if 0 in conn:
        raise ValueError("connection set must not contain 0")
    adj = np.isin(np.arange(field.q), list(conn))[field.differences]
    if (adj != adj.T).any():
        raise ValueError("connection set must be symmetric")
    if (adj.sum(axis=1) != len(conn)).any():
        raise CertificateError("difference graph is not regular of degree |connection set|")
    return IntMatrix(adj)


def paley_adjacency(field: FieldSpec) -> IntMatrix:
    """Adjacency of the graph joining elements whose difference is a
    nonzero square."""
    squares = {field.exp[i] for i in range(0, field.q - 1, 2)}
    return _difference_graph(field, squares)


def peisert_adjacency(field: FieldSpec, beta: int | None = None) -> IntMatrix:
    """Adjacency of the graph joining elements with difference in
    U union beta U, for the fourth-power subgroup U.

    beta defaults to the field's canonical primitive root; any other
    primitive element may be supplied to probe dependence on the
    choice (only its coset mod U matters).
    """
    if beta is None:
        beta = field.beta
    lb = field.log.get(beta)
    if lb is None or gcd(lb, field.q - 1) != 1:
        raise ValueError("beta must be primitive")
    conn = {field.exp[i] for i in range(0, field.q - 1, 4)}
    conn |= {field.exp[(i + lb) % (field.q - 1)] for i in range(0, field.q - 1, 4)}
    return _difference_graph(field, conn)


@dataclass(frozen=True)
class PaleyPeisertData:
    """Both graphs on F_{p^2} with their scaled spectral projectors."""

    p: int
    q: int
    k: int
    r: int
    s: int
    X: IntMatrix
    Xstar: IntMatrix
    E1: IntMatrix
    E2: IntMatrix
    E3: IntMatrix
    E1star: IntMatrix
    E2star: IntMatrix
    E3star: IntMatrix


def _projector_triple(x, p: int, k: int, r: int, s: int):
    """E1 = J, E2 = sJ + pX - psI and E3 = rJ - pX + prI for the adjacency
    array x, checked as the scaled projectors onto its k-, r- and
    s-eigenspaces (spectral._check_projector_identities) with traces p^2,
    p^2 k, p^2 k."""
    es = np.ones_like(x), p * x, -p * x
    for e, c, d in zip(es[1:], (s, r), (-p * s, p * r)):
        e += c
        e.flat[:: len(x) + 1] += d
    scale = p * p
    if tuple(sum(e.diagonal().tolist()) for e in es) != (scale, scale * k, scale * k):
        raise CertificateError("projector identities failed")
    if not _check_projector_identities(x, (k, r, s), es, (scale,) * 3, (1, k, k)):
        raise CertificateError("projector identities failed")
    return es


def paley_idempotent_data(p: int) -> PaleyPeisertData:
    """Graphs on p^2 vertices with integer spectral projectors.

    The eigenvalues are k = (p^2-1)/2, r = (p-1)/2, s = -(p+1)/2 and
    the projectors come from the closed formulas E1 = J,
    E2 = sJ + pX - psI, E3 = rJ - pX + prI, each satisfying
    E^2 = p^2 E.  Identity failures raise immediately.
    """
    field = field_build(p, 2)
    q = field.q
    k = (q - 1) // 2
    r = (p - 1) // 2
    s = -(p + 1) // 2
    xs = paley_adjacency(field), peisert_adjacency(field)
    es = [IntMatrix._of(e) for x in xs for e in _projector_triple(x.array, p, k, r, s)]
    return PaleyPeisertData(p, q, k, r, s, *xs, *es)  # X, Xstar, E1, E2, E3, E1star, E2star, E3star


@dataclass(frozen=True)
class LemmaEntry:
    name: str
    invariants: tuple
    ok: bool

    def to_json_obj(self):
        return {"name": self.name, "invariants": [str(v) for v in self.invariants], "ok": self.ok}


@dataclass(frozen=True)
class LemmaReport:
    p: int
    entries: tuple

    @property
    def ok(self) -> bool:
        return all(e.ok for e in self.entries)

    def to_json_obj(self):
        return {
            "p": str(self.p),
            "ok": self.ok,
            "matrices": [e.to_json_obj() for e in self.entries],
        }


def expected_invariant_counts(p: int):
    """(count of 1, count of p, count of p^2) in the projector Smith form."""
    return 1, (p + 1) ** 2 // 4 - 2, (p - 1) ** 2 // 4


def verify_smith_lemma(p: int) -> LemmaReport:
    """Compare Smith invariants of E2, E3 of both graphs to the
    closed-form multiset.  Each projector is certified once: the identities
    _projector_triple checked (k - 1 products X E_i and a linear identity
    for the last) imply E^2 = p^2 E, so its invariants are read without
    multiplying E E again (modular._idempotent_invariants)."""
    data = paley_idempotent_data(p)
    ones, ps, p2s = expected_invariant_counts(p)
    scale = p * p
    entries = []
    for name, e in (
        ("paley-E2", data.E2),
        ("paley-E3", data.E3),
        ("peisert-E2", data.E2star),
        ("peisert-E3", data.E3star),
    ):
        inv = _idempotent_invariants(e.array, scale)
        ok = sorted(inv) == [1] * ones + [p] * ps + [scale] * p2s
        entries.append(LemmaEntry(name=name, invariants=tuple(inv), ok=ok))
    return LemmaReport(p=p, entries=tuple(entries))
