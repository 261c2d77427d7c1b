"""Truncated unramified p-adic arithmetic over quadratic extensions.

The ring is Z_p[t]/(modulus) cut off at precision p^N, with the
modulus lifted verbatim from the finite-field construction so that
reduction mod p recovers the same field.  On top of it: Teichmuller
lifts by Frobenius iteration, Jacobi sums of powers of the Teichmuller
character, and the two-digit valuation formula they are checked
against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .graphs import field_build
from .matrix import CertificateError, int_dtype, matmul


class ZeroInput(ValueError):
    """Teichmuller lift of zero requested."""


class PrecisionExhausted(ArithmeticError):
    """Element is zero to working precision, valuation unreadable."""


class TruncatedUnramifiedRing:
    """Degree-2 unramified extension of Z/p^N.

    Elements are pairs (a, b) meaning a + b t with coefficients in
    [0, p^N); t satisfies the lifted field modulus.  N defaults to 4,
    comfortably above the valuations (at most 2) the Jacobi sums take;
    a precision below 1 raises ValueError.
    """

    one, zero = (1, 0), (0, 0)

    def __init__(self, p: int, precision: int = 4):
        if precision < 1:
            raise ValueError("precision must be at least 1")
        self.p = p
        self.precision = precision
        self.pn = p**precision
        self.field = field = field_build(p, 2)
        self.q = field.q
        # verbatim lift: mod-p coefficients reread in [0, p^N)
        self.modulus = tuple(field.modulus)

    @cached_property
    def jacobi_logs(self):
        """Arrays (log x, k log(1 - x) mod q - 1) over x = 2..q-1, k = (q - 1)/2:
        the part of every Jacobi sum that does not depend on j."""
        field, q = self.field, self.q
        log = np.zeros(q, dtype=np.int64)
        log[field.exp] = np.arange(q - 1)
        onemx = field.differences[1, 2:]
        return log[2:], (q - 1) // 2 * log[onemx] % (q - 1)

    @cached_property
    def character_table(self):
        """_character_table of this ring."""
        return _character_table(self)

    def element(self, a: int, b: int):
        return (a % self.pn, b % self.pn)

    def lift(self, idx: int):
        """A field element's coefficient vector reread in the ring."""
        ca, cb = self.field.coeffs(idx)
        return (ca, cb)

    def reduce_mod_p(self, u) -> int:
        a, b = u
        return self.field._index((a % self.p, b % self.p))

    def add(self, u, v):
        return ((u[0] + v[0]) % self.pn, (u[1] + v[1]) % self.pn)

    def mul(self, u, v):
        a, b = u
        c, d = v
        c0, c1, _ = self.modulus
        bd = b * d
        return ((a * c - bd * c0) % self.pn, (a * d + b * c - bd * c1) % self.pn)

    def pow(self, u, e: int):
        result = self.one
        acc = u
        while e:
            if e & 1:
                result = self.mul(result, acc)
            acc = self.mul(acc, acc)
            e >>= 1
        return result

    def valuation(self, u) -> int:
        """min p-adic valuation of the two coordinates in basis {1, t}."""
        a, b = u[0] % self.pn, u[1] % self.pn
        if a == 0 and b == 0:
            raise PrecisionExhausted(
                "element vanishes mod p^%d, valuation out of range" % self.precision
            )
        v = 0
        while a % self.p == 0 and b % self.p == 0:
            a //= self.p
            b //= self.p
            v += 1
        return v


def teichmuller(x: int, ring: TruncatedUnramifiedRing):
    """The unique root of unity above a nonzero field element.

    Lifts x and iterates z -> z^q; Frobenius fixes the residue while
    Hensel convergence doubles precision each pass, so the limit is
    stable after a few rounds and satisfies z^(q-1) = 1.
    """
    if x == 0 or x % ring.q == 0:
        raise ZeroInput("teichmuller lift needs a nonzero field element")
    z = ring.lift(x % ring.q)
    for _ in range(ring.precision + 2):
        nz = ring.pow(z, ring.q)
        if nz == z:
            break
        z = nz
    if ring.pow(z, ring.q - 1) != ring.one or ring.reduce_mod_p(z) != x % ring.q:
        raise CertificateError("Teichmuller lift is not a root of unity above x")
    return z


def _character_table(ring: TruncatedUnramifiedRing):
    """omega(beta^i) for i in 0..q-2, via one lift and q-2 products, as a
    (q - 1) x 2 integer array: row i holds the coefficients of 1 and t."""
    wb = teichmuller(ring.field.beta, ring)
    table = [ring.one]
    for _ in range(ring.q - 2):
        table.append(ring.mul(table[-1], wb))
    return np.array(table, dtype=int_dtype(ring.pn))


@dataclass(frozen=True)
class JacobiSumRecord:
    """One Jacobi sum with its measured and predicted valuations.

    c_j is the digit-formula prediction, present for 1 <= j <= k-1
    where the formula is stated; the match flag compares it to the
    valuation actually measured in the ring.
    """

    j: int
    alpha: tuple
    valuation: int
    c_j: int | None

    @property
    def matches(self) -> bool:
        return self.c_j is not None and self.valuation == self.c_j

    def to_json_obj(self):
        obj = {
            "j": str(self.j),
            "alpha": [str(self.alpha[0]), str(self.alpha[1])],
            "valuation": str(self.valuation),
        }
        if self.c_j is not None:
            obj["c"] = str(self.c_j)
            obj["match"] = self.matches
        return obj


def jacobi_sum(j: int, ring: TruncatedUnramifiedRing, table=None) -> JacobiSumRecord:
    """alpha_j = sum over x != 0, 1 of tau^(-j)(x) tau^k(1-x).

    tau is the Teichmuller character; characters take the value 0 at 0
    by convention, which the identity alpha_j alpha_{j+k} = p^2
    validates.  Raises PrecisionExhausted if the sum vanishes to
    working precision.  A table given must equal ring.character_table,
    which is read when none is.
    """
    q = ring.q
    k = (q - 1) // 2
    if not 1 <= j <= 2 * k - 1:
        raise ValueError("index must lie in 1..2k-1")
    if table is None:
        table = ring.character_table
    lx, lo = ring.jacobi_logs
    # rows (a, b) of tau^(-j)(x) and (c, d) of tau^k(1 - x): the sums of
    # ac, ad, bc and bd over the q - 2 values of x are one product of
    # entries below p^N, so q p^(2N) bounds it; t^2 = -c0 - c1 t then
    # combines them in Python ints
    (ac, ad), (bc, bd) = matmul(table[-j * lx % (q - 1)].T, table[lo], q * ring.pn**2).tolist()
    c0, c1, _ = ring.modulus
    total = ((ac - bd * c0) % ring.pn, (ad + bc - bd * c1) % ring.pn)
    val = ring.valuation(total)
    cj = c_of_j(j, ring.p) if 1 <= j <= k - 1 else None
    return JacobiSumRecord(j=j, alpha=total, valuation=val, c_j=cj)


def digit_sum(j: int, p: int) -> int:
    """Sum of the two base-p digits of j mod p^2."""
    a, b = divmod(j % (p * p), p)
    return a + b


def c_of_j(j: int, p: int) -> int:
    """(s(j) + s(k) - s(j+k)) / (p-1) for k = (p^2-1)/2; always 0 or 1."""
    k = (p * p - 1) // 2
    if not 1 <= j <= k - 1:
        raise ValueError("index must lie in 1..k-1")
    num = digit_sum(j, p) + digit_sum(k, p) - digit_sum(j + k, p)
    c, rem = divmod(num, p - 1)
    if rem or c not in (0, 1):
        raise CertificateError("carry count %d at j = %d is not 0 or p - 1" % (num, j))
    return c


def count_cases(p: int):
    """Tally of c(j) = 0 versus c(j) = 1 over 1 <= j <= k-1."""
    k = (p * p - 1) // 2
    c1 = sum(c_of_j(j, p) for j in range(1, k))
    return (k - 1) - c1, c1
