"""Binary quadratic forms and exact unit representation.

A form (a, b, c) stands for f(x, y) = a x^2 + b xy + c y^2.  The one
question asked here is whether f represents +1 or -1, answered exactly
with either an integer witness or a named proof of impossibility:

* definite-minimum: definite forms attain their minimum |a| after
  reduction, so a reduced |a| >= 2 excludes units;
* cycle-exclusion: for indefinite non-square discriminant, every value
  m with 4 m^2 < D represented by f appears as a leading coefficient
  in the rho-cycle of the reduced form (1 qualifies since D >= 5);
* factor-system: a square (or zero) discriminant gives f a primitive
  zero (u, v); moving it to (1, 0) by SL_2(Z) splits f as y (b x + c y),
  which is a unit only at y = ±1 with the linear factor ±1.

All substitutions are tracked as GL_2(Z) matrices so witnesses can be
pulled back to the original variables and re-verified by evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

from .linalg import xgcd
from .matrix import CertificateError

_REDUCTION_STEPS = 10000
_CYCLE_STEPS = 200000


class FormBudget(RuntimeError):
    """The rho reduction or cycle walk passed its step cap."""


@dataclass(frozen=True)
class BinaryQuadraticForm:
    a: int
    b: int
    c: int

    @property
    def discriminant(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    def evaluate(self, x: int, y: int) -> int:
        return self.a * x * x + self.b * x * y + self.c * y * y

    @property
    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0 and self.c == 0

    def transformed(self, m) -> "BinaryQuadraticForm":
        """The form f((x,y)·M) for M = ((p,q),(r,s)) acting on column vectors."""
        (p, q), (r, s) = m
        a = self.evaluate(p, r)
        c = self.evaluate(q, s)
        b = 2 * self.a * p * q + self.b * (p * s + q * r) + 2 * self.c * r * s
        return BinaryQuadraticForm(a, b, c)

    def reduced(self):
        """Reduced equivalent of a definite form, with the transform.

        Returns (g, M) with g = f∘M, M in SL_2(Z), |b| <= a <= c for the
        positive-definite representative (the sign of a is preserved).
        """
        if self.discriminant >= 0:
            raise ValueError("reduction to |b| <= a <= c needs a definite form")
        sign = 1 if self.a > 0 else -1
        a, b, c = sign * self.a, sign * self.b, sign * self.c
        m = ((1, 0), (0, 1))
        while True:
            if c < a:
                a, b, c = c, -b, a
                m = _mat_mul(m, ((0, -1), (1, 0)))
                continue
            if b > a or b <= -a:
                t = (a - b) // (2 * a)  # shifts b into (-a, a]
                b2 = b + 2 * a * t
                c2 = a * t * t + b * t + c
                b, c = b2, c2
                m = _mat_mul(m, ((1, t), (0, 1)))
                continue
            if a == c and b < 0:
                a, b, c = c, -b, a
                m = _mat_mul(m, ((0, -1), (1, 0)))
                continue
            break
        return BinaryQuadraticForm(sign * a, sign * b, sign * c), m

    def to_json_obj(self):
        return {"a": str(self.a), "b": str(self.b), "c": str(self.c)}


@dataclass(frozen=True)
class UnitRepresentation:
    """Answer to 'does f represent +1 or -1', with evidence."""

    represents: bool
    witness: tuple | None = None
    value: int | None = None
    proof: str | None = None

    def to_json_obj(self):
        obj = {"represents": self.represents}
        if self.witness is not None:
            obj["witness"] = [str(self.witness[0]), str(self.witness[1])]
            obj["value"] = str(self.value)
        if self.proof is not None:
            obj["proof"] = self.proof
        return obj


def _mat_mul(m1, m2):
    (a, b), (c, d) = m1
    (e, f), (g, h) = m2
    return ((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h))


def _witness(form, x, y):
    v = form.evaluate(x, y)
    if v not in (1, -1):
        raise CertificateError("witness does not represent a unit")
    return UnitRepresentation(represents=True, witness=(x, y), value=v)


def _unit_by_factor_system(form: BinaryQuadraticForm):
    """Decide unit representation when the discriminant is a square e^2.

    f vanishes at the primitive vector (u, v): (1, 0) when a = 0, else
    (e - b, 2a) divided by its gcd.  Completing it to M in SL_2(Z) gives
    f∘M = Y (b'X + c'Y), a unit exactly when Y = ±1 and b'X + c'Y = ±1;
    f∘M(-X, -Y) = f∘M(X, Y), so Y = 1 and the two signs of the linear
    factor are the only candidates.
    """
    a, b = form.a, form.b
    d = form.discriminant
    e = isqrt(d) if d >= 0 else -1
    if e * e != d:
        raise ValueError("factor system needs a square discriminant")
    u, v = (1, 0) if a == 0 else (e - b, 2 * a)
    g, s, r = xgcd(u, v)
    m = ((u // g, -r), (v // g, s))
    split = form.transformed(m)
    if split.a:
        raise CertificateError("isotropic vector does not annihilate the form")
    for lin in (1, -1):
        x = (lin - split.c) // split.b if split.b else 0
        if split.b * x + split.c == lin:
            return _witness(form, m[0][0] * x + m[0][1], m[1][0] * x + m[1][1])
    return UnitRepresentation(represents=False, proof="factor-system")


def _rho(a: int, b: int, c: int, disc: int, e: int):
    """One reduction step for indefinite forms; returns (c, r, s, new_c).

    r is the unique residue of -b mod 2|c| in the window (e - 2|c|, e]
    when |c| <= e, else in (-|c|, |c|].
    """
    ac = abs(c)
    if ac > e:
        r = (-b) % (2 * ac)
        if r > ac:
            r -= 2 * ac
    else:
        r = (-b) % (2 * ac)
        shift = e - r
        r += (shift // (2 * ac)) * (2 * ac)
        if r > e:
            r -= 2 * ac
    s = (b + r) // (2 * c)
    new_c = (r * r - disc) // (4 * c)
    return c, r, s, new_c


def _is_reduced_indefinite(a: int, b: int, e: int) -> bool:
    return 0 < b <= e and 2 * abs(a) - b <= e < 2 * abs(a) + b


def _unit_by_cycle(form: BinaryQuadraticForm):
    """Indefinite non-square discriminant: walk the rho-cycle.

    Every m with |m| < sqrt(D)/2 represented by the form shows up as a
    leading coefficient of some form in the cycle; D >= 5 covers ±1.
    """
    disc = form.discriminant
    e = isqrt(disc)
    if disc <= 4 or e * e == disc:
        raise ValueError("cycle walk needs a non-square discriminant above 4")
    # a = 0 or c = 0 would force a square discriminant b^2
    a, b, c = form.a, form.b, form.c
    m = ((1, 0), (0, 1))
    steps = 0
    while not _is_reduced_indefinite(a, b, e):
        aa, r, s, cc = _rho(a, b, c, disc, e)
        m = _mat_mul(m, ((0, -1), (1, s)))
        a, b, c = aa, r, cc
        steps += 1
        if steps >= _REDUCTION_STEPS:
            raise FormBudget("reduction took %d steps" % steps)
    start = (a, b, c)
    while True:
        if a in (1, -1):
            x, y = m[0][0], m[1][0]
            return _witness(form, x, y)
        aa, r, s, cc = _rho(a, b, c, disc, e)
        m = _mat_mul(m, ((0, -1), (1, s)))
        a, b, c = aa, r, cc
        steps += 1
        if steps >= _CYCLE_STEPS:
            raise FormBudget("cycle walk took %d steps" % steps)
        if (a, b, c) == start:
            return UnitRepresentation(represents=False, proof="cycle-exclusion")


def bqf_represents_unit(form: BinaryQuadraticForm) -> UnitRepresentation:
    """Exact decision of whether the form represents +1 or -1.

    The zero form is rejected; everything else is decided with either a
    verified witness or a proof tag naming the exclusion argument.
    """
    if form.is_zero:
        raise ValueError("the zero form represents nothing")
    d = form.discriminant
    if d < 0:
        red, m = form.reduced()
        if abs(red.a) == 1:
            return _witness(form, m[0][0], m[1][0])
        return UnitRepresentation(represents=False, proof="definite-minimum")
    e = isqrt(d)
    if e * e == d:
        return _unit_by_factor_system(form)
    return _unit_by_cycle(form)
