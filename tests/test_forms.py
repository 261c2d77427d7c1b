"""Binary quadratic forms and unit representation certificates."""

import random
import time
from math import isqrt

from helpers import unit_by_divisors

from zconj.forms import BinaryQuadraticForm as Form
from zconj.forms import bqf_represents_unit


def test_definite_minimum_proof():
    r = bqf_represents_unit(Form(2, 0, 3))
    assert not r.represents
    assert r.proof == "definite-minimum"


def test_factor_system_proof():
    r = bqf_represents_unit(Form(2, 5, 0))
    assert not r.represents
    assert r.proof == "factor-system"


def test_factor_system_against_divisor_enumeration():
    # every square-discriminant form with coefficients in [-30, 30]
    checked = 0
    for a in range(-30, 31):
        for b in range(-30, 31):
            for c in range(-30, 31):
                d = b * b - 4 * a * c
                if d < 0 or isqrt(d) ** 2 != d or a == b == c == 0:
                    continue
                f = Form(a, b, c)
                rep = bqf_represents_unit(f)
                assert rep.represents == (unit_by_divisors(a, b, c) is not None)
                if rep.represents:
                    assert rep.proof is None
                    assert f.evaluate(*rep.witness) == rep.value in (1, -1)
                else:
                    assert rep.proof == "factor-system"
                checked += 1
    assert checked == 19592


def test_factor_system_is_not_trial_division():
    # 4|a| has no divisor below its square root to find by search
    a = 10**15 + 37
    t0 = time.monotonic()
    r = bqf_represents_unit(Form(a, 2 * a + 1, 0))
    assert time.monotonic() - t0 < 1.0
    assert not r.represents
    assert r.proof == "factor-system"


def test_cycle_exclusion_proof():
    r = bqf_represents_unit(Form(3, 0, -5))
    assert not r.represents
    assert r.proof == "cycle-exclusion"


def test_witnesses_verify():
    for coeffs in ((1, 0, -2), (0, 1, 0), (2, 0, -3), (-1, 0, 5), (1, 1, 1)):
        f = Form(*coeffs)
        r = bqf_represents_unit(f)
        assert r.represents
        assert f.evaluate(*r.witness) in (1, -1)


def test_reduction():
    red, m = Form(2, 0, 3).reduced()
    assert (red.a, red.b, red.c) == (2, 0, 3)
    rng = random.Random(11)
    for _ in range(150):
        a = rng.randint(1, 9)
        b = rng.randint(-9, 9)
        cmin = (b * b) // (4 * a) + 1
        c = rng.randint(cmin, cmin + 9)
        f = Form(a, b, c)
        assert f.discriminant < 0
        red, m = f.reduced()
        assert abs(red.b) <= red.a <= red.c
        assert red.discriminant == f.discriminant
        # the recorded transform carries f onto the reduced form
        for x in range(-3, 4):
            for y in range(-3, 4):
                assert f.transformed(m).evaluate(x, y) == red.evaluate(x, y)


def test_unit_representation_brute_force_oracle():
    rng = random.Random(23)
    bound = 40
    checked = 0
    for _ in range(1200):
        a, b, c = (rng.randint(-10, 10) for _ in range(3))
        if a == 0 and b == 0 and c == 0:
            continue
        f = Form(a, b, c)
        rep = bqf_represents_unit(f)
        found = None
        for x in range(-bound, bound + 1):
            for y in range(-bound, bound + 1):
                if f.evaluate(x, y) in (1, -1):
                    found = (x, y)
                    break
            if found:
                break
        if rep.represents:
            assert f.evaluate(*rep.witness) in (1, -1)
        else:
            # a verified non-representation certificate forbids any witness
            assert found is None
            assert rep.proof in ("definite-minimum", "cycle-exclusion", "factor-system")
        if found is not None:
            assert rep.represents
        checked += 1
    assert checked > 1000
