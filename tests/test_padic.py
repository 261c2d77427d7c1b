"""Truncated unramified arithmetic, Teichmuller lifts, Jacobi sums."""

import random

import pytest

from helpers import jacobi_sum_per_x
from zconj.padic import (
    PrecisionExhausted,
    TruncatedUnramifiedRing,
    ZeroInput,
    _character_table,
    c_of_j,
    count_cases,
    digit_sum,
    jacobi_sum,
    teichmuller,
)


def test_digit_sum():
    assert digit_sum(0, 7) == 0
    assert digit_sum(24, 7) == 6  # 24 = 3*7 + 3
    assert digit_sum(25, 7) == 7
    assert digit_sum(25 + 49, 7) == 7  # argument reduced mod p^2


def test_c_of_j():
    assert c_of_j(1, 7) == 0
    assert c_of_j(4, 7) == 1
    assert c_of_j(1, 3) == 0
    for p in (3, 7, 11):
        k = (p * p - 1) // 2
        for j in range(1, k):
            assert c_of_j(j, p) in (0, 1)


def test_count_cases():
    assert count_cases(3) == (2, 1)
    assert count_cases(7) == (14, 9)
    assert count_cases(11) == (34, 25)
    for p in (3, 7, 11, 19, 23):
        zeros, ones = count_cases(p)
        assert zeros == ((p + 1) // 2) ** 2 - 2
        assert ones == ((p - 1) // 2) ** 2
        assert zeros + ones == (p * p - 1) // 2 - 1


def test_ring_construction():
    ring = TruncatedUnramifiedRing(7)
    assert ring.pn == 7**4
    assert ring.modulus[2] == 1
    # reduces to the residue field modulus
    assert tuple(v % 7 for v in ring.modulus) == ring.field.modulus


def test_teichmuller_defining_properties():
    ring = TruncatedUnramifiedRing(7)
    assert teichmuller(1, ring) == ring.one
    for x in range(1, ring.q):
        w = teichmuller(x, ring)
        assert ring.pow(w, ring.q - 1) == ring.one
        assert ring.reduce_mod_p(w) == x


def test_teichmuller_zero_rejected():
    ring = TruncatedUnramifiedRing(7)
    with pytest.raises(ZeroInput):
        teichmuller(0, ring)


def test_teichmuller_multiplicative():
    ring = TruncatedUnramifiedRing(7)
    rng = random.Random(11)
    for _ in range(60):
        a = rng.randrange(1, ring.q)
        b = rng.randrange(1, ring.q)
        ab = ring.field.mul(a, b)
        assert ring.mul(teichmuller(a, ring), teichmuller(b, ring)) == teichmuller(
            ab, ring
        )


def test_teichmuller_lift_independent():
    # iterating q-th powers from any lift of x converges to the same
    # representative
    ring = TruncatedUnramifiedRing(7)
    rng = random.Random(5)
    for x in (3, 10, 46):
        za, zb = ring.lift(x)
        z = (
            (za + 7 * rng.randrange(343)) % ring.pn,
            (zb + 7 * rng.randrange(343)) % ring.pn,
        )
        for _ in range(ring.precision + 2):
            z = ring.pow(z, ring.q)
        assert z == teichmuller(x, ring)


def test_valuation_of_zero_exhausts_precision():
    ring = TruncatedUnramifiedRing(7)
    with pytest.raises(PrecisionExhausted):
        ring.valuation(ring.zero)


def test_ring_rejects_precision_below_one():
    for precision in (0, -2):
        with pytest.raises(ValueError, match="precision must be at least 1"):
            TruncatedUnramifiedRing(7, precision=precision)


def jacobi_records(p):
    ring = TruncatedUnramifiedRing(p)
    k = (ring.q - 1) // 2
    return ring, k, {j: jacobi_sum(j, ring) for j in range(1, 2 * k)}


def test_jacobi_small_prime():
    ring, k, records = jacobi_records(3)
    p2 = ring.element(9, 0)
    for j in range(1, k):
        assert ring.mul(records[j].alpha, records[j + k].alpha) == p2
        assert records[j].valuation + records[j + k].valuation == 2
        assert records[j].valuation == c_of_j(j, 3)
        assert records[j].matches


def test_jacobi_mid_prime():
    ring, k, records = jacobi_records(7)
    p2 = ring.element(49, 0)
    for j in range(1, k):
        assert ring.mul(records[j].alpha, records[j + k].alpha) == p2
        assert records[j].valuation == c_of_j(j, 7)
    assert records[1].valuation == 0
    assert records[4].valuation == 1


def test_jacobi_larger_prime():
    ring, k, records = jacobi_records(11)
    p2 = ring.element(121, 0)
    for j in range(1, k):
        assert ring.mul(records[j].alpha, records[j + k].alpha) == p2
        assert records[j].valuation == c_of_j(j, 11)


def test_record_json_shape():
    ring, _, records = jacobi_records(7)
    obj = records[4].to_json_obj()
    assert obj == {
        "j": "4",
        "alpha": [str(records[4].alpha[0]), str(records[4].alpha[1])],
        "valuation": "1",
        "c": "1",
        "match": True,
    }


def test_jacobi_matches_per_x_sum():
    for p in (3, 7, 11):
        ring, k, records = jacobi_records(p)
        table = _character_table(ring)
        for j in range(1, 2 * k):
            alpha, valuation = jacobi_sum_per_x(j, ring, table)
            assert (records[j].alpha, records[j].valuation) == (alpha, valuation)
            assert records[j].c_j == (c_of_j(j, p) if j < k else None)


def test_jacobi_sum_defaults_to_the_ring_table():
    # without a table jacobi_sum reads the ring's cached character table,
    # which is _character_table of the ring
    for p in (3, 7):
        ring, k, records = jacobi_records(p)
        table = _character_table(ring)
        assert (TruncatedUnramifiedRing(p).character_table == table).all()
        assert all(jacobi_sum(j, ring, table=table) == records[j] for j in range(1, 2 * k))
        assert ring.character_table is ring.character_table


def test_jacobi_index_bounds():
    ring = TruncatedUnramifiedRing(7)
    k = (ring.q - 1) // 2
    for bad in (0, 2 * k):
        with pytest.raises(ValueError):
            jacobi_sum(bad, ring)


@pytest.mark.parametrize("p", (7, 11))
def test_jacobi_logs_match_python(p):
    # log x and k log(1 - x) mod q - 1 over x = 2..q-1, with 1 - x read
    # digit by digit from FieldSpec.coeffs
    ring = TruncatedUnramifiedRing(p)
    field, q = ring.field, ring.q
    lx, lo = ring.jacobi_logs
    onemx = [field._index(tuple((a - b) % p for a, b in zip(field.coeffs(1), field.coeffs(x)))) for x in range(2, q)]
    assert lx.tolist() == [field.log[x] for x in range(2, q)]
    assert lo.tolist() == [(q - 1) // 2 * field.log[y] % (q - 1) for y in onemx]
