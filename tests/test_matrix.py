"""IntMatrix products and the dtype bound behind them."""

import random
import re
from pathlib import Path

import numpy as np
import pytest

import zconj
from zconj.graphs import paley_idempotent_data
from zconj.matrix import IntMatrix, MatrixFormatError, int_dtype, matmul, max_abs, product_dtype
from zconj.modular import matmul_mod


def loop_product(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    cols = list(zip(*b.to_lists()))
    return IntMatrix([[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a.to_lists()])


def python_product(a, b):
    """a @ b over Python ints for 2-D integer arrays, as nested lists."""
    return loop_product(IntMatrix(a), IntMatrix(b)).to_lists()


def assert_integer_array(r):
    assert r.dtype == np.int64 or (r.dtype == object and all(type(v) is int for v in r.flat))


def operands(rng, shape_a, shape_b, bound):
    """Random integer arrays whose product has every partial sum within
    bound and reaches it: max |a| * max |b| * inner = bound up to rounding,
    with signed entries at the extremes."""
    k = shape_a[-1]
    mb = 5
    ma = bound // (mb * k)
    a = np.array([rng.randint(-ma, ma) for _ in range(np.prod(shape_a))], dtype=object).reshape(shape_a)
    b = np.array([rng.choice((-mb, mb, rng.randint(-mb, mb))) for _ in range(np.prod(shape_b))], dtype=object)
    b = b.reshape(shape_b)
    a.flat[0], a.flat[-1] = ma, -ma
    return a, b


@pytest.mark.parametrize("bound", [2**53 - 1, 2**53, 2**62 - 1, 2**62])
def test_matmul_exact_at_dtype_switches(bound):
    rng = random.Random(bound % 1000)
    for k in (1, 3, 7):
        a, b = operands(rng, (4, k), (k, 3), bound)
        # a row and column that meet every extreme entry: one partial sum
        # chain that reaches ma * mb * k
        ma, mb = max(abs(v) for v in a.flat), 5
        a[1, :], b[:, 2] = -ma, mb
        for dtype in (np.int64, object) if bound < 2**62 else (object,):
            r = matmul(a.astype(dtype), b.astype(dtype), bound)
            assert_integer_array(r)
            assert r.dtype == int_dtype(bound)
            assert r.tolist() == python_product(a, b)
        assert abs(r[1, 2]) == ma * mb * k


# (ma, mb, k, the product dtype) with ma mb k at each edge of
# product_dtype: 2^24 - 1, 2^24, 2^24 + 1, 2^53 - 1, 2^53, 2^53 + 1,
# 2^62 - 1, 2^62, 2^62 + 1
EDGES = [
    (4097, 1, 4095, np.float32),
    (2**12, 1, 2**12, np.float64),
    (673, 257, 97, np.float64),
    (441650591, 20394401, 1, np.float64),
    (2**26, 2**26, 2, np.int64),
    (321, 28059810762433, 1, np.int64),
    (2147483649, 2147483647, 1, np.int64),
    (2**30, 2**31, 2, object),
    (242243305, 19037413721, 1, object),
]


@pytest.mark.parametrize("ma, mb, k, dtype", EDGES)
def test_matmul_partial_sums_reach_the_bound(ma, mb, k, dtype):
    # every term is +-ma mb, so the partial sums climb to the bound
    # ma mb k itself, in exact arithmetic; at 2^24 + 1 and 2^53 + 1 the
    # next float tier down would round the sum
    bound = ma * mb * k
    assert product_dtype(bound) is dtype
    a = np.full((2, k), ma, dtype=np.int64)
    b = np.full((k, 3), mb, dtype=np.int64)
    a[1] = -ma
    r = matmul(a, b, bound)
    assert_integer_array(r)
    assert r.dtype == int_dtype(bound)
    assert r.tolist() == (a.astype(object) @ b.astype(object)).tolist()
    assert r[0, 0] == bound and r[1, 2] == -bound
    for limit, lower in ((2**24, np.float32), (2**53, np.float64)):
        if bound == limit + 1:
            assert int((a.astype(lower) @ b.astype(lower))[0, 0]) != bound


def test_matmul_converts_float_operands_before_python_ints():
    # a float32 or float64 operand at a bound past 2^62 becomes int64 and
    # then Python ints, never Python floats, which would round 3 (2^61 + 1)
    big = np.array([[2**61 + 1, 1]], dtype=object).T
    for dtype in (np.float32, np.float64):
        a = np.array([[3, 0], [1, 2]], dtype=dtype)
        r = matmul(a, big, 3 * (2**61 + 1) * 2)
        assert_integer_array(r)
        assert r.tolist() == [[3 * (2**61 + 1)], [2**61 + 3]]
        assert matmul(big.T, a, 3 * (2**61 + 1) * 2).tolist() == [[3 * (2**61 + 1) + 1, 2]]


def test_matmul_float32_tier_at_lemma_scale():
    # verify_smith_lemma(19)'s E E, 361 x 361 with |E| <= 180, against
    # numpy's int64 product: the bound 180^2 361 is below 2^24
    data = paley_idempotent_data(19)
    for e in (data.E2, data.E3, data.E2star, data.E3star):
        e = e.array
        bound = max_abs(e) ** 2 * len(e)
        assert product_dtype(bound) is np.float32
        r = matmul(e, e, bound)
        assert r.dtype == np.int64
        assert (r == e @ e).all()


def test_matmul_stacked_operands():
    rng = random.Random(5)
    for bound in (2**53 - 1, 2**53, 2**62):
        dtype = int_dtype(bound)
        a, b = operands(rng, (2, 3, 4), (2, 4, 5), bound)
        r = matmul(a.astype(dtype), b.astype(dtype), bound)
        assert_integer_array(r)
        assert r.shape == (2, 3, 5)
        assert [s.tolist() for s in r] == [python_product(a[i], b[i]) for i in range(2)]
        left = matmul(a.astype(dtype), b[0].astype(dtype), bound)
        right = matmul(a[0].astype(dtype), b.astype(dtype), bound)
        assert [s.tolist() for s in left] == [python_product(a[i], b[0]) for i in range(2)]
        assert [s.tolist() for s in right] == [python_product(a[0], b[i]) for i in range(2)]


def test_matmul_mod_either_side_of_float_limit():
    q = 2**25 - 39
    rng = random.Random(7)
    for k in (8, 9):  # q^2 * 8 < 2^53 <= q^2 * 9
        assert (q * q * k < 2**53) == (k == 8)
        a = np.array([[rng.randrange(q) for _ in range(k)] for _ in range(3)], dtype=np.int64)
        b = np.array([[rng.randrange(q) for _ in range(2)] for _ in range(k)], dtype=np.int64)
        a[0], b[:, 0] = q - 1, q - 1
        r = matmul_mod(a, b, q)
        assert_integer_array(r)
        assert r.tolist() == [[v % q for v in row] for row in python_product(a, b)]


def test_one_float_rule():
    # the float32- and float64-exact limits of the product kernel are
    # stated in matrix.py alone; any other exact product must call
    # matrix.matmul.  A byte count (a name ending in _BYTES) is no limit
    pattern = re.compile(r"(1\s*<<|2\s*\*\*)\s*(24|53)\b")
    hits = [
        (path.name, line)
        for path in sorted(Path(zconj.__file__).parent.glob("*.py"))
        for line in path.read_text().splitlines()
        if pattern.search(line) and not re.match(r"\s*\w+_BYTES\s*=", line)
    ]
    assert [name for name, _ in hits] == ["matrix.py", "matrix.py"], hits


def test_int_dtype_bound():
    assert int_dtype(2**62 - 1) is np.int64
    assert int_dtype(0, 2**62) is object


def test_product_exact_past_int64():
    # a zero factor once made the product bound 0 and sent 2^70 to int64
    big = IntMatrix([[2**70, 1], [1, 1]])
    zero = IntMatrix([[0, 0], [0, 0]])
    assert zero * big == zero
    assert big * zero == zero
    rng = random.Random(23)
    for bits in (10, 29, 30, 31, 32, 61, 62, 90):
        for n in (1, 3, 6):
            a, b = (
                IntMatrix([[rng.randint(-(2**bits), 2**bits) for _ in range(n)] for _ in range(n)])
                for _ in range(2)
            )
            assert a * b == loop_product(a, b)
    # an object array whose entries fit int64 equals and hashes like it
    one = IntMatrix(np.array([[2**62]], dtype=object) - np.array([[2**62 - 1]], dtype=object))
    assert one == IntMatrix([[1]]) and hash(one) == hash(IntMatrix([[1]]))
    assert one.array.dtype == np.int64
    with pytest.raises(ValueError):
        one.array[0, 0] = 2


def test_constructor_rejects_non_integers():
    for rows in ([[1.5, 2.9]], [["7", "-3"]], np.array([[1.0, 2.0]]), np.array([["1"]]), [[1, None]]):
        with pytest.raises(MatrixFormatError):
            IntMatrix(rows)
    for rows in ([[1, 2], [3]], [[]], [], [1, 2]):
        with pytest.raises(MatrixFormatError):
            IntMatrix(rows)
    assert IntMatrix([[np.int64(3), 2**70]]).to_lists() == [[3, 2**70]]
