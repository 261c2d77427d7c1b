"""IntMatrix products and the dtype bound behind them."""

import random
import re
from pathlib import Path

import numpy as np
import pytest

import zconj
from zconj.matrix import IntMatrix, MatrixFormatError, int_dtype, matmul
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
    # the float64-exact limit of the product kernel is stated in matrix.py
    # alone; any other exact product must call matrix.matmul
    pattern = re.compile(r"1\s*<<\s*53|2\s*\*\*\s*53")
    hits = [
        (path.name, line)
        for path in sorted(Path(zconj.__file__).parent.glob("*.py"))
        for line in path.read_text().splitlines()
        if pattern.search(line)
    ]
    assert [name for name, _ in hits] == ["matrix.py"], hits


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
