"""IntMatrix products and the dtype bound behind them."""

import random

import numpy as np
import pytest

from zconj.matrix import IntMatrix, MatrixFormatError, int_dtype


def loop_product(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    cols = list(zip(*b.to_lists()))
    return IntMatrix([[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a.to_lists()])


def test_int_dtype_bound():
    assert int_dtype(2**62 - 1) is np.int64
    assert int_dtype(0, 2**62) is object


def test_product_exact_past_int64():
    # a zero factor once made the product bound 0 and sent 2^70 to int64
    big = IntMatrix([[2**70, 1], [1, 1]])
    zero = IntMatrix.zeros(2, 2)
    assert zero * big == zero
    assert big * zero == zero
    assert big * 0 == 0 * big == zero
    rng = random.Random(23)
    for bits in (10, 29, 30, 31, 32, 61, 62, 90):
        for n in (1, 3, 6):
            a, b = (
                IntMatrix([[rng.randint(-(2**bits), 2**bits) for _ in range(n)] for _ in range(n)])
                for _ in range(2)
            )
            assert a * b == loop_product(a, b)
            la, lb = a.to_lists(), b.to_lists()
            assert (a + b).to_lists() == [[x + y for x, y in zip(r, s)] for r, s in zip(la, lb)]
            assert (a - b).to_lists() == [[x - y for x, y in zip(r, s)] for r, s in zip(la, lb)]
            assert (-a).to_lists() == [[-x for x in r] for r in la]
            for c in (0, 3, -(2**40), 2**70):
                assert (a * c).to_lists() == (c * a).to_lists() == [[x * c for x in r] for r in la]
            assert a.transpose().to_lists() == [list(r) for r in zip(*la)]
            assert a.trace() == sum(la[i][i] for i in range(n))
    # entries near 2^61 whose sum passes 2^63
    assert IntMatrix.diagonal([2**61 + 5] * 6).trace() == 6 * (2**61 + 5)
    # a difference of object arrays that fits int64 equals and hashes like it
    one = IntMatrix([[2**62]]) - IntMatrix([[2**62 - 1]])
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
