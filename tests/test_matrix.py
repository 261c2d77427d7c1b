"""IntMatrix products and the dtype bound behind them."""

import random

import numpy as np

from zconj.matrix import IntMatrix, int_dtype


def loop_product(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    cols = list(zip(*b.rows))
    return IntMatrix([[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a.rows])


def test_int_dtype_bound():
    assert int_dtype(2**62 - 1) is np.int64
    assert int_dtype(0, 2**62) is object


def test_product_exact_past_int64():
    # a zero factor once made the product bound 0 and sent 2^70 to int64
    big = IntMatrix([[2**70, 1], [1, 1]])
    zero = IntMatrix.zeros(2, 2)
    assert zero * big == zero
    assert big * zero == zero
    rng = random.Random(23)
    for bits in (10, 29, 30, 31, 32, 62, 90):
        for n in (1, 3, 6):
            a, b = (
                IntMatrix([[rng.randint(-(2**bits), 2**bits) for _ in range(n)] for _ in range(n)])
                for _ in range(2)
            )
            assert a * b == loop_product(a, b)
