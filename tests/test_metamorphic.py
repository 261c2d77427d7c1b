"""Metamorphic relations of decide.

Each relation rewrites a pair into one that is conjugate exactly when
the original is: swapping the two sides, transposing both, shifting
both by kI, negating both, and conjugating either side by a random
element of SL_n(Z).  The rewritten pair must get the same status, and
every certificate it gets must verify for the rewritten matrices.  The
pairs have nontrivial glue: [[aI_k, N], [0, bI_k]] hidden by a random
conjugation, against a hidden copy or against a glue block of another
Smith type modulo every prime power of b - a, which no conjugation can
reach.  A third kind takes the swapped route: the exponent assumption
fails for x and holds for y, whose glue block is b - a times another.
A fourth pairs glue blocks of one Smith type whose determinant classes
modulo b - a differ, which only the glue invariant tells apart.  Pairs
with two eigenvalues are decided by the glue route before any local
test, so at k = 1 the first and third kinds get the eigenvalue a - 1
besides, as do some k = 2 pairs of the first kind, and a fifth kind has
three eigenvalues throughout: they reach the theorem, the local
obstructions and the swapped route.
"""

import random
from math import gcd

import numpy as np
from helpers import det_small, gcd_minor_invariants, obj, random_sl, unimodular_inverse, upper_triangular

from zconj.conjugacy import decide, verify_conjugator
from zconj.matrix import IntMatrix
from zconj.spectral import check_assumption

GAPS = (2, 3, 4, 6, 9, 25)


def prime_powers(d: int):
    out, p = [], 2
    while d > 1:
        if d % p == 0:
            q = 1
            while d % p == 0:
                d //= p
                q *= p
            out.append(q)
        p += 1
    return out


def smith_type(block, q: int):
    inv = list(gcd_minor_invariants(IntMatrix(block)))
    inv += [0] * (len(block) - len(inv))
    return tuple(gcd(d, q) for d in inv)


def glued(a: int, b: int, block) -> IntMatrix:
    """[[aI_r, N], [0, bI_s]] for the r x s glue block N."""
    r, s = len(block), len(block[0])
    top = [[a if i == j else 0 for j in range(r)] + list(block[i]) for i in range(r)]
    bottom = [[0] * r + [b if i == j else 0 for j in range(s)] for i in range(s)]
    return IntMatrix(top + bottom)


def third_eigenvalue(a: int, gap: int, block) -> IntMatrix:
    """glued(a, a + gap, block) with the eigenvalue a - 1 besides: a pair
    with two eigenvalues would take the glue route, and with a third one
    it takes the local tests.  The a - 1 eigenspace is a direct summand
    of both sides, so conjugacy is that of the glued parts."""
    rows = glued(a, a + gap, block).to_lists()
    return IntMatrix([row + [0] for row in rows] + [[0] * len(rows) + [a - 1]])


def shaped(a: int, gap: int, block) -> IntMatrix:
    """third_eigenvalue(a, gap, block) for a 1 x 1 block, glued(a, a + gap,
    block) otherwise."""
    return third_eigenvalue(a, gap, block) if len(block) == 1 else glued(a, a + gap, block)


def hide(m: IntMatrix, rng) -> IntMatrix:
    u = random_sl(m.nrows, rng)
    return u * m * unimodular_inverse(u)


def block_pairs(rng, k: int, shape=shaped, gaps=GAPS):
    """(x, y, conjugate) for each gap: a hidden copy and a pair of
    different Smith types, each side shape(a, gap, block)."""
    out = []
    for gap in gaps:
        a = rng.randint(-3, 3)

        def block():
            return [[rng.randint(-3, 3) for _ in range(k)] for _ in range(k)]

        n_block = block()
        x = shape(a, gap, n_block)
        out.append((hide(x, rng), hide(x, rng), True))
        while True:
            m_block = block()
            if all(smith_type(m_block, q) != smith_type(n_block, q) for q in prime_powers(gap)):
                break
        out.append((hide(x, rng), hide(shape(a, gap, m_block), rng), False))
    return out


def swapped_pairs(rng, k: int):
    """(x, y) for each gap: a glue block for which the exponent assumption
    fails, against gap times another block, for which it holds."""
    out = []
    for gap in GAPS:
        a = rng.randint(-3, 3)

        def block(scale):
            return [[scale * rng.randint(-3, 3) for _ in range(k)] for _ in range(k)]

        x = shaped(a, gap, block(1))
        while check_assumption(x).holds:
            x = shaped(a, gap, block(1))
        out.append((hide(x, rng), hide(shaped(a, gap, block(gap)), rng)))
    return out


def class_pairs(rng, k: int):
    """(x, y) for each gap with a unit c != +-1: glue blocks N and N
    diag(c, 1, ...) of one Smith type, whose determinant classes +-det
    N and +-c det N modulo the gap differ, so every local test passes
    and no conjugation reaches one from the other."""
    out = []
    for gap in GAPS:
        units = [c for c in range(2, gap - 1) if gcd(c, gap) == 1]
        if k == 1 or not units:
            continue
        a, c = rng.randint(-3, 3), rng.choice(units)
        n_block = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(k)]
        while gcd(det_small(n_block), gap) != 1:
            n_block = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(k)]
        m_block = [[v * (c if j == 0 else 1) for j, v in enumerate(row)] for row in n_block]
        out.append((hide(glued(a, a + gap, n_block), rng), hide(glued(a, a + gap, m_block), rng)))
    return out


def three_eigenvalue_pairs(rng, draws: int):
    """(x, y, conjugate) for each draw: an upper-triangular matrix with
    eigenvalues a, a + g1 and a - g2, each once or twice, and entries in
    [-3, 3] between distinct eigenvalues, against a hidden copy (True)
    and against another such matrix with the same diagonal (None)."""
    out = []
    for _ in range(draws):
        a = rng.randint(-3, 3)
        eig = (a, a + rng.choice((2, 3, 4, 6)), a - rng.choice((2, 3, 5)))
        diag = [e for e in eig for _ in range(rng.randint(1, 2))]
        x = upper_triangular(diag, rng)
        out.append((hide(x, rng), hide(x, rng), True))
        out.append((hide(x, rng), hide(upper_triangular(diag, rng), rng), None))
    return out


def relations(x: IntMatrix, y: IntMatrix, rng):
    n = x.nrows
    shift = np.eye(n, dtype=object) * rng.choice((-5, -1, 2, 7))
    xo, yo = obj(x), obj(y)
    return {
        "swap": (y, x),
        "transpose": (IntMatrix(xo.T), IntMatrix(yo.T)),
        "shift": (IntMatrix(xo + shift), IntMatrix(yo + shift)),
        "negate": (IntMatrix(-xo), IntMatrix(-yo)),
        "conjugate-x": (hide(x, rng), y),
        "conjugate-y": (x, hide(y, rng)),
    }


def check_certificates(v, x: IntMatrix, y: IntMatrix):
    if v.conjugator is not None:
        assert verify_conjugator(v.conjugator, x, y)
    for lv in v.local:
        if lv.certificate is not None:
            assert lv.status == "PASS"
            assert verify_conjugator(lv.certificate, x, y, prime=lv.prime)
    if v.bqf_proof is not None and v.bqf_proof.represents:
        assert v.bqf.evaluate(*v.bqf_proof.witness) in (1, -1)


def test_metamorphic_relations_keep_status_and_certificates():
    rng = random.Random(41)
    routes, methods = set(), set()
    # 3 x 3 pairs have lattices of rank 3, walked class by class at every
    # base they meet; 5 x 5 ones with a 2 x 2 block have rank 9, and at 3
    # the 3^9 classes exceed 4,096, so random draws come first
    for k, shape, gaps in ((1, shaped, GAPS), (2, shaped, GAPS), (2, third_eigenvalue, (2, 3))):
        for x, y, conjugate in block_pairs(rng, k, shape, gaps):
            base = decide(x, y, search_dim_cap=0)
            check_certificates(base, x, y)
            if conjugate:
                assert base.status != "NOT_CONJUGATE"
            else:
                assert base.status == "NOT_CONJUGATE"
            for name, (x2, y2) in relations(x, y, rng).items():
                v = decide(x2, y2, search_dim_cap=0)
                assert v.status == base.status, (name, k, base.reason, v.reason)
                check_certificates(v, x2, y2)
                routes.add(v.reason)
                methods.update(lv.method for lv in v.local if lv.status == "PASS")
            routes.add(base.reason)
            methods.update(lv.method for lv in base.local if lv.status == "PASS")
    assert {"theorem+local-passes", "local-obstruction"} <= routes
    assert {"closed-form", "sampled"} <= methods


def test_class_obstructed_pairs_stay_apart():
    # the glue invariant is the only obstruction: every relation keeps
    # NOT_CONJUGATE, with every certificate valid
    rng = random.Random(47)
    for k in (2, 3):
        for x, y in class_pairs(rng, k):
            v = decide(x, y, search_dim_cap=0)
            assert (v.status, v.reason) == ("NOT_CONJUGATE", "glue-invariant")
            assert all(lv.status == "PASS" for lv in v.local)
            check_certificates(v, x, y)
            for name, (x2, y2) in relations(x, y, rng).items():
                v2 = decide(x2, y2, search_dim_cap=0)
                assert (v2.status, v2.reason) == ("NOT_CONJUGATE", "glue-invariant"), (name, k, v2.reason)
                check_certificates(v2, x2, y2)


def test_swapped_route_on_random_pairs():
    # only y meets the exponent assumption, so the pair is not conjugate.
    # At k = 1, with the third eigenvalue, a local test finds the
    # obstruction; at k = 2 the glue invariants differ, and the route
    # decides before any assumption check
    rng = random.Random(43)
    for k in (1, 2):
        for x, y in swapped_pairs(rng, k):
            assert not check_assumption(x).holds and check_assumption(y).holds
            v = decide(x, y, search_dim_cap=0)
            if k == 1:
                assert (v.status, v.reason, v.swapped) == ("NOT_CONJUGATE", "local-obstruction", True)
            else:
                assert (v.status, v.reason, v.swapped) == ("NOT_CONJUGATE", "glue-invariant", False)
            check_certificates(v, x, y)
            for name, (x2, y2) in relations(x, y, rng).items():
                v2 = decide(x2, y2, search_dim_cap=0)
                assert v2.status == "NOT_CONJUGATE", (name, k, v2.reason)
                check_certificates(v2, x2, y2)


def test_three_eigenvalue_pairs_never_contradict():
    # the search may miss a conjugator that a rewritten pair's search
    # finds, so a relation can turn CONJUGATE into UNKNOWN and back; two
    # decided verdicts must agree, and every certificate must verify
    rng = random.Random(71)
    routes, swapped = set(), False
    for x, y, conjugate in three_eigenvalue_pairs(rng, 30):
        base = decide(x, y, search_dim_cap=0, search_budget=2000)
        check_certificates(base, x, y)
        if conjugate:
            assert base.status != "NOT_CONJUGATE"
        for name, (x2, y2) in relations(x, y, rng).items():
            v = decide(x2, y2, search_dim_cap=0, search_budget=2000)
            assert "UNKNOWN" in (v.status, base.status) or v.status == base.status, (name, base.reason, v.reason)
            check_certificates(v, x2, y2)
            routes.add(v.reason)
            swapped |= v.swapped
        routes.add(base.reason)
        swapped |= base.swapped
    assert {"theorem+local-passes", "local-obstruction"} <= routes and swapped
