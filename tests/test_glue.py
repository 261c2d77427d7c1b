"""Split pairs with two eigenvalues: the glue invariant and the built conjugator.

X with eigenvalues a < b (multiplicities r, s) is conjugate over Z to
[[aI_r, N], [0, bI_s]], and two such are conjugate exactly when M = P N
R^-1 (mod b - a) for P and R of determinant +-1.  The invariant of
conjugacy._glue_invariant is checked against a brute-force enumeration of
those orbits (helpers.glue_orbits) and its class against the Smith
invariants of N over Z; the conjugators of conjugacy._glue_route against
verify_conjugator.
"""

import random
from math import gcd, prod

from helpers import gcd_minor_invariants, glue_orbits, hidden, random_sl
from test_conjugacy import decide_in_subprocess
from test_metamorphic import glued

from zconj import IntMatrix, conjugacy, decide, split_spectrum, verify_conjugator
from zconj.conjugacy import _glue_invariant, _glue_route
from zconj.modular import smith_mod

# (r, s, d) small enough to enumerate every r x s matrix mod d
ORBIT_CASES = [(1, 1, 5), (1, 1, 12), (1, 2, 6), (2, 1, 4)] + [(2, 2, d) for d in range(2, 10)]


def invariant(block, d):
    g, _, _, _, _, det_u = smith_mod(block, d)
    return _glue_invariant(0, d, len(block), len(block[0]), g, det_u)


def unflat(v, r, s):
    return [list(v[i * s : (i + 1) * s]) for i in range(r)]


def route(x, y):
    return _glue_route(x, y, split_spectrum(x), split_spectrum(y))


def test_glue_invariant_separates_the_orbits():
    # constant on every orbit of N -> P N R^-1 (mod d), different on different ones
    for r, s, d in ORBIT_CASES:
        by_root = {}
        for v, root in glue_orbits(r, s, d).items():
            by_root.setdefault(root, set()).add(invariant(unflat(v, r, s), d))
        assert all(len(invs) == 1 for invs in by_root.values()), (r, s, d)
        assert len(set().union(*by_root.values())) == len(by_root), (r, s, d)


def test_glue_class_is_the_product_of_smith_quotients():
    # g_i = gcd(e_i, d), and the class is +-prod e_i/g_i mod d/g_t, for the
    # Smith invariants e_i of N over Z padded with zeros
    rng = random.Random(53)
    for _ in range(300):
        r, s, d = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 30)
        block = [[rng.randint(-6, 6) for _ in range(s)] for _ in range(r)]
        t = min(r, s)
        e = (list(gcd_minor_invariants(IntMatrix(block))) + [0] * t)[:t]
        _, _, _, _, g, cls = invariant(block, d)
        assert g == tuple(gcd(v, d) for v in e)
        if r == s and g[-1] < d:
            m = d // g[-1]
            c = prod(v // gcd(v, d) for v in e) % m
            assert cls == min(c, m - c)
        else:
            assert cls is None


def test_glue_route_agrees_with_the_orbits():
    # random hidden pairs: a certified T exactly when the blocks share an orbit
    rng = random.Random(61)
    seen = set()
    for r, s, d in ORBIT_CASES:
        orbits = glue_orbits(r, s, d)
        for _ in range(6):
            n_block, m_block = ([[rng.randint(-d, d) for _ in range(s)] for _ in range(r)] for _ in "nm")
            a = rng.randint(-3, 3)
            x, y = hidden(glued(a, a + d, n_block), rng), hidden(glued(a, a + d, m_block), rng)
            t, invariants = route(x, y)
            same = orbits[tuple(v % d for row in n_block for v in row)] == orbits[
                tuple(v % d for row in m_block for v in row)
            ]
            assert (t is not None) == same, (r, s, d, n_block, m_block)
            if same:
                assert verify_conjugator(t, x, y)
            else:
                assert invariants[0] != invariants[1]
            seen.add(same)
    assert seen == {True, False}


def random_gl(n, rng):
    u = random_sl(n, rng).to_lists()
    if rng.random() < 0.5:
        u[0] = [-v for v in u[0]]
    return IntMatrix(u)


def test_glue_route_builds_certified_conjugators():
    # M = P N R + d K with det P, det R = +-1: equal invariants by construction.
    # d = 1, r != s, zero blocks and blocks with some g_i = d all occur
    rng = random.Random(59)
    kinds = set()
    for trial in range(60):
        r, s = rng.randint(1, 3), rng.randint(1, 3)
        d = rng.choice((1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 25))
        block = [[rng.randint(-4, 4) for _ in range(s)] for _ in range(r)]
        if trial % 4 == 1:
            block = [[0] * s for _ in range(r)]
        elif trial % 4 == 2:
            block[0] = [d * v for v in block[0]]
        m_block = (random_gl(r, rng) * IntMatrix(block) * random_gl(s, rng)).to_lists()
        m_block = [[v + d * rng.randint(-2, 2) for v in row] for row in m_block]
        a = rng.randint(-3, 3)
        x, y = hidden(glued(a, a + d, block), rng), hidden(glued(a, a + d, m_block), rng)
        t, _ = route(x, y)
        assert t is not None and verify_conjugator(t, x, y), (r, s, d, block, m_block)
        cases = {
            "d = 1": d == 1,
            "r != s": r != s,
            "zero block": not any(map(any, block)),
            "g_i = d": d > 1 and invariant(block, d)[4][-1] == d,
        }
        kinds.update(name for name, hit in cases.items() if hit)
    assert kinds == {"d = 1", "r != s", "zero block", "g_i = d"}


def test_class_obstructed_pairs_are_decided_at_once():
    # every local test passes and the assumption fails; before the route
    # the search ran to its budget and answered UNKNOWN after 37 s (4 x 4)
    # and 88 s (6 x 6).  The route runs before any local test, so the
    # invariants are the only certificate
    for k, gap in ((2, 5), (3, 7)):
        x = glued(0, gap, [[int(i == j) for j in range(k)] for i in range(k)])
        y = glued(0, gap, [[(2 if i == 0 else 1) * (i == j) for j in range(k)] for i in range(k)])
        v = decide_in_subprocess(x.to_lists(), y.to_lists(), timeout=10)
        assert (v["status"], v["reason"]) == ("NOT_CONJUGATE", "glue-invariant")
        assert list(v["certificates"]) == ["glue"]
        shape = {"a": "0", "b": str(gap), "r": str(k), "s": str(k), "g": ["1"] * k}
        glue = v["certificates"]["glue"]
        assert glue == {"x": dict(shape, **{"class": "1"}), "y": dict(shape, **{"class": "2"})}


def test_glue_invariant_without_a_class():
    # Smith types that differ only at a prime whose local test could not
    # exhaust (1031^8 classes): the route decides without one, and a type
    # with g_t = d has no class
    p = 1031
    x, y = glued(0, p, [[1, 0], [0, 1]]), glued(0, p, [[1, 0], [0, p]])
    v = decide(x, y, budget=64)
    assert (v.status, v.reason) == ("NOT_CONJUGATE", "glue-invariant")
    assert (v.local, v.assumption) == ((), None)
    glue = v.to_json_obj()["certificates"]["glue"]
    assert glue["x"] == {"a": "0", "b": "1031", "r": "2", "s": "2", "g": ["1", "1"], "class": "1"}
    assert glue["y"] == {"a": "0", "b": "1031", "r": "2", "s": "2", "g": ["1", "1031"]}


def test_two_eigenvalue_pairs_take_the_route_alone(monkeypatch):
    # the route decides from the eigenbases: no intertwiner lattice, no
    # assumption check and no local test, on the ROADMAP's pairs, on the
    # 2 x 2 pairs [[a, g], [0, b]] and the bundled counterexample-2
    # [[1, 2], [0, 6]] against [[1, 1], [0, 6]], and on hidden copies
    def refuse(*args, **kwargs):
        raise AssertionError("the glue route ran the lattice pipeline")

    for name in ("intertwiner_lattice", "check_assumption", "local_test"):
        monkeypatch.setattr(conjugacy, name, refuse)
    rng = random.Random(67)
    pairs = [
        (glued(0, gap, [[int(i == j) for j in range(k)] for i in range(k)]),
         glued(0, gap, [[(2 if i == 0 else 1) * (i == j) for j in range(k)] for i in range(k)]))
        for k, gap in ((2, 5), (3, 7))
    ]
    pairs.append((glued(1, 6, [[2]]), glued(1, 6, [[1]])))
    for _ in range(6):
        a, gap = rng.randint(-3, 3), rng.randint(1, 12)
        x = glued(a, a + gap, [[rng.randint(-6, 6)]])
        pairs.append((hidden(x, rng), hidden(glued(a, a + gap, [[rng.randint(-6, 6)]]), rng)))
    seen = set()
    for x, y in pairs:
        v = decide(x, y)
        conj, invariants = route(x, y)
        if conj is None:
            assert (v.status, v.reason, v.glue) == ("NOT_CONJUGATE", "glue-invariant", invariants)
        else:
            assert (v.status, v.reason, v.conjugator) == ("CONJUGATE", "explicit-conjugator", conj)
        seen.add(v.status)
        copy = hidden(x, rng)
        v = decide(x, copy)
        assert (v.status, v.reason, v.conjugator) == ("CONJUGATE", "explicit-conjugator", route(x, copy)[0])
        assert (v.local, v.assumption, v.swapped) == ((), None, False)
    assert seen == {"CONJUGATE", "NOT_CONJUGATE"}


def test_route_conjugators_stay_small():
    # 16 x 16 pairs, r = s = 8 and d = 25, with 3- and 4-digit entries.
    # kernel_basis's HNF rows grow with n: without reducing the
    # eigenbasis the built T had 771 and 429 digits here, with it 16 and
    # 15
    rng = random.Random(73)
    for _ in range(2):
        block = [[rng.randint(-3, 3) for _ in range(8)] for _ in range(8)]
        a = rng.randint(-3, 3)
        x0 = glued(a, a + 25, block)
        x, y = hidden(x0, rng, steps=40), hidden(x0, rng, steps=40)
        assert max(map(abs, x.array.flat)) >= 100
        t, _ = route(x, y)
        assert verify_conjugator(t, x, y)
        assert max(map(abs, t.array.flat)) < 10**20


def test_gaps_past_int64_get_certified_verdicts():
    # a gap b - a of 2^63 or more raised OverflowError where the int64
    # P N - M R met it; the difference is now held in Python ints there
    big = 2**63 + 5
    diag3 = [[0] * 3 for _ in range(3)]
    low, high = [row[:] for row in diag3], [row[:] for row in diag3]
    low[2][2] = high[0][0] = 2**64
    glue = glued(0, 2**64, [[1], [2]])
    pairs = [
        (IntMatrix([[big, 0], [0, 0]]), IntMatrix([[0, 0], [0, big]])),
        (IntMatrix(low), IntMatrix(high)),
        (glue, hidden(glue, random.Random(79))),
    ]
    for x, y in pairs:
        v = decide(x, y)
        assert (v.status, v.reason) == ("CONJUGATE", "explicit-conjugator")
        assert verify_conjugator(v.conjugator, x, y)
    v = decide(glued(0, big, [[1]]), glued(0, big, [[0]]))
    assert (v.status, v.reason) == ("NOT_CONJUGATE", "glue-invariant")
