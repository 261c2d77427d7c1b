"""Seeded inputs for the benchmark workloads, with their ground truth.

Every decision pair carries the verdict its construction implies and,
when it is conjugate by construction, the conjugating matrix T with
T X T^-1 = Y.  Matrices are plain row tuples.  The random families are
built with the integer helpers below rather than with zconj, so their
ground truth does not depend on the code being measured; the 9- and
49-vertex graphs and the fixtures come from zconj's generators and
corpus, as a user would get them.  Round r of a workload depends only
on (seed, r): the same seed always gives the same inputs.  A run uses
rounds 0 to DISTINCT_ROUNDS - 1, repeated.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from math import gcd, isqrt

# Family parameter ranges, fixed before any timing.
DIAG_N = (2, 6)  # hidden diagonal-spectrum matrices: size range
DIAG_EIGEN = (-6, 6)  # eigenvalue range; 2 to 4 distinct values
NONSPLIT_AC = (1, 12)  # [[0,a],[-c,t]] vs [[0,1],[-ac,t]]: a, c range; t^2 < 4ac
SPLIT_EIGEN = (-6, 6)  # hidden [[a,g],[0,b]]: a != b in this range
SPLIT_GLUE = (-6, 6)  # g range
CHARPOLY_N = (2, 9)  # pairs whose traces differ by one: size range
CHARPOLY_ENTRY = 3  # |entry| bound of those matrices
# [[aI_k, N],[0, bI_k]] with k = 2 (lattice rank 8).  k = 1 is the
# split-2x2 family of mixed-small; a k = 3 pair takes 4 to 14 s, too
# uneven for a run of a few pairs.  Each round holds GLUE_COPIES pairs
# per (b - a, same/different).
GLUE_K = 2
GLUE_COPIES = 3
GLUE_GAPS = (2, 3, 4, 6)  # b - a; every unit mod these is +-1
GLUE_A = (-3, 3)  # a range
GLUE_ENTRY = 3  # |N_ij| bound
# verify_smith_lemma at four primes, Jacobi tables at three: seven
# operations a round, so the median is one operation (the p = 7 lemma)
# rather than the midpoint of two unlike ones
LEMMA_PRIMES = (3, 7, 11, 19)
JACOBI_PRIMES = (7, 11, 19)
JACOBI_PRECISION = 4

# one mixed-small round: four of each generated family, then the
# relabelled 9-vertex graph pair and the bundled fixtures
MIXED_FAMILIES = ("diagonal", "nonsplit-2x2", "split-2x2", "charpoly-differs")
MIXED_REPEAT = 4

# Distinct rounds of a run.  A run always executes these, then cycles
# through them again until its seconds are up, so the set of inputs and
# their outcomes (attempted, failed) depend on the seed alone, not on
# how fast the host is.  Each set takes 12 to 20 s on a 2-core host;
# mixed-small's keeps about as many split-2x2 pairs as a 20 s run
# drew before, so the known NotScaledIdempotent failures still show.
DISTINCT_ROUNDS = {"theorem-25": 4, "mixed-small": 40, "search-glue": 3, "lemma": 2, "theorem-49": 1}


@dataclass(frozen=True)
class Pair:
    """One decide(x, y) call and the verdict its construction implies."""

    family: str
    x: tuple
    y: tuple
    expected: str  # CONJUGATE | NOT_CONJUGATE
    conjugator: tuple | None = None  # T with T x = y T, det T = +-1
    primes: tuple | None = None  # primes that need a local PASS, when known


@dataclass(frozen=True)
class LemmaTask:
    """verify_smith_lemma(p), or the Jacobi valuation table at p."""

    family: str  # smith-lemma | jacobi-table
    p: int


# -- exact integer matrices as row tuples -------------------------------------


def freeze(rows):
    return tuple(tuple(int(v) for v in row) for row in rows)


def identity(n: int):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def matmul(a, b):
    bt = list(zip(*b))
    return [[sum(u * v for u, v in zip(row, col)) for col in bt] for row in a]


def transpose(a):
    return [list(col) for col in zip(*a)]


def _unit_lower_inverse(low):
    """Inverse of a unit lower-triangular integer matrix, by substitution."""
    n = len(low)
    inv = identity(n)
    for i in range(n):
        for j in range(i):
            if low[i][j]:
                inv[i] = [u - low[i][j] * v for u, v in zip(inv[i], inv[j])]
    return inv


def random_unimodular(n: int, rng: random.Random):
    """(S, S^-1) with S = L U, both unit triangular with entries in {-1,0,1}.

    Entries stay small, so hidden matrices have comparable sizes across
    seeds and the work per pair depends on its family, not on luck.
    """
    def unit_lower():
        return [[1 if i == j else (rng.choice((-1, 0, 1)) if j < i else 0) for j in range(n)] for i in range(n)]

    low = unit_lower()
    up_t = unit_lower()
    s = matmul(low, transpose(up_t))
    s_inv = matmul(transpose(_unit_lower_inverse(up_t)), _unit_lower_inverse(low))
    return s, s_inv


def random_shears(n: int, rng: random.Random, steps: int = 6):
    """(S, S^-1) for a product of random shears with factors in {+-1, +-2}.

    Entries grow faster than with random_unimodular; the hidden 2x2
    split family uses it so that its sizes match the randomized tests.
    """
    s = identity(n)
    s_inv = identity(n)
    for _ in range(steps):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        lam = rng.choice((-2, -1, 1, 2))
        s[i] = [u + lam * v for u, v in zip(s[i], s[j])]  # E s, E = I + lam e_ij
        for row in s_inv:  # s_inv E^-1
            row[j] -= lam * row[i]
    return s, s_inv


def permutation(perm):
    """Matrix P with P[i][perm[i]] = 1, so (P A P^t)[i][j] = A[perm i][perm j]."""
    n = len(perm)
    return [[int(perm[i] == j) for j in range(n)] for i in range(n)]


def relabel(a, perm):
    return [[a[perm[i]][perm[j]] for j in range(len(perm))] for i in range(len(perm))]


def _hide(m, rng, unimodular=random_unimodular):
    s, s_inv = unimodular(len(m), rng)
    return matmul(matmul(s, m), s_inv), s, s_inv


# -- mixed-small families -----------------------------------------------------


def _diagonal_pair(rng, j):
    """The j-th diagonal pair of a run.

    Its size and its number of distinct eigenvalues cycle through their
    ranges with j rather than being drawn: decide's time grows steeply
    with both (about 4 ms at n = 2, 15 to 280 ms at n = 6), and drawing
    them moved a run's work by several percent from seed to seed.  Over
    a run every size is equally frequent, and so is every count at a
    given size, as when they were drawn uniformly.
    """
    sizes = DIAG_N[1] - DIAG_N[0] + 1
    n = DIAG_N[0] + j % sizes
    distinct = 2 + (j // sizes) % (min(n, 4) - 1)
    vals = rng.sample(range(DIAG_EIGEN[0], DIAG_EIGEN[1] + 1), distinct)
    diag = vals + [rng.choice(vals) for _ in range(n - len(vals))]
    rng.shuffle(diag)
    d = [[diag[i] if i == j else 0 for j in range(n)] for i in range(n)]
    perm = list(range(n))
    rng.shuffle(perm)
    d2 = relabel(d, perm)  # Q d Q^t, the same spectrum in another order
    x, s1, s1_inv = _hide(d, rng)
    y, s2, _ = _hide(d2, rng)
    t = matmul(matmul(s2, permutation(perm)), s1_inv)
    return Pair("diagonal", freeze(x), freeze(y), "CONJUGATE", freeze(t))


def _nonsplit_pair(rng):
    """[[0,a],[-c,t]] vs [[0,1],[-ac,t]] with t^2 < 4ac.

    Every intertwiner is T = [[p, q], [-cq, ap + tq]] with det T =
    a p^2 + t p q + c q^2, a positive definite form, so the pair is
    conjugate exactly when that form takes the value 1, which can only
    happen inside the box searched here.
    """
    a = rng.randint(*NONSPLIT_AC)
    c = rng.randint(*NONSPLIT_AC)
    tmax = isqrt(4 * a * c - 1)
    t = rng.randint(-tmax, tmax)
    disc = 4 * a * c - t * t
    x = [[0, a], [-c, t]]
    y = [[0, 1], [-a * c, t]]
    pbound = isqrt(4 * c // disc) + 1
    qbound = isqrt(4 * a // disc) + 1
    for p in range(-pbound, pbound + 1):
        for q in range(-qbound, qbound + 1):
            if a * p * p + t * p * q + c * q * q == 1:
                conj = [[p, q], [-c * q, a * p + t * q]]
                return Pair("nonsplit-2x2", freeze(x), freeze(y), "CONJUGATE", freeze(conj))
    return Pair("nonsplit-2x2", freeze(x), freeze(y), "NOT_CONJUGATE")


def _split_pair(rng):
    """Hidden [[a,g],[0,b]] vs hidden [[a,g'],[0,b]].

    An integral intertwiner maps the a-eigenline to the a-eigenline, so
    it is upper triangular with +-1 on the diagonal, and the pair is
    conjugate exactly when g' = +-g (mod b - a).  Half of the pairs take
    g' = +-g + (b - a) w, the other half a free g'.
    """
    a, b = rng.sample(range(SPLIT_EIGEN[0], SPLIT_EIGEN[1] + 1), 2)
    d = b - a
    g = rng.randint(*SPLIT_GLUE)
    if rng.random() < 0.5:
        sign = rng.choice((-1, 1))
        w = rng.randint(-1, 1)
        g2 = sign * g + d * w
    else:
        g2 = rng.randint(*SPLIT_GLUE)
        sign = 1 if (g2 - g) % d == 0 else -1
        w = (g2 - sign * g) // d
    x0 = [[a, g], [0, b]]
    y0 = [[a, g2], [0, b]]
    x, _, s1_inv = _hide(x0, rng, random_shears)
    y, s2, _ = _hide(y0, rng, random_shears)
    if (g2 - sign * g) % d:
        return Pair("split-2x2", freeze(x), freeze(y), "NOT_CONJUGATE")
    t0 = [[sign, w], [0, 1]]  # t0 x0 = y0 t0
    t = matmul(matmul(s2, t0), s1_inv)
    return Pair("split-2x2", freeze(x), freeze(y), "CONJUGATE", freeze(t))


def _charpoly_pair(rng):
    n = rng.randint(*CHARPOLY_N)
    x = [[rng.randint(-CHARPOLY_ENTRY, CHARPOLY_ENTRY) for _ in range(n)] for _ in range(n)]
    y0 = [list(row) for row in x]
    y0[0][0] += 1  # the traces differ, so the characteristic polynomials do
    y, _, _ = _hide(y0, rng)
    return Pair("charpoly-differs", freeze(x), freeze(y), "NOT_CONJUGATE")


_MIXED_MAKERS = {  # the diagonal family takes its index too (_diagonal_pair)
    "nonsplit-2x2": _nonsplit_pair,
    "split-2x2": _split_pair,
    "charpoly-differs": _charpoly_pair,
}


# -- search-glue ----------------------------------------------------------------


def _glue(k, a, b, n_block):
    n = 2 * k
    rows = [[0] * n for _ in range(n)]
    for i in range(k):
        rows[i][i] = a
        rows[k + i][k + i] = b
        for j in range(k):
            rows[i][k + j] = n_block[i][j]
    return rows


def _det(m):
    if len(m) == 1:
        return m[0][0]
    return sum((-1) ** j * m[0][j] * _det([r[:j] + r[j + 1 :] for r in m[1:]]) for j in range(len(m)))


def _prime_powers(d: int):
    out = []
    p = 2
    while d > 1:
        q = 1
        while d % p == 0:
            d //= p
            q *= p
        if q > 1:
            out.append(q)
        p += 1
    return out


def smith_type(block, d: int):
    """Smith form of an integer matrix over Z/d, as gcd(s_i, d) per invariant.

    Invariants come from gcds of minors, which is exact and fine for
    the 1x1 and 2x2 glue blocks used here.
    """
    k = len(block)
    divisors = [1]
    for size in range(1, k + 1):
        g = 0
        for rows in itertools.combinations(range(k), size):
            for cols in itertools.combinations(range(k), size):
                g = gcd(g, _det([[block[i][j] for j in cols] for i in rows]))
        divisors.append(g)
    out = []
    for i in range(1, k + 1):
        s = 0 if divisors[i] == 0 else divisors[i] // divisors[i - 1]
        out.append(gcd(s, d))
    return tuple(sorted(out))


def _glue_pair(rng, k: int, d: int, same: bool):
    """[[aI_k, N],[0, (a+d)I_k]] hidden twice, or against another glue block M.

    Any intertwiner is block upper triangular, so conjugacy means
    U N = M V (mod d) for unimodular U, V; a different Smith type of M
    over Z/d therefore rules it out.  M is redrawn until its type
    differs over Z/q for every prime power q exactly dividing d, which
    makes every "different" pair non-conjugate by construction and
    locally obstructed at every prime of d, so pairs of one class cost
    about the same.
    """
    a = rng.randint(*GLUE_A)
    b = a + d
    def block():
        return [[rng.randint(-GLUE_ENTRY, GLUE_ENTRY) for _ in range(k)] for _ in range(k)]

    n_block = block()
    x0 = _glue(k, a, b, n_block)
    x, _, s1_inv = _hide(x0, rng)
    if same:
        y, s2, _ = _hide(x0, rng)
        t = matmul(s2, s1_inv)
        return Pair("glue-same", freeze(x), freeze(y), "CONJUGATE", freeze(t))
    while True:
        m_block = block()
        if all(smith_type(m_block, q) != smith_type(n_block, q) for q in _prime_powers(d)):
            break
    y, _, _ = _hide(_glue(k, a, b, m_block), rng)
    return Pair("glue-different", freeze(x), freeze(y), "NOT_CONJUGATE")


# -- graphs -----------------------------------------------------------------------


def paley25():
    """Adjacency of the Paley graph on F_25 = F_5[s]/(s^2 - 2)."""
    els = [(u, v) for u in range(5) for v in range(5)]
    squares = set()
    for u, v in els:
        if (u, v) != (0, 0):
            squares.add(((u * u + 2 * v * v) % 5, (2 * u * v) % 5))
    return [
        [int(((a[0] - b[0]) % 5, (a[1] - b[1]) % 5) in squares) for b in els]
        for a in els
    ]


def _relabelled_pair(family, x0, y0, t0, rng, primes=None):
    """P1 x0 P1^t against P2 y0 P2^t, with T = P2 t0 P1^t when t0 is known."""
    n = len(x0)
    p1 = list(range(n))
    p2 = list(range(n))
    rng.shuffle(p1)
    rng.shuffle(p2)
    t = None
    if t0 is not None:
        t = freeze(matmul(matmul(permutation(p2), t0), transpose(permutation(p1))))
    return Pair(family, freeze(relabel(x0, p1)), freeze(relabel(y0, p2)), "CONJUGATE", t, primes)


# -- workloads ----------------------------------------------------------------------


def setup(workload: str, zconj):
    """Inputs shared by every round: graphs and the fixture corpus."""
    if workload == "theorem-25":
        a = paley25()
        return {"paley25": a}
    if workload == "theorem-49":
        field = zconj.field_build(7, 2)
        return {
            "x": freeze(zconj.paley_adjacency(field).to_lists()),
            "y": freeze(zconj.peisert_adjacency(field).to_lists()),
        }
    if workload == "mixed-small":
        field = zconj.field_build(3, 2)
        corpus = zconj.load_corpus()
        fixtures = []
        for fx in corpus:
            conj = fx.conjugator.to_lists() if fx.conjugator is not None else None
            fixtures.append(
                Pair(
                    "fixture:" + fx.name,
                    freeze(fx.x.to_lists()),
                    freeze(fx.y.to_lists()),
                    fx.status,
                    conj and freeze(conj),
                )
            )
        nine = corpus.get("paley-peisert-9")
        return {
            "paley9": zconj.paley_adjacency(field).to_lists(),
            "peisert9": zconj.peisert_adjacency(field).to_lists(),
            # the bundled certificate for the unrelabelled pair
            "paley9_conjugator": nine.conjugator.to_lists(),
            "fixtures": tuple(fixtures),
        }
    if workload in ("search-glue", "lemma"):
        return {}
    raise ValueError("unknown workload %r" % workload)


def round_items(workload: str, seed: int, r: int, ctx):
    """The operations of round r, in the order they run."""
    rng = random.Random("%s:%d:%d" % (workload, seed, r))
    if workload == "theorem-25":
        a = ctx["paley25"]
        # eigenvalues 12, 2, -3: every difference is divisible by 2, 3 or 5
        return [_relabelled_pair("paley25-relabelled", a, a, identity(len(a)), rng, primes=(2, 3, 5))]
    if workload == "theorem-49":
        return [Pair("paley-peisert-49", ctx["x"], ctx["y"], "CONJUGATE", None, (2, 3, 7))]
    if workload == "mixed-small":
        items = [
            _diagonal_pair(rng, r * MIXED_REPEAT + i) if f == "diagonal" else _MIXED_MAKERS[f](rng)
            for i in range(MIXED_REPEAT)
            for f in MIXED_FAMILIES
        ]
        items.append(
            _relabelled_pair("paley-peisert-9", ctx["paley9"], ctx["peisert9"], ctx["paley9_conjugator"], rng)
        )
        items.extend(ctx["fixtures"])
        return items
    if workload == "search-glue":
        return [
            _glue_pair(rng, GLUE_K, d, same)
            for _ in range(GLUE_COPIES)
            for d in GLUE_GAPS
            for same in (True, False)
        ]
    if workload == "lemma":
        tasks = [LemmaTask("smith-lemma", p) for p in LEMMA_PRIMES]
        tasks += [LemmaTask("jacobi-table", p) for p in JACOBI_PRIMES]
        rng.shuffle(tasks)
        return tasks
    raise ValueError("unknown workload %r" % workload)


def describe(workload: str):
    """Parameter ranges of a workload, recorded with every result."""
    return dict(_describe(workload), distinct_rounds=DISTINCT_ROUNDS[workload])


def _describe(workload: str):
    if workload == "theorem-25":
        return {"pair": "Paley(F_25) vs itself, both relabelled", "n": 25, "ops_per_round": 1}
    if workload == "theorem-49":
        return {"pair": "Paley(F_49) vs Peisert(F_49)", "n": 49, "ops_per_round": 1}
    if workload == "mixed-small":
        return {
            "families": list(MIXED_FAMILIES) + ["paley-peisert-9 relabelled", "3 bundled fixtures"],
            "per_family_per_round": MIXED_REPEAT,
            "ops_per_round": MIXED_REPEAT * len(MIXED_FAMILIES) + 4,
            "diagonal": {"n": DIAG_N, "eigenvalues": DIAG_EIGEN, "distinct": (2, 4), "n, distinct": "cycled"},
            "nonsplit-2x2": {"a,c": NONSPLIT_AC, "t": "t^2 < 4ac"},
            "split-2x2": {"a,b": SPLIT_EIGEN, "g": SPLIT_GLUE},
            "charpoly-differs": {"n": CHARPOLY_N, "entry": CHARPOLY_ENTRY},
            "hiding": "S = L U, unit triangular, entries in {-1,0,1}",
        }
    if workload == "search-glue":
        return {
            "k": GLUE_K,
            "b-a": GLUE_GAPS,
            "a": GLUE_A,
            "entry": GLUE_ENTRY,
            "ops_per_round": GLUE_COPIES * len(GLUE_GAPS) * 2,
            "halves": "re-hidden copy / glue of another Smith type mod each prime power of b-a",
        }
    if workload == "lemma":
        return {
            "smith_lemma_primes": LEMMA_PRIMES,
            "jacobi_primes": JACOBI_PRIMES,
            "jacobi_precision": JACOBI_PRECISION,
            "ops_per_round": len(LEMMA_PRIMES) + len(JACOBI_PRIMES),
        }
    raise ValueError("unknown workload %r" % workload)
