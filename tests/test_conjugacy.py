"""Conjugacy decisions: lattices, local tests, search, certificates."""

import json
import random
import subprocess
import sys
import time
from math import gcd, lcm

import numpy as np
import pytest
from helpers import (
    bit_size_pair,
    conjugator_search_sequential,
    det_bareiss,
    det_small,
    eigenblock_basis_full,
    flat,
    hidden,
    kernel_basis_fraction,
    lll_fraction,
    local_test_sequential,
    obj,
    random_sl,
    random_split_conjugate,
    same_span,
    scaled_inverse_fraction,
    subprocess_env,
    three_eigenvalue_probe,
    unimodular_inverse,
    upper_triangular,
)
from test_bounds import paley25
from test_metamorphic import block_pairs, glued, swapped_pairs, three_eigenvalue_pairs

from zconj import conjugacy, forms, modular, spectral
from zconj.conjugacy import (
    CertificateError,
    DetNotOne,
    IntertwinerLattice,
    RankMismatch,
    _eigenblock_basis,
    _Randranges,
    _scaled_inverse,
    _sylvester_basis,
    _valuation,
    bqf_from_lattice,
    conjugator_search,
    decide,
    intertwiner_lattice,
    local_test,
    relevant_primes,
    sl_lift,
    verify_conjugator,
)
from zconj.linalg import charpoly, det, hnf, snf_invariants
from zconj.modular import det_mod
from zconj.matrix import IntMatrix, matmul, product_dtype
from zconj.spectral import NotSplit, check_assumption, split_spectrum
from zconj.graphs import field_build, paley_adjacency, paley_idempotent_data, peisert_adjacency

X1 = IntMatrix([[0, 2], [-3, 0]])
Y1 = IntMatrix([[0, 1], [-6, 0]])
X2 = IntMatrix([[1, 2], [0, 6]])
Y2 = IntMatrix([[1, 1], [0, 6]])


def direct_sum(rows, c):
    """The integer rows of M (+) [c] for M's rows: a 2x2 split pair gets a
    third eigenvalue, so that it takes the local tests, not the glue route."""
    return [list(row) + [0] for row in rows] + [[0] * len(rows) + [c]]


def flatten(basis):
    return [[v for row in b.to_lists() for v in row] for b in basis]


def sylvester(x, y):
    """_sylvester_basis(x, y) as a list of IntMatrix."""
    return [IntMatrix(t) for t in _sylvester_basis(x.array, y.array).reshape(-1, x.nrows, x.nrows)]


def test_intertwiner_lattice_frozen():
    lat1 = intertwiner_lattice(X1, Y1)
    assert lat1.rank == 2
    # solutions of T X1 = Y1 T are exactly [[a, b], [-3b, 2a]]
    expected = [IntMatrix([[1, 0], [0, 2]]), IntMatrix([[0, 1], [-3, 0]])]
    assert same_span(list(lat1.basis), expected)
    for t in lat1.basis:
        assert t * X1 == Y1 * t

    lat2 = intertwiner_lattice(X2, Y2)
    assert lat2.rank == 2
    assert same_span(
        list(lat2.basis), [IntMatrix([[1, 0], [0, 2]]), IntMatrix([[0, 1], [0, 5]])]
    )

    assert intertwiner_lattice(IntMatrix.identity(2), IntMatrix.identity(2)).rank == 4


def test_intertwiner_lattice_saturated():
    for x, y in ((X1, Y1), (X2, Y2), (IntMatrix.identity(2), IntMatrix.identity(2))):
        lat = intertwiner_lattice(x, y)
        assert all(v == 1 for v in snf_invariants(IntMatrix(flatten(lat.basis))))


def test_intertwiner_lattice_partial_spectrum():
    assert intertwiner_lattice(IntMatrix.diagonal([1, 2]), IntMatrix.diagonal([3, 4])).rank == 0
    lat = intertwiner_lattice(IntMatrix.diagonal([1, 2]), IntMatrix.diagonal([2, 3]))
    assert lat.rank == 1
    sv = sylvester(IntMatrix.diagonal([1, 2]), IntMatrix.diagonal([2, 3]))
    assert same_span(list(lat.basis), sv)


def test_eigenblock_matches_sylvester():
    rng = random.Random(13)
    for _ in range(20):
        n = rng.randint(2, 4)
        x = IntMatrix.diagonal([rng.randint(-6, 6) for _ in range(n)])
        u = random_sl(n, rng, steps=4)
        y = u * x * unimodular_inverse(u)
        try:
            spx, spy = split_spectrum(x), split_spectrum(y)
        except NotSplit:
            continue
        lattice = _eigenblock_basis(x, y, spx, spy)
        eb = list(lattice.basis)
        sv = sylvester(x, y)
        assert len(eb) == len(sv)
        assert same_span(eb, sv)
        if lattice.aligned is not None:
            assert verify_conjugator(lattice.aligned, x, y)


def hidden_glue(rng, gap: int, k: int) -> IntMatrix:
    """[[aI_k, N], [0, (a + gap)I_k]] with an entry 1 in N, so that the
    scale of both idempotents is gap, hidden by a random conjugation."""
    a = rng.randint(-3, 3)
    nb = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(k)]
    nb[0][0] = 1
    rows = [[a if i == j else 0 for j in range(k)] + nb[i] for i in range(k)]
    rows += [[0] * k + [a + gap if i == j else 0 for j in range(k)] for i in range(k)]
    u = random_sl(2 * k, rng)
    return u * IntMatrix(rows) * unimodular_inverse(u)


def test_eigenblock_basis_matches_full_system_oracle():
    # the column-reduced system and the chain-ring eliminator give the
    # very basis of the uncompressed system solved by the gcd sweep:
    # q prime, p^2, p^3, composite, and past the int64 bound
    rng = random.Random(47)
    for q in (2, 5, 7, 4, 9, 25, 8, 27, 6, 12, 36, 225, 3037000493):
        for _ in range(3):
            k = rng.randint(1, 3)
            x = hidden_glue(rng, q, k)
            y = hidden_glue(rng, q, k)
            shift = (obj(y).trace() - obj(x).trace()) // (2 * k)
            y = IntMatrix(obj(y) - np.eye(2 * k, dtype=object) * shift)
            spx, spy = split_spectrum(x), split_spectrum(y)
            assert lcm(*spx.scales) == q
            assert _eigenblock_basis(x, y, spx, spy).basis == eigenblock_basis_full(x, y, spx, spy)
    for _ in range(12):
        n = rng.randint(2, 5)
        x = random_split_conjugate(n, rng)
        u = random_sl(n, rng)
        y = u * x * unimodular_inverse(u)
        spx, spy = split_spectrum(x), split_spectrum(y)
        assert _eigenblock_basis(x, y, spx, spy).basis == eigenblock_basis_full(x, y, spx, spy)


def test_closed_form_is_an_intertwiner():
    rng = random.Random(53)
    for _ in range(10):
        x = hidden_glue(rng, rng.choice((2, 6, 9)), 2)
        u = random_sl(4, rng)
        y = u * x * unimodular_inverse(u)
        lattice = _eigenblock_basis(x, y, split_spectrum(x), split_spectrum(y))
        cd = lattice.closed_form
        assert cd * x == y * cd
        assert det(cd.array) != 0


def test_verify_conjugator_frozen():
    t2 = IntMatrix([[0, -1], [3, 0]])
    assert verify_conjugator(t2, X1, Y1, prime=2)
    assert not verify_conjugator(t2, X1, Y1, prime=3)  # det 3 is not a 3-adic unit
    assert not verify_conjugator(t2, X1, Y1)  # nor a global unit
    tp = IntMatrix([[1, 0], [0, 2]])
    assert verify_conjugator(tp, X1, Y1, prime=3)
    assert verify_conjugator(tp, X1, Y1, prime=5)
    assert verify_conjugator(IntMatrix([[-1, 1], [0, 3]]), X2, Y2, prime=2)


def test_relevant_primes():
    def primes_of(entries):
        return relevant_primes(split_spectrum(IntMatrix.diagonal(entries)))

    assert primes_of([1, 6]) == [5]
    assert primes_of([4, 1, -2]) == [2, 3]
    assert primes_of([0, 1]) == []
    # trial division leaves cofactors as bases, refined to be coprime
    assert primes_of([0, 1009 * 1013, 2 * 1009 * 1013]) == [2, 1009 * 1013]
    assert primes_of([0, 1009 * 1013, 1009 * 1019]) == [2, 3, 1009, 1013, 1019]


def test_local_test_finds_certificates():
    for x, y, p in ((X2, Y2, 5), (X1, Y1, 3), (X1, Y1, 2)):
        v = local_test(x, y, p)
        assert v.status == "PASS"
        assert verify_conjugator(v.certificate, x, y, prime=p)


def elementary(n, i, j, s=1):
    return [[s if (r, c) == (i, j) else 0 for c in range(n)] for r in range(n)]


def zero_pair_lattice(mats):
    """Matrices spanning part of C(0, 0), where every T intertwines."""
    n = len(mats[0])
    zero = IntMatrix([[0] * n] * n)
    basis = obj([[v for row in m for v in row] for m in mats])
    return IntertwinerLattice(n=n, basis=basis, source=zero, target=zero)


def glue_pair(rng):
    """Hidden [[aI_2, N], [0, bI_2]] against a hidden copy or diag(a, a, b, b)."""
    a = rng.randint(-3, 3)
    b = a + rng.choice((2, 3, 4, 6))
    nb = [[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)]
    x = IntMatrix([[a, 0] + nb[0], [0, a] + nb[1], [0, 0, b, 0], [0, 0, 0, b]])
    y = x if rng.random() < 0.5 else IntMatrix.diagonal([a, a, b, b])
    u = random_sl(4, rng)
    return x, u * y * unimodular_inverse(u)


def test_local_test_matches_sequential_oracle():
    # 3x3 rank-1 pieces: a combination has c0 - c2, c1 - c4, c3 - c5 on
    # the diagonal and c6 - c7 at (0, 1), so it is a unit mod p iff
    # (c0 - c2)(c1 - c4)(c3 - c5) is; a draw mod 3 hits with odds 8/27
    pieces = ((0, 0, 1), (1, 1, 1), (0, 0, -1), (2, 2, 1), (1, 1, -1), (2, 2, -1), (0, 1, 1), (0, 1, -1))
    glued = [elementary(3, i, j, s) for i, j, s in pieces]
    # first-row matrices: every combination is singular
    first_row = [elementary(3, 0, j % 3, 1 + j // 3) for j in range(9)]
    # entries -1, -2, -3 are residues near p: sums of three products near p^2
    negated = [elementary(3, 0, j % 3, -1 - j // 3) for j in range(9)]
    cases = [
        (zero_pair_lattice(glued), 3, 100000),  # random draws, float64 product
        (zero_pair_lattice(glued), 100000007, 100000),  # int64 product, p^2 m >= 2^53
        (zero_pair_lattice(glued), 2**31 - 1, 100000),  # object product
        (zero_pair_lattice(glued), 2**61 - 1, 100000),  # object residues
        (zero_pair_lattice(glued[:5]), 3, 100000),  # 3^5 <= 4096: straight to every class
        (zero_pair_lattice(first_row[:6]), 3, 100000),  # exhaustive FAIL
        (zero_pair_lattice(first_row), 3, 100000),  # random draws, then exhaustive FAIL
        (zero_pair_lattice(first_row[:4]), 101, 7),  # seven draws, then UNDECIDED
        (zero_pair_lattice(glued), 100000007, 30),  # an early draw hits within a small budget
        (zero_pair_lattice(glued), 100000007, 50),  # ... and within a larger one
        (zero_pair_lattice(glued), 3, 7),  # seed 1 hits on the last draw, seed 0 walks every class
        (zero_pair_lattice(first_row[:4]), 101, 500),  # budget ends the draws
        (zero_pair_lattice(negated), 2**31 - 1, 200),  # products past 2^63
    ]
    assert 100000007**2 * 8 >= 2**53 and 100000007**2 * 8 < 2**62
    rng = random.Random(31)
    for _ in range(12):
        x, y = glue_pair(rng)
        lattice = intertwiner_lattice(x, y)
        cases += [(lattice, p, 100000) for p in relevant_primes(split_spectrum(x))]
    seen = set()
    for lattice, p, budget in cases:
        for seed in (0, 1):
            x, y = lattice.source, lattice.target
            v = local_test(x, y, p, budget=budget, seed=seed, lattice=lattice)
            status, t, method, phase = local_test_sequential(lattice, p, budget=budget, seed=seed)
            assert (v.status, v.certificate, v.method) == (status, t, method)
            seen.add((status, phase))
    assert seen == {
        ("PASS", "random"),
        ("PASS", "exhaustive"),
        ("FAIL", None),
        ("UNDECIDED", None),
    }


@pytest.mark.parametrize("q", [3, 7])
def test_local_test_order_on_paley_peisert_lattices(q):
    # the paper's 9- and 49-vertex pairs at the base q: their lattices
    # (rank 33 and 1,153) pass 4,096 classes, and an early random draw hits
    f = field_build(q, 2)
    x, y = paley_adjacency(f), peisert_adjacency(f)
    lattice = intertwiner_lattice(x, y)
    v = local_test(x, y, q, lattice=lattice)
    status, t, method, phase = local_test_sequential(lattice, q)
    assert (v.status, v.certificate, v.method) == (status, t, method)
    assert (status, method, phase) == ("PASS", "sampled", "random")
    assert verify_conjugator(v.certificate, x, y, prime=q)


def glued_against_split(rng, k: int, gap: int):
    """Hidden [[aI_k, I_k], [0, (a + gap)I_k]] against hidden diag(aI_k, (a + gap)I_k):
    det B = gap^k and det C = 1, so every prime of gap is a valuation mismatch."""
    a = rng.randint(-3, 3)
    rows = [
        [a * (i == j) + (j == i + k) + gap * (i == j >= k) for j in range(2 * k)] for i in range(2 * k)
    ]
    u, v = random_sl(2 * k, rng), random_sl(2 * k, rng)
    x = u * IntMatrix(rows) * unimodular_inverse(u)
    y = v * IntMatrix.diagonal([a] * k + [a + gap] * k) * unimodular_inverse(v)
    return x, y


def test_local_test_valuation_mismatch_matches_sequential_oracle(monkeypatch):
    # no element has a unit determinant mod p: FAIL at once when p^rank
    # <= 2^20, UNDECIDED otherwise, whatever the budget, as the
    # one-at-a-time oracle finds after evaluating every candidate
    rng = random.Random(61)
    evaluated = []
    monkeypatch.setattr(conjugacy, "det_mod", lambda *a: evaluated.append(a) or det_mod(*a))
    cases = [(1, 2, 2, 100000), (1, 6, 3, 100000), (2, 2, 2, 100000), (2, 2, 2, 7), (2, 4, 2, 30)]
    cases += [(2, 7, 7, 60), (2, 7, 7, 200), (3, 3, 3, 150)]  # 7^8 and 3^18 exceed 2^20
    seen = set()
    for k, gap, p, budget in cases:
        x, y = glued_against_split(rng, k, gap)
        lattice = intertwiner_lattice(x, y)
        assert lattice.rank == 2 * k * k
        assert _valuation(lattice.det_b, p) != _valuation(lattice.det_c, p)
        for seed in (0, 1):
            v = local_test(x, y, p, budget=budget, seed=seed, lattice=lattice)
            status, t, method, _ = local_test_sequential(lattice, p, budget=budget, seed=seed)
            assert (v.status, v.certificate, v.method) == (status, t, method)
            seen.add(status)
    assert seen == {"FAIL", "UNDECIDED"}
    assert evaluated == []


def test_local_test_non_split_matches_sequential_oracle():
    # the Sylvester lattice is one n x n block with det B = det C = 1
    companion = IntMatrix([[0, 0, 2], [1, 0, 0], [0, 1, 0]])  # t^3 - 2
    rng = random.Random(67)
    pairs = [(X1, Y1), (IntMatrix([[0, 1], [-6, 0]]), IntMatrix([[0, 3], [-2, 0]]))]
    pairs.append((IntMatrix([[0, 1], [8, 0]]), IntMatrix([[0, 2], [4, 0]])))  # FAILs at 2
    for _ in range(3):
        u = random_sl(3, rng)
        pairs.append((companion, u * companion * unimodular_inverse(u)))
    seen = set()
    for x, y in pairs:
        lattice = intertwiner_lattice(x, y)
        assert lattice.sizes == ((x.nrows, x.nrows),) and lattice.q == 1
        for p, budget in ((2, 100000), (3, 100000), (5, 100000), (3, 2), (101, 20)):
            v = local_test(x, y, p, budget=budget, lattice=lattice)
            status, t, method, _ = local_test_sequential(lattice, p, budget=budget)
            assert (v.status, v.certificate, v.method) == (status, t, method)
            seen.add(status)
    assert seen == {"PASS", "FAIL"}


def test_lattice_basis_is_built_on_first_use():
    rng = random.Random(71)
    for _ in range(6):
        x = hidden_glue(rng, rng.choice((2, 4, 6)), 2)
        u = random_sl(4, rng)
        y = u * x * unimodular_inverse(u)
        spx, spy = split_spectrum(x), split_spectrum(y)
        lattice = intertwiner_lattice(x, y, spectra=(spx, spy))
        assert lattice.rank == 8
        assert "stack" not in vars(lattice) and "basis" not in vars(lattice)
        assert lattice.basis == eigenblock_basis_full(x, y, spx, spy)
        assert lattice.stack.tolist() == [t.to_lists() for t in lattice.basis]


def test_block_coordinate_checks_catch_corruption(monkeypatch):
    rng = random.Random(73)
    x = hidden_glue(rng, 6, 2)
    u = random_sl(4, rng)
    y = u * x * unimodular_inverse(u)
    intertwiner_lattice(x, y)
    solve = conjugacy._hermite_columns

    def corrupted(on_diagonal):
        # one solution moved by e_j, j a column the congruences see: a
        # pivot column, at the diagonal of its own row or in row 0 above
        # it.  The solve overwrites eq, so the columns are read before it
        def solve_corrupted(eq, m, q):
            seen = (eq % q).any(axis=0)
            diag, pivots, cols = solve(eq, m, q)
            diag, cols = diag.copy(), cols.copy()
            i = next(i for i, j in enumerate(pivots) if j and seen[j])
            if on_diagonal:
                diag[pivots[i]] += 1
            else:
                cols[0, i] += 1
            return diag, pivots, cols

        return solve_corrupted

    for on_diagonal in (False, True):
        monkeypatch.setattr(conjugacy, "_hermite_columns", corrupted(on_diagonal))
        with pytest.raises(CertificateError, match="congruences"):
            intertwiner_lattice(x, y)
    monkeypatch.setattr(conjugacy, "_hermite_columns", solve)
    howell = conjugacy._howell_rows
    # a Howell row of D's column span dropped: the rest span too few classes
    monkeypatch.setattr(conjugacy, "_howell_rows", lambda a, q: dict(sorted(howell(a, q).items())[1:]))
    with pytest.raises(CertificateError, match="order"):
        intertwiner_lattice(x, y)
    # e_0 added: B e_0, a column of B, is not 0 mod q, so e_0 is not in the span
    monkeypatch.setattr(conjugacy, "_howell_rows", lambda a, q: {0: [1], **howell(a, q)})
    with pytest.raises(CertificateError, match="outside"):
        intertwiner_lattice(x, y)
    # the Howell rows of [I | C] mod q: a row of G = C's rows dropped, and
    # e_j added at a column j of C without a pivot, so outside C's span
    n = x.nrows

    def of_c(change):
        return lambda a, q: change(howell(a, q)) if a.shape[1] == 2 * n else howell(a, q)

    monkeypatch.setattr(conjugacy, "_howell_rows", of_c(lambda out: dict(sorted(out.items())[:-1])))
    with pytest.raises(CertificateError, match="order q"):
        intertwiner_lattice(x, y)

    def extra(out):
        j = next(j for j in range(n, 2 * n) if j not in out)
        return {**out, j: np.eye(j + 1, dtype=np.int64)[j]}

    monkeypatch.setattr(conjugacy, "_howell_rows", of_c(extra))
    with pytest.raises(CertificateError, match="outside the row span"):
        intertwiner_lattice(x, y)
    monkeypatch.setattr(conjugacy, "_howell_rows", howell)
    # a row of G dropped past its certificate: the solutions are checked
    # against C's own rows
    span = conjugacy._row_span
    monkeypatch.setattr(conjugacy, "_row_span", lambda a, q: span(a, q)[1:])
    with pytest.raises(CertificateError, match="congruences"):
        intertwiner_lattice(x, y)
    monkeypatch.setattr(conjugacy, "_row_span", span)
    # eigenvectors of another eigenvalue at the multiplicity-two eigenvalue
    # 1 (a rank-one lattice is read off its idempotent, past kernel_basis)
    monkeypatch.setattr(conjugacy, "kernel_basis", lambda m: np.array([[1, 0, 0], [0, 0, 1]]))
    with pytest.raises(CertificateError, match="eigenvectors"):
        intertwiner_lattice(IntMatrix.diagonal([1, 1, 2]), IntMatrix.diagonal([1, 1, 2]))


def coords_on_c_rows(lattice):
    """The lattice's block coordinates solved on the unreduced system: the
    n^2 congruences sum_a C_a S_a D_a = 0 (mod q), kron(C_a, D_a^t) as a
    block, from C's own rows and D's own columns."""
    q, blocks, row, col = lattice.q, [], 0, 0
    for my, mx in lattice.sizes:
        c_a, d_a = lattice.c[:, row : row + my], lattice.d[col : col + mx]
        blocks.append(np.kron(modular.residues(c_a, q), modular.residues(d_a.T, q)))
        row, col = row + my, col + mx
    m = sum(my * mx for my, mx in lattice.sizes)
    return modular.solve_congruence_lattice(np.concatenate(blocks, axis=1), m, q)


def test_congruences_on_howell_rows_of_c_match_c_rows():
    # C's rows replaced by the Howell rows of their span mod q leave the
    # Hermite basis as it is: three-eigenvalue pairs, hidden copies and
    # pairs with another glue, at q a prime power or with two or three
    # prime factors; the Paley pairs on F_9, F_25 (against a relabelled
    # copy) and F_49
    rng, moduli = random.Random(89), set()
    pairs = [(x, y) for x, y, _ in three_eigenvalue_pairs(rng, 12)]
    for p in (3, 7):
        f = field_build(p, 2)
        pairs.append((paley_adjacency(f), peisert_adjacency(f)))
    x25 = IntMatrix(paley25())
    perm = np.random.default_rng(5).permutation(25)
    pairs.append((x25, IntMatrix(x25.array[perm][:, perm])))
    for x, y in pairs:
        lattice = intertwiner_lattice(x, y)
        assert lattice.rank and len(lattice.sizes) >= 3
        assert lattice.c.dtype == np.int64
        assert lattice.coords.tolist() == coords_on_c_rows(lattice).tolist()
        moduli.add(lattice.q)
    assert {len(modular.prime_factors(q)) for q in moduli} >= {1, 2, 3}


def test_decide_above_search_cap_never_builds_the_basis(monkeypatch):
    def refuse(self):
        raise AssertionError("the basis was materialized")

    monkeypatch.setattr(IntertwinerLattice, "stack", property(refuse))
    monkeypatch.setattr(IntertwinerLattice, "basis", property(refuse))
    f9 = field_build(3, 2)
    x, y = paley_adjacency(f9), peisert_adjacency(f9)
    v = decide(x, y, search_dim_cap=8)
    assert (v.status, v.reason) == ("CONJUGATE", "theorem+local-passes")
    # p = 3 is a local_test hit, assembled from its block coordinates alone
    assert [(lv.prime, lv.method) for lv in v.local] == [(2, "closed-form"), (3, "sampled")]
    for lv in v.local:
        assert verify_conjugator(lv.certificate, x, y, prime=lv.prime)


def test_decide_on_paley25_never_builds_the_dense_basis(monkeypatch):
    # the theorem route at n = 25: the local tests multiply by the compact
    # Hermite basis, so the m x m block coordinates are never assembled
    def refuse(*args):
        raise AssertionError("the dense basis was built")

    monkeypatch.setattr(conjugacy, "_hermite_dense", refuse)
    x = IntMatrix(paley25())
    perm = np.random.default_rng(3).permutation(25)
    y = IntMatrix(x.array[perm][:, perm])
    v = decide(x, y)
    assert (v.status, v.reason) == ("CONJUGATE", "theorem+local-passes")
    assert "sampled" in {lv.method for lv in v.local}
    for lv in v.local:
        assert verify_conjugator(lv.certificate, x, y, prime=lv.prime)


def test_closed_form_determinant_matches_bareiss():
    # det(C D) = det C q^n / det B, as decide reads it at each base, against
    # the Bareiss determinant of C D: hidden copies, other glue and swapped
    # pairs with three or more eigenvalues, and the Paley pairs on F_9 and F_49
    rng = random.Random(97)
    pairs = [(x, y) for x, y, _ in block_pairs(rng, 1) + three_eigenvalue_pairs(rng, 6)]
    pairs += swapped_pairs(rng, 1)
    for p in (3, 7):
        f = field_build(p, 2)
        pairs.append((paley_adjacency(f), peisert_adjacency(f)))
    for x, y in pairs:
        lattice = intertwiner_lattice(x, y)
        assert len(lattice.sizes) >= 3 and lattice.closed_form is not None
        q, n = lattice.q, x.nrows
        assert q**n % lattice.det_b == 0
        assert lattice.det_c * q**n // lattice.det_b == det_bareiss(lattice.closed_form.to_lists())


def dense_twin(lattice):
    """The lattice with its dense block coordinates as the pivot columns of
    a zero diagonal, so that combine multiplies by the whole basis."""
    dense = modular._hermite_dense(*lattice.compact)
    compact = np.zeros(lattice.rank, dtype=np.int64), np.arange(lattice.rank), dense
    blocks = compact, lattice.c, lattice.d, lattice.sizes, lattice.q, lattice.det_b, lattice.det_c
    return IntertwinerLattice(lattice.n, None, lattice.source, lattice.target, blocks=blocks)


def test_compact_products_match_the_dense_basis(monkeypatch):
    # combine (and with it combination) and local_test's candidates use the
    # compact basis diag + sp: against coeffs @ the dense basis on Python
    # ints, and local_test against its run on the dense twin, candidate by
    # candidate.  sp is held in float32 (q^2 (P + 1) < 2^24), in float64
    # (q = 16 27 43), in int64 (q^2 (P + 1) >= 2^53, q = 512 729 1241)
    # and on Python ints (q above 2^62), and the products run in all four
    routes, held = set(), set()

    def recorded(a, b, bound):
        if sys._getframe(1).f_code.co_name == "combine":
            routes.add(product_dtype(bound))
        return matmul(a, b, bound)

    monkeypatch.setattr(conjugacy, "matmul", recorded)
    rng = random.Random(101)
    pairs = [(x, y) for x, y, _ in three_eigenvalue_pairs(rng, 3)]
    f9 = field_build(3, 2)
    pairs.append((paley_adjacency(f9), peisert_adjacency(f9)))
    for a, b in ((16, -27), (512, -729)):
        x = IntMatrix([[0, 1, 2], [0, a, 1], [0, 0, b]])
        pairs.append((x, hidden(x, rng)))
    d = (2**31 - 1) * (2**61 - 1)
    pairs.append((IntMatrix([[0, 1, 0], [0, d, 0], [0, 0, -1]]), IntMatrix([[0, 0, 0], [0, d, 0], [0, 0, -1]])))
    candidates = []
    monkeypatch.setattr(conjugacy, "det_mod", lambda rows, b: candidates.append(rows.tolist()) or det_mod(rows, b))
    evaluated = 0
    for x, y in pairs:
        lattice = intertwiner_lattice(x, y)
        twin = dense_twin(lattice)
        dense = twin.compact[2].astype(object)
        held.add(lattice.compact[2].dtype)
        for bits in (2, 24, 48):
            coeffs = np.array([[rng.randrange(-(2**bits), 2**bits) for _ in range(lattice.rank)] for _ in range(4)])
            assert lattice.combine(coeffs).tolist() == (coeffs.astype(object) @ dense).tolist()
            assert lattice.combination(coeffs[0]) == twin.combination(coeffs[0])
        for p in relevant_primes(split_spectrum(x)):
            del candidates[:]
            v = local_test(x, y, p, budget=300, lattice=lattice)
            got, candidates[:] = candidates[:], []
            assert local_test(x, y, p, budget=300, lattice=twin) == v
            assert candidates == got
            evaluated += len(got)
    assert held == {np.dtype(np.float32), np.dtype(np.float64), np.dtype(np.int64), np.dtype(object)}
    assert routes == {np.float32, np.float64, np.int64, object}
    assert evaluated


def test_rank_one_eigenbasis_skips_the_elimination(monkeypatch):
    # at every size a rank-one eigenlattice is read off its idempotent and
    # a higher rank off X - aI by kernel_basis: Paley(F_25) against a
    # relabelled copy (degree 12 once, 2 and -3 twelve times), the Paley
    # and Peisert graphs on F_9 (degree 4 once, 1 and -2 four times) and a
    # 2 x 2 glue pair.  Each closed form is kernel_basis's vector up to sign
    routes, eigenbasis, kernel = [], conjugacy._eigenbasis, conjugacy.kernel_basis

    def traced(m, a, mult, f):
        routes.append([a])
        basis = eigenbasis(m, a, mult, f)
        if mult == 1:
            (v,) = kernel(m - a * np.eye(len(m), dtype=m.dtype)).tolist()
            assert basis.T.tolist() in ([v], [[-e for e in v]])
        return basis

    monkeypatch.setattr(conjugacy, "kernel_basis", lambda m: routes[-1].append("kernel_basis") or kernel(m))
    monkeypatch.setattr(conjugacy, "_eigenbasis", traced)
    x = IntMatrix(paley25())
    perm = np.random.default_rng(3).permutation(25)
    v = decide(x, IntMatrix(x.array[perm][:, perm]))
    assert (v.status, v.reason) == ("CONJUGATE", "theorem+local-passes")
    assert sorted(map(tuple, routes)) == [(a, "kernel_basis") for a in (-3, -3, 2, 2)] + [(12,)] * 2
    routes.clear()
    f9 = field_build(3, 2)
    assert decide(paley_adjacency(f9), peisert_adjacency(f9)).status == "CONJUGATE"
    assert sorted(map(tuple, routes)) == [(a, "kernel_basis") for a in (-2, -2, 1, 1)] + [(4,)] * 2
    routes.clear()
    x = IntMatrix([[0, 1], [0, 3]])
    v = decide(x, hidden(x, random.Random(29)))
    assert (v.status, v.reason) == ("CONJUGATE", "explicit-conjugator")
    assert routes == [[0], [0]]


def test_rank_one_eigenbasis_matches_fraction_oracle():
    # hidden upper-triangular matrices with eigenvalue 0 once between
    # blocks of b and c, six at n = 17..25 and one at each n = 2..16: the
    # idempotent's columns have content > 1 and mixed signs (every draw
    # above 16, some below), and the closed form is the oracle's saturated
    # kernel of X
    rng = random.Random(25)

    def closed_form_matches(n, inside):
        b, c = rng.choice((2, 3, 4)), -rng.choice((2, 3))
        k = rng.randint(1, n - 2) if inside else rng.randint(0, n - 1)
        x = hidden(upper_triangular([b] * k + [0] + [c] * (n - 1 - k), rng), rng, steps=2 * n)
        sp = split_spectrum(x)
        f = sp.idempotents[sp.eigenvalues.index(0)].array
        col = f[:, np.flatnonzero(f.any(axis=0))[0]].tolist()
        got = conjugacy._eigenbasis(x.array, 0, 1, f)
        assert got.dtype == np.int64
        assert [tuple(v) for v in got.T.tolist()] == kernel_basis_fraction(x)
        return gcd(*col) > 1, min(col) < 0 < max(col)

    large = [closed_form_matches(rng.randint(17, 25), True) for _ in range(6)]
    assert set(large) == {(True, True)}
    small = [closed_form_matches(n, False) for n in range(2, 17)]
    assert {True} <= {c for c, _ in small} and {True} <= {m for _, m in small}


def test_eigenbases_of_higher_rank_are_reduced_once(monkeypatch):
    # every basis of rank two or more that _eigenbasis returns is the LLL
    # reduction (the exact rational oracle) of kernel_basis's rows:
    # three-eigenvalue pairs, the 64-bit pair, the n = 12 probe and the
    # Paley and Peisert graphs on F_9.  A glue-route decide calls
    # lll_reduce from _eigenbasis alone: _glue_block takes the columns as
    # they come
    kernels, callers, ranks = [], [], set()
    kernel, eigenbasis, reduce = conjugacy.kernel_basis, conjugacy._eigenbasis, conjugacy.lll_reduce

    def compared(m, a, mult, f):
        del kernels[:]
        basis = eigenbasis(m, a, mult, f)
        if mult > 1:
            (rows,) = kernels
            assert [tuple(v) for v in basis.T.tolist()] == lll_fraction(rows.tolist())
            ranks.add(mult)
        else:
            assert not kernels
        return basis

    monkeypatch.setattr(conjugacy, "kernel_basis", lambda m: kernels.append(kernel(m)) or kernels[-1])
    monkeypatch.setattr(conjugacy, "_eigenbasis", compared)
    monkeypatch.setattr(conjugacy, "lll_reduce", lambda b: callers.append(sys._getframe(1).f_code.co_name) or reduce(b))
    rng = random.Random(107)
    pairs = [(x, y) for x, y, _ in three_eigenvalue_pairs(rng, 4)]
    pairs += [bit_size_pair(64, 1), three_eigenvalue_probe(12, 1)]
    f9 = field_build(3, 2)
    pairs.append((paley_adjacency(f9), peisert_adjacency(f9)))
    for x, y in pairs:
        intertwiner_lattice(x, y)
    assert ranks >= {2, 4}
    for block in ([[1]], [[1, 2], [0, 3]], [[2, -1, 3]]):
        x = glued(1, 7, block)
        del callers[:]
        v = decide(x, hidden(x, rng))
        assert (v.status, v.reason) == ("CONJUGATE", "explicit-conjugator")
        assert callers == ["_eigenbasis"] * 2 * (len(block) > 1)


def test_rank_one_paley_eigenbasis_at_p19_in_time():
    # the degree 180 of Paley(F_361) has multiplicity one and eigenlattice
    # Z (1, ..., 1); from its idempotent J it takes milliseconds, while the
    # elimination of X - 180 I runs to depth 360 and takes minutes
    data = paley_idempotent_data(19)
    start = time.perf_counter()
    basis = conjugacy._eigenbasis(data.X.array, data.k, 1, data.E1.array)
    assert time.perf_counter() - start < 5
    assert basis.T.tolist() == [[1] * 361]


def test_randranges_match_randrange():
    for p in (2, 3, 5, 2**31 - 1, 2**32 + 15, 2**61 - 1):
        for seed in (0, 1, 2):
            draws = _Randranges(random.Random(seed), p)
            got = [int(v) for count in (1, 0, 7, 100, 3, 2000) for v in draws.take(count)]
            rng = random.Random(seed)
            assert got == [rng.randrange(p) for _ in got]


def test_local_test_rejects_modulus_below_two(monkeypatch):
    # p = 1 would loop in _valuation (v % 1 is always 0), p = 0 divide by
    # zero and p = -3 report a false obstruction; all raise before any
    # work, and a _valuation that refuses them keeps a regression from hanging
    def valuation(v, p):
        assert p >= 2, "local_test reached _valuation with p = %d" % p
        return _valuation(v, p)

    monkeypatch.setattr(conjugacy, "_valuation", valuation)
    x, y = IntMatrix.diagonal([1, 2, 4]), IntMatrix([[1, 1, 0], [0, 2, 0], [0, 0, 4]])
    lattice = intertwiner_lattice(x, y)
    for p in (1, 0, -3):
        for given in (None, lattice):
            with pytest.raises(ValueError, match="modulus must be at least 2"):
                local_test(x, y, p, lattice=given)


def test_local_test_fail_is_exhaustive():
    v = local_test(IntMatrix.diagonal([1, 2]), IntMatrix.diagonal([1, 3]), 2)
    assert v.status == "FAIL"
    assert v.method == "exhaustive"


def test_sl_lift():
    m = IntMatrix([[3, 0], [0, 2]])
    lifted = sl_lift(m, 5)
    assert det(lifted.array) == 1
    assert all((lifted[i, j] - m[i, j]) % 5 == 0 for i in range(2) for j in range(2))


def test_sl_lift_rejects_nonunit_det():
    with pytest.raises(DetNotOne):
        sl_lift(IntMatrix([[2, 0], [0, 2]]), 5)


def test_sl_lift_random():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(1, 5)
        q = rng.randint(2, 36)
        w = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        for _ in range(rng.randint(0, 12)):
            i, j = rng.randrange(n), rng.randrange(n)
            if i == j:
                continue
            lam = rng.randrange(q)
            for t in range(n):
                w[i][t] = (w[i][t] + lam * w[j][t]) % q
        m = IntMatrix(w)
        lifted = sl_lift(m, q)
        assert det(lifted.array) == 1
        assert all(
            (lifted[i, j] - m[i, j]) % q == 0 for i in range(n) for j in range(n)
        )
    # q = 30 p up to p = 2^61 - 1, first columns (6a, 10b, 15c, 30d, ...):
    # every pair of entries shares a prime with q, the whole column none
    for p in (7, 1000003, 2**31 - 1, 2**61 - 1):
        q = 30 * p
        for _ in range(4):
            n = rng.randint(3, 5)
            col = [0]
            while gcd(*col) != 1:
                col = [k * rng.choice((1, 7, 11, 13)) for k in (6, 10, 15)]
                col += [30 * rng.randint(-3, 3) for _ in range(n - 3)]
                rng.shuffle(col)
            # a unimodular matrix with first column col: u col = e_1
            _, u = hnf(obj([[v] for v in col]))
            w = unimodular_inverse(IntMatrix(u)).to_lists()
            sign = det_small(w)
            for r in range(n):
                w[r][n - 1] *= sign
            # column shears that leave the first column alone
            for _ in range(2 * n):
                j, k, lam = rng.randrange(n), rng.randrange(1, n), rng.randrange(q)
                for r in range(n):
                    w[r][k] += lam * w[r][j] if j != k else 0
            m = IntMatrix([[v % q for v in row] for row in w])
            lifted = sl_lift(m, q)
            assert det(lifted.array) == 1
            assert all(
                (lifted[i, j] - m[i, j]) % q == 0 for i in range(n) for j in range(n)
            )


def test_sl_lift_builds_its_pivot():
    # no single lower row makes the pivot a unit; a scan over t = 1..q-1
    # takes time linear in q
    m = IntMatrix([[6, 1, 0], [10, 0, 3], [15, 3, -1]])
    q = 30 * 1000003
    t0 = time.monotonic()
    lifted = sl_lift(m, q)
    assert time.monotonic() - t0 < 1.0
    assert det(lifted.array) == 1
    assert all((lifted[i, j] - m[i, j]) % q == 0 for i in range(3) for j in range(3))


def test_bqf_from_lattice_frozen():
    basis1 = obj([[1, 0, 0, 2], [0, 1, -3, 0]])
    f1 = bqf_from_lattice(IntertwinerLattice(2, basis1, X1, Y1))
    assert (f1.a, f1.b, f1.c) == (2, 0, 3)
    assert f1.discriminant == -24

    basis2 = obj([[1, 0, 0, 2], [0, 1, 0, 5]])
    f2 = bqf_from_lattice(IntertwinerLattice(2, basis2, X2, Y2))
    assert (f2.a, f2.b, f2.c) == (2, 5, 0)
    assert f2.discriminant == 25

    with pytest.raises(RankMismatch):
        bqf_from_lattice(intertwiner_lattice(IntMatrix.identity(2), IntMatrix.identity(2)))


def test_decide_first_pair():
    v = decide(X1, Y1)
    assert v.status == "NOT_CONJUGATE"
    assert v.reason == "bqf-certificate"
    assert v.bqf is not None
    assert v.bqf_proof is not None and not v.bqf_proof.represents
    assert v.bqf_proof.proof == "definite-minimum"
    obj = v.to_json_obj()
    assert obj["status"] == "NOT_CONJUGATE"
    assert "bqf" in obj["certificates"]


def test_decide_second_pair():
    # two eigenvalues: the glue route decides, class 2 against 1 mod 5,
    # and the invariants are the only certificate
    v = decide(X2, Y2)
    assert (v.status, v.reason) == ("NOT_CONJUGATE", "glue-invariant")
    shape = {"a": "1", "b": "6", "r": "1", "s": "1", "g": ["1"]}
    glue = {"x": dict(shape, **{"class": "2"}), "y": dict(shape, **{"class": "1"})}
    assert v.to_json_obj()["certificates"] == {"glue": glue}
    # a non-split pair with one characteristic polynomial takes the form
    # endgame, whose factor system shows that no unit is represented
    v = decide(IntMatrix([[1, 1], [0, 1]]), IntMatrix([[1, 2], [0, 1]]))
    assert (v.status, v.reason) == ("NOT_CONJUGATE", "bqf-certificate")
    assert v.bqf_proof is not None and v.bqf_proof.proof == "factor-system"
    assert (v.local, v.assumption) == ((), None)


def test_decide_charpoly_mismatch():
    v = decide(IntMatrix.diagonal([1, 2]), IntMatrix.diagonal([1, 3]))
    assert v.status == "NOT_CONJUGATE"
    assert v.reason == "charpoly-mismatch"


def test_decide_compares_split_spectra_without_charpoly(monkeypatch):
    calls = []
    charpoly = conjugacy.charpoly
    monkeypatch.setattr(conjugacy, "charpoly", lambda m: calls.append(m) or charpoly(m))
    # unequal eigenvalues, and equal eigenvalues with unequal multiplicities
    mismatched = [
        (IntMatrix([[1, 1], [0, 2]]), IntMatrix.diagonal([1, 3])),
        (IntMatrix.diagonal([1, 1, 2]), IntMatrix.diagonal([1, 2, 2])),
        (IntMatrix([[0, 1, 0], [0, 1, 0], [0, 0, 1]]), IntMatrix([[0, 0, 0], [0, 0, 0], [1, 0, 1]])),
    ]
    for x, y in mismatched:
        for a, b in ((x, y), (y, x)):
            assert decide(a, b).to_json_obj() == {
                "status": "NOT_CONJUGATE",
                "reason": "charpoly-mismatch",
                "certificates": {},
            }
    rng = random.Random(5)
    for _ in range(6):
        x = random_split_conjugate(rng.randint(2, 4), rng)
        u = random_sl(x.nrows, rng)
        assert decide(x, u * x * unimodular_inverse(u)).status == "CONJUGATE"
    assert calls == []
    # a split matrix against a non-split one with the same characteristic
    # polynomial: charpoly runs, and the verdict is the one of the
    # non-split route
    jordan2 = IntMatrix([[1, 1], [0, 1]])
    jordan3 = IntMatrix([[1, 1, 0], [0, 1, 0], [0, 0, 2]])
    for x, y in ((IntMatrix.identity(2), jordan2), (IntMatrix.diagonal([1, 1, 2]), jordan3)):
        for a, b in ((x, y), (y, x)):
            calls.clear()
            v = decide(a, b)
            assert len(calls) == 2
            if a.nrows == 2:
                assert (v.status, v.reason, v.note) == (
                    "NOT_CONJUGATE",
                    "bqf-certificate",
                    "determinant form vanishes identically",
                )
            else:
                assert (v.status, v.reason) == ("UNKNOWN", "unsupported")
    # non-split on both sides with unequal characteristic polynomials
    assert decide(jordan2, IntMatrix([[1, 1], [0, 2]])).reason == "charpoly-mismatch"


def test_decide_reads_y_spectrum_at_x_eigenvalues(monkeypatch):
    # y's spectrum comes from x's eigenvalues: one minimal polynomial per
    # decide on split pairs with one spectrum, and where y falls back
    # (not diagonalizable with x's characteristic polynomial, a proper
    # subset of x's eigenvalues, not split) the verdict is the one with
    # both spectra computed on their own
    rng = random.Random(59)
    mus = []
    minimal_polynomial = spectral.minimal_polynomial
    monkeypatch.setattr(spectral, "minimal_polynomial", lambda m: mus.append(m) or minimal_polynomial(m))
    for _ in range(8):
        vals = rng.sample(range(-6, 7), rng.randint(2, 3))
        x = hidden(IntMatrix.diagonal(vals + rng.choices(vals, k=rng.randint(0, 2))), rng)
        mus.clear()
        assert decide(x, hidden(x, rng)).status == "CONJUGATE"
        assert len(mus) == 1
    fallbacks = [
        (IntMatrix.diagonal([1, 1, 2]), IntMatrix([[1, 1, 0], [0, 1, 0], [0, 0, 2]]), "unsupported", 2),
        (IntMatrix.diagonal([0, 1, 2]), hidden(IntMatrix.diagonal([0, 0, 1]), rng), "charpoly-mismatch", 2),
        (IntMatrix.diagonal([1, -1]), IntMatrix([[0, 2], [-3, 0]]), "charpoly-mismatch", 2),
        (IntMatrix.identity(2), IntMatrix([[1, 1], [0, 1]]), "bqf-certificate", 2),
    ]
    got = []
    for x, y, reason, calls in fallbacks:
        mus.clear()
        v = decide(x, y)
        assert (v.reason, len(mus)) == (reason, calls)
        got.append(v.to_json_obj())
    monkeypatch.setattr(conjugacy, "_split_spectra", lambda x, y: (split_spectrum(x), split_spectrum(y)))
    assert got == [decide(x, y).to_json_obj() for x, y, _, _ in fallbacks]


def test_decide_checks_the_closed_form_once(monkeypatch):
    # C D's intertwining products run once, at the first base.  Pairs
    # that reach them have three eigenvalues, so there is always a base
    lattices, products = [], []
    build = conjugacy.intertwiner_lattice

    def recorded(*args, **kwargs):
        lattices.append(build(*args, **kwargs))
        return lattices[-1]

    monkeypatch.setattr(conjugacy, "intertwiner_lattice", recorded)
    mul = IntMatrix.__mul__
    monkeypatch.setattr(IntMatrix, "__mul__", lambda a, b: products.append((a, b)) or mul(a, b))
    rng = random.Random(61)
    for vals, bases in (([0, 2, 6], [2, 3]), ([0, 6, 10], [2, 3, 5])):
        x = IntMatrix.diagonal(vals)
        lattices.clear(), products.clear()
        v = decide(x, hidden(x, rng), search_dim_cap=0)
        cd = lattices[0].closed_form
        assert [lv.prime for lv in v.local] == bases
        assert sum(cd in pair for pair in products) == 2


def test_closed_form_that_does_not_intertwine_is_refused(monkeypatch):
    # Y's eigenbases with the columns of eigenvalues 0 and 2 swapped: B D
    # = q I does not read C, so C D X = Y C D is the check that sees them
    x = IntMatrix.diagonal([0, 2, 6])
    y = hidden(x, random.Random(62))
    calls, eigenbases = [], conjugacy._eigenbases

    def swapped(m, sp):
        basis, blocks = eigenbases(m, sp)
        calls.append(m)
        return (basis[:, [1, 0, 2]] if len(calls) == 2 else basis), blocks

    monkeypatch.setattr(conjugacy, "_eigenbases", swapped)
    with pytest.raises(CertificateError, match="does not intertwine"):
        decide(x, y)


def test_decide_identical_input():
    v = decide(X1, X1)
    assert v.status == "CONJUGATE"
    assert v.conjugator == IntMatrix.identity(2)


def test_decide_conjugate_pairs_explicit():
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randint(2, 6)
        x = random_split_conjugate(n, rng)
        u = random_sl(n, rng)
        y = u * x * unimodular_inverse(u)
        v = decide(x, y)
        assert v.status == "CONJUGATE"
        assert v.conjugator is not None
        assert verify_conjugator(v.conjugator, x, y)


def test_decide_swapped_route():
    # only Y meets the exponent condition, so the pair cannot be conjugate
    x = IntMatrix([[-3, 2, 0], [0, 3, 0], [0, 0, 0]])
    y = IntMatrix.diagonal([-3, 3, 0])
    assert check_assumption(x).per_index != check_assumption(y).per_index
    v = decide(x, y)
    assert v.swapped and v.to_json_obj()["swapped"] is True
    assert v.status == "NOT_CONJUGATE"
    assert v.reason == "local-obstruction"
    by_prime = {lv.prime: lv for lv in v.local}
    assert (by_prime[2].status, by_prime[2].method) == ("PASS", "closed-form")
    assert verify_conjugator(by_prime[2].certificate, x, y, prime=2)
    assert by_prime[3].status == "FAIL"


def test_certificate_checks_survive_optimize():
    # under python -O a failed re-check must still raise, not be skipped
    code = (
        "import dataclasses\n"
        "import zconj.conjugacy as c\n"
        "import zconj.spectral as s\n"
        "from zconj.matrix import IntMatrix\n"
        "assert False, 'asserts are live'\n"
        "x = IntMatrix.diagonal([1, 3])\n"
        # projector identities that fail on a split matrix
        "check = s._check_projector_identities\n"
        "s._check_projector_identities = lambda *args: False\n"
        "try:\n"
        "    s.split_spectrum(x)\n"
        "except c.CertificateError:\n"
        "    print('CertificateError')\n"
        "s._check_projector_identities = check\n"
        # x's spectrum listed in the other order: a consistent spectrum,
        # and y's is read at x's eigenvalues in that order, so only the
        # explicit comparison in decide can object
        "split = c.split_spectrum\n"
        "def reordered(m):\n"
        "    sp = split(m)\n"
        "    if m != x:\n"
        "        return sp\n"
        "    fields = ('eigenvalues', 'multiplicities', 'idempotents', 'scales')\n"
        "    return dataclasses.replace(sp, **{f: getattr(sp, f)[::-1] for f in fields})\n"
        "c.split_spectrum = reordered\n"
        "try:\n"
        "    c.decide(x, IntMatrix([[1, 2], [0, 3]]))\n"
        "except c.CertificateError:\n"
        "    print('CertificateError')\n"
        "c.split_spectrum = split\n"
        # a conjugate pair whose built conjugator is doubled inside
        # _glue_route, which certifies it
        "glue = lambda n: IntMatrix([[0, 0] + n[0], [0, 0] + n[1], [0, 0, 5, 0], [0, 0, 0, 5]])\n"
        "block = c._glue_block\n"
        "c._glue_block = lambda *args: (lambda v, v_inv, n: (2 * v, v_inv, n))(*block(*args))\n"
        "try:\n"
        "    c.decide(glue([[1, 0], [0, 1]]), glue([[4, 0], [0, 1]]))\n"
        "except c.CertificateError:\n"
        "    print('CertificateError')\n"
        "c._glue_block = block\n"
        "c.verify_conjugator = lambda *args, **kwargs: False\n"
        "try:\n"
        "    c.decide(IntMatrix([[1, 2], [0, 3]]), x)\n"
        "except c.CertificateError:\n"
        "    print('CertificateError')\n"
        # C = [[1, 1], [0, 2]] mod 2 spans only (1, 1): the row (0, 0 | 1, 0)
        # added to the Howell rows of [I | C] is outside its span, and G
        # without its one row, past the certificate, fails the congruences
        # on C's rows
        "import numpy as np\n"
        "x3 = IntMatrix([[1, 1], [0, 3]])\n"
        "howell = c._howell_rows\n"
        "def extra(a, q):\n"
        "    return {**howell(a, q), 2: np.eye(3, dtype=a.dtype)[2]} if a.shape[1] == 4 else howell(a, q)\n"
        "c._howell_rows = extra\n"
        "try:\n"
        "    c.intertwiner_lattice(x3, x3)\n"
        "except c.CertificateError as e:\n"
        "    print('CertificateError' if 'outside the row span' in str(e) else e)\n"
        "c._howell_rows = howell\n"
        "span = c._row_span\n"
        "c._row_span = lambda a, q: span(a, q)[1:]\n"
        "try:\n"
        "    c.intertwiner_lattice(x3, x3)\n"
        "except c.CertificateError as e:\n"
        "    print('CertificateError' if 'congruences' in str(e) else e)\n"
        "c._row_span = span\n"
        # D's column span mod q without its one Howell row
        "c._howell_rows = lambda a, q: {}\n"
        "try:\n"
        "    c.intertwiner_lattice(IntMatrix([[1, 1], [0, 3]]), IntMatrix([[1, 1], [0, 3]]))\n"
        "except c.CertificateError:\n"
        "    print('CertificateError')\n"
        # sl_lift with a wrong inverse never reaches the identity
        "c.inv_mod = lambda a, q: 1\n"
        "try:\n"
        "    c.sl_lift(IntMatrix([[2, 0], [0, 3]]), 5)\n"
        "except c.CertificateError:\n"
        "    print('CertificateError')\n"
        # a witness that does not evaluate to a unit
        "import zconj.forms as f\n"
        "try:\n"
        "    f._witness(f.BinaryQuadraticForm(2, 0, 3), 1, 0)\n"
        "except c.CertificateError:\n"
        "    print('CertificateError')\n"
        "try:\n"
        "    f._unit_by_cycle(f.BinaryQuadraticForm(1, 0, -4))\n"
        "except ValueError:\n"
        "    print('ValueError')\n"
        # graphs: projectors that are not idempotent, inputs out of range
        "import zconj.graphs as g\n"
        "try:\n"
        "    g._projector_triple(IntMatrix.identity(4).array, 3, 1, 1, -2)\n"
        "except c.CertificateError:\n"
        "    print('CertificateError')\n"
        "for bad in (\n"
        "    lambda: g.FieldSpec(3, 1, (1, 0, 1)),\n"
        "    lambda: g.quarter_cosets(g.FieldSpec(2, 1, (1, 1, 1))),\n"
        "    lambda: g._difference_graph(g.field_build(3, 2), [1]),\n"
        "):\n"
        "    try:\n"
        "        bad()\n"
        "    except ValueError:\n"
        "        print('ValueError')\n"
        # padic: a ring whose powers are wrong, a wrong digit sum
        "import zconj.padic as pa\n"
        "ring = pa.TruncatedUnramifiedRing(3)\n"
        "ring.pow = lambda z, e: ring.zero\n"
        "try:\n"
        "    pa.teichmuller(1, ring)\n"
        "except c.CertificateError:\n"
        "    print('CertificateError')\n"
        "pa.digit_sum = lambda j, p: 1\n"
        "try:\n"
        "    pa.c_of_j(1, 3)\n"
        "except c.CertificateError:\n"
        "    print('CertificateError')\n"
        # modular: a pivot that is a zero divisor mod 1009 * 1013, and a
        # cofactor that trial division cannot certify
        "import zconj.modular as mo\n"
        "try:\n"
        "    mo.det_mod([[1009, 0], [0, 1]], 1009 * 1013)\n"
        "except mo._ZeroDivisor:\n"
        "    print('ZeroDivisor')\n"
        "try:\n"
        "    mo.prime_factors(1009 * 1013)\n"
        "except ValueError:\n"
        "    print('ValueError')\n"
    )
    r = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True,
        text=True,
        env=subprocess_env(),
    )
    assert r.returncode == 0, r.stderr
    expected = ["CertificateError"] * 9 + ["ValueError"]
    expected += ["CertificateError"] + ["ValueError"] * 3  # graphs
    expected += ["CertificateError"] * 2  # padic
    expected += ["ZeroDivisor", "ValueError"]  # modular
    assert r.stdout.split() == expected


def test_two_by_two_lattices_with_equal_charpoly_have_rank_two():
    # the only rank the 2x2 endgame accepts: split pairs, irreducible
    # non-split pairs, and a scalar aI against a conjugate of a Jordan block
    rng = random.Random(83)
    pairs = []
    for _ in range(8):
        u = random_sl(2, rng)
        a, b = rng.sample(range(-6, 7), 2)
        x = IntMatrix([[a, rng.randint(-6, 6)], [0, b]])
        pairs.append((x, u * IntMatrix([[b, rng.randint(-6, 6)], [0, a]]) * unimodular_inverse(u)))
        ac, t = rng.randint(1, 12), rng.randint(-6, 6)
        ac *= t * t // (4 * ac) + 1  # t^2 < 4 ac: no real root
        d = rng.choice([d for d in range(1, ac + 1) if ac % d == 0])
        pairs.append((IntMatrix([[0, d], [-(ac // d), t]]), IntMatrix([[0, 1], [-ac, t]])))
        jordan = u * IntMatrix([[a, rng.choice((-3, -1, 1, 2))], [0, a]]) * unimodular_inverse(u)
        pairs += [(IntMatrix.diagonal([a, a]), jordan), (jordan, IntMatrix.diagonal([a, a]))]
    for x, y in pairs:
        assert charpoly(x.array) == charpoly(y.array)
        assert intertwiner_lattice(x, y).rank == 2
        assert decide(x, y).status in ("CONJUGATE", "NOT_CONJUGATE", "UNKNOWN")


def test_decide_form_budget(monkeypatch):
    # an indefinite determinant form: the cycle walk decides it, and past
    # its step cap decide answers UNKNOWN form-budget, not an error
    x, y = IntMatrix([[0, 1], [6, 0]]), IntMatrix([[0, 2], [3, 0]])
    assert decide(x, y).reason in ("bqf-certificate", "explicit-conjugator")
    monkeypatch.setattr(forms, "_CYCLE_STEPS", 1)
    v = decide(x, y)
    assert (v.status, v.reason) == ("UNKNOWN", "form-budget")
    assert v.bqf is not None and "cycle walk" in v.note
    monkeypatch.setattr(forms, "_REDUCTION_STEPS", 0)
    assert decide(x, y).reason == "form-budget"
    with pytest.raises(forms.FormBudget):
        forms.bqf_represents_unit(forms.BinaryQuadraticForm(7, 1, -11))


def test_conjugator_search_adjacency_route():
    # a 5-cycle against a relabeling: the search walks the graph
    # isomorphism route and returns a permutation matrix
    c5 = [[0] * 5 for _ in range(5)]
    for i in range(5):
        c5[i][(i + 1) % 5] = 1
        c5[(i + 1) % 5][i] = 1
    x = IntMatrix(c5)
    perm = [2, 0, 3, 1, 4]
    p_rows = [[0] * 5 for _ in range(5)]
    for u in range(5):
        p_rows[perm[u]][u] = 1
    p = IntMatrix(p_rows)
    y = p * x * unimodular_inverse(p)
    t = conjugator_search(intertwiner_lattice(x, y))
    assert t is not None
    assert verify_conjugator(t, x, y)
    assert all(v in (0, 1) for row in t.to_lists() for v in row)


def adjacency(n, edges):
    a = np.zeros((n, n), dtype=np.int64)
    for u, v in edges:
        a[u, v] = a[v, u] = 1
    return a


def test_graph_isomorphism_exits():
    # C6 against two triangles: equal degrees, every branch undone and no
    # bijection; a path against a star: the degree sequences differ; a
    # relabelled Paley(9): found, but not within a budget of one node
    c6 = adjacency(6, [(i, (i + 1) % 6) for i in range(6)])
    triangles = adjacency(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    assert conjugacy._graph_isomorphism(c6, triangles, 1000) is None
    path, star = adjacency(4, [(0, 1), (1, 2), (2, 3)]), adjacency(4, [(0, 1), (0, 2), (0, 3)])
    assert conjugacy._graph_isomorphism(path, star, 1000) is None
    x = paley_adjacency(field_build(3, 2)).array
    perm = random.Random(7).sample(range(9), 9)
    y = x[np.ix_(np.argsort(perm), np.argsort(perm))]
    found = conjugacy._graph_isomorphism(x, y, 1000)
    assert found is not None and all(x[u, v] == y[found[u], found[v]] for u in range(9) for v in range(9))
    assert conjugacy._graph_isomorphism(x, y, 1) is None


def test_conjugator_search_trivial_exits():
    # equal endpoints give the identity, and a lattice of rank 0 nothing
    x = IntMatrix.diagonal([1, 2])
    assert conjugator_search(intertwiner_lattice(x, x)) == IntMatrix.identity(2)
    lattice = intertwiner_lattice(x, IntMatrix.diagonal([3, 4]))
    assert lattice.rank == 0 and conjugator_search(lattice) is None


def test_conjugator_search_matches_sequential_oracle():
    # the stacked filters against one candidate at a time, at budget cuts
    # inside each stage; without an aligned intertwiner every stage runs.
    # A repeated element gives a zero Gram-Schmidt vector, which skips the
    # enumeration; a conjugator put first is a hit of the basis scan
    rng = random.Random(79)
    seen = set()
    for _ in range(10):
        x, y = glue_pair(rng)
        basis = intertwiner_lattice(x, y).basis
        lattices = [IntertwinerLattice(4, obj([flat(t) for t in b]), x, y) for b in (basis, basis + basis[:1])]
        found = conjugator_search(lattices[0], budget=300)
        if found is not None:
            lattices.append(IntertwinerLattice(4, obj([flat(t) for t in (found,) + basis]), x, y))
        for lattice in lattices:
            for budget, seed in ((1, 0), (8, 0), (9, 1), (17, 0), (300, 0), (300, 1)):
                t, stage = conjugator_search_sequential(lattice, budget, seed)
                assert conjugator_search(lattice, budget, seed) == t
                seen.add(stage)
    assert seen == {None, "basis", "reduced", "enumeration", "random"}


def test_conjugator_search_above_lll_rank_matches_sequential_oracle(monkeypatch):
    # 70 elements U (a_k I_8 + N_k) (+) a_k U of C(X, U X U^-1), X = 0_8 (+) 1,
    # with N_k strictly upper triangular and a_k in {0, 2, 3}: none is
    # unimodular, and a combination is exactly when sum c_k a_k = +-1.
    # Past 64 elements LLL does not run, so the det_mod filter sees each
    # element once, then the random stage's chunks up to the budget
    rng = random.Random(83)
    u, u_inv = IntMatrix.identity(9), IntMatrix.identity(9)
    for _ in range(12):
        i, j = rng.sample(range(9), 2)
        lam = rng.choice((-1, 1))
        u = u * IntMatrix([[int(r == c) + lam * ((r, c) == (i, j)) for c in range(9)] for r in range(9)])
        u_inv = IntMatrix([[int(r == c) - lam * ((r, c) == (i, j)) for c in range(9)] for r in range(9)]) * u_inv
    x = IntMatrix.diagonal([0] * 8 + [1])
    y = u * x * u_inv
    assert x != y
    elements = []
    for _ in range(70):
        a = rng.choice((0, 2, 3))
        s = [[a * (r == c) + (rng.randint(-1, 1) if c > r and c < 8 else 0) for c in range(9)] for r in range(9)]
        elements.append(flat(u * IntMatrix(s)))
    lattice = IntertwinerLattice(9, obj(elements), x, y)
    stacks = []

    def recording(ts, p):
        if p == conjugacy._DET_FILTER_PRIME:
            stacks.append(len(ts))
        return det_mod(ts, p)

    monkeypatch.setattr(conjugacy, "det_mod", recording)
    cap = 16384 // 81
    seen = set()
    for budget, seed in ((70, 0), (71, 0), (80, 1), (200, 0), (200, 1), (200, 2), (600, 3)):
        t, stage = conjugator_search_sequential(lattice, budget, seed)
        del stacks[:]
        assert conjugator_search(lattice, budget, seed) == t
        chunks = [hi - lo for lo, hi in conjugacy._chunks(budget - 70, cap)]
        assert stacks[0] == 70 and stacks[1:] == chunks[: len(stacks) - 1]
        if t is None:
            assert sum(stacks) == budget
        seen.add(stage)
    assert seen == {None, "random"}


def test_decide_non_square_rejected():
    with pytest.raises(ValueError):
        decide(IntMatrix([[1, 2]]), IntMatrix([[1], [2]]))


def test_scaled_inverse_matches_fraction_oracle():
    # entries and scales past 2^62 included; singular and non-integral
    # inputs raise the same CertificateError
    rng = random.Random(21)
    for _ in range(150):
        n = rng.randint(1, 7)
        bound = rng.choice((3, 50, 2**31, 2**62, 2**70))
        m = IntMatrix([[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)])
        scale = rng.choice((1, 6, 2**63, abs(det_small(m.to_lists())) or 1))
        try:
            expected = scaled_inverse_fraction(m, scale)
        except CertificateError as exc:
            with pytest.raises(CertificateError, match=str(exc)):
                _scaled_inverse(m.array, scale)
            continue
        d_mat, d = _scaled_inverse(m.array, scale)
        assert (IntMatrix(d_mat), d) == (expected, det_small(m.to_lists()))
        assert (obj(m) @ obj(expected) == np.eye(n, dtype=object) * scale).all()


def decide_in_subprocess(x, y, timeout, **kwargs):
    """Verdict JSON of decide on the integer rows x and y, run in a new
    interpreter under a timeout.
    """
    code = (
        "import json\n"
        "from zconj import IntMatrix, decide\n"
        "v = decide(IntMatrix(%r), IntMatrix(%r), **%r)\n"
        "print(json.dumps(v.to_json_obj()))\n" % (x, y, kwargs)
    )
    r = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=subprocess_env(),
        timeout=timeout,
    )
    assert r.returncode == 0, r.stderr
    return json.loads(r.stdout)


def assert_verified_or_named(verdict, x, y):
    """The verdict JSON of decide(x, y) for a conjugate pair: CONJUGATE
    with certificates that re-verify, or UNKNOWN naming its blocker."""
    x, y, certs = IntMatrix(x), IntMatrix(y), verdict["certificates"]
    assert verdict["status"] in ("CONJUGATE", "UNKNOWN")
    if verdict["status"] == "UNKNOWN":
        assert verdict["reason"] in ("assumption-unverified", "local-undecided")
    elif verdict["reason"] == "explicit-conjugator":
        assert verify_conjugator(IntMatrix.from_json_obj(certs["conjugator"]), x, y)
    for lv in certs.get("local", ()):
        assert lv["status"] in ("PASS", "UNDECIDED")
        if "T" in lv:
            assert verify_conjugator(IntMatrix.from_json_obj(lv["T"]), x, y, prime=int(lv["p"]))


def test_three_eigenvalue_probe_returns():
    # n = 12, eigenvalues -3, 0 and 25 four times each, 4-digit inputs:
    # kernel_basis's rows of the eigenlattices have hundreds of digits, and
    # the decide did not return within minutes on them; on their LLL
    # reductions it takes 7-10 s at the default budgets
    x, y = (m.to_lists() for m in three_eigenvalue_probe(12, 1))
    assert_verified_or_named(decide_in_subprocess(x, y, timeout=60), x, y)


def test_bit_size_pair_returns():
    # n = 6 with gaps of 256 bits: about 1 s with reduced eigenbases,
    # against 25 s on kernel_basis's rows (2-core x86-64 host)
    x, y = (m.to_lists() for m in bit_size_pair(256, 1))
    verdict = decide_in_subprocess(x, y, timeout=10)
    assert verdict["status"] == "CONJUGATE"
    assert_verified_or_named(verdict, x, y)


def test_decide_huge_eigenvalue_gap_without_trial_division():
    # the constant term of the minimal polynomial is 0 and its other
    # coefficient 3^40: the root search must not enumerate divisors.  The
    # 2x2 pair takes the glue route; with a third eigenvalue -1 the local
    # tests run, and 3 is an obstruction
    x, y = [[0, 5], [0, 3**40]], [[0, 0], [0, 3**40]]
    verdict = decide_in_subprocess(x, y, timeout=60)
    assert (verdict["status"], verdict["reason"]) == ("NOT_CONJUGATE", "glue-invariant")
    verdict = decide_in_subprocess(direct_sum(x, -1), direct_sum(y, -1), timeout=60)
    assert (verdict["status"], verdict["reason"]) == ("NOT_CONJUGATE", "local-obstruction")
    assert [(lv["p"], lv["status"], lv["method"]) for lv in verdict["certificates"]["local"]] == [
        ("2", "PASS", "closed-form"),
        ("3", "FAIL", "exhaustive"),
    ]


def test_decide_stops_at_first_local_fail():
    # eigenvalue gaps a - 1 = 2 * 131 * 521 * 73259, a and 1; p = 2 already FAILs
    a = 10**10 + 19
    v = decide(IntMatrix(direct_sum([[1, 1], [0, a]], 0)), IntMatrix.diagonal([1, a, 0]))
    assert v.status == "NOT_CONJUGATE"
    assert v.reason == "local-obstruction"
    assert [(lv.prime, lv.status, lv.method) for lv in v.local] == [(2, "FAIL", "exhaustive")]


def test_decide_square_discriminant_without_trial_division():
    # the form's |a| is about s/2: trial division to sqrt(4|a|) takes
    # seconds, and the factor system needs none.  decide answers by the
    # glue route (class 1 against 2 mod s); with a third eigenvalue -1 the
    # gap s is one base, which a local test passes whole
    s = 1000000007 * 1000003
    x, y = IntMatrix([[0, 1], [0, s]]), IntMatrix([[0, 2], [0, s]])
    t0 = time.monotonic()
    rep = forms.bqf_represents_unit(bqf_from_lattice(intertwiner_lattice(x, y)))
    assert time.monotonic() - t0 < 1.0
    assert (rep.represents, rep.proof) == (False, "factor-system")
    assert decide(x, y).reason == "glue-invariant"
    x, y = (IntMatrix(direct_sum(m.to_lists(), -1)) for m in (x, y))
    v = decide(x, y, search_budget=1000)
    assert time.monotonic() - t0 < 1.0
    bases = [2, 3, (s + 1) // 6, s]
    assert [(lv.prime, lv.status) for lv in v.local] == [(b, "PASS") for b in bases]


def test_decide_factors_large_eigenvalue_gaps():
    # the gap (2^31 - 1)(2^61 - 1) is out of reach of trial division and
    # is tested as one base, until a glue entry 2^31 - 1 shows a zero
    # divisor there; the third eigenvalue -1 adds the bases 2 and (pq + 1)/2
    p, q = 2**31 - 1, 2**61 - 1
    first = [("2", "PASS"), (str((p * q + 1) // 2), "PASS")]
    for glue, local in ((1, [(str(p * q), "UNDECIDED")]), (p, [(str(p), "PASS"), (str(q), "UNDECIDED")])):
        x, y = direct_sum([[0, glue], [0, p * q]], -1), direct_sum([[0, 0], [0, p * q]], -1)
        verdict = decide_in_subprocess(x, y, timeout=10, search_budget=1000)
        assert (verdict["status"], verdict["reason"]) == ("UNKNOWN", "local-undecided")
        assert [(lv["p"], lv["status"]) for lv in verdict["certificates"]["local"]] == first + local


# two primes near 2^60: trial division leaves their product as one base
HARD_SEMIPRIME = 1152921504606846883 * 1152921504606847009


def test_decide_past_factorization_budget():
    s = HARD_SEMIPRIME

    def run(x, y, **kwargs):
        v = decide_in_subprocess(x, y, timeout=30, **kwargs)
        local = [(lv["p"], lv["status"]) for lv in v["certificates"].get("local", [])]
        return v["status"], v["reason"], local

    # the 2x2 pair: the glue route decides before any base is tested
    assert run([[0, 1], [0, s]], [[0, 0], [0, s]]) == ("NOT_CONJUGATE", "glue-invariant", [])
    # with a third eigenvalue the obstruction at 2 comes first
    assert run(direct_sum([[0, 1], [0, 2 * s]], -1), direct_sum([[0, 0], [0, 2 * s]], -1)) == (
        "NOT_CONJUGATE",
        "local-obstruction",
        [("2", "FAIL")],
    )
    # the theorem needs a PASS at every base; the search finds a
    # conjugator when there is one, and UNKNOWN names the blocker when not
    y = [[0, 0, 0], [0, s, 0], [0, 0, -1]]
    status, reason, local = run([[0, s, 0], [0, s, 0], [0, 0, -1]], y, search_budget=1000)
    assert (status, reason) == ("CONJUGATE", "explicit-conjugator")
    status, reason, local = run([[0, 1, 0], [0, s, 0], [0, 0, -1]], y, search_budget=1000)
    assert (status, reason) == ("UNKNOWN", "local-undecided")
    assert [st for p, st in local if p == str(s)] == ["UNDECIDED"]
    assert all(st == "PASS" for p, st in local if p != str(s))
    # at the gap (2^31 - 1)(2^61 - 1) the reduced lattice has Gram-Schmidt
    # norms 1, 1 and about 10^55, so the enumeration's lower levels span
    # about 10^27 coefficients each, and in its second round none is a new
    # point: only a budget that counts every node walked ends the search
    d = (2**31 - 1) * (2**61 - 1)
    assert run([[0, 1, 0], [0, d, 0], [0, 0, -1]], [[0, 0, 0], [0, d, 0], [0, 0, -1]]) == (
        "UNKNOWN",
        "local-undecided",
        [("2", "PASS"), (str((d + 1) // 2), "PASS"), (str(d), "UNDECIDED")],
    )


def test_decide_on_gaps_trial_division_cannot_finish(monkeypatch):
    # eigenvalue gaps d = P Q with no prime factor below 1000: d is one
    # base, and a glue entry P makes a block determinant a zero divisor
    # mod d, which splits it.  Every local certificate is re-checked at
    # its base on Python ints
    calls = []
    monkeypatch.setattr(conjugacy, "_refine", lambda parts: calls.append(parts) or modular._refine(parts))

    def check(x, y, status, reason, undecided):
        del calls[:]
        v = decide(IntMatrix(x), IntMatrix(y), search_budget=1000)
        assert (v.status, v.reason) == (status, reason)
        assert [lv.prime for lv in v.local if lv.status == "UNDECIDED"] == undecided
        for lv in v.local:
            assert lv.status != "FAIL"
            if lv.status == "PASS":
                t = lv.certificate.to_lists()
                assert (obj(t) @ obj(x) == obj(y) @ obj(t)).all()
                assert gcd(det_bareiss(t) % lv.prime, lv.prime) == 1
        return [lv.prime for lv in v.local], len(calls)

    for p, q in ((1009, 1013), (2**31 - 1, 2**61 - 1), (1152921504606846883, 1152921504606847009)):
        d = p * q
        y = [[0, 0, 0], [0, d, 0], [0, 0, -1]]
        bases, refines = check([[0, d, 0], [0, d, 0], [0, 0, -1]], y, "CONJUGATE", "explicit-conjugator", [])
        assert d in bases and refines == 1
        bases, refines = check([[0, p, 0], [0, d, 0], [0, 0, -1]], y, "UNKNOWN", "local-undecided", [q])
        assert p in bases and d not in bases and refines == 2
        bases, refines = check([[0, 1, 0], [0, d, 0], [0, 0, -1]], y, "UNKNOWN", "local-undecided", [d])
        assert bases[-1] == d and refines == 1
