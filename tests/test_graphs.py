"""Square-order fields, Paley/Peisert graphs and the invariant lemma."""

import numpy as np
import pytest

from zconj.conjugacy import decide, intertwiner_lattice, verify_conjugator
from zconj.graphs import (
    NotThreeModFour,
    _poly_mul_mod,
    _projector_triple,
    _root_is_primitive,
    expected_invariant_counts,
    field_build,
    paley_adjacency,
    paley_idempotent_data,
    peisert_adjacency,
    quarter_cosets,
    verify_smith_lemma,
)
from zconj.linalg import charpoly
from zconj.matrix import CertificateError, IntMatrix
from zconj.modular import NotScaledIdempotent, _idempotent_invariants, scaled_idempotent_invariants
from zconj.spectral import check_assumption, split_spectrum


def test_field_build_deterministic_modulus():
    f3 = field_build(3, 2)
    assert (f3.p, f3.t, f3.q) == (3, 1, 9)
    # ascending coefficients: t^2 + t + 2
    assert f3.modulus == (2, 1, 1)
    assert f3.beta == 3
    assert field_build(3, 2).modulus == f3.modulus


def test_modulus_root_must_be_primitive():
    # t^2 + 1 is irreducible over Z/3 but its root has order 4, so the
    # scan must pass it over
    assert not _root_is_primitive((1, 0, 1), 3, 9)


def test_field_build_rejections():
    with pytest.raises(NotThreeModFour):
        field_build(5, 2)
    with pytest.raises(ValueError):
        field_build(3, 3)  # odd degree
    with pytest.raises(ValueError):
        field_build(9, 2)  # composite p


def test_field_tables():
    f3 = field_build(3, 2)
    assert sorted(f3.exp) == list(range(1, 9))
    assert f3.power(f3.beta, 8) == 1
    assert f3.power(f3.beta, 4) != 1
    for a in range(9):
        for b in range(9):
            assert f3.mul(a, b) == f3.mul(b, a)
    assert f3.mul(0, 5) == 0


def test_quarter_cosets():
    cosets = quarter_cosets(field_build(3, 2))
    assert [len(c) for c in cosets] == [2, 2, 2, 2]
    assert sorted(v for c in cosets for v in c) == list(range(1, 8 + 1))


def test_paley_adjacency_spectrum():
    x9 = paley_adjacency(field_build(3, 2))
    assert x9.nrows == 9
    assert all(sum(r) == 4 for r in x9.to_lists())
    sp = split_spectrum(x9)
    assert sp.eigenvalues == (-2, 1, 4)
    assert sp.multiplicities == (4, 4, 1)


def test_peisert_cospectral_not_equal():
    f3 = field_build(3, 2)
    x9, xs9 = paley_adjacency(f3), peisert_adjacency(f3)
    assert all(sum(r) == 4 for r in xs9.to_lists())
    assert x9 != xs9
    assert charpoly(x9.array) == charpoly(xs9.array)


def test_projector_closed_form():
    # at p = 3: E2 = -2J + 3X + 6I with trace 36
    data = paley_idempotent_data(3)
    x9 = paley_adjacency(field_build(3, 2))
    j = np.ones((9, 9), dtype=object)
    assert data.E2 == IntMatrix(j * (-2) + x9.array.astype(object) * 3 + np.eye(9, dtype=object) * 6)
    assert data.E2.array.trace() == 36
    assert (data.k, data.r, data.s) == (4, 1, -2)


def test_smith_lemma_small():
    rep = verify_smith_lemma(3)
    assert rep.ok
    for entry in rep.entries:
        assert entry.invariants == (1, 3, 3, 9)
    assert expected_invariant_counts(3) == (1, 2, 1)
    assert expected_invariant_counts(7) == (1, 14, 9)
    assert expected_invariant_counts(11) == (1, 34, 25)


def test_assumption_clause_b():
    for build in (paley_adjacency, peisert_adjacency):
        rep = check_assumption(build(field_build(3, 2)))
        assert rep.holds and rep.clause_b


def test_self_intertwiner_rank():
    # rank over a field equals the sum of squared multiplicities
    x9 = paley_adjacency(field_build(3, 2))
    assert intertwiner_lattice(x9, x9).rank == 1 + 16 + 16


def test_decide_nine_vertex_pair():
    f3 = field_build(3, 2)
    x9, xs9 = paley_adjacency(f3), peisert_adjacency(f3)
    v = decide(x9, xs9)
    assert v.status == "CONJUGATE"
    assert v.conjugator is not None
    assert verify_conjugator(v.conjugator, x9, xs9)


def test_degree_four_field_graphs():
    f81 = field_build(3, 4)
    assert f81.q == 81
    assert all(sum(r) == 40 for r in paley_adjacency(f81).to_lists())
    assert all(sum(r) == 40 for r in peisert_adjacency(f81).to_lists())


def test_peisert_beta_choice():
    # a primitive element from the other odd power class gives a
    # different adjacency matrix, cospectral, with identical projector
    # Smith invariants
    from math import gcd

    f7 = field_build(7, 2)
    assert f7.log[f7.beta] == 1
    alt = next(
        f7.exp[i] for i in range(3, f7.q - 1, 4) if gcd(i, f7.q - 1) == 1
    )
    xs = peisert_adjacency(f7)
    xs_alt = peisert_adjacency(f7, beta=alt)
    assert xs != xs_alt
    assert charpoly(xs.array) == charpoly(xs_alt.array)
    k, r, s = 24, 3, -4
    _, e2a, e3a = _projector_triple(xs.array, 7, k, r, s)
    _, e2b, e3b = _projector_triple(xs_alt.array, 7, k, r, s)
    assert scaled_idempotent_invariants(e2a, 49) == scaled_idempotent_invariants(e2b, 49)
    assert scaled_idempotent_invariants(e3a, 49) == scaled_idempotent_invariants(e3b, 49)


def test_projector_triple_checks_the_identities():
    # one off-diagonal entry changed: the traces still match, so only
    # the projector identities can object
    x = paley_adjacency(field_build(3, 2)).array.copy()
    _projector_triple(x, 3, 4, 1, -2)
    x[0, 1] = 1 - x[0, 1]
    with pytest.raises(CertificateError, match="projector identities"):
        _projector_triple(x, 3, 4, 1, -2)


def test_peisert_beta_must_be_primitive():
    # 0, -1 and q are no element's index; f3.exp[2] has order dividing (q-1)/2
    f3 = field_build(3, 2)
    for beta in (0, -1, f3.q, f3.exp[2]):
        with pytest.raises(ValueError, match="beta must be primitive"):
            peisert_adjacency(f3, beta=beta)


def python_difference(field, i, j):
    """Index of i - j, digit by digit from FieldSpec.coeffs."""
    return sum((a - b) % field.p * field.p**t for t, (a, b) in enumerate(zip(field.coeffs(i), field.coeffs(j))))


@pytest.mark.parametrize("p, degree", [(3, 2), (7, 2), (11, 2), (3, 4)])
def test_difference_table_and_graphs_match_python(p, degree):
    field = field_build(p, degree)
    q = field.q
    table = [[python_difference(field, i, j) for j in range(q)] for i in range(q)]
    assert field.differences.tolist() == table
    assert field.differences.dtype == np.int16 and not field.differences.flags.writeable
    with pytest.raises(ValueError):
        field.differences[0, 1] = 0
    squares = {field.exp[i] for i in range(0, q - 1, 2)}
    quarters = {field.exp[i] for i in range(q - 1) if i % 4 < 2}  # U and beta U
    for adj, conn in ((paley_adjacency(field), squares), (peisert_adjacency(field), quarters)):
        assert adj.to_lists() == [[int(d in conn) for d in row] for row in table]
    assert field.differences is field.differences
    # the exp table by the x-recurrence is the one of repeated products
    cur, powers = (1,), []
    for _ in range(q - 1):
        powers.append(field._index(cur))
        cur = _poly_mul_mod(cur, (0, 1), field.modulus, p)
    assert field.exp == powers


@pytest.mark.parametrize("p", (3, 7, 11))
def test_lemma_invariants_match_the_checked_reading(p):
    # verify_smith_lemma skips E E = p^2 E for the projectors it certified;
    # the public reading, which multiplies, gives the same invariants
    data, report = paley_idempotent_data(p), verify_smith_lemma(p)
    for entry, e in zip(report.entries, (data.E2, data.E3, data.E2star, data.E3star)):
        assert entry.invariants == scaled_idempotent_invariants(e.array, p * p)
    # a matrix with the trace and rank of E2 that is no scaled idempotent
    # gets past the lemma's core, and the public reading rejects it
    bent = data.E2.array.copy()
    bent[0, 1] += 1
    _idempotent_invariants(bent, p * p)
    with pytest.raises(NotScaledIdempotent):
        scaled_idempotent_invariants(bent, p * p)
