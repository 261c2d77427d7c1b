"""Every exact product states a bound that covers it.

matrix.matmul picks float32, float64, int64 or Python ints from its
bound, which must cover max |a|, max |b| and max |a| max |b| k, k the
inner dimension.  The audit wraps matmul in every zconj module that
imports it, the binding IntMatrix.__mul__ calls included, runs the
decision procedure and the lemma checker, and checks each call's bound;
results are compared with a product on Python ints (a float operand
converted exactly, through int64) while a.size k <= 2 10^6, and both
float tiers must be among the calls compared.  modular.reduce_mod, the
residue kernel, is audited the same way: its call sites during a
theorem-25 decide, the lemma checker and a mixed-small round of the
benchmark are recorded, and each result is compared with Python's %.
"""

import importlib.util
import random
import sys
from pathlib import Path

import numpy as np
from helpers import hidden
from test_metamorphic import block_pairs, class_pairs, glued, swapped_pairs

import zconj
from zconj import modular
from zconj.graphs import field_build, paley_adjacency, peisert_adjacency, verify_smith_lemma
from zconj.matrix import IntMatrix, matmul, max_abs, product_dtype
from zconj.modular import reduce_mod

OBJECT_CHECK_LIMIT = 2 * 10**6


def paley25():
    """Adjacency of the Paley graph on F_25 = F_5[s]/(s^2 - 2)."""
    els = [(u, v) for u in range(5) for v in range(5)]
    squares = {((u * u + 2 * v * v) % 5, 2 * u * v % 5) for u, v in els if (u, v) != (0, 0)}
    return [[int(((a[0] - b[0]) % 5, (a[1] - b[1]) % 5) in squares) for b in els] for a in els]


def python_ints(v):
    return (v.astype(np.int64) if v.dtype.kind == "f" else v).astype(object)


def test_every_matmul_call_states_a_covering_bound(monkeypatch):
    sites, bad, compared = {}, [], set()

    def audited(a, b, bound):
        code = sys._getframe(1).f_code
        site = "%s:%s" % (Path(code.co_filename).stem, code.co_name)
        ma, mb, k = max_abs(a), max_abs(b), a.shape[-1]
        if bound < max(ma, mb, ma * mb * k):
            bad.append((site, bound, ma, mb, k))
        r = matmul(a, b, bound)
        if a.size * k <= OBJECT_CHECK_LIMIT:
            if not (r == python_ints(a) @ python_ints(b)).all():
                bad.append((site, "differs from the object product"))
            compared.add(product_dtype(bound))
        sites[site] = sites.get(site, 0) + 1
        return r

    for name, module in list(sys.modules.items()):
        if name.startswith("zconj") and getattr(module, "matmul", None) is matmul:
            monkeypatch.setattr(module, "matmul", audited)

    pairs = [(fx.x, fx.y) for fx in zconj.load_corpus()]
    rng = random.Random(61)
    for k in (1, 2):
        pairs += [(x, y) for x, y, _ in block_pairs(rng, k)[:3]]
        pairs += swapped_pairs(rng, k)[:2]
    # two-eigenvalue pairs past the aligned stage: a built conjugator and
    # glue classes that differ
    pairs += [(glued(0, 5, [[1, 0], [0, 1]]), glued(0, 5, [[4, 0], [0, 1]]))] + class_pairs(rng, 2)[:1]
    # non-split 2 x 2 pairs: the Sylvester kernel and the form endgame,
    # one representing a unit, so its witness is assembled
    x = IntMatrix([[0, 1], [-6, 0]])
    pairs += [(x, hidden(x, rng)), (IntMatrix([[0, 2], [-3, 0]]), IntMatrix([[0, 1], [-6, 0]]))]
    f9 = field_build(3, 2)
    pairs.append((paley_adjacency(f9), peisert_adjacency(f9)))
    a25 = np.array(paley25())
    perm = np.random.default_rng(3).permutation(25)
    pairs.append((IntMatrix(a25), IntMatrix(a25[perm][:, perm])))
    for x, y in pairs:
        zconj.decide(x, y)
    for p in (3, 7, 11):
        assert verify_smith_lemma(p).ok

    assert not bad, bad
    assert {np.float32, np.float64} <= compared, compared
    # the array call sites of the eigenbases, the Sylvester kernel, the
    # glue blocks and the built conjugator, the congruence read-off, the
    # compact lattice product (local test candidates and the form
    # witness), the projector check, the eliminator's flush, the public
    # idempotent check (through decide's check_assumption: the lemma
    # reads its certified projectors without it) and the boundary
    # re-check all ran
    expected = {
        "conjugacy:_eigenbasis",
        "conjugacy:_eigenblock_basis",
        "conjugacy:_glue_block",
        "conjugacy:_glue_route",
        "conjugacy:_sylvester_basis",
        "conjugacy:combine",
        "linalg:_kernel_basis_rref",
        "modular:_hermite_columns",
        "spectral:_check_projector_identities",
        "modular:scaled_idempotent_invariants",
        "modular:flush",
        "matrix:__mul__",
    }
    assert expected <= set(sites), expected - set(sites)


def benchmark_generator():
    """perfbench/gen.py, the benchmark's input generator (it imports no zconj)."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "gen.py"
    spec = importlib.util.spec_from_file_location("perfbench_gen", path)
    gen = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = gen  # dataclasses look their module up
    spec.loader.exec_module(gen)
    return gen


def test_every_residue_reduction_goes_through_reduce_mod(monkeypatch):
    sites, bad = {}, []

    def audited(x, q):
        code = sys._getframe(1).f_code
        site = "%s:%s" % (Path(code.co_filename).stem, code.co_name)
        want = [v % q for v in x.ravel().tolist()]
        r = reduce_mod(x, q)
        if r.ravel().tolist() != want:
            bad.append((site, q))
        sites[site] = sites.get(site, 0) + 1
        return r

    for name, module in list(sys.modules.items()):
        if name.startswith("zconj") and getattr(module, "reduce_mod", None) is reduce_mod:
            monkeypatch.setattr(module, "reduce_mod", audited)
    assert modular.reduce_mod is audited

    a25 = np.array(paley25())
    perm = np.random.default_rng(5).permutation(25)
    assert zconj.decide(IntMatrix(a25), IntMatrix(a25[perm][:, perm])).status == "CONJUGATE"
    assert verify_smith_lemma(7).ok
    gen = benchmark_generator()
    ctx = gen.setup("mixed-small", zconj)
    pairs = [item for item in gen.round_items("mixed-small", 1, 0, ctx) if isinstance(item, gen.Pair)]
    for item in pairs:
        v = zconj.decide(IntMatrix([list(r) for r in item.x]), IntMatrix([list(r) for r in item.y]))
        assert v.status in (item.expected, "UNKNOWN"), item.family

    assert not bad, bad
    # the sites that reduce whole arrays mod q: the residues of every mod-q
    # kernel and its products, det_mod's stacked row updates, the
    # chain-ring eliminator's delayed operations (a row's, and the flush
    # in place), the congruence system and its re-check, local test
    # candidates, the glue route's divisibility check, and the digit
    # table of the field's differences
    expected = {
        "modular:residues",
        "modular:matmul_mod",
        "modular:det_mod",
        "modular:updated",
        "modular:flush",
        "conjugacy:system",
        "conjugacy:_eigenblock_basis",
        "conjugacy:local_test",
        "conjugacy:_glue_route",
        "graphs:differences",
    }
    assert expected <= set(sites), expected - set(sites)


def test_field_differences_are_read_only():
    # the cached difference table, which both graphs and the p-adic ring
    # read, cannot be written and stays as built
    for p in (3, 7):
        field = field_build(p, 2)
        digits = np.arange(p * p)[:, None] // p ** np.arange(2) % p
        built = (digits[:, None] - digits[None]) % p @ p ** np.arange(2)
        assert (field.differences == built).all() and not field.differences.flags.writeable
        paley_adjacency(field)
        peisert_adjacency(field)
        assert (field.differences == built).all()
        ring = zconj.TruncatedUnramifiedRing(p)
        assert len(ring.jacobi_logs[0]) == p * p - 2
        zconj.jacobi_sum(1, ring)
        assert (ring.field.differences == built).all() and not ring.field.differences.flags.writeable
