"""Every exact product states a bound that covers it.

matrix.matmul picks float64, int64 or Python ints from its bound, which
must cover max |a|, max |b| and max |a| max |b| k, k the inner
dimension.  The audit wraps matmul in every zconj module that imports
it, the binding IntMatrix.__mul__ calls included, runs the decision
procedure and the lemma checker, and checks each call's bound; results
are compared with an object-dtype product while a.size k <= 2 10^6.
"""

import random
import sys
from pathlib import Path

import numpy as np
from helpers import hidden
from test_metamorphic import block_pairs, class_pairs, glued, swapped_pairs

import zconj
from zconj.graphs import field_build, paley_adjacency, peisert_adjacency, verify_smith_lemma
from zconj.matrix import IntMatrix, matmul, max_abs

OBJECT_CHECK_LIMIT = 2 * 10**6


def paley25():
    """Adjacency of the Paley graph on F_25 = F_5[s]/(s^2 - 2)."""
    els = [(u, v) for u in range(5) for v in range(5)]
    squares = {((u * u + 2 * v * v) % 5, 2 * u * v % 5) for u, v in els if (u, v) != (0, 0)}
    return [[int(((a[0] - b[0]) % 5, (a[1] - b[1]) % 5) in squares) for b in els] for a in els]


def test_every_matmul_call_states_a_covering_bound(monkeypatch):
    sites, bad = {}, []

    def audited(a, b, bound):
        code = sys._getframe(1).f_code
        site = "%s:%s" % (Path(code.co_filename).stem, code.co_name)
        ma, mb, k = max_abs(a), max_abs(b), a.shape[-1]
        if bound < max(ma, mb, ma * mb * k):
            bad.append((site, bound, ma, mb, k))
        r = matmul(a, b, bound)
        if a.size * k <= OBJECT_CHECK_LIMIT and not (r == a.astype(object) @ b.astype(object)).all():
            bad.append((site, "differs from the object product"))
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
    # the array call sites of the eigenbases, the Sylvester kernel, the
    # glue blocks and the built conjugator, the congruence read-off, the
    # projector and idempotent checks, the form witness and the boundary
    # re-check all ran
    expected = {
        "conjugacy:_eigenbasis",
        "conjugacy:_eigenblock_basis",
        "conjugacy:_glue_block",
        "conjugacy:_glue_route",
        "conjugacy:_sylvester_basis",
        "conjugacy:combination",
        "linalg:_kernel_basis_rref",
        "modular:_hermite_columns",
        "spectral:_check_projector_identities",
        "modular:scaled_idempotent_invariants",
        "graphs:indices",
        "matrix:__mul__",
    }
    assert expected <= set(sites), expected - set(sites)
