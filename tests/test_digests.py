"""Verdict JSON pinned by digest, so that "outputs are byte-identical" is
checked by the suite rather than by a hand-run dump.

Each digest is the SHA-256 of json.dumps(verdict.to_json_obj(),
sort_keys=True) for decide at its defaults on: the 9- and 49-vertex
Paley/Peisert pairs, the four theorem-25 inputs of perfbench/gen.py at
seed 1 (read, never changed) and the bundled fixtures.  A speed-up must
leave every digest as it is.  A change that alters outputs on purpose
updates the digests here and lists the old and new values in CHANGES.md.
"""

import hashlib
import importlib.util
import json
import sys

from helpers import SRC

import zconj
from zconj.graphs import field_build, paley_adjacency, peisert_adjacency
from zconj.matrix import IntMatrix

DIGESTS = {
    "paley-peisert-9": "6ce65173429e2076226519149b9771902eaf57eb98157b770ba556c8939b96d1",
    "paley-peisert-49": "7eccf810befefd9393a4d333e7120a95928012d2eeddd439101eb099d94eb997",
    "theorem-25:1:0": "7a236d5db0bfe2fb58b6d9321f75490854ef23dea1febe8cd771933cbf704548",
    "theorem-25:1:1": "c9e7fa9efbd661992aff0ed447439954c6f81828e1281365959c52636a673387",
    "theorem-25:1:2": "fdae1e9efefb3d51a47e39d254648f6e949e37d5aee41987ef050957a5a9f4c4",
    "theorem-25:1:3": "b94629bf85407f7cbd195bba2793e3f45f88ad1047d995ec626db8c4890333d2",
    "fixture:counterexample-1": "ad32064f2393b43c980ff805b24737ee4096feb950e1de62701b821f07077a78",
    "fixture:counterexample-2": "82c72e4e0490368079c402b7a3b88cb1b614c97ad2277fdeea4132ed101fdf1e",
    "fixture:paley-peisert-9": "6ce65173429e2076226519149b9771902eaf57eb98157b770ba556c8939b96d1",
}


def digest(x, y):
    verdict = zconj.decide(x, y)
    return hashlib.sha256(json.dumps(verdict.to_json_obj(), sort_keys=True).encode()).hexdigest()


def benchmark_generator():
    """perfbench/gen.py as the module perfbench_gen, off sys.path."""
    spec = importlib.util.spec_from_file_location("perfbench_gen", SRC.parent / "perfbench" / "gen.py")
    gen = sys.modules.setdefault(spec.name, importlib.util.module_from_spec(spec))
    spec.loader.exec_module(gen)
    return gen


def test_verdict_digests():
    got = {}
    for p in (3, 7):
        f = field_build(p, 2)
        got["paley-peisert-%d" % (p * p)] = digest(paley_adjacency(f), peisert_adjacency(f))
    gen = benchmark_generator()
    ctx = gen.setup("theorem-25", zconj)
    for r in range(gen.DISTINCT_ROUNDS["theorem-25"]):
        (pair,) = gen.round_items("theorem-25", 1, r, ctx)
        got["theorem-25:1:%d" % r] = digest(IntMatrix([list(v) for v in pair.x]), IntMatrix([list(v) for v in pair.y]))
    for fx in zconj.load_corpus():
        got["fixture:" + fx.name] = digest(fx.x, fx.y)
    assert got == DIGESTS
