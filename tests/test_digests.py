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
    "paley-peisert-9": "7e6b23a0c9575d771e4ef6cd42771c372cba138b93d038e302d2a13995996e71",
    "paley-peisert-49": "7a7640b0cc5098dcde141e36ce092179875d8b62cad22a8b0cda7ebc1e0ed7d9",
    "theorem-25:1:0": "742c0d5ef4329b87ff6beb71fa3e657417e2ba8d540a07fe098ba86cf56f5b0a",
    "theorem-25:1:1": "fe4af439a6abaa14f33a1c1ee39a65f8c79d4420eb044b430ebf4bd9fe6df521",
    "theorem-25:1:2": "36ea7c93f58be0597124960bee5744dd539fe4fb0c5044c2b463245b63a84252",
    "theorem-25:1:3": "ccb97a1bd1acf3b20c01d78487ccedae6e5627d7977d038abf09fa00ceed36ee",
    "fixture:counterexample-1": "ad32064f2393b43c980ff805b24737ee4096feb950e1de62701b821f07077a78",
    "fixture:counterexample-2": "82c72e4e0490368079c402b7a3b88cb1b614c97ad2277fdeea4132ed101fdf1e",
    "fixture:paley-peisert-9": "7e6b23a0c9575d771e4ef6cd42771c372cba138b93d038e302d2a13995996e71",
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
