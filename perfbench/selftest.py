"""Fast self-test of the benchmark itself.

    python3 perfbench/selftest.py

Checks that the generators are deterministic for a seed, that every
pair that is conjugate by construction really is (zconj's
verify_conjugator and the gate's own check, on the recorded hiding
matrix), that the gate judges a perturbed certificate as zconj does
and rejects nearly all of them, and that the
trace wrappers put every zconj binding back.  Exits 1 on the first
failed check.
"""

from __future__ import annotations

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import zconj  # noqa: E402

import gate  # noqa: E402
import gen  # noqa: E402
import spans  # noqa: E402

WORKLOADS = ("theorem-25", "mixed-small", "search-glue", "lemma")
SEEDS = (1, 2, 3)
ROUNDS = 2


def check_deterministic():
    for workload in WORKLOADS:
        ctx = gen.setup(workload, zconj)
        for seed in SEEDS:
            for r in range(ROUNDS):
                first = gen.round_items(workload, seed, r, ctx)
                again = gen.round_items(workload, seed, r, gen.setup(workload, zconj))
                assert first == again, (workload, seed, r)
        if workload != "lemma":  # lemma rounds only reorder six fixed tasks
            assert gen.round_items(workload, 1, 0, ctx) != gen.round_items(workload, 2, 0, ctx), workload


def check_constructions():
    checked = 0
    rejected = 0
    for workload in ("theorem-25", "mixed-small", "search-glue"):
        ctx = gen.setup(workload, zconj)
        for seed in SEEDS:
            for r in range(ROUNDS):
                for pair in gen.round_items(workload, seed, r, ctx):
                    if pair.expected != "CONJUGATE":
                        continue
                    assert pair.conjugator is not None, pair.family
                    t, x, y = (
                        zconj.IntMatrix([list(row) for row in m]) for m in (pair.conjugator, pair.x, pair.y)
                    )
                    assert zconj.verify_conjugator(t, x, y), pair
                    assert gate.is_conjugator(pair.conjugator, pair.x, pair.y), pair
                    # T + e_00 still intertwines when the first basis vector is
                    # an eigenvector of both (a repeated eigenvalue), and can
                    # then be a conjugator; the gate must agree with zconj on it
                    broken = [list(row) for row in pair.conjugator]
                    broken[0][0] += 1
                    gate_says = gate.is_conjugator(broken, pair.x, pair.y)
                    assert gate_says == zconj.verify_conjugator(zconj.IntMatrix(broken), x, y), pair
                    rejected += not gate_says
                    checked += 1
    assert checked > 100, checked
    assert rejected > 0.9 * checked, (rejected, checked)


def _bindings():
    out = {}
    for module in spans._zconj_modules():
        for attr, value in vars(module).items():
            out[(module.__name__, attr)] = value
    out[("IntMatrix", "__mul__")] = vars(zconj.IntMatrix)["__mul__"]
    return out


def check_tracer_restores():
    before = _bindings()
    originals = {id(getattr(sys.modules["zconj." + mod], fn)) for mod, fns in spans.LAYERS for fn in fns}
    tracer = spans.Tracer()
    with tracer:
        during = _bindings()
        left = [key for key, value in during.items() if id(value) in originals]
        assert not left, "bindings left unwrapped: %s" % left
        assert during[("IntMatrix", "__mul__")] is not before[("IntMatrix", "__mul__")]
        pair = gen.round_items("search-glue", 1, 0, {})[0]
        zconj.decide(*(zconj.IntMatrix([list(row) for row in m]) for m in (pair.x, pair.y)))
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert not changed, "bindings not restored: %s" % changed
    assert tracer.stats["conjugacy.decide"][0] == 1
    assert tracer.stats["matrix.IntMatrix.__mul__"][0] > 0
    assert all(parent < span_id for _, span_id, parent, *_ in tracer.spans)


def main() -> int:
    for check in (check_deterministic, check_constructions, check_tracer_restores):
        try:
            check()
        except AssertionError as exc:
            print("FAIL %s: %s" % (check.__name__, exc))
            return 1
        print("ok   %s" % check.__name__)
    return 0


if __name__ == "__main__":
    sys.exit(main())
