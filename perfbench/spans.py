"""Outside-in tracing of zconj: wrap public functions, record spans.

Tracer.install() replaces every module-level binding of the functions
in LAYERS, in every loaded zconj module (so `from .linalg import det`
copies are wrapped too), plus IntMatrix.__mul__.  Each call records a
span (request id, span id, parent span id, name, start, end) and
updates per-function totals: calls, inclusive seconds (outermost
frame only, so recursion is not counted twice) and self seconds
(duration minus the time covered by traced children).  uninstall()
puts every original object back.  Nothing inside zconj changes.
"""

from __future__ import annotations

import functools
import json
import sys
import time

LAYERS = (
    ("conjugacy", ("intertwiner_lattice", "local_test", "conjugator_search", "verify_conjugator", "decide")),
    ("modular", ("solve_congruence_lattice", "scaled_idempotent_invariants", "det_mod", "prime_factors")),
    ("linalg", ("charpoly", "kernel_basis", "lll_reduce", "det")),
    ("spectral", ("split_spectrum", "minimal_polynomial", "check_assumption")),
    ("forms", ("bqf_represents_unit",)),
    (
        "graphs",
        ("paley_idempotent_data", "verify_smith_lemma", "field_build", "paley_adjacency", "peisert_adjacency"),
    ),
    ("padic", ("teichmuller", "jacobi_sum")),
    ("corpus", ("load_corpus",)),
)
METHODS = (("matrix", "IntMatrix", "__mul__"),)
SPAN_CAP = 100_000  # spans kept per tracer; totals count every call

# outcome counters, reported as <name>.<ratio> = outcomes / calls
OUTCOMES = {
    "conjugacy.local_test": ("pass_ratio", lambda r: r.status == "PASS"),
    "conjugacy.conjugator_search": ("hit_ratio", lambda r: r is not None),
}


def traced_names():
    names = ["%s.%s" % (mod, fn) for mod, fns in LAYERS for fn in fns]
    names += ["%s.%s.%s" % m for m in METHODS]
    return names


def _zconj_modules():
    return [m for name, m in sorted(sys.modules.items()) if name == "zconj" or name.startswith("zconj.")]


class Tracer:
    """Spans and per-function totals for one traced stretch of work."""

    def __init__(self):
        self.spans = []
        self.dropped = 0
        self.request = 0
        self.stats = {name: [0, 0.0, 0.0, 0] for name in traced_names()}  # calls, s, self_s, outcomes
        self._stack = []  # [span id, child seconds]
        self._active = {}
        self._next_id = 1
        self._patched = []

    # -- patching -------------------------------------------------------------

    def install(self):
        if self._patched:
            raise RuntimeError("tracer already installed")
        originals = {}
        for mod, fns in LAYERS:
            module = sys.modules["zconj." + mod]
            for fn in fns:
                originals[id(getattr(module, fn))] = "%s.%s" % (mod, fn)
        wrappers = {}
        for module in _zconj_modules():
            for attr, value in list(vars(module).items()):
                name = originals.get(id(value))
                if name is None:
                    continue
                if name not in wrappers:
                    wrappers[name] = self._wrap(name, value)
                setattr(module, attr, wrappers[name])
                self._patched.append((module, attr, value))
        for mod, cls_name, meth in METHODS:
            cls = getattr(sys.modules["zconj." + mod], cls_name)
            original = vars(cls)[meth]
            setattr(cls, meth, self._wrap("%s.%s.%s" % (mod, cls_name, meth), original))
            self._patched.append((cls, meth, original))
        return self

    def uninstall(self):
        while self._patched:
            owner, attr, value = self._patched.pop()
            setattr(owner, attr, value)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def _wrap(self, name, fn):
        stat = self.stats[name]
        outcome = OUTCOMES.get(name, (None, None))[1]
        stack = self._stack
        active = self._active
        clock = time.process_time

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else 0
            frame = [span_id, 0.0]
            stack.append(frame)
            active[name] = active.get(name, 0) + 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                active[name] -= 1
                dur = end - start
                stat[0] += 1
                stat[2] += dur - frame[1]
                if active[name] == 0:
                    stat[1] += dur
                if stack:
                    stack[-1][1] += dur
                if len(self.spans) < SPAN_CAP:
                    self.spans.append((self.request, span_id, parent, name, start, end))
                else:
                    self.dropped += 1
            if outcome is not None and outcome(result):
                stat[3] += 1
            return result

        return wrapper

    # -- results --------------------------------------------------------------

    def metrics(self, rounds: int, setup: "Tracer"):
        """One traced set-up plus the per-round mean of the rounds traced here.

        Ratios are taken over every call, set-up included.
        """
        out = {}
        for name, (calls, total, self_s, hits) in self.stats.items():
            s_calls, s_total, s_self, s_hits = setup.stats[name]
            out[name + ".s"] = (s_total + total / rounds, "s")
            out[name + ".self_s"] = (s_self + self_s / rounds, "s")
            out[name + ".calls"] = (s_calls + calls / rounds, "count")
            if name in OUTCOMES:
                n = s_calls + calls
                out["%s.%s" % (name, OUTCOMES[name][0])] = ((s_hits + hits) / n if n else 0.0, "ratio")
        return out

    def write_spans(self, path):
        with open(path, "w") as fh:
            for request, span_id, parent, name, start, end in self.spans:
                span = {"request": request, "id": span_id, "parent": parent, "name": name}
                span.update(start=start, end=end)
                fh.write(json.dumps(span) + "\n")
