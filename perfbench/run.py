"""Benchmark of zconj: timed workloads with every result checked.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload mixed-small --seed 1 --seconds 20 --trace 0

Workloads (inputs come from --seed; zconj only sees the matrices):

  theorem-25   decide on Paley(F_25) against a relabelled copy: the
               theorem route (intertwiner lattice mod 25, local tests at
               2, 3 and 5), n above the explicit-search cap
  mixed-small  a stream of small pairs from six families (gen.py), and
               `python -m zconj.cli fixtures` after the timed rounds
  search-glue  hidden [[aI_2, N],[0, bI_2]] pairs: the only input that
               reaches conjugator search past the eigenbasis shortcut,
               and the local-obstruction route
  lemma        verify_smith_lemma(p), p = 3, 7, 11, 19, and the Jacobi
               valuation table, p = 7, 11, 19
  theorem-49   the paper's headline pair, Paley vs Peisert on F_49; one
               decide takes minutes, so it is run by hand, not listed
               in BENCHMARK.json

Each run draws gen.DISTINCT_ROUNDS rounds (a fixed mix of operations)
from the seed, runs them all, then cycles through them again until
--seconds have passed, in one process and one thread, each call
waiting for the last.  Every result is checked against its
construction (gate.py), and every repeat must return what the first
execution of the same input returned.  "attempted" and "failed" count
distinct inputs, so they depend on the seed alone; an input that
raises or returns a wrong result counts as failed; "correct" is false
only for a wrong result.

With --trace 0 it reports the end-to-end metrics:
  ops_per_s    operations per second of operation time
  peak_rss_mb  peak resident memory of the benchmark process
  setup_s      executing zconj's modules + inputs + corpus load, median
               of SETUP_REPEATS, CPU seconds, scaled
Operation times are CPU seconds of the calling thread (zconj runs in
it alone) scaled to a reference host speed (see Calibrator); the
unscaled figures are printed too.  A detail line gives the median
operation time op_p50_ms (not bounded: where the median falls between
clusters of unlike operations its spread across seeds reaches 0.2),
each workload's own figures (decide_s, decisions per second, p50, p90,
smith_lemma_s, jacobi_s, cli_fixtures_s, failed and UNKNOWN shares)
and the environment: nproc, Python and numpy versions, commit, seed
and sizes.

With --trace 1 it runs each round untraced and then traced, requires
identical result JSON, and reports per-function metrics from spans.py
(one traced set-up plus the mean of the traced rounds) and the tracing
overhead; the spans go to .perfbench_out/.  The last line of output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.

Exit codes: 0 after a measured run; 2 when the zconj sources are not
next to this directory.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import importlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

import gate
import gen
import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("theorem-25", "mixed-small", "search-glue", "lemma", "theorem-49")
SETUP_REPEATS = 7
# Host-speed calibration (see Calibrator).  On a shared 2-core host
# whose speed drifts by 15-25% over tens of seconds this about halves
# the run-to-run spread, and it leaves the program's own cost in place.
# CAL_REF_S is about the loop's time on that host.
CAL_LOOP = 5_000
CAL_NUMPY = 170
CAL_REF_S = 0.002
CAL_EVERY_S = 0.1
CAL_WINDOW_S = 0.3
CLI_REPEATS = 3
SHOW_FAILURES = 20


def parse_args(argv):
    parser = argparse.ArgumentParser(description="zconj benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def import_seconds() -> float:
    """CPU seconds to execute every zconj module afresh, in this process.

    The modules are dropped from sys.modules, imported again and then
    put back, so the benchmark keeps using its first import.  numpy and
    the bytecode cache are already loaded: timing a fresh interpreter
    instead drifted by up to 75% within ten minutes on a shared host,
    from process start-up and numpy's own loading, not from zconj.
    """
    ours = {name: mod for name, mod in sys.modules.items() if name == "zconj" or name.startswith("zconj.")}
    for name in ours:
        del sys.modules[name]
    try:
        start = time.process_time()
        importlib.import_module("zconj")
        return time.process_time() - start
    finally:
        for name in [n for n in sys.modules if n == "zconj" or n.startswith("zconj.")]:
            del sys.modules[name]
        sys.modules.update(ours)


def _calibration_loop():
    total = 0
    for i in range(CAL_LOOP):
        total += i * i % 7
    a = numpy.arange(625, dtype=numpy.int64).reshape(25, 25)
    for _ in range(CAL_NUMPY):
        a = (a * 3 + a.T) % 101
    return total + int(a[0, 0])


class Calibrator:
    """Scales each operation's CPU time to a reference host speed.

    While installed, a profiling timer interrupts the process every
    CAL_EVERY_S of CPU time; the handler times a short fixed loop of
    Python integer arithmetic and small numpy operations.  clock()
    reads this thread's CPU time net of those interruptions (the
    process clock turns coarse while a CPU timer is armed).  Afterwards
    an operation over [start, end] on that clock is scaled by
    CAL_REF_S / (median loop time sampled within CAL_WINDOW_S of it),
    so a long operation is judged by the host speed during it, not
    only at its ends.
    """

    def __init__(self):
        self.samples = []  # (net CPU instant, loop seconds)
        self.stolen = 0.0
        self._previous = None

    def clock(self) -> float:
        return time.thread_time() - self.stolen

    def _sample(self, *_):
        start = time.thread_time()
        _calibration_loop()
        spent = time.thread_time() - start
        self.samples.append((start - self.stolen, spent))
        self.stolen += time.thread_time() - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_PROF, CAL_EVERY_S, CAL_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous)
        self._sample()
        return False

    def scale(self, op) -> float:
        lo = op.start - CAL_WINDOW_S
        hi = op.start + op.seconds + CAL_WINDOW_S
        near = [spent for t, spent in self.samples if lo <= t <= hi]
        if not near:
            near = [min(self.samples, key=lambda s: abs(s[0] - op.start))[1]]
        return CAL_REF_S / statistics.median(near)

    def host_speed(self) -> float:
        """Median loop time over the reference time: above 1 means a slower host."""
        return statistics.median(spent for _, spent in self.samples) / CAL_REF_S


def calibration_seconds() -> float:
    """Median CPU seconds of five runs of the calibration loop."""
    times = []
    for _ in range(5):
        start = time.process_time()
        _calibration_loop()
        times.append(time.process_time() - start)
    return statistics.median(times)


def measure_setup(workload, seed, zconj):
    """Median set-up seconds (import + shared inputs + first round); and the inputs.

    Each repeat is scaled like an operation, by the calibration loop
    timed just before and after it.
    """
    samples = []
    for _ in range(SETUP_REPEATS):
        before = calibration_seconds()
        imported = import_seconds()
        start = time.process_time()
        ctx = gen.setup(workload, zconj)
        gen.round_items(workload, seed, 0, ctx)
        spent = imported + time.process_time() - start
        samples.append(spent * CAL_REF_S / ((before + calibration_seconds()) / 2))
    return statistics.median(samples), ctx


class Op:
    """One executed operation: what ran, how long, what it returned."""

    __slots__ = ("family", "key", "start", "seconds", "scaled", "result", "json", "error", "problems")

    def __init__(self, family, key):
        self.family = family
        self.key = key  # (distinct round, position): the same key, the same input
        self.start = None  # on the clock the operation was timed with
        self.seconds = None  # CPU seconds
        self.scaled = None  # CPU seconds at the reference host speed
        self.result = None
        self.json = None
        self.error = None
        self.problems = []

    @property
    def failed(self):
        return self.error is not None or bool(self.problems)


def _jacobi_table(zconj, p):
    ring = zconj.TruncatedUnramifiedRing(p, precision=gen.JACOBI_PRECISION)
    table = zconj.padic._character_table(ring)
    return [zconj.jacobi_sum(j, ring, table) for j in range(1, (ring.q - 1) // 2)]


def _call(item, zconj, clock):
    """Start, CPU seconds and result of one operation."""
    if isinstance(item, gen.Pair):
        x = zconj.IntMatrix([list(r) for r in item.x])
        y = zconj.IntMatrix([list(r) for r in item.y])
        work = functools.partial(zconj.decide, x, y)
    elif item.family == "smith-lemma":
        work = functools.partial(zconj.verify_smith_lemma, item.p)
    else:
        work = functools.partial(_jacobi_table, zconj, item.p)
    start = clock()
    result = work()
    return start, clock() - start, result


def run_op(item, key, zconj, clock=time.thread_time):
    op = Op(item.family, key)
    try:
        op.start, op.seconds, op.result = _call(item, zconj, clock)
    except Exception as exc:  # a crash is a counted failure, not the end of the run
        op.error = "%s: %s" % (type(exc).__name__, exc)
        op.json = json.dumps({"error": type(exc).__name__, "message": str(exc)}, sort_keys=True)
        return op
    if isinstance(item, gen.Pair):
        op.problems = gate.check_verdict(item, op.result)
        obj = op.result.to_json_obj()
    elif item.family == "smith-lemma":
        op.problems = gate.check_smith_lemma(item.p, op.result)
        obj = op.result.to_json_obj()
    else:
        op.problems = gate.check_jacobi(item.p, op.result)
        obj = [r.to_json_obj() for r in op.result]
    op.json = json.dumps(obj, sort_keys=True)
    return op


def distinct_rounds(workload, seed, ctx):
    return [gen.round_items(workload, seed, r, ctx) for r in range(gen.DISTINCT_ROUNDS[workload])]


def run_plain(workload, seed, seconds, ctx, zconj):
    ops = []
    rounds = []  # per round: list of ops
    distinct = distinct_rounds(workload, seed, ctx)
    start = time.perf_counter()
    r = 0
    with Calibrator() as cal:
        while r < len(distinct) or time.perf_counter() - start < seconds:
            done = []
            for i, item in enumerate(distinct[r % len(distinct)]):
                op = run_op(item, (r % len(distinct), i), zconj, cal.clock)
                done.append(op)
                ops.append((item, op))
            rounds.append(done)
            r += 1
    for _, op in ops:
        if op.seconds is not None:
            op.scaled = op.seconds * cal.scale(op)
    return ops, rounds, cal.host_speed()


def run_traced(workload, seed, seconds, ctx, zconj, tracer):
    """Each round untraced, then traced; returns ops, rounds, overhead, mismatches."""
    ops = []
    plain_s = traced_s = 0.0
    mismatches = []
    distinct = distinct_rounds(workload, seed, ctx)
    start = time.perf_counter()
    r = 0
    while True:
        items = distinct[r % len(distinct)]
        keys = [(r % len(distinct), i) for i in range(len(items))]
        plain = [run_op(item, key, zconj) for item, key in zip(items, keys)]
        traced = []
        with tracer:
            for i, (item, key) in enumerate(zip(items, keys)):
                tracer.request = r * len(items) + i
                traced.append(run_op(item, key, zconj))
        for item, a, b in zip(items, plain, traced):
            if a.json != b.json:
                mismatches.append(item)
            if a.seconds is not None and b.seconds is not None:
                plain_s += a.seconds
                traced_s += b.seconds
        ops.extend(zip(items, plain))
        r += 1
        if r >= len(distinct) and time.perf_counter() - start >= seconds:
            overhead = traced_s / plain_s - 1.0 if plain_s else 0.0
            return ops, r, overhead, mismatches


def cli_fixtures(n_fixtures):
    """Wall seconds of `python -m zconj.cli fixtures`, and whether it passed."""
    times = []
    ok = True
    for _ in range(CLI_REPEATS):
        start = time.perf_counter()
        out = subprocess.run(
            [sys.executable, "-m", "zconj.cli", "fixtures"],
            cwd=ROOT,
            env=_child_env(),
            capture_output=True,
            text=True,
            timeout=120,
        )
        times.append(time.perf_counter() - start)
        ok = ok and out.returncode == 0 and "%d/%d fixtures pass" % (n_fixtures, n_fixtures) in out.stdout
    return statistics.median(times), ok


def _percentile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def environment(workload, seed, seconds, trace):
    commit = None
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = out.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "zconj").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            digest.update(path.relative_to(SRC).as_posix().encode())
            digest.update(path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "sizes": gen.describe(workload),
    }


def _latency_metrics(seconds):
    if not seconds:
        return {}
    return {
        "ops_per_s": (len(seconds) / sum(seconds), "1/s"),
        "op_p50_ms": (statistics.median(seconds) * 1e3, "ms"),
    }


def distinct_outcomes(ops):
    """The first execution of each distinct input, and the keys that failed.

    A repeat whose result differs from the first execution of its input
    gets that as a problem, so it counts as a wrong result.
    """
    first = {}
    failed = set()
    for item, op in ops:
        seen = first.setdefault(op.key, (item, op))[1]
        if op.json != seen.json:
            op.problems.append("result differs from an earlier run of the same input")
        if op.failed:
            failed.add(op.key)
    return list(first.values()), failed


def summarize(workload, ops, rounds_done, firsts, failed):
    """End-to-end metrics, plus the per-workload names and tallies.

    Times come from every execution; shares and tallies from the
    distinct inputs.
    """
    ok = [op.scaled for _, op in ops if not op.failed]
    unknown = sum(1 for _, op in firsts if getattr(op.result, "status", None) == "UNKNOWN")
    named = {
        "failed_frac": (len(failed) / len(firsts), "ratio"),
        "unknown_frac": (unknown / len(firsts), "ratio"),
    }
    if workload.startswith("theorem"):
        named["decide_s"] = (statistics.median(ok), "s") if ok else (float("nan"), "s")
    elif workload in ("mixed-small", "search-glue"):
        named["decisions_per_s"] = (len(ok) / sum(ok), "1/s")
        named["decide_p50_ms"] = (statistics.median(ok) * 1e3, "ms")
        if workload == "mixed-small":
            named["decide_p90_ms"] = (_percentile(ok, 90) * 1e3, "ms")
    else:
        for family, name in (("smith-lemma", "smith_lemma_s"), ("jacobi-table", "jacobi_s")):
            per_round = [sum(op.scaled for op in r if op.family == family and op.scaled) for r in rounds_done]
            named[name] = (statistics.median(per_round), "s")
    e2e = _latency_metrics(ok)
    named["op_p50_ms"] = e2e.pop("op_p50_ms", (float("nan"), "ms"))
    unscaled = _latency_metrics([op.seconds for _, op in ops if not op.failed])
    tally = {}
    for item, op in firsts:
        if op.error is not None:
            key = "error"
        elif hasattr(op.result, "status"):
            key = "%s/%s" % (op.result.status, op.result.reason)
        else:
            key = "checked"
        fam = tally.setdefault(item.family, {})
        fam[key] = fam.get(key, 0) + 1
    return e2e, named, tally, unscaled


def _show_failures(ops):
    shown = set()
    for item, op in ops:
        if not op.failed or op.key in shown or len(shown) >= SHOW_FAILURES:
            continue
        shown.add(op.key)
        what = op.error or "; ".join(op.problems)
        inputs = {"p": item.p} if hasattr(item, "p") else {"x": item.x, "y": item.y}
        print("FAILED %s: %s %s" % (item.family, what, json.dumps(inputs)))


def _metric_obj(metrics):
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "zconj" / "__init__.py").is_file():
        print("perfbench: no zconj sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import zconj

    if Path(zconj.__file__).resolve().parent != (SRC / "zconj").resolve():
        print("perfbench: imported zconj from %s, not %s" % (zconj.__file__, SRC), file=sys.stderr)
        return 2
    setup_s, ctx = measure_setup(args.workload, args.seed, zconj)
    env = environment(args.workload, args.seed, args.seconds, args.trace)
    correct = True
    extra_failed = 0
    extra_attempted = 0

    if args.trace:
        setup_tracer = spans.Tracer()
        with setup_tracer:
            gen.setup(args.workload, zconj)
        tracer = spans.Tracer()
        ops, rounds, overhead, mismatches = run_traced(
            args.workload, args.seed, args.seconds, ctx, zconj, tracer
        )
        metrics = tracer.metrics(rounds, setup_tracer)
        metrics["trace_overhead_frac"] = (overhead, "ratio")
        for item in mismatches:
            print("TRACE MISMATCH %s %s" % (item.family, json.dumps(getattr(item, "x", None))))
        correct = not mismatches
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.write_spans(out_dir / ("spans-%s-%d.jsonl" % (args.workload, args.seed)))
        firsts, failed = distinct_outcomes(ops)
        env["rounds"] = rounds
        env["spans"] = len(tracer.spans)
        env["spans_dropped"] = tracer.dropped
        detail = {}
    else:
        ops, rounds_done, host_speed = run_plain(args.workload, args.seed, args.seconds, ctx, zconj)
        firsts, failed = distinct_outcomes(ops)
        metrics, detail, tally, unscaled = summarize(args.workload, ops, rounds_done, firsts, failed)
        metrics["setup_s"] = (setup_s, "s")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
        if args.workload == "mixed-small":
            cli_s, cli_ok = cli_fixtures(len(ctx["fixtures"]))
            detail["cli_fixtures_s"] = (cli_s, "s")
            extra_attempted += CLI_REPEATS
            if not cli_ok:
                extra_failed += CLI_REPEATS
                print("FAILED cli fixtures: nonzero exit or missing pass line")
        detail.update({k: metrics[k] for k in ("setup_s", "peak_rss_mb")})
        env["host_speed"] = host_speed
        env["unscaled"] = _metric_obj(unscaled)
        env["rounds"] = len(rounds_done)
        env["ops"] = len(ops)
        env["verdicts"] = tally

    _show_failures(ops)
    wrong = [op for _, op in ops if op.problems]
    correct = correct and not wrong and not extra_failed
    for name, (value, unit) in sorted(detail.items()):
        print("%-16s %12.6g %s" % (name, value, unit))
    print(json.dumps({"env": env, "detail": _metric_obj(detail)}, sort_keys=True))
    result = {
        "correct": correct,
        "attempted": len(firsts) + extra_attempted,
        "failed": len(failed) + extra_failed,
        "metrics": _metric_obj(metrics),
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
