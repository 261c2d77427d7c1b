"""Run the benchmark over several seeds and summarize each metric.

    python3 perfbench/sweep.py --seeds 1-10 --seconds 20 --out sweep.json
    python3 perfbench/sweep.py --seeds 1-5 --workloads search-glue --trace 1

Runs perfbench/run.py once per (workload, seed), one run at a time,
and reports for every metric its values, median, quartiles
(statistics.quantiles, n=4) and spread = (Q3 - Q1) / median.  The
figures in baseline.json were made with this script.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def summary(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"values": values, "median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None}


def run_one(workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError("%s seed %d exited %d: %s" % (workload, seed, out.returncode, out.stderr[-500:]))
    return json.loads(lines[-1]), json.loads(lines[-2])


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description="multi-seed summary of the zconj benchmark")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    report = {}
    for workload in args.workloads.split(","):
        metrics = {}
        detail = {}
        runs = []
        for seed in seed_list(args.seeds):
            result, info = run_one(workload, seed, args.seconds, args.trace)
            runs.append({"seed": seed, **{k: result[k] for k in ("correct", "attempted", "failed")}})
            for name, m in result["metrics"].items():
                metrics.setdefault(name, []).append(m["value"])
            for name, m in info["detail"].items():
                detail.setdefault(name, []).append(m["value"])
            print("%s seed %d: %s" % (workload, seed, runs[-1]), flush=True)
        report[workload] = {
            "env": info["env"],
            "runs": runs,
            "metrics": {name: summary(v) for name, v in metrics.items()},
            "detail": {name: summary(v) for name, v in detail.items()},
        }
        for name, s in report[workload]["metrics"].items():
            print("  %-24s median %12.6g  spread %s" % (name, s["median"], "%.4f" % s["spread"] if s["spread"] is not None else "-"))
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
