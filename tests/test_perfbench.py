"""The benchmark's own self-test, run as the benchmark runs it.

perfbench traces zconj from outside: it wraps module-level functions by
name and IntMatrix.__mul__, and its self-test asserts that decide on a
search-glue pair reaches that product.  Running it here catches a change
that renames or removes a traced name, or stops decide from calling the
product, before a traced benchmark run would crash on it.
"""

import subprocess
import sys

from helpers import SRC, subprocess_env


def test_benchmark_selftest_passes():
    script = SRC.parent / "perfbench" / "selftest.py"
    r = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True, env=subprocess_env(), timeout=300
    )
    assert r.returncode == 0, r.stdout + r.stderr
    assert r.stdout.split().count("ok") == 3, r.stdout
