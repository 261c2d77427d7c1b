"""Session report: the peak resident set size of the test run."""

import resource
import sys


def pytest_terminal_summary(terminalreporter):
    # ru_maxrss is in KiB on Linux and in bytes on macOS.  A child's figure
    # starts from the high-water mark of the process that spawned it, so
    # the second is at least the first's peak when the last child started
    scale = 1 if sys.platform == "darwin" else 1024
    own, child = (
        resource.getrusage(who).ru_maxrss * scale / 2**20
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    )
    terminalreporter.write_line(f"peak RSS: {own:.0f} MB in the test process, {child:.0f} MB in its largest child")
