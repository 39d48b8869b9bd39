"""Test-session setup: one BLAS thread, and the acceptance verdicts echoed.

The thread counts are set before numpy loads, when pytest imports this file.
On a 2-core host an Erlang(3) ``solve`` at w=120 (a 118-state chain) took a
median 82 ms with two OpenBLAS threads and 1.2 ms with one, and the suite
runs many such small solves.  The library itself leaves the BLAS default
alone.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the acceptance-criterion verdict lines after the run."""
    try:
        import test_acceptance
    except ImportError:
        return
    if getattr(test_acceptance, "VERDICTS", None):
        terminalreporter.section("acceptance criteria")
        for line in test_acceptance.VERDICTS:
            terminalreporter.write_line(line)
