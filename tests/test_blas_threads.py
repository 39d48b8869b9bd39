"""The suite runs numpy's BLAS on one thread (set in ``conftest.py``)."""

import ctypes

import numpy as np
import pytest

_GETTERS = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads", "openblas_get_num_threads")


def openblas_threads() -> list[int]:
    """Thread count of every OpenBLAS loaded in this process."""
    np.linalg.solve(np.eye(2), np.ones(2))  # make sure the BLAS is loaded
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line}
    except OSError:
        return []
    counts = []
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        fn = next((getattr(lib, name) for name in _GETTERS if hasattr(lib, name)), None)
        if fn is not None:
            fn.argtypes, fn.restype = [], ctypes.c_int
            counts.append(fn())
    return counts


def test_openblas_runs_one_thread():
    counts = openblas_threads()
    if not counts:
        pytest.skip("no OpenBLAS thread count can be read in this process")
    assert counts == [1] * len(counts)
