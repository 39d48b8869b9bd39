"""One workload process of the benchmark; started by ``run.py``.

It imports ``poolqueue`` from the checkout's ``src``, makes one warm-up
request, prints ``READY`` (the parent times set-up up to that line), then
``REF <seconds>``, the time of the reference kernel, and, unless ``--probe``
is given, runs the closed loop: one caller, each request
starting when the previous one has returned, until the measured request time
reaches about ``--seconds``.  The last line of its output is a JSON record that
``run.py`` turns into metrics.

With ``--trace 1`` every request runs twice, untraced and traced, in
alternating order; per-layer metrics come from the traced runs and the
tracing overhead is the difference of the two medians.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _import_library():
    if not os.path.isfile(os.path.join(SRC, "poolqueue", "__init__.py")):
        raise SystemExit(f"poolqueue sources not found under {SRC}")
    sys.path.insert(0, SRC)
    import poolqueue

    if not os.path.abspath(poolqueue.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"imported poolqueue from {poolqueue.__file__}, not from {SRC}")


class Reference:
    """A fixed kernel of interpreter and dense-solve work that no change to
    poolqueue can alter.  Identical work on this kind of shared host runs
    tens of percent slower for seconds to minutes at a time, with CPU time
    equal to wall time, so each request is also timed against this kernel
    measured just before and just after it."""

    def __init__(self):
        import numpy as np

        self._solve = np.linalg.solve
        self._a = np.random.default_rng(0).random((120, 120)) + 120.0 * np.eye(120)
        self._b = np.ones(120)

    def measure(self) -> float:
        samples = []
        for _ in range(3):
            t0 = time.perf_counter()
            acc = 0
            for i in range(40_000):
                acc += i * i % 7
            for _ in range(20):
                self._solve(self._a, self._b)
            samples.append(time.perf_counter() - t0)
        return statistics.median(samples)


def blas_threads() -> int | None:
    """Thread count reported by every OpenBLAS loaded in this process."""
    counts = []
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                counts.append(fn())
                break
    return max(counts) if counts else None


def git_sha() -> str:
    """Commit of the checkout, read from .git without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = os.path.join(ROOT, ".git", name)
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def metadata(workload: str, requests, nproc: int) -> dict:
    import numpy
    import scipy

    from workloads import computed_ops

    flops, matrix_bytes = zip(*(computed_ops(workload, r) for r in requests))
    return {
        "nproc": nproc,
        "cpu_model": cpu_model(),
        "blas_threads": blas_threads(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": git_sha(),
        "computed_not_measured": {
            "dense_solve_flops_per_request": statistics.fmean(flops),
            "dense_matrix_bytes_per_cell": statistics.fmean(matrix_bytes),
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help="stop after set-up")
    args = parser.parse_args(argv)

    _import_library()
    import workloads

    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench-tmp-") as tmpdir:
        wl = workloads.Workload(args.workload, tmpdir)
        wl.warmup()
        print("READY", flush=True)
        reference = Reference()
        ref = reference.measure()
        print(f"REF {ref!r}", flush=True)
        if args.probe:
            return 0
        record = run_loop(wl, args, reference, ref)
    print(json.dumps(record), flush=True)
    return 0


def run_loop(wl, args, reference: Reference, ref: float) -> dict:
    from workloads import make_request

    tracer = None
    if args.trace:
        import layers
        from spans import Tracer

        tracer = Tracer()
    times, work, traced_times, failures, requests = [], [], [], [], []
    refs = []  # reference time next to each untraced request
    attempted = failed = 0
    doc_bytes = 0.0
    measured = last = 0.0
    i = 0
    # stop at the request whose end lands nearest the measurement window's end
    while measured + last / 2 < args.seconds:
        req = make_request(wl.name, args.seed, i)
        requests.append(req)
        if tracer is None:
            modes = (False,)
        else:
            modes = (False, True) if i % 2 == 0 else (True, False)
        before = measured
        for traced in modes:
            attempted += 1
            if traced:
                tracer.request = i
                first_span = len(tracer.spans)
                layers.install(tracer)
            t0 = time.perf_counter()
            try:
                outcome = wl.run(req)
            except Exception as exc:  # a request that raises is a failed request
                outcome = None
                failed += 1
                failures.append(f"request {i}: {type(exc).__name__}: {exc}")
            finally:
                dt = time.perf_counter() - t0
                if traced:
                    tracer.uninstall()
            measured += dt
            if outcome is None:
                continue
            if traced:
                traced_times.append(dt)
            else:
                times.append(dt)
                work.append(outcome.postings or outcome.cells)
            bad = wl.check(req, outcome)
            if traced and wl.name == "sim-compare":
                doc_bytes += os.path.getsize(wl.out)
                bad += sim_span_failures(tracer.spans[first_span:])
            if bad:
                failed += 1
                failures.extend(f"request {i}: {msg}" for msg in bad)
        last = measured - before
        ref_before, ref = ref, reference.measure()
        refs.extend([(ref_before + ref) / 2] * (len(times) - len(refs)))
        i += 1

    run_failures = wl.run_checks(args.seed)
    nproc = len(os.sched_getaffinity(0))
    meta = metadata(wl.name, requests, nproc)
    if meta["blas_threads"] is not None and meta["blas_threads"] > nproc:
        run_failures.append(f"BLAS uses {meta['blas_threads']} threads on {nproc} cpus")

    record = {
        "times": times,
        "refs": refs,
        "work": work,
        "attempted": attempted,
        "failed": failed,
        "failures": failures + run_failures,
        "run_ok": not run_failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "meta": meta,
    }
    if tracer is not None:
        record["traced_times"] = traced_times
        overhead = (
            statistics.median(traced_times) - statistics.median(times)
            if times and traced_times
            else 0.0
        )
        record["layers"] = layers.layer_metrics(
            tracer.spans, max(len(traced_times), 1), doc_bytes, overhead
        )
    return record


def sim_span_failures(spans) -> list[str]:
    from workloads import recorded_time_failures

    failures = []
    for span in spans:
        if span.name == "sim.run_sim" and "recorded_time" in span.attrs:
            a = span.attrs
            failures += recorded_time_failures(a["policy"], a["recorded_time"], a["sim_time"])
    return failures


if __name__ == "__main__":
    sys.exit(main())
