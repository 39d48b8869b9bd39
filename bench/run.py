"""poolqueue benchmark: closed-loop workloads over the public API.

    python3 bench/run.py --workload <headline|large-pool|sim-compare|all> \
        --seed <n> --seconds <s> --trace <0|1>

Each workload runs in its own process (``worker.py``), so set-up time and
peak memory are per workload.  Set-up is timed from process start to the
worker's ``READY`` line, in the measured worker and in a few probe processes
that stop there; ``setup_s`` is their median.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced run.
``--workload all`` runs every workload both ways and prints every metric.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The script uses only
the standard library; the workers import numpy and scipy.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from metrics import E2E_METRICS, LAYER_METRICS, REF_NOMINAL_S

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("headline", "large-pool", "sim-compare")
SETUP_PROBES = 2  # extra set-up samples besides the measured worker
DEADLINE_S = 170.0  # one workload run, probes included
# one caller, one thread: BLAS pools stay at a single thread
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    pass


def _spawn(args: list[str]) -> subprocess.Popen:
    env = dict(os.environ, **CHILD_ENV)
    return subprocess.Popen(
        [sys.executable, WORKER, *args],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        text=True,
    )


def _await_ready(proc: subprocess.Popen, t0: float) -> tuple[float, float]:
    """Set-up wall time, and the reference time the worker measured next."""
    ready = proc.stdout.readline()
    elapsed = time.perf_counter() - t0
    ref = proc.stdout.readline().split()
    if ready.strip() != "READY" or len(ref) != 2 or ref[0] != "REF":
        proc.kill()
        proc.wait()
        raise BenchError(f"worker failed during set-up (exit {proc.returncode})")
    return elapsed, float(ref[1])


def _finish(proc: subprocess.Popen, timeout: float) -> str:
    try:
        out, _ = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("worker exceeded the run deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")
    return out


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, list[float]]:
    """Run one workload process; returns its record and the set-up samples
    as (wall time, reference time) pairs."""
    start = time.perf_counter()
    worker_args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    setups = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = _spawn([*worker_args, "--probe"])
        setups.append(_await_ready(proc, t0))
        _finish(proc, DEADLINE_S - (time.perf_counter() - start))
    t0 = time.perf_counter()
    proc = _spawn(worker_args)
    setups.append(_await_ready(proc, t0))
    out = _finish(proc, DEADLINE_S - (time.perf_counter() - start))
    record = json.loads(out.strip().splitlines()[-1])
    if not record["times"]:
        raise BenchError(f"no untraced request completed: {record['failures'][:3]}")
    return record, setups


def rescaled(seconds: float, ref: float) -> float:
    """Wall time rescaled to the speed at which the reference kernel takes
    REF_NOMINAL_S."""
    return seconds * REF_NOMINAL_S / ref


def tail(times: list[float]) -> tuple[float, float] | None:
    """Highest percentile with at least ten samples beyond it, as
    (percentile, value); None below 20 samples."""
    n = len(times)
    if n < 20:
        return None
    return 100.0 * (n - 10) / n, sorted(times)[n - 11]


def e2e_metrics(record: dict, setups: list[tuple[float, float]]) -> dict:
    times = [rescaled(t, r) for t, r in zip(record["times"], record["refs"])]
    return {
        "setup_s": statistics.median(rescaled(t, r) for t, r in setups),
        "request_s.p50": statistics.median(times),
        "work_per_s": statistics.median(w / t for w, t in zip(record["work"], times)),
    }


def report(workload: str, trace: int, record: dict, setups: list[tuple[float, float]]) -> dict:
    """Print one workload's metrics by name and unit; return the metrics."""
    times = record["times"]
    print(f"== {workload} (trace {trace}): {len(times)} untraced requests, "
          f"{record['attempted']} attempted, {record['failed']} failed")
    if trace:
        values = record["layers"]
        units = {name: unit for name, unit, _ in LAYER_METRICS}
        traced = record["traced_times"]
        if traced:
            print(f"   request_s.p50 traced {statistics.median(traced):.6g} s, "
                  f"untraced {statistics.median(times):.6g} s")
    else:
        values = e2e_metrics(record, setups)
        units = {name: unit for name, unit, _ in E2E_METRICS}
    for name, value in values.items():
        print(f"   {name:38s} {value:.6g} {units[name]}")
    if not trace:
        pct = tail([rescaled(t, r) for t, r in zip(times, record["refs"])])
        tail_text = f"p{pct[0]:.1f} = {pct[1]:.6g} s" if pct else "omitted (fewer than 20 requests)"
        print(f"   request_s.tail: {tail_text}, n={len(times)}")
        print(f"   failed_fraction: {record['failed'] / record['attempted']:.6g}")
        print(f"   peak_rss_mb: {record['peak_rss_mb']:.6g} MB")
        print(f"   wall clock, not rescaled: setup_s {statistics.median(t for t, _ in setups):.6g} s, "
              f"request_s.p50 {statistics.median(times):.6g} s, "
              f"reference kernel median {statistics.median(record['refs']):.6g} s "
              f"(nominal {REF_NOMINAL_S} s)")
    print("   meta " + json.dumps(record["meta"]))
    for failure in record["failures"]:
        print(f"   FAILED {failure}", file=sys.stderr)
    return {name: {"value": values[name], "unit": units[name]} for name in values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if args.workload == "all":
        runs = [(w, t) for w in WORKLOADS for t in (0, 1)]
    else:
        runs = [(args.workload, args.trace)]
    correct, attempted, failed, metrics = True, 0, 0, {}
    try:
        for workload, trace in runs:
            record, setups = run_workload(workload, args.seed, args.seconds, trace)
            values = report(workload, trace, record, setups)
            prefix = f"{workload}/" if args.workload == "all" else ""
            metrics.update({prefix + name: v for name, v in values.items()})
            correct = correct and record["run_ok"] and record["failed"] == 0
            attempted += record["attempted"]
            failed += record["failed"]
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
