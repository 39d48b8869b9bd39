"""Workload inputs, requests and correctness checks.

Every workload is a closed loop of requests against the public API of
``poolqueue``.  Inputs are stratified: request i takes slice ``rev(i)`` of n
equal slices of each band, where ``rev`` is the digit reversal of i in base 2
or 3, and the seed shifts the points.  Any prefix of 2**k (or 3**k) requests
therefore covers its band evenly, so a time-bounded run is an even sample of
the bands whatever its length, and no two requests share inputs.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass

import numpy as np

import poolqueue as pq
from poolqueue import cli

import oracle

LAM_BAND = (1.98, 2.42)  # 2.2 +- 10%, crosses lam * a / v = 1 at v = 3
W_BAND = (250, 350)
MEAN = 1.3
COSTS = (3.0, 1.0, 80.0)
COST = pq.CostParams(*COSTS)
FAMILIES = (
    pq.PostingDistribution("exponential", MEAN),
    pq.PostingDistribution("deterministic", MEAN),
    pq.PostingDistribution("erlang", MEAN, 3),
)
HEADLINE_W = 35
SIM = dict(v=3, w=35, lam=2.2, postings=250_000)

BASE2 = (2, 12)  # 4096 slices, bit-reversed order
BASE3 = (3, 7)  # 2187 slices, base-3 digit reversal

REL_TOL = 1e-9
SUM_TOL = 1e-12
NEG_TOL = 1e-9
# TV from the simulated to the oracle law is about 0.0035 +- 0.0017 at 1e6
# postings and shrinks as 1/sqrt(postings); this is about ten sd above it
TV_AT_1M = 0.02


# -- stratified inputs -----------------------------------------------------


def digit_reverse(i: int, base: int, digits: int) -> int:
    if not 0 <= i < base**digits:
        raise ValueError(f"request index {i} exceeds the {base ** digits} slices")
    out = 0
    for _ in range(digits):
        i, d = divmod(i, base)
        out = out * base + d
    return out


def stratum(i: int, shift: float, base: int, digits: int) -> float:
    """Point of request i in [0, 1): its slice, offset by ``shift`` slices
    and wrapped around the band."""
    return ((digit_reverse(i, base, digits) + shift) / base**digits) % 1.0


def shifts(seed: int) -> tuple[float, float]:
    """Offsets of the seed in [0, 1), for the lambda and capacity bands."""
    rng = random.Random(seed)
    return rng.random(), rng.random()


@dataclass(frozen=True)
class Request:
    lam: float
    w: int
    seed: int  # per-request seed for simulation and check picks


def make_request(workload: str, seed: int, i: int) -> Request:
    u_lam, u_w = shifts(seed)
    rseed = seed * BASE2[0] ** BASE2[1] + i
    lam_lo, lam_hi = LAM_BAND
    if workload == "headline":
        lam = lam_lo + stratum(i, u_lam, *BASE2) * (lam_hi - lam_lo)
        return Request(lam, HEADLINE_W, rseed)
    if workload == "large-pool":
        # w sets most of a request's cost, so it takes the base-2 order,
        # which balances the most prefixes.  w is an integer and its slices
        # are narrower than one, so the seed rotates w around the whole band.
        span = W_BAND[1] - W_BAND[0] + 1
        w = W_BAND[0] + int(stratum(i, u_w * BASE2[0] ** BASE2[1], *BASE2) * span)
        lam = lam_lo + stratum(i, u_lam, *BASE3) * (lam_hi - lam_lo)
        return Request(lam, w, rseed)
    if workload == "sim-compare":
        return Request(SIM["lam"], SIM["w"], rseed)
    raise ValueError(f"unknown workload {workload!r}")


# -- requests --------------------------------------------------------------


@dataclass
class Outcome:
    value: object
    cells: int  # analytic (v, w) cells solved
    postings: int  # simulated postings, both policies


def _optimize(w: int, lam: float, posting) -> pq.OptimizationResult:
    return pq.optimize_v(w, lam, posting, COST, w)


def _compare_argv(req: Request, out: str, postings: int) -> list[str]:
    c_h, c_r, c_d = COSTS
    return [
        "compare", "--v", str(SIM["v"]), "--w", str(req.w), "--lambda", repr(req.lam),
        "--dist", "exponential", "--mean", repr(MEAN),
        "--ch", repr(c_h), "--cr", repr(c_r), "--cd", repr(c_d),
        "--seed", str(req.seed), "--postings", str(postings), "--out", out,
    ]


class Workload:
    """Run and check requests of one named workload.

    ``tmpdir`` holds the documents the CLI writes; it lies in the checkout.
    """

    def __init__(self, name: str, tmpdir: str):
        if name not in ("headline", "large-pool", "sim-compare"):
            raise ValueError(f"unknown workload {name!r}")
        self.name = name
        self.out = os.path.join(tmpdir, "compare.json")
        self._oracle = {}
        # per policy: simulated-time-weighted sum of laws, time, postings
        self._pooled = {}

    def warmup(self) -> None:
        """One small request, so lazy imports and first-call costs are paid
        in set-up rather than in the first timed request."""
        if self.name == "headline":
            for posting in FAMILIES:
                _optimize(4, 2.2, posting)
        elif self.name == "large-pool":
            _optimize(20, 2.2, FAMILIES[0])
        else:
            req = make_request(self.name, 0, 0)
            cli.main(_compare_argv(req, self.out, 20_000))

    def run(self, req: Request) -> Outcome:
        if self.name == "headline":
            results = [_optimize(req.w, req.lam, posting) for posting in FAMILIES]
            return Outcome(results, cells=len(FAMILIES) * req.w, postings=0)
        if self.name == "large-pool":
            return Outcome([_optimize(req.w, req.lam, FAMILIES[0])], cells=req.w, postings=0)
        code = cli.main(_compare_argv(req, self.out, SIM["postings"]))
        return Outcome(code, cells=1, postings=2 * SIM["postings"])

    # -- checks ------------------------------------------------------------

    def check(self, req: Request, outcome: Outcome) -> list[str]:
        """Failures of one request's outputs against the oracle; empty when
        the request is correct."""
        if self.name == "sim-compare":
            return self._check_compare(req, outcome.value)
        rng = random.Random(req.seed)
        failures = []
        postings = FAMILIES if self.name == "headline" else FAMILIES[:1]
        for posting, result in zip(postings, outcome.value):
            failures += check_optimize(req.w, req.lam, posting, result, rng)
        return failures

    def oracle_law(self, policy: str) -> oracle.OracleCell:
        if policy not in self._oracle:
            self._oracle[policy] = oracle.solve_cell(
                SIM["v"], SIM["w"], SIM["lam"], FAMILIES[0], policy, COSTS
            )
        return self._oracle[policy]

    def _check_compare(self, req: Request, code: int) -> list[str]:
        if code != 0:
            return [f"compare exited with {code}"]
        with open(self.out, encoding="utf-8") as fh:
            doc = json.load(fh)
        failures = []
        analytic = doc["result"]["analytic"]
        clip = self.oracle_law(oracle.CLIP)
        if np.max(np.abs(np.asarray(analytic["pi1"]) - clip.pi1)) > REL_TOL:
            failures.append("analytic pi1 differs from the oracle")
        if not _close(analytic["breakdown"]["total"], clip.phi):
            failures.append("analytic cost rate differs from the oracle")
        for policy in (oracle.CLIP, oracle.REJECT):
            sim = doc["result"]["policies"][policy]["sim"]
            law = np.asarray(sim["time_avg_dist"])
            failures += self._tv_failures(policy, law, SIM["postings"])
            pooled = self._pooled.setdefault(policy, [0.0, 0.0, 0])
            pooled[0] = pooled[0] + sim["total_sim_time"] * law
            pooled[1] += sim["total_sim_time"]
            pooled[2] += SIM["postings"]
        return failures

    def _tv_failures(self, policy: str, law: np.ndarray, postings: int) -> list[str]:
        tv = 0.5 * float(np.abs(law - self.oracle_law(policy).pi1).sum())
        tol = TV_AT_1M * math.sqrt(1e6 / postings)
        if tv < tol:
            return []
        return [f"{policy}: TV to the oracle law {tv:.4g} >= {tol:.4g} at {postings} postings"]

    def run_checks(self, seed: int) -> list[str]:
        """Checks on the whole run.  On sim-compare: the laws pooled over all
        requests are held to the tighter TV bound their posting count allows,
        which a swapped or broken policy fails (the clip and reject laws are
        0.039 apart), and direct simulator runs check that the sojourn time
        recorded per state adds up to the simulated time."""
        if self.name != "sim-compare":
            return []
        failures = []
        for policy, (weighted, sim_time, postings) in self._pooled.items():
            failures += self._tv_failures(policy, weighted / sim_time, postings)
        params = pq.SystemParams(v=SIM["v"], w=SIM["w"], lam=SIM["lam"], posting=FAMILIES[0])
        for policy in (oracle.CLIP, oracle.REJECT):
            config = pq.SimConfig(seed=seed, num_postings=20_000, policy=policy)
            res = pq.run_sim(params, COST, config)
            failures += recorded_time_failures(policy, res.recorded_time, res.total_sim_time)
        return failures


def recorded_time_failures(policy: str, recorded: float, simulated: float) -> list[str]:
    if _close(recorded, simulated):
        return []
    return [f"{policy}: recorded time {recorded!r} != simulated time {simulated!r}"]


def _close(x: float, ref: float) -> bool:
    return abs(x - ref) <= REL_TOL * abs(ref)


def check_optimize(w: int, lam: float, posting, result, rng: random.Random) -> list[str]:
    """v0 is the argmin of the valid curve (ties to the smaller v); the cost
    at v0 and at two random v matches the oracle; the laws behind them are
    normalized and non-negative."""
    failures = []
    curve = dict(result.curve)
    valid = [(bd.total, v) for v, bd in curve.items() if bd.valid]
    if not valid:
        return [f"{posting.kind}: no valid cell"]
    best_total, best_v = min(valid)
    if result.v0 != best_v or result.phi_min != best_total:
        failures.append(f"{posting.kind}: v0={result.v0} but argmin is v={best_v}")
    for v in [result.v0, *rng.sample(range(1, w + 1), 2)]:
        ref = oracle.solve_cell(v, w, lam, posting, oracle.CLIP, COSTS)
        if not _close(curve[v].total, ref.phi):
            failures.append(f"{posting.kind} v={v}: phi {curve[v].total!r} vs oracle {ref.phi!r}")
        law = pq.limiting_pi(pq.SystemParams(v=v, w=w, lam=lam, posting=posting))
        for name, p in (("pi", law.pi), ("pi1", law.pi1)):
            if abs(float(p.sum()) - 1.0) > SUM_TOL or float(p.min()) < -NEG_TOL:
                failures.append(f"{posting.kind} v={v}: {name} is not a probability law")
        if np.max(np.abs(law.pi1 - ref.pi1)) > REL_TOL:
            failures.append(f"{posting.kind} v={v}: pi1 differs from the oracle")
    return failures


def computed_ops(workload: str, req: Request) -> tuple[float, float]:
    """Dense-solve flops per request and bytes of one (w+1)^2 matrix,
    computed from the inputs (2/3 n^3 per renewal-route solve), not measured."""
    n = req.w + 1
    cells = {"headline": len(FAMILIES) * req.w, "large-pool": req.w, "sim-compare": 1}[workload]
    return cells * 2.0 / 3.0 * n**3, 8.0 * n * n
