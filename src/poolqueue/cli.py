"""Batch-oriented command-line front end.

Subcommands: ``solve``, ``optimize``, ``sweep``, ``simulate``, ``compare``.
Inputs come from a JSON config file and/or flags (flags win); every emitted
document embeds the fully-resolved configuration, so a document is enough to
reproduce its own run.  Output is JSON (default) or CSV, to stdout or a file.

Ladder fields (``kappa``, ``root``, ``truncation_level``, ``P``, ``g_vector``,
``tpm_stationary_max_delta``, ``tv_embedded``) are computed only with
``--method ladder``; otherwise they are null, and the CSV ``P`` column nan.

Exit status: 0 success, 1 analytic-validity failure (negative probabilities
flagged), 2 configuration error, 3 internal numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from . import sim as sim_mod
from .dist import parse_distribution, positive_int
from .embedded import SystemParams, model_type, tpm_stationary_delta
from .errors import NoRootError, NoValidPointError, PoolQueueError, TruncationError
from .limiting import RENEWAL, LADDER
from .cost import CostParams, ObjectiveBreakdown, capability, objective, optimize_v, solve_instance, sweep

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


class ConfigError(ValueError):
    pass


_SCHEMA = {
    "params": {"v", "w", "lambda", "posting"},
    "cost": {"ch", "cr", "cd", "holding_table", "reserve_table"},
    "sim": {"seed", "postings", "warmup", "policy"},
    "options": {
        "vmax",
        "vmin",
        "wmin",
        "wmax",
        "format",
        "out",
        "method",
        "enforce_capability",
        "tol_tv",
        "tol_cost",
    },
}


def _check_keys(config: dict) -> None:
    for section, payload in config.items():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section {section!r}")
        if not isinstance(payload, dict):
            raise ConfigError(f"config section {section!r} must be a mapping")
        for key in payload:
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key {key!r} in config section {section!r}")


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError("config file must contain a JSON object")
    _check_keys(config)
    return config


def _merge(config: dict, args: argparse.Namespace) -> dict:
    """Overlay command-line flags onto the file config."""
    merged = {section: dict(config.get(section, {})) for section in _SCHEMA}
    flag_map = {
        "params": {"v": args.v, "w": args.w, "lambda": args.lam},
        "cost": {"ch": args.ch, "cr": args.cr, "cd": args.cd},
        "sim": {
            "seed": args.seed,
            "postings": args.postings,
            "warmup": args.warmup,
            "policy": args.policy,
        },
        "options": {
            "vmax": args.vmax,
            "vmin": getattr(args, "vmin", None),
            "wmin": getattr(args, "wmin", None),
            "wmax": getattr(args, "wmax", None),
            "format": args.format,
            "out": args.out,
            "method": args.method,
            "enforce_capability": args.enforce_capability or None,
            "tol_tv": getattr(args, "tol_tv", None),
            "tol_cost": getattr(args, "tol_cost", None),
        },
    }
    for section, flags in flag_map.items():
        for key, value in flags.items():
            if value is not None:
                merged[section][key] = value
    if args.dist is not None or args.mean is not None or args.shape is not None:
        posting = dict(merged["params"].get("posting", {}))
        if args.dist is not None:
            posting["kind"] = args.dist
        if args.mean is not None:
            posting["mean"] = args.mean
        if args.shape is not None:
            posting["shape"] = args.shape
        merged["params"]["posting"] = posting
    return merged


def _require(section: dict, key: str, where: str):
    if key not in section:
        raise ConfigError(f"missing required setting {key!r} in {where}")
    return section[key]


def _build_params(merged: dict, need_v: bool = True) -> tuple[SystemParams | None, dict]:
    p = merged["params"]
    try:
        w = positive_int("w", _require(p, "w", "params"))
        lam = float(_require(p, "lambda", "params"))
        posting = parse_distribution(_require(p, "posting", "params"))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    resolved = {
        "w": w,
        "lambda": lam,
        "posting": {"kind": posting.kind, "mean": posting.mean, "shape": posting.shape},
    }
    if not need_v:
        return None, resolved | {"_lam": lam, "_posting": posting}
    try:
        v = positive_int("v", _require(p, "v", "params"))
        params = SystemParams(v=v, w=w, lam=lam, posting=posting)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    resolved = {"v": v} | resolved
    return params, resolved


def _build_cost(merged: dict) -> tuple[CostParams, dict]:
    c = merged["cost"]
    ch = float(c.get("ch", 0.0))
    cr = float(c.get("cr", 0.0))
    cd = float(c.get("cd", 0.0))
    ht = tuple(float(x) for x in c["holding_table"]) if "holding_table" in c else None
    rt = tuple(float(x) for x in c["reserve_table"]) if "reserve_table" in c else None
    try:
        cost = CostParams(c_h=ch, c_r=cr, c_d=cd, holding_table=ht, reserve_table=rt)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    resolved = {"ch": ch, "cr": cr, "cd": cd}
    if ht is not None:
        resolved["holding_table"] = list(ht)
    if rt is not None:
        resolved["reserve_table"] = list(rt)
    return cost, resolved


def _build_sim(merged: dict) -> tuple[sim_mod.SimConfig, dict]:
    s = merged["sim"]
    try:
        config = sim_mod.SimConfig(
            seed=int(s.get("seed", 0)),
            num_postings=int(s.get("postings", 100_000)),
            warmup_fraction=float(s.get("warmup", 0.1)),
            policy=str(s.get("policy", sim_mod.CLIP)),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    resolved = {
        "seed": config.seed,
        "postings": config.num_postings,
        "warmup": config.warmup_fraction,
        "policy": config.policy,
    }
    return config, resolved


def _method(merged: dict) -> str:
    method = merged["options"].get("method", RENEWAL)
    if method not in (RENEWAL, LADDER):
        raise ConfigError(f"unknown method {method!r}")
    return method


def _emit(document: dict, merged: dict, csv_rows=None, csv_header=None) -> None:
    fmt = merged["options"].get("format", "json")
    out = merged["options"].get("out", "-")
    if fmt == "json":
        text = json.dumps(document, indent=2, default=_jsonable) + "\n"
    elif fmt == "csv":
        if csv_rows is None:
            raise ConfigError(f"command {document['command']!r} has no csv rendering")
        lines = ["# config: " + json.dumps(document["config"])]
        lines.append(",".join(csv_header))
        for row in csv_rows:
            lines.append(",".join(_csv_field(x) for x in row))
        text = "\n".join(lines) + "\n"
    else:
        raise ConfigError(f"unknown output format {fmt!r}")
    if out in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _jsonable(x):
    """Fallback encoder for numpy scalars that leak into documents."""
    if isinstance(x, np.integer):
        return int(x)
    if isinstance(x, (np.floating, np.bool_)):
        return x.item()
    raise TypeError(f"not JSON serializable: {type(x).__name__}")


def _csv_field(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _listify(arr) -> list:
    return [float(x) for x in np.asarray(arr)]


# -- subcommands -----------------------------------------------------------


def _cmd_solve(merged: dict) -> int:
    params, resolved_params = _build_params(merged)
    method = _method(merged)
    emb, dist = solve_instance(params, method=method)
    result = {
        "model_type": model_type(params).value,
        "offered_load": params.offered_load,
        "method": method,
        "kappa": emb.norm_constant if emb else None,
        "root": emb.root if emb else None,
        "truncation_level": emb.truncation_level if emb else None,
        "P": _listify(emb.P) if emb else None,
        "pi": _listify(dist.pi),
        "pi1": _listify(dist.pi1),
        "g_vector": _listify(dist.g_vector) if dist.g_vector is not None else None,
        "valid": dist.valid,
        "negative_states": list(dist.negative_states),
        "capability": capability(params.lam, params.a, params.w),
        "tpm_stationary_max_delta": tpm_stationary_delta(params, emb) if emb else None,
    }
    document = {"command": "solve", "config": {"params": resolved_params, "options": {"method": method}}, "result": result}
    rows = [
        (k, result["P"][k] if result["P"] else float("nan"), result["pi"][k], result["pi1"][k])
        for k in range(params.w + 1)
    ]
    _emit(document, merged, rows, ("k", "P", "pi", "pi1"))
    return EXIT_OK if dist.valid else EXIT_INVALID


def _cmd_optimize(merged: dict) -> int:
    _, resolved_params = _build_params(merged, need_v=False)
    lam, posting = resolved_params.pop("_lam"), resolved_params.pop("_posting")
    cost, resolved_cost = _build_cost(merged)
    method = _method(merged)
    w = resolved_params["w"]
    v_max = int(merged["options"].get("vmax", w))
    enforce = bool(merged["options"].get("enforce_capability", False))
    try:
        res = optimize_v(w, lam, posting, cost, v_max, method=method, enforce_capability=enforce)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    rho = capability(lam, posting.mean, w)
    curve = [
        {"v": v} | dataclasses.asdict(bd) | {"capability": rho} for v, bd in res.curve
    ]
    document = {
        "command": "optimize",
        "config": {
            "params": resolved_params,
            "cost": resolved_cost,
            "options": {"vmax": v_max, "method": method, "enforce_capability": enforce},
        },
        "result": {
            "v0": res.v0,
            "phi_min": res.phi_min,
            "any_invalid": res.any_invalid,
            "curve": curve,
        },
    }
    rows = [
        (c["v"], c["holding"], c["reserve"], c["posting"], c["total"], c["valid"], c["capability"])
        for c in curve
    ]
    header = ("v", "holding", "reserve", "posting", "total", "valid", "capability")
    _emit(document, merged, rows, header)
    return EXIT_OK if not res.any_invalid else EXIT_INVALID


def _cmd_sweep(merged: dict) -> int:
    _, resolved_params = _build_params(merged, need_v=False)
    lam, posting = resolved_params.pop("_lam"), resolved_params.pop("_posting")
    cost, resolved_cost = _build_cost(merged)
    method = _method(merged)
    opts = merged["options"]
    w_top = resolved_params["w"]
    vmin = int(opts.get("vmin", 1))
    vmax = int(opts.get("vmax", w_top))
    wmin = int(opts.get("wmin", w_top))
    wmax = int(opts.get("wmax", w_top))
    if vmin < 1 or vmin > vmax or wmin < 1 or wmin > wmax:
        raise ConfigError("sweep ranges must satisfy 1 <= vmin <= vmax and 1 <= wmin <= wmax")
    cells = sweep(lam, posting, cost, range(vmin, vmax + 1), range(wmin, wmax + 1), method=method)
    any_invalid = False
    rows = []
    out_cells = []
    for cell in cells:
        if cell.feasible:
            bd = dataclasses.asdict(cell.breakdown)
            any_invalid = any_invalid or not cell.breakdown.valid
        else:
            bd = dataclasses.asdict(ObjectiveBreakdown(*[float("nan")] * 5, valid=False))
        out_cells.append({"v": cell.v, "w": cell.w, "feasible": cell.feasible} | bd | {"capability": cell.capability})
        rows.append(
            (cell.v, cell.w, cell.feasible, bd["holding"], bd["reserve"], bd["posting"], bd["total"], bd["valid"], cell.capability)
        )
    document = {
        "command": "sweep",
        "config": {
            "params": resolved_params,
            "cost": resolved_cost,
            "options": {"vmin": vmin, "vmax": vmax, "wmin": wmin, "wmax": wmax, "method": method},
        },
        "result": {"cells": out_cells, "any_invalid": any_invalid},
    }
    header = ("v", "w", "feasible", "holding", "reserve", "posting", "total", "valid", "capability")
    _emit(document, merged, rows, header)
    return EXIT_OK if not any_invalid else EXIT_INVALID


def _sim_result_dict(result: sim_mod.SimResult) -> dict:
    return {
        "time_avg_dist": _listify(result.time_avg_dist),
        "embedded_dist": _listify(result.embedded_dist),
        "lost_customer_rate": result.lost_customer_rate,
        "avg_cost_rate": result.avg_cost_rate,
        "total_sim_time": result.total_sim_time,
        "seed": result.seed,
        "postings_counted": result.postings_counted,
    }


def _cmd_simulate(merged: dict) -> int:
    params, resolved_params = _build_params(merged)
    cost, resolved_cost = _build_cost(merged)
    config, resolved_sim = _build_sim(merged)
    result = sim_mod.run_sim(params, cost, config)
    document = {
        "command": "simulate",
        "config": {"params": resolved_params, "cost": resolved_cost, "sim": resolved_sim},
        "result": _sim_result_dict(result),
    }
    rows = [
        (k, result.time_avg_dist[k], result.embedded_dist[k]) for k in range(params.w + 1)
    ]
    _emit(document, merged, rows, ("k", "time_avg", "embedded"))
    return EXIT_OK


def _cmd_compare(merged: dict) -> int:
    params, resolved_params = _build_params(merged)
    cost, resolved_cost = _build_cost(merged)
    config, resolved_sim = _build_sim(merged)
    method = _method(merged)
    tol_tv = float(merged["options"].get("tol_tv", 0.01))
    tol_cost = float(merged["options"].get("tol_cost", 0.05))
    emb, dist = solve_instance(params, method=method)
    bd = objective(params, cost, dist)
    reports = {}
    rows = []
    for policy in (sim_mod.CLIP, sim_mod.REJECT):
        run_config = dataclasses.replace(config, policy=policy)
        result = sim_mod.run_sim(params, cost, run_config)
        report = sim_mod.compare(dist, bd, result, emb, tol_tv=tol_tv, tol_cost=tol_cost)
        reports[policy] = {
            "tv_time_avg": report.tv_time_avg,
            "max_abs_delta": report.max_abs_delta,
            "tv_embedded": report.tv_embedded,
            "cost_rate_rel_error": report.cost_rate_rel_error,
            "sim_cost_rate": result.avg_cost_rate,
            "passed": report.passed,
            "sim": _sim_result_dict(result),
        }
        rows.append(
            (
                policy,
                report.tv_time_avg,
                report.max_abs_delta,
                float("nan") if report.tv_embedded is None else report.tv_embedded,
                report.cost_rate_rel_error,
                report.passed,
            )
        )
    document = {
        "command": "compare",
        "config": {
            "params": resolved_params,
            "cost": resolved_cost,
            "sim": resolved_sim,
            "options": {"method": method, "tol_tv": tol_tv, "tol_cost": tol_cost},
        },
        "result": {
            "analytic": {
                "method": method,
                "pi1": _listify(dist.pi1),
                "valid": dist.valid,
                "breakdown": dataclasses.asdict(bd),
            },
            "policies": reports,
        },
    }
    header = ("policy", "tv_time_avg", "max_abs_delta", "tv_embedded", "cost_rate_rel_error", "passed")
    _emit(document, merged, rows, header)
    return EXIT_OK if dist.valid else EXIT_INVALID


# -- argument parsing ------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="poolqueue",
        description="Analytic solver, optimizer and simulator for a bulk-posting contractor pool.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "solve": _cmd_solve,
        "optimize": _cmd_optimize,
        "sweep": _cmd_sweep,
        "simulate": _cmd_simulate,
        "compare": _cmd_compare,
    }
    for name, handler in commands.items():
        p = sub.add_parser(name)
        p.set_defaults(handler=handler)
        p.add_argument("--config", help="JSON config file; flags override its values")
        p.add_argument("--v", type=int)
        p.add_argument("--w", type=int)
        p.add_argument("--lambda", dest="lam", type=float)
        p.add_argument("--mean", type=float)
        p.add_argument("--dist", choices=["exponential", "deterministic", "erlang"])
        p.add_argument("--shape", type=int)
        p.add_argument("--ch", type=float)
        p.add_argument("--cr", type=float)
        p.add_argument("--cd", type=float)
        p.add_argument("--vmax", type=int)
        p.add_argument("--seed", type=int)
        p.add_argument("--postings", type=int)
        p.add_argument("--warmup", type=float)
        p.add_argument("--policy", choices=[sim_mod.CLIP, sim_mod.REJECT])
        p.add_argument("--format", choices=["json", "csv"])
        p.add_argument("--out")
        p.add_argument("--method", choices=[RENEWAL, LADDER])
        p.add_argument("--enforce-capability", action="store_true", default=False)
        if name == "sweep":
            p.add_argument("--vmin", type=int)
            p.add_argument("--wmin", type=int)
            p.add_argument("--wmax", type=int)
        if name == "compare":
            p.add_argument("--tol-tv", dest="tol_tv", type=float)
            p.add_argument("--tol-cost", dest="tol_cost", type=float)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        merged = _merge(_load_config(args.config), args)
        return args.handler(merged)
    except ConfigError as exc:
        print(json.dumps({"error": {"kind": "config", "message": str(exc)}}), file=sys.stderr)
        return EXIT_CONFIG
    except (NoRootError, TruncationError, NoValidPointError) as exc:
        print(
            json.dumps({"error": {"kind": "numerical", "message": str(exc)}}),
            file=sys.stderr,
        )
        return EXIT_NUMERIC
    except PoolQueueError as exc:  # pragma: no cover - defensive
        print(json.dumps({"error": {"kind": "internal", "message": str(exc)}}), file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    raise SystemExit(main())
