"""Batch-oriented command-line front end.

Subcommands: ``solve``, ``optimize``, ``sweep``, ``simulate``, ``compare``.
Inputs come from a JSON config file and/or flags (flags win); every emitted
document embeds the fully-resolved configuration, so a document is enough to
reproduce its own run.  Output is JSON (default) or CSV, to stdout or a file.

Every setting is one row of ``_SETTINGS``: its config key, its flag and the
function that parses it.  Each value, from the file or from a flag, is parsed
once before any solve, and a bad one is a configuration error (exit 2).

Ladder fields (``kappa``, ``root``, ``truncation_level``, ``P``, ``g_vector``,
``tpm_stationary_max_delta``, ``tv_embedded``) are computed only with
``--method ladder``; otherwise they are null, and the CSV ``P`` column nan.

Exit status: 0 success, 1 analytic-validity failure (negative probabilities
flagged), 2 configuration error, 3 internal numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from typing import Callable

import numpy as np

from . import sim as sim_mod
from .dist import DETERMINISTIC, ERLANG, EXPONENTIAL, PostingDistribution, positive_int
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


# -- value parsers: (key, value) -> value, ValueError when it is bad ---------


def _real(name: str, value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(value)


def _integer(name: str, value) -> int:
    """A whole number; JSON may write it as ``3.0``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or value % 1:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _tolerance(name: str, value) -> float:
    return sim_mod.check_tolerance(name, _real(name, value))


def _boolean(name: str, value) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"{name} must be true or false, got {value!r}")
    return value


def _text(name: str, value) -> str:
    if not isinstance(value, str):
        raise ValueError(f"{name} must be a string, got {value!r}")
    return value


def _reals(name: str, value) -> tuple[float, ...]:
    if not isinstance(value, list):
        raise ValueError(f"{name} must be a list of numbers, got {value!r}")
    return tuple(_real(name, x) for x in value)


class _Choice(tuple):
    """One of a fixed set of strings; doubles as argparse ``choices``."""

    def __call__(self, name: str, value) -> str:
        if value not in self:
            raise ValueError(f"{name} must be one of {list(self)}, got {value!r}")
        return value


_REQUIRED = object()  # the default of a setting that every subcommand needs


@dataclasses.dataclass(frozen=True)
class _Setting:
    path: tuple[str, ...]  # config section, key (and posting field)
    parse: Callable
    flag: str | None = None  # None: config file only
    command: str | None = None  # the one subcommand offering the flag; None: all
    default: object = None  # None: absent unless given

    @property
    def dest(self) -> str | None:
        return self.flag and self.flag[2:].replace("-", "_")


_SETTINGS = (
    _Setting(("params", "v"), positive_int, "--v"),
    _Setting(("params", "w"), positive_int, "--w", default=_REQUIRED),
    _Setting(("params", "lambda"), _real, "--lambda", default=_REQUIRED),
    _Setting(("params", "posting", "kind"), _Choice((EXPONENTIAL, DETERMINISTIC, ERLANG)), "--dist", default=_REQUIRED),
    _Setting(("params", "posting", "mean"), _real, "--mean", default=_REQUIRED),
    _Setting(("params", "posting", "shape"), positive_int, "--shape", default=1),
    _Setting(("cost", "ch"), _real, "--ch", default=0.0),
    _Setting(("cost", "cr"), _real, "--cr", default=0.0),
    _Setting(("cost", "cd"), _real, "--cd", default=0.0),
    _Setting(("cost", "holding_table"), _reals),
    _Setting(("cost", "reserve_table"), _reals),
    _Setting(("sim", "seed"), _integer, "--seed", default=0),
    _Setting(("sim", "postings"), _integer, "--postings", default=100_000),
    _Setting(("sim", "warmup"), _real, "--warmup", default=0.1),
    _Setting(("sim", "policy"), _Choice((sim_mod.CLIP, sim_mod.REJECT)), "--policy", command="simulate", default=sim_mod.CLIP),
    _Setting(("options", "vmin"), _integer, "--vmin", command="sweep", default=1),
    _Setting(("options", "vmax"), _integer, "--vmax"),  # default: w
    _Setting(("options", "wmin"), _integer, "--wmin", command="sweep"),  # default: w
    _Setting(("options", "wmax"), _integer, "--wmax", command="sweep"),  # default: w
    _Setting(("options", "method"), _Choice((RENEWAL, LADDER)), "--method", default=RENEWAL),
    _Setting(("options", "enforce_capability"), _boolean, "--enforce-capability", default=False),
    _Setting(("options", "tol_tv"), _tolerance, "--tol-tv", command="compare", default=0.01),
    _Setting(("options", "tol_cost"), _tolerance, "--tol-cost", command="compare", default=0.05),
    _Setting(("options", "format"), _Choice(("json", "csv")), "--format", default="json"),
    _Setting(("options", "out"), _text, "--out", default="-"),
)


def _tree(settings) -> dict:
    """The settings nested by path: section -> key -> setting (or record)."""
    tree: dict = {}
    for setting in settings:
        *parents, key = setting.path
        node = tree
        for name in parents:
            node = node.setdefault(name, {})
        node[key] = setting
    return tree


_TREE = _tree(_SETTINGS)


def _resolve(config, flags: dict, node: dict = _TREE, where: tuple = ()) -> dict:
    """Check ``config``'s keys against the settings, overlay the given
    ``flags`` (by dest) and parse every value; fill in defaults."""
    place = f"config section {'.'.join(where)!r}" if where else "config file"
    if not isinstance(config, dict):
        raise ConfigError(f"{place} must be a JSON object")
    for key in config:
        if key not in node:
            raise ConfigError(f"unknown key {key!r} in {place}")
    resolved = {}
    for key, entry in node.items():
        if isinstance(entry, dict):
            resolved[key] = _resolve(config.get(key, {}), flags, entry, (*where, key))
        elif entry.dest in flags or key in config:
            value = flags[entry.dest] if entry.dest in flags else config[key]
            try:
                resolved[key] = entry.parse(key, value)
            except (ValueError, OverflowError) as exc:
                raise ConfigError(str(exc)) from exc
        elif entry.default is _REQUIRED:
            raise ConfigError(f"missing required setting {key!r} in {place}")
        elif entry.default is not None:
            resolved[key] = entry.default
    return resolved


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc


def _checked(build, *args, **kwargs):
    """``build(*args, **kwargs)``, its ValueError (a rejected value) a ConfigError."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _pool(cfg: dict) -> tuple[int, float, PostingDistribution]:
    p = cfg["params"]
    return p["w"], p["lambda"], _checked(PostingDistribution, **p["posting"])


def _system(cfg: dict) -> SystemParams:
    """The instance of the commands that take one batch size ``v``."""
    if "v" not in cfg["params"]:
        raise ConfigError("missing required setting 'v' in config section 'params'")
    return _checked(SystemParams, cfg["params"]["v"], *_pool(cfg))


def _cost(cfg: dict) -> CostParams:
    c = cfg["cost"]
    return _checked(CostParams, c["ch"], c["cr"], c["cd"], c.get("holding_table"), c.get("reserve_table"))


def _sim(cfg: dict) -> sim_mod.SimConfig:
    s = cfg["sim"]
    return _checked(sim_mod.SimConfig, s["seed"], s["postings"], s["warmup"], s["policy"])


# -- output ----------------------------------------------------------------

_CSV_HEADERS = {
    "solve": ("k", "P", "pi", "pi1"),
    "optimize": ("v", "holding", "reserve", "posting", "total", "valid", "capability"),
    "sweep": ("v", "w", "feasible", "holding", "reserve", "posting", "total", "valid", "capability"),
    "simulate": ("k", "time_avg", "embedded"),
    "compare": ("policy", "tv_time_avg", "max_abs_delta", "tv_embedded", "cost_rate_rel_error", "passed"),
}


def _records(**columns) -> list[dict]:
    """Equal-length columns as one record per row."""
    return [dict(zip(columns, row)) for row in zip(*columns.values())]


def _emit(document: dict, cfg: dict, records: list[dict]) -> None:
    """Write ``document`` as JSON, or ``records`` projected onto the
    command's CSV header."""
    opts = cfg["options"]
    if opts["format"] == "json":
        text = json.dumps(document, indent=2, default=_jsonable) + "\n"
    else:
        header = _CSV_HEADERS[document["command"]]
        lines = ["# config: " + json.dumps(document["config"]), ",".join(header)]
        lines += [",".join(_csv_field(record[h]) for h in header) for record in records]
        text = "\n".join(lines) + "\n"
    if opts["out"] == "-":
        sys.stdout.write(text)
        return
    try:
        with open(opts["out"], "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write output file {opts['out']}: {exc}") from exc


def _jsonable(x):
    """Fallback encoder for numpy scalars that leak into documents."""
    if isinstance(x, np.integer):
        return int(x)
    if isinstance(x, (np.floating, np.bool_)):
        return x.item()
    raise TypeError(f"not JSON serializable: {type(x).__name__}")


def _csv_field(x) -> str:
    if x is None:
        return "nan"
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _listify(arr) -> list:
    return [float(x) for x in np.asarray(arr)]


# -- subcommands -----------------------------------------------------------


def _cmd_solve(cfg: dict) -> int:
    params = _system(cfg)
    method = cfg["options"]["method"]
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
    document = {"command": "solve", "config": {"params": cfg["params"], "options": {"method": method}}, "result": result}
    levels = range(params.w + 1)
    _emit(document, cfg, _records(k=levels, P=result["P"] or [None] * len(levels), pi=result["pi"], pi1=result["pi1"]))
    return EXIT_OK if dist.valid else EXIT_INVALID


def _pool_config(cfg: dict) -> dict:
    """The ``params`` record of the commands that range over v."""
    return {key: value for key, value in cfg["params"].items() if key != "v"}


def _cmd_optimize(cfg: dict) -> int:
    w, lam, posting = _pool(cfg)
    cost = _cost(cfg)
    opts = cfg["options"]
    method, enforce = opts["method"], opts["enforce_capability"]
    v_max = opts.get("vmax", w)
    res = _checked(optimize_v, w, lam, posting, cost, v_max, method=method, enforce_capability=enforce)
    rho = capability(lam, posting.mean, w)
    curve = [
        {"v": v} | dataclasses.asdict(bd) | {"capability": rho} for v, bd in res.curve
    ]
    document = {
        "command": "optimize",
        "config": {
            "params": _pool_config(cfg),
            "cost": cfg["cost"],
            "options": {"vmax": v_max, "method": method, "enforce_capability": enforce},
        },
        "result": {
            "v0": res.v0,
            "phi_min": res.phi_min,
            "any_invalid": res.any_invalid,
            "curve": curve,
        },
    }
    _emit(document, cfg, curve)
    return EXIT_OK if not res.any_invalid else EXIT_INVALID


_INFEASIBLE = ObjectiveBreakdown(*[float("nan")] * 5, valid=False)


def _cmd_sweep(cfg: dict) -> int:
    w, lam, posting = _pool(cfg)
    cost = _cost(cfg)
    opts = cfg["options"]
    method = opts["method"]
    ranges = {"vmin": opts["vmin"], "vmax": opts.get("vmax", w), "wmin": opts.get("wmin", w), "wmax": opts.get("wmax", w)}
    vmin, vmax, wmin, wmax = ranges.values()
    if vmin < 1 or vmin > vmax or wmin < 1 or wmin > wmax:
        raise ConfigError("sweep ranges must satisfy 1 <= vmin <= vmax and 1 <= wmin <= wmax")
    cells = [
        {"v": cell.v, "w": cell.w, "feasible": cell.feasible}
        | dataclasses.asdict(cell.breakdown or _INFEASIBLE)
        | {"capability": cell.capability}
        for cell in _checked(sweep, lam, posting, cost, range(vmin, vmax + 1), range(wmin, wmax + 1), method=method)
    ]
    any_invalid = any(cell["feasible"] and not cell["valid"] for cell in cells)
    document = {
        "command": "sweep",
        "config": {"params": _pool_config(cfg), "cost": cfg["cost"], "options": ranges | {"method": method}},
        "result": {"cells": cells, "any_invalid": any_invalid},
    }
    _emit(document, cfg, cells)
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


def _cmd_simulate(cfg: dict) -> int:
    params, cost, config = _system(cfg), _cost(cfg), _sim(cfg)
    result = _sim_result_dict(sim_mod.run_sim(params, cost, config))
    document = {
        "command": "simulate",
        "config": {"params": cfg["params"], "cost": cfg["cost"], "sim": cfg["sim"]},
        "result": result,
    }
    levels = range(params.w + 1)
    _emit(document, cfg, _records(k=levels, time_avg=result["time_avg_dist"], embedded=result["embedded_dist"]))
    return EXIT_OK


def _cmd_compare(cfg: dict) -> int:
    params, cost, config = _system(cfg), _cost(cfg), _sim(cfg)
    opts = cfg["options"]
    method, tol_tv, tol_cost = opts["method"], opts["tol_tv"], opts["tol_cost"]
    emb, dist = solve_instance(params, method=method)
    bd = objective(params, cost, dist)
    reports = {}
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
    document = {
        "command": "compare",
        "config": {
            "params": cfg["params"],
            "cost": cfg["cost"],
            "sim": cfg["sim"],
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
    _emit(document, cfg, [{"policy": policy} | report for policy, report in reports.items()])
    return EXIT_OK if dist.valid else EXIT_INVALID


# -- argument parsing ------------------------------------------------------

_FLAG_TYPES = {positive_int: int, _integer: int, _real: float, _tolerance: float}


def _flag_options(parse) -> dict:
    if parse is _boolean:
        return {"action": "store_true", "default": None}
    if isinstance(parse, _Choice):
        return {"choices": parse}
    return {"type": _FLAG_TYPES.get(parse)}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it as it was."""
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
        for setting in _SETTINGS:
            if setting.flag and setting.command in (None, name):
                p.add_argument(setting.flag, **_flag_options(setting.parse))
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    flags = {dest: value for dest, value in vars(args).items() if value is not None}
    try:
        return args.handler(_resolve(_load_config(args.config), flags))
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
