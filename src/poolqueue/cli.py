"""Batch-oriented command-line front end.

Subcommands: ``solve``, ``optimize``, ``sweep``, ``simulate``, ``compare``.
Inputs come from a JSON config file and/or flags (flags win); every emitted
document embeds the fully-resolved configuration, so a document is enough to
reproduce its own run.  Output is JSON (default) or CSV, to stdout or a file.

Every setting is one row of ``_SETTINGS``: its config key, the function that
parses it, its flag, the subcommands that read it, its default and its help.
A subcommand offers the flags and accepts the config keys of exactly the
settings it reads, and its document records exactly those but the output's
format and file; a config key it does not read is a configuration error.
Each value, from the file or from a flag, is parsed once before any solve,
and a bad one is a configuration error (exit 2).

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


_REQUIRED = object()  # the default of a setting that its subcommands need
_POOL_SIZE = object()  # the default of a range bound: the pool capacity w

_ALL = {"solve", "optimize", "sweep", "simulate", "compare"}
_COSTED = _ALL - {"solve"}
_SIMULATED = {"simulate", "compare"}


@dataclasses.dataclass(frozen=True)
class _Setting:
    path: tuple[str, ...]  # config section, key (and posting field)
    parse: Callable
    flag: str | None  # None: config file only
    commands: set[str]  # the subcommands that read it
    default: object  # None: absent unless given
    help: str

    @property
    def dest(self) -> str | None:
        return self.flag and self.flag[2:].replace("-", "_")


_SETTINGS = (
    _Setting(("params", "v"), positive_int, "--v", {"solve", "simulate", "compare"}, _REQUIRED,
             "batch size: contractors posted at a time (required)"),
    _Setting(("params", "w"), positive_int, "--w", _ALL, _REQUIRED,
             "pool capacity: the most contractors the pool holds (required)"),
    _Setting(("params", "lambda"), _real, "--lambda", _ALL, _REQUIRED,
             "customer arrival rate; each customer engages one contractor (required)"),
    _Setting(("params", "posting", "kind"), _Choice((EXPONENTIAL, DETERMINISTIC, ERLANG)), "--dist", _ALL, _REQUIRED,
             "law of the interval between postings (required)"),
    _Setting(("params", "posting", "mean"), _real, "--mean", _ALL, _REQUIRED,
             "mean interval a between postings (required)"),
    _Setting(("params", "posting", "shape"), positive_int, "--shape", _ALL, 1,
             "shape of an erlang posting interval (default 1)"),
    _Setting(("cost", "ch"), _real, "--ch", _COSTED, 0.0,
             "holding cost rate per contractor in the pool (default 0)"),
    _Setting(("cost", "cr"), _real, "--cr", _COSTED, 0.0,
             "reserve cost rate per contractor beyond the batch size (default 0)"),
    _Setting(("cost", "cd"), _real, "--cd", _COSTED, 0.0,
             "cost of one posting (default 0)"),
    _Setting(("cost", "holding_table"), _reals, None, _COSTED, None,
             "holding cost rate with k contractors in the pool, k = 0..w, in place of ch * k"),
    _Setting(("cost", "reserve_table"), _reals, None, _COSTED, None,
             "reserve cost rate with n contractors beyond the batch size, in place of cr * n"),
    _Setting(("sim", "seed"), _integer, "--seed", _SIMULATED, 0,
             "seed of the simulation's random draws (default 0)"),
    _Setting(("sim", "postings"), _integer, "--postings", _SIMULATED, 100_000,
             "postings to simulate (default 100000)"),
    _Setting(("sim", "warmup"), _real, "--warmup", _SIMULATED, 0.1,
             "fraction of the postings simulated before measuring starts (default 0.1)"),
    _Setting(("sim", "policy"), _Choice((sim_mod.CLIP, sim_mod.REJECT)), "--policy", {"simulate"}, sim_mod.CLIP,
             "a posting that would overfill the pool is clipped to fit, or rejected (default clip)"),
    _Setting(("options", "vmin"), _integer, "--vmin", {"sweep"}, 1,
             "smallest batch size of the grid (default 1)"),
    _Setting(("options", "vmax"), _integer, "--vmax", {"optimize", "sweep"}, _POOL_SIZE,
             "largest batch size searched (default w)"),
    _Setting(("options", "wmin"), _integer, "--wmin", {"sweep"}, _POOL_SIZE,
             "smallest pool capacity of the grid (default w)"),
    _Setting(("options", "wmax"), _integer, "--wmax", {"sweep"}, _POOL_SIZE,
             "largest pool capacity of the grid (default w)"),
    _Setting(("options", "method"), _Choice((RENEWAL, LADDER)), "--method", _ALL - {"simulate"}, RENEWAL,
             "route to the stationary law: renewal, or ladder through the embedded chain (default renewal)"),
    _Setting(("options", "tol_tv"), _tolerance, "--tol-tv", {"compare"}, 0.01,
             "largest total-variation distance, simulated to analytic law, that passes (default 0.01)"),
    _Setting(("options", "tol_cost"), _tolerance, "--tol-cost", {"compare"}, 0.05,
             "largest relative cost-rate error, simulated to analytic, that passes (default 0.05)"),
    _Setting(("options", "format"), _Choice(("json", "csv")), "--format", _ALL, "json",
             "output format (default json)"),
    _Setting(("options", "out"), _text, "--out", _ALL, "-",
             "output file, - for stdout (default -)"),
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


_TREES = {command: _tree(s for s in _SETTINGS if command in s.commands) for command in _ALL}


def _resolve(command: str, config, flags: dict) -> dict:
    """Check ``config``'s keys against the settings ``command`` reads, overlay
    the given ``flags`` (by dest) and parse every value; fill in defaults."""
    resolved: dict = {}

    def section(config, node: dict, where: tuple, into: dict) -> None:
        place = f"config section {'.'.join(where)!r}" if where else "config file"
        if not isinstance(config, dict):
            raise ConfigError(f"{place} must be a JSON object")
        for key in config:
            if key not in node:
                raise ConfigError(f"{command} reads no key {key!r} in {place}")
        for key, entry in node.items():
            if isinstance(entry, dict):
                section(config.get(key, {}), entry, (*where, key), into.setdefault(key, {}))
            elif entry.dest in flags or key in config:
                value = flags[entry.dest] if entry.dest in flags else config[key]
                try:
                    into[key] = entry.parse(key, value)
                except (ValueError, OverflowError) as exc:
                    raise ConfigError(str(exc)) from exc
            elif entry.default is _REQUIRED:
                raise ConfigError(f"missing required setting {key!r} in {place}")
            elif entry.default is _POOL_SIZE:
                into[key] = resolved["params"]["w"]  # params precede options in the table
            elif entry.default is not None:
                into[key] = entry.default

    section(config, _TREES[command], (), resolved)
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
    posting = p["posting"]
    # PostingDistribution ignores the shape of the other kinds
    if posting["shape"] != 1 and posting["kind"] != ERLANG:
        raise ConfigError(f"shape={posting['shape']} applies to erlang postings only, not {posting['kind']}")
    return p["w"], p["lambda"], _checked(PostingDistribution, **posting)


def _system(cfg: dict) -> SystemParams:
    """The instance of the commands that take one batch size ``v``."""
    return _checked(SystemParams, cfg["params"]["v"], *_pool(cfg))


def _cost(cfg: dict) -> CostParams:
    c = cfg["cost"]
    return _checked(CostParams, c["ch"], c["cr"], c["cd"], c.get("holding_table"), c.get("reserve_table"))


def _sim(cfg: dict, policy: str) -> sim_mod.SimConfig:
    s = cfg["sim"]
    return _checked(sim_mod.SimConfig, s["seed"], s["postings"], s["warmup"], policy)


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


def _emit(command: str, cfg: dict, result: dict, records: list[dict]) -> None:
    """Write the document (the settings ``command`` read, but for where the
    output goes, and ``result``) as JSON, or ``records`` projected onto the
    command's CSV header."""
    options = dict(cfg["options"])
    fmt, out = options.pop("format"), options.pop("out")
    config = {section: values for section, values in (cfg | {"options": options}).items() if values}
    if fmt == "json":
        text = json.dumps({"command": command, "config": config, "result": result}, indent=2, default=_jsonable) + "\n"
    else:
        header = _CSV_HEADERS[command]
        lines = ["# config: " + json.dumps(config), ",".join(header)]
        lines += [",".join(_csv_field(record[h]) for h in header) for record in records]
        text = "\n".join(lines) + "\n"
    if out == "-":
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write output file {out}: {exc}") from exc


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
    levels = range(params.w + 1)
    _emit("solve", cfg, result, _records(k=levels, P=result["P"] or [None] * len(levels), pi=result["pi"], pi1=result["pi1"]))
    return EXIT_OK if dist.valid else EXIT_INVALID


def _cmd_optimize(cfg: dict) -> int:
    w, lam, posting = _pool(cfg)
    cost = _cost(cfg)
    opts = cfg["options"]
    res = _checked(optimize_v, w, lam, posting, cost, opts["vmax"], method=opts["method"])
    rho = capability(lam, posting.mean, w)
    curve = [
        {"v": v} | dataclasses.asdict(bd) | {"capability": rho} for v, bd in res.curve
    ]
    result = {"v0": res.v0, "phi_min": res.phi_min, "any_invalid": res.any_invalid, "curve": curve}
    _emit("optimize", cfg, result, curve)
    return EXIT_OK if not res.any_invalid else EXIT_INVALID


_INFEASIBLE = ObjectiveBreakdown(*[float("nan")] * 5, valid=False)


def _cmd_sweep(cfg: dict) -> int:
    w, lam, posting = _pool(cfg)
    cost = _cost(cfg)
    opts = cfg["options"]
    vmin, vmax, wmin, wmax = (opts[key] for key in ("vmin", "vmax", "wmin", "wmax"))
    if vmin < 1 or vmin > vmax or wmin < 1 or wmin > wmax:
        raise ConfigError("sweep ranges must satisfy 1 <= vmin <= vmax and 1 <= wmin <= wmax")
    cells = [
        {"v": cell.v, "w": cell.w, "feasible": cell.feasible}
        | dataclasses.asdict(cell.breakdown or _INFEASIBLE)
        | {"capability": cell.capability}
        for cell in _checked(sweep, lam, posting, cost, range(vmin, vmax + 1), range(wmin, wmax + 1), method=opts["method"])
    ]
    any_invalid = any(cell["feasible"] and not cell["valid"] for cell in cells)
    _emit("sweep", cfg, {"cells": cells, "any_invalid": any_invalid}, cells)
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
    params, cost, config = _system(cfg), _cost(cfg), _sim(cfg, cfg["sim"]["policy"])
    result = _sim_result_dict(sim_mod.run_sim(params, cost, config))
    levels = range(params.w + 1)
    _emit("simulate", cfg, result, _records(k=levels, time_avg=result["time_avg_dist"], embedded=result["embedded_dist"]))
    return EXIT_OK


def _cmd_compare(cfg: dict) -> int:
    params, cost = _system(cfg), _cost(cfg)
    configs = {policy: _sim(cfg, policy) for policy in (sim_mod.CLIP, sim_mod.REJECT)}
    opts = cfg["options"]
    method, tol_tv, tol_cost = opts["method"], opts["tol_tv"], opts["tol_cost"]
    _, dist = solve_instance(params, method=method)
    bd = objective(params, cost, dist)
    reports = {}
    for policy, config in configs.items():
        result = sim_mod.run_sim(params, cost, config)
        report = sim_mod.compare(dist, bd, result, tol_tv=tol_tv, tol_cost=tol_cost)
        reports[policy] = {
            "tv_time_avg": report.tv_time_avg,
            "max_abs_delta": report.max_abs_delta,
            "tv_embedded": report.tv_embedded,
            "cost_rate_rel_error": report.cost_rate_rel_error,
            "sim_cost_rate": result.avg_cost_rate,
            "passed": report.passed,
            "sim": _sim_result_dict(result),
        }
    analytic = {"method": method, "pi1": _listify(dist.pi1), "valid": dist.valid, "breakdown": dataclasses.asdict(bd)}
    records = [{"policy": policy} | report for policy, report in reports.items()]
    _emit("compare", cfg, {"analytic": analytic, "policies": reports}, records)
    return EXIT_OK if dist.valid else EXIT_INVALID


# -- argument parsing ------------------------------------------------------

_FLAG_TYPES = {positive_int: int, _integer: int, _real: float, _tolerance: float}


def _flag_options(parse) -> dict:
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
        # no abbreviations: optimize would read --v, a flag it does not offer, as --vmax
        p = sub.add_parser(name, allow_abbrev=False)
        p.set_defaults(handler=handler)
        p.add_argument("--config", help="JSON config file; flags override its values")
        for setting in _SETTINGS:
            if setting.flag and name in setting.commands:
                p.add_argument(setting.flag, help=setting.help, **_flag_options(setting.parse))
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    flags = {dest: value for dest, value in vars(args).items() if value is not None}
    try:
        return args.handler(_resolve(args.command, _load_config(args.config), flags))
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
