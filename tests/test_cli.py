"""Command-line interface: configs, overrides, formats, exit codes."""

import argparse
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import poolqueue
from poolqueue import PostingDistribution, SystemParams, embedded_P, tpm_stationary_delta
from poolqueue.cli import EXIT_CONFIG, EXIT_NUMERIC, EXIT_OK, build_parser, main

BASE = [
    "--v", "2", "--w", "6", "--lambda", "1.0",
    "--dist", "exponential", "--mean", "1.0",
]


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_solve_json_document(capsys):
    code, out, _ = run(capsys, ["solve", *BASE])
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["command"] == "solve"
    # the document embeds the fully-resolved configuration
    assert doc["config"]["params"] == {
        "v": 2, "w": 6, "lambda": 1.0,
        "posting": {"kind": "exponential", "mean": 1.0, "shape": 1},
    }
    pi = np.array(doc["result"]["pi"])
    pi1 = np.array(doc["result"]["pi1"])
    assert pi.sum() == pytest.approx(1.0, abs=1e-9)
    assert np.array_equal(pi1, pi[::-1])
    assert doc["result"]["valid"] is True


def test_solve_csv_round_trip(capsys, tmp_path):
    out_file = tmp_path / "solve.csv"
    code, _, _ = run(capsys, ["solve", *BASE, "--format", "csv", "--out", str(out_file)])
    assert code == EXIT_OK
    lines = out_file.read_text().splitlines()
    assert lines[0].startswith("# config: ")
    embedded_config = json.loads(lines[0][len("# config: "):])
    assert embedded_config["params"]["v"] == 2
    assert lines[1] == "k,P,pi,pi1"
    rows = [line.split(",") for line in lines[2:]]
    assert len(rows) == 7
    # full-precision round trip: the csv values reparse to the json ones
    code2, out2, _ = run(capsys, ["solve", *BASE])
    doc = json.loads(out2)
    for k, row in enumerate(rows):
        assert float(row[2]) == doc["result"]["pi"][k]


def test_config_file_with_flag_override(capsys, tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "params": {"v": 2, "w": 6, "lambda": 1.0,
                   "posting": {"kind": "exponential", "mean": 1.0}},
    }))
    code, out, _ = run(capsys, ["solve", "--config", str(config), "--w", "8"])
    assert code == EXIT_OK
    assert json.loads(out)["config"]["params"]["w"] == 8


def test_unknown_config_key_named(capsys, tmp_path):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"params": {"speed": 3}}))
    code, _, err = run(capsys, ["solve", "--config", str(config)])
    assert code == EXIT_CONFIG
    assert "'speed'" in err


def test_invalid_geometry_exit_and_message(capsys):
    code, _, err = run(capsys, [
        "solve", "--v", "9", "--w", "5", "--lambda", "1.0",
        "--dist", "exponential", "--mean", "1.0",
    ])
    assert code == EXIT_CONFIG
    assert "v=9" in err and "w=5" in err


def test_ladder_heavy_load_is_numerical_failure(capsys):
    code, _, err = run(capsys, [
        "solve", "--v", "1", "--w", "5", "--lambda", "2.0",
        "--dist", "exponential", "--mean", "1.0", "--method", "ladder",
    ])
    assert code == EXIT_NUMERIC
    assert json.loads(err)["error"]["kind"] == "numerical"


LADDER_KEYS = ("kappa", "root", "truncation_level", "P", "g_vector", "tpm_stationary_max_delta")
EXP_V3_W35 = ["--v", "3", "--w", "35", "--dist", "exponential", "--mean", "1.3"]


def test_default_solve_leaves_ladder_keys_null(capsys, tmp_path):
    code, out, _ = run(capsys, ["solve", *BASE])
    assert code == EXIT_OK
    result = json.loads(out)["result"]
    assert all(key in result and result[key] is None for key in LADDER_KEYS)
    out_file = tmp_path / "solve.csv"
    run(capsys, ["solve", *BASE, "--format", "csv", "--out", str(out_file)])
    rows = [line.split(",") for line in out_file.read_text().splitlines()[2:]]
    assert [row[1] for row in rows] == ["nan"] * 7


def test_ladder_solve_reports_one_embedded_solution(capsys):
    code, out, _ = run(capsys, ["solve", *BASE, "--method", "ladder"])
    assert code == EXIT_OK
    result = json.loads(out)["result"]
    p = SystemParams(v=2, w=6, lam=1.0, posting=PostingDistribution("exponential", 1.0))
    emb = embedded_P(p)
    assert result["P"] == list(emb.P)
    assert result["root"] == emb.root
    assert len(result["g_vector"]) == 6
    assert result["tpm_stationary_max_delta"] == tpm_stationary_delta(p, emb)


def test_default_solve_near_load_one_skips_the_truncated_solve(capsys):
    # Erlang(3) at load 0.9997: the ladder's truncated solve, which the
    # default used to run and drop, took 17.6 s and 1.85 GB and then failed
    argv = ["solve", "--v", "3", "--w", "120", "--lambda", repr(0.9997 * 3 / 1.3),
            "--dist", "erlang", "--shape", "3", "--mean", "1.3"]
    code, out, _ = run(capsys, argv)
    assert code == EXIT_OK
    result = json.loads(out)["result"]
    assert result["valid"] is True
    assert all(result[key] is None for key in LADDER_KEYS)


@pytest.mark.parametrize("command", ["solve", "compare"])
def test_default_exponential_load_0_999999_exits_ok(capsys, command):
    # the geometric head the default used to build here ran out of memory
    argv = [command, *EXP_V3_W35, "--lambda", repr(0.999999 * 3 / 1.3)]
    if command == "compare":
        argv += ["--seed", "3", "--postings", "5000"]
    code, out, _ = run(capsys, argv)
    assert code == EXIT_OK
    result = json.loads(out)["result"]
    if command == "compare":
        assert [r["tv_embedded"] for r in result["policies"].values()] == [None, None]
    else:
        assert result["valid"] is True


def test_ladder_at_load_one_minus_1e9_is_numerical_failure(capsys):
    argv = ["solve", *EXP_V3_W35, "--lambda", repr((1 - 1e-9) * 3 / 1.3), "--method", "ladder"]
    code, out, err = run(capsys, argv)
    assert code == EXIT_NUMERIC
    assert out == ""
    assert json.loads(err)["error"]["kind"] == "numerical"


def test_optimize_document(capsys):
    code, out, _ = run(capsys, [
        "optimize", "--w", "6", "--lambda", "1.0",
        "--dist", "exponential", "--mean", "1.0",
        "--ch", "2", "--cr", "1", "--cd", "10", "--vmax", "6",
    ])
    assert code == EXIT_OK
    doc = json.loads(out)
    curve = doc["result"]["curve"]
    assert len(curve) == 6
    totals = {c["v"]: c["total"] for c in curve}
    assert doc["result"]["phi_min"] == min(totals.values())
    assert totals[doc["result"]["v0"]] == doc["result"]["phi_min"]


def test_sweep_document(capsys):
    code, out, _ = run(capsys, [
        "sweep", "--w", "5", "--lambda", "1.0",
        "--dist", "exponential", "--mean", "1.0",
        "--ch", "1", "--cd", "5",
        "--vmin", "1", "--vmax", "6", "--wmin", "4", "--wmax", "5",
    ])
    assert code == EXIT_OK
    cells = json.loads(out)["result"]["cells"]
    assert len(cells) == 12
    grid = {(c["v"], c["w"]): c for c in cells}
    assert grid[(6, 4)]["feasible"] is False
    assert grid[(6, 5)]["feasible"] is False
    assert grid[(3, 5)]["feasible"] is True


def test_simulate_document_embeds_seed(capsys):
    code, out, _ = run(capsys, [
        "simulate", *BASE, "--ch", "1", "--cd", "1",
        "--seed", "77", "--postings", "5000",
    ])
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["config"]["sim"]["seed"] == 77
    assert doc["result"]["seed"] == 77
    dist = np.array(doc["result"]["time_avg_dist"])
    assert dist.sum() == pytest.approx(1.0, abs=1e-9)


def test_simulate_is_reproducible_from_document(capsys):
    argv = ["simulate", *BASE, "--seed", "5", "--postings", "3000"]
    _, out1, _ = run(capsys, argv)
    _, out2, _ = run(capsys, argv)
    assert out1 == out2


def test_simulate_too_few_counted_postings_is_config_error(capsys):
    code, out, err = run(capsys, [
        "simulate", *BASE, "--seed", "1", "--postings", "10", "--warmup", "0.95",
    ])
    assert code == EXIT_CONFIG
    assert out == ""
    assert json.loads(err)["error"]["kind"] == "config"


def test_compare_reports_both_policies(capsys):
    code, out, _ = run(capsys, [
        "compare", *BASE, "--ch", "1", "--cr", "1", "--cd", "1",
        "--seed", "7", "--postings", "60000",
    ])
    assert code == EXIT_OK
    doc = json.loads(out)
    policies = doc["result"]["policies"]
    assert set(policies) == {"clip", "reject"}
    assert policies["clip"]["passed"] is True
    assert policies["clip"]["tv_time_avg"] < policies["reject"]["tv_time_avg"]
    assert "breakdown" in doc["result"]["analytic"]


def test_unknown_format_rejected(capsys, tmp_path):
    # the format value is validated when it comes from a config file
    code, _, err = run(capsys, ["solve", *BASE, "--out", "-"])
    assert code == EXIT_OK
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"options": {"format": "xml"}}))
    code, out, err = run(capsys, ["solve", *BASE, "--config", str(cfg)])
    assert code == EXIT_CONFIG
    assert out == ""
    assert json.loads(err)["error"]["kind"] == "config"


def test_sweep_bad_range_rejected(capsys):
    code, _, err = run(capsys, [
        "sweep", "--w", "5", "--lambda", "1.0",
        "--dist", "exponential", "--mean", "1.0",
        "--vmin", "4", "--vmax", "2",
    ])
    assert code == EXIT_CONFIG


@pytest.mark.parametrize("flag, value", [("--ch", "nan"), ("--mean", "inf"), ("--lambda", "nan")])
def test_non_finite_input_is_config_error(capsys, flag, value):
    argv = ["optimize", *BASE[2:], "--ch", "3", "--cr", "1", "--cd", "80"]
    argv[argv.index(flag) + 1] = value
    code, _, err = run(capsys, argv)
    assert code == EXIT_CONFIG
    assert "finite" in err or "positive" in err


@pytest.mark.parametrize("kind", ["exponential", "deterministic"])
def test_shape_of_a_kind_without_one_is_config_error(capsys, tmp_path, kind):
    # solve --dist exponential --shape 5 used to exit 0, record the shape and
    # ignore it
    argv = ["solve", "--v", "2", "--w", "6", "--lambda", "1.0", "--dist", kind, "--mean", "1.0"]
    code, out, err = run(capsys, [*argv, "--shape", "5"])
    assert code == EXIT_CONFIG and out == ""
    error = json.loads(err)["error"]
    assert error["kind"] == "config" and "shape" in error["message"]
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"params": {"posting": {"shape": 5}}}))
    code, out, err = run(capsys, [*argv, "--config", str(cfg)])
    assert code == EXIT_CONFIG and out == ""
    assert "shape" in json.loads(err)["error"]["message"]
    # the default shape is accepted and recorded, as before
    code, out, _ = run(capsys, [*argv, "--shape", "1"])
    assert code == EXIT_OK
    assert json.loads(out)["config"]["params"]["posting"]["shape"] == 1


def test_enforce_capability_is_no_setting(capsys, tmp_path):
    # the capability factor does not depend on v, so the flag either changed
    # nothing or left no batch size to choose
    argv = ["optimize", "--w", "6", "--lambda", "3", "--dist", "exponential", "--mean", "3"]
    with pytest.raises(SystemExit) as exited:
        main([*argv, "--enforce-capability"])
    assert exited.value.code == 2
    capsys.readouterr()
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"options": {"enforce_capability": True}}))
    code, out, err = run(capsys, [*argv, "--config", str(cfg)])
    assert code == EXIT_CONFIG and out == ""
    assert "'enforce_capability'" in json.loads(err)["error"]["message"]


@pytest.mark.parametrize("key, value", [("w", 6.7), ("v", 2.5)])
def test_fractional_geometry_in_config_is_config_error(capsys, tmp_path, key, value):
    # int() used to cut w = 6.7 down to 6 without a word
    params = {"v": 2, "w": 6, "lambda": 1.0, "posting": {"kind": "exponential", "mean": 1.0}}
    params[key] = value
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"params": params}))
    code, _, err = run(capsys, ["solve", "--config", str(cfg)])
    assert code == EXIT_CONFIG
    assert f"{key} must be a positive integer" in err


# w=6, lambda=3, a=3: a valid instance, with a positive capability factor
MISREAD_PARAMS = {"w": 6, "lambda": 3, "posting": {"kind": "exponential", "mean": 3}}
MISREAD_COST = {"ch": 1, "cr": 1, "cd": 1}
# each case runs on a subcommand that reads its key, from a file of keys that
# subcommand reads, so that the key's own value parser rejects it
MISREAD_BASE = {
    "optimize": {"params": MISREAD_PARAMS, "cost": MISREAD_COST},
    "solve": {"params": MISREAD_PARAMS | {"v": 2}},
    "compare": {"params": MISREAD_PARAMS | {"v": 2}, "cost": MISREAD_COST},
}


@pytest.mark.parametrize("section, key, value", [
    ("options", "vmax", 4.7),  # used to run v = 1..4
    ("options", "vmax", "x"),  # used to escape as a ValueError traceback
    ("cost", "ch", "abc"),  # likewise
    ("params", "v", True),  # JSON true is not the integer 1
    ("options", "tol_tv", 0),  # fails every comparison
])
def test_bad_config_value_is_config_error(capsys, tmp_path, section, key, value):
    command = {"v": "solve", "tol_tv": "compare"}.get(key, "optimize")
    config = json.loads(json.dumps(MISREAD_BASE[command]))
    config.setdefault(section, {})[key] = value
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(config))
    code, out, err = run(capsys, [command, "--config", str(cfg)])
    assert code == EXIT_CONFIG
    assert out == ""
    error = json.loads(err)["error"]
    assert error["kind"] == "config" and f"{key} must be" in error["message"]


def test_negative_seed_is_config_error(capsys):
    code, out, err = run(capsys, ["simulate", *BASE, "--seed", "-1", "--postings", "100"])
    assert code == EXIT_CONFIG
    assert out == ""
    assert json.loads(err)["error"]["kind"] == "config"


def test_unwritable_out_is_config_error(capsys, tmp_path):
    code, out, err = run(capsys, ["solve", *BASE, "--out", str(tmp_path / "missing" / "x.json")])
    assert code == EXIT_CONFIG
    assert out == ""
    assert json.loads(err)["error"]["kind"] == "config"


def test_flag_and_file_values_parse_alike(capsys, tmp_path):
    # a flag and a config value go through the same parse function
    argv = ["optimize", "--w", "6", "--lambda", "1", "--dist", "exponential", "--mean", "1"]
    _, by_flag, _ = run(capsys, [*argv, "--vmax", "4", "--ch", "2"])
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"cost": {"ch": 2}, "options": {"vmax": 4.0}}))
    _, by_file, _ = run(capsys, [*argv, "--config", str(cfg)])
    assert by_flag == by_file


ROUND_TRIP = {
    "solve": ["solve", *BASE, "--method", "ladder"],
    "optimize": ["optimize", *BASE[2:], "--ch", "3", "--cr", "1", "--cd", "80", "--vmax", "5"],
    "sweep": ["sweep", *BASE[2:], "--dist", "erlang", "--shape", "2", "--cd", "5", "--vmin", "2", "--wmin", "4"],
    "simulate": ["simulate", *BASE, "--ch", "1", "--seed", "3", "--postings", "2000", "--policy", "reject"],
    "compare": ["compare", *BASE, "--cd", "4", "--seed", "3", "--postings", "2000", "--tol-tv", "0.2"],
}


@pytest.mark.parametrize("command", sorted(ROUND_TRIP))
def test_document_config_reproduces_its_run(capsys, tmp_path, command):
    code, out, _ = run(capsys, ROUND_TRIP[command])
    assert code == EXIT_OK
    cfg = tmp_path / "doc-config.json"
    cfg.write_text(json.dumps(json.loads(out)["config"]))
    code2, out2, _ = run(capsys, [command, "--config", str(cfg)])
    assert code2 == EXIT_OK
    assert out2 == out


POOL_FLAGS = {"--w", "--lambda", "--dist", "--mean", "--shape"}
COST_FLAGS = {"--ch", "--cr", "--cd"}
OUTPUT_FLAGS = {"--format", "--out"}
SIM_FLAGS = {"--seed", "--postings", "--warmup"}
# the flags of the settings each subcommand reads
READS = {
    "solve": POOL_FLAGS | OUTPUT_FLAGS | {"--v", "--method"},
    "optimize": POOL_FLAGS | COST_FLAGS | OUTPUT_FLAGS | {"--method", "--vmax"},
    "sweep": POOL_FLAGS | COST_FLAGS | OUTPUT_FLAGS | {"--vmin", "--vmax", "--wmin", "--wmax", "--method"},
    "simulate": POOL_FLAGS | COST_FLAGS | OUTPUT_FLAGS | SIM_FLAGS | {"--v", "--policy"},
    "compare": POOL_FLAGS | COST_FLAGS | OUTPUT_FLAGS | SIM_FLAGS | {"--v", "--method", "--tol-tv", "--tol-cost"},
}

# every setting: flag -> (config path, a value other than the default as the
# flag's arguments, that value as parsed); the cost tables have no flag and
# are read with the cost flags
SETTINGS = {
    "--v": (("params", "v"), ["1"], 1),
    "--w": (("params", "w"), ["7"], 7),
    "--lambda": (("params", "lambda"), ["0.7"], 0.7),
    "--dist": (("params", "posting", "kind"), ["erlang"], "erlang"),
    "--mean": (("params", "posting", "mean"), ["0.8"], 0.8),
    # only the erlang kind takes a shape other than 1
    "--shape": (("params", "posting", "shape"), ["2", "--dist", "erlang"], 2),
    "--ch": (("cost", "ch"), ["2"], 2.0),
    "--cr": (("cost", "cr"), ["2"], 2.0),
    "--cd": (("cost", "cd"), ["2"], 2.0),
    "holding_table": (("cost", "holding_table"), None, [1.0] * 7),
    "reserve_table": (("cost", "reserve_table"), None, [1.0] * 7),
    "--seed": (("sim", "seed"), ["4"], 4),
    "--postings": (("sim", "postings"), ["3000"], 3000),
    "--warmup": (("sim", "warmup"), ["0.2"], 0.2),
    "--policy": (("sim", "policy"), ["reject"], "reject"),
    "--vmin": (("options", "vmin"), ["2"], 2),
    "--vmax": (("options", "vmax"), ["3"], 3),
    "--wmin": (("options", "wmin"), ["5"], 5),
    "--wmax": (("options", "wmax"), ["7"], 7),
    "--method": (("options", "method"), ["ladder"], "ladder"),
    "--tol-tv": (("options", "tol_tv"), ["0.3"], 0.3),
    "--tol-cost": (("options", "tol_cost"), ["0.3"], 0.3),
    "--format": (("options", "format"), ["csv"], "csv"),
    "--out": (("options", "out"), ["doc.out"], "doc.out"),
}


def reads(command, setting):
    return (setting if setting.startswith("--") else "--ch") in READS[command]


def subparsers():
    parser = build_parser()
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def test_each_subcommand_offers_its_flags():
    # each subcommand offers the flags it reads; all five used to offer
    # --v, the cost, sim and output flags, --vmax, --method and
    # --enforce-capability, and most ignored some of them
    offered = {
        name: {flag for action in p._actions for flag in action.option_strings} - {"-h", "--help"}
        for name, p in subparsers().items()
    }
    assert offered == {name: flags | {"--config"} for name, flags in READS.items()}
    assert sum(map(len, READS.values())) == 68
    assert sum(reads(name, setting) for name in READS for setting in SETTINGS) == 76


def test_every_offered_flag_has_help():
    for p in subparsers().values():
        assert all(action.help for action in p._actions)


INSTANCE = ["--w", "6", "--lambda", "0.5", "--dist", "exponential", "--mean", "1.0"]
RUNS = {
    "solve": ["solve", "--v", "2", *INSTANCE],
    "optimize": ["optimize", *INSTANCE, "--cd", "5"],
    "sweep": ["sweep", *INSTANCE, "--cd", "5"],
    "simulate": ["simulate", "--v", "2", *INSTANCE, "--postings", "2000"],
    "compare": ["compare", "--v", "2", *INSTANCE, "--postings", "2000"],
}


UNREAD = [(name, setting) for name in READS for setting in SETTINGS if not reads(name, setting)]


@pytest.mark.parametrize("command, setting", UNREAD, ids=[f"{c}-{'.'.join(SETTINGS[s][0])}" for c, s in UNREAD])
def test_unread_setting_is_rejected(capsys, tmp_path, command, setting):
    # optimize with {"sim": {"policy": "reject"}} in its config file used to
    # return the clip optimum and leave the key out of its document
    path, args, value = SETTINGS[setting]
    if args is not None:
        with pytest.raises(SystemExit) as exited:
            main([command, setting, *args])
        assert exited.value.code == 2
        out = capsys.readouterr()
        assert out.out == "" and setting in out.err
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({path[0]: {path[1]: value}}))
    code, out, err = run(capsys, [*RUNS[command], "--config", str(cfg)])
    assert code == EXIT_CONFIG and out == ""
    error = json.loads(err)["error"]
    # a section the subcommand reads nothing of is named in place of its key
    read_sections = {SETTINGS[s][0][0] for s in SETTINGS if reads(command, s)}
    named = path[1] if path[0] in read_sections else path[0]
    assert error["kind"] == "config" and command in error["message"] and repr(named) in error["message"]


@pytest.mark.parametrize("command, flag", [(name, flag) for name in READS for flag in sorted(READS[name])])
def test_every_offered_flag_reaches_the_document(capsys, tmp_path, monkeypatch, command, flag):
    # a flag set to another value than the default shows in the document's
    # config block, or, for the output's format and file, in the output
    monkeypatch.chdir(tmp_path)
    path, args, value = SETTINGS[flag]
    code, out, _ = run(capsys, [*RUNS[command], flag, *args])
    assert code == EXIT_OK
    if flag == "--format":
        assert out.startswith("# config: {")
    elif flag == "--out":
        assert out == "" and json.loads(Path(value).read_text())["command"] == command
    else:
        config = json.loads(out)["config"]
        for key in path:
            config = config[key]
        assert config == value


def test_cli_import_leaves_scipy_stats_and_integrate_unloaded():
    # scipy.stats and scipy.integrate cost more import time than the rest
    # of the package; only the quadrature oracle needs them
    src = str(Path(poolqueue.__file__).resolve().parents[1])
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import poolqueue.cli; "
        "print(sorted(m for m in ('scipy.stats', 'scipy.integrate') if m in sys.modules))"
    )
    done = subprocess.run([sys.executable, "-c", code, src], capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"


def test_parser_built_once_parses_like_a_fresh_one(capsys):
    argv = ["compare", *BASE, "--ch", "1", "--cr", "1", "--cd", "1", "--seed", "3", "--postings", "4000"]
    assert build_parser() is build_parser()
    with pytest.raises(SystemExit) as bad:
        main(["compare", *BASE, "--no-such-flag", "1"])
    assert bad.value.code == 2
    capsys.readouterr()
    code, out, _ = run(capsys, argv)
    assert code == EXIT_OK
    src = str(Path(poolqueue.__file__).resolve().parents[1])
    fresh = subprocess.run(
        [sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]); "
         "from poolqueue.cli import main; sys.exit(main(sys.argv[2:]))", src, *argv],
        capture_output=True, text=True, check=True,
    )
    assert out == fresh.stdout


SRC = str(Path(poolqueue.__file__).resolve().parents[1])

# run in a fresh interpreter: print the scipy modules loaded after importing
# poolqueue, after importing poolqueue.cli, and after each command line
# (JSON-encoded in argv) run through cli.main, with that run's exit code
SCIPY_PROBE = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
loaded = lambda: sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
import poolqueue
steps = [("import poolqueue", 0, loaded())]
import poolqueue.cli
steps.append(("import poolqueue.cli", 0, loaded()))
for argv in map(json.loads, sys.argv[2:]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = poolqueue.cli.main(argv)
    steps.append((argv[0], code, loaded()))
print(json.dumps(steps))
"""


def scipy_probe(*argvs):
    done = subprocess.run(
        [sys.executable, "-c", SCIPY_PROBE, SRC, *map(json.dumps, argvs)],
        capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout)


FAMILIES = {
    "exponential": ["--dist", "exponential"],
    "deterministic": ["--dist", "deterministic"],
    "erlang": ["--dist", "erlang", "--shape", "3"],
}


@pytest.mark.parametrize("family", FAMILIES)
def test_default_route_loads_no_scipy(family):
    # every kernel and the renewal route need numpy alone; scipy would
    # double the start-up time of every such process
    instance = ["--w", "12", "--lambda", "2.2", *FAMILIES[family], "--mean", "1.3"]
    steps = scipy_probe(
        ["solve", "--v", "3", *instance],
        ["optimize", *instance, "--ch", "3", "--cr", "1", "--cd", "80"],
        ["sweep", *instance, "--cd", "5", "--vmax", "4", "--wmin", "10"],
        ["simulate", "--v", "3", *instance, "--seed", "3", "--postings", "2000"],
        ["compare", "--v", "3", *instance, "--cd", "4", "--seed", "3", "--postings", "2000", "--tol-tv", "0.2"],
    )
    assert [step[0] for step in steps] == [
        "import poolqueue", "import poolqueue.cli", "solve", "optimize", "sweep", "simulate", "compare"
    ]
    assert all(code == EXIT_OK and modules == [] for _, code, modules in steps)


def test_ladder_loads_scipy_on_first_use():
    argv = ["solve", "--v", "3", "--w", "12", "--lambda", "2.2", "--dist", "exponential", "--mean", "1.3",
            "--method", "ladder"]
    *imports, (_, code, modules) = scipy_probe(argv)
    assert [step[2] for step in imports] == [[], []]
    assert code == EXIT_OK
    assert "scipy.optimize" in modules


def test_python_m_poolqueue_runs_the_cli(capsys):
    argv = ["compare", *BASE, "--cd", "4", "--seed", "3", "--postings", "2000"]
    code, out, _ = run(capsys, argv)
    assert code == EXIT_OK
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-m", "poolqueue", *argv], capture_output=True, text=True, env=env)
    assert done.returncode == EXIT_OK
    assert done.stdout == out


README = Path(__file__).resolve().parents[1] / "README.md"
README_COMMANDS = [
    shlex.split(line)[1:]
    for line in README.read_text(encoding="utf-8").replace("\\\n", " ").splitlines()
    if line.startswith("poolqueue ")
]


@pytest.mark.parametrize("argv", README_COMMANDS, ids=lambda argv: argv[0])
def test_readme_examples_run(capsys, argv):
    # the examples must keep to the flags each subcommand offers
    if "--postings" in argv:
        argv = [*argv, "--postings", "2000"]
    code, _, _ = run(capsys, argv)
    assert code == EXIT_OK


@pytest.mark.parametrize("flag, value", [
    ("--tol-tv", "nan"), ("--tol-tv", "0"), ("--tol-tv", "inf"), ("--tol-cost", "-0.1"),
])
def test_meaningless_tolerance_is_config_error_before_any_solve(capsys, monkeypatch, flag, value):
    # a zero, negative or NaN tolerance fails both policies whatever the
    # simulation shows, and NaN is not valid JSON
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the configuration was checked")

    monkeypatch.setattr(poolqueue.cli, "solve_instance", no_solve)
    code, out, err = run(capsys, ["compare", *BASE, "--seed", "3", "--postings", "2000", flag, value])
    assert code == EXIT_CONFIG
    assert out == ""
    error = json.loads(err)["error"]
    assert error["kind"] == "config" and flag[2:].replace("-", "_") in error["message"]
