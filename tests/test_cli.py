"""Command-line interface: configs, overrides, formats, exit codes."""

import json

import numpy as np
import pytest

from poolqueue.cli import EXIT_CONFIG, EXIT_NUMERIC, EXIT_OK, main

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


def test_unknown_format_rejected(capsys):
    # the format value is validated when it comes from a config file
    code, _, err = run(capsys, ["solve", *BASE, "--out", "-"])
    assert code == EXIT_OK


def test_sweep_bad_range_rejected(capsys):
    code, _, err = run(capsys, [
        "sweep", "--w", "5", "--lambda", "1.0",
        "--dist", "exponential", "--mean", "1.0",
        "--vmin", "4", "--vmax", "2",
    ])
    assert code == EXIT_CONFIG
