"""The command-line front door: artifacts, determinism, exit codes."""

import csv
import io
import json
import math
import subprocess
import sys

import pytest

from fracmean.cli import main


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, argv):
    code, out = run_cli(capsys, argv)
    assert code == 0, out
    return json.loads(out)


def test_moment_artifact_schema_and_value(capsys):
    blob = run_json(
        capsys,
        ["moment", "--dist", "cauchy", "--params", "mu=0,sigma=1", "--alpha", "0+1i",
         "--lambda", "-0.5+0i", "--route", "quad"],
    )
    assert set(blob) == {"config", "result", "meta"}
    assert blob["config"]["seed"] == 0  # defaulted and echoed
    val = blob["result"]["value"]
    assert abs(val["re"] - 0.5) < 1e-6 and abs(val["im"] + 0.5) < 1e-6
    assert blob["result"]["method"] == "quad_neg"
    assert blob["meta"]["version"]


def test_powermean_mc_hits_target(capsys):
    blob = run_json(
        capsys,
        ["powermean", "--dist", "poincare", "--params", "a=1,b=0,c=1", "--p", "0.5",
         "--n", "2", "--route", "mc", "--mc-samples", "100000", "--seed", "42"],
    )
    val = complex(blob["result"]["value"]["re"], blob["result"]["value"]["im"])
    assert abs(val - 1j) <= 4.0 * blob["result"]["uncertainty"]


def test_repeat_runs_identical_modulo_wall_time(capsys):
    argv = ["powermean", "--dist", "cauchy", "--params", "mu=0,sigma=1", "--alpha", "0+1i",
            "--p", "-0.5", "--n", "2", "--route", "mc", "--mc-samples", "20000", "--seed", "9"]
    one = run_json(capsys, argv)
    two = run_json(capsys, argv)
    one["meta"].pop("wall_time_ms")
    two["meta"].pop("wall_time_ms")
    assert one == two


def test_thread_cap_does_not_change_numbers(capsys, monkeypatch):
    argv = ["powermean", "--dist", "poincare", "--params", "a=1,b=0,c=1", "--p", "-0.5",
            "--n", "3", "--route", "mc", "--mc-samples", "30000", "--seed", "5"]
    monkeypatch.setenv("FRACMEAN_THREADS", "1")
    serial = run_json(capsys, argv)
    monkeypatch.setenv("FRACMEAN_THREADS", "4")
    threaded = run_json(capsys, argv)
    assert serial["result"] == threaded["result"]


def test_csv_output(capsys):
    code, out = run_cli(
        capsys,
        ["moment", "--dist", "cauchy", "--params", "mu=0,sigma=1", "--alpha", "0+1i",
         "--lambda", "-1+0i", "--route", "closed", "--format", "csv"],
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "re,im,uncertainty,method"
    re_part, im_part, unc, method = lines[1].split(",")
    assert abs(float(re_part)) < 1e-12 and abs(float(im_part) + 0.5) < 1e-12
    assert method == "closed"


def test_scan_command(capsys, tmp_path):
    out_path = tmp_path / "scan.csv"
    code, _ = run_cli(
        capsys,
        ["scan", "--dist", "poincare", "--params", "a=1,b=0,c=1", "--p-grid", "-0.5:0.5:0.5",
         "--n", "2", "--route", "mc", "--mc-samples", "5000", "--seed", "3",
         "--format", "csv", "--output", str(out_path)],
    )
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "p,re,im,uncertainty,method"
    assert len(lines) == 4  # grid -0.5, 0.0, 0.5


def test_scan_csv_quotes_error_rows(capsys):
    # the error message holds commas; every row must still parse to 5 fields
    code, out = run_cli(
        capsys,
        ["scan", "--dist", "t3", "--alpha", "0+1i", "--n", "1", "--p-grid=0.3,0.4",
         "--route", "fracderiv", "--format", "csv"],
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["p", "re", "im", "uncertainty", "method"]
    assert len(rows) == 3 and all(len(row) == 5 for row in rows)
    assert rows[1][4].startswith("error: NonConvergenceError")


def test_characterize_blaschke(capsys):
    blob = run_json(capsys, ["characterize", "blaschke", "--sequence", "harmonic", "--a", "1"])
    assert blob["result"]["verdict"] == "divergence_indicated"


def test_characterize_distinguish(capsys):
    blob = run_json(
        capsys,
        ["characterize", "distinguish", "--dist-a", "cauchy", "--params-a", "mu=0,sigma=1",
         "--dist-b", "t3", "--params-b", "mu=0,sigma=1", "--fix", "alpha", "--value", "0+1i",
         "--points", "-0.5+0i", "--route", "closed"],
    )
    assert abs(blob["result"]["max_discrepancy"] - 0.125 * math.sqrt(2.0)) < 1e-8
    assert blob["result"]["verdict"] == "distinct"


def test_bounds_command(capsys):
    blob = run_json(
        capsys,
        ["bounds", "--check", "half-plane", "--dist", "twopoint",
         "--params", "z1=1+0i,z2=-1+0i,w=0.5", "--p", "0.5", "--estimator", "closed"],
    )
    assert blob["result"]["satisfied"] is True
    assert abs(blob["result"]["slack"]) < 1e-12


def test_slln_command(capsys):
    blob = run_json(
        capsys,
        ["slln", "--dist", "poincare", "--params", "a=1,b=0,c=1", "--n-max", "20000", "--seed", "4"],
    )
    final = complex(*blob["result"]["values"][-1])
    assert abs(final - 1j) < 0.1


def test_verify_subset(capsys):
    code, out = run_cli(capsys, ["verify", "--criteria", "4,5,7,10", "--seed", "7"])
    assert code == 0
    assert "criterion  4" in out and "criterion 10" in out
    assert "FAIL " not in out


def test_verify_artifact_deterministic(capsys, tmp_path):
    paths = [tmp_path / "v1.json", tmp_path / "v2.json"]
    blobs = []
    for path in paths:
        code, _ = run_cli(
            capsys, ["verify", "--criteria", "4,7,10", "--seed", "7", "--output", str(path)]
        )
        assert code == 0
        blob = json.loads(path.read_text())
        blob["meta"].pop("wall_time_ms")
        for crit in blob["result"]["criteria"]:
            crit.pop("wall_ms")
        blobs.append(blob)
    assert blobs[0] == blobs[1]


def test_exploratory_scan_beyond_unit_interval(capsys):
    # |p| > 1 is an exploratory experiment (the invariance identities are
    # expected to drift out there); the scan runs, nothing is asserted on it
    blob = run_json(
        capsys,
        ["scan", "--dist", "poincare", "--params", "a=1,b=0,c=1", "--p-grid", "1.5,2.0",
         "--n", "2", "--route", "mc", "--mc-samples", "5000", "--seed", "2", "--exploratory"],
    )
    assert all(row["estimate"] is not None for row in blob["result"]["rows"])
    code = main(["scan", "--dist", "poincare", "--params", "a=1,b=0,c=1", "--p-grid", "1.5,2.0",
                 "--n", "2", "--route", "closed", "--exploratory"])
    assert code == 2  # exploration is Monte Carlo only


def test_exit_code_config_error(capsys):
    code = main(["moment", "--dist", "cauchy", "--params", "mu=0,sigma=1",
                 "--alpha", "bogus", "--lambda", "-0.5+0i"])
    assert code == 2


def test_exit_code_moment_error(capsys):
    # E|Z|^1.5 diverges for Cauchy
    code = main(["moment", "--dist", "cauchy", "--params", "mu=0,sigma=1",
                 "--alpha", "0+1i", "--lambda", "1.5+0i", "--route", "quad"])
    assert code == 4


def test_auto_power_mean_of_nonexistent_expectation_exits_4(capsys):
    code = main(["powermean", "--dist", "cauchy", "--alpha", "0+1i", "--p", "0.5", "--n", "2"])
    assert code == 4
    assert json.loads(capsys.readouterr().err)["error"]["type"] == "MomentExistenceError"


@pytest.mark.parametrize("route", ["closed", "quad", "mc", "auto"])
def test_zero_atom_at_negative_order_exits_4(capsys, route):
    # E|Z|^-0.5 diverges when an atom of positive weight sits at 0
    code = main(["moment", "--dist", "twopoint", "--params", "z1=0+0i,z2=0+1i,w=0.5",
                 "--lambda", "-0.5+0i", "--route", route, "--mc-samples", "2000"])
    assert code == 4
    assert json.loads(capsys.readouterr().err)["error"]["type"] == "MomentExistenceError"


def test_exit_code_nonconvergence(capsys):
    code = main(["moment", "--dist", "cauchy", "--params", "mu=0,sigma=1",
                 "--alpha", "0+1i", "--lambda", "-0.9+0i", "--route", "quad",
                 "--rel-tol", "1e-14", "--abs-tol", "1e-15", "--max-level", "3"])
    assert code == 3


def test_exit_code_order_too_large(capsys):
    code = main(["powermean", "--dist", "t3", "--alpha", "0+1i", "--p", "0.002", "--n", "2",
                 "--route", "fracderiv"])
    assert code == 4
    assert json.loads(capsys.readouterr().err)["error"]["type"] == "RouteUnavailableError"


@pytest.mark.parametrize("threads", ["two", "", "0", "-1"])
def test_exit_code_bad_thread_count(capsys, monkeypatch, threads):
    monkeypatch.setenv("FRACMEAN_THREADS", threads)
    code = main(["powermean", "--dist", "poincare", "--params", "a=1,b=0,c=1",
                 "--p", "0.5", "--n", "2", "--route", "mc", "--mc-samples", "2000"])
    assert code == 2
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["kind"] == "config" and "FRACMEAN_THREADS" in error["message"]


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "fracmean", "--version"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "fracmean" in proc.stdout
