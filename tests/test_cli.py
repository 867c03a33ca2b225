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
    assert blob["result"]["method"] == "quad"
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
        ["scan", "--dist", "t3", "--alpha", "0+1i", "--n", "2", "--p-grid=0.002,0.4",
         "--route", "fracderiv", "--format", "csv"],
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["p", "re", "im", "uncertainty", "method"]
    assert len(rows) == 3 and all(len(row) == 5 for row in rows)
    assert rows[1][4].startswith("error: RouteUnavailableError") and "," in rows[1][4]  # 1/p = 500 needs 500!
    assert rows[2][4] == "frac_deriv"


def test_characterize_blaschke(capsys):
    blob = run_json(capsys, ["characterize", "blaschke", "--sequence", "harmonic", "--a", "1"])
    assert blob["result"]["verdict"] == "divergence_indicated"


def test_characterize_muntz(capsys):
    blob = run_json(capsys, ["characterize", "muntz", "--sequence", "harmonic"])
    assert blob["config"]["command"] == "characterize.muntz"
    assert blob["result"]["verdict"] == "divergence_indicated"


SEQUENCE_FILES = {
    "alpha": {"kind": "alpha", "a": 1.0, "points": [[0.0, 2.0 + k] for k in range(20)]},
    "lambda": {"kind": "lambda", "points": [[-(k + 1.0), 0.0] for k in range(20)]},
}


@pytest.mark.parametrize("check, kind, code", [
    ("blaschke", "alpha", 0),
    ("blaschke", "lambda", 2),
    ("muntz", "lambda", 0),
    ("muntz", "alpha", 2),
])
def test_characterize_sequence_from_file(capsys, tmp_path, check, kind, code):
    path = tmp_path / "sequence.json"
    path.write_text(json.dumps(SEQUENCE_FILES[kind]))
    assert main(["characterize", check, "--sequence", f"@{path}"]) == code
    out, err = capsys.readouterr()
    if code:
        assert json.loads(err)["error"]["type"] == "ConfigError"
    else:
        assert len(json.loads(out)["result"]["partial_sums"]) == 20


def test_characterize_distinguish(capsys):
    blob = run_json(
        capsys,
        ["characterize", "distinguish", "--dist-a", "cauchy", "--params-a", "mu=0,sigma=1",
         "--dist-b", "t3", "--params-b", "mu=0,sigma=1", "--fix", "alpha", "--value", "0+1i",
         "--points", "-0.5+0i", "--route", "closed"],
    )
    assert abs(blob["result"]["max_discrepancy"] - 0.125 * math.sqrt(2.0)) < 1e-8
    assert blob["result"]["verdict"] == "distinct"


def test_characterize_distinguish_by_quadrature_at_both_signs(capsys):
    argv = ["characterize", "distinguish", "--dist-a", "cauchy", "--dist-b", "t3", "--fix", "alpha",
            "--value", "0+1i", "--points", "-0.5+0i,0.5+0i", "--route"]
    quad, closed = (run_json(capsys, argv + [route])["result"]["points"] for route in ("quad", "closed"))
    for got, want in zip(quad, closed):
        assert abs(got["discrepancy"] - want["discrepancy"]) <= 1e-6


def test_fracderiv_power_mean_reports_its_route(capsys):
    blob = run_json(capsys, ["powermean", "--dist", "poincare", "--params", "a=1,c=1", "--p", "0.5",
                             "--n", "2", "--route", "fracderiv"])
    assert blob["result"]["method"] == "frac_deriv" and "route" not in blob["result"]["meta"]


def test_bounds_command(capsys):
    blob = run_json(
        capsys,
        ["bounds", "--check", "half-plane", "--dist", "twopoint",
         "--params", "z1=1+0i,z2=-1+0i,w=0.5", "--p", "0.5"],
    )
    assert blob["result"]["satisfied"] is True
    assert abs(blob["result"]["slack"]) < 1e-12


def test_general_bounds_command(capsys):
    # atoms 1 and -1 at p = 1/4: |E[Z**p]| = cos(pi/8), and the divisor is cos(p pi)
    blob = run_json(
        capsys,
        ["bounds", "--check", "general", "--dist", "twopoint",
         "--params", "z1=1+0i,z2=-1+0i,w=0.5", "--p", "0.25"],
    )
    result = blob["result"]
    assert result["satisfied"] is True and result["meta"]["support"] == "complex"
    assert abs(result["moment_abs"] - math.cos(math.pi / 8.0)) <= 1e-15
    assert abs(result["bound"] - result["moment_abs"] / math.cos(math.pi / 4.0)) <= 1e-15


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


@pytest.mark.parametrize("criteria", ["99", "14", "4,99"])
def test_verify_unknown_or_empty_criteria_exit_2(capsys, criteria):
    assert main(["verify", "--criteria", criteria, "--seed", "7"]) == 2
    assert json.loads(capsys.readouterr().err)["error"]["type"] == "ValueError"


def test_verify_csv_on_stdout_is_csv(capsys):
    assert main(["verify", "--criteria", "7,10", "--format", "csv"]) == 0
    out, err = capsys.readouterr()
    assert out.splitlines()[0] == "criterion,status,name" and len(out.splitlines()) == 3
    assert "criterion  7" in err  # the status lines move to stderr


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


@pytest.mark.parametrize("route", ["closed", "fracderiv", "mc", "auto"])
def test_negative_order_power_mean_of_one_cauchy_draw_exits_4(capsys, route):
    # M_p of one draw is Z + i, and a Cauchy law has no mean
    code = main(["powermean", "--dist", "cauchy", "--alpha", "0+1i", "--p", "-0.5", "--n", "1",
                 "--route", route, "--mc-samples", "2000"])
    assert code == 4
    assert json.loads(capsys.readouterr().err)["error"]["type"] == "MomentExistenceError"


def test_fracderiv_turned_value_on_the_real_axis_exits_4(capsys):
    # at p = -1 the turn is 1, so real atoms at alpha = 0 stay on the real axis
    code = main(["powermean", "--dist", "twopoint", "--params", "z1=1+0i,z2=2+0i,w=0.5",
                 "--p", "-1", "--n", "2", "--route", "fracderiv"])
    assert code == 4
    assert json.loads(capsys.readouterr().err)["error"]["type"] == "SupportError"


def test_fracderiv_real_line_density_at_real_alpha_exits_4(capsys):
    # the t3 node rules are graded toward -alpha only off the real line
    code = main(["powermean", "--dist", "t3", "--params", "mu=0,sigma=1", "--alpha", "0.7",
                 "--p", "0.4", "--n", "2", "--route", "fracderiv"])
    assert code == 4
    assert json.loads(capsys.readouterr().err)["error"]["type"] == "SupportError"


@pytest.mark.parametrize("route", ["closed", "quad", "mc", "auto"])
def test_zero_atom_at_negative_order_exits_4(capsys, route):
    # E|Z|^-0.5 diverges when an atom of positive weight sits at 0
    code = main(["moment", "--dist", "twopoint", "--params", "z1=0+0i,z2=0+1i,w=0.5",
                 "--lambda", "-0.5+0i", "--route", route, "--mc-samples", "2000"])
    assert code == 4
    assert json.loads(capsys.readouterr().err)["error"]["type"] == "MomentExistenceError"


def test_bounds_without_finite_variance_exits_4(capsys):
    # E|Z|^1.5 diverges for Cauchy, so |Z|^0.75 has no Monte Carlo standard error
    code = main(["bounds", "--check", "half-plane", "--dist", "cauchy", "--p", "0.75", "--mc-samples", "1000"])
    assert code == 4
    assert json.loads(capsys.readouterr().err)["error"]["type"] == "RouteUnavailableError"


def test_monte_carlo_moment_that_does_not_exist_exits_4(capsys):
    code = main(["moment", "--dist", "cauchy", "--params", "mu=0,sigma=1", "--alpha", "0+1i",
                 "--lambda", "1.5+0i", "--route", "mc", "--mc-samples", "1000"])
    assert code == 4
    assert json.loads(capsys.readouterr().err)["error"]["type"] == "MomentExistenceError"


def test_monte_carlo_moment_without_finite_variance_exits_4(capsys):
    # E|Z + i|^0.75 exists for Cauchy, but E|Z + i|^1.5 does not
    code = main(["moment", "--dist", "cauchy", "--params", "mu=0,sigma=1", "--alpha", "0+1i",
                 "--lambda", "0.75+0i", "--route", "mc", "--mc-samples", "1000"])
    assert code == 4
    assert json.loads(capsys.readouterr().err)["error"]["type"] == "RouteUnavailableError"


@pytest.mark.parametrize("text", ["", "re,im\n1.0,0.5\n2.0\n"], ids=["empty", "one-field-row"])
def test_malformed_samples_csv_exits_2(capsys, tmp_path, text):
    path = tmp_path / "samples.csv"
    path.write_text(text)
    code = main(["moment", "--dist", "empirical", "--params", f"file={path}", "--alpha", "0+1i",
                 "--lambda", "0.5+0i", "--route", "closed"])
    assert code == 2
    assert json.loads(capsys.readouterr().err)["error"]["kind"] == "config"


def test_malformed_sample_list_exits_2(capsys):
    code = main(["moment", "--dist", "empirical", "--params", "samples=1", "--lambda", "0.5+0i"])
    assert code == 2
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["kind"] == "config" and "[[re, im], ...]" in error["message"]


@pytest.mark.parametrize("option", ["--rel-tol", "--abs-tol"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_tolerance_exits_2(capsys, option, value):
    code = main(["moment", "--dist", "cauchy", "--alpha", "0+1i", "--lambda", "-0.5+0i", option, value])
    assert code == 2
    assert "finite" in json.loads(capsys.readouterr().err)["error"]["message"]


@pytest.mark.parametrize(
    "argv",
    [
        ["moment", "--dist", "cauchy", "--params", "mu=nan,sigma=1", "--alpha", "0+1i", "--lambda", "-0.5",
         "--route", "closed"],
        ["powermean", "--dist", "poincare", "--params", "a=1,c=1", "--alpha", "nan+1i", "--p", "-0.5", "--n", "2",
         "--route", "closed"],
        ["moment", "--dist", "poincare", "--params", "a=1,c=1", "--alpha", "0+1i", "--lambda", "nan"],
        ["characterize", "distinguish", "--dist-a", "cauchy", "--dist-b", "t3", "--fix", "alpha",
         "--value", "nan+1i", "--points", "-0.5+0i", "--route", "quad"],
        ["characterize", "distinguish", "--dist-a", "cauchy", "--dist-b", "t3", "--fix", "alpha",
         "--value", "0+1i", "--points", "-0.5+0i,0.5+nani", "--route", "quad"],
    ],
    ids=["params", "alpha", "lambda", "value", "points"],
)
def test_non_finite_inputs_exit_2(capsys, argv):
    # a nan would otherwise come out as a NaN token, sometimes with uncertainty 0
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    error = json.loads(captured.err)["error"]
    assert error["kind"] == "config" and "finite" in error["message"]


def test_non_finite_sample_exits_2(capsys, tmp_path):
    path = tmp_path / "samples.csv"
    path.write_text("re,im\n1.0,0.5\nnan,0\n")
    code = main(["moment", "--dist", "empirical", "--params", f"file={path}", "--alpha", "0+1i",
                 "--lambda", "0.5+0i", "--route", "mc", "--mc-samples", "1000"])
    assert code == 2
    assert "finite" in json.loads(capsys.readouterr().err)["error"]["message"]


def test_two_point_power_mean_past_the_float_range_of_binomials(capsys):
    # comb(2000, 1000) exceeds the float range
    blob = run_json(capsys, ["powermean", "--dist", "twopoint", "--params", "z1=1+1i,z2=-1+1i,w=0.5",
                             "--p", "0.5", "--n", "2000"])
    assert blob["result"]["method"] == "closed"


def test_t3_power_mean_past_the_float_range_of_binomials(capsys):
    blob = run_json(capsys, ["powermean", "--dist", "t3", "--params", "mu=0,sigma=1", "--alpha", "0+1i",
                             "--p", "-0.5", "--n", "2000"])
    assert blob["result"]["method"] == "closed"


def test_shifted_poincare_power_mean_is_closed(capsys):
    blob = run_json(capsys, ["powermean", "--dist", "poincare", "--params", "a=2,b=1,c=1",
                             "--alpha", "1+0.5i", "--p", "0.5", "--n", "3"])
    value = complex(blob["result"]["value"]["re"], blob["result"]["value"]["im"])
    assert blob["result"]["method"] == "closed" and abs(value - (0.5 + 1j)) <= 1e-12


def test_empty_p_grid_exits_2(capsys):
    code = main(["scan", "--dist", "poincare", "--params", "a=1,b=0,c=1", "--p-grid", "0.5:-0.5:0.1",
                 "--n", "2", "--mc-samples", "1000"])
    assert code == 2
    assert json.loads(capsys.readouterr().err)["error"]["type"] == "ConfigError"


@pytest.mark.parametrize("grid", ["0:1", "0:1:-0.1"])
def test_malformed_p_grid_exits_2(capsys, grid):
    code = main(["scan", "--dist", "poincare", "--params", "a=1,b=0,c=1", "--p-grid", grid,
                 "--n", "2", "--mc-samples", "1000"])
    assert code == 2
    assert json.loads(capsys.readouterr().err)["error"]["type"] == "ConfigError"


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
