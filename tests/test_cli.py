"""End-to-end tests for the command line interface.

Everything goes through cli.main(argv) in process, so exit codes and
output files are checked exactly as a shell user would see them.
"""

import csv
import io
import math
from contextlib import redirect_stderr, redirect_stdout

import pytest

from mmwlab import __version__, cli
from mmwlab.analytic import ANALYTIC_CSV_COLUMNS, QuadratureError
from mmwlab.cli import (EXIT_CONFIG, EXIT_IO, EXIT_NUMERIC, EXIT_OK,
                        SWEEP_CSV_COLUMNS, main)


def run(argv):
    """main() plus captured stdout/stderr."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def read_csv(path):
    """(comment_lines, header_row, data_rows) from one of our CSV files."""
    comments, rows = [], []
    with open(path, newline="") as fh:
        for line in fh:
            if line.startswith("#"):
                comments.append(line.rstrip("\n"))
            else:
                rows.append(line)
    parsed = list(csv.reader(rows))
    return comments, parsed[0], parsed[1:]


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        run(["--version"])
    assert exc.value.code == 0


def test_presets_table_lists_cities():
    code, out, _ = run(["presets"])
    assert code == EXIT_OK
    for name in ("gangnam", "manhattan", "chicago"):
        assert name in out.lower()
    assert "1010" in out  # gangnam BS density


def test_presets_csv(tmp_path):
    path = tmp_path / "presets.csv"
    code, _, _ = run(["presets", "--csv", "--out", str(path)])
    assert code == EXIT_OK
    comments, header, rows = read_csv(path)
    assert comments and comments[0].startswith("# mmwlab")
    assert "schema=1" in comments[0]
    assert header[0] == "name"
    assert [r[0] for r in rows] == ["Gangnam", "Manhattan", "Chicago"]


def test_analytic_city_row(tmp_path):
    path = tmp_path / "analytic.csv"
    code, _, _ = run(["analytic", "--city", "gangnam", "--beta", "0.5",
                      "--out", str(path)])
    assert code == EXIT_OK
    comments, header, rows = read_csv(path)
    assert header == ANALYTIC_CSV_COLUMNS
    assert len(rows) == 1
    row = dict(zip(header, rows[0]))
    assert float(row["beta"]) == 0.5
    assert float(row["r_l"]) == pytest.approx(62.2986, abs=1e-3)
    assert 0.0 < float(row["s"]) < 1.0
    assert float(row["rate"]) > 0.0
    assert __version__ in comments[0]


def test_analytic_beta_out_of_range():
    code, _, err = run(["analytic", "--city", "gangnam", "--beta", "1.5"])
    assert code == EXIT_CONFIG
    assert "beta" in err


@pytest.mark.parametrize("argv", [
    ["analytic"], ["optimal-beta"], ["simulate", "--mode", "full"],
    ["simulate", "--mode", "losball"]])
def test_scenarios_outside_the_model_domain_exit_2(argv, tmp_path):
    code, _, err = run(argv + ["--city", "manhattan"])
    assert code == EXIT_CONFIG
    assert "indoor" in err
    cfg = tmp_path / "wide.cfg"
    cfg.write_text("theta = 4.0\n")
    code, _, err = run(argv + ["--config", str(cfg)])
    assert code == EXIT_CONFIG
    assert "theta" in err
    cfg.write_text("lambda_u = inf\n")
    code, _, err = run(argv + ["--config", str(cfg)])
    assert code == EXIT_CONFIG
    assert "lambda_u must be finite" in err
    # finite, but beyond any window the full engine can sample
    cfg.write_text("lambda_b = 1e300\n")
    code, _, err = run(argv + ["--config", str(cfg)])
    assert code == EXIT_CONFIG
    assert "lambda_b puts" in err
    # every field in range, but a band this thin concentrates its users
    # beyond any window the full engine can sample
    cfg.write_text("d_c = 1e-300\n")
    code, _, err = run(argv + ["--config", str(cfg)])
    assert code == EXIT_CONFIG
    assert "lambda_n, the near-band UE density, puts" in err


@pytest.mark.parametrize("drops", [1, 0, -3])
@pytest.mark.parametrize("argv", [
    ["simulate", "--mode", "losball"], ["simulate", "--mode", "full"],
    ["sweep", "--key", "beta", "--start", "0", "--stop", "1", "--steps", "2",
     "--engines", "analytic,sim-losball"]])
def test_fewer_than_two_drops_is_a_flag_error(argv, drops, tmp_path):
    code, _, err = run(argv + ["--drops", str(drops),
                               "--out", str(tmp_path / "x.csv")])
    assert code == EXIT_CONFIG
    assert f"--drops must be >= 2, got {drops}" in err
    assert not (tmp_path / "x.csv").exists()


def test_analytic_sweep_ignores_drops(tmp_path):
    code, _, _ = run(["sweep", "--key", "beta", "--start", "0", "--stop", "1",
                      "--steps", "2", "--drops", "1",
                      "--out", str(tmp_path / "x.csv")])
    assert code == EXIT_OK


def test_theta_sweep_status_agrees_across_engines(tmp_path):
    path = tmp_path / "theta.csv"
    code, _, _ = run(["sweep", "--key", "theta", "--start", "2", "--stop", "4",
                      "--steps", "3", "--engines",
                      "analytic,sim-full,sim-losball", "--drops", "2",
                      "--out", str(path)])
    assert code == EXIT_OK
    _, header, rows = read_csv(path)
    status = {}
    for r in rows:
        status.setdefault(r[header.index("value")], set()).add(
            r[header.index("status")])
    assert status == {"2": {"ok"}, "3": {"ok"}, "4": {"error:ConfigError"}}


def test_config_file_roundtrip(tmp_path):
    cfg = tmp_path / "scen.cfg"
    cfg.write_text("lambda_b = 300\ntheta = 0.5235987755982988\n"
                   "# comment line\ngamma_c = 0.4\n")
    path = tmp_path / "row.csv"
    code, _, _ = run(["analytic", "--config", str(cfg), "--out", str(path)])
    assert code == EXIT_OK
    _, header, rows = read_csv(path)
    assert len(rows) == 1


def test_malformed_config_exits_2(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("lambda_b = not_a_number\n")
    code, _, err = run(["analytic", "--config", str(cfg)])
    assert code == EXIT_CONFIG
    assert "lambda_b" in err


def test_missing_config_is_a_config_error(tmp_path):
    code, _, err = run(["analytic", "--config", str(tmp_path / "absent.cfg")])
    assert code == EXIT_CONFIG
    assert "cannot read config" in err


def test_unwritable_output_exits_4(tmp_path):
    dest = tmp_path / "no" / "such" / "dir" / "row.csv"
    code, _, _ = run(["analytic", "--city", "gangnam", "--out", str(dest)])
    assert code == EXIT_IO


def test_optimal_beta_concentrated_users():
    code, out, _ = run(["optimal-beta", "--city", "gangnam",
                        "--objective", "coverage"])
    assert code == EXIT_OK
    # gangnam has no per-city gamma_c, so the default 0.6 applies; just
    # check the report emits a usable optimum.
    lines = [l for l in out.splitlines() if l and not l.startswith("#")]
    header, row = lines[0].split(","), lines[1].split(",")
    rec = dict(zip(header, row))
    assert 0.0 <= float(rec["beta_star"]) <= 1.0
    assert float(rec["value"]) > 0.0


def test_optimal_beta_uniform_users_pins_full_window(tmp_path):
    cfg = tmp_path / "uniform.cfg"
    cfg.write_text("gamma_c = 0\n")
    code, out, _ = run(["optimal-beta", "--config", str(cfg),
                        "--objective", "coverage"])
    assert code == EXIT_OK
    lines = [l for l in out.splitlines() if l and not l.startswith("#")]
    rec = dict(zip(lines[0].split(","), lines[1].split(",")))
    assert float(rec["beta_star"]) == 1.0


def test_optimal_beta_rate_light_load_with_inadmissible_coverage_optimum(
        tmp_path):
    # valid scenario whose coverage optimum (beta = 1) leaves the load model
    cfg = tmp_path / "light.cfg"
    cfg.write_text(f"lambda_u = 0.04\ngamma_c = 0\ntheta = {math.pi / 24!r}\n")
    code, out, err = run(["optimal-beta", "--config", str(cfg),
                          "--objective", "rate"])
    assert code == EXIT_OK, err
    lines = [l for l in out.splitlines() if l and not l.startswith("#")]
    rec = dict(zip(lines[0].split(","), lines[1].split(",")))
    assert 0.0 < float(rec["beta_star"]) < 1.0
    assert float(rec["value"]) > 0.0


def test_simulate_reproducible_bytes(tmp_path):
    args = ["simulate", "--mode", "losball", "--drops", "12", "--seed", "3",
            "--rule", "building_aware"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    ta, tb = tmp_path / "ta.csv", tmp_path / "tb.csv"
    assert run(args + ["--out", str(a), "--trace", str(ta)])[0] == EXIT_OK
    assert run(args + ["--out", str(b), "--trace", str(tb)])[0] == EXIT_OK
    assert a.read_bytes() == b.read_bytes()
    assert ta.read_bytes() == tb.read_bytes()
    comments, header, rows = read_csv(a)
    assert len(rows) == 1
    rec = dict(zip(header, rows[0]))
    assert rec["mode"] == "losball" and rec["drops"] == "12"
    assert 0.0 <= float(rec["coverage"]) <= 1.0
    with open(ta, newline="") as fh:
        assert sum(1 for _ in fh) == 1 + 12


def test_sweep_analytic_grid(tmp_path):
    path = tmp_path / "sweep.csv"
    code, _, _ = run(["sweep", "--key", "beta", "--start", "0", "--stop",
                      "1", "--steps", "3", "--engines", "analytic",
                      "--out", str(path)])
    assert code == EXIT_OK
    comments, header, rows = read_csv(path)
    assert header == SWEEP_CSV_COLUMNS
    assert [r[header.index("value")] for r in rows] == ["0", "0.5", "1"]
    assert all(r[header.index("status")] == "ok" for r in rows)
    assert all(r[header.index("engine")] == "analytic" for r in rows)
    # rate_gain stays blank without --rate-gain
    assert all(r[header.index("rate_gain")] == "" for r in rows)


def test_sweep_rate_gain_column(tmp_path):
    path = tmp_path / "gain.csv"
    code, _, _ = run(["sweep", "--key", "lambda_ell", "--start", "300",
                      "--stop", "500", "--steps", "2", "--engines",
                      "analytic", "--rate-gain", "--out", str(path)])
    assert code == EXIT_OK
    _, header, rows = read_csv(path)
    gains = [float(r[header.index("rate_gain")]) for r in rows]
    assert all(g >= 1.0 for g in gains)  # optimum can't lose to beta=0


def test_sweep_rate_gain_solves_once_per_beta_sweep(tmp_path, monkeypatch):
    # neither rate of the gain reads beta, so one solve serves every row
    solved = []
    real = cli.optimal_bias_rate

    def counted(params, **kwargs):
        solved.append(params.beta)
        return real(params, **kwargs)

    monkeypatch.setattr(cli, "optimal_bias_rate", counted)
    cli._rate_gain.cache_clear()
    path = tmp_path / "beta_gain.csv"
    code, _, _ = run(["sweep", "--key", "beta", "--start", "0", "--stop",
                      "1", "--steps", "4", "--engines", "analytic",
                      "--rate-gain", "--out", str(path)])
    cli._rate_gain.cache_clear()
    assert code == EXIT_OK
    assert solved == [0.0]
    _, header, rows = read_csv(path)
    assert len({r[header.index("rate_gain")] for r in rows}) == 1


def test_sweep_serial_parallel_identical(tmp_path):
    base = ["sweep", "--key", "gamma_c", "--start", "0.1", "--stop", "0.9",
            "--steps", "4", "--engines", "analytic,sim-losball",
            "--drops", "10", "--seed", "2"]
    a, b = tmp_path / "serial.csv", tmp_path / "par.csv"
    assert run(base + ["--out", str(a)])[0] == EXIT_OK
    assert run(base + ["--out", str(b), "--workers", "2"])[0] == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_sweep_partial_failures_keep_exit_zero(tmp_path):
    # lambda_ell = 2000 works; at 2750 and 3500 the buildings and their
    # near bands leave no open space, so both fail validation. The sweep
    # should record all three.
    path = tmp_path / "err.csv"
    code, _, _ = run(["sweep", "--key", "lambda_ell", "--start", "2000",
                      "--stop", "3500", "--steps", "3", "--engines",
                      "analytic", "--out", str(path)])
    assert code == EXIT_OK
    _, header, rows = read_csv(path)
    status = [r[header.index("status")] for r in rows]
    assert status[0] == "ok"
    assert status[1].startswith("error:")
    assert status[2].startswith("error:")
    for r in rows[1:]:
        assert r[header.index("coverage")] == ""


def test_sweep_all_points_failing_validation_exits_2(tmp_path):
    # both points leave no open space, so every row fails validation,
    # as each point would on its own
    path = tmp_path / "allbad.csv"
    code, _, _ = run(["sweep", "--key", "lambda_ell", "--start", "3400",
                      "--stop", "3600", "--steps", "2", "--engines",
                      "analytic", "--out", str(path)])
    assert code == EXIT_CONFIG
    _, header, rows = read_csv(path)
    assert [r[header.index("status")] for r in rows] == ["error:ConfigError"] * 2


def test_sweep_all_points_failing_with_a_numeric_error_exits_3(tmp_path,
                                                               monkeypatch):
    # the lambda_ell = 2000 row fails numerically, the 3500 row validation
    def fail(*args, **kwargs):
        raise QuadratureError("forced", 1.0)

    monkeypatch.setattr(cli, "analytic_report", fail)
    path = tmp_path / "mixed.csv"
    code, _, _ = run(["sweep", "--key", "lambda_ell", "--start", "2000",
                      "--stop", "3500", "--steps", "2", "--engines",
                      "analytic", "--out", str(path)])
    assert code == EXIT_NUMERIC
    _, header, rows = read_csv(path)
    assert [r[header.index("status")] for r in rows] == [
        "error:QuadratureError", "error:ConfigError"]


@pytest.mark.parametrize("argv", [
    ["sweep", "--key", "nonsense", "--start", "0", "--stop", "1",
     "--steps", "3"],
    ["sweep", "--key", "beta", "--start", "1", "--stop", "0", "--steps", "3"],
    ["sweep", "--key", "beta", "--start", "0", "--stop", "1", "--steps", "1"],
    ["sweep", "--key", "beta", "--start", "0", "--stop", "1", "--steps", "3",
     "--engines", "warp-drive"],
])
def test_sweep_rejects_bad_grids(argv, tmp_path):
    code, _, err = run(argv + ["--out", str(tmp_path / "x.csv")])
    assert code == EXIT_CONFIG
    assert err.strip()


def test_thread_env_cap(monkeypatch, tmp_path):
    monkeypatch.setenv("MMWLAB_THREADS", "1")
    a = tmp_path / "capped.csv"
    code, _, _ = run(["sweep", "--key", "beta", "--start", "0", "--stop",
                      "1", "--steps", "2", "--engines", "analytic",
                      "--workers", "8", "--out", str(a)])
    assert code == EXIT_OK
    monkeypatch.setenv("MMWLAB_THREADS", "abc")
    code, _, err = run(["sweep", "--key", "beta", "--start", "0", "--stop",
                        "1", "--steps", "2", "--engines", "analytic",
                        "--out", str(tmp_path / "y.csv")])
    assert code == EXIT_CONFIG
    assert "MMWLAB_THREADS" in err


def test_literal_load_variant_changes_far_load(tmp_path):
    common = ["analytic", "--city", "gangnam", "--beta", "0.8", "--out"]
    a, b = tmp_path / "std.csv", tmp_path / "lit.csv"
    assert run(common + [str(a)])[0] == EXIT_OK
    assert run(common + [str(b), "--literal-loads"])[0] == EXIT_OK
    _, header, rows_a = read_csv(a)
    _, _, rows_b = read_csv(b)
    n_r = header.index("n_r")
    assert float(rows_a[0][n_r]) == pytest.approx(18.9329822365, rel=1e-9)
    assert float(rows_b[0][n_r]) == pytest.approx(3.0576430072, rel=1e-9)
