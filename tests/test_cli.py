import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import kickedspec
from kickedspec import GOLDEN_RATIO
from kickedspec.cli import ConfigError, main, parse_config, parse_scalar, parse_sweep
from kickedspec.floquet import dkt_effective_hamiltonian, fold_phases
from kickedspec.harper import HarperParams, harper_hamiltonian, kicked_harper_effective
from kickedspec.operators import eigensolve
from kickedspec.su2 import family_params, general_su2_hamiltonian


def run_cli(args, tmp_path):
    return main(list(args) + ["--out-dir", str(tmp_path)])


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def test_parse_scalar_golden_token():
    assert parse_scalar("golden") == 0.6180339887498949
    assert parse_scalar("golden") == GOLDEN_RATIO
    assert parse_scalar("0.25") == 0.25
    for bad in ("twelve", "nan", "inf", "-inf"):
        with pytest.raises(ConfigError):
            parse_scalar(bad)


def test_parse_sweep_grid():
    grid = parse_sweep("0:2:0.0025")
    assert grid.size == 801
    assert grid[0] == 0.0
    assert grid[-1] == pytest.approx(2.0)
    single = parse_sweep("0.5:0.5:0.1")
    assert single.tolist() == [0.5]
    with pytest.raises(ConfigError):
        parse_sweep("0:1")
    with pytest.raises(ConfigError):
        parse_sweep("0:1:-0.1")
    with pytest.raises(ConfigError, match="points"):
        parse_sweep("-1e308:1e308:1")  # the span itself overflows


def test_parse_config_butterfly_flags():
    cfg = parse_config(["butterfly", "--system", "dkt", "--j", "20",
                        "--alpha-over", "1", "--xi-sweep", "0:2:0.0025"])
    assert cfg.system == "dkt"
    assert cfg.j == 20.0
    assert cfg.alpha == pytest.approx(1.0 / 20.0)
    assert cfg.sweep.size == 801


def test_parse_config_golden_sigma():
    cfg = parse_config(["spectrum", "--system", "harper-static", "--length", "100",
                        "--sigma", "golden"])
    assert cfg.sigma == 0.6180339887498949


def test_parse_config_requires_epsilon_for_case_e():
    with pytest.raises(ConfigError, match="epsilon"):
        parse_config(["spectrum", "--system", "su2-e", "--j", "10", "--eta-over-j", "golden"])


def test_parse_config_rejects_fixed_plus_sweep():
    with pytest.raises(ConfigError, match="not both"):
        parse_config(["butterfly", "--system", "dkt", "--j", "4",
                      "--xi", "0.3", "--xi-sweep", "0:1:0.5"])
    # fixed-parameter commands do not even expose sweep flags
    with pytest.raises(SystemExit):
        parse_config(["spectrum", "--system", "dkt", "--j", "4", "--xi-sweep", "0:1:0.5"])
    # and reject sweep keys arriving through a config file
    with pytest.raises(ConfigError, match="unknown config keys"):
        import tempfile, pathlib
        with tempfile.TemporaryDirectory() as d:
            p = pathlib.Path(d) / "c.cfg"
            p.write_text("system = dkt\nj = 4\neta = 1\nxi-sweep = 0:1:0.5\n")
            parse_config(["spectrum", "--config", str(p)])


def test_parse_config_rejects_wrong_sweep_axis():
    with pytest.raises(ConfigError, match="sweeps xi"):
        parse_config(["butterfly", "--system", "dkt", "--j", "4", "--sigma-sweep", "0:1:0.5"])


def test_parse_config_full_scale_gate():
    # only the eigenvector table is gated; a banded spectrum at j=2500 is cheap
    with pytest.raises(ConfigError, match="full-scale"):
        parse_config(["eigenstates", "--system", "dkt", "--j", "2500", "--eta-over-j", "golden"])
    cfg = parse_config(["eigenstates", "--system", "dkt", "--j", "2500",
                        "--eta-over-j", "golden", "--full-scale"])
    assert cfg.full_scale
    cfg = parse_config(["spectrum", "--system", "dkt", "--j", "2500", "--eta-over-j", "golden"])
    assert not cfg.full_scale
    cfg = parse_config(["spectrum", "--system", "dkt", "--j", "2500",
                        "--eta-over-j", "golden", "--full-scale"])
    assert cfg.full_scale


def test_config_file_merging_and_strictness(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("system = dkt\nj = 4\nalpha = 0.25\nxi-sweep = 0:1:0.5\n# comment\n")
    cfg = parse_config(["butterfly", "--config", str(config)])
    assert cfg.j == 4.0 and cfg.alpha == 0.25
    # flags override the file
    cfg = parse_config(["butterfly", "--config", str(config), "--alpha", "0.5"])
    assert cfg.alpha == 0.5

    bad = tmp_path / "bad.cfg"
    bad.write_text("system = dkt\nj = 4\nxi-sweep = 0:1:0.5\nmystery-knob = 7\n")
    with pytest.raises(ConfigError, match="unknown config keys"):
        parse_config(["butterfly", "--config", str(bad)])


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def read_csv(path):
    lines = path.read_text().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def test_butterfly_dkt_shape_and_determinism(tmp_path):
    args = ["butterfly", "--system", "dkt", "--j", "2", "--alpha", "0.5",
            "--xi-sweep", "0:1:0.25"]
    assert run_cli(args, tmp_path) == 0
    out = tmp_path / "butterfly.csv"
    header, rows = read_csv(out)
    assert header == ["sweep_value", "index", "energy"]
    assert len(rows) == 5 * 5  # 5 sweep points x (2j+1) eigenvalues
    first = out.read_bytes()
    assert run_cli(args, tmp_path) == 0
    assert out.read_bytes() == first

    # folded energies stay in (-pi, pi] and are sorted per sweep point
    energies = np.array([float(r[2]) for r in rows]).reshape(5, 5)
    assert np.all(energies > -np.pi) and np.all(energies <= np.pi)
    assert np.all(np.diff(energies, axis=1) >= 0)


def test_butterfly_single_point_sweep(tmp_path):
    assert run_cli(["butterfly", "--system", "su2-f", "--j", "1", "--alpha", "1",
                    "--xi-sweep", "0.5:0.5:1"], tmp_path) == 0
    _, rows = read_csv(tmp_path / "butterfly.csv")
    assert len(rows) == 3
    assert {r[0] for r in rows} == {"0.5"}


def test_butterfly_harper_sigma_reflection(tmp_path):
    # cos(2 pi n (1-sigma)) = cos(2 pi n sigma): columns must match pairwise
    assert run_cli(["butterfly", "--system", "harper-static", "--length", "50",
                    "--sigma-sweep", "0:1:0.125"], tmp_path) == 0
    _, rows = read_csv(tmp_path / "butterfly.csv")
    table = {}
    for sweep, idx, energy in rows:
        table.setdefault(float(sweep), []).append(float(energy))
    for sigma in (0.0, 0.125, 0.25, 0.375):
        np.testing.assert_allclose(table[sigma], table[1.0 - sigma], atol=1e-10)


XI, SIGMA = 0.3, 0.3
SU2_ARGS = ["--j", "7.5", "--alpha", "0.4"]
HARPER_ARGS = ["--length", "30", "--alpha", "0.7", "--period", "1.5"]

# every CLI system with its arguments, harper-kicked once per mode
BUTTERFLY_SYSTEMS = {
    "dkt": ["--system", "dkt", "--j", "10", "--alpha", "0.2", "--period", "0.5"],
    **{f"su2-{case}": ["--system", f"su2-{case}", *SU2_ARGS] for case in "abcdf"},
    "su2-e": ["--system", "su2-e", *SU2_ARGS, "--epsilon", "0.6"],
    "harper-static": ["--system", "harper-static", *HARPER_ARGS],
    **{f"harper-kicked-{mode}": ["--system", "harper-kicked", *HARPER_ARGS, "--harper-mode", mode]
       for mode in ("closed-form", "general")},
}


def library_hamiltonian(name):
    """The Hamiltonian of BUTTERFLY_SYSTEMS[name] from the library, at xi = XI or sigma = SIGMA."""
    if name == "dkt":
        return dkt_effective_hamiltonian(0.2, XI * np.pi * 10.0, 10.0, 0.5)
    if name.startswith("su2-"):
        case = name[-1]
        params = family_params(case, 0.4, XI * np.pi * 7.5, 7.5, epsilon=0.6 if case == "e" else None)
        return general_su2_hamiltonian(params)
    params = HarperParams(30, SIGMA, alpha=0.7, period=1.5)
    if name == "harper-static":
        return harper_hamiltonian(params)
    return kicked_harper_effective(params, name.removeprefix("harper-kicked-"))


@pytest.mark.parametrize("name", sorted(BUTTERFLY_SYSTEMS))
def test_butterfly_column_matches_library_build(name, tmp_path):
    sweep = ["--sigma-sweep", f"{SIGMA}:{SIGMA}:1"] if name.startswith("harper") else ["--xi-sweep", f"{XI}:{XI}:1"]
    assert run_cli(["butterfly", *BUTTERFLY_SYSTEMS[name], *sweep], tmp_path) == 0
    _, rows = read_csv(tmp_path / "butterfly.csv")
    column = np.array([float(r[2]) for r in rows])
    expected = eigensolve(library_hamiltonian(name))
    if name == "dkt":
        expected = np.sort(fold_phases(expected * 0.5))
    np.testing.assert_array_equal(column, expected)


def test_spectrum_synthetic_uniform(tmp_path):
    assert run_cli(["spectrum", "--system", "synthetic-uniform", "--length", "4096"], tmp_path) == 0
    report = json.loads((tmp_path / "spectrum_report.json").read_text())
    assert report["results"]["d2"] == pytest.approx(1.0, abs=0.02)
    header, rows = read_csv(tmp_path / "tau.csv")
    assert header == ["q", "tau", "d_q", "r2"]
    assert len(rows) == len(report["results"]["q_grid"])
    # config echo and fit windows make the report self-describing
    assert report["config"]["system"] == "synthetic-uniform"
    assert len(report["results"]["fit_windows"]) == len(rows)


def test_spectrum_dkt_small(tmp_path):
    assert run_cli(["spectrum", "--system", "dkt", "--j", "200", "--alpha-over", "1",
                    "--eta-over-j", "golden"], tmp_path) == 0
    report = json.loads((tmp_path / "spectrum_report.json").read_text())
    assert report["results"]["n_values"] == 401
    assert report["config"]["eta"] == pytest.approx(GOLDEN_RATIO * 200)


def test_spectrum_report_d2_null_without_q_two(tmp_path):
    assert run_cli(["spectrum", "--system", "synthetic-uniform", "--length", "4096",
                    "--q-grid", "0,3"], tmp_path) == 0
    report = json.loads((tmp_path / "spectrum_report.json").read_text())
    assert report["results"]["d2"] is None


def test_eigenstates_two_level_toy(tmp_path):
    assert run_cli(["eigenstates", "--system", "dkt", "--j", "0.5", "--alpha", "0.3",
                    "--eta", "1.0", "--scale-grid", "2", "--bins", "5"], tmp_path) == 0
    header, rows = read_csv(tmp_path / "eigenstates.csv")
    assert header == ["index", "pr", "d2", "d5", "mu"]
    assert len(rows) == 2
    prs = [float(r[1]) for r in rows]
    assert all(1.0 - 1e-9 <= pr <= 2.0 + 1e-9 for pr in prs)
    report = json.loads((tmp_path / "eigenstates_report.json").read_text())
    assert report["statistics"]["count"] == 2


def test_eigenstates_harper_modes_differ(tmp_path):
    base = ["eigenstates", "--length", "144", "--sigma", "golden"]
    static_dir = tmp_path / "static"
    kicked_dir = tmp_path / "kicked"
    static_dir.mkdir(), kicked_dir.mkdir()
    assert run_cli(base + ["--system", "harper-static"], static_dir) == 0
    assert run_cli(base + ["--system", "harper-kicked"], kicked_dir) == 0
    mean = {}
    for name, d in (("static", static_dir), ("kicked", kicked_dir)):
        report = json.loads((d / "eigenstates_report.json").read_text())
        mean[name] = report["statistics"]["d2"]["mean"]
    assert mean["static"] != pytest.approx(mean["kicked"], abs=1e-6)


def test_floquet_compare_ladder(tmp_path):
    assert run_cli(["floquet-compare", "--j", "10", "--eta-over-j", "golden",
                    "--alpha-ladder", "0.04,0.02,0.01"], tmp_path) == 0
    report = json.loads((tmp_path / "floquet_compare.json").read_text())
    errors = report["results"]["errors"]
    assert errors[0] > errors[1] > errors[2]
    assert report["results"]["decay_ratios"][-1] >= 4.0


def test_floquet_compare_requires_three_alphas(tmp_path):
    with pytest.raises(ConfigError, match="3 values"):
        parse_config(["floquet-compare", "--j", "4", "--eta", "1", "--alpha-ladder", "0.1,0.05"])


def test_harper_diff_report(tmp_path):
    assert run_cli(["harper-diff", "--length", "40", "--sigma", "golden"], tmp_path) == 0
    report = json.loads((tmp_path / "harper_diff.json").read_text())
    bonds = report["results"]["bond_difference"]
    assert len(bonds) == 39
    assert report["results"]["max_norm"] == pytest.approx(np.max(np.abs(bonds)))
    assert report["results"]["max_diagonal_difference"] == 0.0


# ---------------------------------------------------------------------------
# exit codes as a subprocess (the documented contract)
# ---------------------------------------------------------------------------

def run_python(args):
    # the child imports the same kickedspec as this process, installed or not
    src = str(Path(kickedspec.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def run_module(args):
    return run_python(["-m", "kickedspec.cli", *args])


def test_exit_code_zero_on_success(tmp_path):
    proc = run_module(["spectrum", "--system", "synthetic-uniform",
                       "--length", "2048", "--out-dir", str(tmp_path)])
    assert proc.returncode == 0


def test_exit_code_two_on_config_error(tmp_path):
    proc = run_module(["spectrum", "--system", "warp-drive", "--out-dir", str(tmp_path)])
    assert proc.returncode == 2
    assert "unknown system" in proc.stderr


def test_exit_code_two_on_bad_flag(tmp_path):
    proc = run_module(["spectrum", "--no-such-flag", "1"])
    assert proc.returncode == 2


def test_exit_code_two_on_non_finite_parameter(tmp_path):
    proc = run_module(["spectrum", "--system", "dkt", "--j", "60", "--alpha", "nan",
                       "--eta-over-j", "golden", "--out-dir", str(tmp_path)])
    assert proc.returncode == 2
    assert "finite" in proc.stderr


@pytest.mark.parametrize("args", [
    ["--system", "dkt", "--j", "60", "--alpha", "0.1", "--eta", "nan"],
    ["--system", "su2-a", "--j", "60", "--alpha", "nan", "--eta-over-j", "golden"],
    ["--system", "harper-static", "--length", "50", "--sigma", "nan"],
    ["--system", "harper-kicked", "--length", "50", "--sigma", "golden", "--alpha", "inf"],
])
def test_non_finite_parameter_is_config_error_on_every_system(args, tmp_path):
    assert run_cli(["spectrum", *args], tmp_path) == 2


@pytest.mark.parametrize("args", [
    ["harper-diff", "--length", "10", "--sigma", "golden", "--alpha", "0"],
    ["spectrum", "--system", "harper-kicked", "--length", "10", "--sigma", "golden",
     "--harper-mode", "general", "--alpha", "0"],
])
def test_zero_harper_alpha_is_config_error(args, tmp_path, capsys):
    # the general route divides by alpha; zero is rejected before any build
    assert run_cli(args, tmp_path) == 2
    assert "alpha" in capsys.readouterr().err
    assert not (tmp_path / "harper_diff.json").exists()


@pytest.mark.parametrize("args", [
    ["spectrum", "--system", "dkt", "--j", "10", "--alpha", "1e200", "--eta", "1"],
    ["floquet-compare", "--j", "10", "--eta", "1", "--alpha-ladder", "1e200,1e100,1e50"],
    ["harper-diff", "--length", "10", "--sigma", "golden", "--alpha", "1e200"],
])
def test_overflowing_effective_hamiltonian_is_config_error(args, tmp_path):
    # finite inputs whose H_eff products overflow fail H_eff's own contract;
    # a subprocess keeps the overflow warning away from the test's filters
    proc = run_module([*args, "--out-dir", str(tmp_path)])
    assert proc.returncode == 2, proc.stderr
    assert "effective Hamiltonian is not Hermitian" in proc.stderr


@pytest.mark.parametrize("args", [
    ["spectrum", "--system", "dkt", "--j", "-1", "--eta", "1"],
    ["eigenstates", "--system", "su2-a", "--j", "2.25", "--eta", "1"],
    ["butterfly", "--system", "dkt", "--j", "-1", "--xi-sweep", "0:1:0.5"],
    ["floquet-compare", "--j", "-2", "--eta", "1", "--alpha-ladder", "0.04,0.02,0.01"],
    ["spectrum", "--system", "dkt", "--j", "0", "--alpha-over", "1", "--eta", "1"],
    ["butterfly", "--system", "dkt", "--j", "2", "--xi-sweep", "0:1:1e-300"],
    ["butterfly", "--system", "dkt", "--j", "2", "--xi-sweep", "0:1e308:1e-308"],
])
def test_bad_spin_or_sweep_is_config_error(args, tmp_path):
    # rejected while parsing: one error line, no traceback, nothing written
    proc = run_module([*args, "--out-dir", str(tmp_path)])
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("command", [
    ["spectrum", "--system", "synthetic-uniform"],
    ["eigenstates", "--system", "harper-static", "--length", "64", "--sigma", "golden"],
])
@pytest.mark.parametrize("q_grid", ["nan,2", "inf,2", "2,-inf"])
def test_non_finite_q_grid_is_config_error(command, q_grid, tmp_path, capsys):
    assert run_cli([*command, "--q-grid", q_grid], tmp_path) == 2
    assert "finite" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("args", [
    ["spectrum", "--system", "synthetic-uniform", "--scale-grid", "16,16,16,16"],
    ["eigenstates", "--system", "harper-static", "--length", "64", "--sigma", "golden",
     "--scale-grid", "2,4,100,200"],
])
def test_degenerate_count_grid_is_config_error(args, tmp_path):
    proc = run_module([*args, "--out-dir", str(tmp_path)])
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr


@pytest.mark.parametrize("args, dim", [
    (["--system", "dkt", "--j", "0.5", "--alpha", "0.3", "--eta", "1.0"], 2),
    (["--system", "harper-static", "--length", "3", "--sigma", "golden"], 3),
])
def test_eigenstates_default_grid_at_smallest_dimensions(args, dim, tmp_path):
    assert run_cli(["eigenstates", *args], tmp_path) == 0
    report = json.loads((tmp_path / "eigenstates_report.json").read_text())
    assert report["partition_grid"] == [2]
    assert report["statistics"]["count"] == dim


def test_exit_code_three_on_numerical_failure(tmp_path, monkeypatch):
    import scipy.linalg

    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    # the dkt spectrum is solved by the banded driver (bandwidth 3, complex)
    monkeypatch.setattr(scipy.linalg, "eigvals_banded", no_convergence)
    assert run_cli(["spectrum", "--system", "dkt", "--j", "10", "--alpha", "0.1",
                    "--eta-over-j", "golden"], tmp_path) == 3


def test_floquet_path_does_not_load_scipy(tmp_path):
    # importing scipy.linalg costs more time and memory than a small Floquet
    # comparison; only the banded eigensolver may load it
    argv = ["floquet-compare", "--j", "10", "--eta-over-j", "golden",
            "--alpha-ladder", "0.04,0.02,0.01", "--out-dir", str(tmp_path)]
    proc = run_python(["-c", f"import sys, kickedspec.cli as cli; rc = cli.main({argv!r}); "
                             "print(rc, 'scipy' in sys.modules)"])
    assert proc.stdout.splitlines()[-1] == "0 False", proc.stderr
