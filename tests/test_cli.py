import importlib.util
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import kickedspec
from kickedspec import GOLDEN_RATIO
from kickedspec.cli import (COMMAND_OPTIONS, MAX_BINS, SYSTEMS, ConfigError, RunConfig, _config_echo, _hamiltonian,
                             main, parse_config, parse_scalar, parse_sweep, write_json)
from kickedspec.floquet import dkt_effective_hamiltonian, fold_phases
from kickedspec.harper import HarperParams, harper_hamiltonian, kicked_harper_effective
from kickedspec.operators import eigensolve
from kickedspec.su2 import general_su2_hamiltonian


def run_cli(args, tmp_path):
    return main(list(args) + ["--out-dir", str(tmp_path)])


# a physical spectrum of the usual size: the static Harper chain at the golden mean
HARPER_GOLDEN = ["--system", "harper-static", "--length", "2001", "--sigma", "golden"]


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
    with pytest.raises(ConfigError, match="unrecognized arguments: --xi-sweep 0:1:0.5$"):
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


def test_parse_config_accepts_full_scale_eigenstates():
    # the symmetry-adapted eigenvector solve needs no size guard at the paper's j = 2500
    cfg = parse_config(["eigenstates", "--system", "dkt", "--j", "2500", "--eta-over-j", "golden"])
    assert (cfg.command, cfg.j, cfg.eta) == ("eigenstates", 2500.0, GOLDEN_RATIO * 2500)


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


def test_flags_override_the_config_file(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("system = harper-static\nlength = 40\nsigma = 0.3\nq_grid = 1,2\nbins = 9\nout-dir = a\n")
    overrides = ["--sigma", "golden", "--q-grid", "2,4", "--out-dir", "b"]
    # the file's entries come first wherever --config stands
    for argv in (["--config", str(config), *overrides], [*overrides, "--config", str(config)]):
        cfg = parse_config(["eigenstates", *argv])
        assert (cfg.sigma, cfg.q_grid, cfg.out_dir) == (GOLDEN_RATIO, (2.0, 4.0), Path("b"))
        assert (cfg.length, cfg.bins) == (40, 9)
    # every occurrence is converted, so a bad file value fails even when a flag overrides it
    config.write_text("system = harper-static\nlength = 40\nsigma = nan\n")
    with pytest.raises(ConfigError, match="finite"):
        parse_config(["eigenstates", "--config", str(config), "--sigma", "golden"])


@pytest.mark.parametrize("command", sorted(COMMAND_OPTIONS))
def test_full_scale_is_an_unknown_flag(command, tmp_path):
    with pytest.raises(ConfigError, match="unrecognized arguments: --full-scale$"):
        parse_config([command, "--full-scale"])
    config = tmp_path / "run.cfg"
    config.write_text("full-scale = 1\n")
    with pytest.raises(ConfigError, match=f"unknown config keys for {command}: full-scale$"):
        parse_config([command, "--config", str(config)])


def parse_outcome(argv):
    """The RunConfig that parse_config returns, as a dict, or its ConfigError message."""
    try:
        cfg = parse_config(argv)
    except ConfigError as exc:
        return str(exc)
    return {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in vars(cfg).items()}


SYSTEM_RUNS = [
    {"system": "dkt", "j": "10", "alpha-over": "1", "eta-over-j": "golden", "q-grid": "0,2,,4",
     "scale-grid": "2,4,8,16"},
    {"system": "su2-e", "j": "5", "alpha": "0.3", "eta": "1.5", "epsilon": "0.6"},
    {"system": "su2-b", "j": "5", "xi": "0.3"},
    {"system": "harper-kicked", "length": "100", "sigma": "golden", "alpha": "0.5", "harper-mode": "general",
     "period": "2", "out-dir": "out"},
]
# runs that together give every option of each command
OPTION_RUNS = {
    "butterfly": [
        {"system": "dkt", "j": "4", "alpha": "0.25", "xi-sweep": "0:1:0.5", "out-dir": "out"},
        {"system": "su2-e", "j": "3.5", "alpha-over": "2", "epsilon": "0.6", "xi-sweep": "0.5:0.5:1"},
        {"system": "harper-kicked", "length": "30", "alpha": "0.7", "sigma-sweep": "0:1:0.25",
         "harper-mode": "general", "period": "0.5"},
        # a fixed value on the swept axis fails either way
        {"system": "dkt", "j": "4", "eta": "1", "xi-sweep": "0:1:0.5"},
        {"system": "dkt", "j": "4", "eta-over-j": "golden", "xi-sweep": "0:1:0.5"},
        {"system": "dkt", "j": "4", "xi": "0.3", "xi-sweep": "0:1:0.5"},
        {"system": "harper-static", "sigma": "0.3", "sigma-sweep": "0:1:0.5"},
    ],
    "spectrum": SYSTEM_RUNS,
    "eigenstates": [*SYSTEM_RUNS, {"system": "dkt", "j": "1100", "eta": "1", "bins": "7"}],
    "floquet-compare": [
        {"j": "10", "eta-over-j": "golden", "alpha-ladder": "0.04,0.02,0.01"},
        {"j": "4", "eta": "1", "alpha-ladder": "0.1,0.05,0.02", "out-dir": "out"},
        {"j": "4", "xi": "0.2", "alpha-ladder": "0.1,,0.05,0.02"},
    ],
    "harper-diff": [{"length": "40", "sigma": "golden", "alpha": "0.5", "period": "2", "out-dir": "out"}],
}


@pytest.mark.parametrize("command", sorted(OPTION_RUNS))
def test_config_keys_parse_as_flags(command, tmp_path):
    assert set().union(*OPTION_RUNS[command]) == set(COMMAND_OPTIONS[command])
    for i, run in enumerate(OPTION_RUNS[command]):
        flags = [command]
        for key, value in run.items():
            flags += [f"--{key}", value]
        config = tmp_path / f"{i}.cfg"
        config.write_text("".join(f"{key} = {value}\n" for key, value in run.items()))
        expected = parse_outcome(flags)
        assert isinstance(expected, dict) or "not both" in expected, expected
        assert parse_outcome([command, "--config", str(config)]) == expected


def test_negative_values_after_a_flag():
    # argparse alone takes '-1e-3' after a flag for an option on some Python versions
    for argv in (["spectrum", "--system", "dkt", "--j", "4", "--eta", "-1e-3"],
                 ["spectrum", "--system", "harper-static", "--length", "30", "--sigma", "-.5e-1"],
                 ["butterfly", "--system", "dkt", "--j", "4", "--xi-sweep", "-1:1:0.5"]):
        spaced = parse_outcome(argv)
        assert isinstance(spaced, dict), spaced
        assert spaced == parse_outcome([*argv[:-2], f"{argv[-2]}={argv[-1]}"])
    assert parse_outcome(["spectrum", "--system", "dkt", "--j", "4", "--eta", "-1e-3"])["eta"] == -1e-3
    with pytest.raises(ConfigError, match="argument --eta: expected one argument"):
        parse_config(["spectrum", "--system", "dkt", "--eta", "--j", "4"])


@pytest.mark.parametrize("argv, message", [
    (["spectrum", "--system", "dkt", "--eta", "--j", "4"], "argument --eta: expected one argument"),
    (["spectrum", "--system", "dkt", "--j", "4", "--eta", "1", "--mystery", "2"],
     "unrecognized arguments: --mystery 2"),
], ids=["missing-value", "unknown-flag"])
def test_argparse_errors_are_one_line(argv, message, tmp_path, capsys):
    assert run_cli(argv, tmp_path) == 2
    err = capsys.readouterr().err
    assert err == f"error: {message}\n", err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("value", ["1e-3", "-1e-3"])
def test_flags_are_written_in_full(value, tmp_path, capsys):
    # an abbreviation is an unknown flag, whatever the sign of its value
    chain = ["spectrum", "--system", "harper-static", "--length", "30"]
    assert run_cli([*chain, "--sig", value], tmp_path) == 2
    err = capsys.readouterr().err
    assert err == f"error: unrecognized arguments: --sig {value}\n", err
    assert run_cli([*chain, "--sigma", "-1e-3"], tmp_path) == 0


NUMERIC_OPTIONS = ("j", "length", "alpha", "alpha-over", "eta", "eta-over-j", "xi", "sigma", "period", "epsilon",
                   "xi-sweep", "sigma-sweep", "q-grid", "scale-grid", "bins", "alpha-ladder")


@pytest.mark.parametrize("name", NUMERIC_OPTIONS)
def test_bad_number_error_names_its_flag(name, tmp_path, capsys):
    command = next(c for c in sorted(COMMAND_OPTIONS) if name in COMMAND_OPTIONS[c])
    config = tmp_path / "bad.cfg"
    config.write_text(f"{name} = x\n")
    for argv in ([command, f"--{name}", "x"], [command, "--config", str(config)]):
        assert run_cli(argv, tmp_path) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: --{name}: ") and err.count("\n") == 1, err
    assert not any(p != config for p in tmp_path.iterdir())


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
# alpha and the period reach the general kicked chain only
HARPER_ARGS = ["--length", "30"]
GENERAL_HARPER_ARGS = [*HARPER_ARGS, "--alpha", "0.7", "--period", "1.5"]

# every CLI system with its arguments, harper-kicked once per mode
BUTTERFLY_SYSTEMS = {
    "dkt": ["--system", "dkt", "--j", "10", "--alpha", "0.2"],
    **{f"su2-{case}": ["--system", f"su2-{case}", *SU2_ARGS] for case in "abcdf"},
    "su2-e": ["--system", "su2-e", *SU2_ARGS, "--epsilon", "0.6"],
    "harper-static": ["--system", "harper-static", *HARPER_ARGS],
    "harper-kicked-closed-form": ["--system", "harper-kicked", *HARPER_ARGS, "--harper-mode", "closed-form"],
    "harper-kicked-general": ["--system", "harper-kicked", *GENERAL_HARPER_ARGS, "--harper-mode", "general"],
}


def library_hamiltonian(name):
    """The Hamiltonian of BUTTERFLY_SYSTEMS[name] from the library, at xi = XI or sigma = SIGMA."""
    if name == "dkt":
        return dkt_effective_hamiltonian(0.2, XI * np.pi * 10.0, 10.0)
    if name.startswith("su2-"):
        case = name[-1]
        return general_su2_hamiltonian(case, 0.4, XI * np.pi * 7.5, 7.5, 0.6 if case == "e" else None)
    if name == "harper-static":
        return harper_hamiltonian(HarperParams(30, SIGMA))
    if name == "harper-kicked-closed-form":
        return kicked_harper_effective(HarperParams(30, SIGMA), "closed-form")
    return kicked_harper_effective(HarperParams(30, SIGMA, alpha=0.7, period=1.5), "general")


@pytest.mark.parametrize("name", sorted(BUTTERFLY_SYSTEMS))
def test_butterfly_column_matches_library_build(name, tmp_path):
    sweep = ["--sigma-sweep", f"{SIGMA}:{SIGMA}:1"] if name.startswith("harper") else ["--xi-sweep", f"{XI}:{XI}:1"]
    assert run_cli(["butterfly", *BUTTERFLY_SYSTEMS[name], *sweep], tmp_path) == 0
    _, rows = read_csv(tmp_path / "butterfly.csv")
    column = np.array([float(r[2]) for r in rows])
    expected = eigensolve(library_hamiltonian(name))
    if name == "dkt":
        expected = np.sort(fold_phases(expected))
    np.testing.assert_array_equal(column, expected)


def test_spectrum_report_is_self_describing(tmp_path):
    assert run_cli(["spectrum", *HARPER_GOLDEN], tmp_path) == 0
    report = json.loads((tmp_path / "spectrum_report.json").read_text())
    assert report["results"]["n_values"] == 2001
    header, rows = read_csv(tmp_path / "tau.csv")
    assert header == ["q", "tau", "d_q", "r2"]
    assert len(rows) == len(report["results"]["q_grid"])
    # config echo and fit windows make the report self-describing; the static chain reads no alpha, period or mode
    assert report["config"] == {"command": "spectrum", "system": "harper-static", "length": 2001,
                                "sigma": GOLDEN_RATIO}
    assert len(report["results"]["fit_windows"]) == len(rows)


def test_spectrum_dkt_small(tmp_path):
    assert run_cli(["spectrum", "--system", "dkt", "--j", "200", "--alpha-over", "1",
                    "--eta-over-j", "golden"], tmp_path) == 0
    report = json.loads((tmp_path / "spectrum_report.json").read_text())
    assert report["results"]["n_values"] == 401
    assert report["config"]["eta"] == pytest.approx(GOLDEN_RATIO * 200)


def test_spectrum_report_d2_null_without_q_two(tmp_path):
    assert run_cli(["spectrum", *HARPER_GOLDEN, "--q-grid", "0,3"], tmp_path) == 0
    report = json.loads((tmp_path / "spectrum_report.json").read_text())
    assert report["results"]["d2"] is None


@pytest.mark.parametrize("q_grid, null_columns", [
    ("0,3,4", {"d2", "d5"}),  # neither q = 2 nor q = 5 on the grid
    ("0,2,9,10", {"d5", "mu"}),  # one q in [2, 8]: no mu slope
])
def test_eigenstates_report_null_columns_off_the_q_grid(q_grid, null_columns, tmp_path):
    assert run_cli(["eigenstates", "--system", "harper-static", "--length", "64", "--sigma", "golden",
                    "--q-grid", q_grid], tmp_path) == 0
    stats = json.loads((tmp_path / "eigenstates_report.json").read_text())["statistics"]
    assert {key for key in ("pr", "d2", "d5", "mu") if stats[key] is None} == null_columns
    header, rows = read_csv(tmp_path / "eigenstates.csv")
    assert len(rows) == stats["count"] == 64
    for key in null_columns:
        assert {row[header.index(key)] for row in rows} == {"nan"}


def test_eigenstates_two_level_toy(tmp_path):
    assert run_cli(["eigenstates", "--system", "dkt", "--j", "0.5", "--alpha", "0.3",
                    "--eta", "1.0", "--scale-grid", "2", "--bins", "2"], tmp_path) == 0
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


@pytest.mark.parametrize("j", ["10", "10.5", "50"])
def test_floquet_compare_errors_are_even_in_eta(j, tmp_path):
    # eta -> -eta conjugates both H_eff and the Floquet operator, and both
    # spectra are symmetric under E -> -E by the pi rotation (Haake, Kus &
    # Scharf, Z. Phys. B 65, 381 (1987)), so the errors agree.  Integer spin
    # takes the sector cut, half-integer spin the general one; the largest
    # difference measured, at j = 10.5, is one unit in the last place of pi
    errors = []
    for sign in ("", "-"):
        argv = ["floquet-compare", "--j", j, "--eta-over-j", sign + repr(GOLDEN_RATIO),
                "--alpha-ladder", "0.04,0.02,0.01,0.005,0.0025,0.00125"]
        assert run_cli(argv, tmp_path / f"eta{sign}") == 0
        errors.append(json.loads((tmp_path / f"eta{sign}" / "floquet_compare.json").read_text())["results"]["errors"])
    assert np.max(np.abs(np.subtract(*errors))) <= 8.0 * np.spacing(np.pi)


BENCHMARK_DIR = Path(__file__).resolve().parents[1] / "perfbench"


def _benchmark_workloads():
    """The benchmark's workload definitions, loaded from their file without
    putting the benchmark directory on the import path."""
    spec = importlib.util.spec_from_file_location("benchmark_workloads", BENCHMARK_DIR / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_benchmark_floquet_ladder_matches_its_reference(seed, tmp_path):
    # the benchmark's full-size floquet-ladder run (j = 200, six rungs) for
    # each modulation, held to the benchmark's own reference and tolerances
    workloads = _benchmark_workloads()
    workload = workloads.WORKLOADS["floquet-ladder"]
    configs = json.loads((BENCHMARK_DIR / "reference" / "floquet-ladder.json").read_text())["configs"]
    assert run_cli(workload.argv(seed), tmp_path) == 0
    assert workloads._floquet_check(workload.extract(tmp_path), configs[str(workloads.config_index(seed))]) == []


def test_floquet_compare_requires_three_alphas(tmp_path):
    with pytest.raises(ConfigError, match="3 values"):
        parse_config(["floquet-compare", "--j", "4", "--eta", "1", "--alpha-ladder", "0.1,0.05"])
    # each rung is converted, and checked, before the ladder's length
    with pytest.raises(ConfigError, match="^--alpha-ladder: alpha must be finite and nonzero$"):
        parse_config(["floquet-compare", "--j", "4", "--eta", "1", "--alpha-ladder", "0.1,0"])


def test_harper_diff_report(tmp_path):
    assert run_cli(["harper-diff", "--length", "40", "--sigma", "golden"], tmp_path) == 0
    report = json.loads((tmp_path / "harper_diff.json").read_text())
    bonds = report["results"]["bond_difference"]
    assert len(bonds) == 39
    assert report["results"]["max_norm"] == pytest.approx(np.max(np.abs(bonds)))
    assert report["results"]["max_diagonal_difference"] == 0.0


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


# a run of each command that writes a JSON report, with undefined fits among them
DKT_50 = ["--system", "dkt", "--j", "50", "--alpha-over", "1", "--eta-over-j", "golden"]
REPORT_RUNS = {
    "spectrum": ["spectrum", *DKT_50],
    "spectrum-q-0,2": ["spectrum", *DKT_50, "--q-grid", "0,2"],
    "spectrum-q-0,3": ["spectrum", *DKT_50, "--q-grid", "0,3"],
    "eigenstates": ["eigenstates", "--system", "dkt", "--j", "20", "--alpha-over", "1", "--eta-over-j", "golden"],
    "eigenstates-q-0,3,4": ["eigenstates", "--system", "harper-static", "--length", "64", "--sigma", "golden",
                            "--q-grid", "0,3,4"],
    "floquet-compare": ["floquet-compare", "--j", "10", "--eta-over-j", "golden", "--alpha-ladder", "0.04,0.02,0.01"],
    "harper-diff": ["harper-diff", "--length", "40", "--sigma", "golden"],
}


@pytest.mark.parametrize("run", sorted(REPORT_RUNS))
def test_reports_are_strict_json(run, tmp_path):
    assert run_cli(REPORT_RUNS[run], tmp_path) == 0
    reports = sorted(tmp_path.glob("*.json"))
    assert reports
    for path in reports:
        json.loads(path.read_text(), parse_constant=_reject_constant)


@pytest.mark.parametrize("run", ["spectrum-q-0,2", "spectrum-q-0,3"])
def test_spectrum_report_mu_null_without_two_q_in_the_slope_range(run, tmp_path):
    assert run_cli(REPORT_RUNS[run], tmp_path) == 0
    assert json.loads((tmp_path / "spectrum_report.json").read_text())["results"]["mu"] is None


def test_write_json_refuses_nan(tmp_path):
    with pytest.raises(ValueError):
        write_json(tmp_path / "report.json", {"mu": float("nan")})


# ---------------------------------------------------------------------------
# exit codes as a subprocess (the documented contract)
# ---------------------------------------------------------------------------

def run_python(args, **kwargs):
    # the child imports the same kickedspec as this process, installed or not
    src = str(Path(kickedspec.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, **kwargs)


def run_module(args, **kwargs):
    return run_python(["-m", "kickedspec.cli", *args], **kwargs)


def test_exit_code_zero_on_success(tmp_path):
    proc = run_module(["spectrum", *HARPER_GOLDEN, "--out-dir", str(tmp_path)])
    assert proc.returncode == 0


def test_exit_code_two_on_config_error(tmp_path):
    proc = run_module(["spectrum", "--system", "warp-drive", "--out-dir", str(tmp_path)])
    assert proc.returncode == 2
    assert "unknown system" in proc.stderr


def test_exit_code_two_on_bad_flag(tmp_path):
    proc = run_module(["spectrum", "--no-such-flag", "1"])
    assert proc.returncode == 2


@pytest.mark.parametrize("command", sorted(COMMAND_OPTIONS))
def test_command_help(command):
    # argparse %-formats help strings, so a stray '%' in one would crash --help
    proc = run_module([command, "--help"])
    assert proc.returncode == 0, proc.stderr
    assert "--out-dir" in proc.stdout


def test_unknown_system_is_config_error(tmp_path, capsys):
    assert run_cli(["spectrum", "--system", "synthetic-uniform", "--length", "64"], tmp_path) == 2
    assert "unknown system" in capsys.readouterr().err


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


# every builder and solver that a command calls
_BUILDS = ("dkt_effective_hamiltonian", "general_su2_hamiltonian", "harper_hamiltonian", "kicked_harper_effective",
           "eigensolve", "effective_vs_floquet_errors", "heff_discrepancy_report")


def _forbid_builds(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("a run refused while parsing reached a build or a solve")

    for name in _BUILDS:
        monkeypatch.setattr(f"kickedspec.cli.{name}", never)


@pytest.mark.parametrize("args", [
    ["spectrum", "--system", "dkt", "--j", "10", "--alpha", "0", "--eta", "1"],
    ["eigenstates", "--system", "dkt", "--j", "10", "--alpha", "0", "--eta", "1"],
    ["butterfly", "--system", "dkt", "--j", "10", "--alpha", "0", "--xi-sweep", "0:1:0.5"],
])
def test_zero_dkt_alpha_is_config_error(args, tmp_path, capsys, monkeypatch):
    # the same rule as the SU(2) family and the Harper chains, applied while parsing;
    # a zero --alpha-ladder rung is in FLAG_RULES
    _forbid_builds(monkeypatch)
    assert run_cli(args, tmp_path) == 2
    assert capsys.readouterr().err == "error: --alpha: alpha must be finite and nonzero\n"
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("args", [
    ["harper-diff", "--length", "10", "--sigma", "golden", "--alpha", "0"],
    ["spectrum", "--system", "harper-kicked", "--length", "10", "--sigma", "golden",
     "--harper-mode", "general", "--alpha", "0"],
])
def test_zero_harper_alpha_is_config_error(args, tmp_path, capsys, monkeypatch):
    # the general route divides by alpha; zero is rejected while parsing
    _forbid_builds(monkeypatch)
    assert run_cli(args, tmp_path) == 2
    assert capsys.readouterr().err == "error: --alpha: alpha must be finite and nonzero\n"
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("args", [
    ["butterfly", "--system", "su2-a", "--j", "10", "--alpha", "0", "--xi-sweep", "0:1:0.5"],
    ["spectrum", "--system", "su2-a", "--j", "10", "--alpha", "0", "--eta", "1"],
    ["eigenstates", "--system", "harper-kicked", "--harper-mode", "general", "--length", "10", "--sigma", "golden",
     "--alpha", "0"],
    ["floquet-compare", "--j", "10", "--eta", "1", "--alpha-ladder", "0.04,0.02,0"],
    ["harper-diff", "--length", "10", "--sigma", "golden", "--alpha", "0"],
    # finite inputs whose operator products overflow, refused at the build
    pytest.param(["spectrum", "--system", "dkt", "--j", "10", "--alpha", "1e200", "--eta", "1"], id="dkt-overflow"),
    pytest.param(["spectrum", "--system", "harper-kicked", "--harper-mode", "general", "--length", "10",
                  "--sigma", "golden", "--alpha", "1e200"], id="harper-kicked-overflow"),
    pytest.param(["floquet-compare", "--j", "10", "--eta", "1", "--alpha-ladder", "1e200,1e100,1e50"],
                 id="floquet-compare-overflow"),
    pytest.param(["harper-diff", "--length", "10", "--sigma", "golden", "--alpha", "1e200"], id="harper-diff-overflow"),
    pytest.param(["spectrum", "--system", "su2-a", "--j", "10", "--alpha", "1e308", "--eta", "1"],
                 id="su2-a-overflow"),
], ids=lambda args: args[0])
def test_builder_error_leaves_no_output_directory(args, tmp_path):
    # a zero alpha is refused while parsing, an overflow after it; either
    # way the directory is made only when a file is written
    out_dir = tmp_path / "out"
    proc = run_module([*args, "--out-dir", str(out_dir)])
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1
    assert not out_dir.exists()


@pytest.mark.parametrize("args, flag", [
    (["spectrum", "--system", "su2-b", "--j", "20", "--eta-over-j", "golden", "--period", "2.5"], "period"),
    (["spectrum", "--system", "su2-b", "--j", "20", "--eta-over-j", "golden", "--epsilon", "0.6"], "epsilon"),
    (["eigenstates", "--system", "dkt", "--j", "10", "--eta", "1", "--epsilon", "0.6"], "epsilon"),
    (["spectrum", "--system", "harper-static", "--length", "30", "--sigma", "golden", "--alpha", "0.5"], "alpha"),
    (["spectrum", "--system", "harper-static", "--length", "30", "--sigma", "golden", "--period", "2.5"], "period"),
    (["butterfly", "--system", "harper-kicked", "--length", "30", "--sigma-sweep", "0:1:0.5", "--alpha", "0.5"],
     "alpha"),
    (["spectrum", "--system", "harper-kicked", "--length", "30", "--sigma", "golden", "--period", "2.5"], "period"),
    (["spectrum", "--system", "harper-kicked", "--harper-mode", "general", "--length", "30", "--sigma", "golden",
      "--epsilon", "0.6"], "epsilon"),
    # alpha = value/j needs a j, which a chain has not
    (["spectrum", "--system", "harper-kicked", "--harper-mode", "general", "--length", "30", "--sigma", "golden",
      "--alpha-over", "2"], "alpha-over"),
    (["spectrum", "--system", "harper-static", "--length", "30", "--sigma", "golden", "--j", "10"], "j"),
    (["eigenstates", "--system", "harper-kicked", "--length", "30", "--sigma", "golden", "--eta", "1"], "eta"),
    (["butterfly", "--system", "harper-static", "--length", "30", "--sigma-sweep", "0:1:0.5", "--xi", "0.3"], "xi"),
    (["spectrum", "--system", "dkt", "--j", "10", "--eta", "1", "--length", "30"], "length"),
    (["eigenstates", "--system", "su2-a", "--j", "10", "--eta", "1", "--sigma", "0.3"], "sigma"),
    (["spectrum", "--system", "su2-c", "--j", "10", "--eta", "1", "--harper-mode", "general"], "harper-mode"),
    (["spectrum", "--system", "harper-static", "--length", "30", "--sigma", "golden", "--harper-mode", "general"],
     "harper-mode"),
], ids=lambda value: value if isinstance(value, str) else value[2])
def test_option_the_system_does_not_read_is_config_error(args, flag, tmp_path, capsys):
    # the config echo would name a value that never reached the Hamiltonian
    config = tmp_path / "run.cfg"
    at = args.index(f"--{flag}")
    config.write_text(f"{flag} = {args[at + 1]}\n")
    for argv in (args, [*args[:at], *args[at + 2:], "--config", str(config)]):
        assert run_cli(argv, tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: --{flag}: ") and err.count("\n") == 1, err
        assert not (tmp_path / "out").exists()


# every CLI system, harper-kicked once per mode, by the flags that select it
SYSTEM_FLAGS = {**{system: ["--system", system] for system in SYSTEMS if system != "harper-kicked"},
                **{f"harper-kicked-{mode}": ["--system", "harper-kicked", "--harper-mode", mode]
                   for mode in ("closed-form", "general")}}
# each system flag -> the RunConfig fields its value is made from (alpha = value/j, eta = value*j, eta = value*pi*j)
FLAG_FIELDS = {"j": ("j",), "length": ("length",), "alpha": ("alpha",), "alpha-over": ("alpha", "j"), "eta": ("eta",),
               "eta-over-j": ("eta", "j"), "xi": ("eta", "j"), "sigma": ("sigma",), "period": ("period",),
               "epsilon": ("epsilon",), "harper-mode": ("harper_mode",)}
# two values of each field, the first of them valid on every system
FIELD_VALUES = {"j": (3.0, 4.0), "length": (12, 13), "alpha": (0.3, 0.4), "eta": (0.7, 0.9), "sigma": (0.3, 0.35),
                "period": (0.9, 1.3), "epsilon": (0.6, 0.8), "harper_mode": ("closed-form", "general")}


def fields_read(name):
    """The RunConfig fields whose value changes the operator that `_hamiltonian` builds for system `name`,
    with every field set."""
    system = SYSTEM_FLAGS[name][1]
    base = {field: values[0] for field, values in FIELD_VALUES.items()}
    if system == "harper-kicked":
        base["harper_mode"] = SYSTEM_FLAGS[name][3]

    def build(**changed):
        return np.asarray(_hamiltonian(RunConfig("spectrum", system, **{**base, **changed})))

    operator = build()
    read = set()
    for field, values in FIELD_VALUES.items():
        other = build(**{field: next(v for v in values if v != base[field])})
        if other.shape != operator.shape or not np.array_equal(other, operator):
            read.add(field)
    return read


def required_flags(name):
    """The fewest flags with which `spectrum` runs system `name`."""
    if "harper" in name:
        return {"length": "12", "sigma": "0.3"}
    return {"j": "3", "eta": "0.7", **({"epsilon": "0.6"} if name == "su2-e" else {})}


@pytest.mark.parametrize("name", sorted(SYSTEM_FLAGS))
def test_a_system_takes_exactly_the_flags_its_hamiltonian_reads(name):
    # the builders are the oracle: a flag is taken exactly when its value reaches the operator
    assert set(FLAG_FIELDS) == set(COMMAND_OPTIONS["spectrum"]) - {"system", "q-grid", "scale-grid", "out-dir"}
    read = fields_read(name)
    for flag, made_from in FLAG_FIELDS.items():
        flags = required_flags(name)
        if "eta" in made_from:
            flags.pop("eta", None)
        flags[flag] = {"j": "3", "length": "12", "harper-mode": "general"}.get(flag, "0.5")
        argv = ["spectrum", *SYSTEM_FLAGS[name], *(f"--{key}={value}" for key, value in flags.items())]
        outcome = parse_outcome(argv)
        if set(made_from) <= read:
            assert isinstance(outcome, dict), (argv, outcome)
        else:
            assert isinstance(outcome, str), argv
            assert outcome.startswith(f"--{flag}: {SYSTEM_FLAGS[name][1]}") and "does not read it" in outcome, outcome


@pytest.mark.parametrize("name", sorted(SYSTEM_FLAGS))
def test_config_echo_names_exactly_the_parameters_the_system_reads(name):
    flags = (f"--{key}={value}" for key, value in required_flags(name).items())
    echo = _config_echo(parse_config(["spectrum", *SYSTEM_FLAGS[name], *flags]))
    assert set(echo) - {"command", "system"} == fields_read(name)


@pytest.mark.parametrize("period", ["0", "-1", "nan", "inf"])
def test_nonpositive_or_non_finite_period_is_config_error(period, tmp_path, capsys):
    # the two runs that read a period, where it sets the onsite-to-hopping ratio
    for args in (["spectrum", "--system", "harper-kicked", "--harper-mode", "general", "--length", "30",
                  "--sigma", "golden"],
                 ["harper-diff", "--length", "30", "--sigma", "golden"]):
        assert run_cli([*args, "--period", period], tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --period: ") and err.count("\n") == 1, err
        assert not (tmp_path / "out").exists()


DKT_PERIOD_REFUSED = "--period: dkt does not read it (read by harper-kicked --harper-mode general, harper-diff)"


@pytest.mark.parametrize("args, message", [
    (["spectrum", "--system", "dkt", "--j", "10", "--eta", "1"], DKT_PERIOD_REFUSED),
    (["eigenstates", "--system", "dkt", "--j", "10", "--eta", "1"], DKT_PERIOD_REFUSED),
    (["butterfly", "--system", "dkt", "--j", "10", "--xi-sweep", "0:1:0.5"], DKT_PERIOD_REFUSED),
    (["floquet-compare", "--j", "10", "--eta", "1", "--alpha-ladder", "0.04,0.02,0.01"],
     "unrecognized arguments: --period 2"),
], ids=["spectrum", "eigenstates", "butterfly", "floquet-compare"])
def test_the_kicked_top_takes_no_period(args, message, tmp_path, capsys):
    # with h0 = (alpha/T) G and kick alpha Jx, T*H_eff = alpha G + alpha Jx +
    # (alpha^3/24)[[Jx, G], Jx] has no T in it, nor has the one-period operator
    assert run_cli([*args, "--period", "2"], tmp_path / "out") == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


# a run of every spin system, and of each command on the kicked top, at j = 0
ZERO_SPIN_RUNS = {
    **{f"spectrum-{system}": ["spectrum", "--system", system, "--j", "0", "--alpha", "1", "--eta", "1",
                              *(["--epsilon", "0.6"] if system == "su2-e" else [])]
       for system in SYSTEMS if not system.startswith("harper")},
    "eigenstates-dkt": ["eigenstates", "--system", "dkt", "--j", "0", "--eta", "1"],
    "butterfly-dkt": ["butterfly", "--system", "dkt", "--j", "0", "--xi-sweep", "0:1:0.5"],
    "butterfly-su2-a": ["butterfly", "--system", "su2-a", "--j", "0", "--alpha-over", "1", "--xi-sweep", "0:1:0.5"],
    "floquet-compare": ["floquet-compare", "--j", "0", "--eta", "1", "--alpha-ladder", "0.04,0.02,0.01"],
}


@pytest.mark.parametrize("run", sorted(ZERO_SPIN_RUNS))
def test_zero_spin_is_rejected_while_parsing(run, tmp_path, capsys, monkeypatch):
    # every spin Hamiltonian divides its phases by 2j; no build or solve may run
    _forbid_builds(monkeypatch)
    assert run_cli(ZERO_SPIN_RUNS[run], tmp_path / "out") == 2
    assert capsys.readouterr().err == "error: --j: phase operator requires j > 0\n"
    assert not (tmp_path / "out").exists()


def test_out_dir_with_a_null_byte_is_rejected_before_the_solve(tmp_path, capsys, monkeypatch):
    # Path.exists() reads such a path as missing, and only mkdir would fail
    _forbid_builds(monkeypatch)
    assert run_cli(["spectrum", "--system", "dkt", "--j", "10", "--eta", "1"], f"{tmp_path}/a\0b") == 2
    assert capsys.readouterr().err == "error: --out-dir: embedded null byte\n"
    assert not any(tmp_path.iterdir())


def test_config_path_with_a_null_byte_is_config_error(tmp_path, capsys, monkeypatch):
    # Path.read_text raises ValueError, not OSError, on such a path; the flag's converter refuses it
    _forbid_builds(monkeypatch)
    assert main(["spectrum", "--system", "dkt", "--j", "10", "--eta", "1", "--config", "a\0b",
                 "--out-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == "error: --config: embedded null byte\n"
    assert not (tmp_path / "out").exists()


def test_config_file_that_is_not_utf8_is_config_error(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_bytes(b"eta = 1 # \xff\n")
    assert main(["spectrum", "--system", "dkt", "--j", "10", "--config", str(config),
                 "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read config file {config}: ") and err.count("\n") == 1, err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["spectrum", "eigenstates"])
def test_out_dir_under_a_file_is_rejected_before_the_solve(command, tmp_path, capsys, monkeypatch):
    blocker = tmp_path / "file"
    blocker.write_text("")
    monkeypatch.setattr("kickedspec.cli.eigensolve", None)  # a solve would raise TypeError
    args = [command, "--system", "dkt", "--j", "10", "--eta-over-j", "golden"]
    assert run_cli(args, blocker / "out") == 2
    assert capsys.readouterr().err == f"error: --out-dir: {blocker} is not a directory\n"


# flag -> (a bad value, the library rule's message), a rule on the value that the flag alone gives
FLAG_RULES = {"j": ("0", "phase operator requires j > 0"),
              "length": ("1", "chain length must be >= 2, got 1"),
              "period": ("0", "kick period must be finite and positive, got 0.0"),
              "q-grid": ("-1", "negative moments are not supported"),
              "alpha-ladder": ("0.04,0.02,0", "alpha must be finite and nonzero")}
# flag -> command -> a run that reads the flag's parameter, without the flag
FLAG_RULE_RUNS = {
    "j": {"butterfly": ["--system", "dkt", "--xi-sweep", "0:1:0.5"], "spectrum": ["--system", "dkt", "--eta", "1"],
          "eigenstates": ["--system", "su2-a", "--eta", "1"],
          "floquet-compare": ["--eta", "1", "--alpha-ladder", "0.04,0.02,0.01"]},
    "length": {"butterfly": ["--system", "harper-static", "--sigma-sweep", "0:1:0.5"],
               "spectrum": ["--system", "harper-kicked", "--sigma", "golden"],
               "eigenstates": ["--system", "harper-static", "--sigma", "golden"],
               "harper-diff": ["--sigma", "golden"]},
    "period": {"butterfly": ["--system", "harper-kicked", "--harper-mode", "general", "--sigma-sweep", "0:1:0.5"],
               "spectrum": ["--system", "harper-kicked", "--harper-mode", "general", "--length", "30",
                            "--sigma", "golden"],
               "eigenstates": ["--system", "harper-kicked", "--harper-mode", "general", "--length", "30",
                               "--sigma", "golden"],
               "harper-diff": ["--length", "30", "--sigma", "golden"]},
    "q-grid": {"spectrum": ["--system", "dkt", "--j", "10", "--eta", "1"],
               "eigenstates": ["--system", "harper-static", "--length", "64", "--sigma", "golden"]},
    "alpha-ladder": {"floquet-compare": ["--j", "10", "--eta", "1"]},
}


@pytest.mark.parametrize("flag, command", [(flag, command) for flag, runs in FLAG_RULE_RUNS.items()
                                           for command in runs], ids=lambda value: value)
def test_a_flag_rule_is_one_error_line_from_argv_or_config(flag, command, tmp_path, capsys, monkeypatch):
    # the flag's converter applies the rule: the same line from argv and from
    # a --config file, before any build, solve or output directory
    assert set(FLAG_RULE_RUNS[flag]) == {c for c, names in COMMAND_OPTIONS.items() if flag in names}
    _forbid_builds(monkeypatch)
    value, message = FLAG_RULES[flag]
    config = tmp_path / "run.cfg"
    config.write_text(f"{flag} = {value}\n")
    args = [command, *FLAG_RULE_RUNS[flag][command]]
    for argv in ([*args, f"--{flag}", value], [*args, "--config", str(config)]):
        assert run_cli(argv, tmp_path / "out") == 2
        assert capsys.readouterr().err == f"error: --{flag}: {message}\n"
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, message", [
    (["floquet-compare", "--eta", "1", "--alpha-ladder", "0.04,0.02,0.01"], "floquet-compare requires --j"),
    (["floquet-compare", "--j", "10", "--alpha-ladder", "0.04,0.02,0.01"],
     "floquet-compare requires --eta (or --eta-over-j, --xi)"),
    (["floquet-compare", "--j", "10", "--eta", "1"], "floquet-compare requires --alpha-ladder"),
    (["harper-diff", "--length", "40"], "harper-diff requires --sigma"),
    (["spectrum", "--system", "dkt", "--eta", "1"], "dkt requires --j"),
    (["eigenstates", "--system", "harper-static"], "eigenstates requires --sigma"),
    (["spectrum", "--system", "su2-a", "--j", "10"], "spectrum requires --eta (or --eta-over-j, --xi)"),
    (["spectrum", "--system", "su2-e", "--j", "10", "--eta", "1"],
     "system su2-e requires --epsilon (coupling ratio b = epsilon*alpha)"),
], ids=["floquet-compare-j", "floquet-compare-eta", "floquet-compare-alpha-ladder", "harper-diff-sigma", "dkt-j",
        "eigenstates-sigma", "spectrum-eta", "su2-e-epsilon"])
def test_a_parameter_read_without_a_default_is_required(argv, message):
    with pytest.raises(ConfigError) as excinfo:
        parse_config(argv)
    assert str(excinfo.value) == message


def test_harper_diff_takes_the_default_length():
    # as every command does for a parameter it reads and is not given
    cfg = parse_config(["harper-diff", "--sigma", "golden"])
    assert (cfg.length, cfg.alpha, cfg.period) == (2001, 1.0, 1.0)


@pytest.mark.parametrize("args", [
    ["spectrum", "--system", "dkt", "--j", "10", "--alpha", "1e200", "--eta", "1"],
    ["floquet-compare", "--j", "10", "--eta", "1", "--alpha-ladder", "1e200,1e100,1e50"],
    ["harper-diff", "--length", "10", "--sigma", "golden", "--alpha", "1e200"],
])
def test_overflowing_effective_hamiltonian_is_config_error(args, tmp_path):
    # finite inputs whose H_eff products overflow fail H_eff's own contract;
    # a subprocess shows that no overflow warning reaches stderr
    proc = run_module([*args, "--out-dir", str(tmp_path)])
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: effective Hamiltonian is not Hermitian") and proc.stderr.count("\n") == 1


@pytest.mark.parametrize("args", [
    ["spectrum", "--system", "dkt", "--j", "-1", "--eta", "1"],
    ["eigenstates", "--system", "su2-a", "--j", "2.25", "--eta", "1"],
    ["butterfly", "--system", "dkt", "--j", "-1", "--xi-sweep", "0:1:0.5"],
    ["floquet-compare", "--j", "-2", "--eta", "1", "--alpha-ladder", "0.04,0.02,0.01"],
    ["spectrum", "--system", "dkt", "--j", "0", "--alpha-over", "1", "--eta", "1"],
    ["butterfly", "--system", "dkt", "--j", "2", "--xi-sweep", "0:1:1e-300"],
    ["butterfly", "--system", "dkt", "--j", "2", "--xi-sweep", "0:1e308:1e-308"],
    ["spectrum", "--system", "dkt", "--j", "10", "--xi", "1e308"],
    ["spectrum", "--system", "dkt", "--j", "10", "--eta-over-j", "1e308"],
    ["floquet-compare", "--j", "10", "--xi", "1e308", "--alpha-ladder", "0.04,0.02,0.01"],
    ["floquet-compare", "--j", "10", "--eta-over-j", "1e308", "--alpha-ladder", "0.04,0.02,0.01"],
    ["spectrum", "--system", "su2-a", "--j", "10", "--xi", "1e308"],
    # a finite eta whose phases eta(2m+1)/2j overflow
    ["spectrum", "--system", "dkt", "--j", "10", "--eta", "1e308"],
    ["spectrum", "--system", "dkt", "--j", "10", "--eta-over-j", "1e307"],
    ["floquet-compare", "--j", "10", "--eta", "1e308", "--alpha-ladder", "0.04,0.02,0.01"],
    ["butterfly", "--system", "dkt", "--j", "10", "--xi-sweep", "0:1e306:1e305"],
    ["spectrum", "--system", "su2-a", "--j", "10", "--eta", "1e308"],
])
def test_bad_spin_or_sweep_is_config_error(args, tmp_path):
    # rejected while parsing: one error line, no traceback, nothing written
    proc = run_module([*args, "--out-dir", str(tmp_path)])
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("bins", ["0", "-3"])
def test_nonpositive_bins_is_config_error(bins, tmp_path):
    # rejected while parsing, before eigenstates.csv is written
    proc = run_module(["eigenstates", "--system", "harper-static", "--length", "64", "--sigma", "golden",
                       "--bins", bins, "--out-dir", str(tmp_path)])
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1
    assert not any(tmp_path.iterdir())


def _limit_address_space():
    # 3 GB: enough to run, too little for a runaway allocation to reach the host's memory
    resource.setrlimit(resource.RLIMIT_AS, (3 * 10**9, 3 * 10**9))


@pytest.mark.parametrize("args", [
    ["eigenstates", "--system", "harper-static", "--length", "64", "--sigma", "golden", "--bins", "1073741824"],
    ["spectrum", "--system", "dkt", "--j", "10", "--alpha", "0.1", "--eta", "1",
     "--scale-grid", "16,32,64,1073741824"],
])
def test_oversized_bin_count_is_config_error(args, tmp_path):
    # rejected while parsing: np.histogram would allocate 8 GiB of bin edges
    proc = run_module([*args, "--out-dir", str(tmp_path)], preexec_fn=_limit_address_space)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1
    assert str(MAX_BINS) in proc.stderr
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("command", [
    ["spectrum", *HARPER_GOLDEN],
    ["eigenstates", "--system", "harper-static", "--length", "64", "--sigma", "golden"],
])
@pytest.mark.parametrize("q_grid", ["nan,2", "inf,2", "2,-inf"])
def test_non_finite_q_grid_is_config_error(command, q_grid, tmp_path, capsys):
    assert run_cli([*command, "--q-grid", q_grid], tmp_path) == 2
    assert "finite" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("args", [
    ["spectrum", *HARPER_GOLDEN, "--scale-grid", "16,16,16,16"],
    ["eigenstates", "--system", "harper-static", "--length", "64", "--sigma", "golden",
     "--scale-grid", "2,4,100,200"],
    ["spectrum", "--system", "dkt", "--j", "10", "--alpha", "0.1", "--eta", "1", "--q-grid=-1,2"],
    ["eigenstates", "--system", "harper-static", "--length", "64", "--sigma", "golden", "--bins", "65"],
])
def test_degenerate_count_grid_is_config_error(args, tmp_path):
    # rejected while parsing, by the analysis's own grid rules: no solve runs
    # and the output directory is never made
    out_dir = tmp_path / "out"
    proc = run_module([*args, "--out-dir", str(out_dir)])
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1
    assert not out_dir.exists()


@pytest.mark.parametrize("args, dim", [
    (["--system", "dkt", "--j", "0.5", "--alpha", "0.3", "--eta", "1.0"], 2),
    (["--system", "harper-static", "--length", "3", "--sigma", "golden"], 3),
])
def test_eigenstates_default_grid_at_smallest_dimensions(args, dim, tmp_path):
    assert run_cli(["eigenstates", *args], tmp_path) == 0
    report = json.loads((tmp_path / "eigenstates_report.json").read_text())
    assert report["partition_grid"] == [2]
    assert report["statistics"]["count"] == dim


@pytest.mark.parametrize("args", [
    # a valid alpha whose spectrum spans a few subnormals
    ["spectrum", "--system", "su2-f", "--j", "0.5", "--alpha", "5e-324", "--eta", "1"],
    ["spectrum", "--system", "dkt", "--j", "10", "--alpha", "1e-322", "--eta", "1"],
    # a uniform chain whose states' PR agree to rounding
    ["eigenstates", "--system", "harper-kicked", "--harper-mode", "general", "--length", "4", "--sigma", "0"],
], ids=["spectrum-su2-f", "spectrum-dkt", "eigenstates-pr"])
def test_range_too_narrow_for_the_bins_exits_three(args, tmp_path):
    # numpy cannot make the bins: one line, exit 3, nothing written
    out_dir = tmp_path / "out"
    proc = run_module([*args, "--out-dir", str(out_dir)])
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith("numerical failure: cannot split") and proc.stderr.count("\n") == 1
    assert not out_dir.exists()


@pytest.mark.parametrize("args", [
    ["spectrum", "--system", "dkt", "--j", "10", "--alpha", "1", "--eta", "1", "--q-grid", "0,1e300"],
    ["spectrum", "--system", "dkt", "--j", "100", "--alpha-over", "1", "--eta-over-j", "golden",
     "--q-grid", "0,2,1e300"],
    ["eigenstates", "--system", "harper-kicked", "--length", "201", "--sigma", "golden", "--q-grid", "0,2,1e300"],
], ids=["spectrum-j10", "spectrum-j100", "eigenstates"])
def test_underflowing_moment_sum_exits_three(args, tmp_path):
    # p^q of every cell underflows at q = 1e300: no fit is defined, so one
    # line, exit 3, no RuntimeWarning and nothing written
    out_dir = tmp_path / "out"
    proc = run_module([*args, "--out-dir", str(out_dir)])
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr == "numerical failure: Z_q underflows to 0 at q = 1e+300\n"
    assert not out_dir.exists()


def test_value_error_in_a_pipeline_is_a_bug(tmp_path, monkeypatch):
    # exit 2 is decided while parsing and at the build; a ValueError later is not an input error
    def internal_bug(*args, **kwargs):
        raise ValueError("internal bug")

    monkeypatch.setattr("kickedspec.cli.tau_spectrum", internal_bug)
    with pytest.raises(ValueError, match="internal bug"):
        run_cli(["spectrum", *HARPER_GOLDEN], tmp_path)


def test_exit_code_three_on_numerical_failure(tmp_path, monkeypatch):
    import scipy.linalg

    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    # the dkt spectrum is solved by the banded driver (bandwidth 3, complex)
    monkeypatch.setattr(scipy.linalg, "eigvals_banded", no_convergence)
    assert run_cli(["spectrum", "--system", "dkt", "--j", "10", "--alpha", "0.1",
                    "--eta-over-j", "golden"], tmp_path) == 3


def test_unconverged_ladder_svd_exits_three(tmp_path, monkeypatch, capsys):
    def unconverged(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    # every rung's CS angles come from singular value solves, so the
    # quasienergy solve gives up; at half-integer spin the H_eff takes
    # Hermitian solves, so the failure is the ladder's
    monkeypatch.setattr(np.linalg, "svd", unconverged)
    assert run_cli(["floquet-compare", "--j", "10.5", "--eta-over-j", "golden",
                    "--alpha-ladder", "0.04,0.02,0.01"], tmp_path) == 3
    assert "numerical failure" in capsys.readouterr().err
    assert not (tmp_path / "floquet_compare.json").exists()


def test_non_unitary_ladder_block_exits_three(tmp_path, monkeypatch, capsys):
    # the ladder builds its blocks unitary, so a block that is not is a
    # numerical failure, not a configuration error
    twist = kickedspec.floquet._twist_gauge
    monkeypatch.setattr(kickedspec.floquet, "_twist_gauge", lambda spin, eta: 1.01 * twist(spin, eta))
    assert run_cli(["floquet-compare", "--j", "10", "--eta-over-j", "golden",
                    "--alpha-ladder", "0.04,0.02,0.01"], tmp_path) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: Floquet operator is not unitary"), err
    assert not (tmp_path / "floquet_compare.json").exists()


def test_parity_mixing_twist_exits_three(tmp_path, monkeypatch, capsys):
    # a twist that breaks the spin-flip parity is a numerical failure, not a
    # configuration error
    rng = np.random.default_rng(7)
    monkeypatch.setattr(kickedspec.floquet, "_twist_gauge", lambda spin, eta: np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, spin.dim)))
    assert run_cli(["floquet-compare", "--j", "10", "--eta-over-j", "golden",
                    "--alpha-ladder", "0.04,0.02,0.01"], tmp_path) == 3
    assert "numerical failure" in capsys.readouterr().err
    assert not (tmp_path / "floquet_compare.json").exists()


def test_floquet_compare_diagonalizes_jx_parity_blocks(tmp_path, monkeypatch):
    # two half-size real eigendecompositions of Jx's parity blocks serve every
    # rung, and quasienergies never go through the nonsymmetric eigensolver.
    # At j = 10 and 10.5 each rung's CS angles are the arcsin of the singular
    # values of G's block between the two sectors of the pi rotation S: per
    # parity block at integer spin, quarter-size, and at half-integer spin,
    # where S swaps the parity blocks, once on the two, half-size
    names = ("eigh", "eigvals", "eigvalsh", "inv", "solve", "svd")
    ladder = ["--eta-over-j", "golden", "--alpha-ladder", "0.04,0.02,0.01,0.005,0.0025,0.00125"]
    calls = {}
    for name in names:
        def counted(mat, *args, _name=name, _original=getattr(np.linalg, name), **kwargs):
            calls[_name].append((np.shape(mat), np.asarray(mat).dtype.kind))
            return _original(mat, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)

    calls.update({name: [] for name in names})
    assert run_cli(["floquet-compare", "--j", "10", *ladder], tmp_path / "integer") == 0
    assert {name: calls[name] for name in ("eigh", "eigvals")} == {
        "eigh": [((11, 11), "f"), ((10, 10), "f")], "eigvals": []}
    # the H_eff's two chiral blocks per kick strength, then the ladder's S blocks
    heff_svd, ladder_svd = calls["svd"][:12], calls["svd"][12:]
    assert heff_svd == [((6, 5), "c"), ((5, 5), "c")] * 6
    assert ladder_svd == [((5, 6), "c"), ((5, 5), "c")] * 6
    assert calls["solve"] == []
    assert calls["inv"] == [] and calls["eigvalsh"] == []

    calls.update({name: [] for name in names})
    assert run_cli(["floquet-compare", "--j", "10.5", *ladder], tmp_path / "half-integer") == 0
    assert calls["eigh"] == [((11, 11), "f"), ((11, 11), "f")]
    # the H_eff's two Hermitian blocks per kick strength
    assert calls["eigvalsh"] == [((11, 11), "c")] * 12
    assert calls["svd"] == [((11, 11), "c")] * 6
    assert calls["solve"] == []
    assert calls["inv"] == [] and calls["eigvals"] == []


@pytest.mark.parametrize("ladder", ["0.04,0.02,0.01", "0.04,0.02,0.01,0.005,0.0025,0.00125"],
                         ids=["three-rungs", "six-rungs"])
@pytest.mark.parametrize("j, sizes", [("10", [(5, 5), (6, 6), (5, 5), (5, 5)]), ("10.5", [(11, 11)])],
                         ids=["j10", "j10.5"])
def test_floquet_compare_checks_unitarity_once_per_gauge_block(j, sizes, ladder, tmp_path, monkeypatch):
    # every rung is unitary when the sectors it is built from are, so a
    # ladder of any length checks its gauge once and no rung: at integer
    # spin the two quarter-size pi-rotation sectors of each parity block
    # (11 = 5 + 6 and 10 = 5 + 5 at j = 10), at half-integer spin the one
    # R-odd gauge block
    checked = []
    defect = kickedspec.operators.unitarity_defect

    def counted(mat):
        checked.append(np.shape(mat))
        return defect(mat)

    monkeypatch.setattr(kickedspec.operators, "unitarity_defect", counted)
    monkeypatch.setattr(kickedspec.floquet, "unitarity_defect", counted, raising=False)
    argv = ["floquet-compare", "--j", j, "--eta-over-j", "golden", "--alpha-ladder", ladder]
    assert run_cli(argv, tmp_path) == 0
    assert checked == sizes


def test_floquet_path_does_not_load_scipy(tmp_path):
    # importing scipy.linalg costs more time and memory than a small Floquet
    # comparison; only the banded eigensolver may load it
    argv = ["floquet-compare", "--j", "10", "--eta-over-j", "golden",
            "--alpha-ladder", "0.04,0.02,0.01", "--out-dir", str(tmp_path)]
    proc = run_python(["-c", f"import sys, kickedspec.cli as cli; rc = cli.main({argv!r}); "
                             "print(rc, 'scipy' in sys.modules)"])
    assert proc.stdout.splitlines()[-1] == "0 False", proc.stderr
