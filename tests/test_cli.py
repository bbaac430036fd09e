import importlib.util
import json
import os
import resource
import subprocess
import sys
from functools import partial
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

import kickedspec
from kickedspec import GOLDEN_RATIO
from kickedspec.cli import (_COMMANDS, COMMAND_OPTIONS, MAX_BINS, SYSTEMS, ConfigError, RunConfig, _config_echo,
                             _hamiltonian, main, parse_config, parse_scalar, parse_sweep, write_json)
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
    with pytest.raises(ConfigError, match="^unknown config keys for butterfly: mystery-knob$"):
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
                 ["spectrum", "--system", "harper-static", "--length", "30", "--sigma", "-1e-3"],
                 ["butterfly", "--system", "dkt", "--j", "4", "--xi-sweep", "-1:1:0.5"]):
        spaced = parse_outcome(argv)
        assert isinstance(spaced, dict), spaced
        assert spaced == parse_outcome([*argv[:-2], f"{argv[-2]}={argv[-1]}"])
    assert parse_outcome(["spectrum", "--system", "dkt", "--j", "4", "--eta", "-1e-3"])["eta"] == -1e-3


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
# refusals: bad input is one error line and exit 2, a numerical failure exit 3
# ---------------------------------------------------------------------------

def run_python(args, **kwargs):
    # the child imports the same kickedspec as this process, installed or not
    src = str(Path(kickedspec.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, **kwargs)


def run_module(args, **kwargs):
    return run_python(["-m", "kickedspec.cli", *args], **kwargs)


def test_exit_code_zero_on_success(tmp_path):
    # the documented contract holds for the process: see the isolated rows of REFUSALS for exit 2 and 3
    proc = run_module(["spectrum", *HARPER_GOLDEN, "--out-dir", str(tmp_path)])
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, f"{tmp_path / 'tau.csv'}\n", "")


# every builder and solver that a command calls
_BUILDS = ("dkt_effective_hamiltonian", "general_su2_hamiltonian", "harper_hamiltonian", "kicked_harper_effective",
           "eigensolve", "effective_vs_floquet_errors", "heff_discrepancy_report")


def _forbid_builds(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("a run refused while parsing reached a build or a solve")

    for name in _BUILDS:
        monkeypatch.setattr(f"kickedspec.cli.{name}", never)


def _limit_address_space():
    # 3 GB: enough to run, too little for a runaway allocation to reach the host's memory
    resource.setrlimit(resource.RLIMIT_AS, (3 * 10**9, 3 * 10**9))


class Refused(NamedTuple):
    """A run of `argv`, split at spaces, then `--out-dir out_dir`, that exits `code` with one stderr line:
    "error: " (exit 2) or "numerical failure: " (exit 3), then `line`.  `{tmp}` is the run's directory and
    `{config}` a file there that holds `config`.  It runs in process, with `patch` (a target and its
    replacement) applied and, unless it may `build`, every build and solve forbidden; an `isolated` run is
    the process `python -m kickedspec.cli` under an address-space limit, for its exit status or for a size
    no machine can allocate."""
    argv: str
    line: str
    config: str | bytes | None = None
    code: int = 2
    build: bool = False
    isolated: bool = False
    out_dir: str = "{tmp}/out"
    patch: tuple = ()


def check_refused(row, tmp_path, capsys, monkeypatch):
    """`row`'s exit status and stderr line, with nothing on stdout and nothing made in `tmp_path`."""
    config = tmp_path / "run.cfg"
    if row.config is not None:
        config.write_bytes(row.config if isinstance(row.config, bytes) else row.config.encode())
    fill = partial(str.format, tmp=tmp_path, config=config)
    argv = [*map(fill, row.argv.split()), "--out-dir", fill(row.out_dir)]
    before = sorted(tmp_path.iterdir())
    if row.isolated:
        proc = run_module(argv, preexec_fn=_limit_address_space)
        code, out, err = proc.returncode, proc.stdout, proc.stderr
    else:
        if row.patch:
            monkeypatch.setattr(*row.patch)
        if not row.build:
            _forbid_builds(monkeypatch)
        code = main(argv)
        out, err = capsys.readouterr()
    prefix = {2: "error: ", 3: "numerical failure: "}[row.code]
    assert (code, out, err) == (row.code, "", f"{prefix}{fill(row.line)}\n")
    assert sorted(tmp_path.iterdir()) == before


def rows(cases, **options):
    """Rows by id from (id, argv, line) cases, each with `options`."""
    return {case: Refused(argv, line, **options) for case, argv, line in cases}


def argv_and_config(cases):
    """Rows from (id, args, flag, value, line): `--flag value` after `args`, and (id-config) a --config entry."""
    found = {}
    for case, args, flag, value, line in cases:
        found[case] = Refused(f"{args} --{flag} {value}", line)
        found[f"{case}-config"] = Refused(f"{args} --config {{config}}", line, config=f"{flag} = {value}\n")
    return found


def _unconverged(message):
    def raising(*args, **kwargs):
        raise np.linalg.LinAlgError(message)
    return raising


# the ladder's gauge, and one that breaks its spin-flip parity
TWIST = kickedspec.floquet._twist_gauge


def _random_twist(spin, eta):
    return np.exp(1j * np.random.default_rng(7).uniform(0.0, 2.0 * np.pi, spin.dim))


# each numeric flag -> its converter's message for the value 'x'
NUMERIC_OPTIONS = {
    **dict.fromkeys(("j", "alpha", "alpha-over", "eta", "eta-over-j", "xi", "sigma", "period", "epsilon", "q-grid",
                     "alpha-ladder"), "expected a number or 'golden', got 'x'"),
    **dict.fromkeys(("length", "scale-grid", "bins"), "expected an integer, got 'x'"),
    **dict.fromkeys(("xi-sweep", "sigma-sweep"), "sweep must look like start:stop:step, got 'x'")}
# flag -> (a bad value, the library rule's message), a rule on the value that the flag alone gives
FLAG_RULES = {"j": ("0", "phase operator requires j > 0"), "length": ("1", "chain length must be >= 2, got 1"),
              "period": ("0", "kick period must be finite and positive, got 0.0"),
              "q-grid": ("-1", "negative moments are not supported"),
              "alpha-ladder": ("0.04,0.02,0", "alpha must be finite and nonzero")}
# flag -> command -> a run that reads the flag's parameter, without the flag
GENERAL = "--system harper-kicked --harper-mode general"
FLAG_RULE_RUNS = {
    "j": {"butterfly": "--system dkt --xi-sweep 0:1:0.5", "spectrum": "--system dkt --eta 1",
          "eigenstates": "--system su2-a --eta 1", "floquet-compare": "--eta 1 --alpha-ladder 0.04,0.02,0.01"},
    "length": {"butterfly": "--system harper-static --sigma-sweep 0:1:0.5", "harper-diff": "--sigma golden",
               "spectrum": "--system harper-kicked --sigma golden",
               "eigenstates": "--system harper-static --sigma golden"},
    "period": {"butterfly": f"{GENERAL} --sigma-sweep 0:1:0.5", "spectrum": f"{GENERAL} --length 30 --sigma golden",
               "eigenstates": f"{GENERAL} --length 30 --sigma golden", "harper-diff": "--length 30 --sigma golden"},
    "q-grid": {"spectrum": "--system dkt --j 10 --eta 1",
               "eigenstates": "--system harper-static --length 64 --sigma golden"},
    "alpha-ladder": {"floquet-compare": "--j 10 --eta 1"}}


def test_flag_rule_runs_cover_every_command_that_takes_the_flag():
    for flag, runs in FLAG_RULE_RUNS.items():
        assert set(runs) == {c for c, names in COMMAND_OPTIONS.items() if flag in names}


# a run of every spin system, and of each command on the kicked top, at j = 0
ZERO_SPIN_RUNS = {
    **{f"spectrum-{system}": f"spectrum --system {system} --j 0 --alpha 1 --eta 1"
                             + (" --epsilon 0.6" if system == "su2-e" else "")
       for system in SYSTEMS if not system.startswith("harper")},
    "eigenstates-dkt": "eigenstates --system dkt --j 0 --eta 1",
    "butterfly-dkt": "butterfly --system dkt --j 0 --xi-sweep 0:1:0.5",
    "butterfly-su2-a": "butterfly --system su2-a --j 0 --alpha-over 1 --xi-sweep 0:1:0.5",
    "floquet-compare": "floquet-compare --j 0 --eta 1 --alpha-ladder 0.04,0.02,0.01"}
# flag -> the runs that read its parameter, as a refusal of the flag names them
SPINS = "dkt, su2-a, su2-b, su2-c, su2-d, su2-e, su2-f"
KICKED_CHAINS = "harper-kicked --harper-mode closed-form, harper-kicked --harper-mode general"
READ_BY = {**dict.fromkeys(("j", "eta", "xi"), f"{SPINS}, floquet-compare"), "alpha-over": SPINS,
           "alpha": f"{SPINS}, harper-kicked --harper-mode general, harper-diff", "epsilon": "su2-e",
           "period": "harper-kicked --harper-mode general, harper-diff", "harper-mode": KICKED_CHAINS,
           **dict.fromkeys(("length", "sigma"), f"harper-static, {KICKED_CHAINS}, harper-diff")}
# a run -> flags, with a value, whose parameter its system does not read: the config echo would
# name a value that never reached the Hamiltonian (alpha = value/j needs a j, which a chain has not)
CHAIN = "--length 30 --sigma golden"
NOT_READ = {
    "spectrum --system su2-b --j 20 --eta-over-j golden": {"period": "2.5", "epsilon": "0.6"},
    "eigenstates --system dkt --j 10 --eta 1": {"epsilon": "0.6"},
    f"spectrum --system harper-static {CHAIN}": {"alpha": "0.5", "period": "2.5", "j": "10", "harper-mode": "general"},
    "butterfly --system harper-kicked --length 30 --sigma-sweep 0:1:0.5": {"alpha": "0.5"},
    f"spectrum --system harper-kicked {CHAIN}": {"period": "2.5"},
    f"spectrum {GENERAL} {CHAIN}": {"epsilon": "0.6", "alpha-over": "2"},
    f"eigenstates --system harper-kicked {CHAIN}": {"eta": "1"},
    "butterfly --system harper-static --length 30 --sigma-sweep 0:1:0.5": {"xi": "0.3"},
    "spectrum --system dkt --j 10 --eta 1": {"length": "30"},
    "eigenstates --system su2-a --j 10 --eta 1": {"sigma": "0.3"},
    "spectrum --system su2-c --j 10 --eta 1": {"harper-mode": "general"}}


def not_read(args, flag):
    """The refusal of `--flag` after `args`, which names the run by its system (and harper-kicked's mode)."""
    system = args.split()[2]
    if system == "harper-kicked":
        system += f" --harper-mode {'general' if 'general' in args else 'closed-form'}"
    return f"--{flag}: {system} does not read it (read by {READ_BY[flag]})"


UNKNOWN_SYSTEM = "--system: unknown system '{}'; expected one of " + ", ".join(SYSTEMS)
NOT_FINITE = "expected a finite number, got '{}'"
SPIN_RULE = "--j: spin must be a non-negative half-integer, got j={}"
PERIOD_RULE = "--period: kick period must be finite and positive, got {}"
PHASES = "phases eta(2m+1)/2j must be finite, got eta={} at j=10.0"
ALPHA_RULE = "--alpha: alpha must be finite and nonzero"
TWO_SWEEPS = "butterfly requires exactly one of --xi-sweep, --sigma-sweep"
NOT_HERMITIAN = "effective Hamiltonian is not Hermitian (relative defect nan)"
UNDERFLOW = "Z_q underflows to 0 at q = 1e+300"
DKT = "--system dkt --j 10 --eta 1"
LADDER = "--alpha-ladder 0.04,0.02,0.01"
STATIC_64 = "eigenstates --system harper-static --length 64 --sigma golden"
# finite inputs whose operator products overflow, refused at the build with no overflow warning
OVERFLOWS = rows([
    ("dkt", "spectrum --system dkt --j 10 --alpha 1e200 --eta 1", NOT_HERMITIAN),
    ("harper-kicked", f"spectrum {GENERAL} --length 10 --sigma golden --alpha 1e200", NOT_HERMITIAN),
    ("floquet-compare", "floquet-compare --j 10 --eta 1 --alpha-ladder 1e200,1e100,1e50", NOT_HERMITIAN),
    ("harper-diff", "harper-diff --length 10 --sigma golden --alpha 1e200", NOT_HERMITIAN),
    ("su2-a", "spectrum --system su2-a --j 10 --alpha 1e308 --eta 1",
     "operator is not Hermitian (relative defect nan)"),
], build=True)

# test -> its rows by case id, or its one row: every refusal of the command line
REFUSALS = {
    "test_argparse_errors_are_one_line": rows([
        ("missing-value", "spectrum --system dkt --eta --j 4", "argument --eta: expected one argument"),
        ("unknown-flag", "spectrum --system dkt --j 4 --eta 1 --mystery 2", "unrecognized arguments: --mystery 2")]),
    # an abbreviation is an unknown flag, whatever the sign of its value
    "test_flags_are_written_in_full": rows(
        (value, f"spectrum --system harper-static --length 30 --sig {value}", f"unrecognized arguments: --sig {value}")
        for value in ("1e-3", "-1e-3")),
    "test_full_scale_is_an_unknown_flag": {
        **rows((c, f"{c} --full-scale", "unrecognized arguments: --full-scale") for c in COMMAND_OPTIONS),
        **{f"{c}-config": Refused(f"{c} --config {{config}}", f"unknown config keys for {c}: full-scale",
                                  config="full-scale = 1\n") for c in COMMAND_OPTIONS}},
    # one file is read, so a second would go unread
    "test_a_second_config_file_is_refused": Refused(f"spectrum {DKT} --config {{config}} --config {{tmp}}/2.cfg",
                                                    "--config: give one config file, got 2", config="alpha = 0\n"),
    "test_refusals_are_one_line": {
        **rows([
            ("reversed-sweep", "butterfly --system dkt --j 10 --xi-sweep 2:0:0.1",
             "--xi-sweep: sweep stop 0.0 is below start 2.0"),
            ("eta-and-xi", f"spectrum {DKT} --xi 0.3", "give only one of --eta, --xi"),
            ("no-system", "spectrum --j 10 --eta 1", f"spectrum requires --system ({', '.join(SYSTEMS)})"),
            ("no-sweep", "butterfly --system dkt --j 10", TWO_SWEEPS),
            ("two-sweeps", "butterfly --system dkt --j 10 --xi-sweep 0:1:0.5 --sigma-sweep 0:1:0.5", TWO_SWEEPS),
            # fixed-parameter commands do not even expose sweep flags
            ("sweep-of-spectrum", "spectrum --system dkt --j 4 --xi-sweep 0:1:0.5",
             "unrecognized arguments: --xi-sweep 0:1:0.5"),
            ("scale-grid-above-max-bins", f"spectrum {DKT} --scale-grid 16,32,64,2000000",
             f"--scale-grid: bin counts must not exceed {MAX_BINS}, got 2000000"),
            ("bins-above-states", f"eigenstates {DKT} --bins 50",
             "--bins: bins must not exceed the number of states 21, got 50"),
            # each rung is converted, and checked, before the ladder's length
            ("zero-rung-of-two", "floquet-compare --j 4 --eta 1 --alpha-ladder 0.1,0",
             "--alpha-ladder: alpha must be finite and nonzero")]),
        **{case: Refused(argv, line, config=config) for case, argv, line, config in [
            ("config-without-equals", "spectrum --system dkt --eta 1 --config {config}",
             "{config}:1: expected 'key = value', got 'j 10'", "j 10\n"),
            ("config-empty-value", "spectrum --system dkt --eta 1 --config {config}", "{config}:1: empty key or value",
             "j = \n"),
            ("sweep-key-in-config", "spectrum --config {config}", "unknown config keys for spectrum: xi-sweep",
             "system = dkt\nj = 4\neta = 1\nxi-sweep = 0:1:0.5\n"),
            # every occurrence is converted, so a bad file value fails even when a flag overrides it
            ("file-value-under-a-flag", "eigenstates --config {config} --sigma golden",
             "--sigma: " + NOT_FINITE.format("nan"), "system = harper-static\nlength = 40\nsigma = nan\n")]}},
    "test_parse_config_rejects_fixed_plus_sweep": Refused("butterfly --system dkt --j 4 --xi 0.3 --xi-sweep 0:1:0.5",
                                                          "give either a fixed eta/xi or a sweep, not both"),
    "test_parse_config_rejects_wrong_sweep_axis": Refused("butterfly --system dkt --j 4 --sigma-sweep 0:1:0.5",
                                                          "system dkt sweeps xi, not sigma"),
    "test_floquet_compare_requires_three_alphas": Refused("floquet-compare --j 4 --eta 1 --alpha-ladder 0.1,0.05",
                                                          "--alpha-ladder: alpha ladder needs at least 3 values"),
    "test_parse_config_requires_epsilon_for_case_e": Refused(
        "spectrum --system su2-e --j 10 --eta-over-j golden",
        "system su2-e requires --epsilon (coupling ratio b = epsilon*alpha)"),
    "test_bad_number_error_names_its_flag": argv_and_config(
        (name, next(c for c in sorted(COMMAND_OPTIONS) if name in COMMAND_OPTIONS[c]), name, "x",
         f"--{name}: {message}") for name, message in NUMERIC_OPTIONS.items()),
    # the flag's converter applies the rule: the same line from argv and from a --config file
    "test_a_flag_rule_is_one_error_line_from_argv_or_config": argv_and_config(
        (f"{flag}-{command}", f"{command} {args}", flag, FLAG_RULES[flag][0], f"--{flag}: {FLAG_RULES[flag][1]}")
        for flag, runs in FLAG_RULE_RUNS.items() for command, args in runs.items()),
    "test_option_the_system_does_not_read_is_config_error": argv_and_config(
        (f"{args.split()[2]}-{flag}", args, flag, value, not_read(args, flag))
        for args, flags in NOT_READ.items() for flag, value in flags.items()),
    # the two runs that read a period, where it sets the onsite-to-hopping ratio
    "test_nonpositive_or_non_finite_period_is_config_error": rows(
        (f"{period}{run}", f"{args} --period {period}", line)
        for period, line in (("0", PERIOD_RULE.format(0.0)), ("-1", PERIOD_RULE.format(-1.0)),
                             ("nan", "--period: " + NOT_FINITE.format("nan")),
                             ("inf", "--period: " + NOT_FINITE.format("inf")))
        for run, args in (("", f"spectrum {GENERAL} {CHAIN}"), ("-harper-diff", f"harper-diff {CHAIN}"))),
    # with h0 = (alpha/T) G and kick alpha Jx, T*H_eff = alpha G + alpha Jx +
    # (alpha^3/24)[[Jx, G], Jx] has no T in it, nor has the one-period operator
    "test_the_kicked_top_takes_no_period": rows([
        *((args.split()[0], f"{args} --period 2", not_read(args, "period"))
          for args in (f"spectrum {DKT}", f"eigenstates {DKT}", "butterfly --system dkt --j 10 --xi-sweep 0:1:0.5")),
        ("floquet-compare", f"floquet-compare --j 10 --eta 1 {LADDER} --period 2",
         "unrecognized arguments: --period 2")]),
    # every spin Hamiltonian divides its phases by 2j
    "test_zero_spin_is_rejected_while_parsing": rows(
        (run, argv, "--j: phase operator requires j > 0") for run, argv in ZERO_SPIN_RUNS.items()),
    "test_a_parameter_read_without_a_default_is_required": rows([
        ("floquet-compare-j", f"floquet-compare --eta 1 {LADDER}", "floquet-compare requires --j"),
        ("floquet-compare-eta", f"floquet-compare --j 10 {LADDER}",
         "floquet-compare requires --eta (or --eta-over-j, --xi)"),
        ("floquet-compare-alpha-ladder", "floquet-compare --j 10 --eta 1", "floquet-compare requires --alpha-ladder"),
        ("harper-diff-sigma", "harper-diff --length 40", "harper-diff requires --sigma"),
        ("dkt-j", "spectrum --system dkt --eta 1", "dkt requires --j"),
        ("eigenstates-sigma", "eigenstates --system harper-static", "eigenstates requires --sigma"),
        ("spectrum-eta", "spectrum --system su2-a --j 10", "spectrum requires --eta (or --eta-over-j, --xi)"),
        ("su2-e-epsilon", "spectrum --system su2-e --j 10 --eta 1",
         "system su2-e requires --epsilon (coupling ratio b = epsilon*alpha)")]),
    "test_unknown_system_is_config_error": Refused("spectrum --system synthetic-uniform --length 64",
                                                   UNKNOWN_SYSTEM.format("synthetic-uniform")),
    "test_exit_code_two_on_config_error": Refused("spectrum --system warp-drive", UNKNOWN_SYSTEM.format("warp-drive")),
    "test_exit_code_two_on_bad_flag": Refused("spectrum --no-such-flag 1", "unrecognized arguments: --no-such-flag 1"),
    "test_exit_code_two_on_non_finite_parameter": Refused(
        "spectrum --system dkt --j 60 --alpha nan --eta-over-j golden", "--alpha: " + NOT_FINITE.format("nan")),
    # exit 2 and 3 as the exit status of the process
    "test_exit_code_of_a_process": {
        "2": Refused("spectrum --system warp-drive", UNKNOWN_SYSTEM.format("warp-drive"), isolated=True),
        "3": Refused("spectrum --system dkt --j 10 --alpha 1 --eta 1 --q-grid 0,1e300", UNDERFLOW, code=3, build=True,
                     isolated=True)},
    "test_non_finite_parameter_is_config_error_on_every_system": rows([
        ("args0", "spectrum --system dkt --j 60 --alpha 0.1 --eta nan", "--eta: " + NOT_FINITE.format("nan")),
        ("args1", "spectrum --system su2-a --j 60 --alpha nan --eta-over-j golden",
         "--alpha: " + NOT_FINITE.format("nan")),
        ("args2", "spectrum --system harper-static --length 50 --sigma nan", "--sigma: " + NOT_FINITE.format("nan")),
        ("args3", "spectrum --system harper-kicked --length 50 --sigma golden --alpha inf",
         "--alpha: " + NOT_FINITE.format("inf"))]),
    "test_non_finite_q_grid_is_config_error": rows(
        (f"{q_grid}-command{i}", f"{command} --q-grid {q_grid}", "--q-grid: " + NOT_FINITE.format(bad))
        for q_grid, bad in (("nan,2", "nan"), ("inf,2", "inf"), ("2,-inf", "-inf"))
        for i, command in enumerate(("spectrum --system harper-static --length 2001 --sigma golden", STATIC_64))),
    # the same rule as the SU(2) family and the Harper chains, applied while parsing
    "test_zero_dkt_alpha_is_config_error": rows((f"args{i}", argv, ALPHA_RULE) for i, argv in enumerate([
        "spectrum --system dkt --j 10 --alpha 0 --eta 1", "eigenstates --system dkt --j 10 --alpha 0 --eta 1",
        "butterfly --system dkt --j 10 --alpha 0 --xi-sweep 0:1:0.5"])),
    # the general route divides by alpha
    "test_zero_harper_alpha_is_config_error": rows((f"args{i}", argv, ALPHA_RULE) for i, argv in enumerate([
        "harper-diff --length 10 --sigma golden --alpha 0",
        f"spectrum {GENERAL} --length 10 --sigma golden --alpha 0"])),
    # a zero alpha is refused while parsing, an overflow at the build
    "test_builder_error_leaves_no_output_directory": {
        **rows([("butterfly", "butterfly --system su2-a --j 10 --alpha 0 --xi-sweep 0:1:0.5", ALPHA_RULE),
                ("spectrum", "spectrum --system su2-a --j 10 --alpha 0 --eta 1", ALPHA_RULE),
                ("eigenstates", f"eigenstates {GENERAL} --length 10 --sigma golden --alpha 0", ALPHA_RULE),
                ("floquet-compare", "floquet-compare --j 10 --eta 1 --alpha-ladder 0.04,0.02,0",
                 "--alpha-ladder: alpha must be finite and nonzero"),
                ("harper-diff", "harper-diff --length 10 --sigma golden --alpha 0", ALPHA_RULE)]),
        **{f"{run}-overflow": row for run, row in OVERFLOWS.items()}},
    "test_overflowing_effective_hamiltonian_is_config_error": {
        f"args{i}": OVERFLOWS[run] for i, run in enumerate(("dkt", "floquet-compare", "harper-diff"))},
    "test_bad_spin_or_sweep_is_config_error": rows((f"args{i}", argv, line) for i, (argv, line) in enumerate([
        ("spectrum --system dkt --j -1 --eta 1", SPIN_RULE.format(-1.0)),
        ("eigenstates --system su2-a --j 2.25 --eta 1", SPIN_RULE.format(2.25)),
        ("butterfly --system dkt --j -1 --xi-sweep 0:1:0.5", SPIN_RULE.format(-1.0)),
        (f"floquet-compare --j -2 --eta 1 {LADDER}", SPIN_RULE.format(-2.0)),
        ("spectrum --system dkt --j 0 --alpha-over 1 --eta 1", "--j: phase operator requires j > 0"),
        *((f"butterfly --system dkt --j 2 --xi-sweep {sweep}",
           f"--xi-sweep: sweep '{sweep}' has more than 100000 points") for sweep in ("0:1:1e-300", "0:1e308:1e-308")),
        ("spectrum --system dkt --j 10 --xi 1e308", "--xi: " + PHASES.format("inf")),
        ("spectrum --system dkt --j 10 --eta-over-j 1e308", "--eta-over-j: " + PHASES.format("inf")),
        (f"floquet-compare --j 10 --xi 1e308 {LADDER}", "--xi: " + PHASES.format("inf")),
        (f"floquet-compare --j 10 --eta-over-j 1e308 {LADDER}", "--eta-over-j: " + PHASES.format("inf")),
        ("spectrum --system su2-a --j 10 --xi 1e308", "--xi: " + PHASES.format("inf")),
        # a finite eta whose phases eta(2m+1)/2j overflow
        ("spectrum --system dkt --j 10 --eta 1e308", "--eta: " + PHASES.format("1e+308")),
        ("spectrum --system dkt --j 10 --eta-over-j 1e307", "--eta-over-j: " + PHASES.format("1e+308")),
        (f"floquet-compare --j 10 --eta 1e308 {LADDER}", "--eta: " + PHASES.format("1e+308")),
        ("butterfly --system dkt --j 10 --xi-sweep 0:1e306:1e305",
         "--xi-sweep: " + PHASES.format("3.1415926535897923e+307")),
        ("spectrum --system su2-a --j 10 --eta 1e308", "--eta: " + PHASES.format("1e+308"))])),
    "test_nonpositive_bins_is_config_error": rows(
        (bins, f"{STATIC_64} --bins {bins}", f"--bins: bins must be between 1 and {MAX_BINS}, got {bins}")
        for bins in ("0", "-3")),
    # np.histogram would allocate 8 GiB of bin edges
    "test_oversized_bin_count_is_config_error": rows([
        ("args0", f"{STATIC_64} --bins 1073741824", f"--bins: bins must be between 1 and {MAX_BINS}, got 1073741824"),
        ("args1", f"spectrum {DKT} --scale-grid 16,32,64,1073741824",
         f"--scale-grid: bin counts must not exceed {MAX_BINS}, got 1073741824")]),
    # by the analysis's own grid rules
    "test_degenerate_count_grid_is_config_error": rows([
        ("args0", "spectrum --system harper-static --length 2001 --sigma golden --scale-grid 16,16,16,16",
         "--scale-grid: scale counts must be strictly increasing, got [16, 16, 16, 16]"),
        ("args1", f"{STATIC_64} --scale-grid 2,4,100,200",
         "--scale-grid: partition counts must not exceed the dimension 64, got 200"),
        ("args2", f"spectrum {DKT} --q-grid=-1,2", "--q-grid: negative moments are not supported"),
        ("args3", f"{STATIC_64} --bins 65", "--bins: bins must not exceed the number of states 64, got 65")]),
    # the nearest existing directory above --out-dir must be writable; a root run passes os.access, so it is denied
    "test_out_dir_that_cannot_be_written_is_rejected_before_the_solve": Refused(
        f"spectrum {DKT}", "--out-dir: cannot write in {tmp}", patch=("kickedspec.cli.os.access", lambda *_: False)),
    # Path.exists() reads such a path as missing, and only mkdir would fail
    "test_out_dir_with_a_null_byte_is_rejected_before_the_solve": Refused(
        f"spectrum {DKT}", "--out-dir: embedded null byte", out_dir="{tmp}/a\0b"),
    # Path.read_text raises ValueError, not OSError, on such a path; the flag's converter refuses it
    "test_config_path_with_a_null_byte_is_config_error": Refused(f"spectrum {DKT} --config a\0b",
                                                                 "--config: embedded null byte"),
    "test_config_file_that_is_not_utf8_is_config_error": Refused(
        "spectrum --system dkt --j 10 --config {config}",
        "cannot read config file {config}: 'utf-8' codec can't decode byte 0xff in position 10: invalid start byte",
        config=b"eta = 1 # \xff\n"),
    # the config file stands where the output directory's parent would
    "test_out_dir_under_a_file_is_rejected_before_the_solve": {
        command: Refused(f"{command} --system dkt --j 10 --eta-over-j golden", "--out-dir: {config} is not a directory",
                         config="", out_dir="{config}/out") for command in ("spectrum", "eigenstates")},
    # numpy cannot make the bins of a valid alpha's spectrum, a few subnormals
    # wide, or of a uniform chain's PR, equal to rounding
    "test_range_too_narrow_for_the_bins_exits_three": rows([
        ("spectrum-su2-f", "spectrum --system su2-f --j 0.5 --alpha 5e-324 --eta 1",
         "cannot split the values' range [-0.0, 1e-323] into 16 bins"),
        ("spectrum-dkt", "spectrum --system dkt --j 10 --alpha 1e-322 --eta 1",
         "cannot split the values' range [-1.966e-321, 1.966e-321] into 43 bins"),
        ("eigenstates-pr", f"eigenstates {GENERAL} --length 4 --sigma 0",
         "cannot split the values' range into 50 finite-sized bins")], code=3, build=True),
    # p^q of every cell underflows at q = 1e300: no fit is defined
    "test_underflowing_moment_sum_exits_three": rows([
        ("spectrum-j10", "spectrum --system dkt --j 10 --alpha 1 --eta 1 --q-grid 0,1e300", UNDERFLOW),
        ("spectrum-j100", "spectrum --system dkt --j 100 --alpha-over 1 --eta-over-j golden --q-grid 0,2,1e300",
         UNDERFLOW),
        ("eigenstates", "eigenstates --system harper-kicked --length 201 --sigma golden --q-grid 0,2,1e300",
         UNDERFLOW)], code=3, build=True),
    # a solver that gives up, or a ladder block that is not what it was built as
    "test_numerical_failure_exits_three": {
        case: Refused(argv, line, code=3, build=True, patch=patch) for case, patch, argv, line in [
            # the dkt spectrum is solved by the banded driver (bandwidth 3, complex)
            ("eigvals-banded", ("scipy.linalg.eigvals_banded", _unconverged("Eigenvalues did not converge")),
             "spectrum --system dkt --j 10 --alpha 0.1 --eta-over-j golden", "Eigenvalues did not converge"),
            # every rung's CS angles come from singular value solves; at half-integer
            # spin the H_eff takes Hermitian solves, so the failure is the ladder's
            ("ladder-svd", ("numpy.linalg.svd", _unconverged("SVD did not converge")),
             f"floquet-compare --j 10.5 --eta-over-j golden {LADDER}", "SVD did not converge"),
            # the ladder's blocks are built unitary, and with the spin-flip parity
            ("non-unitary-block", ("kickedspec.floquet._twist_gauge", lambda spin, eta: 1.01 * TWIST(spin, eta)),
             f"floquet-compare --j 10 --eta-over-j golden {LADDER}",
             "Floquet operator is not unitary (defect 2.010e-02 of a gauge block)"),
            ("parity-mixing-twist", ("kickedspec.floquet._twist_gauge", _random_twist),
             f"floquet-compare --j 10 --eta-over-j golden {LADDER}",
             "twist gauge mixes the spin-flip parity blocks by 1")]},
    # a size whose arrays no machine can allocate
    "test_unallocatable_size_is_config_error": rows(
        ((run, argv, f"Unable to allocate {size} for an array with shape ({dim},) and data type int64")
         for run, argv, size, dim in (
            ("spectrum-dkt", "spectrum --system dkt --j 1e12 --eta 1", "14.6 TiB", 2 * 10**12 + 1),
            ("floquet-compare", f"floquet-compare --j 1e12 --eta 1 {LADDER}", "14.6 TiB", 2 * 10**12 + 1),
            *((f"{command}-harper-static", f"{command} --system harper-static --length {10**13} --sigma golden",
               "72.8 TiB", 10**13) for command in ("spectrum", "eigenstates")))), build=True, isolated=True),
}


def _table_test(rows):
    """The test of one REFUSALS entry: a case per row id, or its one row."""
    if isinstance(rows, Refused):
        return lambda tmp_path, capsys, monkeypatch: check_refused(rows, tmp_path, capsys, monkeypatch)

    @pytest.mark.parametrize("row", list(rows.values()), ids=list(rows))
    def test(row, tmp_path, capsys, monkeypatch):
        check_refused(row, tmp_path, capsys, monkeypatch)
    return test


globals().update({name: _table_test(rows) for name, rows in REFUSALS.items()})


@pytest.mark.parametrize("command", sorted(COMMAND_OPTIONS))
def test_command_help(command, capsys):
    # argparse %-formats help strings, so a stray '%' in one would crash --help
    with pytest.raises(SystemExit) as exited:
        main([command, "--help"])
    assert exited.value.code == 0
    assert "--out-dir" in capsys.readouterr().out


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


# each command that takes no --system -> the fewest flags it runs with, and the library call it builds from them
COMMAND_RUNS = {"floquet-compare": ({"j": "3", "eta": "0.7", "alpha-ladder": "0.04,0.02,0.01"},
                                    "effective_vs_floquet_errors"),
                "harper-diff": ({"length": "12", "sigma": "0.3"}, "heff_discrepancy_report")}


class _Called(Exception):
    """Raised by a stand-in for a library call, with the arguments it was handed."""


def command_fields_read(command, monkeypatch):
    """The RunConfig fields whose value changes the arguments that `command` hands its library call, with
    every field set."""
    def called(*args):
        raise _Called(args)

    monkeypatch.setattr(f"kickedspec.cli.{COMMAND_RUNS[command][1]}", called)
    values = {**FIELD_VALUES, "alpha_ladder": ((0.04, 0.02, 0.01), (0.05, 0.02, 0.01))}
    base = {field: pair[0] for field, pair in values.items()}

    def arguments(**changed):
        with pytest.raises(_Called) as call:
            _COMMANDS[command](RunConfig(command, **{**base, **changed}))
        return call.value.args[0]

    handed = arguments()
    return {field for field, pair in values.items() if arguments(**{field: pair[1]}) != handed}


@pytest.mark.parametrize("command", sorted(COMMAND_RUNS))
def test_config_echo_of_a_command_names_exactly_the_parameters_it_reads(command, tmp_path, monkeypatch):
    # the report that main writes; the call the command makes is the oracle
    assert run_cli([command, *(f"--{key}={value}" for key, value in COMMAND_RUNS[command][0].items())], tmp_path) == 0
    (report,) = tmp_path.glob("*.json")
    echo = json.loads(report.read_text())["config"]
    assert echo["command"] == command
    assert set(echo) - {"command"} == command_fields_read(command, monkeypatch)


def test_harper_diff_takes_the_default_length():
    # as every command does for a parameter it reads and is not given
    cfg = parse_config(["harper-diff", "--sigma", "golden"])
    assert (cfg.length, cfg.alpha, cfg.period) == (2001, 1.0, 1.0)


@pytest.mark.parametrize("args, dim", [
    (["--system", "dkt", "--j", "0.5", "--alpha", "0.3", "--eta", "1.0"], 2),
    (["--system", "harper-static", "--length", "3", "--sigma", "golden"], 3),
])
def test_eigenstates_default_grid_at_smallest_dimensions(args, dim, tmp_path):
    assert run_cli(["eigenstates", *args], tmp_path) == 0
    report = json.loads((tmp_path / "eigenstates_report.json").read_text())
    assert report["partition_grid"] == [2]
    assert report["statistics"]["count"] == dim


def test_value_error_in_a_pipeline_is_a_bug(tmp_path, monkeypatch):
    # exit 2 is decided while parsing and at the build; a ValueError later is not an input error
    def internal_bug(*args, **kwargs):
        raise ValueError("internal bug")

    monkeypatch.setattr("kickedspec.cli.tau_spectrum", internal_bug)
    with pytest.raises(ValueError, match="internal bug"):
        run_cli(["spectrum", *HARPER_GOLDEN], tmp_path)


def test_floquet_compare_diagonalizes_jx_parity_blocks(tmp_path, monkeypatch):
    # real eigendecompositions of Jx's parity blocks serve every rung, both
    # half-size blocks at integer spin and the R-odd one alone at half-integer
    # spin, and quasienergies never go through the nonsymmetric eigensolver.
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
    assert calls["eigh"] == [((11, 11), "f")]
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
    # comparison; only a LAPACK driver's call may load it, and the kicked
    # top's eigenvectors take none
    argvs = [["floquet-compare", "--j", "10", "--eta-over-j", "golden", "--alpha-ladder", "0.04,0.02,0.01"],
             ["eigenstates", "--system", "dkt", "--j", "10", "--alpha-over", "1", "--eta-over-j", "golden"]]
    runs = [argv + ["--out-dir", str(tmp_path / argv[0])] for argv in argvs]
    proc = run_python(["-c", "import sys, kickedspec.cli as cli; "
                             f"print([(cli.main(argv), 'scipy' in sys.modules) for argv in {runs!r}])"])
    assert proc.stdout.splitlines()[-1] == "[(0, False), (0, False)]", proc.stderr
