"""Command-line surface: butterfly sweeps, spectrum and eigenstate analysis,
Floquet comparison, and the Harper closed-form/general diff.

All pipelines are deterministic and emit flat CSV (17 significant digits,
LF, header row) or JSON with a config echo, so every number in a report can
be traced back to its inputs.
"""

import argparse
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import GOLDEN_RATIO
from .floquet import dkt_effective_hamiltonian, effective_vs_floquet_error, fold_phases
from .harper import CLOSED_FORM, GENERAL, HarperParams, harper_hamiltonian, heff_discrepancy_report, kicked_harper_effective
from .multifractal import analyze_eigenvectors, ensemble_statistics, tau_spectrum
from .operators import Banded, eigensolve
from .su2 import SpinLabel, family_params, general_su2_hamiltonian

SU2_CASES = ("a", "b", "c", "d", "e", "f")
SYSTEMS = ("dkt",) + tuple(f"su2-{c}" for c in SU2_CASES) + ("harper-static", "harper-kicked", "synthetic-uniform")
FULL_SCALE_DIM = 2101  # larger eigenvector tables (eigenstates) require --full-scale
MAX_SWEEP_POINTS = 100_000  # each point is one eigensolve

_EXIT_CONFIG = 2
_EXIT_NUMERICAL = 3


class ConfigError(Exception):
    """Invalid or contradictory run configuration."""


def parse_scalar(text: str) -> float:
    """Parse a finite float, expanding the golden-ratio shorthand at full precision."""
    token = text.strip().lower()
    if token in ("golden", "golden-ratio", "gr"):
        return GOLDEN_RATIO
    try:
        value = float(text)
    except ValueError as exc:
        raise ConfigError(f"expected a number or 'golden', got {text!r}") from exc
    if not np.isfinite(value):
        raise ConfigError(f"expected a finite number, got {text!r}")
    return value


def parse_sweep(text: str) -> np.ndarray:
    """Expand 'start:stop:step' into an inclusive grid."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"sweep must look like start:stop:step, got {text!r}")
    start, stop, step = (parse_scalar(p) for p in parts)
    if step <= 0:
        raise ConfigError(f"sweep step must be positive, got {step}")
    if stop < start:
        raise ConfigError(f"sweep stop {stop} is below start {start}")
    steps = (stop - start) / step
    if not steps + 1e-9 < MAX_SWEEP_POINTS:
        raise ConfigError(f"sweep {text!r} has more than {MAX_SWEEP_POINTS} points")
    return start + step * np.arange(int(np.floor(steps + 1e-9)) + 1)


def parse_grid(text: str, kind=float) -> tuple:
    try:
        return tuple(kind(tok) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise ConfigError(f"expected a comma-separated list, got {text!r}") from exc


def read_config_file(path: str) -> dict:
    """Flat key = value file; '#' starts a comment; keys mirror CLI flags."""
    entries = {}
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise ConfigError(f"{path}:{lineno}: empty key or value")
        entries[key.replace("_", "-")] = value
    return entries


@dataclass
class RunConfig:
    command: str
    system: str | None = None
    j: float | None = None
    length: int | None = None
    alpha: float | None = None
    eta: float | None = None
    sigma: float | None = None
    period: float = 1.0
    epsilon: float | None = None
    sweep: np.ndarray | None = None
    q_grid: tuple | None = None
    scale_grid: tuple | None = None
    harper_mode: str = CLOSED_FORM
    alpha_ladder: tuple = ()
    bins: int = 50
    full_scale: bool = False
    out_dir: Path = field(default_factory=lambda: Path("."))


def _flag_specs(command: str) -> dict:
    """Option name -> (converter, help). Shared across file keys and CLI flags."""
    common = {
        "out-dir": (str, "output directory for emitted files"),
        "full-scale": (None, f"allow eigenstates above dimension {FULL_SCALE_DIM}"),
    }
    system = {
        "system": (str, f"one of {', '.join(SYSTEMS)}"),
        "j": (parse_scalar, "spin quantum number"),
        "length": (int, "Harper chain length"),
        "alpha": (parse_scalar, "coupling alpha"),
        "alpha-over": (parse_scalar, "set alpha = value/j"),
        "eta": (parse_scalar, "phase parameter eta"),
        "eta-over-j": (parse_scalar, "set eta = value*j ('golden' accepted)"),
        "xi": (parse_scalar, "set eta = value*pi*j"),
        "sigma": (parse_scalar, "Harper modulation ('golden' accepted)"),
        "period": (parse_scalar, "kick period T"),
        "epsilon": (parse_scalar, "family case 'e' coupling ratio"),
    }
    analysis = {
        "q-grid": (str, "comma-separated moment orders"),
        "scale-grid": (str, "comma-separated bin or partition counts"),
    }
    per_command = {
        "butterfly": {**system, "xi-sweep": (str, "xi sweep start:stop:step"),
                      "sigma-sweep": (str, "sigma sweep start:stop:step"),
                      "harper-mode": (str, "closed-form or general")},
        "spectrum": {**system, **analysis, "harper-mode": (str, "closed-form or general")},
        "eigenstates": {**system, **analysis, "bins": (int, "histogram bin count"),
                        "harper-mode": (str, "closed-form or general")},
        "floquet-compare": {"j": system["j"], "eta": system["eta"], "eta-over-j": system["eta-over-j"],
                            "xi": system["xi"], "period": system["period"],
                            "alpha-ladder": (str, "comma-separated alpha values, largest first")},
        "harper-diff": {"length": system["length"], "sigma": system["sigma"],
                        "alpha": system["alpha"], "period": system["period"]},
    }
    return {**per_command[command], **common}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="kickedspec",
                                     description="Effective Hamiltonians of kicked systems and multifractal spectral analysis")
    sub = parser.add_subparsers(dest="command", required=True)
    for command in ("butterfly", "spectrum", "eigenstates", "floquet-compare", "harper-diff"):
        p = sub.add_parser(command)
        p.add_argument("--config", help="flat key = value config file; flags override file entries")
        for name, (conv, help_text) in _flag_specs(command).items():
            if conv is None:
                p.add_argument(f"--{name}", action="store_const", const="1", default=None, help=help_text)
            else:
                p.add_argument(f"--{name}", type=str, default=None, help=help_text, metavar="V")
    return parser


def _merge_sources(command: str, args: argparse.Namespace) -> dict:
    specs = _flag_specs(command)
    merged = {}
    if args.config:
        file_entries = read_config_file(args.config)
        unknown = sorted(set(file_entries) - set(specs))
        if unknown:
            raise ConfigError(f"unknown config keys for {command}: {', '.join(unknown)}")
        merged.update(file_entries)
    for name in specs:
        value = getattr(args, name.replace("-", "_"))
        if value is not None:
            merged[name] = value
    return merged


def _convert(merged: dict, command: str) -> dict:
    specs = _flag_specs(command)
    out = {}
    for key, raw in merged.items():
        conv, _ = specs[key]
        if conv is None:
            out[key] = str(raw).strip().lower() not in ("0", "false", "no", "")
        else:
            try:
                out[key] = conv(raw)
            except ConfigError:
                raise
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"bad value for {key}: {raw!r}") from exc
    return out


def _resolve_eta(values: dict, spin: float | None) -> float | None:
    given = [k for k in ("eta", "eta-over-j", "xi") if k in values]
    if len(given) > 1:
        raise ConfigError(f"give only one of eta, eta-over-j, xi (got {', '.join(given)})")
    if not given:
        return None
    if given[0] == "eta":
        return values["eta"]
    if spin is None:
        raise ConfigError(f"{given[0]} requires j")
    if given[0] == "eta-over-j":
        return values["eta-over-j"] * spin
    return values["xi"] * np.pi * spin


def _resolve_alpha(values: dict, spin: float | None) -> float | None:
    if "alpha" in values and "alpha-over" in values:
        raise ConfigError("give only one of alpha, alpha-over")
    if "alpha-over" in values:
        if not spin:
            raise ConfigError("alpha-over requires j > 0")
        return values["alpha-over"] / spin
    return values.get("alpha")


def _spin(j: float) -> SpinLabel:
    try:
        return SpinLabel(j)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def parse_config(argv) -> RunConfig:
    """Parse CLI flags (plus optional config file) into a validated RunConfig."""
    args = build_parser().parse_args(argv)
    command = args.command
    values = _convert(_merge_sources(command, args), command)

    cfg = RunConfig(command=command)
    cfg.out_dir = Path(values.get("out-dir", "."))
    cfg.full_scale = bool(values.get("full-scale", False))
    cfg.period = values.get("period", 1.0)
    if cfg.period <= 0:
        raise ConfigError(f"period must be positive, got {cfg.period}")
    cfg.bins = int(values.get("bins", 50))
    if "q-grid" in values:
        cfg.q_grid = parse_grid(values["q-grid"], parse_scalar)
    if "scale-grid" in values:
        cfg.scale_grid = parse_grid(values["scale-grid"], int)
    cfg.harper_mode = values.get("harper-mode", CLOSED_FORM)
    if cfg.harper_mode not in (CLOSED_FORM, GENERAL):
        raise ConfigError(f"harper-mode must be {CLOSED_FORM} or {GENERAL}, got {cfg.harper_mode!r}")

    if command == "floquet-compare":
        if "alpha-ladder" not in values:
            raise ConfigError("floquet-compare requires --alpha-ladder")
        cfg.alpha_ladder = tuple(parse_scalar(v) for v in str(values["alpha-ladder"]).split(","))
        if len(cfg.alpha_ladder) < 3:
            raise ConfigError("alpha ladder needs at least 3 values")
        if "j" not in values:
            raise ConfigError("floquet-compare requires --j")
        _spin(values["j"])
        cfg.j = values["j"]
        cfg.eta = _resolve_eta(values, cfg.j)
        if cfg.eta is None:
            raise ConfigError("floquet-compare requires eta (or eta-over-j / xi)")
        return cfg

    if command == "harper-diff":
        if "length" not in values or "sigma" not in values:
            raise ConfigError("harper-diff requires --length and --sigma")
        cfg.length = int(values["length"])
        cfg.sigma = values["sigma"]
        cfg.alpha = values.get("alpha", 1.0)
        return cfg

    system = values.get("system")
    if system is None:
        raise ConfigError(f"{command} requires --system ({', '.join(SYSTEMS)})")
    if system not in SYSTEMS:
        raise ConfigError(f"unknown system {system!r}; expected one of {', '.join(SYSTEMS)}")
    cfg.system = system

    is_harper = system.startswith("harper")
    is_su2 = system == "dkt" or system.startswith("su2-")
    sweep_keys = [k for k in ("xi-sweep", "sigma-sweep") if k in values]

    if command == "butterfly":
        if len(sweep_keys) != 1:
            raise ConfigError("butterfly requires exactly one of --xi-sweep, --sigma-sweep")
        key = sweep_keys[0]
        if is_su2 and key != "xi-sweep":
            raise ConfigError(f"system {system} sweeps xi, not sigma")
        if is_harper and key != "sigma-sweep":
            raise ConfigError(f"system {system} sweeps sigma, not xi")
        if key == "xi-sweep" and any(k in values for k in ("eta", "eta-over-j", "xi")):
            raise ConfigError("give either a fixed eta/xi or a sweep, not both")
        if key == "sigma-sweep" and "sigma" in values:
            raise ConfigError("give either a fixed sigma or a sweep, not both")
        cfg.sweep = parse_sweep(values[key])
    elif sweep_keys:
        raise ConfigError(f"{command} takes fixed parameters, not sweeps")

    if is_su2:
        if "j" not in values:
            raise ConfigError(f"system {system} requires --j")
        spin = _spin(values["j"])
        cfg.j = values["j"]
        cfg.alpha = _resolve_alpha(values, cfg.j)
        if cfg.alpha is None:
            cfg.alpha = 1.0 / cfg.j if cfg.j > 0 else 1.0  # butterfly-sweep default
        cfg.eta = _resolve_eta(values, cfg.j)
        if command != "butterfly" and cfg.eta is None:
            raise ConfigError(f"{command} requires a fixed eta (or eta-over-j / xi)")
        if system == "su2-e" and values.get("epsilon") is None:
            raise ConfigError("system su2-e requires --epsilon (coupling ratio b = epsilon*alpha)")
        cfg.epsilon = values.get("epsilon")
        dim = spin.dim
    elif is_harper:
        cfg.length = int(values.get("length", 2001))
        cfg.sigma = values.get("sigma")
        if command != "butterfly" and cfg.sigma is None:
            raise ConfigError(f"{command} requires a fixed sigma")
        cfg.alpha = values.get("alpha", 1.0)
        dim = cfg.length
    else:  # synthetic-uniform test hook: no eigenproblem, no size gate
        cfg.length = int(values.get("length", 4096))
        return cfg

    # the eigenstates table holds dim x dim eigenvectors (a dense eigh for dkt)
    if command == "eigenstates" and dim > FULL_SCALE_DIM and not cfg.full_scale:
        raise ConfigError(f"dimension {dim} exceeds {FULL_SCALE_DIM}; pass --full-scale for heavy runs")
    return cfg


# ---------------------------------------------------------------------------
# Hamiltonian builder
# ---------------------------------------------------------------------------

def _hamiltonian(cfg: RunConfig, sweep_value: float | None = None) -> Banded:
    """The configured system's Hamiltonian.  A butterfly passes `sweep_value`
    in place of the fixed parameter: xi (eta = xi*pi*j) for the SU(2)
    systems, sigma for the Harper chains."""
    if cfg.system == "synthetic-uniform":
        raise ConfigError(f"{cfg.command} needs a physical system, not synthetic-uniform")
    if cfg.system.startswith("harper"):
        sigma = cfg.sigma if sweep_value is None else sweep_value
        params = HarperParams(length=cfg.length, sigma=sigma, alpha=cfg.alpha, period=cfg.period)
        if cfg.system == "harper-static":
            return harper_hamiltonian(params)
        return kicked_harper_effective(params, cfg.harper_mode)
    eta = cfg.eta if sweep_value is None else sweep_value * np.pi * cfg.j
    if cfg.system == "dkt":
        return dkt_effective_hamiltonian(cfg.alpha, eta, cfg.j, cfg.period)
    case = cfg.system.split("-", 1)[1]
    params = family_params(case, cfg.alpha, eta, cfg.j, epsilon=cfg.epsilon)
    return general_su2_hamiltonian(params)


# ---------------------------------------------------------------------------
# Emission helpers
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def write_csv(path: Path, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def write_json(path: Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _config_echo(cfg: RunConfig) -> dict:
    echo = {"command": cfg.command, "system": cfg.system}
    for name in ("j", "length", "alpha", "eta", "sigma", "period", "epsilon"):
        value = getattr(cfg, name)
        if value is not None:
            echo[name] = value
    if cfg.sweep is not None:
        echo["sweep"] = {"start": float(cfg.sweep[0]), "stop": float(cfg.sweep[-1]), "points": int(cfg.sweep.size)}
    if cfg.q_grid is not None:
        echo["q_grid"] = list(cfg.q_grid)
    if cfg.scale_grid is not None:
        echo["scale_grid"] = list(cfg.scale_grid)
    if cfg.system is not None and cfg.system.startswith("harper"):
        echo["harper_mode"] = cfg.harper_mode
    return echo


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_butterfly(cfg: RunConfig) -> Path:
    """Sweep xi (SU(2) family) or sigma (Harper) and emit one spectrum per point."""
    rows = []
    for value in cfg.sweep.tolist():
        energies = eigensolve(_hamiltonian(cfg, value))
        if cfg.system == "dkt":
            energies = np.sort(fold_phases(energies * cfg.period))
        rows.extend((value, idx, energy) for idx, energy in enumerate(energies))
    out = cfg.out_dir / "butterfly.csv"
    write_csv(out, ("sweep_value", "index", "energy"), rows)
    return out


def cmd_spectrum(cfg: RunConfig) -> Path:
    """Diagonalize, box-count, and report tau_q / D_q with fit diagnostics."""
    if cfg.system == "synthetic-uniform":
        values = np.linspace(0.0, 1.0, cfg.length)
    else:
        values = eigensolve(_hamiltonian(cfg))
    spectrum = tau_spectrum(values, q_grid=cfg.q_grid, scale_grid=cfg.scale_grid)
    q = spectrum.q_grid
    rows = zip(q, spectrum.tau, spectrum.dq, spectrum.fit_r2)
    csv_path = cfg.out_dir / "tau.csv"
    write_csv(csv_path, ("q", "tau", "d_q", "r2"), rows)

    report = {
        "config": _config_echo(cfg),
        "results": {
            "n_values": int(values.size),
            "d2": None if np.isnan(spectrum.d2) else spectrum.d2,
            "mu": float(spectrum.mu),
            "scale_grid": spectrum.scale_grid.tolist(),
            "q_grid": q.tolist(),
            "tau": spectrum.tau.tolist(),
            "d_q": [None if np.isnan(v) else float(v) for v in spectrum.dq],
            "fit_r2": spectrum.fit_r2.tolist(),
            "fit_windows": [list(w) for w in spectrum.fit_windows],
            "skipped_q": list(spectrum.skipped_q),
        },
    }
    write_json(cfg.out_dir / "spectrum_report.json", report)
    return csv_path


def cmd_eigenstates(cfg: RunConfig) -> Path:
    """Analyze the full eigenbasis: PR, D_bar_2, D_bar_5, mu_bar per state."""
    _, vectors = eigensolve(_hamiltonian(cfg), vectors=True)
    weights = np.abs(vectors) ** 2
    profiles = analyze_eigenvectors(weights, q_grid=cfg.q_grid, partition_grid=cfg.scale_grid)
    rows = [(idx, p.pr, p.d2, p.d5, p.mu_bar) for idx, p in enumerate(profiles)]
    csv_path = cfg.out_dir / "eigenstates.csv"
    write_csv(csv_path, ("index", "pr", "d2", "d5", "mu"), rows)

    stats = ensemble_statistics(profiles, n_bins=cfg.bins)
    report = {
        "config": _config_echo(cfg),
        "partition_grid": profiles[0].partition_grid.tolist(),
        "statistics": stats,
    }
    write_json(cfg.out_dir / "eigenstates_report.json", report)
    return csv_path


def cmd_floquet_compare(cfg: RunConfig) -> Path:
    """Effective-vs-exact quasienergy error along a ladder of kick strengths."""
    errors = [effective_vs_floquet_error(alpha, cfg.eta, cfg.j, cfg.period) for alpha in cfg.alpha_ladder]
    ratios = [errors[i] / errors[i + 1] if errors[i + 1] > 0 else None for i in range(len(errors) - 1)]
    report = {
        "config": {"command": cfg.command, "j": cfg.j, "eta": cfg.eta, "period": cfg.period,
                   "alpha_ladder": list(cfg.alpha_ladder)},
        "results": {"errors": errors, "decay_ratios": ratios},
    }
    out = cfg.out_dir / "floquet_compare.json"
    write_json(out, report)
    return out


def cmd_harper_diff(cfg: RunConfig) -> Path:
    """Bond-by-bond diff between the closed-form and generic effective chains."""
    params = HarperParams(length=cfg.length, sigma=cfg.sigma, alpha=cfg.alpha, period=cfg.period)
    diff = heff_discrepancy_report(params)
    report = {
        "config": {"command": cfg.command, "length": cfg.length, "sigma": cfg.sigma,
                   "alpha": cfg.alpha, "period": cfg.period},
        "results": {
            "max_norm": diff.max_norm,
            "max_diagonal_difference": float(np.max(np.abs(diff.diagonal_difference))),
            "bonds_closed_form": diff.bonds_closed_form.tolist(),
            "bonds_general": diff.bonds_general.tolist(),
            "bond_difference": diff.bond_difference.tolist(),
        },
    }
    out = cfg.out_dir / "harper_diff.json"
    write_json(out, report)
    return out


_COMMANDS = {
    "butterfly": cmd_butterfly,
    "spectrum": cmd_spectrum,
    "eigenstates": cmd_eigenstates,
    "floquet-compare": cmd_floquet_compare,
    "harper-diff": cmd_harper_diff,
}


def main(argv=None) -> int:
    try:
        cfg = parse_config(sys.argv[1:] if argv is None else list(argv))
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_CONFIG

    try:
        cfg.out_dir.mkdir(parents=True, exist_ok=True)
        out = _COMMANDS[cfg.command](cfg)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_CONFIG
    except (np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return _EXIT_NUMERICAL
    except ValueError as exc:
        # domain errors from parameter validation count as configuration errors
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_CONFIG
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
