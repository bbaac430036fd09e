"""Command-line surface: butterfly sweeps, spectrum and eigenstate analysis,
Floquet comparison, and the Harper closed-form/general diff.

Each option is declared once, in OPTIONS, with the converter that turns its
text into the final value and applies every library rule on that value
alone (the spin of ``--j``, the chain ``--length``, the kick ``--period``,
the ``--q-grid`` orders, each ``--alpha-ladder`` rung).  argparse applies
it, and a bad value exits 2 with one ``error:`` line that names the flag,
as do argparse's own errors (a missing value, an unknown flag).  Flags are
written in full; a value that starts with ``-`` and a digit or ``.``
(``--eta -1e-3``) is the flag's.  One ``--config`` file's ``key = value``
lines, keyed by the command's flags, are read as flags ahead of the
command line, so a flag overrides the file.  `parse_config` then applies
only the rules that span flags, on one path for every command: `_READS`
gives the parameters a run reads, by its ``--system`` or, for
floquet-compare and harper-diff, by its command; a flag for any other is
refused, and a parameter read but not given is required or takes its
default.  So parsing alone decides exit 2 for an input, but for finite
inputs whose operator products overflow, which `_built` refuses at the
build, and for a size whose arrays cannot be allocated.  Exit 3 is a
numerical failure; any other exception is a bug and keeps its traceback.

All pipelines are deterministic and emit flat CSV (17 significant digits,
LF, header row) or JSON with a config echo, so every number in a report can
be traced back to its inputs.
"""

import argparse
import json
import os
import re
import sys
from dataclasses import dataclass, field, fields, replace
from functools import partial
from pathlib import Path

import numpy as np

from . import GOLDEN_RATIO
from .effective import check_coupling, check_period
from .floquet import dkt_effective_hamiltonian, effective_vs_floquet_errors, fold_phases
from .harper import CLOSED_FORM, GENERAL, HarperParams, check_length, harper_hamiltonian, heff_discrepancy_report, kicked_harper_effective
from .multifractal import _counts, _q_values, analyze_eigenvectors, ensemble_statistics, tau_spectrum
from .operators import Banded, eigensolve, require_hermitian
from .su2 import FAMILY_CASES, SpinLabel, check_phase_spin, general_su2_hamiltonian, phase_diagonal

SYSTEMS = ("dkt",) + tuple(f"su2-{c}" for c in FAMILY_CASES) + ("harper-static", "harper-kicked")
MAX_SWEEP_POINTS = 100_000  # each point is one eigensolve
MAX_BINS = 2**20  # histogram and box-counting bins; np.histogram allocates every edge up front

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


def _integer(text: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise ConfigError(f"expected an integer, got {text!r}") from exc


def _list(item):
    """Converter of a comma-separated list of `item`s; empty entries are skipped."""
    return lambda text: tuple(item(tok) for tok in text.split(",") if tok.strip())


def _ruled(convert, rule):
    """`convert`, then `rule(value)`, a library rule that raises unless the value is valid."""
    def ruled(text):
        value = convert(text)
        rule(value)
        return value
    return ruled


def _checked(convert, accept, message: str):
    """`convert`, then a ConfigError with `message` (formatted with the value) unless `accept`."""
    def rule(value):
        if not accept(value):
            raise ConfigError(message.format(value))
    return _ruled(convert, rule)


_PATH = _checked(Path, lambda p: "\0" not in str(p), "embedded null byte")

# flag -> (converter of its text, help).  A converter applies each rule on a value
# that its flag alone gives; alpha and eta, which a spelling through j can give
# too, meet theirs in `_spelled`.
OPTIONS = {
    "system": (_checked(str, lambda s: s in SYSTEMS, f"unknown system {{!r}}; expected one of {', '.join(SYSTEMS)}"),
               f"one of {', '.join(SYSTEMS)}"),
    "j": (_ruled(parse_scalar, check_phase_spin), "spin quantum number"),
    "length": (_ruled(_integer, check_length), "Harper chain length"),
    "alpha": (parse_scalar, "coupling alpha"),
    "alpha-over": (parse_scalar, "set alpha = value/j"),
    "eta": (parse_scalar, "phase parameter eta"),
    "eta-over-j": (parse_scalar, "set eta = value*j ('golden' accepted)"),
    "xi": (parse_scalar, "set eta = value*pi*j"),
    "sigma": (parse_scalar, "Harper modulation ('golden' accepted)"),
    "period": (_ruled(parse_scalar, check_period), "kick period T"),
    "epsilon": (parse_scalar, "family case 'e' coupling ratio"),
    "xi-sweep": (parse_sweep, "xi sweep start:stop:step"),
    "sigma-sweep": (parse_sweep, "sigma sweep start:stop:step"),
    "harper-mode": (_checked(str, lambda m: m in (CLOSED_FORM, GENERAL),
                             f"harper-mode must be {CLOSED_FORM} or {GENERAL}, got {{!r}}"), "closed-form or general"),
    "q-grid": (_ruled(_list(parse_scalar), _q_values), "comma-separated moment orders"),
    "scale-grid": (_list(_integer), "comma-separated bin or partition counts"),
    "bins": (_checked(_integer, lambda n: 1 <= n <= MAX_BINS, f"bins must be between 1 and {MAX_BINS}, got {{}}"),
             "histogram bin count, at most the number of states"),
    "alpha-ladder": (_checked(_list(_ruled(parse_scalar, check_coupling)), lambda a: len(a) >= 3,
                              "alpha ladder needs at least 3 values"), "comma-separated alpha values, largest first"),
    "out-dir": (_PATH, "output directory for emitted files"),
    "config": (_PATH, "flat key = value file whose keys are this command's flags; flags override it"),
}
_SYSTEM_OPTIONS = ("system", "j", "length", "alpha", "alpha-over", "eta", "eta-over-j", "xi", "sigma", "period",
                   "epsilon")
COMMAND_OPTIONS = {command: (*names, "out-dir") for command, names in {
    "butterfly": (*_SYSTEM_OPTIONS, "xi-sweep", "sigma-sweep", "harper-mode"),
    "spectrum": (*_SYSTEM_OPTIONS, "q-grid", "scale-grid", "harper-mode"),
    "eigenstates": (*_SYSTEM_OPTIONS, "q-grid", "scale-grid", "bins", "harper-mode"),
    "floquet-compare": ("j", "eta", "eta-over-j", "xi", "alpha-ladder"),
    "harper-diff": ("length", "sigma", "alpha", "period"),
}.items()}


def read_config_file(path: str) -> dict:
    """Flat key = value file; '#' starts a comment; keys are flag names."""
    entries = {}
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except (OSError, UnicodeDecodeError) as exc:
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


def _config_flags(path: str, command: str) -> list:
    """The entries of a config file as `command` flags."""
    entries = read_config_file(path)
    unknown = sorted(set(entries) - set(COMMAND_OPTIONS[command]))
    if unknown:
        raise ConfigError(f"unknown config keys for {command}: {', '.join(unknown)}")
    return [f"--{key}={value}" for key, value in entries.items()]


@dataclass
class RunConfig:
    command: str
    system: str | None = None
    j: float | None = None
    length: int | None = 2001
    alpha: float | None = None
    eta: float | None = None
    sigma: float | None = None
    period: float = 1.0
    epsilon: float | None = None
    sweep: np.ndarray | None = None
    q_grid: tuple | None = None
    scale_grid: tuple | None = None
    harper_mode: str = CLOSED_FORM
    alpha_ladder: tuple | None = None
    bins: int = 50
    out_dir: Path = field(default_factory=lambda: Path("."))


def _flagged(flag: str, rule, *args):
    """`rule(*args)`, a converter or a library's own rule applied while parsing,
    its ConfigError or ValueError re-raised as a ConfigError naming the flag."""
    try:
        return rule(*args)
    except (ConfigError, ValueError) as exc:
        raise ConfigError(f"{flag}: {exc}") from exc


# a value that argparse would take for an option: '-' then a digit or '.'
_NEGATIVE_VALUE = re.compile(r"-[\d.]")
_VALUE_FLAGS = frozenset(f"--{name}" for name in OPTIONS)


def _attach_negative_values(argv: list) -> list:
    """Write ``--flag -1e-3`` as ``--flag=-1e-3``.

    argparse takes a token after a flag for an option unless it looks like
    ``-N`` or ``-N.N``, and the exact rule depends on the Python version.
    """
    joined = []
    for token in argv:
        if joined and joined[-1] in _VALUE_FLAGS and _NEGATIVE_VALUE.match(token):
            joined[-1] = f"{joined[-1]}={token}"
        else:
            joined.append(token)
    return joined


class _Parser(argparse.ArgumentParser):
    """argparse's own errors (a flag without its value, an unknown flag)
    raise ConfigError, so they print one ``error:`` line like every other
    configuration error; subparsers are built from this class too."""

    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="kickedspec",
                     description="Effective Hamiltonians of kicked systems and multifractal spectral analysis")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, names in COMMAND_OPTIONS.items():
        # an option not given stays out of the namespace, so RunConfig supplies
        # its default; a flag is written in full, so a negative value after an
        # abbreviation cannot be taken for an option
        p = sub.add_parser(command, argument_default=argparse.SUPPRESS, allow_abbrev=False)
        for name in ("config", *names):
            convert, help_text = OPTIONS[name]
            p.add_argument(f"--{name}", type=partial(_flagged, f"--{name}", convert), help=help_text, metavar="V",
                           action="append" if name == "config" else "store")
    return parser


# flag -> (the parameter it sets, that parameter from the flag's value and j), where the flag is not named after it
_SPELLINGS = {"alpha_over": ("alpha", lambda v, j: v / j), "eta_over_j": ("eta", lambda v, j: v * j),
              "xi": ("eta", lambda v, j: v * np.pi * j)}


def _spelled(values: dict, name: str, j: float | None, rule) -> float | None:
    """Parameter `name` from the one of its flags given, or None if none is;
    a `rule(value)` that fails (a spelling times j can overflow) names that flag."""
    given = [k for k in (name, *(k for k, (p, _) in _SPELLINGS.items() if p == name)) if k in values]
    if len(given) > 1:
        raise ConfigError(f"give only one of --{', --'.join(given).replace('_', '-')}")
    if not given:
        return None
    flag = f"--{given[0].replace('_', '-')}"
    value = values[name] if given[0] == name else _flagged(flag, _SPELLINGS[given[0]][1], values[given[0]], j)
    _flagged(flag, rule, value)
    return value


# system -> the parameters its Hamiltonian reads, harper-kicked once per --harper-mode;
# floquet-compare and harper-diff, which take no --system, by their command
_SPIN = ("j", "alpha", "eta")
_READS = {"dkt": _SPIN,
          **{f"su2-{c}": (*_SPIN, "epsilon") if c == "e" else _SPIN for c in FAMILY_CASES},
          "harper-static": ("length", "sigma"),
          f"harper-kicked --harper-mode {CLOSED_FORM}": ("length", "sigma", "harper_mode"),
          f"harper-kicked --harper-mode {GENERAL}": ("length", "sigma", "harper_mode", "alpha", "period"),
          "floquet-compare": ("j", "eta", "alpha_ladder"),
          "harper-diff": ("length", "sigma", "alpha", "period")}
_PARAMETERS = {name for reads in _READS.values() for name in reads}


def _check_out_dir(path: Path) -> None:
    """ConfigError unless `path` is, or can be made as, a directory that the
    run can write in.  Nothing is created: the directory is made when the
    first file is written, after the solve."""
    existing = path
    while not existing.exists():
        existing = existing.parent
    if not existing.is_dir():
        raise ConfigError(f"--out-dir: {existing} is not a directory")
    if not os.access(existing, os.W_OK | os.X_OK):
        raise ConfigError(f"--out-dir: cannot write in {existing}")


def parse_config(argv) -> RunConfig:
    """Parse CLI flags, after the entries of any --config file, into a validated RunConfig."""
    argv = _attach_negative_values(list(argv))
    parser = build_parser()
    values = vars(parser.parse_args(argv))
    command = values["command"]
    if "config" in values:
        if len(values["config"]) > 1:  # one file is read: a second would go unread
            raise ConfigError(f"--config: give one config file, got {len(values['config'])}")
        at = argv.index(command) + 1
        values = vars(parser.parse_args(argv[:at] + _config_flags(values["config"][0], command) + argv[at:]))
    known = {f.name for f in fields(RunConfig)}
    cfg = RunConfig(**{k: v for k, v in values.items() if k in known})
    _check_out_dir(cfg.out_dir)

    if command in _READS:
        row = command
    elif cfg.system is None:
        raise ConfigError(f"{command} requires --system ({', '.join(SYSTEMS)})")
    else:
        row = f"{cfg.system} --harper-mode {cfg.harper_mode}" if cfg.system == "harper-kicked" else cfg.system
    reads = set(_READS[row])
    if command == "butterfly":
        sweeps = [k for k in ("xi_sweep", "sigma_sweep") if k in values]
        if len(sweeps) != 1:
            raise ConfigError("butterfly requires exactly one of --xi-sweep, --sigma-sweep")
        axis, other = ("sigma", "xi") if "sigma" in reads else ("xi", "sigma")
        if sweeps[0] != f"{axis}_sweep":
            raise ConfigError(f"system {cfg.system} sweeps {axis}, not {other}")
        if axis == "xi" and any(k in values for k in ("eta", "eta_over_j", "xi")):
            raise ConfigError("give either a fixed eta/xi or a sweep, not both")
        if axis == "sigma" and cfg.sigma is not None:
            raise ConfigError("give either a fixed sigma or a sweep, not both")
        cfg.sweep = values[sweeps[0]]

    for key in values:
        needs = {_SPELLINGS[key][0], "j"} if key in _SPELLINGS else {key}  # a spelling reads j too
        if needs <= _PARAMETERS and not needs <= reads:
            readers = ", ".join(name for name, names in _READS.items() if needs <= set(names))
            raise ConfigError(f"--{key.replace('_', '-')}: {row} does not read it (read by {readers})")
    for name in _PARAMETERS - reads:
        setattr(cfg, name, None)

    if "sigma" in reads and command != "butterfly" and cfg.sigma is None:
        raise ConfigError(f"{command} requires --sigma")
    if "j" in reads:
        if cfg.j is None:
            raise ConfigError(f"{row} requires --j")
        cfg.eta = _spelled(values, "eta", cfg.j, partial(phase_diagonal, cfg.j))
        if command == "butterfly":  # the phases grow with |xi|, largest at an end of the sweep
            for xi in (cfg.sweep[0], cfg.sweep[-1]):
                _flagged("--xi-sweep", phase_diagonal, cfg.j, _SPELLINGS["xi"][1](float(xi), cfg.j))
        elif cfg.eta is None:
            raise ConfigError(f"{command} requires --eta (or --eta-over-j, --xi)")
    if "epsilon" in reads and cfg.epsilon is None:
        raise ConfigError(f"system {row} requires --epsilon (coupling ratio b = epsilon*alpha)")
    if "alpha_ladder" in reads and cfg.alpha_ladder is None:
        raise ConfigError(f"{command} requires --alpha-ladder")
    if "alpha" in reads:
        cfg.alpha = _spelled(values, "alpha", cfg.j, check_coupling)
        if cfg.alpha is None:
            cfg.alpha = 1.0 / cfg.j if cfg.j else 1.0  # 1/j on a spin (the butterfly sweep's), 1 on a chain

    # a given count grid meets the analysis's own rules here, before any solve or output directory
    if cfg.scale_grid is not None and command == "spectrum":
        _flagged("--scale-grid", _counts, cfg.scale_grid, 4)
        if max(cfg.scale_grid) > MAX_BINS:
            raise ConfigError(f"--scale-grid: bin counts must not exceed {MAX_BINS}, got {max(cfg.scale_grid)}")
    if command == "eigenstates":
        states = cfg.length or SpinLabel(cfg.j).dim
        if cfg.scale_grid is not None:
            _flagged("--scale-grid", _counts, cfg.scale_grid, 1, states)
        # more bins than states add only empty bins; the default stays as it is
        if "bins" in values and cfg.bins > states:
            raise ConfigError(f"--bins: bins must not exceed the number of states {states}, got {cfg.bins}")
    return cfg


# ---------------------------------------------------------------------------
# Hamiltonian builder
# ---------------------------------------------------------------------------

def _built(build, *args):
    """`build(*args)`; finite inputs whose products overflow fail its contract
    with a ValueError, re-raised as a ConfigError (a LinAlgError is not)."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # the contract reports an overflow
            return build(*args)
    except np.linalg.LinAlgError:
        raise
    except ValueError as exc:
        raise ConfigError(exc) from exc


def _hamiltonian(cfg: RunConfig) -> Banded:
    """The configured system's Hamiltonian, from the parameters it reads; each
    butterfly point is `cmd_butterfly`'s copy of the config with its sweep value set."""
    if cfg.system.startswith("harper"):
        read = {name: getattr(cfg, name) for name in ("alpha", "period") if getattr(cfg, name) is not None}
        params = HarperParams(length=cfg.length, sigma=cfg.sigma, **read)  # HarperParams' defaults for the rest
        if cfg.system == "harper-static":
            return harper_hamiltonian(params)
        return _built(kicked_harper_effective, params, cfg.harper_mode)
    if cfg.system == "dkt":
        return _built(dkt_effective_hamiltonian, cfg.alpha, cfg.eta, cfg.j)
    case = cfg.system.split("-", 1)[1]
    return _built(lambda: require_hermitian(general_su2_hamiltonian(case, cfg.alpha, cfg.eta, cfg.j, cfg.epsilon)))


# ---------------------------------------------------------------------------
# Emission helpers
# ---------------------------------------------------------------------------

def _create(path: Path):
    """`path` opened for writing, its directory made first: a run that writes
    no file leaves no directory behind."""
    path.parent.mkdir(parents=True, exist_ok=True)
    return open(path, "w", encoding="utf-8", newline="\n")


def write_csv(path: Path, columns: dict, rows) -> None:
    """A header of the names in `columns`, then each row in their %-formats:
    ``%.17g`` writes a float as ``format(float(v), ".17g")`` does, nan and
    -0.0 included."""
    row_format = ",".join(columns.values()) + "\n"
    with _create(path) as fh:
        fh.write(",".join(columns) + "\n")
        fh.writelines(row_format % row for row in rows)


def write_json(path: Path, payload: dict) -> None:
    with _create(path) as fh:
        json.dump(payload, fh, indent=2, allow_nan=False)
        fh.write("\n")


def _config_echo(cfg: RunConfig) -> dict:
    """The run's inputs in RunConfig's order; a parameter the system does not read is None, and left out."""
    return {name: value for name, value in vars(cfg).items()
            if value is not None and name not in ("bins", "out_dir")}


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_butterfly(cfg: RunConfig) -> Path:
    """Sweep xi (SU(2) family) or sigma (Harper) and emit one spectrum per point."""
    rows = []
    for value in cfg.sweep.tolist():
        swept = {"sigma": value} if cfg.system.startswith("harper") else {"eta": _SPELLINGS["xi"][1](value, cfg.j)}
        energies = eigensolve(_hamiltonian(replace(cfg, **swept)))
        if cfg.system == "dkt":
            energies = np.sort(fold_phases(energies))
        rows.extend((value, idx, energy) for idx, energy in enumerate(energies.tolist()))
    out = cfg.out_dir / "butterfly.csv"
    write_csv(out, {"sweep_value": "%.17g", "index": "%d", "energy": "%.17g"}, rows)
    return out


def cmd_spectrum(cfg: RunConfig) -> Path:
    """Diagonalize, box-count, and report tau_q / D_q with fit diagnostics."""
    values = eigensolve(_hamiltonian(cfg))
    spectrum = tau_spectrum(values, q_grid=cfg.q_grid, scale_grid=cfg.scale_grid)
    q = spectrum.q_grid
    rows = zip(q, spectrum.tau, spectrum.dq, spectrum.fit_r2)
    csv_path = cfg.out_dir / "tau.csv"
    write_csv(csv_path, dict.fromkeys(("q", "tau", "d_q", "r2"), "%.17g"), rows)

    report = {
        "config": _config_echo(cfg),
        "results": {
            "n_values": int(values.size),
            "d2": None if np.isnan(spectrum.d2) else spectrum.d2,
            "mu": None if np.isnan(spectrum.mu) else float(spectrum.mu),
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


def _squared_moduli(vectors: np.ndarray) -> np.ndarray:
    """|v|^2 elementwise: in the buffer of real vectors, which it overwrites
    (x*x is |x|*|x| bit for bit), and in one real array for complex ones."""
    weights = np.abs(vectors) if np.iscomplexobj(vectors) else vectors
    return np.square(weights, out=weights)


def cmd_eigenstates(cfg: RunConfig) -> Path:
    """Analyze the full eigenbasis: PR, D_bar_2, D_bar_5, mu_bar per state."""
    weights = _squared_moduli(eigensolve(_hamiltonian(cfg), vectors=True)[1])
    table = analyze_eigenvectors(weights, q_grid=cfg.q_grid, partition_grid=cfg.scale_grid)
    report = {
        "config": _config_echo(cfg),
        "partition_grid": table.partition_grid.tolist(),
        "statistics": ensemble_statistics(table, n_bins=cfg.bins),
    }
    columns = (table.pr.tolist(), table.d2.tolist(), table.d5.tolist(), table.mu_bar.tolist())
    csv_path = cfg.out_dir / "eigenstates.csv"
    write_csv(csv_path, {"index": "%d", **dict.fromkeys(("pr", "d2", "d5", "mu"), "%.17g")},
              zip(range(len(table)), *columns))
    write_json(cfg.out_dir / "eigenstates_report.json", report)
    return csv_path


def cmd_floquet_compare(cfg: RunConfig) -> Path:
    """Effective-vs-exact quasienergy error along a ladder of kick strengths."""
    errors = _built(effective_vs_floquet_errors, cfg.alpha_ladder, cfg.eta, cfg.j)
    ratios = [errors[i] / errors[i + 1] if errors[i + 1] > 0 else None for i in range(len(errors) - 1)]
    report = {
        "config": _config_echo(cfg),
        "results": {"errors": errors, "decay_ratios": ratios},
    }
    out = cfg.out_dir / "floquet_compare.json"
    write_json(out, report)
    return out


def cmd_harper_diff(cfg: RunConfig) -> Path:
    """Bond-by-bond diff between the closed-form and generic effective chains."""
    params = HarperParams(length=cfg.length, sigma=cfg.sigma, alpha=cfg.alpha, period=cfg.period)
    diff = _built(heff_discrepancy_report, params)
    report = {
        "config": _config_echo(cfg),
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
        out = _COMMANDS[cfg.command](cfg)
    except (ConfigError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_CONFIG
    except (np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return _EXIT_NUMERICAL
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
