"""The three benchmark workloads: argv generated from a seed, the outputs each
one is checked on, and the tolerances of that check.

Seed 0 is the canonical README/paper configuration.  Any other seed picks the
quasiperiodic modulation (eta/j, sigma, Floquet eta/j) from a short list of
badly approximable quadratic irrationals.  Matrix sizes never depend on the seed.
Small offsets from golden are avoided on purpose: 21/34 lies within 1e-3 of
it, which would make the spectrum near-rational.
"""

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# (name, value) pairs; every seed maps onto one of these configurations.
MODULATIONS = (
    ("golden", (math.sqrt(5.0) - 1.0) / 2.0),
    ("silver", math.sqrt(2.0) - 1.0),
    ("bronze", (math.sqrt(13.0) - 3.0) / 2.0),
)

# "Same behaviour" tolerances: eigenvalues and energies to 1e-12 relative to
# the spectral scale, D_q, tau_q, mu and PR to 1e-10.
ENERGY_RTOL = 1e-12
DIMENSION_TOL = 1e-10

QUASIENERGY_SCALE = math.pi  # folded energies live in (-pi, pi]


def config_index(seed: int) -> int:
    """Index of the configuration a seed selects; seed 0 gives index 0."""
    return seed % len(MODULATIONS)


def _number(value: float) -> str:
    return repr(float(value))


def _close(got: float, ref: float, tol: float) -> bool:
    return abs(got - ref) <= tol * max(1.0, abs(ref))


def _compare_list(label: str, got, ref, abs_tol) -> list:
    """Elementwise |got - ref| <= abs_tol (a number or one bound per entry)."""
    if len(got) != len(ref):
        return [f"{label}: {len(got)} values, reference has {len(ref)}"]
    bounds = abs_tol if isinstance(abs_tol, list) else [abs_tol] * len(ref)
    for idx, (g, r, b) in enumerate(zip(got, ref, bounds)):
        if not abs(g - r) <= b:
            return [f"{label}[{idx}]: {g!r} differs from reference {r!r} by more than {b:.3g}"]
    return []


# ---------------------------------------------------------------------------
# dkt-spectrum
# ---------------------------------------------------------------------------

def _spectrum_argv(seed: int, size: int) -> list:
    _, eta_over_j = MODULATIONS[config_index(seed)]
    return ["spectrum", "--system", "dkt", "--j", str(size), "--alpha-over", "1",
            "--eta-over-j", _number(eta_over_j)]


def _spectrum_extract(out_dir: Path) -> dict:
    results = json.loads((out_dir / "spectrum_report.json").read_text())["results"]
    return {"d2": results["d2"], "mu": results["mu"], "tau": results["tau"]}


def _spectrum_check(got: dict, ref: dict) -> list:
    problems = []
    for key in ("d2", "mu"):
        if got[key] is None or not _close(got[key], ref[key], DIMENSION_TOL):
            problems.append(f"{key}: {got[key]!r} != reference {ref[key]!r}")
    tol = [DIMENSION_TOL * max(1.0, abs(r)) for r in ref["tau"]]
    return problems + _compare_list("tau", got["tau"], ref["tau"], tol)


# ---------------------------------------------------------------------------
# harper-eigenstates
# ---------------------------------------------------------------------------

def _eigenstates_argv(seed: int, size: int) -> list:
    _, sigma = MODULATIONS[config_index(seed)]
    return ["eigenstates", "--system", "harper-kicked", "--length", str(size), "--sigma", _number(sigma)]


def _eigenstates_extract(out_dir: Path) -> dict:
    stats = json.loads((out_dir / "eigenstates_report.json").read_text())["statistics"]
    summary = {"count": stats["count"]}
    for key in ("pr", "d2", "d5", "mu"):
        summary[f"{key}_mean"] = stats[key]["mean"]
        for threshold, fraction in stats[key]["fraction_below"].items():
            summary[f"{key}_below_{threshold}"] = fraction
    return summary


def _eigenstates_check(got: dict, ref: dict) -> list:
    if set(got) != set(ref):
        return [f"report fields {sorted(got)} differ from reference {sorted(ref)}"]
    if got["count"] != ref["count"]:
        return [f"count: {got['count']} != reference {ref['count']}"]
    return [f"{key}: {got[key]!r} != reference {ref[key]!r}"
            for key in sorted(ref) if key != "count" and not _close(got[key], ref[key], DIMENSION_TOL)]


# ---------------------------------------------------------------------------
# floquet-ladder
# ---------------------------------------------------------------------------

FLOQUET_LADDER = "0.04,0.02,0.01,0.005,0.0025,0.00125"


def _floquet_argv(seed: int, size: int) -> list:
    _, eta_over_j = MODULATIONS[config_index(seed)]
    return ["floquet-compare", "--j", str(size), "--eta-over-j", _number(eta_over_j),
            "--alpha-ladder", FLOQUET_LADDER]


def _floquet_extract(out_dir: Path) -> dict:
    results = json.loads((out_dir / "floquet_compare.json").read_text())["results"]
    return {"errors": results["errors"], "decay_ratios": results["decay_ratios"]}


def _floquet_check(got: dict, ref: dict) -> list:
    """Errors are quasienergy gaps, held to the energy tolerance; each decay
    ratio e[i]/e[i+1] is held to the precision its two errors allow."""
    tol = ENERGY_RTOL * QUASIENERGY_SCALE
    problems = _compare_list("errors", got["errors"], ref["errors"], tol)
    errs, ratios = ref["errors"], ref["decay_ratios"]
    if None in ratios or len(ratios) != len(errs) - 1:
        return problems + ["reference decay ratios are undefined"]
    ratio_tol = [r * (tol / errs[i] + tol / errs[i + 1]) for i, r in enumerate(ratios)]
    if None in got["decay_ratios"]:
        return problems + ["decay ratio undefined"]
    return problems + _compare_list("decay_ratios", got["decay_ratios"], ratios, ratio_tol)


# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    size: int  # j for the SU(2) workloads, chain length for Harper
    argv_for: Callable[[int, int], list]
    extract: Callable[[Path], dict]
    check: Callable[[dict, dict], list]

    def argv(self, seed: int, size: int | None = None) -> list:
        """CLI argv (without --out-dir) for a seed, at the benchmark size by default."""
        return self.argv_for(seed, self.size if size is None else size)


WORKLOADS = {w.name: w for w in (
    Workload("dkt-spectrum", 1000, _spectrum_argv, _spectrum_extract, _spectrum_check),
    Workload("harper-eigenstates", 2001, _eigenstates_argv, _eigenstates_extract, _eigenstates_check),
    Workload("floquet-ladder", 200, _floquet_argv, _floquet_extract, _floquet_check),
)}
