"""Layer tracer for the benchmark's traced runs.

The tracer wraps the public functions of each kickedspec layer, plus the
numpy.linalg and scipy.linalg eigensolvers, and rebinds every wrapper in
each module namespace that holds the original.  Each call becomes a span
(layer, function, start, end, parent) kept in memory; per-layer self time is
a span's duration minus its direct children's.  Nothing in kickedspec is
edited: `uninstall()` puts every original object back.

One thread and no I/O contention: no layer queues or waits, so no waiting
time is reported.
"""

import functools
import importlib
import os
import sys
import time
from dataclasses import dataclass, field

# layer -> (module, public functions).  A name that no longer exists makes the
# traced run fail, so that no layer's time goes unnoticed into its caller's.
LAYERS = {
    "cli": [("kickedspec.cli", ("parse_config", "write_csv", "write_json"))],
    "su2": [("kickedspec.su2", ("spin_operators", "hopping_operator", "phase_operator",
                                "general_su2_hamiltonian", "dkt_static_part"))],
    # The floquet module's DKT helpers assemble H_eff for the spectrum and
    # butterfly commands; they count as the H_eff build, not as the Floquet path.
    "effective": [("kickedspec.effective", ("heff_delta_kicked", "commutator", "heff_general")),
                  ("kickedspec.floquet", ("dkt_kicked_system", "dkt_effective_hamiltonian"))],
    "harper": [("kickedspec.harper", ("harper_hamiltonian", "closed_form_correction",
                                      "kicked_harper_effective", "heff_discrepancy_report"))],
    "operators": [("kickedspec.operators", ("require_hermitian", "require_unitary"))],
    "linalg": [("numpy.linalg", ("eigh", "eigvalsh", "eig", "eigvals")),
               ("scipy.linalg", ("eigh", "eigvalsh", "eigvals", "eigvalsh_tridiagonal",
                                 "eigh_tridiagonal", "eigvals_banded", "eig_banded"))],
    "floquet": [("kickedspec.floquet", ("dkt_floquet", "unitary_from_hermitian", "quasienergy_spectrum",
                                        "effective_vs_floquet_error", "fold_phases"))],
    "multifractal": [("kickedspec.multifractal", ("tau_spectrum", "analyze_eigenvectors",
                                                  "ensemble_statistics"))],
}

MIB = 1024.0 * 1024.0


def _nbytes(value) -> int:
    return int(getattr(value, "nbytes", 0) or 0)


def _dim(value) -> int:
    shape = getattr(value, "shape", ())
    return int(shape[-1]) if shape else 0


def _count_output(counts, args, kwargs, result):
    path = args[0] if args else kwargs.get("path")
    counts["output_bytes"] = counts.get("output_bytes", 0) + os.path.getsize(path)


def _count_checked(counts, args, kwargs, result):
    mat = args[0] if args else kwargs.get("mat")
    counts["checked_bytes"] = counts.get("checked_bytes", 0) + _nbytes(mat)


def _count_solver(counts, args, kwargs, result):
    arrays = [a for a in (*args, *kwargs.values()) if hasattr(a, "nbytes")]
    counts["in_bytes"] = counts.get("in_bytes", 0) + sum(_nbytes(a) for a in arrays)
    if arrays:
        counts["dim_max"] = max(counts.get("dim_max", 0), _dim(arrays[0]))


def _count_scales(counts, args, kwargs, result):
    grid = getattr(result, "scale_grid", None)
    counts["scales"] = counts.get("scales", 0) + (len(grid) if grid is not None else 0)


def _count_states(counts, args, kwargs, result):
    counts["states"] = counts.get("states", 0) + len(result)
    if len(result):
        counts["scales"] = counts.get("scales", 0) + len(result[0].partition_grid)


# Work counts recorded at the boundary of each layer, per layer and function.
COUNTERS = {
    ("cli", "write_csv"): _count_output,
    ("cli", "write_json"): _count_output,
    ("operators", "require_hermitian"): _count_checked,
    ("operators", "require_unitary"): _count_checked,
    ("multifractal", "tau_spectrum"): _count_scales,
    ("multifractal", "analyze_eigenvectors"): _count_states,
}


@dataclass
class Span:
    layer: str
    function: str
    start: float
    parent: int  # index of the enclosing span, -1 at top level
    end: float = 0.0
    child_time: float = 0.0
    failed: bool = False


@dataclass
class Tracer:
    spans: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)  # layer -> {counter: value}
    _stack: list = field(default_factory=list)
    _patches: list = field(default_factory=list)  # (module, attribute, original)

    def _wrap(self, layer: str, name: str, original):
        counter = _count_solver if layer == "linalg" else COUNTERS.get((layer, name))
        spans, stack, counts = self.spans, self._stack, self.counts.setdefault(layer, {})

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = Span(layer, name, 0.0, stack[-1] if stack else -1)
            spans.append(span)
            stack.append(len(spans) - 1)
            span.start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if span.parent >= 0:
                    spans[span.parent].child_time += span.end - span.start
            if counter is not None:
                counter(counts, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every layer function and rebind it wherever kickedspec holds it."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        for layer, sources in LAYERS.items():
            for module_name, names in sources:
                module = importlib.import_module(module_name)
                for name in names:
                    original = getattr(module, name)
                    wrapper = self._wrap(layer, name, original)
                    for holder in [module, *self._kickedspec_modules()]:
                        for attr, value in list(vars(holder).items()):
                            if value is original:
                                self._patches.append((holder, attr, original))
                                setattr(holder, attr, wrapper)

    @staticmethod
    def _kickedspec_modules():
        return [m for n, m in list(sys.modules.items())
                if m is not None and (n == "kickedspec" or n.startswith("kickedspec."))]

    def uninstall(self) -> None:
        """Put every original function object back, in reverse order."""
        while self._patches:
            holder, attr, original = self._patches.pop()
            setattr(holder, attr, original)

    def summary(self, wall_s: float) -> dict:
        """Per-layer metrics for one traced call of `wall_s` seconds."""
        self_time = {layer: 0.0 for layer in LAYERS}
        calls = {layer: 0 for layer in LAYERS}
        by_function = {}
        for span in self.spans:
            own = (span.end - span.start) - span.child_time
            self_time[span.layer] += own
            calls[span.layer] += 1
            entry = by_function.setdefault(f"{span.layer}.{span.function}", [0, 0.0])
            entry[0] += 1
            entry[1] += own
        cli_parse = by_function.get("cli.parse_config", [0, 0.0])[1]

        def count(layer, key):
            return self.counts.get(layer, {}).get(key, 0)

        metrics = {
            "cli.parse_s": cli_parse,
            "cli.output_s": self_time["cli"] - cli_parse,
            "cli.output_bytes": count("cli", "output_bytes"),
            "operators.checked_mb": count("operators", "checked_bytes") / MIB,
            "linalg.in_mb": count("linalg", "in_bytes") / MIB,
            "linalg.dim_max": count("linalg", "dim_max"),
            "linalg.failures": sum(span.failed for span in self.spans if span.layer == "linalg"),
            "multifractal.scales": count("multifractal", "scales"),
            "multifractal.states": count("multifractal", "states"),
            "trace.coverage": sum(self_time.values()) / wall_s if wall_s > 0 else 0.0,
        }
        for layer in LAYERS:
            if layer != "cli":
                metrics[f"{layer}.s"] = self_time[layer]
                metrics[f"{layer}.calls"] = calls[layer]
        return {"metrics": metrics,
                "functions": {k: {"calls": n, "self_s": s} for k, (n, s) in sorted(by_function.items())}}
