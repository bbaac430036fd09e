"""Self-tests of the benchmark harness, at tiny sizes (j=10, L=51).

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json
import statistics
import sys

import numpy as np
import pytest

import child
import run
import tracer
from workloads import MODULATIONS, WORKLOADS, config_index

COUNT_METRICS = ("cli.output_bytes", "operators.checked_mb", "linalg.in_mb", "linalg.dim_max",
                 "linalg.failures", "multifractal.scales", "multifractal.states",
                 *(f"{layer}.calls" for layer in tracer.LAYERS if layer != "cli"))


SMOKE_SIZES = {"dkt-spectrum": 10, "harper-eigenstates": 51, "floquet-ladder": 10}


def _smoke(name):
    """The workload at a tiny size, so that run_workload runs it cheaply."""
    return dataclasses.replace(WORKLOADS[name], size=SMOKE_SIZES[name])


def _tiny_reference(runner, workload, seed, tmp_path):
    assert runner.child("run", "0", *workload.argv(seed), "--out-dir", str(tmp_path))["rc"] == 0
    return workload.extract(tmp_path)


def test_seed_selects_modulation_but_never_size():
    assert config_index(0) == 0
    assert {config_index(s) for s in range(10)} == set(range(len(MODULATIONS)))
    for workload in WORKLOADS.values():
        assert workload.argv(0) == workload.argv(len(MODULATIONS))
        assert str(workload.size) in workload.argv(0)
        assert len({tuple(workload.argv(s)) for s in range(len(MODULATIONS))}) == len(MODULATIONS)


def test_canonical_seed_reproduces_readme_configuration():
    from kickedspec.cli import parse_config

    readme = {
        "dkt-spectrum": "spectrum --system dkt --j 1000 --alpha-over 1 --eta-over-j golden",
        "harper-eigenstates": "eigenstates --system harper-kicked --length 2001 --sigma golden",
        "floquet-ladder": "floquet-compare --j 200 --eta-over-j golden "
                          "--alpha-ladder 0.04,0.02,0.01,0.005,0.0025,0.00125",
    }
    for name, argv in readme.items():
        ours, theirs = parse_config(WORKLOADS[name].argv(0)), parse_config(argv.split())
        for key in ("command", "system", "j", "length", "alpha", "eta", "sigma", "alpha_ladder"):
            assert getattr(ours, key) == getattr(theirs, key), (name, key)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_every_workload_path(runner, name, tmp_path):
    workload = _smoke(name)
    reference = _tiny_reference(runner, workload, 1, tmp_path)
    op = runner.operation(workload, workload.argv(1), reference, trace=False)
    assert op["problems"] == []
    assert op["wall_s"] > 0 and op["cpu_s"] > 0 and op["peak_rss_mb"] > 0
    assert op["threads"] == run.THREAD_PIN


def test_every_seed_has_a_reference():
    for name in WORKLOADS:
        for seed in range(len(MODULATIONS)):
            assert run.load_reference(name, seed)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_counts_repeat_exactly(runner, name, tmp_path):
    workload = _smoke(name)
    first, second = (runner.child("run", "1", *workload.argv(0), "--out-dir", str(tmp_path / str(i)))
                     for i in range(2))
    counts = [{k: r["trace"]["metrics"][k] for k in COUNT_METRICS} for r in (first, second)]
    assert counts[0] == counts[1]
    assert first["trace"]["metrics"]["linalg.calls"] > 0


def _public_bindings():
    import scipy.linalg

    import kickedspec.cli  # noqa: F401  (loads every kickedspec module)
    modules = [np.linalg, scipy.linalg] + [m for n, m in sys.modules.items()
                                           if n == "kickedspec" or n.startswith("kickedspec.")]
    return {(m.__name__, k): v for m in modules for k, v in vars(m).items() if callable(v)}


def test_uninstall_restores_every_original_object(tmp_path):
    import kickedspec.cli as cli

    before = _public_bindings()
    trace = tracer.Tracer()
    trace.install()
    try:
        assert cli.parse_config is not before[("kickedspec.cli", "parse_config")]
        assert cli.tau_spectrum is not before[("kickedspec.cli", "tau_spectrum")]
        assert np.linalg.eigvalsh is not before[("numpy.linalg", "eigvalsh")]
        argv = WORKLOADS["dkt-spectrum"].argv(0, size=10) + ["--out-dir", str(tmp_path)]
        assert cli.main(argv) == 0
    finally:
        trace.uninstall()
    after = _public_bindings()
    assert all(after[key] is value for key, value in before.items())
    assert trace.summary(1.0)["metrics"]["multifractal.calls"] == 1


def test_untraced_run_installs_no_wrappers(monkeypatch):
    import kickedspec.cli as cli

    originals = (cli.write_csv, cli.parse_config, np.linalg.eigvalsh)
    seen = []
    monkeypatch.setattr(cli, "main", lambda argv: seen.append(
        (cli.write_csv, cli.parse_config, np.linalg.eigvalsh)) or 0)
    child._run(cli, [], trace=False)
    child._run(cli, [], trace=True)
    assert seen[0] == originals
    assert all(a is not b for a, b in zip(seen[1], originals))
    assert (cli.write_csv, cli.parse_config, np.linalg.eigvalsh) == originals


def test_wrong_output_counts_as_failed_operation(runner, monkeypatch, tmp_path):
    workload = _smoke("floquet-ladder")
    reference = _tiny_reference(runner, workload, 0, tmp_path)
    monkeypatch.setattr(run, "load_reference", lambda name, seed: reference)
    monkeypatch.setitem(run.WORKLOADS, workload.name, workload)
    monkeypatch.setattr(run, "MIN_OPERATIONS", 1)
    good = run.run_workload(runner, workload.name, seed=0, seconds=0, trace=False)
    assert (good["attempted"], good["failed"]) == (1, 0)

    def wrong(out_dir):
        got = workload.extract(out_dir)
        return {**got, "errors": [e + 1e-10 for e in got["errors"]]}  # 30x the tolerance

    monkeypatch.setitem(run.WORKLOADS, workload.name, dataclasses.replace(workload, extract=wrong))
    bad = run.run_workload(runner, workload.name, seed=0, seconds=0, trace=False)
    assert (bad["attempted"], bad["failed"]) == (1, 1)
    assert "errors" in bad["problems"][0]


def test_failed_exit_code_counts_as_failed_operation(runner):
    workload = dataclasses.replace(_smoke("dkt-spectrum"), argv_for=lambda seed, size: ["spectrum", "--j", "10"])
    op = runner.operation(workload, workload.argv(0), reference=None, trace=False)
    assert op["problems"] == ["kickedspec exited with code 2"]


def test_setup_covers_the_import_only(tmp_path):
    package = tmp_path / "src" / "kickedspec"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text("import time\ntime.sleep(0.3)\n"
                                    "def main(argv):\n    time.sleep(0.6)\n    return 0\n")
    fake = run.Runner(tmp_path)
    result = fake.child("run", "0", "anything")
    assert 0.3 <= result["setup_s"] < 0.6
    assert 0.6 <= result["wall_s"] < 0.9
    assert 0.3 <= fake.child("import")["setup_s"] < 0.6


def test_setup_reports_lower_quartile_and_the_rest_medians():
    samples = {"setup_s": [0.1, 0.2, 0.3, 0.4, 0.5], "wall_s": [1.0, 2.0, 9.0]}
    record = {"workload": "w", "problems": [], "stats": {k: run.spread(v) for k, v in samples.items()}}
    specs = [{"name": "setup_s", "unit": "s"}, {"name": "wall_s", "unit": "s"}]
    metrics = run.report_metrics(record, specs)
    assert metrics["setup_s"]["value"] == statistics.quantiles(samples["setup_s"], n=4)[0]
    assert metrics["wall_s"]["value"] == 2.0


def test_refuses_to_run_without_sources(tmp_path, monkeypatch, capsys):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [], "per_layer": []}))
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "dkt-spectrum", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""
