"""kickedspec benchmark: run one workload (or all) from the repository root.

    python3 perfbench/run.py --workload dkt-spectrum --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --trace 1

Closed loop, one client: each operation is a fresh interpreter (BLAS and
OpenMP pinned to one thread in its environment) that imports kickedspec.cli
from ./src and calls `kickedspec.cli.main(argv)` once, as a user of the CLI
does.  Operations repeat until --seconds (default: run_seconds of
BENCHMARK.json) have passed and at least MIN_OPERATIONS have run.  Each
output is checked against the reference recorded for the seed's
configuration; an exit code other than 0 or a mismatch is a failed
operation.

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1
alternates untraced and traced operations and reports the per-layer metrics.
The last line of standard output is the JSON result; the full record (every
sample, the machine and the load average) goes to .perfbench_results/.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import WORKLOADS, config_index

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_DIR = BENCH_DIR / "reference"
THREAD_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
IMPORTS_PER_OPERATION = 2  # import-only interpreters after each operation
MIN_OPERATIONS = 3  # so that one slow operation cannot set the median of a short run
# Statistic of a run's samples that is reported; the median unless named here.
# setup_s is fixed work whose samples only ever get slower than the machine
# allows, so its lower quartile tracks the code and not the host's load.
REPORTED_STATISTIC = {"setup_s": "q1"}
CHILD_TIMEOUT_S = 170


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, broken child)."""


class Runner:
    """Starts child interpreters against one checkout."""

    def __init__(self, root: Path):
        self.root = root
        self.src = root / "src"
        self.work = root / ".perfbench_work"
        self.work.mkdir(exist_ok=True)
        python_path = os.pathsep.join(p for p in (str(self.src), os.environ.get("PYTHONPATH")) if p)
        self.env = dict(os.environ, PYTHONPATH=python_path, TMPDIR=str(self.work), **THREAD_PIN)

    def child(self, mode: str, *args: str) -> dict:
        fd, result_path = tempfile.mkstemp(suffix=".json", dir=self.work)
        os.close(fd)
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "child.py"), mode, result_path, str(self.src), *args],
                cwd=self.root, env=self.env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
            if proc.returncode != 0:
                raise BenchError(f"child {mode} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
            with open(result_path, encoding="utf-8") as fh:
                return json.load(fh)
        finally:
            os.unlink(result_path)

    def operation(self, workload, argv: list, reference: dict, trace: bool) -> dict:
        """One CLI call in a fresh interpreter; 'problems' is empty when it succeeded."""
        out_dir = Path(tempfile.mkdtemp(dir=self.work))
        try:
            try:
                result = self.child("run", "1" if trace else "0", *argv, "--out-dir", str(out_dir))
            except (BenchError, subprocess.TimeoutExpired) as exc:
                return {"traced": trace, "problems": [str(exc)]}
            if result["rc"] != 0:
                problems = [f"kickedspec exited with code {result['rc']}"]
            else:
                try:
                    problems = workload.check(workload.extract(out_dir), reference)
                except (OSError, ValueError, KeyError, TypeError) as exc:
                    problems = [f"unreadable output: {exc!r}"]
            return {**result, "traced": trace, "problems": problems}
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)


def load_reference(name: str, seed: int) -> dict:
    configs = json.loads((REFERENCE_DIR / f"{name}.json").read_text())["configs"]
    return configs[str(config_index(seed))]


def machine_record(runner: Runner) -> dict:
    cpu_model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "")
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)), "cpu_model": cpu_model,
            "platform": platform.platform(), "thread_pin": THREAD_PIN, **runner.child("info")}


def spread(values: list) -> dict:
    """Median, quartiles and sample count."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": 1}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def run_workload(runner: Runner, name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]
    argv = workload.argv(seed)
    reference = load_reference(name, seed)
    load_before = os.getloadavg()

    runner.child("import")  # warm-up: byte-compiles the sources on a fresh checkout
    setup, ops = [], []
    start = time.perf_counter()
    while True:
        # Import-only samples alternate with the operations, so that both see
        # the same stretch of the machine's time.
        for traced in ((False, True) if trace else (False,)):
            op_start = time.perf_counter() - start
            ops.append({**runner.operation(workload, argv, reference, traced), "t": op_start})
            setup += [runner.child("import")["setup_s"] for _ in range(IMPORTS_PER_OPERATION)]
        if time.perf_counter() - start >= seconds and len(ops) >= MIN_OPERATIONS:
            break

    done = [op for op in ops if "wall_s" in op and op.get("rc") == 0]
    plain = [op for op in done if not op["traced"]]
    samples = {"setup_s": setup + [op["setup_s"] for op in done]}
    for key in ("wall_s", "cpu_s", "peak_rss_mb"):
        samples[key] = [op[key] for op in plain]
    if trace:
        traced_ops = [op for op in done if op["traced"]]
        for key in traced_ops[0]["trace"]["metrics"] if traced_ops else ():
            samples[key] = [op["trace"]["metrics"][key] for op in traced_ops]
        if traced_ops and plain:
            samples["trace.overhead_s"] = [statistics.median(op["wall_s"] for op in traced_ops)
                                           - statistics.median(samples["wall_s"])]
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace, "argv": argv,
        "attempted": len(ops), "failed": sum(1 for op in ops if op["problems"]),
        "problems": [p for op in ops for p in op["problems"]],
        "loadavg_before": load_before, "loadavg_after": os.getloadavg(),
        "stats": {key: spread(values) for key, values in samples.items() if values},
        "samples": samples,
        "operation_start_s": [op["t"] for op in ops],
        "trace_functions": next((op["trace"]["functions"] for op in reversed(done) if op["traced"]), None),
    }


def report_metrics(record: dict, metric_specs: list) -> dict:
    """The metrics BENCHMARK.json names for this kind of run, each as its reported statistic."""
    missing = [m["name"] for m in metric_specs if m["name"] not in record["stats"]]
    if missing:
        raise BenchError(f"{record['workload']}: no samples for {', '.join(missing)}: {record['problems'][:3]}")
    return {m["name"]: {"value": record["stats"][m["name"]][REPORTED_STATISTIC.get(m["name"], "median")],
                        "unit": m["unit"]} for m in metric_specs}


def print_summary(record: dict, metric_specs: list) -> None:
    print(f"== {record['workload']}  seed {record['seed']}  trace {int(record['trace'])}  "
          f"argv: {' '.join(record['argv'])}")
    for spec in metric_specs:
        stat = record["stats"].get(spec["name"])
        if stat:
            reported = REPORTED_STATISTIC.get(spec["name"], "median")
            print(f"  {spec['name']:24s} {stat[reported]:.6g} {spec['unit']} ({reported})  "
                  f"(median {stat['median']:.6g}, q1 {stat['q1']:.6g}, q3 {stat['q3']:.6g}, n={stat['n']})")
    print(f"  operations failed/attempted: {record['failed']}/{record['attempted']}")
    for problem in record["problems"][:5]:
        print(f"  failure: {problem}")
    print(f"  load average before {record['loadavg_before']} after {record['loadavg_after']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="kickedspec benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "BENCHMARK.json").is_file() or not (root / "src" / "kickedspec" / "cli.py").is_file():
        print("error: run from the repository root; BENCHMARK.json and src/kickedspec/cli.py are needed",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    metric_specs = spec["per_layer"] if args.trace else spec["end_to_end"]
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]

    try:
        runner = Runner(root)
        machine = machine_record(runner)
        records = [run_workload(runner, name, args.seed, seconds, bool(args.trace)) for name in names]
        metrics = {}
        for record in records:
            print_summary(record, metric_specs)
            prefix = "" if len(records) == 1 else f"{record['workload']}/"
            metrics.update({prefix + k: v for k, v in report_metrics(record, metric_specs).items()})
    except (BenchError, subprocess.TimeoutExpired, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    results = root / ".perfbench_results"
    results.mkdir(exist_ok=True)
    out = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({"machine": machine, "runs": records}, indent=1))
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
