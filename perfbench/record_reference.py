"""Record the reference outputs the benchmark checks every operation against.

    python3 perfbench/record_reference.py [WORKLOAD ...]

Run from the repository root on the commit whose behaviour is the reference.
For every workload and every configuration a seed can select, this runs the
CLI once (pinned to one BLAS thread, as the benchmark does) and writes the
checked outputs to perfbench/reference/<workload>.json.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from run import REFERENCE_DIR, Runner
from workloads import MODULATIONS, WORKLOADS


def record(runner: Runner, name: str) -> dict:
    workload = WORKLOADS[name]
    configs = {}
    for index, (modulation, _) in enumerate(MODULATIONS):
        out_dir = Path(tempfile.mkdtemp(dir=runner.work))
        try:
            argv = workload.argv(index)
            result = runner.child("run", "0", *argv, "--out-dir", str(out_dir))
            if result["rc"] != 0:
                raise SystemExit(f"{name} config {index} exited with code {result['rc']}")
            configs[str(index)] = workload.extract(out_dir)
            print(f"{name} config {index} ({modulation}): {' '.join(argv)}  {result['wall_s']:.2f} s")
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
    return configs


def main(names: list) -> int:
    commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True).stdout.strip()
    runner = Runner(Path.cwd())
    for name in names or list(WORKLOADS):
        payload = {"workload": name, "recorded_at_commit": commit, "configs": record(runner, name)}
        (REFERENCE_DIR / f"{name}.json").write_text(json.dumps(payload, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
