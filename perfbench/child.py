"""One benchmark operation in a fresh interpreter.

    python3 child.py import RESULT SRC
    python3 child.py run RESULT SRC TRACE ARGV...
    python3 child.py info RESULT SRC

`import` times `import kickedspec.cli` from SRC and stops there.  `run` then
calls `kickedspec.cli.main(ARGV)` and records its wall time, process CPU time
and the peak RSS of this process; with TRACE = 1 the layer tracer wraps that
call.  `info` records versions and the BLAS build.  The result is written as
JSON to RESULT.  BLAS thread pinning comes from the environment the parent
sets.

Nothing that `kickedspec.cli` imports itself is imported before the timed
import, so `setup_s` holds the whole cost a CLI invocation pays.
"""

import os
import sys
import time


def _import_cli(src: str):
    start = time.perf_counter()
    import kickedspec.cli as cli
    setup_s = time.perf_counter() - start
    if os.path.dirname(os.path.dirname(os.path.realpath(cli.__file__))) != os.path.realpath(src):
        raise SystemExit(f"kickedspec was imported from {cli.__file__}, not from {src}")
    return cli, setup_s


def _run(cli, argv: list, trace: bool) -> dict:
    import resource

    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    cpu0, wall0 = time.process_time(), time.perf_counter()
    try:
        rc = cli.main(argv)
    finally:
        wall_s = time.perf_counter() - wall0
        cpu_s = time.process_time() - cpu0
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux reports KiB
    result = {"rc": rc, "wall_s": wall_s, "cpu_s": cpu_s, "peak_rss_mb": peak_rss_mb}
    if tracer is not None:
        result["trace"] = tracer.summary(wall_s)
    return result


def _info() -> dict:
    import platform

    import numpy
    info = {"python": platform.python_version(), "numpy": numpy.__version__,
            "blas": numpy.show_config(mode="dicts").get("Build Dependencies", {})}
    try:
        import scipy
        info["scipy"] = scipy.__version__
    except ImportError:
        info["scipy"] = None
    return info


def main(argv: list) -> int:
    if len(argv) < 3 or argv[0] not in ("import", "run", "info") or (argv[0] == "run" and len(argv) < 4):
        print(__doc__, file=sys.stderr)
        return 2
    mode, result_path, src = argv[:3]
    if mode == "info":
        result = _info()
    else:
        cli, setup_s = _import_cli(src)
        result = {"setup_s": setup_s}
        if mode == "run":
            result.update(_run(cli, argv[4:], argv[3] == "1"))
    result["threads"] = {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}

    import json
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
