"""One benchmark run of one workload, in a fresh process.

    python3 perfbench/worker.py --root ROOT --workload NAME [--setup-only] [--trace]

Imports ``pauliblock`` from ``ROOT/src``, times the set-up (importing the
package with numpy and scipy, parsing the arguments and the config), then
calls ``pauliblock.cli.main`` once with the workload's arguments, checks
its output and prints one JSON object as the last line of stdout.  With
``--trace`` the layer wrappers of :mod:`spans` are installed first and the
recorded spans are returned as well.  Called by ``run.py``.
"""

import argparse
import contextlib
import ctypes
import io
import json
import resource
import sys
import time
from pathlib import Path

from spans import Tracer, install
from workloads import WORKLOADS

ROOT_SPAN = "cli.main"


def _blas_info():
    """Every OpenBLAS library loaded in this process, with its thread count."""
    paths = set()
    with open("/proc/self/maps", encoding="utf-8") as maps:
        for line in maps:
            path = line.split()[-1]
            if "openblas" in Path(path).name and path.endswith(".so"):
                paths.add(path)
    info = []
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        entry = {"library": Path(path).name}
        for suffix in ("64_", ""):
            try:
                config = getattr(lib, f"scipy_openblas_get_config{suffix}")
                threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
            except AttributeError:
                continue
            config.restype = ctypes.c_char_p
            threads.restype = ctypes.c_int
            entry["config"] = config().decode()
            entry["threads"] = threads()
            break
        info.append(entry)
    return info


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    opts = parser.parse_args()
    workload = WORKLOADS[opts.workload]
    src = Path(opts.root).resolve() / "src"
    sys.path.insert(0, str(src))
    argv = list(workload.argv)

    start = time.perf_counter()
    import pauliblock.cli as cli
    from pauliblock.config import load_spec

    args = cli.build_parser().parse_args(argv)
    if hasattr(args, "config"):
        load_spec(args.config)
    setup_s = time.perf_counter() - start

    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"pauliblock imported from {cli.__file__}, not {src}")
    result = {"setup_s": setup_s}
    if opts.setup_only:
        print(json.dumps(result))
        return 0

    entry = cli.main
    tracer = None
    if opts.trace:
        tracer = Tracer()
        install(tracer, "pauliblock")
        entry = tracer.wrap(ROOT_SPAN, cli.main)
    stdout = io.StringIO()
    error = None
    cpu0 = time.process_time()
    wall0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout):
            code = entry(argv)
    except Exception as exc:  # a crash is a failed run, reported below
        code, error = None, repr(exc)
    wall_s = time.perf_counter() - wall0
    cpu_s = time.process_time() - cpu0

    import numpy
    import scipy

    failed = workload.check(stdout.getvalue()) if code == 0 else len(workload.expected)
    if failed:
        print(f"{workload.name}: {failed} checked values failed (exit code "
              f"{code}, error {error}); output:\n{stdout.getvalue()}",
              file=sys.stderr)
    result.update(
        wall_s=wall_s,
        cpu_s=cpu_s,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        failed=failed,
        versions={
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
        blas=_blas_info(),
    )
    if tracer is not None:
        result["spans"] = tracer.spans
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
