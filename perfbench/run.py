"""pauliblock benchmark: real CLI workloads, timed end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src`` directory, nothing is installed.  Every run of a workload is one
closed-loop caller: a fresh ``worker.py`` process that imports
``pauliblock`` and calls ``pauliblock.cli.main`` once, with BLAS threads
left at their default.

``--trace 0`` repeats the workload in fresh processes until ``S`` seconds
have passed (at least once) and reports the medians of ``wall_s``,
``setup_s`` and ``peak_rss_mb``; ``setup_s`` also takes ``SETUP_SAMPLES``
set-up-only processes before and after the runs.  ``--trace 1`` makes
one run with the layer wrappers of ``spans.py`` installed, reports the
per-layer metrics and writes the spans to ``perfbench/out/``.  Either way
every output value is checked against its reference; the last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The workloads' inputs are fixed reference cases, so
``--seed`` is recorded but changes no input.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import layer_metrics
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 4  # set-up-only processes before and after the runs
WORKER_TIMEOUT_S = 170

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Per-layer metric -> (unit, the end-to-end metric and workload it should
# move).  Percentages are shares of wall_s measured at the seed commit.
LAYERS = {
    "spectral.solve.calls": (
        "count", "wall_s on thermal_split_comp and transport_cli"),
    "spectral.solve.s": (
        "s", "wall_s on thermal_split_comp (57%) and transport_cli (about "
        "40%); about 15% on expansion_sweep"),
    "spectral.solve.failed": (
        "count", "wall_s on both sweeps (each failure escalates the grid)"),
    "spectral.solve.useful_ratio": (
        "ratio", "wall_s on thermal_split_comp (re-solves as the level count "
        "grows)"),
    "spectral.solve.n_points_max": (
        "points", "peak_rss_mb and wall_s on transport_cli"),
    "propagate.propagate_basis.calls": (
        "count", "wall_s on expansion_sweep and transport_cli"),
    "propagate.propagate_basis.s": (
        "s", "wall_s on expansion_sweep (85%) and transport_cli (about 57%); "
        "19% on thermal_split_comp"),
    "propagate.state_steps": (
        "count", "wall_s on expansion_sweep and transport_cli"),
    "propagate.us_per_state_step": (
        "us", "wall_s on expansion_sweep (wide batches) and transport_cli "
        "(narrow batches)"),
    "propagate.ns_per_point_state_step": (
        "ns", "wall_s on expansion_sweep (wide batches) and transport_cli "
        "(narrow batches)"),
    "propagate.fft_gflop_computed": (
        "GFLOP", "wall_s on expansion_sweep and transport_cli (computed, not "
        "measured)"),
    "pipeline.validated_settings.s": (
        "s", "wall_s on expansion_sweep (the dt check is 53%) and "
        "transport_cli"),
    "pipeline.endpoint_bases.calls": (
        "count", "wall_s on both sweeps (basis cache)"),
    "pipeline.endpoint_bases.s": (
        "s", "wall_s on thermal_split_comp and transport_cli"),
    "pipeline.evolved_states.calls": (
        "count", "wall_s on both sweeps (propagation cache)"),
    "pipeline.evolved_states.hit_ratio": (
        "ratio", "wall_s on both sweeps (propagation cache)"),
    "pipeline.master_overlaps.self_s": (
        "s", "wall_s on both sweeps (overlap assembly; small)"),
    "pipeline.self_s": (
        "s", "wall_s on both sweeps (Engine orchestration; small)"),
    "thermal.enumerate_ensemble.calls": (
        "count", "wall_s on thermal_split_comp only; zero elsewhere"),
    "thermal.enumerate_ensemble.s": (
        "s", "wall_s on thermal_split_comp only (17%); zero elsewhere"),
    "thermal.enumerate_ensemble.failed": (
        "count", "wall_s on thermal_split_comp only; zero elsewhere"),
    "thermal.configs": (
        "count", "wall_s on thermal_split_comp only; zero elsewhere"),
    "fidelity.gram_fidelity_values.calls": (
        "count", "wall_s on thermal_split_comp, at most 2%: cannot show end "
        "to end"),
    "fidelity.gram_fidelity_values.s": (
        "s", "wall_s on thermal_split_comp, at most 2%: cannot show end to "
        "end"),
    "fidelity.gram_fidelity_values.sets": (
        "count", "wall_s on thermal_split_comp, at most 2%: cannot show end "
        "to end"),
    "fidelity.fidelity_fast.calls": (
        "count", "nothing measurable end to end"),
    "fidelity.fidelity_fast.s": ("s", "nothing measurable end to end"),
    "experiments.self_s": (
        "s", "wall_s on both sweeps (orchestration overhead)"),
    "cli.main.cpu_s": (
        "s", "CPU traded for wall_s by threads, on every workload; not a "
        "gate"),
    "cli.main.traced_wall_s": (
        "s", "traced wall_s; minus the untraced median it is the tracing "
        "overhead"),
    "cli.unattributed_s": (
        "s", "wall_s on both sweeps (time outside every wrapped layer)"),
}


def _worker(name, *flags):
    """Run one worker process; returns its JSON result, or None if it broke."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT),
           "--workload", name, *flags]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"worker {name} timed out", file=sys.stderr)
        return None
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"worker {name} exited with {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def _source_digest():
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def _cpu_model():
    with open("/proc/cpuinfo", encoding="utf-8") as cpuinfo:
        for line in cpuinfo:
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor()


def provenance(workload, seed, worker_result):
    return {
        "workload": workload.name,
        "seed": seed,
        "argv": ["pauliblock", *(Path(a).name if a.endswith(".cfg") else a
                                 for a in workload.argv)],
        "config_text": workload.config_text(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "blas": worker_result["blas"],
        "versions": worker_result["versions"],
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
    }


def _setup_samples(name):
    samples = (_worker(name, "--setup-only") for _ in range(SETUP_SAMPLES))
    return [sample["setup_s"] for sample in samples if sample is not None]


def run_untraced(workload, seconds):
    # Set-up samples before and after the runs, so that their median spans
    # the run instead of one moment of it.
    setups = _setup_samples(workload.name)
    reps = []
    attempted = failed = 0
    start = time.perf_counter()
    while attempted == 0 or time.perf_counter() - start < seconds:
        rep = _worker(workload.name)
        attempted += len(workload.expected)
        if rep is None:
            failed += len(workload.expected)
            continue
        failed += rep["failed"]
        setups.append(rep["setup_s"])
        reps.append(rep)
    setups += _setup_samples(workload.name)
    if not reps:
        return None, attempted, failed
    metrics = {
        "wall_s": statistics.median(r["wall_s"] for r in reps),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }
    return (metrics, END_TO_END, reps[-1]), attempted, failed


def run_traced(workload, seed):
    rep = _worker(workload.name, "--trace")
    attempted = len(workload.expected)
    if rep is None:
        return None, attempted, attempted
    metrics = layer_metrics(rep["spans"], "cli.main", rep["cpu_s"])
    idle = [name for name in workload.layers
            if metrics.get(f"{name}.calls", 0) == 0]
    if idle:
        raise SystemExit(
            f"traced {workload.name}: no calls recorded for {', '.join(idle)}; "
            "a wrapper no longer sits where the layer is looked up"
        )
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / f"trace-{workload.name}-seed{seed}.json").write_text(
        json.dumps({"metrics": metrics, "spans": rep["spans"]}), encoding="utf-8"
    )
    units = {name: unit for name, (unit, _) in LAYERS.items()}
    return (metrics, units, rep), attempted, rep["failed"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args(argv)
    if not (ROOT / "src" / "pauliblock" / "__init__.py").is_file():
        print(f"no pauliblock sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[opts.workload]

    if opts.trace:
        measured, attempted, failed = run_traced(workload, opts.seed)
    else:
        measured, attempted, failed = run_untraced(workload, opts.seconds)
    if measured is None:
        print(f"{workload.name}: no run completed", file=sys.stderr)
        return 1
    metrics, units, last = measured
    print(json.dumps({"provenance": provenance(workload, opts.seed, last)}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
