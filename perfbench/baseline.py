"""Repeated runs of ``run.py``: spread check and a baseline file.

    python3 perfbench/baseline.py --runs 10 --output perfbench/baseline/seed.json

For each workload (default: those in ``BENCHMARK.json``) this makes
``--runs`` untraced runs with seeds ``1..runs`` and then one traced run,
exactly as a benchmark comparison calls ``run.py``.  It prints, per
end-to-end metric, the median, the quartiles and their distance as a share
of the median against the metric's bound, and writes every value, the
per-layer table (with the end-to-end metric each layer should move) and
the tracing overhead (traced ``wall_s`` minus the untraced median) to
``--output``.  Exits 1 if a run fails or a spread other than ``setup_s``'s
exceeds a third of its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n"
                         f"{proc.stderr}")
    return json.loads(lines[-2])["provenance"], json.loads(lines[-1])


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None}


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--output", required=True)
    opts = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    report = {"benchmark": spec, "runs": opts.runs, "seconds": opts.seconds,
              "workloads": {}}
    steady = True
    for name in opts.workloads:
        runs = [_run(name, seed, opts.seconds, 0)[1]
                for seed in range(1, opts.runs + 1)]
        provenance, traced = _run(name, 1, opts.seconds, 1)
        failed = sum(r["failed"] for r in runs) + traced["failed"]
        attempted = sum(r["attempted"] for r in runs) + traced["attempted"]
        entry = {"provenance": provenance, "attempted": attempted,
                 "failed": failed, "fail_ratio": failed / attempted,
                 "end_to_end": {}, "per_layer": {}}
        print(f"{name}: {failed}/{attempted} checked values failed")
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in runs]
            if len(values) > 1:
                summary = summarize(values)
            else:
                summary = {"median": values[0]}
            summary.update(values=values, bound=bound)
            entry["end_to_end"][metric] = summary
            spread = summary.get("spread")
            ok = metric == "setup_s" or spread is None or spread < bound / 3
            steady = steady and ok
            print(f"  {metric:12s} median {summary['median']:.6g}  "
                  f"spread {spread if spread is None else round(spread, 4)}  "
                  f"bound {bound}{'' if ok else '  NOT STEADY'}")
        for metric, (unit, moves) in LAYERS.items():
            entry["per_layer"][metric] = {
                "value": traced["metrics"][metric]["value"], "unit": unit,
                "moves": moves,
            }
            print(f"  {metric:40s} {traced['metrics'][metric]['value']:.6g} {unit}")
        entry["tracing_overhead_s"] = (
            traced["metrics"]["cli.main.traced_wall_s"]["value"]
            - entry["end_to_end"]["wall_s"]["median"]
        )
        print(f"  tracing overhead {entry['tracing_overhead_s']:.3f} s")
        report["workloads"][name] = entry
        steady = steady and failed == 0

    output = Path(opts.output)
    output.parent.mkdir(parents=True, exist_ok=True)
    output.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
