"""Tests of the benchmark harness itself, on the seconds-long smoke workload.

    python3 -m pytest perfbench/tests -q
"""

import ast
import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from spans import Tracer, layer_metrics, self_times  # noqa: E402
from workloads import EXPANSION_NB12, REGRESSION_TOL, WORKLOADS  # noqa: E402

EXACT_COUNTS = (
    "propagate.state_steps",
    "spectral.solve.calls",
    "thermal.enumerate_ensemble.calls",
    "thermal.configs",
    "fidelity.gram_fidelity_values.sets",
)


def _bench(*args, cwd=ROOT, script=BENCH / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *args],
        cwd=cwd, capture_output=True, text=True, timeout=150,
    )


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def _smoke(trace):
    return _result(_bench("--workload", "smoke", "--seed", "3",
                          "--seconds", "1", "--trace", str(trace)))


def test_untraced_run_reports_end_to_end_metrics():
    result = _smoke(0)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == set(run.END_TO_END)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == run.END_TO_END[name]
        assert metric["value"] > 0


def test_traced_counts_repeat_exactly():
    first, second = _smoke(1), _smoke(1)
    assert first["correct"] and second["correct"]
    assert set(first["metrics"]) == set(run.LAYERS)
    for name in EXACT_COUNTS:
        assert first["metrics"][name]["value"] > 0, name
        assert first["metrics"][name] == second["metrics"][name], name


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench("--workload", "smoke", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path,
                  script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def _span(id_, parent, start, end, name="layer"):
    return {"id": id_, "parent": parent, "name": name, "start": start,
            "end": end, "error": None, "attrs": {}}


def test_self_time_subtracts_covered_child_intervals():
    spans = [
        _span(0, None, 0.0, 10.0),
        _span(1, 0, 1.0, 4.0),
        _span(2, 1, 2.0, 3.0),
        _span(3, 0, 3.5, 6.0),  # overlaps span 1: covered once
        _span(4, 0, 9.0, 12.0),  # runs past its parent: clipped
    ]
    own = self_times(spans)
    assert own[0] == 10.0 - (6.0 - 1.0) - (10.0 - 9.0)
    assert own[1] == 3.0 - 1.0
    assert own[2] == 1.0
    assert own[3] == 2.5
    assert own[4] == 3.0


def test_layer_busy_time_counts_nested_calls_once():
    tracer = Tracer()
    outer = tracer.wrap("cli.main", lambda f: f())
    bases = tracer.wrap("pipeline.endpoint_bases", lambda inner: inner())
    outer(lambda: bases(lambda: bases(lambda: None)))
    metrics = layer_metrics(tracer.spans, "cli.main", 0.0)
    assert metrics["pipeline.endpoint_bases.calls"] == 2
    first = tracer.spans[1]
    assert metrics["pipeline.endpoint_bases.s"] == first["end"] - first["start"]


def test_checker_fails_a_value_off_by_2e_4():
    workload = WORKLOADS["expansion_sweep"]

    def csv_text(values):
        lines = ["axis,F"] + [f"process_time,{v!r}" for v in values]
        return "\n".join(lines) + "\n"

    assert workload.check(csv_text(EXPANSION_NB12)) == 0
    off = list(EXPANSION_NB12)
    off[1] += 2e-4
    assert workload.check(csv_text(off)) == 1
    assert workload.check(csv_text(EXPANSION_NB12[:2])) == 1
    assert workload.check("not a csv") == 3

    thermal = WORKLOADS["thermal_split_comp"]
    rows = [f"{nb},{tau!r},,crossed"
            for nb, (tau, _) in zip(range(3, 7), thermal.expected)]
    good = "# threshold = 0.95\nN_b,tau_cross,spacing,status\n" + "\n".join(rows)
    assert thermal.check(good) == 0
    assert thermal.check(good.replace("crossed", "above", 1)) == 1


def test_expansion_references_match_the_acceptance_table():
    tree = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())
    frozen = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
            if node.targets[0].id in ("EXPANSION_TABLE", "REGRESSION_TOL"):
                frozen[node.targets[0].id] = ast.literal_eval(node.value)
    table = frozen["EXPANSION_TABLE"]
    column = tuple(table[("sinusoidal", t)][2] for t in (10.0, 15.0, 25.0))
    assert column == EXPANSION_NB12
    assert frozen["REGRESSION_TOL"] == REGRESSION_TOL


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (unit, _) in run.LAYERS.items()
    }
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
