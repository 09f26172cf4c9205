import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pauliblock
from pauliblock import pipeline
from pauliblock.cli import main
from pauliblock.errors import (
    ConfigError,
    ContainmentError,
    ConvergenceError,
    GridError,
    SimulationError,
)


class TestExitCodes:
    def test_error_code_mapping(self):
        assert ConfigError("x").exit_code == 2
        assert ConvergenceError("x").exit_code == 3
        assert GridError("x").exit_code == 4
        assert ContainmentError("x").exit_code == 4
        assert SimulationError("x").exit_code == 1

    def test_bad_config_returns_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("task = splitting\nbogus_key = 1\n")
        code = main(["sweep", str(cfg)])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_required_key_returns_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("task = splitting\naxis = buffer_count\naxis_values = 0\n")
        code = main(["sweep", str(cfg)])
        assert code == 2


    @pytest.mark.parametrize(
        "line",
        ["N_p = nan", "workers = inf", "tau = nan", "axis_values = 0, nan"],
    )
    def test_non_finite_config_value_returns_2(self, tmp_path, capsys, line):
        key = line.split()[0]
        base = {
            "task": "splitting", "T": "1.0", "h_f": "20",
            "axis": "buffer_count", "axis_values": "0",
        }
        text = "".join(f"{k} = {v}\n" for k, v in base.items() if k != key)
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text + line + "\n")
        assert main(["sweep", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize(
        "options",
        [
            ["--tau", "-1"],
            ["--tau", "nan"],
            ["--tau", "inf"],
            ["--tail-bound", "-1", "--tau", "0.3"],
            ["--T", "inf"],
            ["--dt", "inf"],
        ],
        ids=["negative-tau", "nan-tau", "inf-tau", "negative-tail-bound",
             "inf-T", "inf-dt"],
    )
    def test_bad_scenario_option_returns_2(self, capsys, options):
        # A temperature other than 0 takes the thermal path, whose checks
        # reject it before anything is solved.
        argv = ["split", "--T", "0.5", "--n-buffer", "1", "--n-points", "256",
                "--dt", "0.01", *options]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")

    @pytest.mark.parametrize("lam", ["nan", "inf"])
    def test_bad_gap_anharmonicity_returns_2(self, capsys, lam):
        assert main(["gap", "--lambdas", lam, "--n-max", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")


class TestScenarioCommands:
    def test_split_prints_fidelity(self, capsys):
        code = main(
            [
                "split",
                "--T", "1.0",
                "--n-buffer", "3",
                "--dt", "0.002",
                "--skip-dt-check",
            ]
        )
        assert code == 0
        value = float(capsys.readouterr().out.strip())
        assert 0.9 < value < 1.0

    def test_thermal_scenario(self, capsys):
        code = main(
            [
                "split",
                "--T", "1.0",
                "--n-buffer", "2",
                "--tau", "0.5",
                "--dt", "0.002",
                "--skip-dt-check",
            ]
        )
        assert code == 0
        value = float(capsys.readouterr().out.strip())
        assert 0.0 <= value <= 1.0


    def test_equal_step_rungs_never_agree(self, capsys):
        # Every rung from dt = 100 down to dt = 1.5625 rounds T = 2 to one
        # step, so those rungs give identical overlaps; that is no
        # agreement, and the halving runs out of rungs.
        assert main(["split", "--dt", "100"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: time step did not converge")

    def test_verify_oracle_at_finite_temperature(self, capsys, monkeypatch):
        checked = []
        real = pipeline.verify_against_oracle

        def counted(a, value):
            checked.append(a.n_total)
            return real(a, value)

        monkeypatch.setattr(pipeline, "verify_against_oracle", counted)
        argv = ["split", "--T", "0.5", "--tau", "0.3", "--n-buffer", "1",
                "--n-points", "256", "--dt", "0.01"]
        assert main(argv) == 0
        assert checked == []
        assert main([*argv, "--verify-oracle"]) == 0
        assert checked == [3]
        first, second = capsys.readouterr().out.split()
        assert first == second

    def test_verify_oracle_guard_before_any_work(self, capsys, monkeypatch):
        # N = 13 is past the brute-force guard: the command exits before it
        # propagates anything, and names the limits of the flag.
        calls = []
        real = pipeline.propagate_basis

        def counted(*args, **kwargs):
            calls.append(args[1])
            return real(*args, **kwargs)

        monkeypatch.setattr(pipeline, "propagate_basis", counted)
        argv = ["split", "--T", "0.5", "--tau", "0.3", "--n-buffer", "11",
                "--n-points", "256", "--dt", "0.01", "--verify-oracle",
                "--skip-dt-check"]
        assert main(argv) == 2
        assert calls == []
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: --verify-oracle needs N <= 12 and N_p <= 6, "
            "got N=13 and N_p=2\n"
        )

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "argv, name",
        [
            (["expand", "--anharmonicity", "nan"], "lam"),
            (["split", "--h-f", "inf"], "h_f"),
            (["transport", "--x0-f", "nan"], "x0_f"),
            (["expand", "--omega-f", "inf"], "omega_f"),
        ],
    )
    def test_non_finite_trap_parameter_returns_2(self, capsys, argv, name):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {name} must be finite")


class TestGapCommand:
    def test_schema_and_values(self, capsys):
        code = main(["gap", "--lambdas", "0,1", "--n-max", "3"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "N,lambda,delta_E"
        assert len(lines) == 7
        harmonic_rows = [l for l in lines[1:] if l.split(",")[1] == "0.0"]
        for row in harmonic_rows:
            assert float(row.split(",")[2]) == pytest.approx(1.0, abs=1e-8)

    def test_output_file(self, tmp_path):
        out = tmp_path / "gaps.csv"
        code = main(["gap", "--lambdas", "1", "--n-max", "2", "-o", str(out)])
        assert code == 0
        content = out.read_text()
        assert content.startswith("N,lambda,delta_E\n")
        assert content.endswith("\n")


class TestSweepCommand:
    def test_sweep_to_file(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(
            "task = splitting\n"
            "T = 1.0\n"
            "h_f = 20\n"
            "axis = buffer_count\n"
            "axis_values = 0, 2\n"
            "N_p = 2\n"
            "dt = 0.002\n"
        )
        out = tmp_path / "sweep.csv"
        code = main(["sweep", str(cfg), "-o", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("axis,axis_value")
        fidelities = [float(l.split(",")[9]) for l in lines[1:]]
        assert fidelities[1] >= fidelities[0]

    def test_minbuffer_to_stdout(self, tmp_path, capsys):
        cfg = tmp_path / "mb.cfg"
        cfg.write_text(
            "task = splitting\n"
            "h_f = 20\n"
            "axis = process_time\n"
            "axis_values = 0.5, 1.0\n"
            "N_p = 2\n"
            "N_b = 0..4\n"
            "dt = 0.002\n"
        )
        code = main(["minbuffer", str(cfg)])
        assert code == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert "T,N_b_min,saturated" in lines
        data = [l for l in lines if not l.startswith("#")][1:]
        assert len(data) == 2


class TestNumpyOnly:
    def test_commands_run_without_scipy(self, tmp_path):
        # With scipy unimportable, the CLI imports and runs a thermal
        # scenario, a sweep and a gap profile, and loads no scipy module.
        # Nor does it load numpy.ma, a lazy import of some numpy set
        # routines that costs about 19 ms.
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(
            "task = splitting\n"
            "T = 1.0\n"
            "h_f = 20\n"
            "axis = buffer_count\n"
            "axis_values = 0, 2\n"
            "N_p = 2\n"
            "dt = 0.002\n"
        )
        script = "\n".join([
            "import sys",
            "sys.modules['scipy'] = None",
            "from pauliblock.cli import main",
            "assert main(['split', '--T', '0.5', '--tau', '0.3', '--n-buffer',"
            " '1', '--n-points', '256', '--dt', '0.01']) == 0",
            f"assert main(['sweep', {str(cfg)!r}]) == 0",
            "assert main(['gap', '--lambdas', '1', '--n-max', '2']) == 0",
            "assert not [m for m in sys.modules if m.startswith('scipy.')]",
            "assert not [m for m in sys.modules if m.split('.')[:2] == ['numpy', 'ma']]",
        ])
        src = Path(pauliblock.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}
        result = subprocess.run(
            [sys.executable, "-c", script],
            env=env, capture_output=True, text=True, timeout=600,
        )
        assert result.returncode == 0, result.stderr
        lines = result.stdout.splitlines()
        assert 0.0 <= float(lines[0]) <= 1.0
        assert lines[1].startswith("axis,axis_value")
        assert lines[4] == "N,lambda,delta_E"
        assert len(lines) == 7

    def test_package_needs_numpy_alone(self):
        # No module of the package imports scipy, and the package declares
        # numpy as its one runtime dependency; scipy serves the tests.
        tomllib = pytest.importorskip("tomllib")
        root = Path(__file__).resolve().parents[1]
        for path in sorted((root / "src" / "pauliblock").glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    names = [node.module]
                else:
                    continue
                assert not [n for n in names if n.split(".")[0] == "scipy"], (
                    f"{path.name}:{node.lineno} imports scipy"
                )
        project = tomllib.loads((root / "pyproject.toml").read_text())["project"]
        assert project["dependencies"] == ["numpy>=2.0"]
