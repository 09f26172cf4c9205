import ast
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import pauliblock
from pauliblock import cli, pipeline
from pauliblock.cli import main
from pauliblock.config import TRAP_PARAMETERS, parse_config_text
from pauliblock.errors import (
    ConfigError,
    ContainmentError,
    ConvergenceError,
    GridError,
    SimulationError,
)
from pauliblock.experiments import Axis, SweepSpec
from pauliblock.potentials import PotentialSchedule, RampShape, Task
from pauliblock.propagate import PropagationSettings

CONFIGS = Path(__file__).parents[1] / "perfbench" / "configs"
EXPANSION_CFG = CONFIGS / "expansion_sweep.cfg"


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
        ["N_p = nan", "n_points = inf", "tau = nan", "axis_values = 0, nan"],
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
        "lines, value",
        [
            ("axis = buffer_count\naxis_values = 1, 1.5\n", "1.5"),
            ("axis = buffer_count\naxis_values = -0.5, 1\n", "-0.5"),
            ("axis = particle_number_gap\naxis_values = 1, 2.7\n", "2.7"),
        ],
        ids=["fraction", "negative-fraction", "gap-fraction"],
    )
    def test_fractional_count_axis_returns_2(self, tmp_path, capsys, lines, value):
        # A count axis does not round: 1.5 buffers is not N_b = 1, and
        # -0.5 is not N_b = 0.
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("task = splitting\nT = 1.0\nh_f = 20\n" + lines)
        assert main(["sweep", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and value in captured.err

    def test_verify_oracle_key_returns_2(self, tmp_path, capsys):
        # The brute-force sum is a test reference, not a run option.
        cfg = tmp_path / "oracle.cfg"
        cfg.write_text(
            "task = splitting\nT = 1.0\nh_f = 20\naxis = buffer_count\n"
            "axis_values = 0\nverify_oracle = true\n"
        )
        assert main(["sweep", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unknown key 'verify_oracle'" in captured.err

    def test_trap_key_of_another_task_returns_2(self, tmp_path, capsys):
        # x0f is a transport key: a splitting file that sets it is wrong.
        cfg = tmp_path / "foreign.cfg"
        cfg.write_text(
            "task = splitting\nT = 1.0\nh_f = 20\nx0f = 5\n"
            "axis = buffer_count\naxis_values = 0\n"
        )
        assert main(["sweep", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "'x0f' is not a parameter of the splitting task" in captured.err

    def test_lambda_in_a_splitting_file_returns_2(self, tmp_path, capsys):
        # The splitting trap has no quartic term: a lambda would change
        # nothing but the CSV's lambda column.
        cfg = tmp_path / "quartic.cfg"
        cfg.write_text(
            "task = splitting\nh_f = 20\nlambda = 3\nN_p = 2\nN_b = 1\n"
            "axis = process_time\naxis_values = 0.5\nn_points = 256\ndt = 0.01\n"
        )
        assert main(["sweep", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: key 'lambda' is not a parameter of the splitting task\n"
        )

    def test_bad_counts_in_a_gap_file_return_2(self, tmp_path, capsys):
        # The gap axis reads no N_p or N_b, yet checks them as every axis.
        cfg = tmp_path / "gap.cfg"
        for counts, message in (
            ("N_p = -3\n", "error: invalid particle counts N_p=-3, N_b=0"),
            ("N_p = -3\nN_b = 4..1\n", "error: invalid buffer range (4, 1)\n"),
        ):
            cfg.write_text(
                "task = expansion\nomega_f = 0.01\n" + counts
                + "axis = particle_number_gap\naxis_values = 1, 2, 5\n"
            )
            assert main(["sweep", str(cfg)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith(message)

    def test_workers_key_returns_2(self, tmp_path, capsys):
        # The worker pool sizes itself from the CPUs this process may use;
        # `taskset -c 0` runs a sweep on one.
        cfg = tmp_path / "workers.cfg"
        cfg.write_text(
            "task = splitting\nT = 1.0\nh_f = 20\naxis = buffer_count\n"
            "axis_values = 0\nworkers = 2\n"
        )
        assert main(["sweep", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unknown key 'workers'" in captured.err

    def test_verify_oracle_flag_returns_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["split", "--T", "0.5", "--verify-oracle"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--verify-oracle" in captured.err

    @pytest.mark.parametrize(
        "options",
        [
            ["--tau", "-1"],
            ["--tau", "nan"],
            ["--tau", "inf"],
            ["--tail-bound", "-1", "--tau", "0.3"],
            ["--tail-bound", "5"],
            ["--T", "inf"],
            ["--dt", "inf"],
        ],
        ids=["negative-tau", "nan-tau", "inf-tau", "negative-tail-bound",
             "tail-bound-at-zero-temperature", "inf-T", "inf-dt"],
    )
    def test_bad_scenario_option_returns_2(self, capsys, options):
        # Every temperature, 0 included, takes the thermal path, whose
        # checks reject a bad option before anything is solved.
        argv = ["split", "--T", "0.5", "--n-buffer", "1", "--n-points", "256",
                "--dt", "0.01", *options]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")

    @pytest.mark.parametrize(
        "trap",
        ["task = splitting\nh_f = 20\n", "task = transport\nx0f = 5\nomega_i = 2\n"],
        ids=["splitting", "transport"],
    )
    def test_gap_axis_of_another_task_returns_2(self, tmp_path, capsys, trap):
        # The gap axis profiles an expansion's initial trap; a splitting or
        # transport file printed the unit harmonic trap's gaps.
        cfg = tmp_path / "gap.cfg"
        cfg.write_text(trap + "axis = particle_number_gap\naxis_values = 1, 2\n")
        assert main(["sweep", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "expansion schedules only" in captured.err

    @pytest.mark.parametrize("lam", ["nan", "inf"])
    def test_bad_gap_anharmonicity_returns_2(self, capsys, lam):
        assert main(["gap", "--lambdas", lam, "--n-max", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")

    @pytest.mark.parametrize(
        "omega, message",
        [("-1", "omega_i must be positive"), ("0", "omega_i must be positive"),
         ("nan", "omega_i must be finite, got nan")],
        ids=["negative", "zero", "nan"],
    )
    def test_bad_gap_frequency_returns_2(self, capsys, omega, message):
        # The gap trap is an expansion schedule's, whose checks name the
        # frequency before anything is solved.
        assert main(["gap", "--omega-i", omega, "--n-max", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "lines, counts",
        [
            ("axis = process_time\naxis_values = 1.0\nN_p = -1\n", "N_p=-1, N_b=0"),
            ("axis = process_time\naxis_values = 1.0\nN_p = 0\nN_b = 0\n",
             "N_p=0, N_b=0"),
            ("axis = buffer_count\naxis_values = 0, 2\nN_p = 0\n", "N_p=0, N_b=0"),
        ],
        ids=["negative-N_p", "no-fermions", "no-fermions-on-buffer-axis"],
    )
    def test_bad_particle_counts_in_config_return_2(self, tmp_path, capsys,
                                                    lines, counts):
        # A sweep checks its particle counts as the scenario commands do,
        # before a grid is planned for them.
        cfg = tmp_path / "counts.cfg"
        cfg.write_text("task = splitting\nh_f = 20\nT = 1.0\n" + lines)
        assert main(["sweep", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: invalid particle counts {counts}; "
            "need N_p >= 0, N_b >= 0 and N_p + N_b >= 1\n"
        )

    @pytest.mark.parametrize(
        "line, message",
        [
            ("task = Kicking", "unknown task 'Kicking'; expected one of "
             "['expansion', 'splitting', 'transport']"),
            ("shape = Cubic", "unknown shape 'Cubic'; expected one of "
             "['linear', 'sinusoidal']"),
            ("axis = Width", "unknown axis 'Width'; expected one of "
             "['anharmonicity', 'buffer_count', 'particle_number_gap', "
             "'process_time', 'temperature']"),
        ],
        ids=["task", "shape", "axis"],
    )
    def test_unknown_choice_returns_2(self, tmp_path, capsys, line, message):
        # A choice is matched in any case and quoted as the file gives it.
        base = {"task": "SPLITTING", "shape": "Linear", "T": "1.0", "h_f": "20",
                "axis": "Buffer_Count", "axis_values": "0"}
        base[line.split()[0]] = line.split()[-1]
        cfg = tmp_path / "choice.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in base.items()))
        assert main(["sweep", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("command", ["sweep", "minbuffer"])
    def test_missing_config_returns_2(self, tmp_path, capsys, command):
        cfg = tmp_path / "missing.cfg"
        assert main([command, str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: cannot read {cfg}: No such file or directory\n"

    def test_config_that_is_not_utf8_returns_2(self, tmp_path, capsys):
        # A UTF-16 file starts with the bytes ff fe.
        cfg = tmp_path / "utf16.cfg"
        cfg.write_bytes("task = splitting\n".encode("utf-16"))
        assert cfg.read_bytes()[:2] == b"\xff\xfe"
        assert main(["sweep", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: cannot read {cfg}: not UTF-8 text (invalid start byte)\n"
        )

    def test_config_that_is_a_directory_returns_2(self, tmp_path, capsys):
        assert main(["minbuffer", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: cannot read {tmp_path}: Is a directory\n"

    def test_unwritable_output_returns_2(self, tmp_path, capsys):
        out = tmp_path / "missing" / "gaps.csv"
        assert main(["gap", "--n-max", "2", "-o", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: cannot write {out}: No such file or directory\n"
        )
        assert not out.parent.exists()

    @pytest.mark.parametrize("command", ["sweep", "minbuffer"])
    def test_unwritable_output_fails_before_any_plan(
        self, tmp_path, capsys, monkeypatch, command
    ):
        # A typo in the path costs no run: it is found before the grid.
        plans = []
        planner = pipeline.plan_grid
        monkeypatch.setattr(
            pipeline, "plan_grid", lambda *args: plans.append(args) or planner(*args)
        )
        out = tmp_path / "missing" / "x.csv"
        assert main([command, str(EXPANSION_CFG), "-o", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: cannot write {out}: No such file or directory\n"
        )
        assert plans == []
        assert not out.parent.exists()

    def test_failed_run_leaves_the_output_as_it_was(
        self, tmp_path, capsys, monkeypatch
    ):
        out = tmp_path / "x.csv"
        out.write_bytes(b"kept\r\n")

        def failing(spec):
            raise ConvergenceError("planted")

        monkeypatch.setattr(cli, "run_sweep", failing)
        assert main(["sweep", str(EXPANSION_CFG), "-o", str(out)]) == 3
        assert capsys.readouterr().err == "error: planted\n"
        assert out.read_bytes() == b"kept\r\n"

    @pytest.mark.parametrize("lambdas", ["", ",", " , "])
    def test_empty_gap_lambda_list_returns_2(self, capsys, lambdas):
        # As an empty axis_values list and --n-max 0 do: no header-only CSV.
        assert main(["gap", "--lambdas", lambdas, "--n-max", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: lambda list is empty\n"

    def test_bad_tail_bound_in_config_returns_2(self, tmp_path, capsys):
        # Rejected when the spec is built, at zero temperature too.
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(
            "task = splitting\nT = 1.0\nh_f = 20\naxis = buffer_count\n"
            "axis_values = 0\ntail_bound = 5\n"
        )
        assert main(["sweep", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: tail_bound must be in (0, 1), got 5.0\n"


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

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "argv, name",
        [
            (["expand", "--anharmonicity", "nan"], "lambda"),
            (["split", "--h-f", "inf"], "h_f"),
            (["transport", "--x0-f", "nan"], "x0f"),
            (["expand", "--omega-f", "inf"], "omega_f"),
        ],
    )
    def test_non_finite_trap_parameter_returns_2(self, capsys, argv, name):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: key {name!r} must be a finite number")


class TestOnePath:
    """A scenario command is a one-point process-time sweep that sets only
    the options given on its command line."""

    def test_split_hands_run_sweep_its_one_point(self, monkeypatch, capsys):
        specs, results = [], []
        real = cli.run_sweep

        def recorded(spec):
            specs.append(spec)
            results.append(real(spec))
            return results[-1]

        monkeypatch.setattr(cli, "run_sweep", recorded)
        assert main(["split", "--T", "0.5"]) == 0
        assert specs == [SweepSpec(
            PotentialSchedule.splitting(0.5, h_f=20.0), Axis.PROCESS_TIME, (0.5,)
        )]
        assert capsys.readouterr().out == f"{results[0].rows[0].fidelity!r}\n"

    @pytest.mark.parametrize(
        "argv, schedule",
        [
            (["expand", "--omega-i", "2", "--omega-f", "0.5", "--anharmonicity",
              "0.3"],
             PotentialSchedule.expansion(3.0, omega_f=0.5, omega_i=2.0, lam=0.3,
                                         shape=RampShape.LINEAR)),
            (["transport", "--x0-i", "1", "--x0-f", "4", "--omega", "2",
              "--anharmonicity", "0"],
             PotentialSchedule.transport(3.0, x0_f=4.0, x0_i=1.0, omega=2.0,
                                         lam=0.0, shape=RampShape.LINEAR)),
            (["split", "--h-i", "1", "--h-f", "9", "--omega", "2"],
             PotentialSchedule.splitting(3.0, h_f=9.0, h_i=1.0, omega=2.0,
                                         shape=RampShape.LINEAR)),
        ],
        ids=["expand", "transport", "split"],
    )
    def test_every_option_reaches_the_spec(self, monkeypatch, capsys, argv,
                                           schedule):
        specs = []

        def recorded(spec):
            specs.append(spec)
            return SimpleNamespace(rows=[SimpleNamespace(fidelity=0.25)])

        monkeypatch.setattr(cli, "run_sweep", recorded)
        options = ["--T", "3", "--shape", "linear", "--n-protected", "1",
                   "--n-buffer", "3", "--tau", "0.2", "--tail-bound", "1e-5",
                   "--dt", "0.002", "--n-points", "64", "--skip-dt-check"]
        assert main(argv + options) == 0
        assert capsys.readouterr().out == "0.25\n"
        assert specs == [SweepSpec(
            schedule, Axis.PROCESS_TIME, (3.0,), n_protected=1, n_buffer=3,
            tau=0.2, tail_bound=1e-5, settings=PropagationSettings(0.002),
            n_points=64, check_dt=False,
        )]

    @pytest.mark.parametrize(
        "command, task",
        [("expand", Task.EXPANSION), ("transport", Task.TRANSPORT),
         ("split", Task.SPLITTING)],
    )
    def test_every_option_is_kept_as_text_under_its_config_key(self, command, task):
        # The parser converts and checks nothing: the config reader does.
        flags = ["--T", "--shape", "--n-protected", "--n-buffer", "--tau",
                 "--tail-bound", "--dt", "--n-points"]
        flags += [flag for _, flag, _ in TRAP_PARAMETERS[task]]
        args = vars(cli.build_parser().parse_args(
            [command, *(text for flag in flags for text in (flag, "7.5"))]
        ))
        assert args.pop("command") == command
        assert {args.pop("task"), args.pop("axis")} == {task.value, "process_time"}
        assert len(args) == len(flags) and set(args.values()) == {"7.5"}
        lines = "".join(f"{key} = {text}\n" for key, text in args.items())
        assert parse_config_text(lines) == args

    def test_whole_numbers_may_be_written_as_floats(self, monkeypatch, capsys):
        # As in a sweep file: N_p, N_b and n_points take 2.0 for 2, and a
        # shape is named in any case.
        specs = []

        def recorded(spec):
            specs.append(spec)
            return SimpleNamespace(rows=[SimpleNamespace(fidelity=0.25)])

        monkeypatch.setattr(cli, "run_sweep", recorded)
        for counts, shape in ((["1.0", "256.0", "2.0"], "SINUSOIDAL"),
                              (["1", "256", "2"], "sinusoidal")):
            options = dict(zip(["--n-buffer", "--n-points", "--n-protected"], counts))
            argv = ["split", "--T", "0.5", "--shape", shape, "--dt", "0.01"]
            assert main(argv + [v for item in options.items() for v in item]) == 0
        assert capsys.readouterr().out == "0.25\n0.25\n"
        assert specs[0] == specs[1]
        assert [type(v) for v in (specs[0].n_buffer, specs[0].n_points,
                                  specs[0].n_protected)] == [int, int, int]

    @pytest.mark.parametrize(
        "options, message",
        [(["--n-buffer", "0..2"], "a process-time sweep needs a single N_b value"),
         (["--n-buffer", "1.5"], "cannot parse N_b value '1.5'"),
         (["--n-points", "256.5"], "key 'n_points' must be an integer, got '256.5'"),
         (["--shape", "cubic"], "unknown shape 'cubic'; expected one of "
          "['linear', 'sinusoidal']"),
         (["--T", "0.5,1"], "key 'T': cannot parse '0.5,1' as a number")],
        ids=["range", "fraction", "odd-fraction", "shape", "list"],
    )
    def test_refused_as_in_a_process_time_file(self, capsys, options, message):
        assert main(["split", *options]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


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

    # Small splitting cases: the buffer-count sweep, and the compensation
    # report with a row of each status (``below``, ``crossed``, ``above``).
    SMALL = "task = splitting\nh_f = 20\nN_p = 2\nn_points = 128\ndt = 0.01\n"
    FILE_CASES = {
        "sweep": (["sweep"], "T = 0.5\naxis = buffer_count\naxis_values = 0, 2\n"),
        "compensation": (
            ["sweep", "--compensation"],
            "T = 0.5\nN_b = 1..3\naxis = temperature\naxis_values = 0, 0.5, 1\n"
            "threshold = 0.65\n",
        ),
        "minbuffer": (
            ["minbuffer"],
            "N_b = 0..2\naxis = process_time\naxis_values = 0.5, 1\n"
            "threshold = 0.3\n",
        ),
        "gap": (["gap", "--lambdas", "0,0.5", "--n-max", "3"], None),
    }

    @pytest.mark.parametrize("name", FILE_CASES)
    def test_output_file_holds_the_bytes_stdout_prints(self, tmp_path, capsys, name):
        command, lines = self.FILE_CASES[name]
        if lines is not None:
            cfg = tmp_path / "case.cfg"
            cfg.write_text(self.SMALL + lines)
            command = [*command, str(cfg)]
        assert main(command) == 0
        printed = capsys.readouterr().out
        out = tmp_path / "out.csv"
        assert main([*command, "-o", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert out.read_bytes() == printed.encode()
        assert b"\r" not in out.read_bytes()


class TestStartup:
    def test_cli_loads_no_pool_modules(self):
        # The lanes are bare forks with pipes, so importing the CLI loads
        # neither multiprocessing nor concurrent.futures.
        script = (
            "import sys, pauliblock.cli; print(sorted(m for m in sys.modules"
            " if m.split('.')[0] in ('multiprocessing', 'concurrent')))"
        )
        src = Path(pauliblock.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}
        result = subprocess.run(
            [sys.executable, "-c", script],
            env=env, capture_output=True, text=True, timeout=600,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout == "[]\n"


class TestGridCap:
    def test_hot_split_returns_2(self):
        # At tau = 1e3 the curve plans 22,115 levels on 90,000 points, where
        # one eigensolve would take about 100 GB: the cap refuses it before
        # any matrix is built.  The address space is capped at 4 GB, so a
        # solve past a missing guard fails here with a MemoryError (exit 1)
        # instead of exhausting the machine.
        resource = pytest.importorskip("resource")
        src = Path(pauliblock.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}
        limit = 4 * 2**30
        result = subprocess.run(
            [sys.executable, "-m", "pauliblock.cli", "split", "--T", "0.5",
             "--n-buffer", "2", "--tau", "1e3", "--dt", "0.01"],
            env=env, capture_output=True, text=True, timeout=600,
            preexec_fn=lambda: resource.setrlimit(
                resource.RLIMIT_AS, (limit, limit)
            ),
        )
        assert result.returncode == 2, result.stderr
        assert result.stdout == ""
        assert result.stderr == (
            "error: 22115 levels on 90000 points: an eigensolve takes at most "
            "8192 points\n"
        )


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
