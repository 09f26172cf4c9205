"""Command line interface.

Subcommands: ``expand``, ``transport``, ``split`` (one scenario, fidelity
printed to stdout), ``sweep`` and ``minbuffer`` (config file in, CSV out),
``gap`` (Fermi-gap profile CSV).  Exit codes: 0 success, 2 configuration
error, 3 numerical-convergence failure, 4 grid/containment failure.

A scenario command is a one-point process-time sweep file: its options
are read as that file's ``key = value`` pairs
(:func:`~pauliblock.config.build_spec`), each stored under its config key
as the text given, and the sweep is run (:func:`run_sweep`).  The trap
options come from :data:`~pauliblock.config.TRAP_PARAMETERS`, and only T
and the driven parameter's final value have a preset here: an option
left out is not passed on, so the schedule factories, :class:`SweepSpec`
and :class:`PropagationSettings` supply its default.
"""

import argparse
import dataclasses
import sys

from .config import TRAP_PARAMETERS, build_spec, load_spec, number_list
from .errors import SimulationError
from .experiments import (
    GapSweepResult,
    min_buffer_search,
    run_sweep,
    temperature_compensation_report,
    write_text,
)
from .potentials import Task
from .spectral import fermi_gap_profile

# Each scenario command's task, with its presets of T and the final value
# as a config file writes them.
_SCENARIOS = {
    "expand": (Task.EXPANSION, "25", "0.01"),
    "transport": (Task.TRANSPORT, "11.5", "90"),
    "split": (Task.SPLITTING, "2", "20"),
}

# The scenario options besides T and the trap's, as (flag, config key, help).
_OPTIONS = (
    ("--shape", "shape", "ramp shape, linear or sinusoidal, in any case"),
    ("--n-protected", "N_p", "protected particles N_p (default 2)"),
    ("--n-buffer", "N_b", "buffer particles N_b (default 0)"),
    ("--tau", "tau", "temperature in hbar*omega/k_B (default 0)"),
    ("--tail-bound", "tail_bound", None),
    ("--dt", "dt", None),
    ("--n-points", "n_points", "grid point count on the planned domain (even; "
                               "default: planned from the energy range)"),
)


def _add_scenario_parser(sub, command):
    task, T, final = _SCENARIOS[command]
    parser = sub.add_parser(
        command, help=f"trap {task.value} scenario",
        argument_default=argparse.SUPPRESS,
    )
    parser.add_argument("--T")
    for key, flag, _ in TRAP_PARAMETERS[task]:
        if flag is not None:
            parser.add_argument(flag, dest=key)
    for flag, key, text in _OPTIONS:
        parser.add_argument(flag, dest=key, help=text)
    parser.add_argument("--skip-dt-check", dest="check_dt", action="store_false",
                        help="skip the automatic time-step halving check")
    parser.set_defaults(task=task.value, axis="process_time", T=T,
                        **{TRAP_PARAMETERS[task][0][0]: final})


def build_parser():
    parser = argparse.ArgumentParser(
        prog="pauliblock",
        description="Buffer-protected control of trapped ideal fermions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command in _SCENARIOS:
        _add_scenario_parser(sub, command)

    p = sub.add_parser("sweep", help="run a sweep described by a config file")
    p.add_argument("config")
    p.add_argument("--output", "-o", default=None, help="CSV path (default stdout)")
    p.add_argument("--compensation", action="store_true",
                   help="emit the temperature-compensation report instead "
                        "of the raw temperature sweep")

    p = sub.add_parser("minbuffer", help="minimal buffer count per process time")
    p.add_argument("config")
    p.add_argument("--output", "-o", default=None)

    p = sub.add_parser("gap", help="Fermi gap versus particle number")
    p.add_argument("--lambdas", default="1.0",
                   help="comma-separated anharmonicities (default 1.0)")
    p.add_argument("--n-max", type=int, default=20)
    p.add_argument("--omega-i", type=float, default=argparse.SUPPRESS)
    p.add_argument("--output", "-o", default=None)
    return parser


def _run_scenario(args):
    raw = dict(vars(args), axis_values=args.T)
    del raw["command"]
    check_dt = raw.pop("check_dt", True)  # a run option, not a config key
    spec = dataclasses.replace(build_spec(raw), check_dt=check_dt)
    print(repr(run_sweep(spec).rows[0].fidelity))
    return 0


def _emit(result, output):
    if output is None:
        sys.stdout.write(result.to_csv(None))
    else:
        result.to_csv(output)
    return 0


def _run_sweep_command(args):
    spec = load_spec(args.config)
    if args.compensation:
        return _emit(temperature_compensation_report(spec), args.output)
    return _emit(run_sweep(spec), args.output)


def _run_minbuffer(args):
    spec = load_spec(args.config)
    return _emit(min_buffer_search(spec), args.output)


def _run_gap(args):
    lams = number_list(args.lambdas, "lambda list")
    omega = {"omega_i": args.omega_i} if "omega_i" in args else {}
    rows = [
        (n, lam, gap)
        for lam in lams
        for n, gap in fermi_gap_profile(lam, args.n_max, **omega)
    ]
    return _emit(GapSweepResult(rows), args.output)


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "sweep": _run_sweep_command,
        "minbuffer": _run_minbuffer,
        "gap": _run_gap,
    }
    try:
        # An unwritable output fails before any work, not after the run.
        if getattr(args, "output", None) is not None:
            write_text(args.output, "", "a")
        return handlers.get(args.command, _run_scenario)(args)
    except SimulationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
