"""Command line interface.

Subcommands: ``expand``, ``transport``, ``split`` (one scenario, fidelity
printed to stdout), ``sweep`` and ``minbuffer`` (config file in, CSV out),
``gap`` (Fermi-gap profile CSV).  Exit codes: 0 success, 2 configuration
error, 3 numerical-convergence failure, 4 grid/containment failure.

A scenario command is a one-point process-time sweep (:func:`run_sweep`).
Its trap options come from :data:`~pauliblock.config.TRAP_PARAMETERS`,
and only T and the driven parameter's final value have a preset here: an
option left out is not passed on, so the schedule factories,
:class:`SweepSpec` and :class:`PropagationSettings` supply its default.
"""

import argparse
import sys

from .config import TRAP_PARAMETERS, load_spec, make_schedule, number_list
from .errors import SimulationError
from .experiments import (
    Axis,
    GapSweepResult,
    SweepSpec,
    min_buffer_search,
    run_sweep,
    temperature_compensation_report,
    write_text,
)
from .potentials import RampShape, Task
from .propagate import PropagationSettings
from .spectral import fermi_gap_profile

# Each scenario command's task, with its presets of T and the final value.
_SCENARIOS = {
    "expand": (Task.EXPANSION, 25.0, 0.01),
    "transport": (Task.TRANSPORT, 11.5, 90.0),
    "split": (Task.SPLITTING, 2.0, 20.0),
}


def _add_scenario_parser(sub, command):
    task, T, final = _SCENARIOS[command]
    parser = sub.add_parser(
        command, help=f"trap {task.value} scenario",
        argument_default=argparse.SUPPRESS,
    )
    parser.add_argument("--T", type=float)
    for _, flag, keyword in TRAP_PARAMETERS[task]:
        if flag is not None:
            parser.add_argument(flag, dest=keyword, type=float)
    parser.set_defaults(T=T, **{TRAP_PARAMETERS[task][0][2]: final})
    parser.add_argument("--shape", choices=[s.value for s in RampShape])
    parser.add_argument("--n-protected", type=int,
                        help="protected particles N_p (default 2)")
    parser.add_argument("--n-buffer", type=int,
                        help="buffer particles N_b (default 0)")
    parser.add_argument("--tau", type=float,
                        help="temperature in hbar*omega/k_B (default 0)")
    parser.add_argument("--tail-bound", type=float)
    parser.add_argument("--dt", type=float)
    parser.add_argument("--n-points", type=int,
                        help="grid point count on the planned domain (even; "
                             "default: planned from the energy range)")
    parser.add_argument("--skip-dt-check", dest="check_dt", action="store_false",
                        help="skip the automatic time-step halving check")


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
    options = dict(vars(args))
    task = _SCENARIOS[options.pop("command")][0]
    T = options.pop("T")
    trap = {k: options.pop(k) for _, _, k in TRAP_PARAMETERS[task] if k in options}
    if "shape" in options:
        trap["shape"] = RampShape(options.pop("shape"))
    if "dt" in options:
        options["settings"] = PropagationSettings(dt=options.pop("dt"))
    spec = SweepSpec(make_schedule(task, T, **trap), Axis.PROCESS_TIME, (T,), **options)
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
