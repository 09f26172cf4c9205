"""Command line interface.

Subcommands: ``expand``, ``transport``, ``split`` (one scenario, fidelity
printed to stdout), ``sweep`` and ``minbuffer`` (config file in, CSV out),
``gap`` (Fermi-gap profile CSV).  Exit codes: 0 success, 2 configuration
error, 3 numerical-convergence failure, 4 grid/containment failure.
"""

import argparse
import sys

from .config import load_spec
from .errors import ConfigError, SimulationError
from .experiments import (
    GapSweepResult,
    min_buffer_search,
    run_sweep,
    temperature_compensation_report,
)
from .pipeline import Engine
from .potentials import PotentialSchedule, RampShape
from .propagate import PropagationSettings
from .spectral import fermi_gap_profile


def _add_scenario_options(parser):
    parser.add_argument("--shape", choices=["linear", "sinusoidal"],
                        default="sinusoidal")
    parser.add_argument("--n-protected", type=int, default=2,
                        help="protected particles N_p (default 2)")
    parser.add_argument("--n-buffer", type=int, default=0,
                        help="buffer particles N_b (default 0)")
    parser.add_argument("--tau", type=float, default=0.0,
                        help="temperature in hbar*omega/k_B (default 0)")
    parser.add_argument("--tail-bound", type=float, default=1e-6)
    parser.add_argument("--dt", type=float, default=1e-3)
    parser.add_argument("--n-points", type=int, default=None,
                        help="grid point count on the planned domain (even; "
                             "default: planned from the energy range)")
    parser.add_argument("--skip-dt-check", action="store_true",
                        help="skip the automatic time-step halving check")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="pauliblock",
        description="Buffer-protected control of trapped ideal fermions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expand", help="trap expansion scenario")
    p.add_argument("--T", type=float, default=25.0)
    p.add_argument("--omega-i", type=float, default=1.0)
    p.add_argument("--omega-f", type=float, default=0.01)
    p.add_argument("--anharmonicity", type=float, default=1.0)
    _add_scenario_options(p)

    p = sub.add_parser("transport", help="trap transport scenario")
    p.add_argument("--T", type=float, default=11.5)
    p.add_argument("--x0-i", type=float, default=0.0)
    p.add_argument("--x0-f", type=float, default=90.0)
    p.add_argument("--omega", type=float, default=1.0)
    p.add_argument("--anharmonicity", type=float, default=1.0)
    _add_scenario_options(p)

    p = sub.add_parser("split", help="trap splitting scenario")
    p.add_argument("--T", type=float, default=2.0)
    p.add_argument("--h-i", type=float, default=0.0)
    p.add_argument("--h-f", type=float, default=20.0)
    p.add_argument("--omega", type=float, default=1.0)
    _add_scenario_options(p)

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
    p.add_argument("--omega-i", type=float, default=1.0)
    p.add_argument("--output", "-o", default=None)
    return parser


def _schedule_from_args(args):
    shape = RampShape(args.shape)
    if args.command == "expand":
        return PotentialSchedule.expansion(
            args.T, omega_f=args.omega_f, omega_i=args.omega_i,
            lam=args.anharmonicity, shape=shape,
        )
    if args.command == "transport":
        return PotentialSchedule.transport(
            args.T, x0_f=args.x0_f, x0_i=args.x0_i, omega=args.omega,
            lam=args.anharmonicity, shape=shape,
        )
    return PotentialSchedule.splitting(
        args.T, h_f=args.h_f, h_i=args.h_i, omega=args.omega, shape=shape,
    )


def _run_scenario(args):
    schedule = _schedule_from_args(args)
    engine = Engine(args.n_points, PropagationSettings(dt=args.dt))
    result = engine.thermal_fidelity(
        schedule, args.n_protected, args.n_buffer, args.tau,
        tail_bound=args.tail_bound, check_dt=not args.skip_dt_check,
    )
    print(repr(result.value))
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
    try:
        lams = [float(v) for v in args.lambdas.split(",") if v.strip()]
    except ValueError:
        raise ConfigError(f"cannot parse lambda list {args.lambdas!r}")
    rows = [
        (n, lam, gap)
        for lam in lams
        for n, gap in fermi_gap_profile(lam, args.n_max, args.omega_i)
    ]
    return _emit(GapSweepResult(rows), args.output)


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "expand": _run_scenario,
        "transport": _run_scenario,
        "split": _run_scenario,
        "sweep": _run_sweep_command,
        "minbuffer": _run_minbuffer,
        "gap": _run_gap,
    }
    try:
        return handlers[args.command](args)
    except SimulationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
