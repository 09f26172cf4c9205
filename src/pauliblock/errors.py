"""Exception types shared across the package.

Every error carries an ``exit_code`` used by the command line interface:
2 for configuration problems, 3 for numerical-convergence failures and
4 for grid/containment failures.  Beside its message, an error carries
structured fields, the keyword arguments it was raised with, as
attributes: ``ConvergenceError(message, defect=d, tolerance=t).defect``
is ``d``.
"""

import copyreg


class SimulationError(Exception):
    """Base class for all package errors."""

    exit_code = 1

    def __init__(self, *args, **fields):
        super().__init__(*args)
        self.__dict__.update(fields)

    def __reduce__(self):
        # Rebuild from the message and the structured fields without calling
        # __init__, whose signature differs between subclasses, so that an
        # error tripped in a forked lane arrives intact.
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


class ConfigError(SimulationError):
    """Invalid configuration file, option value or rejected input."""

    exit_code = 2


class ConvergenceError(SimulationError):
    """A numerical procedure failed to reach its accuracy target."""

    exit_code = 3


class InstabilityError(ConvergenceError):
    """Non-finite amplitudes appeared during time stepping."""

    def __init__(self, step):
        super().__init__(f"non-finite amplitude at step {step}", step=step)


class NumericalConsistencyError(ConvergenceError):
    """A quantity left the range allowed by its exact-arithmetic identity."""


class NeedsMoreLevelsError(ConvergenceError):
    """A ladder of single-particle levels is too short: ``required``
    levels are needed and ``available`` were solved.  A thermal curve
    raises it when its ladder still fails the truncation certificate after
    one more planning (:func:`~pauliblock.thermal.levels_needed`), and
    :func:`~pauliblock.thermal.enumerate_ensemble` when the ladder holds
    fewer levels than fermions."""

    def __init__(self, required, available):
        super().__init__(
            f"need at least {required} levels, only {available} available",
            required=required, available=available,
        )


class TimeStepError(ConvergenceError):
    """The time-step check ran out of rungs.

    ``dt`` is the finest rung it evolved, ``change`` the largest change of
    the overlaps in the last pair of rungs it compared (None if it compared
    none) and ``tolerance`` the change it accepts between dt and dt/2.
    """

    def __init__(self, dt, change, tolerance):
        super().__init__(
            f"time step did not converge to tolerance {tolerance} "
            f"after halving down to dt={dt}",
            dt=dt, change=change, tolerance=tolerance,
        )


class GridError(SimulationError):
    """Grid-related failure (leakage, undersampling)."""

    exit_code = 4


class EdgeAmplitudeError(GridError):
    """A state kept weight at an edge of the grid, in position or momentum.

    :func:`~pauliblock.spectral.check_grid`, the one check that raises it,
    sets the fields ``state`` (1-based), ``ratio`` (edge amplitude
    relative to the peak), ``tol``, ``step`` (propagation step, None in an
    eigensolve) and ``grid`` (the lattice the state was checked on).
    """


class ContainmentError(EdgeAmplitudeError):
    """State amplitude reached the position-space boundary of the grid."""


class ResolutionError(EdgeAmplitudeError):
    """State has significant weight at the edge of the momentum lattice."""
