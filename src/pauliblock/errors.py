"""Exception types shared across the package.

Every error carries an ``exit_code`` used by the command line interface:
2 for configuration problems, 3 for numerical-convergence failures and
4 for grid/containment failures.
"""

import copyreg


class SimulationError(Exception):
    """Base class for all package errors."""

    exit_code = 1

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

    def __init__(self, step, message=None):
        self.step = step
        super().__init__(message or f"non-finite amplitude at step {step}")


class NumericalConsistencyError(ConvergenceError):
    """A quantity left the range allowed by its exact-arithmetic identity."""


class NeedsMoreLevelsError(ConvergenceError):
    """Thermal enumeration ran out of single-particle levels."""

    def __init__(self, required, available, message=None):
        self.required = required
        self.available = available
        super().__init__(
            message
            or f"need at least {required} levels, only {available} available"
        )


class GridError(SimulationError):
    """Grid-related failure (leakage, undersampling)."""

    exit_code = 4


class EdgeAmplitudeError(GridError):
    """A state kept weight at an edge of the grid, in position or momentum.

    ``state`` (1-based), ``ratio`` (edge amplitude relative to the peak),
    ``tol``, ``step`` (propagation step, None in an eigensolve) and
    ``grid`` (the lattice the state was checked on) are set by the check
    that raised the error.
    """

    def __init__(self, message, state=None, ratio=None, tol=None, step=None, grid=None):
        self.state = state
        self.ratio = ratio
        self.tol = tol
        self.step = step
        self.grid = grid
        super().__init__(message)

    @property
    def excess(self):
        """The ratio in units of its tolerance."""
        return self.ratio / self.tol


class ContainmentError(EdgeAmplitudeError):
    """State amplitude reached the position-space boundary of the grid."""


class ResolutionError(EdgeAmplitudeError):
    """State has significant weight at the edge of the momentum lattice."""
