"""Buffer-protected quantum control of trapped ideal fermions in 1D.

Simulates time-dependent single-particle dynamics in expanding, moving
and splitting traps, and evaluates how well a layer of buffer fermions
shields the lowest-lying particles from excitations, at zero and finite
temperature.  Units: hbar = m = 1; times in 1/omega, energies in
hbar*omega, temperatures in hbar*omega/k_B.
"""

from .errors import (
    ConfigError,
    ContainmentError,
    ConvergenceError,
    GridError,
    InstabilityError,
    NeedsMoreLevelsError,
    NumericalConsistencyError,
    ResolutionError,
    SimulationError,
    TooLargeError,
)
from .experiments import (
    Axis,
    SweepSpec,
    min_buffer_search,
    run_sweep,
    temperature_compensation_report,
)
from .fidelity import (
    FidelityResult,
    Method,
    OverlapMatrix,
    fidelity_fast,
    fidelity_oracle,
)
from .grid import Grid
from .pipeline import Engine
from .potentials import PotentialSchedule, RampShape, Task
from .propagate import PropagationSettings, propagate_basis
from .spectral import EigenBasis, fermi_gap_profile, solve
from .thermal import ThermalEnsemble, enumerate_ensemble

__version__ = "0.1.0"

__all__ = [
    "Axis",
    "ConfigError",
    "ContainmentError",
    "ConvergenceError",
    "EigenBasis",
    "Engine",
    "FidelityResult",
    "Grid",
    "GridError",
    "InstabilityError",
    "Method",
    "NeedsMoreLevelsError",
    "NumericalConsistencyError",
    "OverlapMatrix",
    "PotentialSchedule",
    "PropagationSettings",
    "RampShape",
    "ResolutionError",
    "SimulationError",
    "SweepSpec",
    "Task",
    "ThermalEnsemble",
    "TooLargeError",
    "enumerate_ensemble",
    "fermi_gap_profile",
    "fidelity_fast",
    "fidelity_oracle",
    "min_buffer_search",
    "propagate_basis",
    "run_sweep",
    "solve",
    "temperature_compensation_report",
]
