"""Parameter sweeps over the control tasks, with CSV output.

One sweep varies a single axis (process time, buffer count,
anharmonicity, temperature, or the Fermi-gap particle number) while the
rest of the scenario is held fixed.  Every sweep, the minimal-buffer
search and the temperature-compensation report is a grid of (schedule,
N_b, tau) points, and one function (:func:`_evaluate`) works that grid
out from the spec's axis and evaluates it: the time step is validated
once, and each schedule propagates once: its N_p targets, backward,
whatever the buffer count.  The three commands differ only in their
input checks and in what they read from the points.  Each buffer count
is one thermal curve
(:meth:`~pauliblock.pipeline.Engine.thermal_fidelity_curve`; zero
temperature is its ground configuration) that reads rows of the targets'
overlaps with the initial levels and projects each temperature onto its
particle number, and each curve keeps only its values, one per
temperature.

The engine plans a sweep's runs in one call
(:meth:`~pauliblock.pipeline.Engine.validated_settings`): it plans each
family once, for all its schedules and the levels its largest system's
hottest temperature is estimated to need, validates the time step on the
grid the curves then use, and runs every schedule's propagation up
front, at the same time in one lane per CPU it may use.  The curves then
read those runs in order, in this process, so the output does not
depend on the CPU count.

Every result is written by one CSV writer (:func:`_write_csv`).  Output
is deterministic: rows follow the axis grid, floats are written with
shortest round-trip precision, an absent value is an empty cell and
lines end with LF, so re-running a sweep at the same OpenBLAS thread
count reproduces the file byte for byte (the last bits of a fidelity
depend on that count).
"""

import enum
from dataclasses import astuple, dataclass, field

from .errors import ConfigError
from .fidelity import (
    # Not called here: perfbench/spans.py wraps this name and raises if it
    # is missing, until an in-program trace replaces the patched names.
    fidelity_fast,
)
from .pipeline import Engine, check_counts
from .potentials import PotentialSchedule, Task
from .propagate import PropagationSettings
from .spectral import fermi_gap_profile
from .thermal import DEFAULT_TAIL_BOUND, check_tail_bound, check_temperatures


class Axis(enum.Enum):
    PROCESS_TIME = "process_time"
    BUFFER_COUNT = "buffer_count"
    ANHARMONICITY = "anharmonicity"
    TEMPERATURE = "temperature"
    PARTICLE_NUMBER_GAP = "particle_number_gap"


@dataclass(frozen=True)
class SweepSpec:
    """One sweep: a schedule template plus the axis to vary.

    ``n_points`` must match the ``n_points`` of an engine a sweep is
    handed, since that engine plans the grids.
    """

    schedule: PotentialSchedule
    axis: Axis
    axis_values: tuple
    n_protected: int = 2
    n_buffer: object = 0  # int, or inclusive (lo, hi) range where supported
    tau: float = 0.0
    threshold: float = 0.95
    tail_bound: float = DEFAULT_TAIL_BOUND
    settings: PropagationSettings = field(default_factory=PropagationSettings)
    n_points: object = None
    check_dt: bool = True

    def __post_init__(self):
        values = tuple(self.axis_values)
        object.__setattr__(self, "axis_values", values)
        if not values:
            raise ConfigError("axis_values must not be empty")
        if any(b < a for a, b in zip(values, values[1:])):
            raise ConfigError("axis_values must be ascending")
        if not 0.0 < self.threshold < 1.0:
            raise ConfigError(f"threshold must be in (0, 1), got {self.threshold}")
        check_temperatures([self.tau])
        if self.axis is Axis.TEMPERATURE:
            check_temperatures(values)
        check_tail_bound(self.tail_bound)
        # The gap axis has no fermions to count; the others check their
        # fewest before anything is planned.
        if self.axis is Axis.BUFFER_COUNT:
            check_counts(self.n_protected, min(_counts(values, "buffer counts", 0)))
        elif self.axis is not Axis.PARTICLE_NUMBER_GAP:
            check_counts(self.n_protected, self.buffer_range()[0])

    def buffer_range(self):
        """(lo, hi) inclusive buffer range from ``n_buffer``, whole numbers."""
        if isinstance(self.n_buffer, tuple):
            bounds = self.n_buffer
        else:
            bounds = (self.n_buffer, self.n_buffer)
        lo, hi = _counts(bounds, "buffer counts", 0)
        if hi < lo:
            raise ConfigError(f"invalid buffer range {self.n_buffer}")
        return lo, hi


@dataclass(frozen=True)
class SweepRow:
    axis: str
    axis_value: float
    task: str
    shape: str
    T: float
    n_protected: int
    n_buffer: int
    tau: float
    lam: float
    fidelity: float
    method: str
    dt: float
    n_points: int


SWEEP_HEADER = (
    "axis,axis_value,task,shape,T,N_p,N_b,tau,lambda,F,method,dt,n_points"
)


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):  # numpy's float64 too
        return repr(float(value))
    return str(value)


def write_text(path, text, mode="w"):
    """Write ``text`` to ``path``; a path that cannot be written is a
    :class:`ConfigError`.  ``mode="a"`` with no text checks that it can
    be, leaving an existing file as it was (a missing one is made empty)."""
    try:
        with open(path, mode, encoding="utf-8", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror}")


def _write_csv(path_or_buffer, header, rows, comments=()):
    """Write ``# comment`` lines, ``header`` and ``rows`` (one cell per
    value) with LF line ends (:func:`write_text` for a path); return the
    text when ``path_or_buffer`` is None."""
    lines = [f"# {c}" for c in comments] + [header]
    text = "\n".join(lines + [",".join(map(_fmt, row)) for row in rows]) + "\n"
    if path_or_buffer is None:
        return text
    if hasattr(path_or_buffer, "write"):
        path_or_buffer.write(text)
    else:
        write_text(path_or_buffer, text)
    return None


@dataclass
class SweepResult:
    spec: SweepSpec
    rows: list

    def fidelities(self):
        return [row.fidelity for row in self.rows]

    def to_csv(self, path_or_buffer=None):
        return _write_csv(path_or_buffer, SWEEP_HEADER, map(astuple, self.rows))


@dataclass
class GapSweepResult:
    rows: list  # (N, lam, gap)

    def to_csv(self, path_or_buffer=None):
        rows = [(n, float(lam), float(gap)) for n, lam, gap in self.rows]
        return _write_csv(path_or_buffer, "N,lambda,delta_E", rows)


# -- the evaluation of every sweep ---------------------------------------


def _evaluate(spec, engine):
    """Every (schedule, N_b, tau) point of a sweep.

    ``spec.axis`` sets the grid: the schedules (one per process time or
    anharmonicity, else ``spec.schedule``), the buffer counts (the axis
    values on the buffer-count axis, else ``spec.n_buffer``'s range) and
    the temperatures (the axis values on the temperature axis, else
    ``spec.tau``).  ``engine`` is used if handed (it must plan grids with
    the spec's ``n_points``), else a new one.  The engine validates the
    time step once, on the first schedule with the largest system, and
    plans every schedule's runs; then it evaluates one curve per schedule
    and buffer count, largest first.  Returns ``(schedules, buffers, taus,
    settings, points)``: the grid, the validated settings and, per
    schedule, ``({N_b: values}, n_points)`` with one value per temperature
    and the point count of its grid after its last curve.
    """
    if engine is None:
        engine = Engine(spec.n_points, spec.settings)
    elif engine.n_points != spec.n_points:
        raise ConfigError(
            f"the sweep asks for n_points={spec.n_points}, but the engine "
            f"it was handed plans grids with n_points={engine.n_points}"
        )
    schedules, taus = [spec.schedule], [spec.tau]
    if spec.axis is Axis.PROCESS_TIME:
        schedules = [spec.schedule.with_duration(t) for t in spec.axis_values]
    elif spec.axis is Axis.ANHARMONICITY:
        schedules = [spec.schedule.with_anharmonicity(l) for l in spec.axis_values]
    elif spec.axis is Axis.TEMPERATURE:
        taus = [float(t) for t in spec.axis_values]
    if spec.axis is Axis.BUFFER_COUNT:
        buffers = _counts(spec.axis_values, "buffer counts", 0)
    else:
        lo, hi = spec.buffer_range()
        buffers = range(lo, hi + 1)
    largest_first = sorted(set(buffers), reverse=True)
    settings = engine.validated_settings(
        schedules, spec.n_protected + largest_first[0], spec.n_protected,
        max(taus), spec.settings, spec.check_dt, spec.tail_bound,
    )
    points = []
    for schedule in schedules:
        values = {
            nb: engine.thermal_fidelity_curve(
                schedule, spec.n_protected, nb, taus, settings,
                tail_bound=spec.tail_bound,
            )
            for nb in largest_first
        }
        points.append((values, engine.family_grid(schedule).n_points))
    return schedules, buffers, taus, settings, points


_SINGLE_VALUE_AXES = {
    Axis.PROCESS_TIME: "a process-time",
    Axis.ANHARMONICITY: "an anharmonicity",
    Axis.TEMPERATURE: "a temperature",
}


def run_sweep(spec, engine=None):
    """Evaluate the sweep and return a :class:`SweepResult`.

    The gap axis returns a :class:`GapSweepResult` instead (different
    column schema, no dynamics involved).
    """
    if spec.axis is Axis.PARTICLE_NUMBER_GAP:
        return _run_gap_sweep(spec)
    if spec.axis is Axis.ANHARMONICITY and spec.schedule.task is Task.SPLITTING:
        raise ConfigError("the splitting potential has no anharmonicity to sweep")
    if spec.axis is not Axis.BUFFER_COUNT:
        lo, hi = spec.buffer_range()
        if lo != hi:
            raise ConfigError(
                f"{_SINGLE_VALUE_AXES[spec.axis]} sweep needs a single N_b value"
            )
    schedules, buffers, taus, settings, points = _evaluate(spec, engine)

    rows = []
    for schedule, (values, n_points) in zip(schedules, points):
        for nb in buffers:
            for tau, value in zip(taus, values[nb]):
                axis_value = {
                    Axis.PROCESS_TIME: schedule.T,
                    Axis.ANHARMONICITY: schedule.lam,
                    Axis.BUFFER_COUNT: nb,
                    Axis.TEMPERATURE: tau,
                }[spec.axis]
                rows.append(SweepRow(
                    axis=spec.axis.value,
                    axis_value=float(axis_value),
                    task=schedule.task.value,
                    shape=schedule.shape.value,
                    T=float(schedule.T),
                    n_protected=spec.n_protected,
                    n_buffer=nb,
                    tau=float(tau),
                    lam=float(schedule.lam),
                    fidelity=float(value),
                    method="gram",
                    dt=float(settings.dt),
                    n_points=n_points,
                ))
    return SweepResult(spec, rows)


def _counts(values, what, least):
    """``values`` as ints, each a finite whole number >= ``least`` (not a
    bool)."""
    for value in values:
        if isinstance(value, bool) or not float(value).is_integer() or value < least:
            raise ConfigError(f"{what} must be integers >= {least}, got {value}")
    return [int(value) for value in values]


def _run_gap_sweep(spec):
    n_values = _counts(spec.axis_values, "particle numbers for the gap sweep", 1)
    lam = spec.schedule.lam
    profile = dict(fermi_gap_profile(lam, max(n_values), spec.schedule.omega_i))
    return GapSweepResult([(n, lam, profile[n]) for n in n_values])


# -- minimal buffer search -------------------------------------------------


@dataclass
class MinBufferResult:
    spec: SweepSpec
    rows: list  # (T, n_b_min or None)

    def to_csv(self, path_or_buffer=None):
        grid = " ".join(_fmt(float(t)) for t in self.spec.axis_values)
        return _write_csv(
            path_or_buffer, "T,N_b_min,saturated",
            [(float(t), nb, nb is None) for t, nb in self.rows],
            (f"threshold = {_fmt(self.spec.threshold)}", f"T_grid = {grid}"),
        )


def min_buffer_search(spec, engine=None):
    """Smallest buffer count reaching the threshold at all later times.

    For each T on the grid, reports the least ``N_b`` of ``spec.n_buffer``'s
    range ``lo..hi`` (only those counts are evaluated) such that the
    fidelity stays at or above ``spec.threshold`` for every grid point at
    time T or later ("later" is evaluated on the supplied grid only).
    ``None`` marks saturation: no buffer count of the range qualifies.
    """
    if spec.axis is not Axis.PROCESS_TIME:
        raise ConfigError("min_buffer_search expects a process-time grid")
    _, buffers, _, _, points = _evaluate(spec, engine)

    # Walk back from the longest time, keeping which N_b stayed above.
    found = []
    suffix_ok = dict.fromkeys(buffers, True)
    for values, _ in reversed(points):
        suffix_ok = {
            nb: ok and values[nb][0] >= spec.threshold
            for nb, ok in suffix_ok.items()
        }
        found.append(next((nb for nb, ok in suffix_ok.items() if ok), None))
    rows = [(float(t), nb) for t, nb in zip(spec.axis_values, reversed(found))]
    return MinBufferResult(spec, rows)


# -- temperature compensation ------------------------------------------------


@dataclass
class CompensationRow:
    n_buffer: int
    tau_cross: object  # float or None
    spacing: object  # float or None
    status: str  # "crossed" | "above" | "below"


@dataclass
class CompensationResult:
    spec: SweepSpec
    rows: list

    def to_csv(self, path_or_buffer=None):
        return _write_csv(
            path_or_buffer, "N_b,tau_cross,spacing,status", map(astuple, self.rows),
            (f"threshold = {_fmt(self.spec.threshold)}",),
        )

    def crossings(self):
        return [
            (r.n_buffer, r.tau_cross) for r in self.rows if r.status == "crossed"
        ]


def temperature_compensation_report(spec, engine=None):
    """Threshold-crossing temperature for each buffer count.

    ``spec.axis_values`` is the temperature grid and ``spec.n_buffer`` an
    inclusive (lo, hi) range.  For each N_b the crossing of
    ``spec.threshold`` is located by linear interpolation on the grid;
    curves that never cross are reported as open intervals ("above" when
    the fidelity stays above threshold, "below" when it starts below).
    """
    if spec.axis is not Axis.TEMPERATURE:
        raise ConfigError("temperature_compensation_report expects a tau grid")
    _, buffers, taus, _, [(curves, _)] = _evaluate(spec, engine)

    rows = []
    previous_cross = None
    for nb in buffers:
        values = curves[nb]
        cross = None
        for i in range(len(taus) - 1):
            if values[i] >= spec.threshold > values[i + 1]:
                frac = (spec.threshold - values[i]) / (values[i + 1] - values[i])
                cross = taus[i] + frac * (taus[i + 1] - taus[i])
                break
        if cross is not None:
            spacing = None if previous_cross is None else cross - previous_cross
            rows.append(CompensationRow(nb, cross, spacing, "crossed"))
            previous_cross = cross
        elif values[0] < spec.threshold:
            rows.append(CompensationRow(nb, None, None, "below"))
        else:
            rows.append(CompensationRow(nb, None, None, "above"))
    return CompensationResult(spec, rows)
