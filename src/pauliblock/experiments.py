"""Parameter sweeps over the control tasks, with CSV output.

One sweep varies a single axis (process time, buffer count,
anharmonicity, temperature, or the Fermi-gap particle number) while the
rest of the scenario is held fixed.  Axes that share propagations reuse
them through the :class:`~pauliblock.pipeline.Engine` caches: a buffer
sweep propagates once and slices rows, a temperature sweep propagates
once and re-weights configurations.

Output is deterministic: rows follow the axis grid, floats are written
with shortest round-trip precision and lines end with LF, so re-running a
sweep reproduces the file byte for byte.
"""

import enum
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

from .errors import ConfigError
from .fidelity import ORACLE_MAX_N, ORACLE_MAX_NP, OverlapMatrix, fidelity_fast
from .fidelity import verify_against_oracle
from .pipeline import Engine
from .potentials import PotentialSchedule, Task
from .propagate import PropagationSettings
from .spectral import fermi_gap_profile
from .thermal import DEFAULT_TAIL_BOUND


class Axis(enum.Enum):
    PROCESS_TIME = "process_time"
    BUFFER_COUNT = "buffer_count"
    ANHARMONICITY = "anharmonicity"
    TEMPERATURE = "temperature"
    PARTICLE_NUMBER_GAP = "particle_number_gap"


@dataclass(frozen=True)
class SweepSpec:
    """One sweep: a schedule template plus the axis to vary."""

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
    verify_oracle: bool = False
    check_dt: bool = True
    workers: int = 1

    def __post_init__(self):
        values = tuple(self.axis_values)
        object.__setattr__(self, "axis_values", values)
        if not values:
            raise ConfigError("axis_values must not be empty")
        if any(b < a for a, b in zip(values, values[1:])):
            raise ConfigError("axis_values must be ascending")
        if not 0.0 < self.threshold < 1.0:
            raise ConfigError(f"threshold must be in (0, 1), got {self.threshold}")
        if self.tau < 0:
            raise ConfigError("tau must be >= 0")

    def buffer_range(self):
        """(lo, hi) inclusive buffer range from ``n_buffer``."""
        if isinstance(self.n_buffer, tuple):
            lo, hi = self.n_buffer
        else:
            lo = hi = int(self.n_buffer)
        if lo < 0 or hi < lo:
            raise ConfigError(f"invalid buffer range {self.n_buffer}")
        return int(lo), int(hi)


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
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_lines(lines, path_or_buffer):
    text = "\n".join(lines) + "\n"
    if path_or_buffer is None:
        return text
    if hasattr(path_or_buffer, "write"):
        path_or_buffer.write(text)
        return None
    with open(path_or_buffer, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)
    return None


@dataclass
class SweepResult:
    spec: SweepSpec
    rows: list

    def fidelities(self):
        return [row.fidelity for row in self.rows]

    def to_csv(self, path_or_buffer=None):
        lines = [SWEEP_HEADER]
        for r in self.rows:
            lines.append(
                ",".join(
                    _fmt(v)
                    for v in (
                        r.axis,
                        r.axis_value,
                        r.task,
                        r.shape,
                        r.T,
                        r.n_protected,
                        r.n_buffer,
                        r.tau,
                        r.lam,
                        r.fidelity,
                        r.method,
                        r.dt,
                        r.n_points,
                    )
                )
            )
        return _write_lines(lines, path_or_buffer)


@dataclass
class GapSweepResult:
    lam: float
    rows: list  # (N, lam, gap)

    def to_csv(self, path_or_buffer=None):
        lines = ["N,lambda,delta_E"]
        for n, lam, gap in self.rows:
            lines.append(f"{n},{_fmt(float(lam))},{_fmt(float(gap))}")
        return _write_lines(lines, path_or_buffer)


def _point_fidelity(engine, schedule, spec, n_buffer, tau, settings):
    if tau > 0:
        result = engine.thermal_fidelity(
            schedule,
            spec.n_protected,
            n_buffer,
            tau,
            settings,
            tail_bound=spec.tail_bound,
        )
    else:
        result = engine.scenario_fidelity(
            schedule,
            spec.n_protected,
            n_buffer,
            settings,
            verify_oracle=_oracle_applies(spec, n_buffer),
        )
    return result


def _oracle_applies(spec, n_buffer):
    n_total = spec.n_protected + n_buffer
    return (
        spec.verify_oracle
        and n_total <= ORACLE_MAX_N
        and spec.n_protected <= ORACLE_MAX_NP
    )


def _family_settings(engine, spec, schedule, n_states):
    if spec.settings is not engine.settings:
        engine.settings = spec.settings
    return engine.validated_settings(schedule, n_states, spec.check_dt)


def run_sweep(spec, engine=None):
    """Evaluate the sweep and return a :class:`SweepResult`.

    The gap axis returns a :class:`GapSweepResult` instead (different
    column schema, no dynamics involved).
    """
    if spec.axis is Axis.PARTICLE_NUMBER_GAP:
        return _run_gap_sweep(spec)
    engine = engine or Engine(n_points=spec.n_points, settings=spec.settings)
    dispatch = {
        Axis.PROCESS_TIME: _sweep_process_time,
        Axis.BUFFER_COUNT: _sweep_buffer_count,
        Axis.ANHARMONICITY: _sweep_anharmonicity,
        Axis.TEMPERATURE: _sweep_temperature,
    }
    rows = dispatch[spec.axis](spec, engine)
    return SweepResult(spec, rows)


def _engine_points(engine, schedule):
    grid = engine.family_grid(schedule)
    return grid.n_points if grid is not None else -1


def _make_row(spec, schedule, axis_value, n_buffer, tau, value, method, settings,
              n_points):
    return SweepRow(
        axis=spec.axis.value,
        axis_value=float(axis_value),
        task=schedule.task.value,
        shape=schedule.shape.value,
        T=float(schedule.T),
        n_protected=spec.n_protected,
        n_buffer=int(n_buffer),
        tau=float(tau),
        lam=float(schedule.lam),
        fidelity=float(value),
        method=method,
        dt=float(settings.dt),
        n_points=n_points,
    )


def _run_gap_sweep(spec):
    n_values = [int(v) for v in spec.axis_values]
    if any(v < 1 for v in n_values):
        raise ConfigError("particle numbers for the gap sweep must be >= 1")
    lam = spec.schedule.lam
    profile = dict(fermi_gap_profile(lam, max(n_values), spec.schedule.omega_i))
    rows = [(n, lam, profile[n]) for n in n_values]
    return GapSweepResult(lam, rows)


def _sweep_process_time(spec, engine):
    lo, hi = spec.buffer_range()
    if lo != hi:
        raise ConfigError("a process-time sweep needs a single N_b value")
    n_states = spec.n_protected + hi
    template = spec.schedule
    settings = _family_settings(
        engine, spec, template.with_duration(spec.axis_values[0]), n_states
    )
    if spec.workers > 1:
        values = _parallel_points(
            spec, [template.with_duration(t) for t in spec.axis_values], settings
        )
        return [
            _make_row(spec, template.with_duration(t), t, hi, spec.tau, v, m,
                      settings, pts)
            for (t, (v, m, pts)) in zip(spec.axis_values, values)
        ]
    rows = []
    for t in spec.axis_values:
        schedule = template.with_duration(t)
        result = _point_fidelity(engine, schedule, spec, hi, spec.tau, settings)
        rows.append(
            _make_row(
                spec, schedule, t, hi, spec.tau, result.value,
                result.method.value, settings, _engine_points(engine, schedule),
            )
        )
    return rows


def _sweep_anharmonicity(spec, engine):
    if spec.schedule.task is Task.SPLITTING:
        raise ConfigError("the splitting potential has no anharmonicity to sweep")
    lo, hi = spec.buffer_range()
    if lo != hi:
        raise ConfigError("an anharmonicity sweep needs a single N_b value")
    n_states = spec.n_protected + hi
    rows = []
    schedules = [spec.schedule.with_anharmonicity(l) for l in spec.axis_values]
    settings = _family_settings(engine, spec, schedules[0], n_states)
    if spec.workers > 1:
        values = _parallel_points(spec, schedules, settings)
        return [
            _make_row(spec, s, l, hi, spec.tau, v, m, settings, pts)
            for s, l, (v, m, pts) in zip(schedules, spec.axis_values, values)
        ]
    for schedule, lam in zip(schedules, spec.axis_values):
        result = _point_fidelity(engine, schedule, spec, hi, spec.tau, settings)
        rows.append(
            _make_row(
                spec, schedule, lam, hi, spec.tau, result.value,
                result.method.value, settings, _engine_points(engine, schedule),
            )
        )
    return rows


def _sweep_buffer_count(spec, engine):
    buffers = [int(v) for v in spec.axis_values]
    if any(v < 0 for v in buffers):
        raise ConfigError("buffer counts must be >= 0")
    schedule = spec.schedule
    n_max = spec.n_protected + max(buffers)
    settings = _family_settings(engine, spec, schedule, n_max)
    rows = []
    if spec.tau > 0:
        # Largest system first so its propagation serves the smaller ones.
        cache = {}
        for nb in sorted(set(buffers), reverse=True):
            cache[nb] = engine.thermal_fidelity(
                schedule, spec.n_protected, nb, spec.tau, settings,
                tail_bound=spec.tail_bound,
            )
        for nb in buffers:
            result = cache[nb]
            rows.append(
                _make_row(
                    spec, schedule, nb, nb, spec.tau, result.value,
                    result.method.value, settings,
                    _engine_points(engine, schedule),
                )
            )
        return rows
    matrix, _, _ = engine.master_overlaps(
        schedule, n_max, spec.n_protected, settings
    )
    for nb in buffers:
        a = OverlapMatrix(matrix[: spec.n_protected + nb])
        result = fidelity_fast(a)
        if _oracle_applies(spec, nb):
            verify_against_oracle(a, result)
        rows.append(
            _make_row(
                spec, schedule, nb, nb, spec.tau, result.value,
                result.method.value, settings, _engine_points(engine, schedule),
            )
        )
    return rows


def _sweep_temperature(spec, engine):
    lo, hi = spec.buffer_range()
    if lo != hi:
        raise ConfigError("a temperature sweep needs a single N_b value")
    schedule = spec.schedule
    taus = [float(t) for t in spec.axis_values]
    if taus and taus[0] < 0:
        raise ConfigError("temperatures must be >= 0")
    settings = _family_settings(engine, spec, schedule, spec.n_protected + hi)
    values, _ = engine.thermal_fidelity_curve(
        schedule, spec.n_protected, hi, taus, settings, tail_bound=spec.tail_bound
    )
    points = _engine_points(engine, schedule)
    return [
        _make_row(spec, schedule, tau, hi, tau, v, "gram", settings, points)
        for tau, v in zip(taus, values)
    ]


# -- worker-pool evaluation (independent grid points only) ---------------


def _pool_job(payload):
    spec, schedule = payload
    engine = Engine(n_points=spec.n_points, settings=spec.settings)
    result = _point_fidelity(
        engine, schedule, spec, spec.buffer_range()[1], spec.tau, spec.settings
    )
    return result.value, result.method.value, _engine_points(engine, schedule)


def _parallel_points(spec, schedules, settings):
    run_spec = replace(spec, settings=settings, check_dt=False)
    payloads = [(run_spec, s) for s in schedules]
    with ProcessPoolExecutor(max_workers=spec.workers) as pool:
        return list(pool.map(_pool_job, payloads))


# -- minimal buffer search -------------------------------------------------


@dataclass
class MinBufferResult:
    spec: SweepSpec
    rows: list  # (T, n_b_min or None)

    def to_csv(self, path_or_buffer=None):
        lines = [
            f"# threshold = {_fmt(self.spec.threshold)}",
            f"# T_grid = {' '.join(_fmt(float(t)) for t in self.spec.axis_values)}",
            "T,N_b_min,saturated",
        ]
        for t, nb in self.rows:
            if nb is None:
                lines.append(f"{_fmt(float(t))},,true")
            else:
                lines.append(f"{_fmt(float(t))},{nb},false")
        return _write_lines(lines, path_or_buffer)


def min_buffer_search(spec, n_b_max=None, engine=None):
    """Smallest buffer count reaching the threshold at all later times.

    For each T on the grid, reports the least ``N_b <= n_b_max`` such that
    the fidelity stays at or above ``spec.threshold`` for every grid point
    at time T or later ("later" is evaluated on the supplied grid only).
    ``None`` marks saturation: no admissible buffer count qualifies.
    """
    if spec.axis is not Axis.PROCESS_TIME:
        raise ConfigError("min_buffer_search expects a process-time grid")
    engine = engine or Engine(n_points=spec.n_points, settings=spec.settings)
    lo, hi = spec.buffer_range()
    if n_b_max is None:
        n_b_max = hi
    n_max = spec.n_protected + n_b_max
    template = spec.schedule
    settings = _family_settings(
        engine, spec, template.with_duration(spec.axis_values[0]), n_max
    )

    table = []  # per T: fidelity for nb = 0..n_b_max
    for t in spec.axis_values:
        schedule = template.with_duration(t)
        if spec.tau > 0:
            row = [None] * (n_b_max + 1)
            for nb in range(n_b_max, -1, -1):
                row[nb] = engine.thermal_fidelity(
                    schedule, spec.n_protected, nb, spec.tau, settings,
                    tail_bound=spec.tail_bound,
                ).value
        else:
            matrix, _, _ = engine.master_overlaps(
                schedule, n_max, spec.n_protected, settings
            )
            row = [
                fidelity_fast(
                    OverlapMatrix(matrix[: spec.n_protected + nb])
                ).value
                for nb in range(n_b_max + 1)
            ]
        table.append(row)

    rows = []
    suffix_ok = [True] * (n_b_max + 1)
    results = [None] * len(spec.axis_values)
    for i in range(len(spec.axis_values) - 1, -1, -1):
        for nb in range(n_b_max + 1):
            suffix_ok[nb] = suffix_ok[nb] and table[i][nb] >= spec.threshold
        found = next((nb for nb in range(n_b_max + 1) if suffix_ok[nb]), None)
        results[i] = found
    for t, found in zip(spec.axis_values, results):
        rows.append((float(t), found))
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
        lines = [
            f"# threshold = {_fmt(self.spec.threshold)}",
            "N_b,tau_cross,spacing,status",
        ]
        for r in self.rows:
            tau = "" if r.tau_cross is None else _fmt(float(r.tau_cross))
            spacing = "" if r.spacing is None else _fmt(float(r.spacing))
            lines.append(f"{r.n_buffer},{tau},{spacing},{r.status}")
        return _write_lines(lines, path_or_buffer)

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
    engine = engine or Engine(n_points=spec.n_points, settings=spec.settings)
    taus = [float(t) for t in spec.axis_values]
    lo, hi = spec.buffer_range()
    settings = _family_settings(engine, spec, spec.schedule, spec.n_protected + hi)

    curves = {}
    for nb in range(hi, lo - 1, -1):  # big systems first to seed the cache
        curves[nb], _ = engine.thermal_fidelity_curve(
            spec.schedule, spec.n_protected, nb, taus, settings,
            tail_bound=spec.tail_bound,
        )

    rows = []
    previous_cross = None
    for nb in range(lo, hi + 1):
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
