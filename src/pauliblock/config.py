"""Flat key/value sweep configuration files, and each task's trap
parameters.

Format: UTF-8 text, one ``key = value`` pair per line, ``#`` starts a
comment line, blank lines ignored.  Recognized keys:

    task, shape, T, omega_i, omega_f, x0i, x0f, h_i, h_f, lambda,
    N_p, N_b, tau, axis, axis_values, threshold, tail_bound,
    n_points, dt

``task``, ``shape`` and ``axis`` name a member of their enum, in any
case.  ``axis_values`` is a comma-separated list; ``N_b`` is an integer
or an inclusive range written ``lo..hi``.  A trap key of another task
than the file's is an error, and so is a file that cannot be read as
UTF-8 text.  A key a file leaves out is not passed on, so the schedule
factories, :class:`SweepSpec` and :class:`PropagationSettings` supply
every default.  The file only describes the sweep: its (schedule, N_b,
tau) grid is worked out from the spec's axis when the sweep is
evaluated (:mod:`pauliblock.experiments`).

:data:`TRAP_PARAMETERS` lists each task's trap parameters once, for the
config keys here and for the scenario commands' options in
:mod:`pauliblock.cli`.
"""

import math

from .errors import ConfigError
from .experiments import Axis, SweepSpec
from .potentials import PotentialSchedule, RampShape, Task
from .propagate import PropagationSettings

# Each task's trap parameters besides T and shape, as (config key, CLI
# flag or None, factory keyword).  The driven parameter's final value
# comes first: a config file must set it.
TRAP_PARAMETERS = {
    Task.EXPANSION: (
        ("omega_f", "--omega-f", "omega_f"),
        ("omega_i", "--omega-i", "omega_i"),
        ("lambda", "--anharmonicity", "lam"),
    ),
    Task.TRANSPORT: (
        ("x0f", "--x0-f", "x0_f"),
        ("x0i", "--x0-i", "x0_i"),
        ("omega_i", "--omega", "omega"),
        ("lambda", "--anharmonicity", "lam"),
    ),
    Task.SPLITTING: (
        ("h_f", "--h-f", "h_f"),
        ("h_i", "--h-i", "h_i"),
        ("omega_i", "--omega", "omega"),
        ("lambda", None, "lam"),
    ),
}

_FACTORIES = {
    Task.EXPANSION: PotentialSchedule.expansion,
    Task.TRANSPORT: PotentialSchedule.transport,
    Task.SPLITTING: PotentialSchedule.splitting,
}


def make_schedule(task, T, **parameters):
    """``task``'s schedule of duration ``T`` from the factory keywords of
    :data:`TRAP_PARAMETERS` (and ``shape``) that are set."""
    return _FACTORIES[task](T, **parameters)


_TRAP_KEYS = {key for rows in TRAP_PARAMETERS.values() for key, _, _ in rows}
_KNOWN_KEYS = {
    "task", "shape", "T", "N_p", "N_b", "tau", "axis", "axis_values",
    "threshold", "tail_bound", "n_points", "dt", *_TRAP_KEYS,
}


def parse_config_text(text):
    """Raw key -> string value mapping, with duplicate/unknown-key checks."""
    raw = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in raw:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        if not value:
            raise ConfigError(f"line {lineno}: empty value for {key!r}")
        raw[key] = value
    return raw


def _choice(raw, key, enum):
    """The member of ``enum`` whose value is ``raw[key]``, in any case."""
    if key not in raw:
        raise ConfigError(f"missing required key {key!r}")
    try:
        return enum(raw[key].lower())
    except ValueError:
        names = sorted(member.value for member in enum)
        raise ConfigError(f"unknown {key} {raw[key]!r}; expected one of {names}")


def _as_float(raw, key):
    if key not in raw:
        raise ConfigError(f"missing required key {key!r}")
    try:
        value = float(raw[key])
    except ValueError:
        raise ConfigError(f"key {key!r}: cannot parse {raw[key]!r} as a number")
    if not math.isfinite(value):
        raise ConfigError(f"key {key!r} must be a finite number, got {raw[key]!r}")
    return value


def _as_int(raw, key):
    value = _as_float(raw, key)
    if value != int(value):
        raise ConfigError(f"key {key!r} must be an integer, got {raw[key]!r}")
    return int(value)


def number_list(text, what):
    """The numbers of the comma-separated ``text``, at least one."""
    try:
        values = tuple(float(v) for v in text.split(",") if v.strip())
    except ValueError:
        raise ConfigError(f"cannot parse {what} {text!r}")
    if not values:
        raise ConfigError(f"{what} is empty")
    return values


def _axis_values(raw):
    if "axis_values" not in raw:
        raise ConfigError("missing required key 'axis_values'")
    values = number_list(raw["axis_values"], "axis_values")
    if not all(math.isfinite(v) for v in values):
        raise ConfigError(f"axis_values must be finite, got {raw['axis_values']!r}")
    return values


def _buffer_value(raw, key):
    """``N_b``'s count, or its range ``lo..hi`` as a pair; each a whole
    number, which may be written as a float (``2.0``), as ``_as_int``
    reads one."""
    text = raw[key]
    kind = "range" if ".." in text else "value"
    try:
        values = [float(v) for v in text.split("..")]
        if len(values) > 2 or not all(v.is_integer() for v in values):
            raise ValueError(text)
    except ValueError:
        raise ConfigError(f"cannot parse N_b {kind} {text!r}")
    values = tuple(int(v) for v in values)
    return values if kind == "range" else values[0]


def _schedule_from(raw, axis, axis_values):
    task = _choice(raw, "task", Task)
    parameters = {}
    if "shape" in raw:
        parameters["shape"] = _choice(raw, "shape", RampShape)

    if "T" in raw:
        duration = _as_float(raw, "T")
    elif axis is Axis.PROCESS_TIME:
        duration = float(axis_values[0])
    elif axis is Axis.PARTICLE_NUMBER_GAP:
        duration = 1.0  # static problem, the template duration is unused
    else:
        raise ConfigError("missing required key 'T'")
    own = TRAP_PARAMETERS[task]
    foreign = _TRAP_KEYS.difference(key for key, _, _ in own)
    for key in raw:
        if key in foreign:
            raise ConfigError(
                f"key {key!r} is not a parameter of the {task.value} task"
            )
    for i, (key, _, keyword) in enumerate(own):
        if i == 0 or key in raw:  # the final value is required
            parameters[keyword] = _as_float(raw, key)
    return make_schedule(task, duration, **parameters)


def build_spec(raw):
    """Turn a parsed key/value mapping into a :class:`SweepSpec`."""
    axis = _choice(raw, "axis", Axis)
    axis_values = _axis_values(raw)
    schedule = _schedule_from(raw, axis, axis_values)

    # Keys the config leaves out keep the defaults of SweepSpec and
    # PropagationSettings.
    optional = {
        field: parse(raw, key)
        for key, field, parse in (
            ("N_p", "n_protected", _as_int),
            ("tau", "tau", _as_float),
            ("threshold", "threshold", _as_float),
            ("tail_bound", "tail_bound", _as_float),
            ("N_b", "n_buffer", _buffer_value),
            ("n_points", "n_points", _as_int),
        )
        if key in raw
    }
    if "dt" in raw:
        optional["settings"] = PropagationSettings(dt=_as_float(raw, "dt"))
    return SweepSpec(
        schedule=schedule,
        axis=axis,
        axis_values=axis_values,
        **optional,
    )


def load_spec(path):
    """The :class:`SweepSpec` of the config file at ``path``; a file that
    cannot be read as UTF-8 text is a :class:`ConfigError` naming it."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror}")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"cannot read {path}: not UTF-8 text ({exc.reason})")
    return build_spec(parse_config_text(text))
