"""Flat key/value sweep configuration files.

Format: UTF-8 text, one ``key = value`` pair per line, ``#`` starts a
comment line, blank lines ignored.  Recognized keys:

    task, shape, T, omega_i, omega_f, x0i, x0f, h_i, h_f, lambda,
    N_p, N_b, tau, axis, axis_values, threshold, tail_bound,
    n_points, dt, verify_oracle, workers

``axis_values`` is a comma-separated list; ``N_b`` is an integer or an
inclusive range written ``lo..hi``.
"""

from .errors import ConfigError
from .experiments import Axis, SweepSpec
from .pipeline import default_workers
from .potentials import PotentialSchedule, RampShape, Task
from .propagate import PropagationSettings

_KNOWN_KEYS = {
    "task",
    "shape",
    "T",
    "omega_i",
    "omega_f",
    "x0i",
    "x0f",
    "h_i",
    "h_f",
    "lambda",
    "N_p",
    "N_b",
    "tau",
    "axis",
    "axis_values",
    "threshold",
    "tail_bound",
    "n_points",
    "dt",
    "verify_oracle",
    "workers",
}

_TASKS = {t.value: t for t in Task}
_SHAPES = {s.value: s for s in RampShape}
_AXES = {a.value: a for a in Axis}


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


def _as_float(raw, key, default=None):
    if key not in raw:
        if default is None:
            raise ConfigError(f"missing required key {key!r}")
        return default
    try:
        return float(raw[key])
    except ValueError:
        raise ConfigError(f"key {key!r}: cannot parse {raw[key]!r} as a number")


def _as_int(raw, key, default=None):
    value = _as_float(raw, key, default)
    if value != int(value):
        raise ConfigError(f"key {key!r} must be an integer, got {raw[key]!r}")
    return int(value)


def _as_bool(raw, key, default=False):
    if key not in raw:
        return default
    value = raw[key].lower()
    if value in ("true", "yes", "1", "on"):
        return True
    if value in ("false", "no", "0", "off"):
        return False
    raise ConfigError(f"key {key!r}: cannot parse {raw[key]!r} as a boolean")


def _axis_values(raw):
    if "axis_values" not in raw:
        raise ConfigError("missing required key 'axis_values'")
    try:
        values = tuple(float(v) for v in raw["axis_values"].split(",") if v.strip())
    except ValueError:
        raise ConfigError(f"cannot parse axis_values {raw['axis_values']!r}")
    if not values:
        raise ConfigError("axis_values is empty")
    return values


def _buffer_value(raw):
    if "N_b" not in raw:
        return 0
    text = raw["N_b"]
    if ".." in text:
        lo_text, _, hi_text = text.partition("..")
        try:
            lo, hi = int(lo_text), int(hi_text)
        except ValueError:
            raise ConfigError(f"cannot parse N_b range {text!r}")
        return (lo, hi)
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"cannot parse N_b value {text!r}")


def _schedule_from(raw, axis, axis_values):
    task_name = raw.get("task")
    if task_name is None:
        raise ConfigError("missing required key 'task'")
    task = _TASKS.get(task_name.lower())
    if task is None:
        raise ConfigError(
            f"unknown task {task_name!r}; expected one of {sorted(_TASKS)}"
        )
    shape_name = raw.get("shape", "sinusoidal").lower()
    shape = _SHAPES.get(shape_name)
    if shape is None:
        raise ConfigError(
            f"unknown shape {shape_name!r}; expected one of {sorted(_SHAPES)}"
        )

    if "T" in raw:
        duration = _as_float(raw, "T")
    elif axis is Axis.PROCESS_TIME:
        duration = float(axis_values[0])
    elif axis is Axis.PARTICLE_NUMBER_GAP:
        duration = 1.0  # static problem, the template duration is unused
    else:
        raise ConfigError("missing required key 'T'")

    if task is Task.EXPANSION:
        return PotentialSchedule.expansion(
            duration,
            omega_f=_as_float(raw, "omega_f"),
            omega_i=_as_float(raw, "omega_i", 1.0),
            lam=_as_float(raw, "lambda", 1.0),
            shape=shape,
        )
    if task is Task.TRANSPORT:
        return PotentialSchedule.transport(
            duration,
            x0_f=_as_float(raw, "x0f"),
            x0_i=_as_float(raw, "x0i", 0.0),
            omega=_as_float(raw, "omega_i", 1.0),
            lam=_as_float(raw, "lambda", 1.0),
            shape=shape,
        )
    return PotentialSchedule.splitting(
        duration,
        h_f=_as_float(raw, "h_f"),
        h_i=_as_float(raw, "h_i", 0.0),
        omega=_as_float(raw, "omega_i", 1.0),
        lam=_as_float(raw, "lambda", 0.0),
        shape=shape,
    )


def build_spec(raw):
    """Turn a parsed key/value mapping into a :class:`SweepSpec`."""
    axis_name = raw.get("axis")
    if axis_name is None:
        raise ConfigError("missing required key 'axis'")
    axis = _AXES.get(axis_name.lower())
    if axis is None:
        raise ConfigError(
            f"unknown axis {axis_name!r}; expected one of {sorted(_AXES)}"
        )
    axis_values = _axis_values(raw)
    schedule = _schedule_from(raw, axis, axis_values)

    n_points = None
    if "n_points" in raw:
        n_points = _as_int(raw, "n_points")
    settings = PropagationSettings(dt=_as_float(raw, "dt", 1e-3))

    return SweepSpec(
        schedule=schedule,
        axis=axis,
        axis_values=axis_values,
        n_protected=_as_int(raw, "N_p", 2),
        n_buffer=_buffer_value(raw),
        tau=_as_float(raw, "tau", 0.0),
        threshold=_as_float(raw, "threshold", 0.95),
        tail_bound=_as_float(raw, "tail_bound", 1e-6),
        settings=settings,
        n_points=n_points,
        verify_oracle=_as_bool(raw, "verify_oracle"),
        workers=_as_int(raw, "workers", default_workers()),
    )


def load_spec(path):
    with open(path, "r", encoding="utf-8") as handle:
        return build_spec(parse_config_text(handle.read()))
