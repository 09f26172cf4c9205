"""Spans recorded around pauliblock's public functions, and the per-layer
metrics computed from them.

The wrappers live here, outside the package: each one replaces a name in
the module that *looks the name up* at call time.  ``pipeline``,
``experiments`` and ``cli`` bind their callees with ``from ... import``,
so patching the defining module alone would leave those layers reading
zero.  Only ``spectral.solve`` is reached through its module
(``spectral.solve(...)`` in ``pipeline``), and ``Engine`` methods through
the class.

Spans are kept in memory by a :class:`Tracer` and returned at the end of
the run.  A layer's self time is its span minus the part of that interval
covered by its wrapped child spans.
"""

import importlib
import math
import time


class Tracer:
    """Collects nested spans of one single-threaded run."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, func, observe=None):
        """Return ``func`` recording one span per call.

        ``observe(args, kwargs, result)`` may return a dict of counts that
        is stored on the span; it runs only when the call returns.
        """
        tracer = self

        def wrapper(*args, **kwargs):
            span = {
                "id": len(tracer.spans),
                "parent": tracer._stack[-1]["id"] if tracer._stack else None,
                "name": name,
                "start": time.perf_counter(),
                "end": None,
                "error": None,
                "attrs": {},
            }
            tracer.spans.append(span)
            tracer._stack.append(span)
            try:
                result = func(*args, **kwargs)
            except BaseException as exc:
                span["error"] = type(exc).__name__
                raise
            finally:
                span["end"] = time.perf_counter()
                tracer._stack.pop()
            if observe is not None:
                span["attrs"] = observe(args, kwargs, result)
            return result

        wrapper.__wrapped__ = func
        return wrapper


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _observe_solve(args, kwargs, result):
    potential = _arg(args, kwargs, 0, "potential")
    grid = _arg(args, kwargs, 1, "grid")
    return {
        "n_points": int(grid.n_points),
        "n_states": int(result.size),
        "key": [grid.x_min, grid.x_max, int(grid.n_points),
                hash(potential.tobytes())],
    }


def _observe_propagate(args, kwargs, result):
    basis = _arg(args, kwargs, 0, "basis")
    n_states = int(_arg(args, kwargs, 1, "n_states"))
    schedule = _arg(args, kwargs, 2, "schedule")
    settings = _arg(args, kwargs, 3, "settings")
    steps, _ = settings.steps_for(schedule.T)
    return {
        "n_states": n_states,
        "steps": int(steps),
        "n_points": int(basis.grid.n_points),
    }


def _observe_ensemble(args, kwargs, result):
    return {"configs": int(result.size)}


def _observe_gram(args, kwargs, result):
    return {"sets": int(len(_arg(args, kwargs, 1, "row_sets")))}


# (module, attribute, span name, observer).  A module is named relative to
# the package; "pipeline.Engine" patches methods of the class, which every
# caller reaches through the class.
WRAPPED = (
    ("spectral", "solve", "spectral.solve", _observe_solve),
    ("pipeline", "propagate_basis", "propagate.propagate_basis",
     _observe_propagate),
    ("pipeline", "enumerate_ensemble", "thermal.enumerate_ensemble",
     _observe_ensemble),
    ("pipeline", "gram_fidelity_values", "fidelity.gram_fidelity_values",
     _observe_gram),
    ("pipeline", "fidelity_fast", "fidelity.fidelity_fast", None),
    ("experiments", "fidelity_fast", "fidelity.fidelity_fast", None),
    ("pipeline.Engine", "validated_settings", "pipeline.validated_settings",
     None),
    ("pipeline.Engine", "endpoint_bases", "pipeline.endpoint_bases", None),
    ("pipeline.Engine", "evolved_states", "pipeline.evolved_states", None),
    ("pipeline.Engine", "master_overlaps", "pipeline.master_overlaps", None),
    ("pipeline.Engine", "scenario_fidelity", "pipeline.scenario_fidelity",
     None),
    ("pipeline.Engine", "thermal_fidelity_curve",
     "pipeline.thermal_fidelity_curve", None),
    ("cli", "run_sweep", "experiments.run_sweep", None),
    ("cli", "temperature_compensation_report",
     "experiments.temperature_compensation_report", None),
    ("cli", "min_buffer_search", "experiments.min_buffer_search", None),
)

# Spans that enter the experiments layer from the CLI.
EXPERIMENT_ENTRIES = (
    "experiments.run_sweep",
    "experiments.temperature_compensation_report",
    "experiments.min_buffer_search",
)


def install(tracer, package):
    """Patch every name in :data:`WRAPPED`; raises if one is missing."""
    for module_name, attribute, span_name, observe in WRAPPED:
        module_path, _, class_name = module_name.partition(".")
        owner = importlib.import_module(f"{package}.{module_path}")
        if class_name:
            owner = getattr(owner, class_name)
        func = getattr(owner, attribute)  # AttributeError: layer renamed
        setattr(owner, attribute, tracer.wrap(span_name, func, observe))


def covered(intervals, start, end):
    """Length of [start, end] covered by the union of ``intervals``."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans):
    """Span id -> duration minus the time covered by its child spans."""
    children = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(
                (span["start"], span["end"])
            )
    return {
        span["id"]: span["end"] - span["start"]
        - covered(children.get(span["id"], ()), span["start"], span["end"])
        for span in spans
    }


def _outermost(spans, name):
    """Spans called ``name`` with no ancestor of the same name."""
    by_id = {span["id"]: span for span in spans}
    result = []
    for span in spans:
        if span["name"] != name:
            continue
        parent = span["parent"]
        while parent is not None and by_id[parent]["name"] != name:
            parent = by_id[parent]["parent"]
        if parent is None:
            result.append(span)
    return result


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def layer_metrics(spans, root_name, cpu_s):
    """Per-layer metrics (name -> value) of one traced run.

    ``root_name`` is the span around the whole ``cli.main`` call and
    ``cpu_s`` the process CPU time spent inside it.
    """
    own = self_times(spans)

    def named(name):
        return [span for span in spans if span["name"] == name]

    def busy(name):
        return sum(s["end"] - s["start"] for s in _outermost(spans, name))

    def self_sum(names):
        return sum(own[s["id"]] for s in spans if s["name"] in names)

    solves = named("spectral.solve")
    solved = [s for s in solves if s["error"] is None]
    # A returned solve is superseded when a later solve of the same
    # potential on the same grid returned more states.
    superseded = sum(
        1
        for i, s in enumerate(solved)
        if any(
            later["attrs"]["key"] == s["attrs"]["key"]
            and later["attrs"]["n_states"] > s["attrs"]["n_states"]
            for later in solved[i + 1:]
        )
    )
    props = [s for s in named("propagate.propagate_basis") if s["error"] is None]
    state_steps = sum(p["attrs"]["n_states"] * p["attrs"]["steps"] for p in props)
    point_state_steps = sum(
        p["attrs"]["n_states"] * p["attrs"]["steps"] * p["attrs"]["n_points"]
        for p in props
    )
    fft_flop = sum(
        2 * 5 * n * math.log2(n) * p["attrs"]["n_states"] * p["attrs"]["steps"]
        for p in props
        for n in [p["attrs"]["n_points"]]
    )
    prop_s = busy("propagate.propagate_basis")
    evolved = named("pipeline.evolved_states")
    parents_of_props = {p["parent"] for p in named("propagate.propagate_basis")}
    evolved_hits = sum(1 for e in evolved if e["id"] not in parents_of_props)
    ensembles = named("thermal.enumerate_ensemble")
    grams = named("fidelity.gram_fidelity_values")
    root = _outermost(spans, root_name)

    return {
        "spectral.solve.calls": len(solves),
        "spectral.solve.s": busy("spectral.solve"),
        "spectral.solve.failed": sum(
            1 for s in solves
            if s["error"] in ("ContainmentError", "ResolutionError")
        ),
        "spectral.solve.useful_ratio": _ratio(
            len(solved) - superseded, len(solves)
        ),
        "spectral.solve.n_points_max": max(
            (s["attrs"]["n_points"] for s in solved), default=0
        ),
        "propagate.propagate_basis.calls": len(named("propagate.propagate_basis")),
        "propagate.propagate_basis.s": prop_s,
        "propagate.state_steps": state_steps,
        "propagate.us_per_state_step": _ratio(prop_s * 1e6, state_steps),
        "propagate.ns_per_point_state_step": _ratio(
            prop_s * 1e9, point_state_steps
        ),
        "propagate.fft_gflop_computed": fft_flop / 1e9,
        "pipeline.validated_settings.s": busy("pipeline.validated_settings"),
        "pipeline.endpoint_bases.calls": len(named("pipeline.endpoint_bases")),
        "pipeline.endpoint_bases.s": busy("pipeline.endpoint_bases"),
        "pipeline.evolved_states.calls": len(evolved),
        "pipeline.evolved_states.hit_ratio": _ratio(evolved_hits, len(evolved)),
        "pipeline.master_overlaps.self_s": self_sum({"pipeline.master_overlaps"}),
        "pipeline.self_s": self_sum(
            {s["name"] for s in spans if s["name"].startswith("pipeline.")}
        ),
        "thermal.enumerate_ensemble.calls": len(ensembles),
        "thermal.enumerate_ensemble.s": busy("thermal.enumerate_ensemble"),
        "thermal.enumerate_ensemble.failed": sum(
            1 for s in ensembles if s["error"] == "NeedsMoreLevelsError"
        ),
        "thermal.configs": sum(
            s["attrs"]["configs"] for s in ensembles if s["error"] is None
        ),
        "fidelity.gram_fidelity_values.calls": len(grams),
        "fidelity.gram_fidelity_values.s": busy("fidelity.gram_fidelity_values"),
        "fidelity.gram_fidelity_values.sets": sum(
            s["attrs"]["sets"] for s in grams if s["error"] is None
        ),
        "fidelity.fidelity_fast.calls": len(named("fidelity.fidelity_fast")),
        "fidelity.fidelity_fast.s": busy("fidelity.fidelity_fast"),
        "experiments.self_s": self_sum(set(EXPERIMENT_ENTRIES)),
        "cli.main.cpu_s": cpu_s,
        "cli.main.traced_wall_s": sum(s["end"] - s["start"] for s in root),
        "cli.unattributed_s": self_sum({root_name}),
        "trace.spans": len(spans),
    }
