"""Span tracer that wraps mmwlab's public layer functions from outside.

Each wrapper replaces a name where its caller looks it up (a module
global, or a method on a class), records the call as a span, and keeps
per-function totals: calls, self time (the span minus the spans of
wrapped callees) and work counters. Nothing in `src/` is edited;
`uninstall` puts every original object back.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

import mmwlab.analytic
import mmwlab.association
import mmwlab.cli
import mmwlab.geometry
import mmwlab.simulate
from mmwlab.geometry import BuildingField
from mmwlab.simulate import SimMode

LAYERS = ("scenario", "geometry", "association", "analytic", "simulate", "cli")


class _Frame:
    __slots__ = ("child_s", "seen")

    def __init__(self):
        self.child_s = 0.0
        self.seen: dict[str, int] = {}


class _QuadProxy:
    """Stands in for `scipy.integrate` inside `mmwlab.analytic`, so only
    that module's `integrate.quad` calls are traced."""

    def __init__(self, module, quad):
        self._module = module
        self.quad = quad

    def __getattr__(self, name):
        return getattr(self._module, name)


def _n(x) -> int:
    return len(x) if hasattr(x, "__len__") else 1


def _points(args, kwargs, result, parent):
    return {"points": _n(args[1])}          # (self, points, ...)


def _pairs(args, kwargs, result, parent):
    return {"pairs": max(_n(args[0]), _n(args[1]))}


def _assoc_pairs(args, kwargs, result, parent):
    # associate_all screens the k nearest BSs with its first los_pairs
    # call; any later call in the same span is the exhaustive fallback.
    n = max(_n(args[0]), _n(args[1]))
    out = {"pairs": n, "assoc_pairs": n}
    if parent is not None and parent.seen.get("geometry.los_pairs", 0) > 1:
        out["fallback_pairs"] = n
    return out


def _first_len(key):
    def work(args, kwargs, result, parent):
        return {key: _n(args[0])}
    return work


def _drop(args, kwargs, result, parent):
    out = {"drops": 1, "pilot": int(result.path == 1),
           "uncovered": int(result.uncovered)}
    if result.mode == SimMode.FULL_GEOMETRY.value:
        out["full_drops"] = 1
    return out


# (module or class, attribute, metric name, work counter or None)
_TARGETS = [
    # scenario
    (mmwlab.cli, "validate", "scenario.validate", None),
    (mmwlab.cli, "params_for_city", "scenario.params_for_city", None),
    # geometry
    (BuildingField, "near_indoor_masks", "geometry.near_indoor_masks", _points),
    (BuildingField, "nearest_building_many", "geometry.nearest_building_many",
     None),
    (mmwlab.association, "los_pairs", "geometry.los_pairs", _assoc_pairs),
    (mmwlab.geometry, "los_pairs", "geometry.los_pairs", _pairs),
    (mmwlab.simulate, "los_to_many", "geometry.los_to_many", None),
    (mmwlab.simulate, "sample_buildings", "geometry.sample_buildings", None),
    (mmwlab.simulate, "sample_ppp", "geometry.sample_ppp", None),
    (mmwlab.simulate, "classify_point", "geometry.classify_point", None),
    # association
    (mmwlab.simulate, "classify_many", "association.classify_many",
     _first_len("bs")),
    (mmwlab.simulate, "associate_all", "association.associate_all",
     _first_len("ues")),
    (mmwlab.simulate, "schedule", "association.schedule", None),
    # analytic
    (mmwlab.analytic, "optimal_bias_rate", "analytic.optimal_bias_rate", None),
    (mmwlab.analytic, "optimal_bias_coverage", "analytic.optimal_bias_coverage",
     None),
    (mmwlab.cli, "optimal_bias_rate", "analytic.optimal_bias_rate", None),
    (mmwlab.cli, "analytic_report", "analytic.analytic_report", None),
    (mmwlab.analytic, "average_rate", "analytic.average_rate", None),
    (mmwlab.cli, "average_rate", "analytic.average_rate", None),
    (mmwlab.analytic, "coverage", "analytic.coverage", None),
    (mmwlab.analytic, "coverage_near", "analytic.coverage_near", None),
    (mmwlab.analytic, "coverage_far", "analytic.coverage_far", None),
    (mmwlab.analytic, "mean_load_near", "analytic.mean_load_near", None),
    (mmwlab.analytic, "mean_load_far", "analytic.mean_load_far", None),
    (mmwlab.analytic, "los_distance", "analytic.los_distance", None),
    (mmwlab.simulate, "los_distance", "analytic.los_distance", None),
    (mmwlab.simulate, "ue_densities", "analytic.ue_densities", None),
    (mmwlab.simulate, "effective_mainlobe_radius",
     "analytic.effective_mainlobe_radius", None),
    # simulate
    (mmwlab.simulate, "estimate", "simulate.estimate", None),
    (mmwlab.cli, "estimate", "simulate.estimate", None),
    (mmwlab.simulate, "realize", "simulate.realize", _drop),
    # cli
    (mmwlab.cli, "_sweep_point", "cli._sweep_point", None),
]


class Tracer:
    """Installs span wrappers on the layer functions and aggregates them.

    `stats[name]` holds calls, self_s and work counters for one wrapped
    function; `root_s` is the summed duration of outermost spans.
    """

    def __init__(self):
        self.stats: dict[str, dict[str, float]] = defaultdict(
            lambda: defaultdict(float))
        self.root_s = 0.0
        self._stack: list[_Frame] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrapper(self, fn, name, work):
        stack, stats = self._stack, self.stats

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            if parent is not None:
                parent.seen[name] = parent.seen.get(name, 0) + 1
            frame = _Frame()
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                st = stats[name]
                st["calls"] += 1
                st["self_s"] += dt - frame.child_s
                if parent is not None:
                    parent.child_s += dt
                else:
                    self.root_s += dt
            if work is not None:
                for key, val in work(args, kwargs, result, parent).items():
                    st[key] += val
            return result
        return traced

    def span(self, name, fn, *args, **kwargs):
        """Call `fn` inside a span named `name` (for entry points the
        caller invokes directly, such as `mmwlab.cli.main`)."""
        return self._wrapper(fn, name, None)(*args, **kwargs)

    def install(self) -> "Tracer":
        for owner, attr, name, work in _TARGETS:
            original = owner.__dict__[attr]
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self._wrapper(original, name, work))
        integ = mmwlab.analytic.integrate
        quad = self._wrapper(integ.quad, "analytic.quad", None)
        self._patches.append((mmwlab.analytic, "integrate", integ))
        mmwlab.analytic.integrate = _QuadProxy(integ, quad)
        return self

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def to_json(self) -> dict:
        return {"root_s": self.root_s,
                "stats": {k: dict(v) for k, v in self.stats.items()}}


# Per-layer metrics: self time as a share of the traced wall time, and
# work counts per operation (drop or bias solve) or per sweep command.
SELF_PCT = (
    "geometry.near_indoor_masks", "geometry.los_pairs",
    "geometry.nearest_building_many", "geometry.sample_buildings",
    "association.classify_many", "association.associate_all",
    "association.schedule", "simulate.realize", "analytic.quad",
    "analytic.coverage_near", "analytic.coverage_far",
    "analytic.mean_load_near", "analytic.mean_load_far",
)
COUNTS = {
    "geometry.near_indoor_masks.calls": ("geometry.near_indoor_masks", "calls"),
    "geometry.near_indoor_masks.points": ("geometry.near_indoor_masks", "points"),
    "geometry.los_pairs.pairs": ("geometry.los_pairs", "pairs"),
    "geometry.classify_point.calls": ("geometry.classify_point", "calls"),
    "association.classify_many.bs": ("association.classify_many", "bs"),
    "association.associate_all.ues": ("association.associate_all", "ues"),
    "association.schedule.calls": ("association.schedule", "calls"),
    "analytic.average_rate.calls": ("analytic.average_rate", "calls"),
    "analytic.quad.calls": ("analytic.quad", "calls"),
    "analytic.los_distance.calls": ("analytic.los_distance", "calls"),
    "scenario.validate.calls": ("scenario.validate", "calls"),
}


def layer_metrics(trace: dict, wall: float, per: int) -> dict:
    """Per-layer metrics from `Tracer.to_json()` output.

    `wall` is the traced wall time the shares refer to and `per` the
    number of operations the counts are divided by; ratios whose
    denominator never occurred on a workload read 0.
    """
    stats = trace["stats"]
    wall = max(wall, 1e-9)
    per = max(per, 1)

    def get(fn, key):
        return stats.get(fn, {}).get(key, 0.0)

    def share(num, den):
        return num / den if den else 0.0

    out = {f"{fn}.self_pct": 100.0 * get(fn, "self_s") / wall
           for fn in SELF_PCT}
    for layer in LAYERS:
        busy = sum(v.get("self_s", 0.0) for k, v in stats.items()
                   if k.split(".", 1)[0] == layer)
        out[f"{layer}.self_pct"] = 100.0 * busy / wall
    for name, (fn, key) in COUNTS.items():
        out[name] = get(fn, key) / per
    out["simulate.field_accept_ratio"] = share(
        get("simulate.realize", "full_drops"),
        get("geometry.classify_point", "calls"))
    out["association.fallback_pair_share"] = 100.0 * share(
        get("geometry.los_pairs", "fallback_pairs"),
        get("geometry.los_pairs", "assoc_pairs"))
    drops = get("simulate.realize", "drops")
    out["simulate.path_pilot_share"] = 100.0 * share(
        get("simulate.realize", "pilot"), drops)
    out["simulate.uncovered_share"] = 100.0 * share(
        get("simulate.realize", "uncovered"), drops)
    out["trace.accounted_pct"] = 100.0 * sum(
        v.get("self_s", 0.0) for v in stats.values()) / wall
    return out
