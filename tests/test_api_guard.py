"""Guards against refactors that silently drop a public or traced name.

`mmwlab.__all__` is the package's public surface, and the benchmark's
span tracer (bench/tracer.py) wraps layer functions at the names their
callers look them up by. Both break quietly when a name moves, so both
are checked here, as is the line between the package and the scalar
reference code in `tests/oracles.py`, which the package must not import,
and the package's one adaptive quadrature call site.
"""

import ast
import sys
from pathlib import Path

import scipy.integrate

import mmwlab
import mmwlab.analytic
import mmwlab.simulate
from mmwlab.scenario import ScenarioParams
from mmwlab.simulate import SimMode

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"

# spans that full-geometry and LOS-ball drops plus a rate solve must record
REACHED = {
    "geometry.near_indoor_masks", "geometry.nearest_building_many",
    "geometry.los_pairs", "geometry.los_to_many", "geometry.sample_buildings",
    "geometry.sample_ppp", "geometry.classify_point",
    "association.classify_many", "association.associate_all",
    "association.schedule", "analytic.optimal_bias_rate",
    "analytic.average_rate", "analytic.coverage_near", "analytic.coverage_far",
    "analytic.mean_load_near", "analytic.mean_load_far", "analytic.quad",
    "analytic.los_distance", "analytic.ue_densities",
    "analytic.effective_mainlobe_radius", "simulate.estimate",
    "simulate.realize",
}


def test_every_public_name_resolves():
    missing = [name for name in mmwlab.__all__ if not hasattr(mmwlab, name)]
    assert missing == []


def test_package_never_imports_the_test_oracles():
    # the scalar oracles (and the Building record) live only in tests/
    bad = []
    for path in sorted((ROOT / "src" / "mmwlab").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [a.name for a in node.names]
            else:
                continue
            if any(n.split(".")[0] in ("oracles", "tests") for n in names):
                bad.append(f"{path.name}:{node.lineno}")
    assert bad == []


def _quad_callers(tree, scope="<module>"):
    """(enclosing function, line) of every call to a name or attribute
    `quad` under `tree`."""
    for node in ast.iter_child_nodes(tree):
        inner = scope
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            inner = node.name
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else \
                getattr(func, "id", None)
            if name == "quad":
                yield scope, node.lineno
        yield from _quad_callers(node, inner)


def test_quad_is_called_only_from_analytic_quad():
    # the traced analytic.quad count and the QuadratureError check both
    # rest on this one call site
    calls = [f"{path.name}:{scope}"
             for path in sorted((ROOT / "src" / "mmwlab").glob("*.py"))
             for scope, _ in _quad_callers(
                 ast.parse(path.read_text(encoding="utf-8")))]
    assert calls == ["analytic.py:_quad"]


def test_bench_tracer_installs_and_uninstalls():
    sys.path.insert(0, str(BENCH))
    try:
        from tracer import _TARGETS, Tracer
    finally:
        sys.path.remove(str(BENCH))
    originals = [owner.__dict__[attr] for owner, attr, _, _ in _TARGETS]
    realize = mmwlab.simulate.realize

    tracer = Tracer().install()
    try:
        assert mmwlab.simulate.realize is not realize
        assert mmwlab.analytic.integrate is not scipy.integrate
        mmwlab.simulate.estimate(ScenarioParams(beta=0.7),
                                 SimMode.FULL_GEOMETRY, n_drops=2)
        mmwlab.simulate.estimate(ScenarioParams(beta=0.7), SimMode.LOS_BALL,
                                 n_drops=2)
        mmwlab.analytic.optimal_bias_rate(ScenarioParams())
    finally:
        tracer.uninstall()

    # the layers still reach the wrapped names, not private copies
    assert set(tracer.stats) >= REACHED

    assert [owner.__dict__[attr] for owner, attr, _, _ in _TARGETS] == originals
    assert mmwlab.analytic.integrate is scipy.integrate
