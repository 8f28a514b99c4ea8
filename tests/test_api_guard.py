"""Guards against refactors that silently drop a public or traced name.

`mmwlab.__all__` is the package's public surface, and the benchmark's
span tracer (bench/tracer.py) wraps layer functions at the names their
callers look them up by. Both break quietly when a name moves, so both
are checked here, as is the line between the package and the scalar
reference code in `tests/oracles.py`, which the package must not import,
the absence of QUADPACK's `quad` from the package, its one use of
`hyp2f1`, and the absence of `numpy.linalg` from it.
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
    "analytic.mean_load_near", "analytic.mean_load_far",
    "analytic.los_distance", "analytic.ue_densities",
    "analytic.effective_mainlobe_radius", "simulate.estimate",
    "simulate.realize",
}


def test_every_public_name_resolves():
    missing = [name for name in mmwlab.__all__ if not hasattr(mmwlab, name)]
    assert missing == []


def _scoped(tree, scope="<module>"):
    """(enclosing function or class, node) of every node under `tree`."""
    for node in ast.iter_child_nodes(tree):
        yield scope, node
        inner = scope
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            inner = node.name
        yield from _scoped(node, inner)


def _package_nodes():
    """("file:scope", node) of every node in the package's modules."""
    for path in sorted((ROOT / "src" / "mmwlab").glob("*.py")):
        for scope, node in _scoped(ast.parse(path.read_text(encoding="utf-8"))):
            yield f"{path.name}:{scope}", node


def _names(node):
    """The dotted-name parts a node refers to: a name, an attribute, or a
    module or name in an import."""
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, ast.alias):
        return node.name.split(".")
    if isinstance(node, ast.ImportFrom):
        return (node.module or "").split(".")
    return []


def test_package_never_imports_the_test_oracles():
    # the scalar oracles (and the Building record) live only in tests/
    bad = [where for where, node in _package_nodes()
           if isinstance(node, (ast.alias, ast.ImportFrom))
           and _names(node)[0] in ("oracles", "tests")]
    assert bad == []


def test_package_makes_no_quad_call():
    # every coverage comes from the package's own adaptive Gauss-Kronrod
    # routine; QUADPACK is a reference in tests/oracles.py only
    calls = [where for where, node in _package_nodes()
             if isinstance(node, ast.Call) and _names(node.func) == ["quad"]]
    assert calls == []


def test_hyp2f1_is_used_only_by_the_band_antiderivative():
    # one implementation of the band integral, for every coverage value
    refs = {where for where, node in _package_nodes()
            if "hyp2f1" in _names(node)}
    assert refs == {"analytic.py:_band_antiderivative"}


def test_package_makes_no_linalg_call():
    # the first LAPACK call costs resident memory (0.46 MB for a 12 x 12
    # solve, 0.78 MB for its eigendecomposition); the quadrature rules are
    # built by Newton's method on recurrences instead
    refs = [where for where, node in _package_nodes()
            if "linalg" in _names(node)]
    assert refs == []


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
