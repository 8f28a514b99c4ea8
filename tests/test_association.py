"""Two-phase building-aware association against a brute-force reference.

The reference implementation below does the protocol literally with O(n*m)
scalar loops: first the nearest LOS BS whose discovery cone contains the
UE, then (cones on) the nearest LOS BS regardless of cones. The fast
engine must reproduce it exactly, including tie handling.
"""

import math

import numpy as np
import pytest

from mmwlab import association
from mmwlab.association import (
    PATH_NONE,
    PATH_PILOT,
    PATH_REFERENCE,
    Association,
    BsRole,
    BsState,
    _cone_mask,
    associate_all,
    classify_bs,
    classify_many,
    schedule,
)
from mmwlab.geometry import Building, BuildingField, Window
from mmwlab.scenario import ScenarioParams
from mmwlab.simulate import RULE_BUILDING_AWARE, RULE_MAX_RSRP, SimMode, realize
from oracles import in_discovery_cone, los_between


def random_scene(seed, n_buildings=14, n_bs=40, n_ue=70, span=200.0,
                 theta=math.pi / 6, beta=0.6):
    rng = np.random.default_rng(seed)
    field = BuildingField([
        Building(center=(float(x), float(y)), length=30.0, width=10.0,
                 orientation=float(o))
        for (x, y), o in zip(rng.uniform(-span, span, size=(n_buildings, 2)),
                             rng.uniform(0.0, math.pi, size=n_buildings))])
    bs_xy = rng.uniform(-span, span, size=(n_bs, 2))
    ue_xy = rng.uniform(-span, span, size=(n_ue, 2))
    params = ScenarioParams().with_(theta=theta, beta=beta)
    states = classify_many(bs_xy, field, theta, beta)
    return field, states, bs_xy, ue_xy, params


def reference_associate(ue_xy, bs_states, field, use_cones=True):
    """Literal per-UE scan in distance order (ties: lower BS index)."""
    n_ue, n_bs = len(ue_xy), len(bs_states)
    serving = np.full(n_ue, PATH_NONE, dtype=int)
    path = np.full(n_ue, PATH_NONE, dtype=np.int8)
    for i in range(n_ue):
        ue = ue_xy[i]
        d2 = [(ue[0] - b.position[0]) ** 2 + (ue[1] - b.position[1]) ** 2
              for b in bs_states]
        order = sorted(range(n_bs), key=lambda j: (d2[j], j))
        los = {j: los_between(ue, bs_states[j].position, field) for j in order}
        hit = next((j for j in order
                    if los[j] and (not use_cones
                                   or in_discovery_cone(bs_states[j], ue))), None)
        if hit is not None:
            serving[i] = hit
            path[i] = PATH_REFERENCE if use_cones else PATH_PILOT
            continue
        if use_cones:
            hit = next((j for j in order if los[j]), None)
            if hit is not None:
                serving[i] = hit
                path[i] = PATH_PILOT
    return serving, path


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_fast_engine_matches_reference(seed):
    field, states, _, ue_xy, params = random_scene(seed)
    got = associate_all(ue_xy, states, field)
    ref_serving, ref_path = reference_associate(ue_xy, states, field)
    assert np.array_equal(got.serving, ref_serving)
    # reference marks every cone hit as the reference path; the engine
    # does the same thing, so paths must agree wherever someone is served
    assert np.array_equal(got.path, ref_path)


@pytest.mark.parametrize("seed", [10, 11, 12])
def test_fast_engine_matches_reference_without_cones(seed):
    field, states, _, ue_xy, params = random_scene(seed, beta=0.8)
    got = associate_all(ue_xy, states, field, use_cones=False)
    ref_serving, _ = reference_associate(ue_xy, states, field, use_cones=False)
    assert np.array_equal(got.serving, ref_serving)
    # with cones off every BS is discoverable, so all wins count as phase 1
    assert set(np.unique(got.path)) <= {PATH_REFERENCE, PATH_NONE}


def lattice_ring(r):
    """Integer points at distance exactly r from the origin."""
    return np.array([(x, y) for x in range(-r, r + 1) for y in range(-r, r + 1)
                     if x * x + y * y == r * r], dtype=float)


# Rings of lattice points around a UE at the origin, and how many BSs of
# each family sit on each ring. The cumulative counts 3, 6, 10, 19, 35 of
# one family and 6, 12, 20, 38, 70 of both fall strictly inside rings, so
# every rank-block boundary of the walk (2, 4, 8, 16, 32, 64) splits BSs
# at exactly the same distance.
RINGS = (5, 10, 13, 25, 65)
RING_SIZES = (3, 3, 4, 9, 16)
RING_UNIT = 3.0  # [m]


def ring_scene(rng, buildings, depth, n_extra_ue=10):
    """Omni BSs on the upper halves of the rings, dedicated BSs on the
    lower halves with cones turned away from the origin, indices shuffled.

    A 1 m kiosk halfway to a BS blocks it from the origin: every BS of the
    `depth` innermost rings gets one, and so does part of the next ring,
    which keeps at least two BSs of each family in the clear. Returns the
    field, the states and the UEs: the origin first, then random ones.
    """
    omni, dedicated, kiosks = [], [], []
    for ring, (r, m) in enumerate(zip(RINGS, RING_SIZES)):
        pts = lattice_ring(r) * RING_UNIT
        for half, out in ((pts[pts[:, 1] > 0], omni),
                          (pts[pts[:, 1] < 0], dedicated)):
            picked = half[rng.choice(len(half), size=m, replace=False)]
            out.extend(picked)
            if ring < depth:
                kiosks.extend(picked)
            elif ring == depth:
                kiosks.extend(picked[:rng.integers(0, m - 1)])
    field = BuildingField(list(buildings) + [
        Building((x / 2.0, y / 2.0), 1.0, 1.0, 0.0) for x, y in kiosks])
    bs_xy = np.array(omni + dedicated)
    perm = rng.permutation(len(bs_xy))
    bs_xy = bs_xy[perm]
    states = []
    for j, (x, y) in enumerate(bs_xy):
        if perm[j] < len(omni):
            states.append(BsState(j, (x, y), BsRole.OBS, 0.0, 2.0 * math.pi,
                                  None))
        else:
            states.append(BsState(j, (x, y), BsRole.DBS, math.atan2(y, x),
                                  math.pi / 6, None))
    extra = rng.uniform(-100.0, 100.0, size=(n_extra_ue, 2))
    return field, states, np.vstack([np.zeros((1, 2)), extra])


def assert_ties_on_every_block_boundary(states, use_cones):
    """Each walk of the origin UE meets BSs tied across every boundary."""
    bs_xy = np.array([s.position for s in states])
    d2 = (bs_xy ** 2).sum(axis=1)
    cone = _cone_mask(states, np.zeros((1, 2)))[0] if use_cones \
        else np.ones(len(states), dtype=bool)
    for walk in ((cone, ~cone) if use_cones else (cone,)):
        d = np.sort(d2[walk])
        k = association._FIRST_BLOCK
        assert k < len(d)
        while k < len(d):
            assert d[k - 1] == d[k]
            k *= 2


def check_rules_against_reference(ue_xy, states, field, stats):
    """Both rules against the literal scan; tallies how the origin UE won."""
    bs_xy = np.array([s.position for s in states])
    for use_cones in (True, False):
        assert_ties_on_every_block_boundary(states, use_cones)
        got = associate_all(ue_xy, states, field, use_cones=use_cones)
        ref_serving, ref_path = reference_associate(ue_xy, states, field,
                                                    use_cones=use_cones)
        assert np.array_equal(got.serving, ref_serving)
        if use_cones:
            assert np.array_equal(got.path, ref_path)
        s = got.serving[0]
        if s < 0:
            continue
        stats["pilot" if got.path[0] == PATH_PILOT else "reference"] += 1
        win_d2 = (bs_xy[s] ** 2).sum()
        if win_d2 > (RING_UNIT * RINGS[0]) ** 2:
            stats["past_first_ring"] += 1
        # another BS of the same walk, LOS and just as near: a tie to break
        same_walk = [j for j, st in enumerate(states)
                     if not use_cones or (got.path[0] == PATH_REFERENCE)
                     == in_discovery_cone(st, (0.0, 0.0))]
        if any(j != s and (bs_xy[j] ** 2).sum() == win_d2
               and los_between((0.0, 0.0), bs_xy[j], field)
               for j in same_walk):
            stats["tied_win"] += 1


def random_buildings(rng, n_buildings, walled, span=100.0):
    """Random 30 x 10 m rectangles; `walled` adds a long thin one just
    above the origin that blocks every omni BS of a ring scene."""
    buildings = [Building((float(x), float(y)), 30.0, 10.0, float(o))
                 for (x, y), o in zip(rng.uniform(-span, span,
                                                  size=(n_buildings, 2)),
                                      rng.uniform(0.0, math.pi,
                                                  size=n_buildings))]
    if walled:
        buildings.append(Building((0.0, 4.0), 1000.0, 2.0, 0.0))
    return buildings


def new_stats():
    return {"reference": 0, "pilot": 0, "tied_win": 0, "past_first_ring": 0}


@pytest.mark.parametrize("n_buildings", [1, 4, 16])
def test_ring_ties_on_every_block_boundary_match_reference(n_buildings):
    # the walled scenes send the origin UE down the pilot walk; the kiosk
    # depth puts its winner on each of the first four rings in turn
    stats = new_stats()
    for depth in range(4):
        for walled in (False, True):
            rng = np.random.default_rng(10 * n_buildings + depth)
            field, states, ue_xy = ring_scene(
                rng, random_buildings(rng, n_buildings, walled), depth)
            check_rules_against_reference(ue_xy, states, field, stats)
    assert stats["reference"] > 0 and stats["pilot"] > 0
    assert stats["tied_win"] > 0 and stats["past_first_ring"] > 0


@pytest.mark.parametrize("seed", range(6))
def test_full_engine_drops_with_two_bs_first_round_match_reference(seed):
    # the walk's first block holds each UE's two nearest BSs; these 9-19
    # BS drops take most UEs past it. Ring BSs then go around the typical
    # UE at the origin of the same field, behind kiosks `seed % 4` deep.
    for rule, use_cones in ((RULE_BUILDING_AWARE, True),
                            (RULE_MAX_RSRP, False)):
        drop = realize(ScenarioParams(beta=0.7), SimMode.FULL_GEOMETRY, seed,
                       association_rule=rule, keep_drop=True,
                       window=Window(60.0, 30.0)).drop
        ref_serving, ref_path = reference_associate(
            drop.ue_xy, drop.bs_states, drop.field, use_cones=use_cones)
        assert np.array_equal(drop.association.serving, ref_serving)
        if use_cones:
            assert np.array_equal(drop.association.path, ref_path)
    field, states, ue_xy = ring_scene(np.random.default_rng(seed),
                                      drop.field.buildings, seed % 4)
    check_rules_against_reference(ue_xy, states, field, new_stats())


def test_zero_bias_equals_plain_rsrp():
    field, states0, bs_xy, ue_xy, params = random_scene(21, beta=0.0)
    aware = associate_all(ue_xy, states0, field)
    plain = associate_all(ue_xy, states0, field, use_cones=False)
    assert np.array_equal(aware.serving, plain.serving)


def test_classify_bs_roles():
    # One axis-aligned building; a BS straight below its long wall sees a
    # wide wall, so at beta=1 the subtended angle beats theta=pi/6.
    field = BuildingField([Building((0.0, 0.0), 30.0, 10.0, 0.0)])
    near = classify_bs((0.0, -25.0), field, math.pi / 6, 1.0)
    assert near.role is BsRole.DBS
    assert near.discovery_range == pytest.approx(2 * math.atan(15.0 / 20.0))
    assert near.boresight == pytest.approx(math.pi / 2.0)  # up, toward y=-5
    # same BS with the bias off: cone collapses, role falls back to omni
    off = classify_bs((0.0, -25.0), field, math.pi / 6, 0.0)
    assert off.role is BsRole.OBS
    assert off.discovery_range == pytest.approx(2.0 * math.pi)
    # far away the wall subtends less than theta
    far = classify_bs((0.0, -500.0), field, math.pi / 6, 1.0)
    assert far.role is BsRole.OBS


def test_classify_many_matches_scalar():
    field, states, bs_xy, _, params = random_scene(3)
    for st in states[:10]:
        solo = classify_bs(st.position, field, params.theta, params.beta,
                           index=st.index)
        assert solo.role == st.role
        assert solo.discovery_range == pytest.approx(st.discovery_range)
        assert solo.boresight == pytest.approx(st.boresight)


def test_no_buildings_everyone_omni():
    field = BuildingField([])
    st = classify_bs((5.0, 5.0), field, math.pi / 6, 1.0)
    assert st.role is BsRole.OBS and st.discovery_range == 2.0 * math.pi
    assert in_discovery_cone(st, (100.0, -40.0))
    assert _cone_mask([st], np.array([[100.0, -40.0]])).all()


def test_discovery_cone_wraps_across_pi():
    field = BuildingField([Building((-40.0, 0.0), 30.0, 10.0, 0.0)])
    bs = classify_bs((20.0, 0.0), field, math.pi / 6, 1.0)
    # boresight points in the -x direction (angle ~pi); the cone must not
    # tear at the atan2 branch cut
    assert abs(abs(bs.boresight) - math.pi) < 0.3
    ue_above = (-80.0, 4.0)
    ue_below = (-80.0, -4.0)
    assert in_discovery_cone(bs, ue_above) == in_discovery_cone(bs, ue_below)
    mask = _cone_mask([bs], np.array([ue_above, ue_below]))
    assert list(mask[:, 0]) == [in_discovery_cone(bs, ue_above)] * 2


def test_association_helpers_and_schedule():
    serving = np.array([2, PATH_NONE, 2, 0])
    path = np.array([PATH_REFERENCE, PATH_NONE, PATH_PILOT, PATH_REFERENCE],
                    dtype=np.int8)
    assoc = Association(serving, path)
    assert assoc.n_ue == 4
    assert list(assoc.uncovered()) == [False, True, False, False]
    assert list(assoc.ues_of(2)) == [0, 2]
    rng = np.random.default_rng(0)
    picks = {schedule(2, assoc, rng) for _ in range(40)}
    assert picks == {0, 2}
    assert schedule(5, assoc, rng) is None


def test_uncovered_when_everything_blocked():
    # UE sealed inside a box of buildings: no LOS BS at all
    field = BuildingField([
        Building((0.0, 18.0), 40.0, 8.0, 0.0),
        Building((0.0, -18.0), 40.0, 8.0, 0.0),
        Building((18.0, 0.0), 40.0, 8.0, math.pi / 2),
        Building((-18.0, 0.0), 40.0, 8.0, math.pi / 2),
    ])
    params = ScenarioParams()
    states = classify_many(np.array([[120.0, 0.0], [0.0, 150.0]]), field,
                           params.theta, 1.0)
    assoc = associate_all(np.array([[0.0, 0.0]]), states, field)
    assert assoc.serving[0] == PATH_NONE
    assert assoc.path[0] == PATH_NONE
