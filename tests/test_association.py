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
    BsTable,
    _cone_mask,
    associate_all,
    classify_many,
    schedule,
)
from mmwlab.geometry import Building, BuildingField, Window
from mmwlab.scenario import ScenarioParams
from mmwlab.simulate import RULE_BUILDING_AWARE, RULE_MAX_RSRP, SimMode, realize
from oracles import classify_bs, in_discovery_cone, los_between, sq_distances


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
    table = classify_many(bs_xy, field, theta, beta)
    return field, table, bs_xy, ue_xy, params


def cone_holds(bs_xy, table, j, ue):
    return in_discovery_cone(bs_xy[j], table.boresight[j],
                             table.discovery_range[j], ue)


def reference_associate(ue_xy, bs_xy, table, field, use_cones=True):
    """Literal per-UE scan in distance order (ties: lower BS index)."""
    n_ue, n_bs = len(ue_xy), len(bs_xy)
    serving = np.full(n_ue, PATH_NONE, dtype=int)
    path = np.full(n_ue, PATH_NONE, dtype=np.int8)
    for i in range(n_ue):
        ue = ue_xy[i]
        d2 = [(ue[0] - x) ** 2 + (ue[1] - y) ** 2 for x, y in bs_xy]
        order = sorted(range(n_bs), key=lambda j: (d2[j], j))
        los = {j: los_between(ue, bs_xy[j], field) for j in order}
        hit = next((j for j in order
                    if los[j] and (not use_cones
                                   or cone_holds(bs_xy, table, j, ue))), None)
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
    field, table, bs_xy, ue_xy, params = random_scene(seed)
    got = associate_all(ue_xy, bs_xy, table, field)
    ref_serving, ref_path = reference_associate(ue_xy, bs_xy, table, field)
    assert np.array_equal(got.serving, ref_serving)
    # reference marks every cone hit as the reference path; the engine
    # does the same thing, so paths must agree wherever someone is served
    assert np.array_equal(got.path, ref_path)


@pytest.mark.parametrize("seed", [10, 11, 12])
def test_fast_engine_matches_reference_without_cones(seed):
    field, table, bs_xy, ue_xy, params = random_scene(seed, beta=0.8)
    got = associate_all(ue_xy, bs_xy, table, field, use_cones=False)
    ref_serving, _ = reference_associate(ue_xy, bs_xy, table, field,
                                         use_cones=False)
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
    field, the BS positions and table, and the UEs: the origin first, then
    random ones.
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
    is_omni = perm < len(omni)
    table = BsTable(
        boresight=np.where(is_omni, 0.0, np.arctan2(bs_xy[:, 1], bs_xy[:, 0])),
        discovery_range=np.where(is_omni, 2.0 * math.pi, math.pi / 6))
    extra = rng.uniform(-100.0, 100.0, size=(n_extra_ue, 2))
    return field, bs_xy, table, np.vstack([np.zeros((1, 2)), extra])


def assert_ties_on_every_block_boundary(bs_xy, table, use_cones):
    """Each walk of the origin UE meets BSs tied across every boundary."""
    d2 = (bs_xy ** 2).sum(axis=1)
    cone = _cone_mask(np.zeros((1, 2)), bs_xy, table)[0] if use_cones \
        else np.ones(len(bs_xy), dtype=bool)
    for walk in ((cone, ~cone) if use_cones else (cone,)):
        d = np.sort(d2[walk])
        k = association._FIRST_BLOCK
        assert k < len(d)
        while k < len(d):
            assert d[k - 1] == d[k]
            k *= 2


def check_rules_against_reference(ue_xy, bs_xy, table, field, stats):
    """Both rules against the literal scan; tallies how the origin UE won."""
    for use_cones in (True, False):
        assert_ties_on_every_block_boundary(bs_xy, table, use_cones)
        got = associate_all(ue_xy, bs_xy, table, field, use_cones=use_cones)
        ref_serving, ref_path = reference_associate(ue_xy, bs_xy, table,
                                                    field, use_cones=use_cones)
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
        same_walk = [j for j in range(len(bs_xy))
                     if not use_cones or (got.path[0] == PATH_REFERENCE)
                     == cone_holds(bs_xy, table, j, (0.0, 0.0))]
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
            field, bs_xy, table, ue_xy = ring_scene(
                rng, random_buildings(rng, n_buildings, walled), depth)
            check_rules_against_reference(ue_xy, bs_xy, table, field, stats)
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
            drop.ue_xy, drop.bs_xy, drop.bs_table, drop.field,
            use_cones=use_cones)
        assert np.array_equal(drop.association.serving, ref_serving)
        if use_cones:
            assert np.array_equal(drop.association.path, ref_path)
    field, bs_xy, table, ue_xy = ring_scene(np.random.default_rng(seed),
                                            drop.field.buildings, seed % 4)
    check_rules_against_reference(ue_xy, bs_xy, table, field, new_stats())


def test_sq_distances_match_broadcast_oracle_bit_for_bit():
    rng = np.random.default_rng(9)
    ue = rng.uniform(-300.0, 300.0, size=(300, 2))
    bs = rng.uniform(-300.0, 300.0, size=(32, 2))
    fast, ref = association._sq_distances(ue, bs), sq_distances(ue, bs)
    assert fast.shape == ref.shape and fast.tobytes() == ref.tobytes()

    # integer lattice: a UE at odd coordinates is equidistant from the
    # four BSs on the even points around it
    g = np.arange(-6.0, 7.0)
    ue = np.column_stack([np.repeat(g, len(g)), np.tile(g, len(g))])
    bs = ue[(ue[:, 0] % 2 == 0) & (ue[:, 1] % 2 == 0)][::-1]
    fast, ref = association._sq_distances(ue, bs), sq_distances(ue, bs)
    assert fast.tobytes() == ref.tobytes()
    ties = np.sum(fast == fast.min(axis=1, keepdims=True), axis=1)
    assert np.count_nonzero(ties == 4) > 20
    nearest = np.argmin(fast, axis=1)
    assert np.array_equal(nearest, np.argmin(ref, axis=1))
    assert np.array_equal(nearest, [np.flatnonzero(r == r.min())[0]
                                    for r in fast])


def test_zero_bias_equals_plain_rsrp():
    field, table0, bs_xy, ue_xy, params = random_scene(21, beta=0.0)
    assert not table0.dedicated.any()
    aware = associate_all(ue_xy, bs_xy, table0, field)
    plain = associate_all(ue_xy, bs_xy, table0, field, use_cones=False)
    assert np.array_equal(aware.serving, plain.serving)


def test_classify_bs_roles():
    # One axis-aligned building; a BS straight below its long wall sees a
    # wide wall, so at beta=1 the subtended angle beats theta=pi/6. Far
    # away the wall subtends less than theta.
    field = BuildingField([Building((0.0, 0.0), 30.0, 10.0, 0.0)])
    bs_xy = np.array([[0.0, -25.0], [0.0, -500.0]])
    table = classify_many(bs_xy, field, math.pi / 6, 1.0)
    assert list(table.dedicated) == [True, False]
    assert table.discovery_range[0] == pytest.approx(2 * math.atan(15.0 / 20.0))
    assert table.discovery_range[1] == 2.0 * math.pi
    assert table.boresight == pytest.approx([math.pi / 2.0] * 2)  # toward y=-5
    assert classify_bs(bs_xy[0], field, math.pi / 6, 1.0) == pytest.approx(
        (table.boresight[0], table.discovery_range[0]))
    # same BSs with the bias off: the cone collapses, every BS is omni
    off = classify_many(bs_xy, field, math.pi / 6, 0.0)
    assert not off.dedicated.any()
    assert list(off.discovery_range) == [2.0 * math.pi] * 2


def corner_scene(rng, n_buildings=6, per_corner=4):
    """Rotated 30 x 10 m buildings far apart, with BSs on the diagonals
    beyond each corner and elsewhere in each corner's quadrant: points
    that face two walls at exactly the same distance."""
    buildings = [Building((300.0 * i, 40.0 * i), 30.0, 10.0, o)
                 for i, o in enumerate(rng.uniform(0.0, math.pi,
                                                   size=n_buildings))]
    pts = []
    for b in buildings:
        c, s = math.cos(b.orientation), math.sin(b.orientation)
        for su, sv in ((1, -1), (1, 1), (-1, 1), (-1, -1)):
            t = rng.uniform(0.5, 30.0, size=per_corner)
            off = np.column_stack([t, t * rng.choice([1.0, 0.3, 3.0],
                                                     size=per_corner)])
            u, v = su * (15.0 + off[:, 0]), sv * (5.0 + off[:, 1])
            pts.append(np.column_stack([b.center[0] + u * c - v * s,
                                        b.center[1] + u * s + v * c]))
    return BuildingField(buildings), np.vstack(pts)


def test_classify_many_matches_scalar():
    # against the scalar oracle: random scenes, points beyond corners
    # (where two walls tie and the smaller index wins) and the BSs of
    # dense full-engine drops
    rng = np.random.default_rng(3)
    scenes = [corner_scene(rng)]
    for seed in range(3):
        field, _, bs_xy, _, _ = random_scene(seed)
        scenes.append((field, bs_xy))
    for seed in (0, 1):
        drop = realize(ScenarioParams(lambda_ell=1000), SimMode.FULL_GEOMETRY,
                       seed, keep_drop=True).drop
        scenes.append((drop.field, drop.bs_xy))
    for theta, beta in ((math.pi / 12, 0.3), (math.pi / 6, 0.7),
                        (math.pi / 3, 1.0)):
        for field, bs_xy in scenes:
            table = classify_many(bs_xy, field, theta, beta)
            ref = np.array([classify_bs(p, field, theta, beta) for p in bs_xy])
            assert np.array_equal(table.dedicated, ref[:, 1] < 2.0 * math.pi)
            assert table.discovery_range == pytest.approx(ref[:, 1], abs=1e-12)
            turn = np.remainder(table.boresight - ref[:, 0] + math.pi,
                                2.0 * math.pi) - math.pi
            assert np.abs(turn).max() < 1e-12


def test_no_buildings_everyone_omni():
    field = BuildingField([])
    bs_xy = np.array([[5.0, 5.0], [-30.0, 2.0]])
    table = classify_many(bs_xy, field, math.pi / 6, 1.0)
    assert not table.dedicated.any()
    assert list(table.discovery_range) == [2.0 * math.pi] * 2
    assert in_discovery_cone(bs_xy[0], table.boresight[0],
                             table.discovery_range[0], (100.0, -40.0))
    assert _cone_mask(np.array([[100.0, -40.0]]), bs_xy, table).all()
    # next to a dedicated column, an omni column still accepts every UE
    mixed = BsTable(np.array([0.0, 0.0]), np.array([2.0 * math.pi, 0.2]))
    ue_xy = np.random.default_rng(4).uniform(-50.0, 50.0, size=(40, 2))
    mask = _cone_mask(ue_xy, bs_xy, mixed)
    assert mask[:, 0].all()
    assert 0 < mask[:, 1].sum() < len(ue_xy)


def test_discovery_cone_wraps_across_pi():
    field = BuildingField([Building((-40.0, 0.0), 30.0, 10.0, 0.0)])
    bs_xy = np.array([[20.0, 0.0]])
    table = classify_many(bs_xy, field, 0.1, 1.0)
    bore, width = table.boresight[0], table.discovery_range[0]
    # the 10 m wall 45 m away subtends 0.22 rad; the boresight points in
    # the -x direction (angle ~pi), and the cone must not tear at the
    # atan2 branch cut
    assert table.dedicated[0] and abs(abs(bore) - math.pi) < 0.3
    ue_above = (-80.0, 4.0)
    ue_below = (-80.0, -4.0)
    inside = in_discovery_cone(bs_xy[0], bore, width, ue_above)
    assert in_discovery_cone(bs_xy[0], bore, width, ue_below) == inside
    mask = _cone_mask(np.array([ue_above, ue_below]), bs_xy, table)
    assert inside and list(mask[:, 0]) == [True, True]
    # the cone edge is inclusive: atan2(1, 1) is exactly pi/4, half of pi/2
    edge = BsTable(np.array([0.0]), np.array([math.pi / 2.0]))
    ue_xy = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-9]])
    assert list(_cone_mask(ue_xy, np.zeros((1, 2)), edge)[:, 0]) == [True, False]
    assert in_discovery_cone((0.0, 0.0), 0.0, math.pi / 2.0, (1.0, 1.0))


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
    bs_xy = np.array([[120.0, 0.0], [0.0, 150.0]])
    table = classify_many(bs_xy, field, params.theta, 1.0)
    assoc = associate_all(np.array([[0.0, 0.0]]), bs_xy, table, field)
    assert assoc.serving[0] == PATH_NONE
    assert assoc.path[0] == PATH_NONE
