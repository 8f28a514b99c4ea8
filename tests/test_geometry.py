"""Geometry kernel: windows, rectangle fields, LOS tests, wall picking.

Where a closed form exists the tests pin it; everything stochastic is
checked against brute-force oracles on seeded draws. The scalar oracles
for rectangle distance, LOS, the facing wall and its angle live in
`oracles.py`.
"""

import math

import numpy as np
import pytest

from mmwlab.geometry import (
    Building,
    BuildingField,
    EmptyFieldError,
    RegionClass,
    Window,
    classify_point,
    los_pairs,
    los_to_many,
    sample_buildings,
    sample_ppp,
)
from mmwlab.association import classify_many
from mmwlab.scenario import ScenarioParams
from oracles import (boundary_distances, discovery_angle, facing_wall,
                     los_between, nearest_buildings, point_segment_distance,
                     to_local, walls)


def make_field(rng, n=12, span=220.0, d_l=30.0, d_w=10.0):
    bl = [Building(center=(float(x), float(y)), length=d_l, width=d_w,
                   orientation=float(o))
          for (x, y), o in zip(rng.uniform(-span, span, size=(n, 2)),
                               rng.uniform(0.0, math.pi, size=n))]
    return BuildingField(bl)


# ---------------------------------------------------------------------------
# Window / primitives


def test_window_expansion():
    w = Window(half_width=100.0, margin=30.0)
    assert w.sample_half == 130.0
    assert w.sample_area_m2 == pytest.approx(260.0 ** 2)


def facing(field, points, owner=0, beta=1.0):
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    return field.facing_walls(pts, np.full(len(pts), owner), beta)


# 40 m straight out from each side of a 30 x 10 m building at (5, -2)
AXIS_ALIGNED = Building(center=(5.0, -2.0), length=30.0, width=10.0,
                        orientation=0.0)
OUT = [(5.0, -20.0), (40.0, -2.0), (5.0, 20.0), (-40.0, -2.0)]


def test_building_corners_axis_aligned():
    # at beta=1 each facing wall runs counterclockwise between two corners
    _, ends = facing(BuildingField([AXIS_ALIGNED]), OUT)
    cs = np.array([[-10.0, -7.0], [20.0, -7.0], [20.0, 3.0], [-10.0, 3.0]])
    assert ends[0] == pytest.approx(cs)
    assert ends[1] == pytest.approx(np.roll(cs, -1, axis=0))
    assert np.array(walls(AXIS_ALIGNED)) == pytest.approx(
        np.stack([cs, np.roll(cs, -1, axis=0)], axis=1))


def test_wall_normals_point_outward():
    # walls 0..3 face -y, +x, +y and -x; beta contracts each about its
    # midpoint
    field = BuildingField([AXIS_ALIGNED])
    wall, ends = facing(field, OUT)
    assert list(wall) == [0, 1, 2, 3]
    assert ends[2] == pytest.approx(np.array([[5.0, -7.0], [20.0, -2.0],
                                              [5.0, 3.0], [-10.0, -2.0]]))
    _, half = facing(field, OUT[:2], beta=0.5)
    assert half[:2] == pytest.approx(np.array([[[-2.5, -7.0], [20.0, -4.5]],
                                               [[12.5, -7.0], [20.0, 0.5]]]))


def test_rotated_corners_preserve_shape():
    b = Building(center=(3.0, 4.0), length=24.0, width=8.0, orientation=1.1)
    field = BuildingField([b])
    # 100 m out along the local -y, +x, +y and -x axes
    dirs = b.orientation + np.array([-0.5, 0.0, 0.5, 1.0]) * math.pi
    wall, ends = facing(field, np.column_stack([3.0 + 100.0 * np.cos(dirs),
                                                4.0 + 100.0 * np.sin(dirs)]))
    assert list(wall) == [0, 1, 2, 3]
    sides = np.hypot(*(ends[1] - ends[0]).T)
    assert sides == pytest.approx([24.0, 8.0, 24.0, 8.0])
    assert ends[2].mean(axis=0) == pytest.approx([3.0, 4.0])
    for k in range(4):
        assert np.vstack([ends[0][k], ends[1][k]]) == pytest.approx(
            np.array(walls(b)[k]), abs=1e-12)


# ---------------------------------------------------------------------------
# Point processes


def test_sample_ppp_moment():
    rng = np.random.default_rng(101)
    w = Window(half_width=400.0, margin=100.0)
    lam = 300.0  # per km^2
    counts = [len(sample_ppp(w, lam, rng)) for _ in range(300)]
    expected = lam * 1e-6 * w.sample_area_m2
    sem = math.sqrt(expected / len(counts))
    assert abs(np.mean(counts) - expected) < 4.0 * sem
    pts = sample_ppp(w, lam, rng)
    assert np.all(np.abs(pts) <= w.sample_half)


def test_sample_ppp_zero_density():
    rng = np.random.default_rng(0)
    assert sample_ppp(Window(100.0, 0.0), 0.0, rng).shape == (0, 2)


def test_boolean_field_indoor_fraction():
    # Stationary coverage fraction of a Boolean rectangle field equals
    # 1 - exp(-lambda * E[area]); defaults give 1 - exp(-0.12).
    params = ScenarioParams()
    expected = 1.0 - math.exp(-params.lambda_ell * 1e-6 * params.d_l * params.d_w)
    rng = np.random.default_rng(7)
    w = Window(half_width=300.0, margin=60.0)
    fractions = []
    for _ in range(10):
        field = sample_buildings(w, params, rng)
        pts = rng.uniform(-w.half_width, w.half_width, size=(4000, 2))
        _, indoor = field.near_indoor_masks(pts, params.d_c)
        fractions.append(indoor.mean())
    assert abs(np.mean(fractions) - expected) < 0.015


def test_classify_points_banding():
    field = BuildingField([Building((0.0, 0.0), 30.0, 10.0, 0.0)])
    pts = np.array([
        [0.0, 0.0],     # indoor
        [0.0, 6.0],     # 1 m off the long wall -> near
        [0.0, 7.0],     # exactly d_c off -> near (inclusive)
        [0.0, 7.01],    # just past the band -> far
        [200.0, 0.0],   # far
    ])
    cls = [classify_point(p, field, d_c=2.0) for p in pts]
    assert cls == [RegionClass.INDOOR, RegionClass.NEAR, RegionClass.NEAR,
                   RegionClass.FAR, RegionClass.FAR]
    assert classify_point((16.0, 0.0), field, 2.0) is RegionClass.NEAR


def test_empty_field_classifies_far_and_raises_on_distances():
    field = BuildingField([])
    assert classify_point((0.0, 0.0), field, 2.0) is RegionClass.FAR
    near, indoor = field.near_indoor_masks(np.zeros((2, 2)), 2.0)
    assert not near.any() and not indoor.any()
    with pytest.raises(EmptyFieldError):
        field.nearest_building_many(np.zeros((1, 2)))
    with pytest.raises(EmptyFieldError):
        field.nearest_building_many((0.0, 0.0))


def test_boundary_distaccording_to_manual_rectangle():
    field = BuildingField([Building((0.0, 0.0), 30.0, 10.0, 0.0)])
    pts = np.array([[20.0, 0.0], [0.0, 9.0], [18.0, 9.0], [1.0, 2.0]])
    for dist, indoor in (boundary_distances(field, pts),
                         field._pair_distance(pts, np.zeros(4, dtype=int))):
        assert dist == pytest.approx([5.0, 4.0, math.hypot(3.0, 4.0), 0.0])
        assert list(indoor) == [False, False, False, True]


def test_near_indoor_masks_match_boundary_distances():
    rng = np.random.default_rng(42)
    field = make_field(rng, n=25)
    pts = rng.uniform(-260, 260, size=(800, 2))
    near, indoor = field.near_indoor_masks(pts, d_c=2.0)
    dist, indoor_ref = boundary_distances(field, pts)
    assert np.array_equal(indoor, indoor_ref)
    # `near` passes any point whose boundary distance is within d_c,
    # indoor ones included (their distance is zero); callers mask indoor.
    assert np.array_equal(near, dist <= 2.0)
    want = np.where(indoor_ref, RegionClass.INDOOR,
                    np.where(dist <= 2.0, RegionClass.NEAR, RegionClass.FAR))
    assert [classify_point(p, field, 2.0) for p in pts] == list(want)


@pytest.mark.parametrize("lambda_ell", [100.0, 400.0, 1000.0])
def test_batched_kernels_match_oracles_on_random_fields(lambda_ell):
    # a window holding about 60 rectangles at each density
    half = 0.5e3 * math.sqrt(60.0 / lambda_ell)
    rng = np.random.default_rng(int(lambda_ell))
    field = sample_buildings(Window(half, 0.0),
                             ScenarioParams(lambda_ell=lambda_ell), rng)
    # points beyond the field too, so the nearest-building search widens
    pts = np.vstack([rng.uniform(-1.2 * half, 1.2 * half, size=(2000, 2)),
                     rng.uniform(-6.0 * half, 6.0 * half, size=(50, 2))])
    near, indoor = field.near_indoor_masks(pts, 2.0)
    dist, indoor_ref = boundary_distances(field, pts)
    assert np.array_equal(indoor, indoor_ref)
    assert np.array_equal(near, dist <= 2.0)
    assert indoor.any() and (near & ~indoor).any()
    assert np.array_equal(field.nearest_building_many(pts),
                          nearest_buildings(field, pts))
    # more segments than one screening block, of every length
    ps = rng.uniform(-half, half, size=(300, 2))
    qs = ps + rng.uniform(-half, half, size=(300, 2)) * rng.random((300, 1))
    flags = los_pairs(ps, qs, field)
    assert np.array_equal(flags, [los_between(p, q, field)
                                  for p, q in zip(ps, qs)])
    assert flags.any() and not flags.all()


def corner_field():
    """Axis-aligned rectangles with exactly representable edges: a 30 x 10
    one on the origin and a copy 40 m to its right."""
    return BuildingField([Building((0.0, 0.0), 30.0, 10.0, 0.0),
                          Building((40.0, 0.0), 30.0, 10.0, 0.0)])


def test_masks_and_nearest_on_edges_and_corners():
    field = corner_field()
    pts = np.array([
        [15.0, 0.0], [15.0, 5.0], [-15.0, -5.0], [0.0, 5.0],  # on the boundary
        [0.0, 7.0], [17.0, 0.0], [15.0, 7.0],                  # exactly d_c off
        [0.0, 7.5], [20.0, 0.0], [20.0, 8.0],                  # past d_c
    ])
    near, indoor = field.near_indoor_masks(pts, 2.0)
    dist, indoor_ref = boundary_distances(field, pts)
    assert list(indoor) == [True] * 4 + [False] * 6
    assert list(near) == [True] * 7 + [False] * 3
    assert np.array_equal(indoor, indoor_ref)
    assert np.array_equal(near, dist <= 2.0)
    # (20, 0) and (20, 8) lie halfway between the two rectangles
    want = [0, 0, 0, 0, 0, 0, 0, 0, 0, 0]
    assert list(field.nearest_building_many(pts)) == want
    assert list(nearest_buildings(field, pts)) == want


def test_nearest_building_ties_go_to_the_smaller_index():
    field = corner_field()
    swapped = BuildingField(field.buildings[::-1])
    # on the symmetry line x = 20, near and far away
    pts = np.array([[20.0, 0.0], [20.0, -30.0], [20.0, 900.0],
                    [20.0, -4000.0]])
    for f in (field, swapped):
        assert list(f.nearest_building_many(pts)) == [0, 0, 0, 0]
        assert list(nearest_buildings(f, pts)) == [0, 0, 0, 0]
    # off the line the nearer rectangle wins in either order
    assert list(field.nearest_building_many((19.0, 300.0))) == [0]
    assert list(swapped.nearest_building_many((19.0, 300.0))) == [1]


def test_los_pairs_endpoint_contact_and_grazing_across_blocks():
    field = corner_field()
    special = np.array([
        # (p, q, LOS)
        [15.0, 0.0, 22.0, 0.0, 1],     # starts on an edge, leaves it
        [15.0, 5.0, 22.0, 20.0, 1],    # starts on a corner, leaves it
        [30.0, -20.0, 25.0, -5.0, 1],  # ends on the corner of the right one
        [-20.0, 5.0, 20.0, 5.0, 0],    # runs along the top edge
        [20.0, 10.0, 10.0, 0.0, 0],    # passes through the corner (15, 5)
        [18.0, 0.0, 22.0, 0.0, 1],     # in the gap between the two
        [-20.0, 6.0, 60.0, 6.0, 1],    # 1 m above both
        [-20.0, 0.0, 60.0, 0.0, 0],    # through both
    ])
    rng = np.random.default_rng(9)
    filler = np.hstack([rng.uniform(-40.0, 80.0, size=(250, 4)),
                        np.full((250, 1), -1.0)])
    # the special segments straddle the end of the first 256-segment block
    rows = np.vstack([filler, special, filler[:20]])
    flags = los_pairs(rows[:, :2], rows[:, 2:4], field)
    assert list(flags[250:258]) == [bool(x) for x in special[:, 4]]
    assert np.array_equal(flags, [los_between(r[:2], r[2:4], field)
                                  for r in rows])



# ---------------------------------------------------------------------------
# Line of sight


def _brute_blocked(p, q, field, n_steps=4000):
    """Dense sampling along the open segment (p, q)."""
    ts = np.linspace(0.0, 1.0, n_steps)[1:-1]
    pts = p[None, :] * (1 - ts[:, None]) + q[None, :] * ts[:, None]
    for i in range(len(field)):
        u, v = to_local(field, pts, i)
        if np.any((np.abs(u) < field.half_l[i] - 1e-9)
                  & (np.abs(v) < field.half_w[i] - 1e-9)):
            return True
    return False


def los_both(p, q, field):
    """LOS of one segment from the package kernel, checked against the
    scalar oracle."""
    got = bool(los_to_many(p, np.asarray(q, dtype=float)[None, :], field)[0])
    assert got == los_between(p, q, field)
    return got


def test_los_between_matches_dense_sampling():
    rng = np.random.default_rng(3)
    field = make_field(rng, n=20)
    for _ in range(60):
        p = rng.uniform(-240, 240, size=2)
        q = rng.uniform(-240, 240, size=2)
        assert los_both(p, q, field) == (not _brute_blocked(p, q, field))


def test_los_pairs_matches_scalar():
    rng = np.random.default_rng(4)
    field = make_field(rng, n=18)
    ps = rng.uniform(-200, 200, size=(40, 2))
    qs = rng.uniform(-200, 200, size=(40, 2))
    flags = los_pairs(ps, qs, field)
    assert flags.shape == (40,)
    for i in range(40):
        assert flags[i] == los_between(ps[i], qs[i], field)
    one = los_to_many(ps[0], qs, field)
    assert np.array_equal(one, [los_between(ps[0], q, field) for q in qs])


def test_los_same_point_is_clear():
    rng = np.random.default_rng(5)
    field = make_field(rng, n=10)
    p = np.array([40.0, -12.0])
    assert los_both(p, p, field)


def test_los_endpoint_inside_building_still_geometric():
    # A segment whose interior crosses a rectangle is blocked even if it
    # starts right at the wall.
    field = BuildingField([Building((0.0, 0.0), 30.0, 10.0, 0.0)])
    assert not los_both((-20.0, 0.0), (20.0, 0.0), field)
    assert los_both((-20.0, 0.0), (-15.0, 0.0), field)
    assert los_both((0.0, 8.0), (10.0, 8.0), field)


# ---------------------------------------------------------------------------
# Wall picking and discovery geometry


def local_points(b, uv):
    """World coordinates of points given in building b's axis frame."""
    uv = np.asarray(uv, dtype=float)
    c, s = math.cos(b.orientation), math.sin(b.orientation)
    return np.column_stack([b.center[0] + uv[:, 0] * c - uv[:, 1] * s,
                            b.center[1] + uv[:, 0] * s + uv[:, 1] * c])


ORIENTATIONS = (0.0, 0.3, 1.0, math.pi / 2, 2.5)
# local signs of corners 1, 2, 3, 0, and the two walls meeting at each
CORNERS = (((1, -1), (0, 1)), ((1, 1), (1, 2)), ((-1, 1), (2, 3)),
           ((-1, -1), (0, 3)))


def assert_facing_matches_oracle(field, pts, owners):
    wall, _ = field.facing_walls(pts, owners, 1.0)
    assert list(wall) == [facing_wall(p, field.buildings[i])
                          for p, i in zip(pts, owners)]
    return wall


def test_facing_wall_corner_ties_go_to_the_smaller_index():
    # beyond a corner a point faces both walls meeting there, and the
    # corner is the nearest point of each: the two tie exactly, on the
    # diagonal and anywhere else in the corner's quadrant
    t = np.array([1e-3, 0.5, 3.0, 40.0, 700.0])
    for o in ORIENTATIONS:
        b = Building((12.0, -7.0), 30.0, 10.0, o)
        field = BuildingField([b])
        for sign, pair in CORNERS:
            uv = np.concatenate([np.column_stack([15.0 + t, 5.0 + t]),
                                 np.column_stack([15.0 + t, 5.0 + 0.2 * t]),
                                 np.column_stack([15.0 + 3.0 * t, 5.0 + t])])
            pts = local_points(b, uv * sign)
            wall = assert_facing_matches_oracle(field, pts,
                                                np.zeros(len(pts), int))
            assert (wall == min(pair)).all()


def test_facing_wall_on_wall_extension_lines():
    # On a wall's line, past its end, a point faces only the next wall; a
    # hair farther out it is beyond the corner (a tie, to the smaller
    # index), a hair inward it still faces the next wall alone. Exactly on
    # the line, only the axis-aligned frame is free of rounding; rotated,
    # either of the two walls is a right answer.
    t = np.array([1e-3, 2.0, 60.0])
    for o in ORIENTATIONS:
        b = Building((-4.0, 9.0), 30.0, 10.0, o)
        field = BuildingField([b])
        for sign, pair in CORNERS:
            for hair in (1e-6, 0.0, -1e-6):
                uv = np.concatenate([
                    np.column_stack([15.0 + t, np.full(3, 5.0 + hair)]),
                    np.column_stack([np.full(3, 15.0 + hair), 5.0 + t])])
                pts = local_points(b, uv * sign)
                owners = np.zeros(len(pts), int)
                if hair or o == 0.0:
                    wall = assert_facing_matches_oracle(field, pts, owners)
                else:
                    wall, _ = field.facing_walls(pts, owners, 1.0)
                assert set(wall) <= set(pair)


def test_facing_wall_inside_or_on_the_rectangle_takes_the_nearest():
    # a point inside or on the rectangle faces no wall, so the nearest
    # one wins; on the corners themselves, the smaller index
    uv = np.array([[3.0, 4.5], [14.0, -1.0], [-2.0, -4.9], [-14.5, 2.0],
                   [0.0, -5.0], [15.0, 1.0], [-6.0, 5.0], [-15.0, -3.0]])
    for o in ORIENTATIONS:
        b = Building((7.0, 2.0), 30.0, 10.0, o)
        field = BuildingField([b])
        wall = assert_facing_matches_oracle(field, local_points(b, uv),
                                            np.zeros(len(uv), int))
        assert list(wall) == [2, 1, 0, 3, 0, 1, 2, 3]
    b = Building((7.0, 2.0), 30.0, 10.0, 0.0)
    field = BuildingField([b])
    cs = np.array([w[0] for w in walls(b)])
    wall = assert_facing_matches_oracle(field, cs, np.zeros(4, int))
    assert list(wall) == [0, 0, 1, 2]


@pytest.mark.parametrize("lam", [100.0, 400.0, 1000.0])
def test_facing_walls_match_oracle_on_random_fields(lam):
    # nearest and random owners, points inside and outside rectangles;
    # the contracted ends match the oracle's wall at every beta
    rng = np.random.default_rng(int(lam))
    field = sample_buildings(Window(150.0, 20.0),
                             ScenarioParams(lambda_ell=lam), rng)
    pts = rng.uniform(-200.0, 200.0, size=(400, 2))
    for owners in (nearest_buildings(field, pts),
                   rng.integers(0, len(field), size=len(pts))):
        wall = assert_facing_matches_oracle(field, pts, owners)
        for beta in (0.0, 0.4, 1.0):
            _, ends = field.facing_walls(pts, owners, beta)
            for j in range(0, len(pts), 7):
                (x1, y1), (x2, y2) = walls(field.buildings[owners[j]])[wall[j]]
                ref = [(((1 - beta) * x2 + (1 + beta) * x1) / 2,
                        ((1 - beta) * y2 + (1 + beta) * y1) / 2),
                       (((1 - beta) * x1 + (1 + beta) * x2) / 2,
                        ((1 - beta) * y1 + (1 + beta) * y2) / 2),
                       ((x1 + x2) / 2, (y1 + y2) / 2)]
                assert ends[:, j] == pytest.approx(np.array(ref), abs=1e-9)


def test_nearest_wall_brute_force():
    # the facing wall of the nearest building is the nearest wall of all
    rng = np.random.default_rng(6)
    field = make_field(rng, n=15)
    pts = rng.uniform(-240, 240, size=(200, 2))
    pts = pts[~boundary_distances(field, pts)[1]]
    wall, ends = field.facing_walls(pts, field.nearest_building_many(pts), 1.0)
    for j, p in enumerate(pts):
        d_pick = point_segment_distance(p, ends[0][j], ends[1][j])
        d_best = min(point_segment_distance(p, *w)
                     for b in field.buildings for w in walls(b))
        assert d_pick == pytest.approx(d_best, abs=1e-9)
        # the picked wall faces the point
        (mx, my), (ax, ay) = ends[2][j], ends[0][j]
        bx, by = ends[1][j]
        assert (p[0] - mx) * (by - ay) - (p[1] - my) * (bx - ax) > 0.0
        assert wall[j] == facing_wall(p, field.buildings[
            nearest_buildings(field, p)[0]])


def spans(field, bs_xy, beta):
    """Angle the contracted facing wall subtends at each BS: the
    discovery range when theta is below every nonzero span."""
    return classify_many(bs_xy, field, 1e-12, beta).discovery_range


def test_discovery_angle_perpendicular_case():
    b = Building((0.0, 0.0), 30.0, 10.0, 0.0)
    field = BuildingField([b])
    wall = walls(b)[0]                      # y = -5, from (-15,-5) to (15,-5)
    bs = (0.0, -45.0)                       # 40 m off the wall, on the bisector
    for beta in (1.0, 0.5, 0.25):
        expected = 2.0 * math.atan(beta * 15.0 / 40.0)
        assert discovery_angle(bs, wall, beta) == pytest.approx(expected)
        assert spans(field, [bs], beta)[0] == pytest.approx(expected)
    assert discovery_angle(bs, wall, 0.0) == 0.0
    # with the wall collapsed the BS stays omni
    assert spans(field, [bs], 0.0)[0] == 2.0 * math.pi


def test_discovery_angle_monotone_in_beta_and_wrap_safe():
    rng = np.random.default_rng(8)
    b = Building((0.0, 0.0), 30.0, 10.0, 0.6)
    field = BuildingField([b])
    ang = rng.uniform(0, 2 * math.pi, size=50)
    bs_xy = 120.0 * np.column_stack([np.cos(ang), np.sin(ang)])
    betas = np.linspace(0, 1, 9)
    for bs in bs_xy:
        # any wall, also seen from behind
        grid = [discovery_angle(bs, walls(b)[2], bb) for bb in betas]
        assert all(0.0 <= g <= math.pi for g in grid)
        assert all(g2 >= g1 - 1e-12 for g1, g2 in zip(grid, grid[1:]))
    grid = np.array([spans(field, bs_xy, bb) for bb in betas[1:]])
    assert ((grid > 0.0) & (grid <= math.pi)).all()
    assert (np.diff(grid, axis=0) >= -1e-12).all()
    facing = [walls(b)[facing_wall(bs, b)] for bs in bs_xy]
    for bb, row in zip(betas[1:], grid):
        ref = [discovery_angle(bs, w, bb) for bs, w in zip(bs_xy, facing)]
        assert row == pytest.approx(ref, abs=1e-12)
