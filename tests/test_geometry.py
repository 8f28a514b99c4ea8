"""Geometry kernel: windows, rectangle fields, LOS tests, wall picking.

Where a closed form exists the tests pin it; everything stochastic is
checked against brute-force oracles on seeded draws. The scalar oracles
for rectangle distance and LOS live in `oracles.py`.
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
    discovery_angle,
    facing_wall,
    los_pairs,
    los_to_many,
    sample_buildings,
    sample_ppp,
)
from mmwlab.scenario import ScenarioParams
from oracles import boundary_distances, los_between, nearest_buildings, to_local


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


def test_building_corners_axis_aligned():
    b = Building(center=(5.0, -2.0), length=30.0, width=10.0, orientation=0.0)
    cs = b.corners()
    assert cs == pytest.approx(np.array([[-10.0, -7.0], [20.0, -7.0],
                                         [20.0, 3.0], [-10.0, 3.0]]))


def test_wall_normals_point_outward():
    b = Building(center=(0.0, 0.0), length=30.0, width=10.0, orientation=0.0)
    normals = [w.outward_normal for w in b.walls()]
    assert normals[0] == pytest.approx((0.0, -1.0))
    assert normals[1] == pytest.approx((1.0, 0.0))
    assert normals[2] == pytest.approx((0.0, 1.0))
    assert normals[3] == pytest.approx((-1.0, 0.0))
    assert [w.length for w in b.walls()] == pytest.approx([30, 10, 30, 10])
    assert b.walls()[0].midpoint == pytest.approx((0.0, -5.0))


def test_rotated_corners_preserve_shape():
    b = Building(center=(3.0, 4.0), length=24.0, width=8.0, orientation=1.1)
    cs = b.corners()
    sides = [np.linalg.norm(cs[(k + 1) % 4] - cs[k]) for k in range(4)]
    assert sides == pytest.approx([24.0, 8.0, 24.0, 8.0])
    assert cs.mean(axis=0) == pytest.approx([3.0, 4.0])


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
        field.nearest_building((0.0, 0.0))


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
    assert field.nearest_building((19.0, 300.0)) == 0
    assert swapped.nearest_building((19.0, 300.0)) == 1


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


def test_nearest_wall_brute_force():
    def seg_dist(p, a, b):
        a = np.asarray(a); b = np.asarray(b); p = np.asarray(p)
        t = np.clip(np.dot(p - a, b - a) / np.dot(b - a, b - a), 0.0, 1.0)
        return float(np.linalg.norm(p - (a + t * (b - a))))

    rng = np.random.default_rng(6)
    field = make_field(rng, n=15)
    for _ in range(200):
        p = rng.uniform(-240, 240, size=2)
        _, indoor = boundary_distances(field, p)
        if indoor[0]:
            continue
        w = facing_wall(p, field, field.nearest_building(p))
        d_pick = seg_dist(p, w.v1, w.v2)
        d_best = min(seg_dist(p, ww.v1, ww.v2)
                     for b_i, b in enumerate(field.buildings)
                     for ww in b.walls(owner=b_i))
        assert d_pick == pytest.approx(d_best, abs=1e-9)
        # picked wall faces the point
        mx, my = w.midpoint
        nx, ny = w.outward_normal
        assert (p[0] - mx) * nx + (p[1] - my) * ny > 0.0


def test_discovery_angle_perpendicular_case():
    b = Building((0.0, 0.0), 30.0, 10.0, 0.0)
    wall = b.walls()[0]                     # y = -5, from (-15,-5) to (15,-5)
    bs = (0.0, -45.0)                       # 40 m off the wall, on the bisector
    for beta in (1.0, 0.5, 0.25):
        expected = 2.0 * math.atan(beta * 15.0 / 40.0)
        assert discovery_angle(bs, wall, beta) == pytest.approx(expected)
    assert discovery_angle(bs, wall, 0.0) == 0.0


def test_discovery_angle_monotone_in_beta_and_wrap_safe():
    rng = np.random.default_rng(8)
    b = Building((0.0, 0.0), 30.0, 10.0, 0.6)
    wall = b.walls()[2]
    for _ in range(50):
        ang = rng.uniform(0, 2 * math.pi)
        bs = (120.0 * math.cos(ang), 120.0 * math.sin(ang))
        grid = [discovery_angle(bs, wall, bb) for bb in np.linspace(0, 1, 9)]
        assert all(0.0 <= g <= math.pi for g in grid)
        assert all(g2 >= g1 - 1e-12 for g1, g2 in zip(grid, grid[1:]))
