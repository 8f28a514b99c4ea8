"""Plain reference versions of the package's fast kernels.

Each function does the job the plain way (one element at a time, or by
adaptive quadrature where the package has a closed form), so the tests
can check the kernels in `mmwlab` against it. Nothing in the package
imports this module.
"""

import math

import numpy as np
from scipy import integrate


def to_local(field, points, i):
    """Coordinates of `points` in building i's axis frame."""
    d = np.atleast_2d(points) - field.centers[i]
    u = d[:, 0] * field.cos_o[i] + d[:, 1] * field.sin_o[i]
    v = -d[:, 0] * field.sin_o[i] + d[:, 1] * field.cos_o[i]
    return u, v


def _distances_to(field, i, pts):
    """(distance to rectangle i, inside mask) for each point."""
    u, v = to_local(field, pts, i)
    du = np.maximum(np.abs(u) - field.half_l[i], 0.0)
    dv = np.maximum(np.abs(v) - field.half_w[i], 0.0)
    inside = (np.abs(u) <= field.half_l[i]) & (np.abs(v) <= field.half_w[i])
    return np.hypot(du, dv), inside


def boundary_distances(field, points):
    """(min distance to any rectangle, indoor mask) for each point.

    Distance is Euclidean to the rectangle boundary, 0 for indoor points;
    every rectangle of the field is visited.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    best = np.full(len(pts), np.inf)
    indoor = np.zeros(len(pts), dtype=bool)
    for i in range(len(field)):
        dist, inside = _distances_to(field, i, pts)
        best = np.minimum(best, dist)
        indoor |= inside
    return best, indoor


def nearest_buildings(field, points):
    """Index of the nearest rectangle for each point, visiting every
    rectangle; exact ties go to the smaller index."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    dist = np.array([_distances_to(field, i, pts)[0] for i in range(len(field))])
    return np.argmin(dist, axis=0)


def _segment_blocked_by(field, i, p, q):
    """Open segment (p, q) vs solid rectangle i, via slab clipping."""
    up, vp = to_local(field, p[None, :], i)
    uq, vq = to_local(field, q[None, :], i)
    p0 = (up[0], vp[0])
    d = (uq[0] - up[0], vq[0] - vp[0])
    half = (field.half_l[i], field.half_w[i])

    t0, t1 = 0.0, 1.0
    for ax in range(2):
        if abs(d[ax]) < 1e-15:
            if abs(p0[ax]) > half[ax]:
                return False
            continue
        ta = (-half[ax] - p0[ax]) / d[ax]
        tb = (half[ax] - p0[ax]) / d[ax]
        t0 = max(t0, min(ta, tb))
        t1 = min(t1, max(ta, tb))
        if t0 > t1:
            return False
    # Endpoint-only contact does not block the open segment.
    return t1 > 0.0 and t0 < 1.0


def los_between(p, q, field):
    """True iff the open segment (p, q) meets no rectangle (interior or
    boundary). Zero-length segments are unobstructed by convention."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if np.array_equal(p, q):
        return True
    return not any(_segment_blocked_by(field, i, p, q)
                   for i in range(len(field)))


def walls(building):
    """The four walls of a Building as (start, end) pairs of world
    corners, counterclockwise from its local corner (-L/2, -W/2)."""
    hl, hw = building.length / 2.0, building.width / 2.0
    c, s = math.cos(building.orientation), math.sin(building.orientation)
    cx, cy = building.center
    cs = [(cx + x * c - y * s, cy + x * s + y * c)
          for x, y in ((-hl, -hw), (hl, -hw), (hl, hw), (-hl, hw))]
    return [(cs[k], cs[k - 3]) for k in range(4)]


def point_segment_distance(p, a, b):
    """Euclidean distance from point p to the segment from a to b."""
    px, py = p
    ax, ay = a
    bx, by = b
    dx, dy = bx - ax, by - ay
    ll = dx * dx + dy * dy
    if ll == 0.0:
        return math.hypot(px - ax, py - ay)
    s = min(1.0, max(0.0, ((px - ax) * dx + (py - ay) * dy) / ll))
    return math.hypot(px - (ax + s * dx), py - (ay + s * dy))


def facing_wall(point, building):
    """Index of the wall of `building` that faces `point`.

    Among the walls whose outward half-plane holds the point strictly,
    the nearest wins; a point inside or on the rectangle faces none, and
    then every wall competes. Distances within 1e-9 m tie, and ties go
    to the smaller index.
    """
    px, py = float(point[0]), float(point[1])
    ws = walls(building)

    def faces(k):
        (ax, ay), (bx, by) = ws[k]
        # corners run counterclockwise: the outward normal is (dy, -dx)
        return ((px - (ax + bx) / 2.0) * (by - ay)
                - (py - (ay + by) / 2.0) * (bx - ax)) > 0.0

    ks = [k for k in range(4) if faces(k)] or list(range(4))
    dist = [point_segment_distance((px, py), *ws[k]) for k in ks]
    return next(k for k, d in zip(ks, dist) if d <= min(dist) + 1e-9)


def discovery_angle(bs, wall, beta):
    """Angle subtended at `bs` by the (start, end) wall contracted about
    its midpoint to a fraction beta of its length, in [0, pi]."""
    bx, by = float(bs[0]), float(bs[1])
    (x1, y1), (x2, y2) = wall
    p1x = ((1.0 - beta) * x2 + (1.0 + beta) * x1) / 2.0
    p1y = ((1.0 - beta) * y2 + (1.0 + beta) * y1) / 2.0
    p2x = ((1.0 - beta) * x1 + (1.0 + beta) * x2) / 2.0
    p2y = ((1.0 - beta) * y1 + (1.0 + beta) * y2) / 2.0
    d = abs(math.atan2(p1y - by, p1x - bx) - math.atan2(p2y - by, p2x - bx))
    return 2.0 * math.pi - d if d > math.pi else d


def classify_bs(position, field, theta, beta):
    """(boresight, discovery range) of one BS: the facing wall of its
    nearest building, contracted by beta, decides dedicated (range =
    the angle it subtends, at least theta) or omni (range 2*pi)."""
    if len(field) == 0:
        return 0.0, 2.0 * math.pi
    b = field.buildings[int(nearest_buildings(field, position)[0])]
    wall = walls(b)[facing_wall(position, b)]
    (x1, y1), (x2, y2) = wall
    bore = math.atan2((y1 + y2) / 2.0 - position[1],
                      (x1 + x2) / 2.0 - position[0])
    span = discovery_angle(position, wall, beta)
    return bore, span if theta <= span else 2.0 * math.pi


def in_discovery_cone(bs, boresight, discovery_range, ue):
    """Whether the UE direction falls inside the cone of a BS at `bs`.

    The cone edge is inclusive; omni BSs accept everything.
    """
    if discovery_range >= 2.0 * math.pi:
        return True
    ang = math.atan2(ue[1] - bs[1], ue[0] - bs[0])
    off = abs(ang - boresight) % (2.0 * math.pi)
    if off > math.pi:
        off = 2.0 * math.pi - off
    return off <= discovery_range / 2.0


def sq_distances(ue_xy, bs_xy):
    """(n_ue, n_bs) squared distances by one broadcast over both axes."""
    return ((ue_xy[:, None, :] - bs_xy[None, :, :]) ** 2).sum(axis=2)


def cell_load(ue_xy, bs_xy, s):
    """Number of UEs whose nearest BS is column s; a UE equidistant from
    several BSs goes to the smallest column, as `np.argmin` does."""
    return int(np.sum(np.argmin(sq_distances(ue_xy, bs_xy), axis=1) == s))


def band_integral(lo, hi, half_alpha):
    """int_lo^hi du / (1 + u^a) by adaptive quadrature in s = ln(u).

    The substitution turns the long power-law tail into a short,
    smooth integrand 1 / (e^-s + e^((a - 1) s)).
    """
    val, _ = integrate.quad(
        lambda s: 1.0 / (math.exp(-s) + math.exp((half_alpha - 1.0) * s)),
        math.log(lo), math.log(hi), epsabs=0.0, epsrel=1e-13, limit=500)
    return val


def grid_refine_max(f, lo, hi, n_grid=201, tol=1e-4):
    """The bias optimizer's scan with every grid point evaluated by `f`:
    uniform grid, then golden-section refinement around the best cell.

    Returns the better of the refined point and the best grid point.
    """
    from mmwlab.analytic import _golden_max

    xs = np.linspace(lo, hi, n_grid)
    vals = np.array([f(x) for x in xs])
    i = int(np.argmax(vals))
    a = xs[max(i - 1, 0)]
    b = xs[min(i + 1, n_grid - 1)]
    xr, vr = _golden_max(f, float(a), float(b), tol)
    if vr > vals[i]:
        return xr, vr
    return float(xs[i]), float(vals[i])
