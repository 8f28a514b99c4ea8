"""Planar geometry for the urban blockage model.

Buildings are a Boolean field of rectangles (fixed footprint, uniform
random orientation). All spatial queries are exact: line-of-sight is a
segment-vs-rectangle intersection test, not a raster approximation.
Distances in meters, densities per km^2, angles in radians.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .scenario import _PER_KM2_TO_M2

_LOS_BLOCK = 256  # segments screened and clipped against every building at once
# outward normal of wall 0..3 in the building's frame
_NORMALS = np.array([[0.0, -1.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])


class EmptyFieldError(ValueError):
    """Raised when a query needs at least one building and none exist."""


class RegionClass(Enum):
    NEAR = "near"      # outdoor, within d_c of some building
    FAR = "far"        # outdoor, farther than d_c from every building
    INDOOR = "indoor"  # inside a rectangle


@dataclass(frozen=True)
class Window:
    """Square observation window centered on the origin.

    Metrics are evaluated at the origin only; point processes are sampled
    on the window expanded by `margin` on every side so that blockers and
    transmitters near the boundary are not clipped away.
    """

    half_width: float  # [m]
    margin: float      # [m]

    @property
    def sample_half(self) -> float:
        return self.half_width + self.margin

    @property
    def sample_area_m2(self) -> float:
        return (2.0 * self.sample_half) ** 2


@dataclass(frozen=True)
class Building:
    center: tuple[float, float]
    length: float       # [m], along the local x axis
    width: float        # [m], along the local y axis
    orientation: float  # [rad], in [0, pi)


class BuildingField:
    """A finite realization of the rectangle field, in array form."""

    def __init__(self, buildings: list[Building]):
        self.buildings = list(buildings)
        n = len(self.buildings)
        self.centers = np.array([b.center for b in self.buildings], dtype=float).reshape(n, 2)
        self.half_l = np.array([b.length / 2.0 for b in self.buildings])
        self.half_w = np.array([b.width / 2.0 for b in self.buildings])
        self.circum = np.hypot(self.half_l, self.half_w)
        ors = np.array([b.orientation for b in self.buildings])
        self.cos_o = np.cos(ors) if n else np.zeros(0)
        self.sin_o = np.sin(ors) if n else np.zeros(0)
        self._grids: dict[float, tuple] = {}

    def __len__(self) -> int:
        return len(self.buildings)

    def _local(self, points: np.ndarray, owners: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Coordinates of each points[k] in building owners[k]'s axis frame."""
        dx = points[:, 0] - self.centers[owners, 0]
        dy = points[:, 1] - self.centers[owners, 1]
        cos, sin = self.cos_o[owners], self.sin_o[owners]
        return dx * cos + dy * sin, -dx * sin + dy * cos

    def _pair_distance(self, points: np.ndarray, owners: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(Euclidean distance to rectangle owners[k], inside mask) for each
        points[k]. The distance is 0 for points inside or on the rectangle.
        """
        u, v = self._local(points, owners)
        au, av = np.abs(u), np.abs(v)
        hl, hw = self.half_l[owners], self.half_w[owners]
        du = np.maximum(au - hl, 0.0)
        dv = np.maximum(av - hw, 0.0)
        return np.hypot(du, dv), (au <= hl) & (av <= hw)

    def facing_walls(self, points: np.ndarray, owners: np.ndarray,
                     beta: float) -> tuple[np.ndarray, np.ndarray]:
        """Facing wall of building owners[k] as seen from points[k].

        Wall j of a rectangle runs counterclockwise from its local corner
        (-L/2, -W/2) and faces -y, +x, +y, -x for j = 0..3. With
        du = |u| - L/2 and dv = |v| - W/2 in the owner's frame, the point
        is in the outward half-plane of one wall when only one of them is
        positive, and of the two walls meeting at a corner when both are.
        The corner is then the nearest point of both walls, so they tie
        exactly and the smaller index wins. A point inside or on the
        rectangle faces no wall and takes the nearest one, ties again to
        the smaller index.

        Returns the wall index and a (3, n, 2) array of world coordinates:
        the two ends of the wall contracted about its midpoint to a
        fraction beta of its length, then the midpoint.
        """
        u, v = self._local(points, owners)
        hl, hw = self.half_l[owners], self.half_w[owners]
        du = np.abs(u) - hl
        dv = np.abs(v) - hw
        across = np.where(v > 0.0, 2, 0)  # the wall a point beyond W/2 faces
        along = np.where(u < 0.0, 3, 1)   # the wall a point beyond L/2 faces
        wall = np.where(dv > du, across, along)
        tie = (du == dv) | ((du > 0.0) & (dv > 0.0))
        wall = np.where(tie, np.minimum(across, along), wall)
        nu, nv = _NORMALS[wall].T
        mu, mv = nu * hl, nv * hw
        tu, tv = -nv * beta * hl, nu * beta * hw  # half the contracted wall
        lu = np.stack([mu - tu, mu + tu, mu])
        lv = np.stack([mv - tv, mv + tv, mv])
        cos, sin = self.cos_o[owners], self.sin_o[owners]
        x = self.centers[owners, 0] + lu * cos - lv * sin
        y = self.centers[owners, 1] + lu * sin + lv * cos
        return wall, np.stack([x, y], axis=-1)

    def nearest_building_many(self, points: np.ndarray) -> np.ndarray:
        """Index of the nearest rectangle for each point (ties: smaller index).

        Each pass takes the candidates of the cell hash at one reach and
        settles the points whose nearest candidate lies within it, since
        every rectangle outside the neighborhood is at least that far. The
        rest go round again at twice the reach, until the neighborhood of
        every point holds every rectangle.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if len(self) == 0:
            raise EmptyFieldError("building field is empty")
        span = float(np.ptp(np.vstack([pts, self.centers]), axis=0).max())
        if not math.isfinite(span):
            raise ValueError("points must be finite")
        width, height = np.ptp(self.centers, axis=0)
        # start at the mean spacing of the centers
        reach = max(math.sqrt(width * height / len(self)), float(np.max(self.circum)))
        best = np.zeros(len(pts), dtype=int)
        todo = np.arange(len(pts))
        while len(todo):
            pt, b = self._candidates(pts[todo], reach)
            dist, _ = self._pair_distance(pts[todo[pt]], b)
            order = np.lexsort((b, dist, pt))  # per point: nearest, then index
            first = order[np.flatnonzero(np.diff(pt[order], prepend=-1))]
            done = first if reach >= span else first[dist[first] < reach]
            best[todo[pt[done]]] = b[done]
            todo = np.delete(todo, pt[done])
            reach *= 2.0
        return best

    def _cell_grid(self, reach: float) -> tuple:
        """Uniform hash of building centers, keyed by the query reach.

        Cell size >= circumradius + reach guarantees that every rectangle
        within `reach` of a point has its center inside the point's 3x3
        cell neighborhood. A cell's key is column * rows + row, counted
        from two cells outside the occupied range, so the three cells of
        one column in a neighborhood are one run of keys. Returns the cell
        size, the lowest and highest cell (both two cells outside), the
        row count, the sorted building keys and the building indices in
        that order.
        """
        key = round(reach, 9)
        grid = self._grids.get(key)
        if grid is None:
            cell = max(float(np.max(self.circum)) + reach, 1e-6)
            ij = np.floor(self.centers / cell)
            lo = ij.min(axis=0) - 2.0
            hi = ij.max(axis=0) + 2.0
            rows = int(hi[1] - lo[1]) + 1
            ij -= lo
            keys = (ij[:, 0] * rows + ij[:, 1]).astype(np.int64)
            order = np.argsort(keys, kind="stable")
            grid = (cell, lo, hi, rows, keys[order], order)
            self._grids[key] = grid
        return grid

    def _candidates(self, pts: np.ndarray, reach: float) -> tuple[np.ndarray, np.ndarray]:
        """(point index, building index) for every building whose center
        lies in the 3x3 cell neighborhood of a point: a superset of the
        buildings within `reach` of it.

        A point outside the occupied cells is clamped to the outer ring,
        whose neighborhoods hold no building, as the true ones do not.
        """
        cell, lo, hi, rows, keys, order = self._cell_grid(reach)
        ij = np.clip(np.floor(pts / cell), lo, hi) - lo
        mid = (ij[:, 0] * rows + ij[:, 1]).astype(np.int64)
        runs = mid[:, None] + rows * np.arange(-1, 2)
        starts = np.searchsorted(keys, (runs - 1).ravel(), side="left")
        counts = np.searchsorted(keys, (runs + 1).ravel(), side="right") - starts
        point = np.repeat(np.arange(len(pts)), 3)
        first = np.cumsum(counts) - counts
        pos = np.arange(counts.sum()) + np.repeat(starts - first, counts)
        return np.repeat(point, counts), order[pos]

    def near_indoor_masks(self, points: np.ndarray, d_c: float) -> tuple[np.ndarray, np.ndarray]:
        """(within-d_c mask, indoor mask), grid-accelerated but exact.

        Near means distance <= d_c to some rectangle's boundary. Indoor
        points have distance 0, so they are near as well; callers test
        indoor first.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        near = np.zeros(len(pts), dtype=bool)
        indoor = np.zeros(len(pts), dtype=bool)
        if len(self) == 0 or len(pts) == 0:
            return near, indoor
        pt, b = self._candidates(pts, d_c)
        dist, inside = self._pair_distance(pts[pt], b)
        near[pt[dist <= d_c]] = True
        indoor[pt[inside]] = True
        return near, indoor


def sample_ppp(window: Window, density_per_km2: float, rng: np.random.Generator) -> np.ndarray:
    """Homogeneous PPP on the margin-expanded window. Returns (n, 2) [m]."""
    lam_m2 = density_per_km2 * _PER_KM2_TO_M2
    n = rng.poisson(lam_m2 * window.sample_area_m2)
    h = window.sample_half
    return rng.uniform(-h, h, size=(n, 2))


def sample_buildings(window: Window, params, rng: np.random.Generator) -> BuildingField:
    """Boolean rectangle field: PPP centers, iid orientation uniform [0, pi).

    Every rectangle has the deterministic footprint d_l x d_w.
    """
    centers = sample_ppp(window, params.lambda_ell, rng)
    n = len(centers)
    orients = rng.uniform(0.0, math.pi, size=n)
    return BuildingField([
        Building((centers[i, 0], centers[i, 1]), params.d_l, params.d_w, orients[i])
        for i in range(n)
    ])


def classify_point(point, field: BuildingField, d_c: float) -> RegionClass:
    """RegionClass of one point: indoor, near (<= d_c of a wall), or far."""
    near, indoor = field.near_indoor_masks(
        np.asarray(point, dtype=float).reshape(1, 2), d_c)
    if indoor[0]:
        return RegionClass.INDOOR
    return RegionClass.NEAR if near[0] else RegionClass.FAR


def los_pairs(ps: np.ndarray, qs: np.ndarray, field: BuildingField) -> np.ndarray:
    """Line of sight for each segment (ps[k], qs[k]) of paired (n, 2) arrays.

    A segment is LOS iff its open interior meets no rectangle (interior or
    boundary); contact at an endpoint only does not block, and zero-length
    segments are unobstructed. Blocks of segments are screened against
    every rectangle at once by bounding boxes, and each surviving
    (segment, rectangle) pair is slab-clipped in the rectangle's frame.
    A single start point in `ps` is shared by every segment.
    """
    ps = np.atleast_2d(np.asarray(ps, dtype=float))
    qs = np.atleast_2d(np.asarray(qs, dtype=float))
    if ps.shape[0] == 1 and qs.shape[0] > 1:
        ps = np.broadcast_to(ps, qs.shape)
    n = len(qs)
    blocked = np.zeros(n, dtype=bool)
    if n == 0 or len(field) == 0:
        return ~blocked
    lo_xy = np.minimum(ps, qs)
    hi_xy = np.maximum(ps, qs)
    x_lo, y_lo = (field.centers - field.circum[:, None]).T.copy()
    x_hi, y_hi = (field.centers + field.circum[:, None]).T.copy()
    for s in range(0, n, _LOS_BLOCK):
        lo, hi = lo_xy[s:s + _LOS_BLOCK], hi_xy[s:s + _LOS_BLOCK]
        k, i = np.nonzero((lo[:, 0, None] <= x_hi) & (hi[:, 0, None] >= x_lo)
                          & (lo[:, 1, None] <= y_hi) & (hi[:, 1, None] >= y_lo))
        if len(k) == 0:
            continue
        k += s
        up, vp = field._local(ps[k], i)
        uq, vq = field._local(qs[k], i)
        du = uq - up
        dv = vq - vp
        t0 = np.zeros(len(k))
        t1 = np.ones(len(k))
        alive = np.ones(len(k), dtype=bool)
        for comp, half, p0c in ((du, field.half_l[i], up), (dv, field.half_w[i], vp)):
            par = np.abs(comp) < 1e-15
            alive &= ~(par & (np.abs(p0c) > half))
            safe = np.where(par, 1.0, comp)
            ta = (-half - p0c) / safe
            tb = (half - p0c) / safe
            lo_t = np.minimum(ta, tb)
            hi_t = np.maximum(ta, tb)
            t0 = np.where(par, t0, np.maximum(t0, lo_t))
            t1 = np.where(par, t1, np.minimum(t1, hi_t))
        hit = alive & (t0 <= t1) & (t1 > 0.0) & (t0 < 1.0)
        blocked[k[hit]] = True
    same = (qs[:, 0] == ps[:, 0]) & (qs[:, 1] == ps[:, 1])
    return ~blocked | same


def los_to_many(p, qs: np.ndarray, field: BuildingField) -> np.ndarray:
    """los_pairs from one point to many endpoints."""
    p = np.asarray(p, dtype=float).reshape(1, 2)
    qs = np.atleast_2d(np.asarray(qs, dtype=float))
    return los_pairs(p, qs, field)


def angular_offset(a, b):
    """Unsigned angle [rad] between directions a and b, in [0, pi];
    elementwise over arrays."""
    off = np.abs(a - b) % (2.0 * math.pi)
    return np.where(off > math.pi, 2.0 * math.pi - off, off)
