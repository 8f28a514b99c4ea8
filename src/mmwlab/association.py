"""Cell discovery and association under the building-aware scheme.

A BS close enough to a building that the bias-contracted facing wall
subtends at least its beamwidth becomes dedicated: it broadcasts reference
signals only into the cone toward that wall. Everyone else broadcasts
omni-directionally. UEs associate by maximum averaged RSRP among BSs whose
reference signal reaches them; UEs discovered by nobody fall back to a
reverse pilot that every LOS BS can hear. With a common main-lobe gain
both picks are the nearest eligible LOS BS, which `associate_all` finds
by walking each UE's BSs nearest-first in rank blocks of doubling width:
first the BSs whose cone holds the UE, then the others, only for the UEs
that no cone BS reaches.

The BSs are one table held as arrays: positions in `bs_xy`, and boresight,
discovery range and nearest building in a `BsTable` with the same rows.
`classify_many` fills the table in one batched pass; a BS is dedicated
when its range is below 2*pi. Each LOS test of the walk clips first
against the buildings the drop already knows next to its two ends: the
BS's nearest one, and the one within d_c of a near UE.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import BuildingField, angular_offset, los_pairs

PATH_REFERENCE = 0   # discovered via broadcast reference signal
PATH_PILOT = 1       # fallback: BS heard the UE's reverse pilot
PATH_NONE = -1       # uncovered

_FIRST_BLOCK = 2  # BSs per UE in the first block of the nearest-first walk


@dataclass(frozen=True)
class BsTable:
    """Discovery cone and nearest building of each BS, by row of the BS
    position array. `building` is -1 in a field with no buildings."""

    boresight: np.ndarray        # [rad], toward the facing wall's midpoint
    discovery_range: np.ndarray  # [rad], full cone width; 2*pi when omni
    building: np.ndarray

    @property
    def dedicated(self) -> np.ndarray:
        return self.discovery_range < 2.0 * math.pi


@dataclass
class Association:
    serving: np.ndarray  # BS index per UE, -1 when uncovered
    path: np.ndarray     # PATH_* per UE


def classify_many(bs_xy: np.ndarray, field: BuildingField, theta: float,
                  beta: float) -> BsTable:
    """Boresight and discovery range of each BS, by row of bs_xy.

    With no buildings every BS stays omni-directional. Otherwise a BS
    looks at the facing wall of its nearest building, contracted by beta
    (`BuildingField.facing_walls`, batched over every BS), and becomes
    dedicated when theta <= the angle the contracted wall subtends;
    beta=0 collapses the wall, so the scheme is off. The boresight
    points at the wall's midpoint, for omni BSs as well. The nearest
    building stays in the table for the LOS tests of `associate_all`.
    """
    bs_xy = np.asarray(bs_xy, dtype=float).reshape(-1, 2)
    n = len(bs_xy)
    if len(field) == 0:
        return BsTable(np.zeros(n), np.full(n, 2.0 * math.pi), np.full(n, -1))
    nearest = field.nearest_building_many(bs_xy)
    _, ends = field.facing_walls(bs_xy, nearest, beta)
    ang = np.arctan2(ends[..., 1] - bs_xy[:, 1], ends[..., 0] - bs_xy[:, 0])
    span = angular_offset(ang[0], ang[1])
    return BsTable(ang[2], np.where(theta <= span, span, 2.0 * math.pi),
                   nearest)


def _cone_mask(ue_xy: np.ndarray, bs_xy: np.ndarray,
               bs_table: BsTable) -> np.ndarray:
    """(n_ue, n_bs) mask: UE inside that BS's discovery cone.

    One broadcast over the dedicated columns; the cone edge is inclusive
    and omni columns accept everything.
    """
    mask = np.ones((len(ue_xy), len(bs_xy)), dtype=bool)
    cols = np.flatnonzero(bs_table.dedicated)
    ang = np.arctan2(ue_xy[:, 1, None] - bs_xy[cols, 1],
                     ue_xy[:, 0, None] - bs_xy[cols, 0])
    mask[:, cols] = (angular_offset(ang, bs_table.boresight[cols])
                     <= bs_table.discovery_range[cols] / 2.0)
    return mask


def _sq_distances(ue_xy: np.ndarray, bs_xy: np.ndarray) -> np.ndarray:
    """(n_ue, n_bs) squared distances, built in place to keep one spare copy."""
    d2 = ue_xy[:, None, 0] - bs_xy[None, :, 0]
    d2 *= d2
    dy = ue_xy[:, None, 1] - bs_xy[None, :, 1]
    dy *= dy
    d2 += dy
    return d2


def _walk(d2: np.ndarray, ues: np.ndarray, ue_xy: np.ndarray,
          bs_xy: np.ndarray, field: BuildingField, ue_building: np.ndarray,
          bs_building: np.ndarray) -> np.ndarray:
    """Column of the nearest LOS BS for each row, -1 where none is LOS.

    Row r of `d2` holds UE ues[r]'s squared distances, inf for a BS it may
    not take. The walk goes nearest-first in rank blocks that double in
    width: each block holds the row's BSs that are farther than the
    previous block's threshold and no farther than its own, the k-th
    smallest distance (ties at it included). One batched LOS test covers
    the block of every row still walking, and a row stops at its first
    block with a LOS BS: later blocks are strictly farther, and within
    the block the nearest LOS BS wins, ties by BS index. The buildings
    next to each UE and BS are the LOS tests' hints (`los_pairs`).
    """
    n_bs = d2.shape[1]
    win = np.full(len(d2), -1)
    below = np.full(len(d2), -1.0)  # threshold of the previous block
    rows = np.arange(len(d2))
    k = _FIRST_BLOCK
    while len(rows):
        sub = d2 if len(rows) == len(d2) else d2[rows]
        if k < n_bs:
            top = np.partition(sub, k - 1, axis=1)[:, k - 1]
        else:
            top = np.full(len(rows), np.inf)
        pu, pb = np.nonzero((sub > below[rows, None]) & (sub <= top[:, None])
                            & (sub < np.inf))
        u = ues[rows[pu]]
        los = los_pairs(ue_xy[u], bs_xy[pb], field,
                        (ue_building[u], bs_building[pb]))
        pu, pb = pu[los], pb[los]
        # lexsort is stable and pb ascends within a row: ties keep BS order
        order = np.lexsort((sub[pu, pb], pu))
        first = order[np.flatnonzero(np.diff(pu[order], prepend=-1))]
        win[rows[pu[first]]] = pb[first]
        below[rows] = top
        rows = rows[(win[rows] < 0) & (top < np.inf)]
        k *= 2
    return win


def associate_all(ue_xy: np.ndarray, bs_xy: np.ndarray, bs_table: BsTable,
                  field: BuildingField, use_cones: bool = True,
                  ue_building: np.ndarray | None = None) -> Association:
    """Associate every UE. Deterministic: no randomness, ties by BS index.

    Averaged RSRP with a common main-lobe gain makes the winner the
    nearest eligible BS, so each UE walks its BSs nearest-first (`_walk`)
    and stops at the first LOS one. The reference walk takes the BSs
    whose cone holds the UE; only UEs it leaves without a winner walk the
    other BSs, whose nearest LOS one then hears their pilot (every cone
    BS of theirs is blocked). Row j of `bs_xy` and of `bs_table` is BS j.
    `use_cones=False` is the plain max-RSRP baseline (every BS
    discoverable, no pilot phase; the cones are not read).
    `ue_building` names a building within d_c of each UE (-1 for none);
    with the table's nearest buildings it only speeds up the LOS tests
    and never changes the result.
    """
    ue_xy = np.atleast_2d(np.asarray(ue_xy, dtype=float))
    bs_xy = np.asarray(bs_xy, dtype=float).reshape(-1, 2)
    n_ue, n_bs = len(ue_xy), len(bs_xy)
    serving = np.full(n_ue, PATH_NONE, dtype=int)
    path = np.full(n_ue, PATH_NONE, dtype=np.int8)
    if n_ue == 0 or n_bs == 0:
        return Association(serving, path)

    if ue_building is None:
        ue_building = np.full(n_ue, -1)
    bs_building = bs_table.building
    d2 = _sq_distances(ue_xy, bs_xy)
    if use_cones:
        cone = _cone_mask(ue_xy, bs_xy, bs_table)
        d2[~cone] = np.inf
    ues = np.arange(n_ue)
    win = _walk(d2, ues, ue_xy, bs_xy, field, ue_building, bs_building)
    hit = win >= 0
    serving[hit] = win[hit]
    path[hit] = PATH_REFERENCE
    if use_cones:
        ues = np.flatnonzero(~hit)
        d2 = _sq_distances(ue_xy[ues], bs_xy)
        d2[cone[ues]] = np.inf
        win = _walk(d2, ues, ue_xy, bs_xy, field, ue_building, bs_building)
        hit = win >= 0
        serving[ues[hit]] = win[hit]
        path[ues[hit]] = PATH_PILOT
    return Association(serving, path)


def schedule(assoc: Association, n_bs: int,
             rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """(UE each BS serves this slot, UEs per BS), both by BS index.

    Each nonempty cell picks one of its UEs, in index order, uniformly;
    empty cells get -1. The picks are one array-valued draw over the
    nonempty cells in BS order, which takes the same values from the
    generator as one `rng.integers(0, count)` per cell in turn.
    """
    serving = assoc.serving
    counts = np.bincount(serving[serving >= 0], minlength=n_bs)
    target = np.full(n_bs, -1)
    busy = np.flatnonzero(counts)
    if len(busy):
        # stable: uncovered UEs first, then each cell's UEs in index order
        order = np.argsort(serving, kind="stable")
        starts = np.cumsum(counts) - counts + (len(serving) - counts.sum())
        target[busy] = order[starts[busy] + rng.integers(0, counts[busy])]
    return target, counts
