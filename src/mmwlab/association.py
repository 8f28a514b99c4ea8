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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .geometry import (BuildingField, Wall, angular_offset, discovery_angle,
                       facing_wall, los_pairs)

PATH_REFERENCE = 0   # discovered via broadcast reference signal
PATH_PILOT = 1       # fallback: BS heard the UE's reverse pilot
PATH_NONE = -1       # uncovered

_FIRST_BLOCK = 2  # BSs per UE in the first block of the nearest-first walk


class BsRole(Enum):
    OBS = "omni"       # omni-directional discovery
    DBS = "dedicated"  # discovery cone locked onto a wall


@dataclass(frozen=True)
class BsState:
    index: int
    position: tuple[float, float]
    role: BsRole
    boresight: float         # [rad], toward the wall midpoint for DBS
    discovery_range: float   # [rad], full cone width (2*pi for OBS)
    wall: Wall | None        # facing wall of the nearest building


@dataclass
class Association:
    serving: np.ndarray  # BS index per UE, -1 when uncovered
    path: np.ndarray     # PATH_* per UE

    @property
    def n_ue(self) -> int:
        return len(self.serving)

    def uncovered(self) -> np.ndarray:
        return self.serving == PATH_NONE

    def ues_of(self, bs_index: int) -> np.ndarray:
        return np.flatnonzero(self.serving == bs_index)


def classify_many(bs_xy: np.ndarray, field: BuildingField, theta: float,
                  beta: float) -> list[BsState]:
    """Role, boresight and discovery range of each BS, indexed by row.

    With no buildings every BS stays omni-directional. Otherwise a BS
    looks at the facing wall of its nearest building and becomes dedicated
    when theta <= the angle that wall subtends once contracted by beta;
    beta=0 collapses the wall, so the scheme is off.
    """
    bs_xy = np.atleast_2d(np.asarray(bs_xy, dtype=float))
    if len(field) == 0:
        return [BsState(i, (float(x), float(y)), BsRole.OBS, 0.0,
                        2.0 * math.pi, None)
                for i, (x, y) in enumerate(bs_xy)]
    states = []
    for i, owner in enumerate(field.nearest_building_many(bs_xy)):
        pos = (float(bs_xy[i, 0]), float(bs_xy[i, 1]))
        w = facing_wall(pos, field, int(owner))
        span = discovery_angle(pos, w, beta)
        mx, my = w.midpoint
        bore = math.atan2(my - pos[1], mx - pos[0])
        if theta <= span:
            states.append(BsState(i, pos, BsRole.DBS, bore, span, w))
        else:
            states.append(BsState(i, pos, BsRole.OBS, bore, 2.0 * math.pi, w))
    return states


def classify_bs(position, field: BuildingField, theta: float, beta: float,
                index: int = 0) -> BsState:
    """classify_many on one position, carrying `index`."""
    return replace(classify_many([position], field, theta, beta)[0],
                   index=index)


def _cone_mask(bs_states: list[BsState], ue_xy: np.ndarray) -> np.ndarray:
    """(n_ue, n_bs) mask: UE inside that BS's discovery cone.

    The cone edge is inclusive; omni BSs accept everything.
    """
    n_ue, n_bs = len(ue_xy), len(bs_states)
    mask = np.ones((n_ue, n_bs), dtype=bool)
    for j, bs in enumerate(bs_states):
        if bs.discovery_range >= 2.0 * math.pi:
            continue
        ang = np.arctan2(ue_xy[:, 1] - bs.position[1], ue_xy[:, 0] - bs.position[0])
        mask[:, j] = angular_offset(ang, bs.boresight) <= bs.discovery_range / 2.0
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
          bs_xy: np.ndarray, field: BuildingField) -> np.ndarray:
    """Column of the nearest LOS BS for each row, -1 where none is LOS.

    Row r of `d2` holds UE ues[r]'s squared distances, inf for a BS it may
    not take. The walk goes nearest-first in rank blocks that double in
    width: each block holds the row's BSs that are farther than the
    previous block's threshold and no farther than its own, the k-th
    smallest distance (ties at it included). One batched LOS test covers
    the block of every row still walking, and a row stops at its first
    block with a LOS BS: later blocks are strictly farther, and within
    the block the nearest LOS BS wins, ties by BS index.
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
        los = los_pairs(ue_xy[ues[rows[pu]]], bs_xy[pb], field)
        pu, pb = pu[los], pb[los]
        # lexsort is stable and pb ascends within a row: ties keep BS order
        order = np.lexsort((sub[pu, pb], pu))
        first = order[np.flatnonzero(np.diff(pu[order], prepend=-1))]
        win[rows[pu[first]]] = pb[first]
        below[rows] = top
        rows = rows[(win[rows] < 0) & (top < np.inf)]
        k *= 2
    return win


def associate_all(ue_xy: np.ndarray, bs_states: list[BsState],
                  field: BuildingField, use_cones: bool = True) -> Association:
    """Associate every UE. Deterministic: no randomness, ties by BS index.

    Averaged RSRP with a common main-lobe gain makes the winner the
    nearest eligible BS, so each UE walks its BSs nearest-first (`_walk`)
    and stops at the first LOS one. The reference walk takes the BSs
    whose cone holds the UE; only UEs it leaves without a winner walk the
    other BSs, whose nearest LOS one then hears their pilot (every cone
    BS of theirs is blocked). `use_cones=False` is the plain max-RSRP
    baseline (every BS discoverable, no pilot phase).
    """
    ue_xy = np.atleast_2d(np.asarray(ue_xy, dtype=float))
    n_ue, n_bs = len(ue_xy), len(bs_states)
    serving = np.full(n_ue, PATH_NONE, dtype=int)
    path = np.full(n_ue, PATH_NONE, dtype=np.int8)
    if n_ue == 0 or n_bs == 0:
        return Association(serving, path)

    bs_xy = np.array([s.position for s in bs_states])
    d2 = _sq_distances(ue_xy, bs_xy)
    if use_cones:
        cone = _cone_mask(bs_states, ue_xy)
        d2[~cone] = np.inf
    ues = np.arange(n_ue)
    win = _walk(d2, ues, ue_xy, bs_xy, field)
    hit = win >= 0
    serving[hit] = win[hit]
    path[hit] = PATH_REFERENCE
    if use_cones:
        ues = np.flatnonzero(~hit)
        d2 = _sq_distances(ue_xy[ues], bs_xy)
        d2[cone[ues]] = np.inf
        win = _walk(d2, ues, ue_xy, bs_xy, field)
        hit = win >= 0
        serving[ues[hit]] = win[hit]
        path[ues[hit]] = PATH_PILOT
    return Association(serving, path)


def schedule(bs_index: int, assoc: Association, rng: np.random.Generator) -> int | None:
    """Uniformly pick the UE the BS serves this slot; None for empty cells."""
    ues = assoc.ues_of(bs_index)
    if len(ues) == 0:
        return None
    return int(ues[rng.integers(0, len(ues))])
