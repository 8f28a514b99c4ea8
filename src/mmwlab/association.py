"""Cell discovery and association under the building-aware scheme.

A BS close enough to a building that the bias-contracted facing wall
subtends at least its beamwidth becomes dedicated: it broadcasts reference
signals only into the cone toward that wall. Everyone else broadcasts
omni-directionally. UEs associate by maximum averaged RSRP among BSs whose
reference signal reaches them; UEs discovered by nobody fall back to a
reverse pilot that every LOS BS can hear. With a common main-lobe gain
both picks are the nearest eligible LOS BS, which `associate_all` finds
in two nearest-first rounds: each UE's 16 nearest BSs, then the rest for
the UEs those leave without a reference winner.
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

_SCREEN = 16  # nearest BSs per UE in the first association round, plus ties


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


def _nearest(ok: np.ndarray, d2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row: column of the nearest allowed BS, and whether there is one.

    argmin takes the first minimum, so exact ties go to the lower index.
    """
    j = np.argmin(np.where(ok, d2, np.inf), axis=1)
    return j, ok[np.arange(len(ok)), j]


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


def associate_all(ue_xy: np.ndarray, bs_states: list[BsState],
                  field: BuildingField, use_cones: bool = True) -> Association:
    """Associate every UE. Deterministic: no randomness, ties by BS index.

    Averaged RSRP with a common main-lobe gain makes the winner the
    nearest eligible BS, so the scan runs nearest-first in two rounds with
    one body. Round 1 takes every BS no farther than the UE's _SCREEN-th
    nearest (ties at that distance included); round 2 takes the rest, and
    only for UEs that round 1 left without a reference winner. Each round
    makes one batched LOS test and picks the nearest LOS BS whose cone
    holds the UE (reference winner) and the nearest LOS BS (pilot
    candidate). Every round-2 BS is farther than every round-1 BS, so the
    first round with a hit holds the global winner, and a pilot candidate
    only serves a UE that no reference signal reaches. `use_cones=False`
    is the plain max-RSRP baseline (every BS discoverable, no pilot phase).
    """
    ue_xy = np.atleast_2d(np.asarray(ue_xy, dtype=float))
    n_ue, n_bs = len(ue_xy), len(bs_states)
    serving = np.full(n_ue, PATH_NONE, dtype=int)
    path = np.full(n_ue, PATH_NONE, dtype=np.int8)
    if n_ue == 0 or n_bs == 0:
        return Association(serving, path)

    bs_xy = np.array([s.position for s in bs_states])
    d2 = ((ue_xy[:, None, :] - bs_xy[None, :, :]) ** 2).sum(axis=2)
    cone = _cone_mask(bs_states, ue_xy) if use_cones \
        else np.ones((n_ue, n_bs), dtype=bool)
    k = min(_SCREEN, n_bs)
    first = d2 <= np.partition(d2, k - 1, axis=1)[:, k - 1:k]

    for in_round in (first, ~first):
        ues = np.flatnonzero(path != PATH_REFERENCE)
        pu, pb = np.nonzero(in_round[ues])
        if len(pu) == 0:
            break
        los = np.zeros((len(ues), n_bs), dtype=bool)
        los[pu, pb] = los_pairs(ue_xy[ues[pu]], bs_xy[pb], field)
        d2_u = d2[ues]
        j, hit = _nearest(los & cone[ues], d2_u)
        serving[ues[hit]] = j[hit]
        path[ues[hit]] = PATH_REFERENCE
        if use_cones:
            j, hit = _nearest(los, d2_u)
            hit &= serving[ues] == PATH_NONE
            serving[ues[hit]] = j[hit]
            path[ues[hit]] = PATH_PILOT
    return Association(serving, path)


def schedule(bs_index: int, assoc: Association, rng: np.random.Generator) -> int | None:
    """Uniformly pick the UE the BS serves this slot; None for empty cells."""
    ues = assoc.ues_of(bs_index)
    if len(ues) == 0:
        return None
    return int(ues[rng.integers(0, len(ues))])
