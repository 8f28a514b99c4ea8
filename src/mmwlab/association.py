"""Cell discovery and association under the building-aware scheme.

A BS close enough to a building that the bias-contracted facing wall
subtends at least its beamwidth becomes dedicated: it broadcasts reference
signals only into the cone toward that wall. Everyone else broadcasts
omni-directionally. UEs associate by maximum averaged RSRP among BSs whose
reference signal reaches them; UEs discovered by nobody fall back to a
reverse pilot that every LOS BS can hear.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .geometry import (BuildingField, Wall, angular_offset, discovery_angle,
                       facing_wall, los_pairs)

PATH_REFERENCE = 0   # discovered via broadcast reference signal
PATH_PILOT = 1       # fallback: BS heard the UE's reverse pilot
PATH_NONE = -1       # uncovered


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


def classify_bs(position, field: BuildingField, theta: float, beta: float,
                index: int = 0, wall: Wall | None = None) -> BsState:
    """Role, boresight and discovery range of one BS.

    With no buildings every BS stays omni-directional. The dedicated
    condition is theta <= subtended angle of the beta-contracted facing
    wall; beta=0 collapses the wall, so the scheme is off.
    """
    pos = (float(position[0]), float(position[1]))
    if len(field) == 0:
        return BsState(index, pos, BsRole.OBS, 0.0, 2.0 * math.pi, None)
    w = wall if wall is not None \
        else facing_wall(pos, field, field.nearest_building(pos))
    span = discovery_angle(pos, w, beta)
    mx, my = w.midpoint
    bore = math.atan2(my - pos[1], mx - pos[0])
    if theta <= span:
        return BsState(index, pos, BsRole.DBS, bore, span, w)
    return BsState(index, pos, BsRole.OBS, bore, 2.0 * math.pi, w)


def classify_many(bs_xy: np.ndarray, field: BuildingField, theta: float,
                  beta: float) -> list[BsState]:
    """classify_bs over an array of positions, sharing the nearest-building
    search across all of them."""
    bs_xy = np.atleast_2d(np.asarray(bs_xy, dtype=float))
    if len(field) == 0 or len(bs_xy) == 0:
        return [classify_bs(bs_xy[i], field, theta, beta, index=i)
                for i in range(len(bs_xy))]
    owners = field.nearest_building_many(bs_xy)
    states = []
    for i in range(len(bs_xy)):
        pos = (bs_xy[i, 0], bs_xy[i, 1])
        w = facing_wall(pos, field, int(owners[i]))
        states.append(classify_bs(pos, field, theta, beta, index=i, wall=w))
    return states


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
                  field: BuildingField, use_cones: bool = True,
                  k_candidates: int = 16) -> Association:
    """Associate every UE. Deterministic: no randomness, ties by BS index.

    Averaged RSRP with a common main-lobe gain makes the winner the
    nearest eligible BS, so each UE first screens its k nearest BSs with
    a batched LOS test and only falls back to the nearest eligible BS
    among all of them when that screen comes up empty. `use_cones=False` is the plain
    max-RSRP baseline (every BS discoverable, no pilot phase).
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

    k = min(k_candidates, n_bs)
    # k nearest BSs per UE, ordered by (distance, index)
    if k < n_bs:
        part = np.argpartition(d2, k - 1, axis=1)[:, :k]
    else:
        part = np.broadcast_to(np.arange(n_bs), (n_ue, n_bs)).copy()
    pd2 = np.take_along_axis(d2, part, axis=1)
    order = np.lexsort((part, pd2), axis=1)
    cand = np.take_along_axis(part, order, axis=1)

    flat_ue = np.repeat(np.arange(n_ue), k)
    flat_bs = cand.ravel()
    los_flat = los_pairs(ue_xy[flat_ue], bs_xy[flat_bs], field)
    los_k = los_flat.reshape(n_ue, k)
    cone_k = np.take_along_axis(cone, cand, axis=1)

    # reference-signal phase over the k nearest: a hit here is the global
    # winner, because every unscreened BS is farther than the hit.
    elig = los_k & cone_k
    first = np.argmax(elig, axis=1)
    has = elig.any(axis=1)
    serving[has] = cand[has, first[has]]
    path[has] = PATH_REFERENCE

    # Everyone else gets the exhaustive treatment: the reference winner may
    # hide beyond the screen, and the reverse-pilot phase only applies once
    # no reference signal reaches the UE at all. The screen's LOS answers
    # are reused; only the BSs it skipped are tested.
    rest = np.flatnonzero(serving == PATH_NONE)
    if len(rest):
        rows = np.arange(len(rest))
        los_full = np.zeros((len(rest), n_bs), dtype=bool)
        screened = np.zeros((len(rest), n_bs), dtype=bool)
        los_full[rows[:, None], cand[rest]] = los_k[rest]
        screened[rows[:, None], cand[rest]] = True
        fu, fb = np.nonzero(~screened)
        if len(fu):
            los_full[fu, fb] = los_pairs(ue_xy[rest[fu]], bs_xy[fb], field)
        d2_rest = d2[rest]
        # argmin takes the first minimum, so exact ties go to the lower index
        phases = [(los_full & cone[rest], PATH_REFERENCE)]
        if use_cones:
            phases.append((los_full, PATH_PILOT))
        for ok, how in phases:
            j = np.argmin(np.where(ok, d2_rest, np.inf), axis=1)
            win = ok[rows, j] & (serving[rest] == PATH_NONE)
            serving[rest[win]] = j[win]
            path[rest[win]] = how
    return Association(serving, path)


def schedule(bs_index: int, assoc: Association, rng: np.random.Generator) -> int | None:
    """Uniformly pick the UE the BS serves this slot; None for empty cells."""
    ues = assoc.ues_of(bs_index)
    if len(ues) == 0:
        return None
    return int(ues[rng.integers(0, len(ues))])
