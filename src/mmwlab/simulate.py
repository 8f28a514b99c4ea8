"""Monte Carlo drops for the building-aware downlink.

Two engines share one sample format. FULL_GEOMETRY realizes buildings,
BSs and UEs on a window around a typical UE pinned at the origin and
runs discovery, association, scheduling and beamformed interference
geometrically. LOS_BALL is the averaged model the closed forms in
`analytic` integrate over: every link inside a disk (half-disk for a
wall-attached UE) of radius r_l is LOS, side-lobe interferers are folded
into an equivalent main-lobe population by distance-band thinning, and
the serving BS is simply the nearest. Its estimates therefore converge
to the analytic values and cross-check the quadrature independently.

Every drop is a pure function of (params, mode, seed): the random draws
happen in a fixed documented order, which is what makes parallel and
serial runs bit-identical.
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .analytic import (DomainError, effective_mainlobe_radius, los_distance,
                       noise_power_dbm, region1_dbs_fraction, ring_radii,
                       ue_densities)
from .association import (PATH_NONE, PATH_REFERENCE, Association, BsTable,
                          _sq_distances, associate_all, classify_many,
                          schedule)
from .geometry import (BuildingField, RegionClass, Window, angular_offset,
                       classify_point, los_to_many, sample_buildings,
                       sample_ppp)
from .scenario import _PER_KM2_TO_M2, indoor_fraction

RULE_BUILDING_AWARE = "building_aware"
RULE_MAX_RSRP = "max_rsrp"


class SimMode(Enum):
    FULL_GEOMETRY = "full"
    LOS_BALL = "losball"


@dataclass
class Drop:
    """Full state of one realized drop, for inspection."""

    field: BuildingField
    bs_xy: np.ndarray
    bs_table: BsTable
    ue_xy: np.ndarray
    association: Association
    fading: np.ndarray
    beam_dir: np.ndarray     # [rad] per BS, nan while silent
    active: np.ndarray       # bool per BS
    los_to_origin: np.ndarray


@dataclass
class DropSample:
    """Per-drop record of the typical UE's outcome.

    In LOS_BALL mode n_interferers counts the equivalent main-lobe
    interferers that survive the thinning, and mainlobe_fraction is the
    beam-alignment share among all in-ball BSs other than the server.
    """

    seed: int
    mode: str
    typical_class: str        # "near" | "far"
    path: int                 # association.PATH_*
    uncovered: bool           # nobody discovered the UE at all
    covered: bool             # SIR (SINR with noise) above the threshold
    sir: float                # nan when uncovered, inf with no interference
    rate_bps: float
    n_cell: int               # other UEs sharing the serving BS
    n_interferers: int        # interference contributors besides the server
    mainlobe_fraction: float  # share of those aiming at the UE; nan if none
    serving_distance: float   # [m], nan when uncovered
    drop: Drop | None = None

    @property
    def sir_db(self) -> float:
        if math.isnan(self.sir):
            return math.nan
        if math.isinf(self.sir):
            return math.inf
        return 10.0 * math.log10(self.sir) if self.sir > 0.0 else -math.inf


SIM_TRACE_COLUMNS = [
    "seed", "sir_db", "covered", "rate_bps", "n_cell", "path", "uncovered",
]


def format_cell(value) -> str:
    """One CSV cell: blank for None, 0/1 for booleans, 12 significant
    digits for floats."""
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def sample_row(rec: DropSample) -> list[str]:
    return [format_cell(getattr(rec, c)) for c in SIM_TRACE_COLUMNS]


@dataclass(frozen=True)
class MetricStats:
    mean: float
    stderr: float
    count: int

    @property
    def half_width(self) -> float:
        """95% normal-approximation half width."""
        return 1.96 * self.stderr


def _stats(values: np.ndarray) -> MetricStats:
    values = np.asarray(values, dtype=float)
    n = len(values)
    if n == 0:
        return MetricStats(math.nan, math.nan, 0)
    mean = float(np.mean(values))
    stderr = float(np.std(values, ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return MetricStats(mean, stderr, n)


@dataclass(frozen=True)
class EstimateSummary:
    """Aggregated drop statistics; coverage is unconditional, so at t -> 0
    it tends to 1 - uncovered_fraction."""

    mode: str
    seed_base: int
    n_drops: int
    coverage: MetricStats
    rate_bps: MetricStats
    mainlobe_fraction: MetricStats  # over drops that saw interferers
    uncovered_fraction: float
    near_fraction: float
    records: tuple[DropSample, ...]


# ---------------------------------------------------------------------------
# full geometric engine


_WALL_MIDS = ((0.0, -1.0), (1.0, 0.0), (0.0, 1.0), (-1.0, 0.0))
_MAX_FIELD_TRIES = 10000


def default_window(params) -> Window:
    """The full engine's sampling window: half width r_l, the mean LOS
    distance, with another r_l of margin."""
    r_l = los_distance(params.lambda_ell, params.d_l, params.d_w)
    return Window(half_width=r_l, margin=r_l)


def _host_field(params, window: Window, rng: np.random.Generator) -> BuildingField:
    """Rectangle field with a host building whose wall midpoint sits at the
    origin: a wall is chosen uniformly and the origin is placed a hair
    (1e-3 m, capped at d_c/2) outside it along the outward normal."""
    k = int(rng.integers(0, 4))
    phi = float(rng.uniform(0.0, math.pi))
    hl, hw = params.d_l / 2.0, params.d_w / 2.0
    eps = min(1e-3, params.d_c / 2.0)
    nx, ny = _WALL_MIDS[k]
    px = nx * (hl + eps) if nx else 0.0
    py = ny * (hw + eps) if ny else 0.0
    c, s = math.cos(phi), math.sin(phi)
    center = (-(c * px - s * py), -(s * px + c * py))
    rest = sample_buildings(window, params, rng)
    return BuildingField(np.vstack([center, rest.centers]), params.d_l,
                         params.d_w, np.r_[phi, rest.orientation])


def _conditioned_field(params, window: Window, near_typical: bool,
                       rng: np.random.Generator) -> BuildingField:
    """Building field conditioned on the origin's region class.

    Near: plant a host building with the origin just outside a uniformly
    chosen wall midpoint, then reject the attempt if another rectangle
    swallows the origin. Far: plain rejection on the class.
    """
    want = RegionClass.NEAR if near_typical else RegionClass.FAR
    for _ in range(_MAX_FIELD_TRIES):
        if near_typical:
            field = _host_field(params, window, rng)
        else:
            field = sample_buildings(window, params, rng)
        if classify_point((0.0, 0.0), field, params.d_c) == want:
            return field
    raise RuntimeError(
        f"could not realize a field with the origin of class {want.value} "
        f"after {_MAX_FIELD_TRIES} attempts")


def _powers_mw(params, gains, fading, dist_m):
    p_mw = 10.0 ** (params.tx_power_dbm / 10.0)
    return p_mw * gains * fading * np.maximum(dist_m, 1e-9) ** (-params.alpha)


def _uncovered_sample(seed: int, mode: str, typical_class: str,
                      drop: Drop | None) -> DropSample:
    return DropSample(
        seed=seed, mode=mode, typical_class=typical_class, path=PATH_NONE,
        uncovered=True, covered=False, sir=math.nan, rate_bps=0.0,
        n_cell=0, n_interferers=0, mainlobe_fraction=math.nan,
        serving_distance=math.nan, drop=drop)


def _finish_sample(params, seed: int, mode: str, typical_class: str,
                   path: int, serving_distance: float, sig_mw: float,
                   interf_mw: float, n_cell: int, n_interferers: int,
                   mainlobe_fraction: float, drop: Drop | None) -> DropSample:
    denom = interf_mw
    if params.include_noise:
        denom = denom + 10.0 ** (noise_power_dbm(params) / 10.0)
    sir = sig_mw / denom if denom > 0.0 else math.inf
    covered = sir > params.t
    rate = 0.0
    if covered:
        rate = params.bandwidth_w / (n_cell + 1) * math.log2(1.0 + params.t)
    return DropSample(
        seed=seed, mode=mode, typical_class=typical_class, path=path,
        uncovered=False, covered=covered, sir=float(sir), rate_bps=rate,
        n_cell=n_cell, n_interferers=n_interferers,
        mainlobe_fraction=mainlobe_fraction,
        serving_distance=serving_distance, drop=drop)


def _realize_full(params, seed: int, rng: np.random.Generator,
                  association_rule: str, keep_drop: bool,
                  window: Window | None) -> DropSample:
    # Draw order (fixed): class coin, conditioned field, BS process,
    # near UE process, far UE process, fading, scheduling (one pick per
    # nonempty cell, in BS order).
    if window is None:
        window = default_window(params)
    if params.lambda_ell > 0:
        lam_n, lam_r = ue_densities(params.lambda_u, params.gamma_c,
                                    params.lambda_ell, params.d_l,
                                    params.d_w, params.d_c)
    elif params.gamma_c > 0:
        raise DomainError("gamma_c > 0 needs buildings (lambda_ell > 0)")
    else:
        lam_n, lam_r = 0.0, params.lambda_u

    near_typical = bool(rng.random() < params.gamma_c)
    typical_class = "near" if near_typical else "far"
    field = _conditioned_field(params, window, near_typical, rng)

    bs_all = sample_ppp(window, params.lambda_b, rng)
    cand_n = sample_ppp(window, lam_n, rng)
    cand_r = sample_ppp(window, lam_r, rng)
    # one mask pass over the BSs, then the origin and both UE candidate sets
    pts = np.vstack([bs_all, np.zeros((1, 2)), cand_n, cand_r])
    near, indoor, building = field.near_indoor_masks(pts, params.d_c)
    n_all = len(bs_all)
    bs_xy = bs_all[~indoor[:n_all]]  # indoor BSs are dead in this model
    n_bs = len(bs_xy)
    # the origin always; near candidates in the band, far ones outside it
    ue_keep = ((near[n_all:] == (np.arange(len(pts) - n_all) <= len(cand_n)))
               & ~indoor[n_all:])
    ue_keep[0] = True
    ue_xy = pts[n_all:][ue_keep]
    ue_building = building[n_all:][ue_keep]  # -1 for every far UE

    bs_table = classify_many(bs_xy, field, params.theta, params.beta)
    assoc = associate_all(ue_xy, bs_xy, bs_table, field,
                          use_cones=association_rule == RULE_BUILDING_AWARE,
                          ue_building=ue_building)

    fading = rng.exponential(size=n_bs)

    target, load = schedule(assoc, n_bs, rng)
    active = target >= 0
    beam_dir = np.full(n_bs, np.nan)
    busy = np.flatnonzero(active)
    dy = ue_xy[target[busy], 1] - bs_xy[busy, 1]
    dx = ue_xy[target[busy], 0] - bs_xy[busy, 0]
    # math.atan2, not np.arctan2: the two differ in the last bit on some inputs
    beam_dir[busy] = [math.atan2(y, x) for y, x in zip(dy.tolist(), dx.tolist())]

    s = int(assoc.serving[0])
    if s >= 0:
        # this slot belongs to the typical UE; the draw above stays consumed
        beam_dir[s] = math.atan2(-bs_xy[s, 1], -bs_xy[s, 0])
        active[s] = True

    los0 = (los_to_many((0.0, 0.0), bs_xy, field,
                        (np.full(n_bs, ue_building[0]), bs_table.building))
            if n_bs else np.zeros(0, bool))

    drop = None
    if keep_drop:
        drop = Drop(field=field, bs_xy=bs_xy, bs_table=bs_table,
                    ue_xy=ue_xy, association=assoc, fading=fading,
                    beam_dir=beam_dir, active=active, los_to_origin=los0)

    mode = SimMode.FULL_GEOMETRY.value
    if s < 0:
        return _uncovered_sample(seed, mode, typical_class, drop)

    r_s = math.hypot(bs_xy[s, 0], bs_xy[s, 1])
    sig = float(_powers_mw(params, params.g_m, fading[s], r_s))

    interferer = active & los0
    interferer[s] = False
    idx = np.flatnonzero(interferer)
    if len(idx):
        to_origin = np.arctan2(-bs_xy[idx, 1], -bs_xy[idx, 0])
        off = angular_offset(beam_dir[idx], to_origin)
        main = off <= params.theta / 2.0
        gains = np.where(main, params.g_m, params.g_s)
        dists = np.hypot(bs_xy[idx, 0], bs_xy[idx, 1])
        interf = float(np.sum(_powers_mw(params, gains, fading[idx], dists)))
        mainlobe = float(np.mean(main))
    else:
        interf = 0.0
        mainlobe = math.nan

    n_cell = int(load[s]) - 1
    return _finish_sample(params, seed, mode, typical_class,
                          int(assoc.path[0]), r_s, sig, interf, n_cell,
                          len(idx), mainlobe, drop)


# ---------------------------------------------------------------------------
# LOS-ball engine


def _disk_points(r_max: float, density_m2: float, upper_half: bool,
                 rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """PPP on a disk (or its upper half) about the origin.

    Draw order: count, radii, angles. Returns (radii, angles).
    """
    area = math.pi * r_max * r_max * (0.5 if upper_half else 1.0)
    n = rng.poisson(density_m2 * area)
    rad = r_max * np.sqrt(rng.uniform(0.0, 1.0, size=n))
    ang = rng.uniform(0.0, math.pi if upper_half else 2.0 * math.pi, size=n)
    return rad, ang


def _realize_los_ball(params, seed: int,
                      rng: np.random.Generator) -> DropSample:
    # Draw order (fixed): class coin, BS count/radii/angles, per-BS
    # alignment coins, per-BS fading, UE count/radii/angles.
    r_l = los_distance(params.lambda_ell, params.d_l, params.d_w)
    r_b = effective_mainlobe_radius(r_l, params.theta, params.beta, params.d_l)
    lam_b = params.lambda_b * _PER_KM2_TO_M2
    lam_ue = params.lambda_u * _PER_KM2_TO_M2 \
        * (1.0 - indoor_fraction(params.lambda_ell, params.d_l, params.d_w))

    near_typical = bool(rng.random() < params.gamma_c)
    typical_class = "near" if near_typical else "far"

    rad, ang = _disk_points(r_l, lam_b, near_typical, rng)
    n_bs = len(rad)
    coins = rng.uniform(0.0, 1.0, size=n_bs)
    fading = rng.exponential(size=n_bs)
    ue_rad, ue_ang = _disk_points(r_l, lam_ue, near_typical, rng)

    mode = SimMode.LOS_BALL.value
    if n_bs == 0:
        return _uncovered_sample(seed, mode, typical_class, None)

    # Beam-alignment probability by distance band, then the side-lobe
    # population folded into an equivalent main-lobe one: a misaligned BS
    # survives with probability (g_s/g_m)^(2/alpha) and contributes at
    # full main-lobe gain, the displacement-equivalent of its side lobe.
    w = params.theta / (2.0 * math.pi)
    if near_typical:
        r_1, r_eff = ring_radii(r_l, r_b)
        q = region1_dbs_fraction(params.theta)
        m_1 = q + (1.0 - q) * w
        align_p = np.where(rad <= r_1, m_1, np.where(rad <= r_eff, w, 0.0))
    else:
        align_p = np.where(rad <= r_b, w, 0.0)
    fold = (params.g_s / params.g_m) ** (2.0 / params.alpha)
    aligned = coins < align_p
    kept = coins < align_p + (1.0 - align_p) * fold

    s = int(np.argmin(rad))
    r_s = float(rad[s])
    sig = float(_powers_mw(params, params.g_m, fading[s], r_s))
    others = np.ones(n_bs, dtype=bool)
    others[s] = False
    contrib = kept & others
    interf = float(np.sum(_powers_mw(params, params.g_m, fading[contrib],
                                     rad[contrib])))
    mainlobe = float(np.mean(aligned[others])) if n_bs > 1 else math.nan

    # cell load: nearest-BS association of the outdoor UE process
    if len(ue_rad):
        bs_xy = np.column_stack([rad * np.cos(ang), rad * np.sin(ang)])
        ue_xy = np.column_stack([ue_rad * np.cos(ue_ang),
                                 ue_rad * np.sin(ue_ang)])
        nearest = np.argmin(_sq_distances(ue_xy, bs_xy), axis=1)
        n_cell = int(np.sum(nearest == s))
    else:
        n_cell = 0

    return _finish_sample(params, seed, mode, typical_class, PATH_REFERENCE,
                          r_s, sig, interf, n_cell, int(contrib.sum()),
                          mainlobe, None)


# ---------------------------------------------------------------------------
# public entry points


def realize(params, mode: SimMode = SimMode.FULL_GEOMETRY, seed: int = 0,
            association_rule: str = RULE_BUILDING_AWARE,
            keep_drop: bool = False,
            window: Window | None = None) -> DropSample:
    """One drop. Deterministic given (params, mode, seed, rule).

    `window` overrides the FULL_GEOMETRY sampling window (default:
    `default_window(params)`). LOS_BALL ignores both `window` and
    `keep_drop`; its samples never carry a Drop.
    """
    if association_rule not in (RULE_BUILDING_AWARE, RULE_MAX_RSRP):
        raise ValueError(f"unknown association rule {association_rule!r}")
    rng = np.random.default_rng(seed)
    if mode is SimMode.LOS_BALL:
        return _realize_los_ball(params, seed, rng)
    return _realize_full(params, seed, rng, association_rule, keep_drop,
                         window)


def _run_one(seed: int, params, mode: SimMode, association_rule: str,
             window: Window | None) -> DropSample:
    return realize(params, mode, seed, association_rule=association_rule,
                   window=window)


def estimate(params, mode: SimMode = SimMode.FULL_GEOMETRY,
             n_drops: int = 100, seed_base: int = 0,
             workers: int | None = None, trace_path: str | None = None,
             association_rule: str = RULE_BUILDING_AWARE,
             window: Window | None = None) -> EstimateSummary:
    """Average DropSamples over seeds seed_base .. seed_base + n_drops - 1.

    Drops are independent, so they may run in a process pool; results are
    reduced in seed order either way, which keeps serial and parallel runs
    bit-identical.
    """
    if n_drops < 2:
        raise ValueError(f"n_drops must be >= 2, got {n_drops}")
    seeds = range(seed_base, seed_base + n_drops)
    run = functools.partial(_run_one, params=params, mode=mode,
                            association_rule=association_rule, window=window)
    if workers is None or workers <= 1:
        records = [run(s) for s in seeds]
    else:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunk = max(1, n_drops // (workers * 8))
            records = list(pool.map(run, seeds, chunksize=chunk))

    covered = np.array([r.covered for r in records], dtype=float)
    rate = np.array([r.rate_bps for r in records], dtype=float)
    lobe = np.array([r.mainlobe_fraction for r in records], dtype=float)
    summary = EstimateSummary(
        mode=mode.value,
        seed_base=seed_base,
        n_drops=n_drops,
        coverage=_stats(covered),
        rate_bps=_stats(rate),
        mainlobe_fraction=_stats(lobe[~np.isnan(lobe)]),
        uncovered_fraction=float(np.mean([r.uncovered for r in records])),
        near_fraction=float(np.mean(
            [r.typical_class == "near" for r in records])),
        records=tuple(records),
    )
    if trace_path is not None:
        with open(trace_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(SIM_TRACE_COLUMNS)
            for rec in records:
                writer.writerow(sample_row(rec))
    return summary
