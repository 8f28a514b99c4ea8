"""Tests for the Monte Carlo drop engines.

Heavier statistical checks live in test_acceptance; here we pin down
determinism, record schemas, degenerate configurations, and agreement
with the closed-form model at one moderate-density operating point.
"""

import csv
import dataclasses
import math

import numpy as np
import pytest

from mmwlab.analytic import DomainError, coverage, los_distance
from mmwlab.geometry import Window
from mmwlab.scenario import ScenarioParams, indoor_fraction, params_for_city
from mmwlab.simulate import (RULE_BUILDING_AWARE, RULE_MAX_RSRP,
                             SIM_TRACE_COLUMNS, SimMode, estimate, realize,
                             sample_row)
from oracles import cell_load

SCALARS = ["seed", "mode", "typical_class", "path", "uncovered", "covered",
           "sir", "rate_bps", "n_cell", "n_interferers", "mainlobe_fraction",
           "serving_distance"]


def scalars(rec):
    return {k: getattr(rec, k) for k in SCALARS}


def same_record(a, b):
    for k in SCALARS:
        va, vb = getattr(a, k), getattr(b, k)
        if isinstance(va, float) and math.isnan(va):
            assert math.isnan(vb), k
        else:
            assert va == vb, k


def test_realize_is_deterministic():
    p = ScenarioParams()
    for mode in (SimMode.FULL_GEOMETRY, SimMode.LOS_BALL):
        a = realize(p, mode, seed=7)
        b = realize(p, mode, seed=7)
        same_record(a, b)
        assert a.mode == mode.value
        assert a.typical_class in ("near", "far")
    c = realize(p, SimMode.FULL_GEOMETRY, seed=8)
    assert scalars(c) != scalars(a)  # different seed, different draw


def test_keep_drop_exposes_scene():
    p = ScenarioParams()
    rec = realize(p, SimMode.FULL_GEOMETRY, seed=3, keep_drop=True)
    assert rec.drop is not None
    d = rec.drop
    assert d.bs_xy.shape[1] == 2
    assert len(d.bs_table.boresight) == len(d.bs_table.discovery_range) \
        == len(d.bs_xy) == len(d.fading)
    assert len(d.beam_dir) == len(d.active) == len(d.bs_xy)
    # the typical UE is row 0 of the UE matrix by construction
    assert np.allclose(d.ue_xy[0], [0.0, 0.0])
    # silent BSs carry no beam direction
    assert np.all(np.isnan(d.beam_dir[~d.active]))
    assert not np.any(np.isnan(d.beam_dir[d.active]))
    # a lighter call drops the scene
    assert realize(p, SimMode.FULL_GEOMETRY, seed=3).drop is None


def test_estimate_needs_two_drops():
    with pytest.raises(ValueError):
        estimate(ScenarioParams(), SimMode.LOS_BALL, n_drops=1)


def test_estimate_matches_individual_realizations():
    p = ScenarioParams()
    summary = estimate(p, SimMode.LOS_BALL, n_drops=12, seed_base=100)
    assert summary.n_drops == 12 and summary.seed_base == 100
    assert summary.mode == "losball"
    assert [r.seed for r in summary.records] == list(range(100, 112))
    for rec in summary.records:
        same_record(rec, realize(p, SimMode.LOS_BALL, seed=rec.seed))
    covered = [r.covered for r in summary.records]
    assert summary.coverage.mean == pytest.approx(np.mean(covered), abs=0)
    assert summary.coverage.count == 12
    lobe = [r.mainlobe_fraction for r in summary.records]
    assert summary.mainlobe_fraction.count == sum(
        not math.isnan(x) for x in lobe)


def test_worker_pool_gives_identical_records():
    p = ScenarioParams()
    serial = estimate(p, SimMode.LOS_BALL, n_drops=24, seed_base=5)
    pooled = estimate(p, SimMode.LOS_BALL, n_drops=24, seed_base=5, workers=2)
    for a, b in zip(serial.records, pooled.records):
        same_record(a, b)
    assert serial.coverage.mean == pooled.coverage.mean
    assert serial.rate_bps.mean == pooled.rate_bps.mean


def test_trace_file_schema(tmp_path):
    p = ScenarioParams()
    path = tmp_path / "trace.csv"
    summary = estimate(p, SimMode.FULL_GEOMETRY, n_drops=5, seed_base=42,
                       trace_path=str(path))
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == SIM_TRACE_COLUMNS
    assert len(rows) == 1 + 5
    for rec, row in zip(summary.records, rows[1:]):
        assert row == sample_row(rec)
    assert [r[0] for r in rows[1:]] == [str(s) for s in range(42, 47)]
    for row in rows[1:]:
        assert row[2] in ("0", "1")  # covered flag
        assert row[6] in ("0", "1")  # uncovered flag


def test_zero_threshold_coverage_is_discovery():
    # As t -> 0 every discovered UE clears the SIR bar, so coverage
    # collapses onto the complement of the uncovered fraction.
    p = ScenarioParams().with_(t=1e-12)
    summary = estimate(p, SimMode.LOS_BALL, n_drops=800, seed_base=0)
    assert summary.coverage.mean == pytest.approx(
        1.0 - summary.uncovered_fraction, abs=1e-12)


def test_rate_is_threshold_shannon_share():
    p = ScenarioParams()
    summary = estimate(p, SimMode.FULL_GEOMETRY, n_drops=30, seed_base=9)
    spectral = math.log2(1.0 + p.t)
    for rec in summary.records:
        if rec.covered:
            assert rec.rate_bps == pytest.approx(
                p.bandwidth_w / (rec.n_cell + 1) * spectral, rel=1e-12)
        else:
            assert rec.rate_bps == 0.0


def test_empty_field_needs_uniform_users():
    p = ScenarioParams().with_(lambda_ell=0.0, gamma_c=0.5)
    with pytest.raises(DomainError):
        realize(p, SimMode.FULL_GEOMETRY, seed=0)


def test_single_bs_sees_infinite_sir():
    # With no buildings and no noise, a lone BS faces zero interference.
    p = ScenarioParams().with_(lambda_ell=0.0, gamma_c=0.0, lambda_b=50.0,
                               lambda_u=100.0, t=1e6)
    win = Window(half_width=100.0, margin=0.0)
    hits = 0
    for seed in range(200):
        rec = realize(p, SimMode.FULL_GEOMETRY, seed=seed, keep_drop=True,
                      window=win)
        if rec.uncovered or len(rec.drop.bs_xy) != 1:
            continue
        hits += 1
        assert math.isinf(rec.sir)
        assert rec.covered  # even against an absurd threshold
        assert rec.sir_db == math.inf
        assert rec.n_interferers == 0
        assert math.isnan(rec.mainlobe_fraction)
        if hits >= 3:
            break
    assert hits >= 3


def test_near_fraction_tracks_concentration():
    p = ScenarioParams().with_(gamma_c=0.6)
    summary = estimate(p, SimMode.LOS_BALL, n_drops=600, seed_base=77)
    sigma = math.sqrt(0.6 * 0.4 / 600)
    assert abs(summary.near_fraction - 0.6) < 4 * sigma
    for rec in summary.records:
        assert rec.typical_class in ("near", "far")


def test_beta_zero_rules_coincide():
    # With the discovery window collapsed, building-aware association is
    # plain max-RSRP, so whole drops must match sample by sample.
    p = ScenarioParams().with_(beta=0.0)
    for seed in (0, 1, 2, 3, 4, 5):
        aware = realize(p, SimMode.FULL_GEOMETRY, seed=seed,
                        association_rule=RULE_BUILDING_AWARE)
        plain = realize(p, SimMode.FULL_GEOMETRY, seed=seed,
                        association_rule=RULE_MAX_RSRP)
        same_record(aware, plain)


def test_losball_tracks_closed_form_coverage():
    p = ScenarioParams().with_(lambda_b=200.0, lambda_ell=200.0,
                               theta=math.pi / 6, t=10.0, gamma_c=0.6,
                               beta=0.4)
    summary = estimate(p, SimMode.LOS_BALL, n_drops=3000, seed_base=11)
    target = coverage(p, 0.4)
    tol = max(0.03, 3 * summary.coverage.stderr)
    assert abs(summary.coverage.mean - target) < tol


def los_ball_scene(p, seed):
    """(BS radii, BS xy, UE xy) of a LOS-ball drop, drawn again in the
    documented order: class coin, BS count/radii/angles, alignment coins,
    fading, UE count/radii/angles."""
    r_l = los_distance(p.lambda_ell, p.d_l, p.d_w)
    lam_ue = p.lambda_u * 1e-6 * (1.0 - indoor_fraction(p.lambda_ell, p.d_l,
                                                        p.d_w))
    rng = np.random.default_rng(seed)
    half = bool(rng.random() < p.gamma_c)
    area = math.pi * r_l * r_l * (0.5 if half else 1.0)

    def disk(density_m2):
        n = rng.poisson(density_m2 * area)
        rad = r_l * np.sqrt(rng.uniform(0.0, 1.0, size=n))
        ang = rng.uniform(0.0, math.pi if half else 2.0 * math.pi, size=n)
        return rad, np.column_stack([rad * np.cos(ang), rad * np.sin(ang)])

    rad, bs_xy = disk(p.lambda_b * 1e-6)
    rng.uniform(0.0, 1.0, size=len(rad))  # alignment coins and fading,
    rng.exponential(size=len(rad))        # drawn only to keep the order
    return rad, bs_xy, disk(lam_ue)[1]


@pytest.mark.parametrize("p", [
    ScenarioParams().with_(lambda_b=200.0, lambda_ell=200.0,
                           theta=math.pi / 6, d_l=30.0, d_w=10.0, t=10.0,
                           gamma_c=0.6, beta=0.5),
    params_for_city("gangnam"),
], ids=["criterion3", "gangnam"])
def test_losball_cell_load_matches_oracle(p):
    loaded = 0
    for seed in range(1000, 1250):
        rec = realize(p, SimMode.LOS_BALL, seed=seed)
        rad, bs_xy, ue_xy = los_ball_scene(p, seed)
        if len(rad) == 0:
            assert rec.uncovered and rec.n_cell == 0
            continue
        s = int(np.argmin(rad))
        assert rec.serving_distance == rad[s]
        assert rec.n_cell == cell_load(ue_xy, bs_xy, s)
        loaded += rec.n_cell > 0
    assert loaded > 100


def test_denser_network_covers_less_at_high_threshold():
    # More interferers per ball push high-threshold coverage down.
    base = ScenarioParams().with_(t=10 ** 2.5)
    lo = estimate(base.with_(lambda_b=150.0), SimMode.LOS_BALL,
                  n_drops=1500, seed_base=4)
    hi = estimate(base.with_(lambda_b=900.0), SimMode.LOS_BALL,
                  n_drops=1500, seed_base=4)
    gap = lo.coverage.mean - hi.coverage.mean
    sigma = math.hypot(lo.coverage.stderr, hi.coverage.stderr)
    assert gap > 3 * sigma


def test_drop_sample_is_picklable_roundtrip():
    # Worker pools ship records back by pickling; spot-check the dataclass.
    import pickle

    rec = realize(ScenarioParams(), SimMode.LOS_BALL, seed=1)
    clone = pickle.loads(pickle.dumps(rec))
    same_record(rec, clone)
    assert dataclasses.is_dataclass(clone)
