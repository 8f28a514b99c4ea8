"""Analytic chain: LOS distance, coverage integrals, loads, rate, optimizer.

Closed forms are tested against independent inline arithmetic or scipy
quadrature; the coverage integrals are pinned by frozen regression values
plus their exact small-threshold limits (Monte Carlo cross-checks live in
test_simulate.py and the acceptance suite).
"""

import functools
import math
from dataclasses import fields

import numpy as np
import pytest
from scipy import integrate

import mmwlab.analytic as A
from mmwlab.scenario import ScenarioParams, params_for_city, validate
import oracles
from oracles import band_integral

P0 = ScenarioParams()  # 400 BS, 400 buildings 30x10, theta=pi/6, t=10


# ---------------------------------------------------------------------------
# Mean LOS distance and derived radii


def los_distance_inline(lam_ell_km2, d_l, d_w):
    lam = lam_ell_km2 * 1e-6
    return math.pi * math.sqrt(2.0 * math.exp(-lam * d_l * d_w)) \
        / (2.0 * lam * (d_l + d_w))


@pytest.mark.parametrize("lam,d_l,d_w,frozen", [
    (400.0, 30.0, 10.0, 130.7546743133),
    (1010.0, 22.41, 9.35, 62.2986147142),
    (1467.0, 26.50, 20.83, 21.3416251690),
    (474.0, 36.35, 21.48, 67.3499886052),
])
def test_los_distance_values(lam, d_l, d_w, frozen):
    r = A.los_distance(lam, d_l, d_w)
    assert r == pytest.approx(frozen, abs=1e-9)
    assert r == pytest.approx(los_distance_inline(lam, d_l, d_w), rel=1e-12)


def test_los_distance_needs_buildings():
    with pytest.raises(A.InfiniteLosDistance):
        A.los_distance(0.0, 30.0, 10.0)


def test_effective_mainlobe_radius():
    r_l = A.los_distance(400.0, 30.0, 10.0)
    assert A.effective_mainlobe_radius(r_l, math.pi / 6, 0.0, 30.0) == r_l
    got = A.effective_mainlobe_radius(r_l, math.pi / 6, 0.5, 30.0)
    assert got == pytest.approx(r_l - 0.5 * 30.0 / (2.0 * math.tan(math.pi / 12)))
    assert got == pytest.approx(102.7642932565, abs=1e-9)
    # deep bias on a short LOS range clamps at zero
    assert A.effective_mainlobe_radius(10.0, math.pi / 2, 1.0, 30.0) == 0.0


def test_ue_densities_mass_balance():
    lam_n, lam_r = A.ue_densities(2000.0, 0.6, 400.0, 30.0, 10.0, 2.0)
    assert (lam_n, lam_r) == pytest.approx((16500.0, 862.7450980392))
    # the near band is the perimeter strip of width d_c; indoor area is
    # excluded, so the outdoor population totals lambda_u * (1 - indoor)
    band = 400.0 * 1e-6 * 2.0 * (30.0 + 10.0) * 2.0
    indoor = 400.0 * 1e-6 * 300.0
    outdoor_mass = lam_n * band + lam_r * (1.0 - band - indoor)
    assert outdoor_mass == pytest.approx(2000.0 * (1.0 - indoor), rel=1e-12)
    assert lam_n * band == pytest.approx(0.6 * 2000.0 * (1.0 - indoor), rel=1e-12)


def test_ue_densities_domain_error():
    with pytest.raises(A.DomainError):
        A.ue_densities(2000.0, 0.5, 1467.0, 26.5, 20.83, 2.0)


# ---------------------------------------------------------------------------
# Scalar probability helpers


def test_mainlobe_thinning_prob():
    for theta, frozen in [(math.pi / 6, 0.0925), (math.pi / 4, 0.13375)]:
        got = A.mainlobe_thinning_prob(theta, 0.01, 2.0)
        w = theta / (2.0 * math.pi)
        assert got == pytest.approx(w + (1.0 - w) * 0.01, rel=1e-12)
        assert got == pytest.approx(frozen, rel=1e-12)
    # alpha enters through the 2/alpha exponent of the gain ratio
    got4 = A.mainlobe_thinning_prob(math.pi / 6, 0.01, 4.0)
    w = 1.0 / 12.0
    assert got4 == pytest.approx(w + (1.0 - w) * 0.1, rel=1e-12)


def test_region1_dbs_fraction_formula_and_clamps():
    th = 2.35  # a width where the raw expression lands strictly inside (0, 1)
    raw = ((math.pi - th) ** 2 / (4.0 * math.sin(th) ** 2)
           + 1.0 / (4.0 * math.tan(th))) * 8.0 * math.tan(th / 2.0) ** 2 / math.pi
    assert 0.0 < raw < 1.0
    assert A.region1_dbs_fraction(th) == pytest.approx(raw, rel=1e-12)
    assert A.region1_dbs_fraction(math.pi / 6) == 1.0   # raw value exceeds 1
    assert A.region1_dbs_fraction(2.8) == 0.0           # raw value is negative


def test_region1_interferer_prob_mixes_dbs_share():
    p_a = A.mainlobe_thinning_prob(2.35, 0.01, 2.0)
    q = A.region1_dbs_fraction(2.35)
    got = A.region1_interferer_prob(2.35, p_a)
    assert got == pytest.approx(q * (1.0 - p_a) + p_a, rel=1e-12)


def test_noise_power():
    assert A.noise_power_dbm(P0) == pytest.approx(
        -174.0 + 10.0 * math.log10(500e6) + 10.0, abs=1e-9)
    assert A.noise_power_dbm(P0) == pytest.approx(-77.0103, abs=1e-3)


# ---------------------------------------------------------------------------
# Quadrature kernels


def test_c1_matches_quadrature():
    rng = np.random.default_rng(18)
    for _ in range(30):
        lam = rng.uniform(50.0, 2000.0) * 1e-6
        x = rng.uniform(0.01, 200.0)
        ref, _ = integrate.quad(
            lambda r: math.pi * lam * r * r * math.exp(-0.5 * math.pi * lam * r * r),
            0.0, x, epsabs=1e-13, epsrel=1e-12)
        assert A._c1(x, lam) == pytest.approx(ref, abs=1e-12)


def band_from_kernel(lo, hi, half_alpha):
    f = A._band_antiderivative
    return oracles._band(lo, hi, f(lo, half_alpha), f(hi, half_alpha))


def test_band_integral_log_form_and_tails():
    # alpha = 2 closed form
    assert band_from_kernel(0.3, 7.0, 1.0) == pytest.approx(
        math.log1p(7.0) - math.log1p(0.3), rel=1e-12)
    assert band_from_kernel(5.0, 5.0, 1.5) == 0.0
    assert band_from_kernel(5.0, 4.0, 1.5) == 0.0


@pytest.mark.parametrize("half_alpha", [1.25, 1.5, 2.0])
def test_band_integral_matches_quadrature_oracle(half_alpha):
    # wide bands are where a cut-off quadrature loses the power-law tail
    rng = np.random.default_rng(19)
    bands = [(0.5, 1e7), (0.5, 4e3), (1.0, 1e6)]
    for _ in range(40):
        lo = 10.0 ** rng.uniform(-1.0, 1.0)
        bands.append((lo, lo * 10.0 ** rng.uniform(0.01, 6.0)))
    for lo, hi in bands:
        assert band_from_kernel(lo, hi, half_alpha) == pytest.approx(
            band_integral(lo, hi, half_alpha), rel=1e-10)
    # on arrays the kernel gives the same integrals, to rounding
    lo, hi = np.array(bands).T
    f = A._band_antiderivative
    assert f(hi, half_alpha) - f(lo, half_alpha) == pytest.approx(
        [band_integral(a, b, half_alpha) for a, b in bands], rel=1e-10)


# ---------------------------------------------------------------------------
# Coverage


def test_coverage_regression_values():
    # frozen values of this implementation at the default scenario
    assert A.coverage_far(P0, 0.0) == pytest.approx(0.4808225326, abs=1e-8)
    assert A.coverage_near(P0, 0.0) == pytest.approx(0.6310173487, abs=1e-8)
    assert A.coverage_far(P0, 0.5) == pytest.approx(0.5709417866, abs=1e-8)
    assert A.coverage_near(P0, 0.5) == pytest.approx(0.6740928056, abs=1e-8)
    assert A.coverage_far(P0, 1.0) == pytest.approx(0.6911111013, abs=1e-8)
    assert A.coverage_near(P0, 1.0) == pytest.approx(0.4509740866, abs=1e-8)


def _random_valid_scenarios(n, seed):
    """n valid scenarios with alpha from 2 to 4.5 (every fourth exactly 2),
    noise on and off, and theta = pi/24, where r_beta reaches 0, in every
    other one."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        k = len(out)
        p = P0.with_(lambda_b=float(rng.uniform(50.0, 1500.0)),
                     lambda_ell=float(rng.uniform(100.0, 1200.0)),
                     d_l=float(rng.uniform(15.0, 40.0)),
                     d_w=float(rng.uniform(5.0, 14.0)),
                     theta=(math.pi / 24 if k % 2 else
                            float(rng.uniform(math.pi / 12, math.pi / 3))),
                     alpha=2.0 if k % 4 == 0 else float(rng.uniform(2.0, 4.5)),
                     t=float(10.0 ** rng.uniform(-1.0, 2.0)),
                     include_noise=bool(k % 3 == 0))
        if validate(p).ok:
            out.append(p)
    return out


BETAS = (0.0, 0.3, 0.7, 1.0)


def test_panel_table_matches_the_unrolled_closures():
    reached_zero = False
    for p in _random_valid_scenarios(100, seed=15):
        for b in BETAS:
            assert A.coverage_near(p, b) == oracles.coverage_near(p, b)
            far, ref = A.coverage_far(p, b), oracles.coverage_far(p, b)
            # the far exponent rounds as (-c)*(r*r), the closure's as
            # ((-c)*r)*r: a few ulps apart
            assert abs(far - ref) <= 1e-14 * abs(ref)
            reached_zero |= A._radii(p, b)[1] == 0.0
    assert reached_zero


def test_coverage_near_meets_its_tolerance_across_the_kink():
    # a single adaptive call across the kink at r_eff returned values
    # several tolerances low on this sample; the reference passes the
    # kink to QUADPACK as a breakpoint, at a much tighter tolerance
    for p in _random_valid_scenarios(100, seed=18):
        for b in BETAS:
            inner, (r_1, r_eff, r_l) = oracles.near_integrand(p, b)
            ref = integrate.quad(inner, 0.0, r_1, epsrel=1e-12, limit=200)[0] \
                + integrate.quad(inner, r_1, r_l, points=[r_eff],
                                 epsrel=1e-12, limit=200)[0]
            got = A.coverage_near(p, b)
            assert abs(got - ref) <= max(A._EPSABS, A._EPSREL * abs(ref)), (p, b)


def test_integrand_branches_agree_on_every_panel():
    for p in _random_valid_scenarios(30, seed=16):
        for b in BETAS:
            r_l, r_b, _ = A._radii(p, b)
            for c, panels in A._coverage_panels(p, r_l, r_b):
                for lo, hi, weights, ends in panels:
                    if hi <= lo:
                        continue
                    g = A._integrand(p, c, weights, ends)
                    rs = np.linspace(lo, hi, 52)[1:-1]
                    np.testing.assert_allclose(
                        g(rs), [g(float(r)) for r in rs], rtol=1e-12, atol=0)


def test_coverage_small_threshold_limits():
    # As t -> 0 every LOS-covered UE passes, so coverage approaches the
    # probability of having any LOS BS: full disk / half disk of radius r_l.
    p = P0.with_(t=1e-12)
    lam_b = 400e-6
    r_l = A.los_distance(400.0, 30.0, 10.0)
    assert A.coverage_far(p, 0.3) == pytest.approx(
        1.0 - math.exp(-math.pi * lam_b * r_l ** 2), abs=1e-6)
    assert A.coverage_near(p, 0.3) == pytest.approx(
        1.0 - math.exp(-0.5 * math.pi * lam_b * r_l ** 2), abs=1e-6)


def test_coverage_mixture_and_bounds():
    for beta in (0.0, 0.4, 0.9):
        s = A.coverage(P0, beta)
        s_n = A.coverage_near(P0, beta)
        s_r = A.coverage_far(P0, beta)
        assert s == pytest.approx(0.6 * s_n + 0.4 * s_r, rel=1e-12)
        assert 0.0 <= min(s_n, s_r) and max(s_n, s_r) <= 1.0


def test_far_coverage_monotone_in_beta():
    vals = [A.coverage_far(P0, b) for b in np.linspace(0.0, 1.0, 7)]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_noise_reduces_coverage():
    sir = A.coverage(P0, 0.4)
    sinr = A.coverage(P0.with_(include_noise=True), 0.4)
    assert sinr < sir
    # 500 MHz thermal noise is tiny next to mmW cell-edge signal power,
    # so the two should still be close.
    assert sir - sinr < 0.05


def test_snr_factor_decays_with_distance():
    snr = A._snr_survival(P0.with_(include_noise=True))
    assert snr(50.0) > snr(200.0) > 0.0
    assert A._snr_survival(P0)(200.0) == 1.0


def test_include_noise_governs_coverage_optimum():
    # weak transmitters make the SIR and SINR optima visibly differ
    p = P0.with_(include_noise=True, tx_power_dbm=-20.0)
    beta_star, value = A.optimal_bias_coverage(p)
    assert value == A.coverage(p, beta_star) == A.analytic_report(p, beta_star).s
    assert value < A.optimal_bias_coverage(p.with_(include_noise=False))[1]


# ---------------------------------------------------------------------------
# Cell area and load


def test_observed_cell_area_zero_bias_closed_form():
    r_l = A.los_distance(400.0, 30.0, 10.0)
    a_c, a_r = A.observed_cell_area(P0, 0.0)
    assert a_c == pytest.approx(math.pi * r_l ** 2, rel=1e-12)
    assert a_r == pytest.approx(math.pi * (r_l - 2.0) ** 2, rel=1e-12)


def test_observed_cell_area_ordering():
    for beta in np.linspace(0.0, 1.0, 6):
        a_c, a_r = A.observed_cell_area(P0, float(beta))
        assert 0.0 < a_r <= a_c


def test_mean_load_continuity_at_zero_bias():
    assert A.mean_load_far(P0, 0.0) == pytest.approx(A.mean_load_near(P0, 0.0),
                                                     rel=1e-12)
    # open-space load at the default densities: 1.28 * lam_r / lam_b
    _, lam_r = A.ue_densities(2000.0, 0.6, 400.0, 30.0, 10.0, 2.0)
    assert A.mean_load_far(P0, 0.0) == pytest.approx(1.28 * lam_r / 400.0,
                                                     rel=1e-12)


def test_mean_load_near_decreases_with_bias():
    assert A.mean_load_near(P0, 0.5) == pytest.approx(1.8642551459, abs=1e-8)
    assert A.mean_load_near(P0, 0.5) < A.mean_load_near(P0, 0.0)


def test_literal_load_trigger_changes_branch():
    # Gangnam at beta=0.8 puts the dedicated radius (28.8 m) between the
    # UE-density trigger (15.2 m) and the BS-density trigger (34.0 m), so
    # the two readings pick different branches.
    p = params_for_city("gangnam").with_(beta=0.8)
    corrected = A.mean_load_far(p, 0.8)
    literal = A.mean_load_far(p, 0.8, literal_load_trigger=True)
    assert corrected == pytest.approx(18.9329822365, abs=1e-6)
    assert literal == pytest.approx(3.0576430072, abs=1e-6)


def test_average_rate_composition():
    rate = A.average_rate(P0, 0.5)
    s_n = A.coverage_near(P0, 0.5)
    s_r = A.coverage_far(P0, 0.5)
    n_n = A.mean_load_near(P0, 0.5)
    n_r = A.mean_load_far(P0, 0.5)
    spectral = math.log2(1.0 + 10.0)
    expected = 500e6 * (0.6 * s_n * spectral / (1.0 + n_n)
                        + 0.4 * s_r * spectral / (1.0 + n_r))
    assert rate == pytest.approx(expected, rel=1e-12)
    assert rate == pytest.approx(349288087.84, abs=1.0)


GRID = np.linspace(0.0, 1.0, 201)
LOAD_CASES = {
    "default": (P0, False),
    "gangnam": (params_for_city("gangnam"), False),
    "chicago": (params_for_city("chicago"), False),
    # the expanded-cell branch, with r_beta = 0 rows
    "theta24": (P0.with_(theta=math.pi / 24), False),
    "gangnam-theta24": (params_for_city("gangnam").with_(theta=math.pi / 24),
                        False),
    "literal": (params_for_city("gangnam"), True),
    "gc0": (P0.with_(gamma_c=0.0), False),
    "gc1": (P0.with_(gamma_c=1.0), False),
}


def _scalar_or_nan(fn, *args):
    try:
        return fn(*args)
    except A.DomainError:
        return math.nan


def _assert_array_matches_scalars(got, want):
    # numpy's exp and powers may differ from the math module's in the last
    # bit. The loads enter the rate as 1 + n, so they are compared in ulps
    # of max(|n|, 1): with gamma_c = 1 the near load at small bias is a
    # difference of two exponentials close to 1, 3e-4 in size.
    want = np.asarray(want)
    assert np.array_equal(np.isnan(got), np.isnan(want))
    ok = ~np.isnan(want)
    assert np.all(np.abs(got[ok] - want[ok])
                  <= 4.0 * np.spacing(np.maximum(np.abs(want[ok]), 1.0)))


@pytest.mark.parametrize("name", sorted(LOAD_CASES))
def test_array_loads_match_the_scalar_model(name):
    p, literal = LOAD_CASES[name]
    for fn in (A.mean_load_near, A.mean_load_far):
        want = [_scalar_or_nan(fn, p, float(b), literal) for b in GRID]
        _assert_array_matches_scalars(fn(p, GRID, literal), want)
    areas = [_scalar_or_nan(A.observed_cell_area, p, float(b)) for b in GRID]
    for got, want in zip(A.observed_cell_area(p, GRID), zip(*areas)):
        _assert_array_matches_scalars(got, want)
    # the grid's loads are those arrays, NaN for a class with zero weight
    n_n, n_r = A._grid_loads(p, GRID, literal)
    if p.gamma_c > 0.0:
        assert np.array_equal(n_n, A.mean_load_near(p, GRID, literal),
                              equal_nan=True)
    else:
        assert np.isnan(n_n).all()
    if p.gamma_c < 1.0:
        assert np.array_equal(n_r, A.mean_load_far(p, GRID, literal),
                              equal_nan=True)
    else:
        assert np.isnan(n_r).all()
    if "theta24" in name:
        # guards the NaN comparison: r_beta = 0 rows raise in the scalar
        assert 0 < np.isnan(n_r).sum() < len(GRID)


def test_grid_loads_skip_a_class_without_weight(monkeypatch):
    def unused(*args):
        raise AssertionError("a class with zero weight was evaluated")

    # (gamma_c, the class it leaves out, the index of the other's loads)
    for gc, fn, other in ((0.0, "mean_load_near", 1), (1.0, "mean_load_far", 0)):
        with monkeypatch.context() as m:
            m.setattr(A, fn, unused)
            loads = A._grid_loads(P0.with_(gamma_c=gc), GRID, False)
        assert np.isfinite(loads[other]).all()


def test_grid_loads_are_undefined_where_the_scenario_is():
    # Manhattan's bands and buildings leave no open space: ue_densities
    # raises for every bias
    n_n, n_r = A._grid_loads(params_for_city("manhattan"), GRID, False)
    assert np.isnan(n_n).all() and np.isnan(n_r).all()


def test_r_beta_column_is_the_scalar_radius_bit_for_bit():
    for p, _ in LOAD_CASES.values():
        r_l = A.los_distance(p.lambda_ell, p.d_l, p.d_w)
        col = A.effective_mainlobe_radius(r_l, p.theta, GRID[:, None], p.d_l)
        want = np.array([[A.effective_mainlobe_radius(r_l, p.theta, float(b),
                                                      p.d_l)] for b in GRID])
        assert col.shape == want.shape and np.array_equal(col, want)
    for bad in (np.array([0.0, 1.5]), np.array([-0.1]), np.array([np.nan])):
        with pytest.raises(A.DomainError):
            A.effective_mainlobe_radius(100.0, math.pi / 6, bad, 30.0)


@pytest.mark.parametrize("name", ["default", "gangnam-theta24", "gc1"])
def test_coverage_grid_unchanged_by_the_r_beta_column(name, monkeypatch):
    p, _ = LOAD_CASES[name]
    got = A._coverage_grid(p, GRID)
    scalar = A.effective_mainlobe_radius

    def per_beta(r_l, theta, beta, d_l):
        return np.array([[scalar(r_l, theta, float(b), d_l)]
                         for b in np.ravel(beta)])

    monkeypatch.setattr(A, "effective_mainlobe_radius", per_beta)
    want = A._coverage_grid(p, GRID)
    for g, w in zip(got, want):
        assert np.array_equal(g, w, equal_nan=True)


# ---------------------------------------------------------------------------
# Bias optimization


def test_optimal_bias_coverage_dense_grid_oracle():
    grid = np.linspace(0.0, 1.0, 2001)
    vals = [A.coverage(P0, float(b)) for b in grid]
    i = int(np.argmax(vals))
    beta_star, s_star = A.optimal_bias_coverage(P0)
    assert abs(beta_star - grid[i]) <= 1e-3
    assert s_star >= vals[i] - 1e-8


def test_optimal_bias_coverage_uniform_users_prefers_full_bias():
    beta_star, s_star = A.optimal_bias_coverage(P0.with_(gamma_c=0.0))
    assert beta_star == 1.0
    assert s_star == pytest.approx(A.coverage_far(P0, 1.0), rel=1e-12)


def test_optimal_bias_rate_light_load_collapses_to_coverage():
    p = P0.with_(lambda_u=0.04)  # lambda_u / lambda_b = 1e-4
    beta_r, _ = A.optimal_bias_rate(p)
    beta_s, _ = A.optimal_bias_coverage(p)
    assert abs(beta_r - beta_s) <= 1e-12


def test_optimal_bias_rate_interior_maximum_when_loaded():
    p = ScenarioParams().with_(lambda_b=200.0, lambda_ell=200.0,
                               theta=math.pi / 6, gamma_c=0.6)
    beta_r, rate_r = A.optimal_bias_rate(p)
    assert 0.0 < beta_r < 1.0
    assert rate_r >= A.average_rate(p, 0.0)
    assert rate_r >= A.average_rate(p, 1.0)


def test_optimal_bias_rate_light_load_skips_an_inadmissible_optimum():
    # the coverage optimum beta = 1 puts r_beta at 0, where the load model
    # is undefined; the rate is then maximized over the admissible biases
    p = P0.with_(lambda_u=0.04, gamma_c=0.0, theta=math.pi / 24)
    assert A.optimal_bias_coverage(p)[0] == 1.0
    with pytest.raises(A.DomainError):
        A.average_rate(p, 1.0)
    beta_r, rate_r = A.optimal_bias_rate(p)
    assert 0.0 < beta_r < 1.0
    assert A.effective_mainlobe_radius(A.los_distance(400.0, 30.0, 10.0),
                                       p.theta, beta_r, p.d_l) > 0.0
    assert rate_r == A.average_rate(p, beta_r)
    assert rate_r >= A.average_rate(p, 0.0)


BRANCHES = {
    "refined": P0,
    "grid-point": P0.with_(gamma_c=0.0),
    "knee-endpoint": params_for_city("gangnam").with_(gamma_c=0.0),
    "light-load": P0.with_(lambda_u=0.04),
}


@pytest.mark.parametrize("branch", sorted(BRANCHES))
def test_optimizers_return_python_floats(branch):
    for solve in (A.optimal_bias_coverage, A.optimal_bias_rate):
        beta_star, value = solve(BRANCHES[branch])
        assert type(beta_star) is float and type(value) is float


def _oracle_solve(monkeypatch, solve, p):
    """solve(p) with every grid point evaluated adaptively."""
    with monkeypatch.context() as m:
        m.setattr(A, "_grid_refine_max",
                  lambda f, f_grid, lo, hi: oracles.grid_refine_max(f, lo, hi))
        return solve(p)


def _criterion6_points():
    crit3 = P0.with_(lambda_b=200.0, lambda_ell=200.0)
    rng = np.random.default_rng(60)
    return [crit3.with_(lambda_b=float(rng.uniform(150.0, 500.0)),
                        lambda_ell=float(rng.uniform(250.0, 600.0)),
                        lambda_u=float(rng.uniform(300.0, 1200.0)),
                        gamma_c=float(rng.uniform(0.2, 0.8)),
                        theta=float(rng.uniform(math.pi / 12, math.pi / 3)))
            for _ in range(20)]


# theta = pi/12 puts the Gangnam and Chicago knees inside [0, 1]
ORACLE_CASES = {
    f"{city}-theta{k}-gc{gc:g}": (
        P0 if city == "default" else params_for_city(city)).with_(
            theta=math.pi / k, gamma_c=gc)
    for city in ("default", "gangnam", "chicago")
    for k in (12, 3)
    for gc in (0.0, 0.6, 1.0)
}
ORACLE_CASES.update({
    "default-alpha3": P0.with_(alpha=3.0),
    "default-alpha4-noise": P0.with_(alpha=4.0, include_noise=True),
    "default-noise-weak-tx": P0.with_(include_noise=True, tx_power_dbm=-20.0),
    "default-theta24": P0.with_(theta=math.pi / 24),   # rate grid with -inf
})


@pytest.mark.parametrize("name", sorted(ORACLE_CASES))
def test_optimizers_match_all_adaptive_scan_bit_for_bit(name, monkeypatch):
    p = ORACLE_CASES[name]
    # the objectives are deterministic, so the two scans may share them
    for fn in ("coverage", "average_rate"):
        monkeypatch.setattr(A, fn, functools.lru_cache(maxsize=None)(
            getattr(A, fn)))
    for solve in (A.optimal_bias_coverage, A.optimal_bias_rate):
        assert solve(p) == _oracle_solve(monkeypatch, solve, p), solve.__name__


def test_rate_optimizer_matches_all_adaptive_scan_at_criterion6_points(
        monkeypatch):
    monkeypatch.setattr(A, "average_rate", functools.lru_cache(maxsize=None)(
        A.average_rate))
    for p in _criterion6_points():
        assert A.optimal_bias_rate(p) == _oracle_solve(
            monkeypatch, A.optimal_bias_rate, p)


def test_rate_grid_of_theta24_has_undefined_cells():
    # guards the -inf case of the oracle comparison above
    n_n, n_r = A._grid_loads(P0.with_(theta=math.pi / 24),
                             np.linspace(0.0, 1.0, 201), False)
    assert np.isnan(n_n).sum() > 50 and np.isfinite(n_n).sum() > 50


def test_gauss_legendre_rules_match_numpy():
    for n in (1, 2, 24, 48):
        x, w = A._gauss_legendre(n)
        order = np.argsort(x)
        x_ref, w_ref = np.polynomial.legendre.leggauss(n)
        assert x[order] == pytest.approx(x_ref, abs=1e-15)
        assert w[order] == pytest.approx(w_ref, rel=1e-13)


def test_gl_rules_are_the_kronrod_extension_of_g24():
    x, w, w_gauss = A._gl_rules()
    g, wg = A._gauss_legendre(24)
    assert len(x) == len(w) == 49
    # the embedded rule is G24 itself, and the new nodes fall one in each
    # gap of it, ends included
    assert np.array_equal(x[1::2], g[::-1])
    assert np.array_equal(w_gauss, wg[::-1])
    assert -1.0 < x[0] and np.all(np.diff(x) > 0.0) and x[-1] < 1.0
    assert np.all(w > 0.0) and abs(w.sum() - 2.0) <= 1e-15
    # exact through degree 3*24 + 1 = 73, and no further
    moments = np.abs(np.polynomial.legendre.legvander(x, 74).T @ w)
    assert moments[1:74].max() <= 1e-14
    assert moments[74] > 1e-6


# The benchmark's analytic_log and analytic_quad problems, and a sparse
# field (r_l about 419 m) where at alpha = 2 the 24-point rule is loose
LOOSE = P0.with_(lambda_b=484.0, lambda_ell=130.0, t=19.0)
RULE_CASES = {
    "default": P0,
    "gangnam": params_for_city("gangnam"),
    "chicago": params_for_city("chicago"),
    "default-alpha3": P0.with_(alpha=3.0),
    "default-alpha4": P0.with_(alpha=4.0),
    "loose-alpha2": LOOSE,
    "loose-alpha3": LOOSE.with_(alpha=3.0),
}


@pytest.mark.parametrize("name", sorted(RULE_CASES))
def test_kronrod_pair_picks_as_the_48_24_pair(name, monkeypatch):
    # the grid only picks the points the adaptive path evaluates: a wider
    # bound would show as more quad calls before it moved an optimum
    p = RULE_CASES[name]
    calls = []
    quad = A._quad
    monkeypatch.setattr(A, "_quad",
                        lambda f, a, b: calls.append(a) or quad(f, a, b))

    def solves():
        out = []
        for solve in (A.optimal_bias_coverage, A.optimal_bias_rate):
            calls.clear()
            out.append((solve(p), len(calls)))
        return out

    got = solves()
    monkeypatch.setattr(A, "_fixed_rule", oracles.fixed_rule_48_24)
    assert got == solves()


def _assert_grid_within_bound(p, betas):
    s_n, s_r, e_n, e_r = A._coverage_grid(p, betas)
    for k, b in enumerate(betas):
        assert abs(s_n[k] - A.coverage_near(p, b)) <= e_n[k], (p, b)
        assert abs(s_r[k] - A.coverage_far(p, b)) <= e_r[k], (p, b)


@pytest.mark.parametrize("city", ["default", "gangnam", "chicago", "random"])
def test_coverage_grid_within_bound_of_adaptive(city):
    if city == "random":
        # alpha up to 4.5 and theta = pi/24 in every other scenario: where
        # an adaptive call across the kink at r_eff used to miss
        for p in _random_valid_scenarios(12, seed=21):
            _assert_grid_within_bound(p, np.linspace(0.0, 1.0, 11))
        return
    base = P0 if city == "default" else params_for_city(city)
    betas = np.linspace(0.0, 1.0, 6)
    for alpha in (2.0, 2.5, 3.0, 4.0):
        for theta in (math.pi / 24, math.pi / 6, math.pi / 3):
            p = base.with_(alpha=alpha, theta=theta)
            _assert_grid_within_bound(p, betas)
            # theta = pi/24 reaches r_beta = 0 inside the grid
            if theta == math.pi / 24:
                r_l = A.los_distance(p.lambda_ell, p.d_l, p.d_w)
                assert A.effective_mainlobe_radius(r_l, theta, 1.0, p.d_l) == 0.0


@pytest.mark.parametrize("solve", [A.optimal_bias_coverage, A.optimal_bias_rate])
def test_nan_in_fixed_rule_at_winning_cell_keeps_optimum(solve, monkeypatch):
    want = solve(P0)
    # the winning cell is one of the two grid points around beta*
    x = want[0] * (A._GRID_POINTS - 1)
    cells = [math.floor(x), math.ceil(x)]
    grid = A._coverage_grid

    def broken(params, betas):
        s_n, s_r, e_n, e_r = grid(params, betas)
        s_n[cells] = s_r[cells] = np.nan
        return s_n, s_r, e_n, e_r

    monkeypatch.setattr(A, "_coverage_grid", broken)
    assert solve(P0) == want


# ---------------------------------------------------------------------------
# Report plumbing


def test_analytic_report_row_matches_columns():
    rep = A.analytic_report(P0, beta=0.5)
    row = rep.csv_row()
    assert len(row) == len(A.ANALYTIC_CSV_COLUMNS)
    assert [f.name for f in fields(rep)] == A.ANALYTIC_CSV_COLUMNS
    assert rep.s == pytest.approx(0.6 * rep.s_n + 0.4 * rep.s_r, rel=1e-12)
    assert rep.r_l == pytest.approx(130.7546743133)
    assert rep.beta == 0.5
