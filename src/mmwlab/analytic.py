"""Analytic downlink model: LOS statistics, coverage, cell load, rate.

The network is a homogeneous PPP of BSs over a Boolean field of rectangular
blockages. A bias beta in [0, 1] contracts each building wall; BSs that see
a contracted wall under at least their beamwidth lock their beam onto that
wall ("dedicated" BSs), which thins main-lobe interference for everyone
else. All closed forms below assume the mean-LOS-disk approximation of the
blockage process.

Coverage is written once, as a table of panels over the serving distance
with the rings of interferers each one sees (`_coverage_panels`); one
integrand sums their bands, whose integral is closed form (an exact log at
alpha = 2, a Gauss hypergeometric function otherwise). The panels end at
the ring edges, where the integrand has its kinks, so each returned
coverage is adaptive quadrature over smooth panels. The bias optimizers scan
their grid through the same table and integrand on arrays, with one fixed
Gauss-Kronrod 24/49 pass per panel whose embedded Gauss rule bounds the
error, and re-evaluate adaptively only the grid points whose error bounds
leave them in contention. `include_noise` alone decides SIR or SINR, for
coverage, rate and both bias optimizers.

Inputs use the ScenarioParams units (densities per km^2, meters, radians,
linear gains); conversion to per-m^2 happens inside.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, fields

import numpy as np

from .scenario import _PER_KM2_TO_M2, band_fraction, indoor_fraction

# scipy takes most of a fresh `import mmwlab`, and only the closed forms
# below use it, so the drop engines never load it. `integrate`, `erf` and
# `hyp2f1` are imported on first access through the module (PEP 562);
# the kernels read them from `_module` at call time, so a replacement set
# as a module attribute (the benchmark tracer's `integrate`) reaches them.
_module = sys.modules[__name__]
_SCIPY_NAMES = ("integrate", "erf", "hyp2f1")


def __getattr__(name: str):
    if name == "integrate":
        from scipy import integrate as value
    elif name in _SCIPY_NAMES:
        import scipy.special
        value = getattr(scipy.special, name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def _load_scipy() -> None:
    """Import the scipy names now, e.g. once before a process pool forks."""
    for name in _SCIPY_NAMES:
        getattr(_module, name)


class DomainError(ValueError):
    """Parameter combination outside the model's admissible domain."""


class InfiniteLosDistance(DomainError):
    """Zero blockage density: the mean LOS distance is unbounded."""


class QuadratureError(ArithmeticError):
    """Adaptive quadrature failed to meet the requested tolerance."""

    def __init__(self, message: str, achieved_abs_err: float):
        super().__init__(message)
        self.achieved_abs_err = achieved_abs_err


# Tolerances of the adaptive quadrature behind every returned coverage.
_EPSABS, _EPSREL = 1e-12, 1e-8


def _quad(f, a: float, b: float) -> float:
    if b <= a:
        return 0.0
    out = _module.integrate.quad(f, a, b, epsabs=_EPSABS, epsrel=_EPSREL,
                                 limit=200, full_output=1)
    if len(out) > 3:
        raise QuadratureError(
            f"quadrature did not converge on [{a:g}, {b:g}]; "
            f"achieved abs error {out[1]:.3e}", achieved_abs_err=float(out[1]))
    return float(out[0])


# ---------------------------------------------------------------------------
# LOS statistics and densities


def los_distance(lambda_ell: float, d_l: float, d_w: float) -> float:
    """Mean LOS distance [m] of the rectangle field.

    lambda_ell is per km^2; d_l, d_w in meters.
    """
    if lambda_ell < 0 or d_l < 0 or d_w < 0 or d_l + d_w <= 0:
        raise DomainError("building density and footprint must be nonnegative, "
                          "with a positive perimeter")
    if lambda_ell == 0:
        raise InfiniteLosDistance("lambda_ell = 0 gives an unbounded LOS distance")
    lam = lambda_ell * _PER_KM2_TO_M2
    outdoor = math.exp(-indoor_fraction(lambda_ell, d_l, d_w))
    return math.pi * math.sqrt(2.0 * outdoor) / (2.0 * lam * (d_l + d_w))


def effective_mainlobe_radius(r_l: float, theta: float, beta, d_l: float):
    """Radius [m] within which a BS can lock onto a beta-contracted wall.

    Shrinks linearly with the bias: r_l - beta*d_l/(2*tan(theta/2)),
    floored at zero. beta may be an array (a bias grid), and then so is
    the radius, with the float's bits in every entry.
    """
    if not 0.0 < theta < math.pi:
        raise DomainError(f"beamwidth must lie in (0, pi), got {theta}")
    if isinstance(beta, np.ndarray):
        if not np.all((0.0 <= beta) & (beta <= 1.0)):
            raise DomainError("bias must lie in [0, 1] on the whole grid")
    elif not 0.0 <= beta <= 1.0:
        raise DomainError(f"bias must lie in [0, 1], got {beta}")
    if r_l < 0 or d_l < 0:
        raise DomainError("r_l and d_l must be nonnegative")
    r_b = r_l - beta * d_l / (2.0 * math.tan(theta / 2.0))
    return np.maximum(r_b, 0.0) if isinstance(r_b, np.ndarray) else max(r_b, 0.0)


def _radii(params, beta):
    """(r_l, r_beta) [m] at bias beta, and lambda_b [1/m^2]; on a bias
    array, r_beta is an array."""
    r_l = los_distance(params.lambda_ell, params.d_l, params.d_w)
    r_b = effective_mainlobe_radius(r_l, params.theta, beta, params.d_l)
    return r_l, r_b, params.lambda_b * _PER_KM2_TO_M2


def ring_radii(r_l: float, r_b: float) -> tuple[float, float]:
    """(r_1, r_eff) [m] around a wall-attached UE.

    BSs within r_1 may be dedicated to the UE's own wall; between r_1 and
    r_eff interferers are beam-thinned; beyond r_eff only side lobes reach
    the UE. r_b may be an array, and then so are both radii.
    """
    if isinstance(r_b, np.ndarray):
        return np.minimum(r_l - r_b, r_l / 2.0), np.maximum(r_b, r_l / 2.0)
    return min(r_l - r_b, r_l / 2.0), max(r_b, r_l / 2.0)


def ue_densities(lambda_u: float, gamma_c: float, lambda_ell: float,
                 d_l: float, d_w: float, d_c: float) -> tuple[float, float]:
    """(near-band, elsewhere) UE densities [1/km^2] for concentration gamma_c.

    B is the area fraction of the near-building band, I the indoor
    fraction; both must leave room for open space (B + I < 1).
    """
    b_frac = band_fraction(lambda_ell, d_l, d_w, d_c)
    i_frac = indoor_fraction(lambda_ell, d_l, d_w)
    if b_frac <= 0:
        raise DomainError("near-band fraction must be positive")
    if b_frac + i_frac >= 1.0:
        raise DomainError(
            f"band + indoor fractions must stay below 1, got {b_frac + i_frac:.4f}")
    lam_n = lambda_u * gamma_c * (1.0 - i_frac) / b_frac
    lam_r = lambda_u * (1.0 - gamma_c) * (1.0 - i_frac) / (1.0 - b_frac - i_frac)
    return lam_n, lam_r


def _densities(params) -> tuple[float, float]:
    """ue_densities of a scenario, per km^2."""
    return ue_densities(params.lambda_u, params.gamma_c, params.lambda_ell,
                        params.d_l, params.d_w, params.d_c)


def mainlobe_thinning_prob(theta: float, gain_ratio: float, alpha: float) -> float:
    """Equivalent main-lobe interferer fraction for isotropically pointed BSs.

    gain_ratio is g_s/g_m. The side-lobe population is folded in through
    the displacement exponent 2/alpha.
    """
    if not 0.0 < theta <= 2.0 * math.pi:
        raise DomainError(f"beamwidth must lie in (0, 2*pi], got {theta}")
    if not 0.0 < gain_ratio <= 1.0:
        raise DomainError(f"g_s/g_m must lie in (0, 1], got {gain_ratio}")
    if alpha < 2.0:
        raise DomainError(f"alpha must be >= 2, got {alpha}")
    w = theta / (2.0 * math.pi)
    return w + (1.0 - w) * gain_ratio ** (2.0 / alpha)


def region1_dbs_fraction(theta: float) -> float:
    """Probability that a BS right next to a wall is dedicated, clamped to 1.

    The raw expression exceeds 1 for narrow beams; it is a probability, so
    values above 1 are truncated.
    """
    if not 0.0 < theta < math.pi:
        raise DomainError(f"beamwidth must lie in (0, pi), got {theta}")
    s, c = math.sin(theta), math.cos(theta)
    raw = ((math.pi - theta) ** 2 / (4.0 * s * s) + c / (4.0 * s)) \
        * (8.0 * math.tan(theta / 2.0) ** 2 / math.pi)
    return min(max(raw, 0.0), 1.0)


def region1_interferer_prob(theta: float, p_a: float) -> float:
    """Main-lobe interferer probability right next to the serving wall."""
    if not 0.0 <= p_a <= 1.0:
        raise DomainError(f"p_a must lie in [0, 1], got {p_a}")
    q = region1_dbs_fraction(theta)
    return q * (1.0 - p_a) + p_a


# ---------------------------------------------------------------------------
# Coverage


def _math(x):
    """numpy for arrays, math for floats: the scalar integrands keep the
    bits of the math module, whose log1p and exp numpy's vector loops need
    not match."""
    return np if isinstance(x, np.ndarray) else math


def _band_antiderivative(u, half_alpha: float):
    """F(u) = int_0^u dv / (1 + v^a) for a = alpha/2, on a float or an array.

    Exact log at a = 1; otherwise u * 2F1(1, 1/a; 1 + 1/a; -u^a). A band
    [lo, hi] integrates to F(hi) - F(lo).
    """
    if half_alpha == 1.0:
        return _math(u).log1p(u)
    inv = 1.0 / half_alpha
    return u * _module.hyp2f1(1.0, inv, 1.0 + inv, -u ** half_alpha)


def noise_power_dbm(params) -> float:
    """Thermal noise power over the system bandwidth, with noise figure."""
    return -174.0 + 10.0 * math.log10(params.bandwidth_w) + params.noise_figure_db


def _snr_survival(params):
    """r -> Rayleigh SNR survival exp(-t*sigma^2*r^alpha/(P*g_m)), on a
    float or an array, with the powers in mW converted from dB once; r -> 1
    when the scenario leaves noise out."""
    if not params.include_noise:
        return lambda r: 1.0
    neg_t_sigma2 = -params.t * 10.0 ** (noise_power_dbm(params) / 10.0)
    p_gm = 10.0 ** (params.tx_power_dbm / 10.0) * params.g_m
    alpha = params.alpha
    return lambda r: _math(r).exp(neg_t_sigma2 * r ** alpha / p_gm)


def _coverage_pieces(params):
    """Bias-free terms of the coverage integrands: (alpha/2, t^(2/alpha),
    p_a, side-lobe band weight)."""
    t2a = params.t ** (2.0 / params.alpha)
    p_a = mainlobe_thinning_prob(params.theta, params.g_s / params.g_m, params.alpha)
    gs_mult = (params.g_s * params.t / params.g_m) ** (2.0 / params.alpha)
    return params.alpha / 2.0, t2a, p_a, gs_mult


def _coverage_panels(params, r_l, r_b):
    """The coverage model as a table: ((c, panels) of the near class,
    (c, panels) of the far class). A class's coverage is the sum over its
    panels (lo, hi, band weights, band ends) of the integral from lo to hi
    of _integrand(params, c, weights, ends). The panels split r at every
    kink of the integrand, the ring edges r_1, r_eff and r_beta, so each
    one is smooth. r_b is a float, or a column of a bias grid's r_beta."""
    lam_b = params.lambda_b * _PER_KM2_TO_M2
    _, t2a, p_a, gs_mult = _coverage_pieces(params)
    p_ell = region1_interferer_prob(params.theta, p_a)
    r_1, r_eff = ring_radii(r_l, r_b)
    # beyond r_eff the first band of the outer panels is empty; it stays
    # in the table, adding nothing, so both panels share one integrand
    outer = ((p_a * t2a, gs_mult), (r_eff, r_l))
    near = (math.pi / 2.0 * lam_b, [
        (0.0, r_1, (p_ell * t2a, p_a * t2a, gs_mult), (r_1, r_eff, r_l)),
        (r_1, r_eff, *outer),
        (r_eff, r_l, *outer)])
    far = (math.pi * lam_b, [
        (0.0, r_b, (p_a * t2a, gs_mult), (r_b, r_l)),
        (r_b, r_l, (gs_mult,), (r_l,))])
    return near, far


def _integrand(params, c, weights, ends):
    """r -> 2*c*r*exp(-c*r^2*(1 + bands))*snr(r), 0 at r <= 0: one panel's
    coverage integrand, on a float for quad (with the math module's bits)
    or on an array for the fixed rules. Band k adds weights[k] times the
    band integral from the end of band k-1 (u0 = 1/t^(2/alpha) for the
    first) to max(ends[k], r)^2/(r^2*t^(2/alpha)), or nothing if that end
    does not pass its start."""
    ha, t2a, _, _ = _coverage_pieces(params)
    snr = _snr_survival(params)
    u0 = 1.0 / t2a
    f0 = _band_antiderivative(u0, ha)
    bands_of = [(w, rho * rho) for w, rho in zip(weights, ends)]
    two_c, neg_c = 2.0 * c, -c

    def on_array(r):
        rr = r * r
        rr_t = rr * t2a
        bands, u_lo, f_lo = 0.0, u0, f0
        for w, sq in bands_of:
            u = np.maximum(sq, rr) / rr_t
            f = _band_antiderivative(u, ha)
            bands = bands + w * np.where(u > u_lo, f - f_lo, 0.0)
            u_lo, f_lo = u, f
        val = two_c * r * np.exp(neg_c * rr * (1.0 + bands)) * snr(r)
        return np.where(r > 0.0, val, 0.0)

    log, log1p = ha == 1.0, math.log1p

    def g(r):
        if isinstance(r, np.ndarray):
            return on_array(r)
        if r <= 0.0:
            return 0.0
        rr = r * r
        rr_t = rr * t2a
        bands, u_lo, f_lo = 0.0, u0, f0
        for w, sq in bands_of:
            u = (sq if sq > rr else rr) / rr_t
            # math.log1p itself at alpha = 2 keeps the float branch cheap
            f = log1p(u) if log else _band_antiderivative(u, ha)
            if u > u_lo:
                bands += w * (f - f_lo)
            u_lo, f_lo = u, f
        return two_c * r * math.exp(neg_c * rr * (1.0 + bands)) * snr(r)

    return g


def _adaptive_coverage(params, c, panels) -> float:
    """A class's coverage from its panels by quad, clamped to [0, 1]."""
    val = sum(_quad(_integrand(params, c, weights, ends), lo, hi)
              for lo, hi, weights, ends in panels)
    return min(max(val, 0.0), 1.0)


def coverage_far(params, beta: float) -> float:
    """Coverage P(SINR > t) of a typical open-space UE, clamped to [0, 1].

    Serving BS is the nearest in the mean-LOS disk; interferers closer
    than the dedicated-BS radius are beam-thinned, farther ones are
    side-lobe only.
    """
    r_l, r_b, _ = _radii(params, beta)
    _, (c, panels) = _coverage_panels(params, r_l, r_b)
    return _adaptive_coverage(params, c, panels)


def coverage_near(params, beta: float) -> float:
    """Coverage of a typical wall-attached UE, clamped to [0, 1].

    The UE sees a half-disk of radius r_l. Interferers within r_1 of the
    UE include dedicated BSs locked onto the UE's own wall (main-lobe with
    probability p_ell); the middle ring is beam-thinned; the far ring is
    side-lobe only.
    """
    r_l, r_b, _ = _radii(params, beta)
    (c, panels), _ = _coverage_panels(params, r_l, r_b)
    return _adaptive_coverage(params, c, panels)


def _mix(params, x_n, x_r):
    """gamma_c-weighted sum of a per-class quantity. A class with zero
    weight is skipped, so its x may be None."""
    gc = params.gamma_c
    total = 0.0
    if gc > 0.0:
        total += gc * x_n
    if gc < 1.0:
        total += (1.0 - gc) * x_r
    return total


def _mixed_coverage(params, s_n, s_r) -> float:
    """Population coverage from each class's coverage, clamped to [0, 1]."""
    return min(max(_mix(params, s_n, s_r), 0.0), 1.0)


def coverage(params, beta: float) -> float:
    """Population coverage: gamma_c-weighted mix of both UE classes."""
    gc = params.gamma_c
    s_n = coverage_near(params, beta) if gc > 0.0 else None
    s_r = coverage_far(params, beta) if gc < 1.0 else None
    return _mixed_coverage(params, s_n, s_r)


# ---------------------------------------------------------------------------
# Cell load and rate


def _where(cond, a, b):
    """np.where on an array condition, a conditional expression on a bool:
    the load model's branches, on a bias grid or at one bias."""
    if isinstance(cond, np.ndarray):
        return np.where(cond, a, b)
    return a if cond else b


def observed_cell_area(params, beta):
    """(A_c, A_r) [m^2]: mean open-space cell area of a typical non-dedicated
    BS, and the part of it that lies outside every near-building band.

    Both are floored at the dedicated-radius disk; A_r never exceeds A_c.
    beta may be an array, and then so are both areas.
    """
    r_l, r_b, lam_b = _radii(params, beta)
    b_dl = beta * params.d_l
    d_c = params.d_c

    disk = math.pi * r_b ** 2
    shave_c = math.pi * lam_b * r_l * (r_l ** 2 - r_b ** 2) \
        - (2.0 / 3.0) * math.pi * lam_b * (r_l ** 3 - r_b ** 3)
    shaved_c = math.pi * r_l ** 2 - (b_dl / 2.0) * shave_c
    a_c = _where(shaved_c > disk, shaved_c, disk)

    rp = max(r_l - d_c, 0.0)
    shave_r = rp * (rp ** 2 - r_b ** 2) \
        - (2.0 / 3.0) * (rp ** 3 - (r_b - d_c) ** 3)
    shaved_r = math.pi * rp ** 2 - (b_dl * math.pi * lam_b / 2.0) * shave_r
    a_r = _where(d_c > r_l - r_b, math.pi * rp ** 2,
                 _where(shaved_r > disk, shaved_r, disk))
    return a_c, _where(a_c < a_r, a_c, a_r)


def _far_load(params, beta, r_b, lam_b, lam_n_km2, lam_r_km2,
              literal_load_trigger):
    """mean_load_far from the dedicated radius r_b [m], lambda_b [1/m^2]
    and both UE densities [1/km^2]. On a bias array, the rows where r_b
    reached zero in the expanded-cell branch, where one bias raises
    DomainError, are NaN."""
    trigger_density = (params.lambda_u if literal_load_trigger
                       else params.lambda_b) * _PER_KM2_TO_M2
    expanded = r_b < 0.68 / math.sqrt(trigger_density)
    kept = 1.28 * lam_r_km2 / params.lambda_b
    if not isinstance(r_b, np.ndarray):
        if not expanded:
            return kept
        if r_b <= 0.0:
            raise DomainError(
                "dedicated radius reached zero: bias beyond the admissible "
                "range for the expanded-cell load formula")
    a_c, a_r = observed_cell_area(params, beta)
    lam_n = lam_n_km2 * _PER_KM2_TO_M2
    lam_r = lam_r_km2 * _PER_KM2_TO_M2
    with np.errstate(divide="ignore", invalid="ignore"):
        grown = 1.28 * ((a_c - a_r) * lam_n + a_r * lam_r) \
            / (math.pi * lam_b * r_b ** 2)
    return _where(expanded, _where(r_b > 0.0, grown, np.nan), kept)


def mean_load_far(params, beta, literal_load_trigger: bool = False):
    """Mean number of open-space UEs served by the typical non-dedicated BS.

    When the dedicated radius shrinks below the mean 6th-neighbor distance
    the surviving cells expand and absorb near-band UEs; otherwise the
    typical cell keeps its share of open-space UEs. The trigger distance
    uses the BS density by default; `literal_load_trigger` switches it to
    the UE density. beta may be an array, and then so is the load, NaN
    where one bias would raise DomainError for a zero dedicated radius.
    """
    _, r_b, lam_b = _radii(params, beta)
    return _far_load(params, beta, r_b, lam_b, *_densities(params),
                     literal_load_trigger)


def _c1(x, lam_b: float):
    """int_0^x pi*lam_b*r^2*exp(-pi*lam_b*r^2/2) dr, closed form; x may be
    an array."""
    return _module.erf(x * math.sqrt(math.pi * lam_b / 2.0)) \
        / math.sqrt(2.0 * lam_b) \
        - x * _math(x).exp(-math.pi * lam_b * x * x / 2.0)


def _half_disk_weight(a, b, lam_b: float):
    """P(a <= nearest half-disk BS distance <= b); a or b may be an array."""
    return _math(a).exp(-math.pi * lam_b * a * a / 2.0) \
        - _math(b).exp(-math.pi * lam_b * b * b / 2.0)


def mean_load_near(params, beta, literal_load_trigger: bool = False):
    """Mean number of UEs sharing the typical wall-attached UE's serving BS.

    Mixes the open-space load (when the serving BS is far) with the strip
    of near-band and open-space UEs captured by a wall-locked beam of
    width beta*d_l. beta may be an array, as for mean_load_far.
    """
    r_l, r_b, lam_b = _radii(params, beta)
    lam_n_km2, lam_r_km2 = _densities(params)
    n_r = _far_load(params, beta, r_b, lam_b, lam_n_km2, lam_r_km2,
                    literal_load_trigger)
    lam_n = lam_n_km2 * _PER_KM2_TO_M2
    lam_r = lam_r_km2 * _PER_KM2_TO_M2
    d_c = params.d_c
    r_1, _ = ring_radii(r_l, r_b)

    strip = lam_n * _c1(d_c, lam_b) \
        + (d_c * lam_n - d_c * lam_r / 2.0) * _half_disk_weight(d_c, r_1, lam_b) \
        + lam_r * (_c1(r_1, lam_b) - _c1(d_c, lam_b))
    num = _half_disk_weight(r_1, r_l, lam_b) * n_r + 0.64 * beta * params.d_l * strip
    return num / (1.0 - math.exp(-math.pi * lam_b * r_l * r_l / 2.0))


def _mixed_rate(params, s_n, n_n, s_r, n_r) -> float:
    """Mean per-UE rate [bit/s] from each class's coverage s and mean load n:
    load-shared spectral efficiency at the threshold, gamma_c-weighted. A
    class with zero weight is skipped, so its s and n may be None."""
    spectral = math.log(1.0 + params.t) / math.log(2.0)
    w = params.bandwidth_w
    gc = params.gamma_c
    total = 0.0
    if gc > 0.0:
        total += w * gc * s_n * spectral / (1.0 + n_n)
    if gc < 1.0:
        total += w * (1.0 - gc) * s_r * spectral / (1.0 + n_r)
    return total


def average_rate(params, beta: float,
                 literal_load_trigger: bool = False) -> float:
    """Mean per-UE rate [bit/s]: load-shared spectral efficiency at the
    coverage threshold, mixed over the two UE classes."""
    gc = params.gamma_c
    s_n = n_n = s_r = n_r = None
    if gc > 0.0:
        s_n = coverage_near(params, beta)
        n_n = mean_load_near(params, beta, literal_load_trigger)
    if gc < 1.0:
        s_r = coverage_far(params, beta)
        n_r = mean_load_far(params, beta, literal_load_trigger)
    return _mixed_rate(params, s_n, n_n, s_r, n_r)


# ---------------------------------------------------------------------------
# Bias optimization

_GRID_POINTS = 201
_GOLDEN_TOL = 1e-4
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def _gauss_legendre(n: int):
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1], by
    Newton's method on the Legendre recurrence. numpy's leggauss solves an
    eigenvalue problem instead, whose first LAPACK call costs about 1 MB of
    resident memory."""
    x = np.cos(np.pi * (np.arange(n) + 0.75) / (n + 0.5))
    for _ in range(8):
        p_prev, p = np.ones_like(x), x
        for k in range(2, n + 1):
            p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
        dp = n * (x * p - p_prev) / (x * x - 1.0)
        x = x - p / dp
    return x, 2.0 / ((1.0 - x * x) * dp * dp)


def _legendre_and_extension(x, c):
    """(P_n, P_n', E, E') at x, for E = sum_j c[j]*P_j of degree n + 1 =
    len(c) - 1, by the Legendre recurrence and P'_{k+1} = P'_{k-1} +
    (2k + 1)*P_k."""
    n = len(c) - 2
    p_prev, p = np.ones_like(x), x
    dp_prev, dp = np.zeros_like(x), np.ones_like(x)
    e, de = c[0] + c[1] * p, c[1] * dp
    for k in range(1, n + 1):
        if k == n:
            p_n, dp_n = p, dp
        p_prev, p = p, ((2 * k + 1) * x * p - k * p_prev) / (k + 1)
        dp_prev, dp = dp, dp_prev + (2 * k + 1) * p_prev
        e, de = e + c[k + 1] * p, de + c[k + 1] * dp
    return p_n, dp_n, e, de


def _gauss_kronrod(n: int):
    """(nodes, Kronrod weights, Gauss weights) of the (2n+1)-point
    Gauss-Kronrod extension of the n-point Gauss-Legendre rule on [-1, 1],
    for n >= 2. The nodes increase; nodes[1::2] are _gauss_legendre(n)'s,
    bit for bit, and the Gauss weights belong to them.

    The new nodes are the roots of the Stieltjes polynomial E = P_{n+1} +
    sum c_j P_j over j < n + 1 of n's other parity, with P_n*E orthogonal
    to every P_k, k <= n. Only odd k constrain it, and condition k involves
    only j >= n - k, so back-substitution from k = 1 fixes c_{n-k}, with
    every integral exact under the 2n-point Gauss rule. Each root is found
    by Newton's method from the midpoint of its gap between the Gauss
    nodes. With E's leading coefficient that of P_{n+1}, the interpolatory
    weights are 2/((n+1)*P_n*E') at a root of E, and the Gauss weight plus
    2/((n+1)*P_n'*E) at a Gauss node."""
    gauss, w_gauss = (a[::-1] for a in _gauss_legendre(n))
    y, w_y = _gauss_legendre(2 * n)
    leg = [np.ones_like(y), y]   # P_0 .. P_{n+1} at y
    for k in range(1, n + 1):
        leg.append(((2 * k + 1) * y * leg[k] - k * leg[k - 1]) / (k + 1))
    leg = np.array(leg)
    c = np.zeros(n + 2)
    c[n + 1] = 1.0
    for k in range(1, n + 1, 2):
        j = n - k
        pk = w_y * leg[n] * leg[k]
        c[j] = -(pk @ (c[j + 2:] @ leg[j + 2:])) / (pk @ leg[j])
    edges = np.concatenate(([-1.0], gauss, [1.0]))
    x = (edges[:-1] + edges[1:]) / 2.0
    for _ in range(6):
        _, _, e, de = _legendre_and_extension(x, c)
        x = x - e / de
    nodes = np.empty(2 * n + 1)
    nodes[0::2], nodes[1::2] = x, gauss
    p_n, dp_n, e, de = _legendre_and_extension(nodes, c)
    w = np.empty(2 * n + 1)
    w[0::2] = 2.0 / ((n + 1) * p_n[0::2] * de[0::2])
    w[1::2] = w_gauss + 2.0 / ((n + 1) * dp_n[1::2] * e[1::2])
    return nodes, w, w_gauss


@functools.cache
def _gl_rules():
    """The grid scan's Gauss-Kronrod 24/49 pair, built on first use:
    values come from the 49-point rule, error estimates from its distance
    to the embedded 24-point Gauss rule."""
    return _gauss_kronrod(24)


# Adaptive tolerances a grid bound adds to the rule pair's difference, for
# the adaptive value's own error. On panels split at every kink, 40 random
# valid scenarios (alpha from 2 to 4.5, seed 21) times 41 biases needed at
# most 0.0022 of them.
_ADAPTIVE_SLACK = 4.0


def _fixed_rule(g, lo, hi):
    """Integrals of g over the panels [lo, hi] (columns of shape (grid, 1)
    over the bias grid, or a float for all of it) by the 49-point Kronrod
    rule, and their distance to the embedded 24-point Gauss rule's, from
    one evaluation of g on the 49 nodes. g maps radii of shape
    (grid, nodes) to integrand values."""
    x, w_kronrod, w_gauss = _gl_rules()
    mid, half = (hi + lo) / 2.0, (hi - lo) / 2.0
    f = g(mid + half * x)
    half = np.ravel(half)
    value = half * (f @ w_kronrod)
    return value, np.abs(value - half * (f[..., 1::2] @ w_gauss))


def _coverage_grid(params, betas):
    """(s_n, s_r, e_n, e_r): both classes' coverage on a whole bias grid by
    the 49-point Kronrod rule over the panels of _coverage_panels, the same
    ones coverage_near and coverage_far integrate (r_beta a column over the
    grid), with bounds e on their distance to those two. A bound is the
    Kronrod value's distance to the embedded 24-point Gauss rule's plus
    _ADAPTIVE_SLACK times the adaptive quadrature's tolerance; a value that
    is not finite has a NaN or infinite bound."""
    r_l = los_distance(params.lambda_ell, params.d_l, params.d_w)
    r_b = effective_mainlobe_radius(r_l, params.theta, betas[:, None], params.d_l)
    (c_n, near), (c_r, far) = _coverage_panels(params, r_l, r_b)

    def integral(c, panels):
        total = err = 0.0
        for lo, hi, weights, ends in panels:
            v, e = _fixed_rule(_integrand(params, c, weights, ends), lo, hi)
            total, err = total + v, err + e
        s = np.clip(total, 0.0, 1.0)
        return s, err + _ADAPTIVE_SLACK * (_EPSABS + _EPSREL * s)

    with np.errstate(divide="ignore", invalid="ignore"):
        s_r, e_r = integral(c_r, far)
        s_n, e_n = integral(c_n, near)
    return s_n, s_r, e_n, e_r


def _golden_max(f, a: float, b: float, tol: float) -> tuple[float, float]:
    """Golden-section maximization on [a, b] to width `tol`."""
    x1 = b - _INV_PHI * (b - a)
    x2 = a + _INV_PHI * (b - a)
    f1, f2 = f(x1), f(x2)
    while b - a > tol:
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INV_PHI * (b - a)
            f2 = f(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _INV_PHI * (b - a)
            f1 = f(x1)
    xm = (a + b) / 2.0
    return xm, f(xm)


def _grid_refine_max(f, f_grid, lo: float, hi: float) -> tuple[float, float]:
    """Uniform grid scan plus golden-section refinement around the best cell.

    `f_grid(xs)` gives the objective on the whole grid at once as fixed-rule
    values with bounds on their distance to `f`. It only picks the grid
    points that `f` evaluates: each point whose value plus bound reaches
    the best value minus bound, and each point whose value or bound is
    NaN. The best cell is the argmax of `f` over those points, ties to the
    lower index, so it is the cell of an all-`f` scan whenever the bounds
    hold. The refinement and the returned value come from `f` alone.

    Returns the better of the refined point and the best grid point, so
    exact grid endpoints survive when the optimum sits on the boundary.
    """
    xs = np.linspace(lo, hi, _GRID_POINTS)
    approx, bound = f_grid(xs)
    lower = approx - bound
    best = np.max(lower, initial=-np.inf, where=~np.isnan(lower))
    picked = np.flatnonzero(~(approx + bound < best))
    vals = np.array([f(float(xs[k])) for k in picked])
    j = int(np.argmax(vals))
    i = int(picked[j])
    a = xs[max(i - 1, 0)]
    b = xs[min(i + 1, _GRID_POINTS - 1)]
    xr, vr = _golden_max(f, float(a), float(b), _GOLDEN_TOL)
    if vr > vals[j]:
        return float(xr), float(vr)
    return float(xs[i]), float(vals[j])


def optimal_bias_coverage(params) -> tuple[float, float]:
    """(beta*, S*) maximizing population coverage (SINR when the scenario
    includes noise).

    Beyond beta = tan(theta/2)*r_l/d_l the wall-attached coverage freezes
    while the open-space one keeps rising, so when that knee lies inside
    [0, 1] only the knee segment and the endpoint beta = 1 can host the
    maximum.
    """
    def f(b):
        return coverage(params, b)

    def f_grid(betas):
        s_n, s_r, e_n, e_r = _coverage_grid(params, betas)
        return np.clip(_mix(params, s_n, s_r), 0.0, 1.0), _mix(params, e_n, e_r)

    r_l = los_distance(params.lambda_ell, params.d_l, params.d_w)
    knee = math.tan(params.theta / 2.0) * r_l / params.d_l
    if knee < 1.0:
        bx, vx = _grid_refine_max(f, f_grid, 0.0, knee)
        v_end = f(1.0)
        if v_end > vx:
            return 1.0, float(v_end)
        return bx, vx
    return _grid_refine_max(f, f_grid, 0.0, 1.0)


def _grid_loads(params, betas, literal_load_trigger):
    """(n_n, n_r) on a bias grid, by one pass of the load model over the
    array: NaN where the load leaves its admissible domain, everywhere when
    the scenario does; as in average_rate, a class with zero weight is not
    evaluated."""
    gc = params.gamma_c
    undefined = np.full(len(betas), np.nan)
    try:
        n_n = (mean_load_near(params, betas, literal_load_trigger)
               if gc > 0.0 else undefined)
        n_r = (mean_load_far(params, betas, literal_load_trigger)
               if gc < 1.0 else undefined)
    except DomainError:
        return undefined, undefined
    return n_n, n_r


def optimal_bias_rate(params,
                      literal_load_trigger: bool = False) -> tuple[float, float]:
    """(beta*, rate*) maximizing the average per-UE rate.

    In the lightly loaded regime (lambda_u/lambda_b < 1e-3) the load terms
    vanish and the rate optimum collapses onto the coverage optimum. Bias
    values whose load model leaves the admissible domain are skipped, in
    that regime too: when the rate at the coverage optimum is undefined,
    the rate is maximized over the admissible biases.
    """
    if params.lambda_u / params.lambda_b < 1e-3:
        beta_s, _ = optimal_bias_coverage(params)
        try:
            return beta_s, float(average_rate(params, beta_s,
                                              literal_load_trigger))
        except DomainError:
            pass

    def f(b):
        try:
            return average_rate(params, b, literal_load_trigger)
        except DomainError:
            return -math.inf

    def f_grid(betas):
        s_n, s_r, e_n, e_r = _coverage_grid(params, betas)
        n_n, n_r = _grid_loads(params, betas, literal_load_trigger)
        undefined = np.isnan(_mix(params, n_n, n_r))
        rate = _mixed_rate(params, s_n, n_n, s_r, n_r)
        bound = _mixed_rate(params, e_n, n_n, e_r, n_r)
        return np.where(undefined, -np.inf, rate), np.where(undefined, 0.0, bound)

    beta_r, rate_r = _grid_refine_max(f, f_grid, 0.0, 1.0)
    if not math.isfinite(rate_r):
        raise DomainError("rate objective undefined across the whole bias range")
    return beta_r, rate_r


# ---------------------------------------------------------------------------
# Report

@dataclass(frozen=True)
class AnalyticReport:
    beta: float
    r_l: float
    r_beta: float
    lambda_n: float
    lambda_r: float
    p_a: float
    p_ell: float
    s_n: float
    s_r: float
    s: float
    n_n: float
    n_r: float
    rate: float

    def csv_row(self) -> list[float]:
        return [getattr(self, c) for c in ANALYTIC_CSV_COLUMNS]


ANALYTIC_CSV_COLUMNS = [f.name for f in fields(AnalyticReport)]


def analytic_report(params, beta: float | None = None,
                    literal_load_trigger: bool = False) -> AnalyticReport:
    """Evaluate the full analytic chain at one bias point."""
    b = params.beta if beta is None else beta
    r_l, r_b, _ = _radii(params, b)
    lam_n, lam_r = _densities(params)
    p_a = mainlobe_thinning_prob(params.theta, params.g_s / params.g_m, params.alpha)
    p_ell = region1_interferer_prob(params.theta, p_a)
    s_n = coverage_near(params, b)
    s_r = coverage_far(params, b)
    n_n = mean_load_near(params, b, literal_load_trigger)
    n_r = mean_load_far(params, b, literal_load_trigger)
    return AnalyticReport(beta=b, r_l=r_l, r_beta=r_b, lambda_n=lam_n,
                          lambda_r=lam_r, p_a=p_a, p_ell=p_ell, s_n=s_n,
                          s_r=s_r, s=_mixed_coverage(params, s_n, s_r),
                          n_n=n_n, n_r=n_r,
                          rate=_mixed_rate(params, s_n, n_n, s_r, n_r))
