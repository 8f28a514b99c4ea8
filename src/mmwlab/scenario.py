"""Scenario parameters for the building-aware mmWave downlink model.

Densities are stored per km^2, lengths in meters, angles in radians.
Antenna gains are stored as linear ratios; config files give them in dB
and they are converted on load. The SIR threshold t is a linear ratio.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace


_PER_KM2_TO_M2 = 1e-6

# Expected points of one density in the full engine's sampling window
# that validate() admits. The largest golden drop draws about 4,300 UEs,
# and the largest test scenario would draw about 24,000.
_MAX_WINDOW_POINTS = 1e7


class ConfigError(ValueError):
    """Raised for unreadable or malformed scenario config input."""


@dataclass(frozen=True)
class ScenarioParams:
    lambda_b: float = 400.0      # BS density [1/km^2]
    lambda_ell: float = 400.0    # building density [1/km^2]
    lambda_u: float = 2000.0     # UE density [1/km^2]
    d_l: float = 30.0            # building length [m]
    d_w: float = 10.0            # building width [m]
    d_c: float = 2.0             # near-building band width [m]
    gamma_c: float = 0.6         # fraction of UEs concentrated near buildings
    theta: float = math.pi / 6   # antenna beamwidth [rad]
    g_m: float = 100.0           # main-lobe gain, linear (20 dB)
    g_s: float = 1.0             # side-lobe gain, linear (0 dB)
    alpha: float = 2.0           # path-loss exponent
    t: float = 10.0              # SIR threshold, linear (10 dB)
    bandwidth_w: float = 500e6   # system bandwidth [Hz]
    beta: float = 0.0            # association bias in [0, 1]
    tx_power_dbm: float = 23.0   # BS transmit power [dBm]
    include_noise: bool = False  # evaluate SINR instead of SIR
    noise_figure_db: float = 10.0

    def with_(self, **kwargs) -> "ScenarioParams":
        return replace(self, **kwargs)


@dataclass(frozen=True)
class ValidationOutcome:
    ok: bool
    violations: tuple[str, ...] = ()


@dataclass(frozen=True)
class CityPreset:
    name: str
    lambda_ell: float      # [1/km^2]
    d_l: float             # [m]
    d_w: float             # [m]
    reference_los_m: float # published mean LOS distance [m]


# Measured building statistics for three urban areas, with the published
# mean LOS distance each is expected to reproduce approximately.
PRESETS: dict[str, CityPreset] = {
    "gangnam": CityPreset("Gangnam", 1010.0, 22.41, 9.35, 62.40),
    "manhattan": CityPreset("Manhattan", 1467.0, 26.50, 20.83, 23.12),
    "chicago": CityPreset("Chicago", 474.0, 36.35, 21.48, 69.74),
}


def preset(name: str) -> CityPreset:
    """Look up a city preset by name (case-insensitive)."""
    try:
        return PRESETS[name.strip().lower()]
    except KeyError:
        known = ", ".join(p.name for p in PRESETS.values())
        raise ConfigError(f"unknown city preset {name!r} (known: {known})") from None


def params_for_city(name: str, base: ScenarioParams | None = None) -> ScenarioParams:
    """Scenario with a city's building statistics applied over `base`."""
    c = preset(name)
    base = base if base is not None else ScenarioParams()
    return base.with_(lambda_ell=c.lambda_ell, d_l=c.d_l, d_w=c.d_w)


def indoor_fraction(lambda_ell: float, d_l: float, d_w: float) -> float:
    """Area fraction covered by buildings (lambda_ell per km^2)."""
    return lambda_ell * _PER_KM2_TO_M2 * d_l * d_w


def band_fraction(lambda_ell: float, d_l: float, d_w: float,
                  d_c: float) -> float:
    """Area fraction of the near-building band of width d_c along every
    wall (lambda_ell per km^2)."""
    return 2.0 * (lambda_ell * _PER_KM2_TO_M2) * (d_l + d_w) * d_c


def validate(params: ScenarioParams) -> ValidationOutcome:
    """Check that the model can evaluate the scenario: every field finite
    and in range, a beamwidth below pi, open space left beside the
    buildings and their near bands, and no density that puts more than
    _MAX_WINDOW_POINTS expected points in the full engine's sampling
    window: neither a field's nor, once every range holds, either UE
    class's candidate density. Never raises. Each field that is not
    finite gives one violation, and the ranges, which cannot judge it, go
    unchecked; otherwise every range violation is collected."""
    bad: list[str] = []
    for f in fields(params):
        v = getattr(params, f.name)
        if not isinstance(v, bool) and not math.isfinite(v):
            bad.append(f"{f.name} must be finite, got {v}")
    if bad:
        return ValidationOutcome(ok=False, violations=tuple(bad))

    def check(cond: bool, msg: str) -> None:
        if not cond:
            bad.append(msg)

    check(params.lambda_b > 0, f"lambda_b must be > 0, got {params.lambda_b}")
    check(params.lambda_ell > 0, f"lambda_ell must be > 0, got {params.lambda_ell}")
    check(params.lambda_u > 0, f"lambda_u must be > 0, got {params.lambda_u}")
    check(params.d_l > 0, f"d_l must be > 0, got {params.d_l}")
    check(params.d_w > 0, f"d_w must be > 0, got {params.d_w}")
    check(params.d_l > params.d_w,
          f"d_l must exceed d_w, got d_l={params.d_l} d_w={params.d_w}")
    check(params.d_c > 0, f"d_c must be > 0, got {params.d_c}")
    # The near band and the buildings must leave open space for the
    # remaining users.
    occupied = band_fraction(params.lambda_ell, params.d_l, params.d_w,
                             params.d_c) \
        + indoor_fraction(params.lambda_ell, params.d_l, params.d_w)
    check(occupied < 1.0, "near-band + indoor area fractions must stay "
          f"below 1, got {occupied:.4f}")
    check(0.0 <= params.gamma_c <= 1.0,
          f"gamma_c must lie in [0, 1], got {params.gamma_c}")
    check(0.0 < params.theta < math.pi,
          f"theta must lie in (0, pi), got {params.theta}")
    check(params.g_m > 0, f"g_m must be > 0, got {params.g_m}")
    check(params.g_s > 0, f"g_s must be > 0, got {params.g_s}")
    check(params.g_s <= params.g_m,
          f"g_s must not exceed g_m, got g_s={params.g_s} g_m={params.g_m}")
    check(params.alpha >= 2.0, f"alpha must be >= 2, got {params.alpha}")
    check(params.t > 0, f"t must be > 0, got {params.t}")
    check(params.bandwidth_w > 0,
          f"bandwidth_w must be > 0, got {params.bandwidth_w}")
    check(0.0 <= params.beta <= 1.0,
          f"beta must lie in [0, 1], got {params.beta}")
    check(params.noise_figure_db >= 0,
          f"noise_figure_db must be >= 0, got {params.noise_figure_db}")
    if params.lambda_ell > 0 and params.d_l > 0 and params.d_w > 0:
        # both modules import this one, so they are imported here, on use
        from .analytic import DomainError, ue_densities
        from .simulate import default_window
        area_km2 = default_window(params).sample_area_m2 * _PER_KM2_TO_M2
        densities = [(name, getattr(params, name))
                     for name in ("lambda_b", "lambda_ell", "lambda_u")]
        if not bad:
            # the full engine draws each UE class's candidates over the
            # whole window, the near band's at lambda_u*gamma_c*(1-I)/B
            try:
                lam_n, lam_r = ue_densities(
                    params.lambda_u, params.gamma_c, params.lambda_ell,
                    params.d_l, params.d_w, params.d_c)
            except DomainError as exc:
                bad.append(str(exc))
            else:
                densities += [("lambda_n, the near-band UE density,", lam_n),
                              ("lambda_r, the open-space UE density,", lam_r)]
        for name, density in densities:
            count = density * area_km2
            check(count <= _MAX_WINDOW_POINTS,
                  f"{name} puts {count:.3g} expected points in the full "
                  f"engine's sampling window, above {_MAX_WINDOW_POINTS:.0e}")

    return ValidationOutcome(ok=not bad, violations=tuple(bad))


# Config files are flat "key = value" lines with '#' comments. Gains are
# given in dB there, transmit power in dBm, everything else in the stored
# units of ScenarioParams.
_DB_FIELDS = {"g_m", "g_s"}
_BOOL_FIELDS = {"include_noise"}
_FIELD_NAMES = {f.name for f in fields(ScenarioParams)}


def _parse_bool(raw: str, key: str) -> bool:
    low = raw.lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ConfigError(f"cannot parse boolean for {key!r}: {raw!r}")


def parse_config(text: str) -> ScenarioParams:
    """Parse config text into ScenarioParams, applying dB conversion."""
    values: dict[str, object] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, raw = (part.strip() for part in body.split("=", 1))
        if key not in _FIELD_NAMES:
            raise ConfigError(f"line {lineno}: unknown parameter {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate parameter {key!r}")
        if key in _BOOL_FIELDS:
            values[key] = _parse_bool(raw, key)
            continue
        try:
            num = float(raw)
        except ValueError:
            raise ConfigError(f"line {lineno}: cannot parse number for {key!r}: {raw!r}") from None
        if key in _DB_FIELDS:
            num = 10.0 ** (num / 10.0)
        values[key] = num
    return ScenarioParams(**values)


def load_config(path: str) -> ScenarioParams:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    return parse_config(text)
