"""Parameter record, validation, presets, and config parsing."""

import math
from dataclasses import fields

import pytest

from mmwlab.scenario import (
    PRESETS,
    ConfigError,
    ScenarioParams,
    load_config,
    params_for_city,
    parse_config,
    preset,
    validate,
)

# Published building statistics the presets must reproduce bit-for-bit.
CITY_TABLE = {
    "gangnam": ("Gangnam", 1010.0, 22.41, 9.35, 62.40),
    "manhattan": ("Manhattan", 1467.0, 26.50, 20.83, 23.12),
    "chicago": ("Chicago", 474.0, 36.35, 21.48, 69.74),
}


def test_defaults_are_valid():
    outcome = validate(ScenarioParams())
    assert outcome.ok
    assert outcome.violations == ()


def test_default_values():
    p = ScenarioParams()
    assert p.lambda_b == 400.0
    assert p.lambda_ell == 400.0
    assert p.d_l == 30.0 and p.d_w == 10.0
    assert p.g_m == 100.0 and p.g_s == 1.0      # 20 dB / 0 dB
    assert p.t == 10.0                           # 10 dB
    assert p.bandwidth_w == 500e6
    assert p.theta == pytest.approx(math.pi / 6)


def test_gamma_c_out_of_range_single_violation():
    outcome = validate(ScenarioParams().with_(gamma_c=1.3))
    assert not outcome.ok
    assert len(outcome.violations) == 1
    assert "gamma_c" in outcome.violations[0]


def test_indoor_fraction_at_least_one_rejected():
    # 1e6 buildings/km^2 of 2 m x 1 m: 2e6 m^2 of indoor area per km^2.
    outcome = validate(ScenarioParams().with_(lambda_ell=1e6, d_l=2.0, d_w=1.0))
    assert not outcome.ok
    assert any("indoor" in v for v in outcome.violations)


@pytest.mark.parametrize("key,ok", [("gangnam", True), ("chicago", True),
                                    ("manhattan", False)])
def test_presets_inside_the_model_domain(key, ok):
    # Manhattan's buildings and their 2 m bands cover 1.0875 of the area
    outcome = validate(params_for_city(key))
    assert outcome.ok is ok
    if not ok:
        assert outcome.violations == (
            "near-band + indoor area fractions must stay below 1, got 1.0875",)


def test_beamwidth_must_stay_below_pi():
    assert validate(ScenarioParams().with_(theta=3.0)).ok
    for theta in (math.pi, 4.0, 0.0):
        outcome = validate(ScenarioParams().with_(theta=theta))
        assert not outcome.ok
        assert any("theta" in v for v in outcome.violations)


def test_building_length_must_exceed_width():
    outcome = validate(ScenarioParams().with_(d_l=10.0, d_w=10.0))
    assert not outcome.ok
    assert any("d_l must exceed d_w" in v for v in outcome.violations)


def test_validate_bounds_the_expected_points_of_a_drop_window():
    # 1e300 BSs per km^2 are finite, but numpy cannot draw their count
    outcome = validate(ScenarioParams().with_(lambda_b=1e300))
    assert outcome.violations == (
        "lambda_b puts 2.74e+299 expected points in the full engine's "
        "sampling window, above 1e+07",)
    # a sparse field widens the window: one violation per density, the
    # fields' and both UE classes' candidate densities
    outcome = validate(ScenarioParams().with_(lambda_ell=1e-4))
    assert [v.split()[0] for v in outcome.violations] == [
        "lambda_b", "lambda_ell", "lambda_u", "lambda_n,", "lambda_r,"]
    assert validate(ScenarioParams().with_(lambda_ell=50.0)).ok
    # at 10 buildings per km^2 the 2 m bands cover 0.16% of the area, and
    # the near-band candidates alone would number 3.7e8
    outcome = validate(ScenarioParams().with_(lambda_ell=10.0))
    assert [v.split()[0] for v in outcome.violations] == ["lambda_n,"]


def test_validate_bounds_the_near_band_candidates_of_a_thin_band():
    # d_c = 1e-300 leaves every field in range, but the full engine would
    # draw near-band candidates at lambda_u*gamma_c*(1-I)/B ~ 1e303 /km^2
    outcome = validate(ScenarioParams().with_(d_c=1e-300))
    assert outcome.violations == (
        "lambda_n, the near-band UE density, puts 9.03e+303 expected points "
        "in the full engine's sampling window, above 1e+07",)
    # past overflow, and where the band fraction underflows to zero
    outcome = validate(ScenarioParams().with_(d_c=1e-320))
    assert outcome.violations[0].startswith(
        "lambda_n, the near-band UE density, puts inf expected points")
    assert validate(ScenarioParams().with_(d_c=1e-323)).violations == (
        "near-band fraction must be positive",)
    # with no UEs concentrated near buildings, the band draws none
    assert validate(ScenarioParams().with_(d_c=1e-300, gamma_c=0.0)).ok


def test_validate_collects_every_violation():
    outcome = validate(ScenarioParams().with_(lambda_b=-1.0, beta=2.0, t=0.0))
    assert not outcome.ok
    assert len(outcome.violations) == 3


NUMERIC_FIELDS = [f.name for f in fields(ScenarioParams)
                  if f.name != "include_noise"]


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_every_numeric_field_must_be_finite(value):
    for name in NUMERIC_FIELDS:
        outcome = validate(ScenarioParams().with_(**{name: value}))
        assert outcome.violations == (f"{name} must be finite, got {value}",)
    outcome = validate(ScenarioParams().with_(t=math.inf, lambda_b=math.nan,
                                              gamma_c=2.0))
    assert outcome.violations == ("lambda_b must be finite, got nan",
                                  "t must be finite, got inf")


@pytest.mark.parametrize("key", sorted(CITY_TABLE))
def test_city_presets_match_published_table(key):
    name, lam, d_l, d_w, ref = CITY_TABLE[key]
    c = preset(key)
    assert (c.name, c.lambda_ell, c.d_l, c.d_w, c.reference_los_m) == \
        (name, lam, d_l, d_w, ref)


def test_exactly_three_presets_ship():
    assert sorted(PRESETS) == sorted(CITY_TABLE)


def test_preset_lookup_is_case_insensitive():
    assert preset("Gangnam").name == "Gangnam"
    assert preset("  CHICAGO ").lambda_ell == 474.0


def test_unknown_preset_raises():
    with pytest.raises(ConfigError):
        preset("atlantis")


def test_params_for_city_overrides_building_stats_only():
    base = ScenarioParams().with_(lambda_b=250.0, t=31.6)
    p = params_for_city("manhattan", base)
    assert p.lambda_ell == 1467.0 and p.d_l == 26.50 and p.d_w == 20.83
    assert p.lambda_b == 250.0 and p.t == 31.6


def test_parse_config_db_conversion_and_bools():
    text = """
    # gains in dB, flag spellings
    lambda_b = 250
    g_m = 20        # -> 100 linear
    g_s = 0         # -> 1 linear
    include_noise = yes
    theta = 0.5235987755982988
    """
    p = parse_config(text)
    assert p.lambda_b == 250.0
    assert p.g_m == pytest.approx(100.0)
    assert p.g_s == pytest.approx(1.0)
    assert p.include_noise is True
    assert p.theta == pytest.approx(math.pi / 6)


@pytest.mark.parametrize("text,fragment", [
    ("nonsense line", "expected 'key = value'"),
    ("bogus = 3", "unknown parameter"),
    ("lambda_b = 1\nlambda_b = 2", "duplicate"),
    ("lambda_b = abc", "cannot parse number"),
    ("include_noise = maybe", "cannot parse boolean"),
])
def test_parse_config_rejects_malformed_input(text, fragment):
    with pytest.raises(ConfigError, match=fragment):
        parse_config(text)


def test_load_config_missing_file():
    with pytest.raises(ConfigError):
        load_config("/no/such/file.cfg")


def test_with_returns_new_frozen_record():
    p = ScenarioParams()
    q = p.with_(beta=0.7)
    assert q.beta == 0.7 and p.beta == 0.0
    with pytest.raises(Exception):
        p.beta = 0.5  # frozen
