"""Building-aware mmWave downlink: analytic model plus Monte Carlo drops.

Dense mmWave networks lose most links to building blockage, but the same
buildings attract most of the traffic. The model here lets each base
station close to a building dedicate its cell-discovery beam to that
building's facade, trading raw coverage for load balance. The package
evaluates that trade both in closed form (`analytic`) and by simulating
drops (`simulate`), and exposes both through one CLI (`mmwlab`).
"""

from .analytic import (AnalyticReport, DomainError, InfiniteLosDistance,
                       QuadratureError, analytic_report, average_rate,
                       coverage, coverage_far, coverage_near,
                       effective_mainlobe_radius, los_distance, mean_load_far,
                       mean_load_near, noise_power_dbm, optimal_bias_coverage,
                       optimal_bias_rate, ue_densities)
from .association import (Association, BsTable, associate_all, classify_many,
                          schedule)
from .geometry import (BuildingField, EmptyFieldError, RegionClass, Window,
                       classify_point, los_pairs, los_to_many,
                       sample_buildings, sample_ppp)
from .scenario import (PRESETS, CityPreset, ConfigError, ScenarioParams,
                       ValidationOutcome, load_config, params_for_city,
                       parse_config, preset, validate)
from .simulate import (DropSample, EstimateSummary, MetricStats, SimMode,
                       estimate, realize)

__version__ = "0.1.0"

__all__ = [
    "AnalyticReport", "Association", "BsTable", "BuildingField",
    "CityPreset", "ConfigError", "DomainError",
    "DropSample", "EmptyFieldError", "EstimateSummary", "MetricStats",
    "InfiniteLosDistance", "PRESETS", "QuadratureError", "RegionClass",
    "ScenarioParams", "SimMode", "ValidationOutcome", "Window",
    "analytic_report", "associate_all", "average_rate",
    "classify_many", "classify_point", "coverage", "coverage_far",
    "coverage_near", "estimate", "effective_mainlobe_radius", "load_config",
    "los_distance", "los_pairs", "los_to_many", "mean_load_far",
    "mean_load_near", "noise_power_dbm", "optimal_bias_coverage",
    "optimal_bias_rate", "params_for_city", "parse_config", "preset",
    "realize", "sample_buildings", "sample_ppp", "schedule",
    "ue_densities", "validate", "__version__",
]
