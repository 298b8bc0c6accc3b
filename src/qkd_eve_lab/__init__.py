"""Faint-laser BB84 eavesdropping analysis toolkit.

Closed-form photon statistics, two multiphoton attack strategies, net key
rate versus distance, and a deterministic pulse-level Monte Carlo that
cross-checks every formula.
"""
from .config import ConfigError, Settings, SystemConfig, load_settings
from .core_stats import (
    BasisMode,
    ChannelParams,
    DetectorParams,
    Rates,
    SourceParams,
    eve_gain_db,
    multi_photon_fraction,
    p_coinc,
    p_single,
    p_single_linear,
    poisson_pmf,
    rates,
    transmission,
)
from .keyrate import (
    EveModel,
    QberBudget,
    RatePoint,
    binary_entropy,
    curve,
    luetkenhaus_rate,
    max_distance,
    net_rate,
    qber_model,
)
from .montecarlo import SimConfig, SimResult, simulate
from .strategy_a import (
    CaseMix,
    InterceptCase,
    allocate,
    attributed_info,
    case_table,
    info_per_error,
    pure_b_crossover_km,
)
from .strategy_b import (
    AlarmStats,
    BeamsplitAttack,
    StealthOptimum,
    blocking_threshold_db,
    cascade_info_bound,
    coincidence_alarm,
    eve_info_b,
    max_stealth_info,
    photon_dist_prime,
    solve_gamma,
)
from .verify import Report, compare, oracle_suite

__version__ = "0.1.0"

__all__ = [
    "AlarmStats",
    "BasisMode",
    "BeamsplitAttack",
    "CaseMix",
    "ChannelParams",
    "ConfigError",
    "DetectorParams",
    "EveModel",
    "InterceptCase",
    "QberBudget",
    "RatePoint",
    "Rates",
    "Report",
    "Settings",
    "SimConfig",
    "SimResult",
    "SourceParams",
    "StealthOptimum",
    "SystemConfig",
    "allocate",
    "attributed_info",
    "binary_entropy",
    "blocking_threshold_db",
    "cascade_info_bound",
    "case_table",
    "coincidence_alarm",
    "compare",
    "curve",
    "eve_gain_db",
    "eve_info_b",
    "info_per_error",
    "load_settings",
    "luetkenhaus_rate",
    "max_distance",
    "max_stealth_info",
    "multi_photon_fraction",
    "net_rate",
    "oracle_suite",
    "p_coinc",
    "p_single",
    "p_single_linear",
    "photon_dist_prime",
    "poisson_pmf",
    "pure_b_crossover_km",
    "qber_model",
    "rates",
    "simulate",
    "solve_gamma",
    "transmission",
]
