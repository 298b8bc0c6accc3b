"""Faint-laser BB84 eavesdropping analysis toolkit.

Closed-form photon statistics, two multiphoton attack strategies, net key
rate versus distance, and a deterministic pulse-level Monte Carlo that
cross-checks every formula.

Each public name loads its submodule on first use (PEP 562), so
``import qkd_eve_lab`` costs no more than the layers a caller touches: the
photon statistics do not load the Monte Carlo, its ``multiprocessing``
fan-out or the oracle.
"""
__version__ = "0.1.0"

# Each public name, grouped by the submodule that defines it.
_NAMES = {
    "config": ("ConfigError", "Settings", "SystemConfig", "load_settings"),
    "core_stats": (
        "BasisMode", "ChannelParams", "DetectorParams", "EveModel", "Rates",
        "SourceParams", "eve_gain_db", "multi_photon_fraction", "p_coinc", "p_single",
        "p_single_linear", "poisson_pmf", "rates", "transmission",
    ),
    "keyrate": (
        "QberBudget", "RateCurve", "binary_entropy", "curve", "luetkenhaus_rate",
        "max_distance", "net_rate", "qber_model",
    ),
    "montecarlo": ("SimConfig", "SimResult", "simulate"),
    "strategy_a": (
        "CaseMix", "InterceptCase", "allocate", "attributed_info", "case_table",
        "info_per_error", "pure_b_crossover_km",
    ),
    "strategy_b": (
        "AlarmStats", "BeamsplitAttack", "StealthOptimum", "blocking_threshold_db",
        "cascade_info_bound", "coincidence_alarm", "eve_info_b", "max_stealth_info",
        "photon_dist_prime", "solve_gamma",
    ),
    "verify": ("Report", "compare", "oracle_suite"),
}
_HOME = {name: module for module, names in _NAMES.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    try:
        home = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    # __import__, unlike importlib.import_module, is timed by -X importtime.
    value = getattr(__import__(f"{__name__}.{home}", fromlist=[name]), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
