"""Net key rate versus distance under the different eavesdropper models.

The sifted rate loses a fraction f_ec * h(QBER) to error correction and
I(A,E) to privacy amplification; the remaining secret fraction times the
per-pulse sifted rate is the figure of merit.  The measured QBER is split
into an optical part and the dark-count part that grows with distance, and
only the excess over the dark-count part (with a configurable floor) is
attributed to the eavesdropper.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import strategy_a, strategy_b
from .config import SystemConfig
from .core_stats import EveModel, p_single
from .search import bisect, distance_grid, golden_max


@dataclass(frozen=True)
class QberBudget:
    """Decomposition of the measured error rate."""

    qber_opt: float
    qber_det: float
    qber_mes: float
    qber_attrib: float


@dataclass(frozen=True)
class RatePoint:
    """One distance sample of a rate curve."""

    distance_km: float
    t_ab: float
    qber: QberBudget
    i_eve: float
    mu_opt: float | None
    r_net_normalized: float
    r_net_relative: float


def binary_entropy(x: float) -> float:
    """Shannon entropy of a binary variable, h(0) = h(1) = 0."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"probability must be in [0, 1], got {x}")
    if x in (0.0, 1.0):
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def qber_model(distance_km: float, cfg: SystemConfig) -> QberBudget:
    """Measured QBER at a given distance and its attribution.

    Dark counts contribute (n_gated p_dark / 2) errors per
    (p_single + n_gated p_dark) clicks; the optical part is constant.  The
    part attributed to the eavesdropper is the excess over the dark-count
    share, never less than the configured floor.
    """
    if distance_km < 0:
        raise ValueError(f"distance must be >= 0, got {distance_km}")
    ps = p_single(cfg.source, cfg.t_ab(distance_km), cfg.detector)
    dark = cfg.detector.n_gated * cfg.detector.p_dark
    clicks = ps + dark
    qber_det = (dark / 2.0) / clicks if clicks > 0 else 0.0
    qber_mes = min(0.5, cfg.qber_opt + qber_det)
    qber_attrib = max(cfg.qber_attrib_floor, max(0.0, qber_mes - qber_det))
    return QberBudget(cfg.qber_opt, qber_det, qber_mes, qber_attrib)


def _strategy_b_info(distance_km: float, cfg: SystemConfig) -> float:
    t_ab = cfg.t_ab(distance_km)
    t_e = cfg.eve_t_e(distance_km)
    if t_e < t_ab:  # degenerate at distance 0 rounding
        t_e = t_ab
    opt = strategy_b.max_stealth_info(
        cfg.source.mu, t_ab, t_e, cfg.detector.eta_b, cfg.n_pulses, cfg.basis_mode
    )
    return opt.info


def eve_information(distance_km: float, eve: EveModel, cfg: SystemConfig) -> float:
    """I(A,E) per sifted bit to remove in privacy amplification."""
    if eve is EveModel.NONE:
        return 0.0
    if eve is EveModel.STRATEGY_A:
        mix = strategy_a.allocate(cfg.source.mu, cfg.t_ab(distance_km))
        budget = qber_model(distance_km, cfg)
        return strategy_a.attributed_info(mix, budget.qber_attrib)
    if eve is EveModel.STRATEGY_B:
        return _strategy_b_info(distance_km, cfg)
    if eve is EveModel.STRATEGY_B_STORAGE:
        return min(1.0, 2.0 * _strategy_b_info(distance_km, cfg))
    raise ValueError("unlimited model optimizes mu; use luetkenhaus_rate")


def _secret_fraction(qber_mes: float, i_eve: float, f_ec: float) -> float:
    return max(0.0, 1.0 - f_ec * binary_entropy(qber_mes) - i_eve)


def _secret_rate(
    distance_km: float, cfg: SystemConfig, i_eve: float
) -> tuple[QberBudget, float]:
    """QBER budget and per-pulse net rate (p_single / 2) * secret fraction."""
    budget = qber_model(distance_km, cfg)
    ps = p_single(cfg.source, cfg.t_ab(distance_km), cfg.detector)
    return budget, (ps / 2.0) * _secret_fraction(budget.qber_mes, i_eve, cfg.f_ec)


def net_rate(distance_km: float, eve: EveModel, cfg: SystemConfig) -> RatePoint:
    """Per-pulse net secret rate at one distance for one eavesdropper model."""
    if distance_km < 0:
        raise ValueError(f"distance must be >= 0, got {distance_km}")
    mu_opt: float | None = None
    if eve is EveModel.UNLIMITED:
        mu_opt, _ = luetkenhaus_rate(distance_km, cfg)
        i_eve = unlimited_info(mu_opt, distance_km, cfg)
        budget, r_net = _secret_rate(distance_km, cfg.with_mu(mu_opt), i_eve)
    else:
        i_eve = eve_information(distance_km, eve, cfg)
        budget, r_net = _secret_rate(distance_km, cfg, i_eve)
    # Zero-distance no-eavesdropper rate used for relative normalization.
    _, reference = _secret_rate(0.0, cfg, 0.0)
    return RatePoint(
        distance_km=distance_km,
        t_ab=cfg.t_ab(distance_km),
        qber=budget,
        i_eve=i_eve,
        mu_opt=mu_opt,
        r_net_normalized=r_net,
        r_net_relative=r_net / reference if reference > 0 else 0.0,
    )


def unlimited_info(mu: float, distance_km: float, cfg: SystemConfig) -> float:
    """Multiphoton fraction of the clicks, all of it assumed known to Eve."""
    p_multi = 1.0 - math.exp(-mu) * (1.0 + mu)
    clicks = mu * cfg.t_ab(distance_km) * cfg.detector.eta_b
    if clicks <= 0:
        return 1.0
    return min(1.0, p_multi / clicks)


def luetkenhaus_rate(distance_km: float, cfg: SystemConfig) -> tuple[float, float]:
    """Net rate against an unlimited eavesdropper, maximized over mu.

    The attacker keeps every multiphoton pulse, so whenever
    t_ab eta_b ~ mu/2 her information reaches one and the rate collapses;
    the optimum mu therefore falls with distance.  Deterministic search:
    coarse log grid, then golden-section refinement to 1e-6.
    """
    if distance_km < 0:
        raise ValueError(f"distance must be >= 0, got {distance_km}")

    def value(mu: float) -> float:
        i_eve = unlimited_info(mu, distance_km, cfg)
        return _secret_rate(distance_km, cfg.with_mu(mu), i_eve)[1]

    grid = np.geomspace(1e-5, 1.0, 121)
    values = [value(float(m)) for m in grid]
    best = int(np.argmax(values))
    lo = float(grid[max(0, best - 1)])
    hi = float(grid[min(len(grid) - 1, best + 1)])
    mu_opt = golden_max(value, lo, hi, 1e-6)
    return mu_opt, value(mu_opt)


def max_distance(
    eve: EveModel, cfg: SystemConfig, d_limit: float = 500.0
) -> float:
    """Largest distance with a positive net rate, to 0.1 km.

    Coarse 1 km scan for the sign change on the monotone tail, then
    bisection.  Returns infinity when the rate is still positive at
    ``d_limit`` ("unbounded at grid limit").
    """

    def positive(d: float) -> bool:
        return net_rate(d, eve, cfg).r_net_normalized > 0.0

    last_positive: float | None = None
    first_zero: float | None = None
    for d in distance_grid(0.0, d_limit, 1.0):
        if positive(d):
            last_positive = d
            first_zero = None  # rate recovered; keep scanning the tail
        elif last_positive is not None and first_zero is None:
            first_zero = d
    if last_positive is None:
        return 0.0
    if first_zero is None:
        return math.inf
    # The bracket is one grid step wide; five halvings leave 1/32 km.
    lo, hi = bisect(positive, last_positive, first_zero, 5)
    return 0.5 * (lo + hi)


def curve(
    eve: EveModel,
    cfg: SystemConfig,
    d_min: float = 0.0,
    d_max: float = 200.0,
    step: float = 1.0,
) -> list[RatePoint]:
    """Dense table of rate points for plotting; zeros stay exact zeros."""
    return [net_rate(d, eve, cfg) for d in distance_grid(d_min, d_max, step)]
