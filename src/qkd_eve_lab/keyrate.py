"""Net key rate versus distance under the different eavesdropper models.

The sifted rate loses a fraction f_ec * h(QBER) to error correction and
I(A,E) to privacy amplification; the remaining secret fraction times the
per-pulse sifted rate is the figure of merit.  The measured QBER is split
into an optical part and the dark-count part that grows with distance, and
only the excess over the dark-count part (with a configurable floor) is
attributed to the eavesdropper.

Every formula here is elementwise: distances, and mu where the unlimited
model optimises it, may be numpy arrays.  A rate table is a
:class:`RateCurve` of columns, one element per distance; one private
evaluator over an array of distances serves :func:`curve`, :func:`net_rate`
(a single distance) and :func:`max_distance`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import strategy_a, strategy_b
from .config import SystemConfig
from .core_stats import EveModel, p_single
from .search import bisect, distance_grid, golden_max

_D_LIMIT = 500.0  # km, the farthest distance max_distance searches


@dataclass(frozen=True)
class QberBudget:
    """Dark-count, measured and attributed error rates (floats or arrays)."""

    qber_det: float
    qber_mes: float
    qber_attrib: float


@dataclass(frozen=True)
class RateCurve:
    """A rate table as columns, one element per distance; ``len`` is its row
    count.  ``mu_opt`` is None unless the model optimises mu."""

    distance_km: np.ndarray
    t_ab: np.ndarray
    qber: QberBudget
    i_eve: np.ndarray
    mu_opt: np.ndarray | None
    r_net_normalized: np.ndarray

    def __len__(self) -> int:
        return np.size(self.distance_km)


def binary_entropy(x: float) -> float:
    """Shannon entropy of a binary variable, h(0) = h(1) = 0; elementwise."""
    x = np.asarray(x, dtype=float)
    if not np.all((x >= 0.0) & (x <= 1.0)):
        raise ValueError(f"probability must be in [0, 1], got {x}")
    with np.errstate(divide="ignore", invalid="ignore"):
        h = -x * np.log2(x) - (1.0 - x) * np.log2(1.0 - x)
    return np.where((x == 0.0) | (x == 1.0), 0.0, h)[()]


def qber_model(distance_km: float, cfg: SystemConfig) -> QberBudget:
    """Measured QBER at a given distance and its attribution; elementwise.

    Dark counts contribute (n_gated p_dark / 2) errors per (p_single +
    n_gated p_dark) clicks, n_gated from ``cfg.basis_mode``; the optical part
    is constant.  The part attributed to the eavesdropper is the excess over
    the dark-count share, never less than the configured floor.
    """
    if np.any(np.less(distance_km, 0)):
        raise ValueError(f"distance must be >= 0, got {distance_km}")
    return _net(distance_km, cfg.source.mu, 0.0, cfg)[0]


def _net(distance_km, mu, i_eve, cfg: SystemConfig) -> tuple[QberBudget, np.ndarray]:
    """QBER budget and per-pulse net rate (p_single / 2) * secret fraction,
    elementwise in distance, mu and I(A,E), over cfg.basis_mode's gated detectors."""
    ps = p_single(replace(cfg.source, mu=mu), cfg.t_ab(distance_km), cfg.detector)
    dark = cfg.basis_mode.n_gated * cfg.detector.p_dark
    clicks = ps + dark
    with np.errstate(divide="ignore", invalid="ignore"):
        qber_det = np.where(clicks > 0, (dark / 2.0) / clicks, 0.0)[()]
    qber_mes = np.minimum(0.5, cfg.qber_opt + qber_det)
    qber_attrib = np.maximum(cfg.qber_attrib_floor, np.maximum(0.0, qber_mes - qber_det))
    secret = np.maximum(0.0, 1.0 - cfg.f_ec * binary_entropy(qber_mes) - i_eve)
    return QberBudget(qber_det, qber_mes, qber_attrib), (ps / 2.0) * secret


def eve_information(distance_km: float, eve: EveModel, cfg: SystemConfig) -> np.ndarray:
    """I(A,E) per sifted bit to remove in privacy amplification; elementwise."""
    d = np.asarray(distance_km, dtype=float)
    if eve is EveModel.NONE:
        return np.zeros_like(d)
    if eve is EveModel.STRATEGY_A:
        mix = strategy_a.allocate(cfg.source.mu, cfg.t_ab(d))
        return strategy_a.attributed_info(mix, qber_model(d, cfg).qber_attrib)
    if eve in (EveModel.STRATEGY_B, EveModel.STRATEGY_B_STORAGE):
        t_ab = cfg.t_ab(d)
        t_e = np.maximum(cfg.eve_t_e(d), t_ab)  # degenerate at distance 0 rounding
        info = strategy_b.max_stealth_info(cfg.source.mu, t_ab, t_e, cfg.detector.eta_b,
                                           cfg.n_pulses, cfg.basis_mode).info
        return info if eve is EveModel.STRATEGY_B else np.minimum(1.0, 2.0 * info)
    raise ValueError("unlimited model optimizes mu; use luetkenhaus_rate")


def _curve(d: np.ndarray, eve: EveModel, cfg: SystemConfig) -> RateCurve:
    """Rate table at the distances ``d``, from one array pass of :func:`_net`."""
    if np.any(d < 0):
        raise ValueError(f"distance must be >= 0, got {d[d < 0][0]}")
    mu, mu_opt = cfg.source.mu, None
    if eve is EveModel.UNLIMITED:
        mu = mu_opt = luetkenhaus_rate(d, cfg)[0]
        i_eve = unlimited_info(mu, d, cfg)
    else:
        i_eve = eve_information(d, eve, cfg)
    budget, r_net = _net(d, mu, i_eve, cfg)
    return RateCurve(d, cfg.t_ab(d), budget, i_eve, mu_opt, r_net)


def net_rate(distance_km: float, eve: EveModel, cfg: SystemConfig) -> RateCurve:
    """Per-pulse net secret rate at one distance for one eavesdropper model:
    a one-row :class:`RateCurve` whose columns are scalars."""
    return _curve(np.asarray(distance_km, dtype=float), eve, cfg)


def unlimited_info(mu: float, distance_km: float, cfg: SystemConfig) -> float:
    """Multiphoton fraction of the clicks, all of it assumed known to Eve;
    elementwise in mu and distance."""
    p_multi = -np.expm1(-mu) - mu * np.exp(-mu)  # no cancellation at small mu
    clicks = mu * cfg.t_ab(distance_km) * cfg.detector.eta_b
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(clicks > 0, np.minimum(1.0, p_multi / clicks), 1.0)[()]


def luetkenhaus_rate(distance_km: float, cfg: SystemConfig) -> tuple[np.ndarray, np.ndarray]:
    """Net rate against an unlimited eavesdropper, maximized over mu;
    elementwise in distance, returning (mu_opt, rate).

    The attacker keeps every multiphoton pulse, so whenever
    t_ab eta_b ~ mu/2 her information reaches one and the rate collapses;
    the optimum mu therefore falls with distance.  Deterministic search:
    a coarse 121-point log grid in one (distance x mu) array pass, then
    golden-section refinement of every distance to 1e-6.
    """
    d = np.asarray(distance_km, dtype=float)
    if np.any(d < 0):
        raise ValueError(f"distance must be >= 0, got {d[d < 0][0]}")

    def value(mu, x=d):
        return _net(x, mu, unlimited_info(mu, x, cfg), cfg)[1]

    grid = np.geomspace(1e-5, 1.0, 121)
    best = np.argmax(value(grid, d[..., None]), axis=-1)
    lo = grid[np.maximum(0, best - 1)]
    hi = grid[np.minimum(grid.size - 1, best + 1)]
    mu_opt = golden_max(value, lo, hi, 1e-6)
    return mu_opt, value(mu_opt)


def max_distance(eve: EveModel, cfg: SystemConfig) -> float:
    """Largest distance with a positive net rate, to 1/64 km.

    One array pass gives the rate on the 1 km grid 0..500 km.  The last
    positive grid point and the one after it bracket the cutoff, and five
    halvings with :func:`net_rate` leave a 1/32 km bracket, whose midpoint
    is returned.  Returns 0.0 when no grid point is positive and infinity
    when the last one still is ("unbounded at grid limit").
    """
    grid = distance_grid(0.0, _D_LIMIT, 1.0)
    positive = np.flatnonzero(_curve(grid, eve, cfg).r_net_normalized > 0.0)
    if positive.size == 0:
        return 0.0
    last = positive[-1]
    if last == grid.size - 1:
        return math.inf
    lo, hi = bisect(lambda d: net_rate(d, eve, cfg).r_net_normalized > 0.0,
                    grid[last], grid[last + 1], 5)
    return 0.5 * (lo + hi)


def curve(eve: EveModel, cfg: SystemConfig, distances: np.ndarray) -> RateCurve:
    """Rate table over an array of distances, such as a
    :func:`~qkd_eve_lab.search.distance_grid`; zeros stay exact zeros."""
    return _curve(np.asarray(distances, dtype=float), eve, cfg)
