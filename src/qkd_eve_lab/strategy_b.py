"""Beamsplitter-plus-shutter attack on faint-pulse links.

The eavesdropper taps a fraction of each pulse, replaces the fiber with a
better one, and may block pulses in which her tap saw nothing.  Blocking
skews the photon-number distribution toward multiphoton pulses, which shows
up in the receiver's coincidence rate; her stealth-optimal working point
sits on the 2-sigma contour of that alarm.

Singles and coincidences are compared in one consistent family throughout
this module: the attacked link uses the modified distribution P'(n) and the
clean reference uses the Poisson terms eta*P(1) and eta^2*P(2) of the same
order, so the matching conditions close algebraically instead of up to
second-order residuals.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core_stats import BasisMode
from .search import bisect, golden_max

_BRACKET_TOL = -1e-15
_EDGE_TOL = 1e-12


@dataclass(frozen=True)
class BeamsplitAttack:
    """Attack parameters: tap fraction, shutter pass fraction, replacement fiber.

    Attributes
    ----------
    lam : float
        Fraction of each pulse coupled out to the eavesdropper's analyzer.
        The remaining (1 - lam) travels on toward the receiver.
    gamma : float
        Probability that a pulse in which she detected nothing is let
        through; gamma = 0 blocks all undetected pulses.
    t_e : float
        Transmittance of her replacement fiber.
    """

    lam: float
    gamma: float
    t_e: float

    def __post_init__(self) -> None:
        if not 0 <= self.lam <= 1:
            raise ValueError(f"lam must be in [0, 1], got {self.lam}")
        if not 0 <= self.gamma <= 1:
            raise ValueError(f"gamma must be in [0, 1], got {self.gamma}")
        if not 0 < self.t_e <= 1:
            raise ValueError(f"t_e must be in (0, 1], got {self.t_e}")

    @property
    def pass_mean_factor(self) -> float:
        """Mean-photon multiplier on the path to the receiver: (1 - lam) * t_e."""
        return (1.0 - self.lam) * self.t_e


def shutter_survival(attack: BeamsplitAttack, mu: float) -> float:
    """Probability that a pulse clears the shutter.

    The tap count is Poisson(lam * mu), independent of the photons that
    continue, so a pulse survives with probability
    1 - (1 - gamma) * exp(-lam * mu).
    """
    return 1.0 - (1.0 - attack.gamma) * math.exp(-attack.lam * mu)


def _bracket(mu: float, lam: float, gamma: float, t_e: float) -> float:
    """Common factor (gamma - 1) e^{-mu + (1-lam)(1-t_e) mu} + e^{-mu (1-lam) t_e}.

    Equals exp(-m) * shutter_survival with m = (1-lam) mu t_e; evaluated in
    the two-exponential form and checked non-negative.
    """
    pass_f = (1.0 - lam) * t_e
    e_blocked = math.exp(-mu * (lam + pass_f))
    e_pass = math.exp(-mu * pass_f)
    value = (gamma - 1.0) * e_blocked + e_pass
    if value < _BRACKET_TOL:
        raise ValueError(
            f"photon distribution bracket is negative ({value}); "
            "invalid attack parameters or an implementation fault"
        )
    return max(value, 0.0)


def _singles_level(mu: float, lam: float, gamma: float, t_e: float) -> float:
    """Attacked singles per eta_b mu; the clean level is t_ab e^{-mu t_ab}."""
    return (1.0 - lam) * t_e * _bracket(mu, lam, gamma, t_e)


def photon_dist_prime(n: int, attack: BeamsplitAttack, mu: float) -> float:
    """Probability of n >= 1 photons at the receiver's input under attack."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if mu <= 0:
        raise ValueError(f"mu must be > 0, got {mu}")
    m = mu * attack.pass_mean_factor
    if m == 0.0:
        return 0.0
    bracket = _bracket(mu, attack.lam, attack.gamma, attack.t_e)
    return math.exp(n * math.log(m) - math.lgamma(n + 1)) * bracket


def photon_dist_prime_zero(attack: BeamsplitAttack, mu: float) -> float:
    """Vacuum probability, defined by complement of the n >= 1 terms."""
    m = mu * attack.pass_mean_factor
    return 1.0 - math.expm1(m) * _bracket(mu, attack.lam, attack.gamma, attack.t_e)


def clean_singles_ref(mu: float, t_ab: float, eta_b: float) -> float:
    """Clean-channel singles in the same order as the attacked expression:
    eta_b * P(1; mu * t_ab)."""
    return eta_b * mu * t_ab * math.exp(-mu * t_ab)


def clean_coinc_ref(
    mu: float, t_ab: float, eta_b: float, mode: BasisMode = BasisMode.ACTIVE
) -> float:
    """Clean-channel coincidences in the attacked expression's family:
    prefactor * eta_b^2 * P(2; mu * t_ab); elementwise."""
    p2 = (mu * t_ab) ** 2 / 2.0 * np.exp(-mu * t_ab)
    return mode.coincidence_prefactor * eta_b**2 * p2


def bob_probs_prime(
    attack: BeamsplitAttack,
    mu: float,
    eta_b: float,
    mode: BasisMode = BasisMode.ACTIVE,
) -> tuple[float, float]:
    """Receiver's singles and coincidence probabilities under attack:
    (eta_b * P'(1), prefactor * eta_b^2 * P'(2))."""
    p_single = eta_b * photon_dist_prime(1, attack, mu)
    p_coinc = mode.coincidence_prefactor * eta_b**2 * photon_dist_prime(2, attack, mu)
    return p_single, p_coinc


def model_click_probs(
    attack: BeamsplitAttack, mu: float, eta_b: float
) -> tuple[float, float]:
    """Exact per-pulse click probabilities of the physical model.

    Returns (P(any click), P(wrong-basis coincidence)) with per-photon
    detection, for cross-checking the pulse-level simulation.  These differ
    from :func:`bob_probs_prime` by O(mu * t) terms because the closed
    forms above keep only the leading photon-number term.
    """
    m = mu * attack.pass_mean_factor
    s = shutter_survival(attack, mu)
    p_click = s * -math.expm1(-m * eta_b)
    p_coinc = 0.5 * s * math.expm1(-m * eta_b / 2.0) ** 2
    return p_click, p_coinc


def sifted_info_model(attack: BeamsplitAttack, mu: float) -> float:
    """Fraction of sifted bits the eavesdropper knows, in the exact model.

    Per sifted bit: her tap detected at least one photon and her analyzer
    happened to sit in the sifting basis, conditioned on the pulse having
    cleared the shutter: (1 - e^{-lam mu}) / (2 s).  The closed-form
    bookkeeping of :func:`eve_info_b` differs from this by a (1 - lam)-type
    factor at gamma = 1; the simulation is compared against this value.
    """
    s = shutter_survival(attack, mu)
    if s == 0.0:
        return 0.0
    return -math.expm1(-attack.lam * mu) / (2.0 * s)


def eve_info_b(attack: BeamsplitAttack, mu: float) -> float:
    """Information per sifted bit credited to the attack.

    gamma * (mu/2) * lam * (1 - lam) for pulses that pass an open shutter,
    plus (1 - gamma) / 2 for the blocked-pulse filtering.
    """
    if mu <= 0:
        raise ValueError(f"mu must be > 0, got {mu}")
    split_term = attack.gamma * (mu / 2.0) * attack.lam * (1.0 - attack.lam)
    shutter_term = (1.0 - attack.gamma) * 0.5
    return split_term + shutter_term


def cascade_info_bound(
    mu: float, g_t_db: float, n_couplers: int | None = None
) -> float:
    """Upper bound on shutterless information from a series of tap couplers.

    Every coupler feeds its own analyzer; the chain's total coupling loss
    equals the gain budget g_t_db, so a photon passes the whole chain with
    probability c = 10^(-g_t/10).  Pair bookkeeping per non-empty pulse
    (two-photon weight mu/2): a pair split between one analyzer and the
    receiver is read out in the sifting basis half the time (weight 1/2); a
    pair tapped into two different analyzers has at least one of the two
    independent bases right 3/4 of the time; a pair dumped into the same
    analyzer is not counted, matching the single-coupler bookkeeping.  With
    ``n_couplers=None`` the many-coupler limit is returned (same-coupler
    collisions vanish); n_couplers=1 reduces exactly to the single-coupler
    expression (mu/2) c (1 - c).  The result is capped at mu/4, the stated
    ceiling of this attack family.
    """
    if mu <= 0:
        raise ValueError(f"mu must be > 0, got {mu}")
    if g_t_db < 0:
        raise ValueError(f"g_t_db must be >= 0, got {g_t_db}")
    c = 10.0 ** (-g_t_db / 10.0)
    if n_couplers is None:
        same_coupler = 0.0
    else:
        if n_couplers < 1:
            raise ValueError(f"n_couplers must be >= 1, got {n_couplers}")
        p = c ** (1.0 / n_couplers)
        same_coupler = (1.0 - p) * (1.0 - c * c) / (1.0 + p) if p < 1.0 else 0.0
    split_pair = c * (1.0 - c)
    both_tapped_apart = max(0.0, (1.0 - c) ** 2 - same_coupler)
    raw = (mu / 2.0) * (split_pair + 0.75 * both_tapped_apart)
    return min(mu / 4.0, raw)


def blocking_threshold_db(mu: float) -> float:
    """Gain above which full blocking (gamma = 0) goes unnoticed, in dB.

    In the second-order forms the boundary is t_ab = t_e * mu / 4 exactly,
    i.e. a gain of 10 log10(4 / mu).
    """
    if mu <= 0:
        raise ValueError(f"mu must be > 0, got {mu}")
    return 10.0 * math.log10(4.0 / mu)


def blocking_threshold_t(mu: float, t_e: float) -> float:
    """Largest installed-link transmittance at which gamma = 0 is feasible
    (second-order form): t_e * mu / 4."""
    return t_e * mu / 4.0


def solve_gamma(
    mu: float,
    t_ab: float,
    lam: float,
    t_e: float,
    form: str = "exact",
) -> float | None:
    """Shutter setting that reproduces the clean singles rate, or None.

    form="exact" inverts eta * P'(1) = eta * P(1; mu t_ab) using the full
    exponential bracket; form="second_order" uses the polynomial forms, in
    which the full-blocking boundary sits exactly at t_ab = t_e mu / 4.
    Infeasible configurations (gamma = 1 still undershoots, or gamma = 0
    already overshoots) return None.
    """
    if mu <= 0:
        raise ValueError(f"mu must be > 0, got {mu}")
    if not 0 <= t_ab <= 1:
        raise ValueError(f"t_ab must be in [0, 1], got {t_ab}")
    if not 0 < t_e <= 1:
        raise ValueError(f"t_e must be in (0, 1], got {t_e}")
    if not 0 <= lam <= 1:
        raise ValueError(f"lam must be in [0, 1], got {lam}")
    if lam == 1.0:
        return None if t_ab > 0 else 0.0

    if form == "second_order":
        gamma = (t_ab / ((1.0 - lam) * t_e) - lam * mu) / (1.0 - lam * mu)
    elif form == "exact":
        m = (1.0 - lam) * mu * t_e
        e_blocked = math.exp(-mu * (lam + (1.0 - lam) * t_e))
        e_pass = math.exp(-m)
        target = t_ab * math.exp(-mu * t_ab) / ((1.0 - lam) * t_e)
        gamma = 1.0 + (target - e_pass) / e_blocked
    else:
        raise ValueError(f"form must be 'exact' or 'second_order', got {form!r}")

    if gamma < -_EDGE_TOL or gamma > 1.0 + _EDGE_TOL:
        return None
    return min(1.0, max(0.0, gamma))


@dataclass(frozen=True)
class AlarmStats:
    """Coincidence-alarm statistics over a monitoring window of n_pulses."""

    n_pulses: float
    expected_coinc_clean: float
    expected_coinc_attack: float
    sigma: float
    z_score: float

    @property
    def stealthy(self) -> bool:
        return self.z_score <= 2.0


def coincidence_alarm(
    attack: BeamsplitAttack,
    mu: float,
    eta_b: float,
    t_ab: float,
    n_pulses: float,
    mode: BasisMode = BasisMode.ACTIVE,
) -> AlarmStats:
    """Excess coincidences the attack produces, in units of the clean noise.

    sigma is the Poisson width of the clean coincidence count; the attack
    is considered hidden while the excess stays within 2 sigma.
    """
    if n_pulses <= 0:
        raise ValueError(f"n_pulses must be > 0, got {n_pulses}")
    clean = n_pulses * clean_coinc_ref(mu, t_ab, eta_b, mode)
    _, pc_attack = bob_probs_prime(attack, mu, eta_b, mode)
    attacked = n_pulses * pc_attack
    sigma = math.sqrt(clean)
    z = (attacked - clean) / sigma if sigma > 0 else math.inf
    return AlarmStats(
        n_pulses=n_pulses,
        expected_coinc_clean=clean,
        expected_coinc_attack=attacked,
        sigma=sigma,
        z_score=z,
    )


@dataclass(frozen=True)
class StealthOptimum:
    """Result of the stealth-constrained information maximization; each
    field is an array of the shape of the link transmittances."""

    lam: np.ndarray
    gamma: np.ndarray
    info: np.ndarray
    z_score: np.ndarray
    constrained: np.ndarray  # False where only the gamma = 1 fallback was available


def max_stealth_info(
    mu: float,
    t_ab,
    t_e,
    eta_b: float,
    n_pulses: float,
    mode: BasisMode = BasisMode.ACTIVE,
    grid_step: float = 1e-3,
) -> StealthOptimum:
    """Best information compatible with matched singles and a quiet alarm.

    Elementwise in ``t_ab`` and ``t_e``; the result holds arrays of their
    broadcast shape.  The singles condition pins gamma as a function of lam,
    so each search is one-dimensional.  The pure beam-splitting tap fraction
    lam_bsa, where gamma = 1 alone matches the clean singles, comes from 200
    halvings (x e^{-mu x} is monotone for x <= 1 < 1/mu).  An element's lam
    grid is i * grid_step for i < ceil(lam_bsa / grid_step), the points of
    ``np.arange(0, lam_bsa, grid_step)``.  Its first information maximum
    among the stealthy points (gamma < 1, z <= 2) is bisected onto the z = 2
    contour toward its louder neighbor, and lam_bsa replaces it when that
    gives more.  With no stealthy grid point, lam_bsa (gamma = 1) is
    returned with ``constrained=False``; where even that is infeasible, the
    identity attack (lam = 0, gamma = 1).
    """
    t_ab, t_e = np.broadcast_arrays(np.asarray(t_ab, dtype=float), np.asarray(t_e, dtype=float))
    bad = t_e < t_ab
    if bad.any():
        raise ValueError(f"t_e must be >= t_ab, got t_e={t_e[bad][0]} < t_ab={t_ab[bad][0]}")
    if np.any(t_ab <= 0):
        raise ValueError(f"t_ab must be > 0, got {t_ab[t_ab <= 0][0]}")

    # One row per element; the lam grid runs along the columns.
    shape = t_ab.shape
    t_ab, t_e = t_ab.reshape(-1, 1), t_e.reshape(-1, 1)
    pref = mode.coincidence_prefactor
    clean = n_pulses * clean_coinc_ref(mu, t_ab, eta_b, mode)
    sigma = np.sqrt(clean)
    target = t_ab * np.exp(-mu * t_ab)

    def evaluate(lams: np.ndarray):
        """(gamma, info, z, feasible) at tap fractions lams, per row."""
        pass_f = (1.0 - lams) * t_e
        m = mu * pass_f
        e_blocked = np.exp(-mu * (lams + pass_f))
        e_pass = np.exp(-m)
        gamma = 1.0 + (target / pass_f - e_pass) / e_blocked
        feasible = (gamma >= -_EDGE_TOL) & (gamma <= 1.0 + _EDGE_TOL)
        gamma = np.clip(gamma, 0.0, 1.0)
        bracket = (gamma - 1.0) * e_blocked + e_pass
        pc = pref * eta_b**2 * m * m / 2.0 * bracket
        z = np.where(sigma > 0, (n_pulses * pc - clean) / sigma, np.where(pc > 0, np.inf, 0.0))
        info = gamma * (mu / 2.0) * lams * (1.0 - lams) + (1.0 - gamma) * 0.5
        return gamma, info, z, feasible

    def above(lam: np.ndarray) -> np.ndarray:
        pass_f = (1.0 - lam) * t_e
        return pass_f * np.exp(-mu * pass_f) > target  # singles level at gamma = 1

    def loud(lam: np.ndarray) -> np.ndarray:
        _, _, z, feasible = evaluate(lam)
        return ~feasible | (z > 2.0)

    with np.errstate(divide="ignore", invalid="ignore"):
        lo, hi = bisect(above, 0.0, 1.0, 200)
        lam_bsa = np.where(above(0.0), 0.5 * (lo + hi), 0.0)
        fb_gamma, fb_info, fb_z, fb_feasible = evaluate(lam_bsa)

        n_lams = np.ceil(lam_bsa / grid_step)
        lams = np.arange(max(1, int(n_lams.max(initial=0.0)))) * grid_step
        gamma_g, info_g, z_g, feas_g = evaluate(lams)
        stealthy = (np.arange(lams.size) < n_lams) & feas_g & (z_g <= 2.0) & (gamma_g < 1.0)
        idx = np.argmax(np.where(stealthy, info_g, -np.inf), axis=1, keepdims=True)
        prev = np.maximum(idx - 1, 0)
        lam, gamma, info, z = (lams[idx], *(np.take_along_axis(v, idx, 1)
                                            for v in (gamma_g, info_g, z_g)))

        # Refine onto the z = 2 contour just below the best grid point, where
        # the shutter is more aggressive and the information slightly higher.
        refine = ((idx > 0) & np.take_along_axis(feas_g, prev, 1)
                  & (np.take_along_axis(z_g, prev, 1) > 2.0))
        _, hi = bisect(loud, lams[prev], lam, 60)
        r_gamma, r_info, r_z, r_feasible = evaluate(hi)
        take = refine & r_feasible & (r_z <= 2.0) & (r_info > info)
        lam, gamma, info, z = (np.where(take, new, old) for new, old in
                               ((hi, lam), (r_gamma, gamma), (r_info, info), (r_z, z)))

    has_stealthy = stealthy.any(axis=1, keepdims=True)
    use_fb = ~has_stealthy | (fb_info > info)
    fields = [np.where(fb_feasible, np.where(use_fb, fb, best), identity)
              for fb, best, identity in ((lam_bsa, lam, 0.0), (fb_gamma, gamma, 1.0),
                                         (fb_info, info, 0.0), (fb_z, z, 0.0))]
    return StealthOptimum(*(f.reshape(shape) for f in fields),
                          constrained=(fb_feasible & has_stealthy).reshape(shape))


def lambda_for_gamma(
    mu: float, t_ab: float, t_e: float, gamma: float
) -> float | None:
    """Tap fraction matching the clean singles at a given shutter setting.

    The singles level is unimodal in lam; this returns the root on the
    decreasing branch (the one continuously connected to the gamma = 1
    pure beam-splitting point), or None when the level cannot reach the
    clean value at this gamma.
    """
    BeamsplitAttack(lam=0.0, gamma=gamma, t_e=t_e)  # validates gamma and t_e
    target = t_ab * math.exp(-mu * t_ab)

    def level(lam: float) -> float:
        return _singles_level(mu, lam, gamma, t_e)

    # At gamma = 1 the peak is the lam = 0 edge, which the search only nears.
    lam_peak = max(0.0, golden_max(level, 0.0, 1.0, 1e-12), key=level)
    if level(lam_peak) < target:
        return None
    lo, hi = bisect(lambda lam: level(lam) > target, lam_peak, 1.0, 200)
    return 0.5 * (lo + hi)


def gamma_sweep(
    mu: float,
    t_ab: float,
    t_e: float,
    eta_b: float,
    n_pulses: float,
    n_points: int = 101,
    mode: BasisMode = BasisMode.ACTIVE,
) -> list[dict[str, float]]:
    """Rows (gamma, expected_coincidences, z_score, info) across the shutter range.

    For each gamma the tap fraction is re-solved so the singles stay
    matched (decreasing-branch root); gammas that cannot be matched are
    skipped.
    """
    rows: list[dict[str, float]] = []
    for gamma in np.linspace(0.0, 1.0, n_points):
        lam = lambda_for_gamma(mu, t_ab, t_e, float(gamma))
        if lam is None:
            continue
        attack = BeamsplitAttack(lam=lam, gamma=float(gamma), t_e=t_e)
        alarm = coincidence_alarm(attack, mu, eta_b, t_ab, n_pulses, mode)
        rows.append(
            {
                "gamma": float(gamma),
                "expected_coincidences": alarm.expected_coinc_attack,
                "z_score": alarm.z_score,
                "info": eve_info_b(attack, mu),
            }
        )
    return rows
