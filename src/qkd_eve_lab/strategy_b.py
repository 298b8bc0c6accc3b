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

The tapped link is written once, elementwise, in :func:`_link`, which
``photon_dist_prime``, ``photon_dist_prime_zero``, ``lambda_for_gamma``,
``gamma_sweep`` and ``max_stealth_info`` share; so are the alarm z,
:func:`_alarm_z`, and the credited information, :func:`_credited_info`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core_stats import BasisMode
from .search import bisect, golden_max

_BRACKET_TOL = -1e-15
_EDGE_TOL = 1e-12
_LAM_STEP = 1e-3  # spacing of max_stealth_info's lam grid
_GAMMA_POINTS = 101  # evenly spaced shutter settings of gamma_sweep, ends included


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


def _link(mu: float, lam, gamma, t_e):
    """The tapped link, elementwise: (pass_f, m, gamma, bracket).

    pass_f = (1 - lam) t_e scales the mean photon number m = mu pass_f that
    goes on to the receiver.  The bracket (gamma - 1) e_blocked + e_pass is
    e^{-m} times the shutter survival, checked non-negative and clamped at 0.
    ``gamma`` is the shutter setting, or a function of (pass_f, e_blocked,
    e_pass) that solves it from the link; the gamma used is returned.
    """
    pass_f = (1.0 - lam) * t_e
    m = mu * pass_f
    e_blocked = np.exp(-mu * (lam + pass_f))
    e_pass = np.exp(-m)
    if callable(gamma):
        gamma = gamma(pass_f, e_blocked, e_pass)
    bracket = (gamma - 1.0) * e_blocked + e_pass
    lowest = np.fmin.reduce(bracket, axis=None)  # skips the NaN of an unsolved gamma
    if lowest < _BRACKET_TOL:
        raise ValueError(
            f"photon distribution bracket is negative ({lowest}); "
            "invalid attack parameters or an implementation fault"
        )
    return pass_f, m, gamma, np.maximum(bracket, 0.0)


def _alarm_z(attacked, clean):
    """Alarm z, elementwise: attacked minus clean coincidences over sqrt(clean);
    0 where they agree, also both at 0, and +inf for an excess over a clean 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(attacked == clean, 0.0, (attacked - clean) / np.sqrt(clean))


def _credited_info(mu: float, lam, gamma):
    """Information per sifted bit credited to the attack (:func:`eve_info_b`)."""
    return gamma * (mu / 2.0) * lam * (1.0 - lam) + (1.0 - gamma) * 0.5


def photon_dist_prime(n: int, attack: BeamsplitAttack, mu: float) -> float:
    """Probability of n >= 1 photons at the receiver's input under attack."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if mu <= 0:
        raise ValueError(f"mu must be > 0, got {mu}")
    _, m, _, bracket = _link(mu, attack.lam, attack.gamma, attack.t_e)
    return m**n * math.exp(-math.lgamma(n + 1)) * bracket


def photon_dist_prime_zero(attack: BeamsplitAttack, mu: float) -> float:
    """Vacuum probability, defined by complement of the n >= 1 terms."""
    _, m, _, bracket = _link(mu, attack.lam, attack.gamma, attack.t_e)
    return 1.0 - math.expm1(m) * bracket


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
    return _credited_info(mu, attack.lam, attack.gamma)


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
    if form not in ("exact", "second_order"):
        raise ValueError(f"form must be 'exact' or 'second_order', got {form!r}")
    if lam == 1.0:
        return None if t_ab > 0 else 0.0

    if form == "second_order":
        gamma = (t_ab / ((1.0 - lam) * t_e) - lam * mu) / (1.0 - lam * mu)
    else:
        m = (1.0 - lam) * mu * t_e
        e_blocked = math.exp(-mu * (lam + (1.0 - lam) * t_e))
        e_pass = math.exp(-m)
        target = t_ab * math.exp(-mu * t_ab) / ((1.0 - lam) * t_e)
        gamma = 1.0 + (target - e_pass) / e_blocked

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
    attacked = n_pulses * bob_probs_prime(attack, mu, eta_b, mode)[1]
    return AlarmStats(
        n_pulses=n_pulses,
        expected_coinc_clean=clean,
        expected_coinc_attack=attacked,
        sigma=math.sqrt(clean),
        z_score=float(_alarm_z(attacked, clean)),
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
) -> StealthOptimum:
    """Best information compatible with matched singles and a quiet alarm.

    Elementwise in ``t_ab`` and ``t_e``; the result holds arrays of their
    broadcast shape.  The singles condition pins gamma as a function of lam,
    so each search is one-dimensional.  The pure beam-splitting tap fraction
    lam_bsa, where gamma = 1 alone matches the clean singles, comes from 200
    halvings (x e^{-mu x} is monotone for x <= 1 < 1/mu).  An element's lam
    grid is i * 0.001 for i < ceil(lam_bsa / 0.001), the points of
    ``np.arange(0, lam_bsa, 0.001)``.  Its first information maximum
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
    clean = n_pulses * clean_coinc_ref(mu, t_ab, eta_b, mode)
    target = t_ab * np.exp(-mu * t_ab)

    def matched(pass_f, e_blocked, e_pass):
        """The singles-matched shutter; NaN where no gamma in [0, 1] matches."""
        gamma = 1.0 + (target / pass_f - e_pass) / e_blocked
        feasible = (gamma >= -_EDGE_TOL) & (gamma <= 1.0 + _EDGE_TOL)
        return np.where(feasible, np.clip(gamma, 0.0, 1.0), np.nan)

    def evaluate(lams: np.ndarray):
        """(gamma, info, z) at tap fractions lams, per row; NaN where infeasible."""
        _, m, gamma, bracket = _link(mu, lams, matched, t_e)
        pc = mode.coincidence_prefactor * eta_b**2 * m * m / 2.0 * bracket
        return gamma, _credited_info(mu, lams, gamma), _alarm_z(n_pulses * pc, clean)

    def above(lam: np.ndarray) -> np.ndarray:
        pass_f, _, _, bracket = _link(mu, lam, 1.0, t_e)
        return pass_f * bracket > target  # singles level at gamma = 1

    with np.errstate(divide="ignore", invalid="ignore"):
        lo, hi = bisect(above, 0.0, np.where(above(0.0), 1.0, 0.0), 200)
        lam_bsa = 0.5 * (lo + hi)
        fb_gamma, fb_info, fb_z = evaluate(lam_bsa)

        n_lams = np.ceil(lam_bsa / _LAM_STEP)
        lams = np.arange(max(1, int(n_lams.max(initial=0.0)))) * _LAM_STEP
        gamma_g, info_g, z_g = evaluate(lams)
        stealthy = (np.arange(lams.size) < n_lams) & (z_g <= 2.0) & (gamma_g < 1.0)
        idx = np.argmax(np.where(stealthy, info_g, -np.inf), axis=1, keepdims=True)
        prev = np.maximum(idx - 1, 0)
        lam, gamma, info, z = (lams[idx], *(np.take_along_axis(v, idx, 1)
                                            for v in (gamma_g, info_g, z_g)))

        # Refine from the loud (z > 2 or infeasible) neighbor below the best grid
        # point onto the z = 2 contour, where the information is slightly higher.
        refine = (idx > 0) & (np.take_along_axis(z_g, prev, 1) > 2.0)
        _, hi = bisect(lambda x: ~(evaluate(x)[2] <= 2.0), lams[prev], lam, 60)
        r_gamma, r_info, r_z = evaluate(hi)
        take = refine & (r_z <= 2.0) & (r_info > info)
        lam, gamma, info, z = (np.where(take, new, old) for new, old in
                               ((hi, lam), (r_gamma, gamma), (r_info, info), (r_z, z)))

    fb_feasible = ~np.isnan(fb_gamma)
    has_stealthy = stealthy.any(axis=1, keepdims=True)
    use_fb = ~has_stealthy | (fb_info > info)
    fields = [np.where(fb_feasible, np.where(use_fb, fb, best), identity)
              for fb, best, identity in ((lam_bsa, lam, 0.0), (fb_gamma, gamma, 1.0),
                                         (fb_info, info, 0.0), (fb_z, z, 0.0))]
    return StealthOptimum(*(f.reshape(shape) for f in fields),
                          constrained=(fb_feasible & has_stealthy).reshape(shape))


def lambda_for_gamma(mu: float, t_ab: float, t_e: float, gamma):
    """Tap fraction matching the clean singles at shutter settings gamma.

    Elementwise in ``gamma``.  The singles level is unimodal in lam; this
    returns the root on the decreasing branch (the one continuously
    connected to the gamma = 1 pure beam-splitting point), or NaN where the
    level cannot reach the clean value at that gamma.
    """
    gamma = np.asarray(gamma, dtype=float)
    bad = ~((0 <= gamma) & (gamma <= 1))
    if bad.any():
        raise ValueError(f"gamma must be in [0, 1], got {gamma[bad][0]}")
    BeamsplitAttack(lam=0.0, gamma=1.0, t_e=t_e)  # validates t_e
    target = t_ab * math.exp(-mu * t_ab)

    def level(lam: np.ndarray) -> np.ndarray:
        pass_f, _, _, bracket = _link(mu, lam, gamma, t_e)
        return pass_f * bracket

    # At gamma = 1 the peak is the lam = 0 edge, which the search only nears.
    peak = golden_max(level, 0.0, 1.0, 1e-12)
    lam_peak = np.where(level(peak) > level(0.0), peak, 0.0)
    lo, hi = bisect(lambda lam: level(lam) > target, lam_peak, 1.0, 200)
    return np.where(level(lam_peak) < target, np.nan, 0.5 * (lo + hi))[()]


def gamma_sweep(
    mu: float,
    t_ab: float,
    t_e: float,
    eta_b: float,
    n_pulses: float,
    mode: BasisMode = BasisMode.ACTIVE,
) -> dict[str, np.ndarray]:
    """Columns gamma, expected_coincidences, z_score and info, keyed by their
    CSV names, at gamma = 0, 0.01, ..., 1.

    For each gamma the tap fraction is re-solved so the singles stay
    matched (decreasing-branch root); gammas that cannot be matched are
    skipped.  Like :func:`max_stealth_info`, it needs t_e >= t_ab.
    """
    if t_e < t_ab:
        raise ValueError(f"t_e must be >= t_ab, got t_e={t_e} < t_ab={t_ab}")
    gamma = np.linspace(0.0, 1.0, _GAMMA_POINTS)
    lam = lambda_for_gamma(mu, t_ab, t_e, gamma)
    gamma, lam = gamma[~np.isnan(lam)], lam[~np.isnan(lam)]
    _, m, _, bracket = _link(mu, lam, gamma, t_e)
    attacked = n_pulses * mode.coincidence_prefactor * eta_b**2 * m * m / 2.0 * bracket
    z = _alarm_z(attacked, n_pulses * clean_coinc_ref(mu, t_ab, eta_b, mode))
    info = _credited_info(mu, lam, gamma)
    return {"gamma": gamma, "expected_coincidences": attacked, "z_score": z, "info": info}
