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

Six formulas are written once, elementwise, and shared: the clean
reference, :func:`_clean`, which also checks mu and t_ab for every path; the
tapped link, :func:`_link`; the attacked singles level, :func:`_singles`; the
singles-matched shutter, :func:`_matched`, whose [0, 1] rule is
:func:`_feasible`; the coincidence alarm, :func:`_alarm`, whose bound is
``STEALTH_Z``; and the credited information, :func:`_credited_info`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .core_stats import BasisMode
from .search import bisect, golden_max

_BRACKET_TOL = -1e-15
_EDGE_TOL = 1e-12
_LAM_STEP = 1e-3  # spacing of max_stealth_info's lam grid
_GAMMA_POINTS = 101  # evenly spaced shutter settings of gamma_sweep, ends included
STEALTH_Z = 2.0  # the attack stays hidden while its alarm z is at most this


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


def _clean(mu: float, t_ab):
    """The clean link's Poisson terms at mean mu * t_ab, elementwise:
    (P(1)/mu, P(2)).  Rejects mu that is not finite and > 0, and t_ab
    outside [0, 1] or NaN."""
    if not 0 < mu < math.inf:
        raise ValueError(f"mu must be finite and > 0, got {mu}")
    bad = ~((0 <= np.asarray(t_ab)) & (np.asarray(t_ab) <= 1))
    if bad.any():
        raise ValueError(f"t_ab must be in [0, 1], got {np.asarray(t_ab)[bad][0]}")
    e = np.exp(-mu * t_ab)
    return t_ab * e, (mu * t_ab) ** 2 / 2.0 * e


def _feasible(gamma):
    """gamma clipped to [0, 1] where it lies within _EDGE_TOL of it; NaN
    further out, where no shutter setting will do."""
    inside = (gamma >= -_EDGE_TOL) & (gamma <= 1.0 + _EDGE_TOL)
    return np.where(inside, np.clip(gamma, 0.0, 1.0), np.nan)


def _matched(target, pass_f, e_blocked, e_pass):
    """The singles-matched shutter, the gamma at which the attacked singles
    level pass_f * bracket of :func:`_link` equals ``target`` (P(1)/mu of
    :func:`_clean`); NaN where none in [0, 1] does.  :func:`_link` takes it
    as ``partial(_matched, target)``."""
    return _feasible(1.0 + (target / pass_f - e_pass) / e_blocked)


def _singles(mu: float, lam, gamma, t_e):
    """The attacked singles level P'(1)/mu = pass_f * bracket, elementwise."""
    pass_f, _, _, bracket = _link(mu, lam, gamma, t_e)
    return pass_f * bracket


def _alarm(mu: float, t_ab, eta_b: float, n_pulses: float, mode: BasisMode, m, bracket):
    """Coincidences over n_pulses, elementwise: (attacked, clean, z), with P'(2)
    = m^2/2 * bracket from :func:`_link`.  z is attacked minus clean over
    sqrt(clean); 0 where they agree, also both at 0, +inf over a clean 0."""
    if not n_pulses > 0:
        raise ValueError(f"n_pulses must be > 0, got {n_pulses}")
    if not 0 < eta_b <= 1:
        raise ValueError(f"eta_b must be in (0, 1], got {eta_b}")
    attacked = n_pulses * mode.coincidence_prefactor * eta_b**2 * m * m / 2.0 * bracket
    clean = n_pulses * clean_coinc_ref(mu, t_ab, eta_b, mode)
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(attacked == clean, 0.0, (attacked - clean) / np.sqrt(clean))
    return attacked, clean, z


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
    return eta_b * mu * _clean(mu, t_ab)[0]


def clean_coinc_ref(
    mu: float, t_ab: float, eta_b: float, mode: BasisMode = BasisMode.ACTIVE
) -> float:
    """Clean-channel coincidences in the attacked expression's family:
    prefactor * eta_b^2 * P(2; mu * t_ab); elementwise."""
    return mode.coincidence_prefactor * eta_b**2 * _clean(mu, t_ab)[1]


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
    _, m, _, _ = _link(mu, attack.lam, attack.gamma, attack.t_e)
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

    form="exact" is the scalar view of :func:`_matched`, the shutter that
    :func:`max_stealth_info` uses; form="second_order" uses the polynomial
    forms, in which the full-blocking boundary sits exactly at
    t_ab = t_e mu / 4.  Infeasible configurations (gamma = 1 still
    undershoots, or gamma = 0 already overshoots) return None.
    """
    target = _clean(mu, t_ab)[0]  # also checks mu and t_ab
    BeamsplitAttack(lam=lam, gamma=1.0, t_e=t_e)  # validates lam and t_e
    if form not in ("exact", "second_order"):
        raise ValueError(f"form must be 'exact' or 'second_order', got {form!r}")
    if lam == 1.0:
        return None if t_ab > 0 else 0.0

    if form == "second_order":
        gamma = _feasible((t_ab / ((1.0 - lam) * t_e) - lam * mu) / (1.0 - lam * mu))
    else:
        gamma = _link(mu, lam, partial(_matched, target), t_e)[2]
    return None if np.isnan(gamma) else float(gamma)


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
        return self.z_score <= STEALTH_Z


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
    is considered hidden while the excess stays within ``STEALTH_Z`` sigma.
    """
    _, m, _, bracket = _link(mu, attack.lam, attack.gamma, attack.t_e)
    attacked, clean, z = _alarm(mu, t_ab, eta_b, n_pulses, mode, m, bracket)
    return AlarmStats(n_pulses=n_pulses, expected_coinc_clean=clean,
                      expected_coinc_attack=attacked, sigma=math.sqrt(clean), z_score=float(z))


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
    ``np.arange(0, lam_bsa, 0.001)``.  Its first information maximum among
    the stealthy points (gamma < 1, z <= STEALTH_Z) is bisected onto the z =
    STEALTH_Z contour toward its louder neighbor, and lam_bsa replaces it
    when that gives more.  With no stealthy grid point, lam_bsa (gamma = 1)
    is returned with ``constrained=False``; where even that is infeasible,
    the identity attack (lam = 0, gamma = 1).
    """
    t_ab, t_e = np.broadcast_arrays(np.asarray(t_ab, dtype=float), np.asarray(t_e, dtype=float))
    if not np.all(t_e <= 1):
        raise ValueError(f"t_e must be <= 1, got {t_e[~(t_e <= 1)][0]}")
    bad = t_e < t_ab
    if bad.any():
        raise ValueError(f"t_e must be >= t_ab, got t_e={t_e[bad][0]} < t_ab={t_ab[bad][0]}")
    if np.any(t_ab <= 0):
        raise ValueError(f"t_ab must be > 0, got {t_ab[t_ab <= 0][0]}")

    # One row per element; the lam grid runs along the columns.
    shape = t_ab.shape
    t_ab, t_e = t_ab.reshape(-1, 1), t_e.reshape(-1, 1)
    target = _clean(mu, t_ab)[0]

    def evaluate(lams: np.ndarray):
        """(gamma, info, z) at tap fractions lams, per row; NaN where infeasible."""
        _, m, gamma, bracket = _link(mu, lams, partial(_matched, target), t_e)
        z = _alarm(mu, t_ab, eta_b, n_pulses, mode, m, bracket)[2]
        return gamma, _credited_info(mu, lams, gamma), z

    def above(lam: np.ndarray) -> np.ndarray:
        return _singles(mu, lam, 1.0, t_e) > target

    with np.errstate(divide="ignore", invalid="ignore"):
        lo, hi = bisect(above, 0.0, np.where(above(0.0), 1.0, 0.0), 200)
        lam_bsa = 0.5 * (lo + hi)
        fb_gamma, fb_info, fb_z = evaluate(lam_bsa)

        n_lams = np.ceil(lam_bsa / _LAM_STEP)
        lams = np.arange(max(1, int(n_lams.max(initial=0.0)))) * _LAM_STEP
        gamma_g, info_g, z_g = evaluate(lams)
        stealthy = (np.arange(lams.size) < n_lams) & (z_g <= STEALTH_Z) & (gamma_g < 1.0)
        idx = np.argmax(np.where(stealthy, info_g, -np.inf), axis=1, keepdims=True)
        prev = np.maximum(idx - 1, 0)
        lam, gamma, info, z = (lams[idx], *(np.take_along_axis(v, idx, 1)
                                            for v in (gamma_g, info_g, z_g)))

        # Refine from the loud (z > STEALTH_Z or infeasible) neighbor below the best
        # grid point onto the contour, where the information is slightly higher.
        refine = (idx > 0) & (np.take_along_axis(z_g, prev, 1) > STEALTH_Z)
        _, hi = bisect(lambda x: ~(evaluate(x)[2] <= STEALTH_Z), lams[prev], lam, 60)
        r_gamma, r_info, r_z = evaluate(hi)
        take = refine & (r_z <= STEALTH_Z) & (r_info > info)
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
    target = _clean(mu, t_ab)[0]
    level = partial(_singles, mu, gamma=gamma, t_e=t_e)

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
    attacked, _, z = _alarm(mu, t_ab, eta_b, n_pulses, mode, m, bracket)
    info = _credited_info(mu, lam, gamma)
    return {"gamma": gamma, "expected_coincidences": attacked, "z_score": z, "info": info}
