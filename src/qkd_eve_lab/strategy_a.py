"""Intercept-resend attack that exploits multiphoton pulses.

The eavesdropper measures every pulse behind a passive basis splitter and
resends fresh states from a station next to the receiver.  Detections fall
into four classes ranked by information yield per created error; she fills
the receiver's expected count rate greedily from the best class downward.

The fill and its information credit are elementwise in the link
transmittance t_ab: one call on an array of transmittances solves every
distance of a sweep.  A ratio that is undefined because the mix creates no
errors is NaN.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .core_stats import SECOND_ORDER_MU_LIMIT, to_loss_db, transmission

# Error probability of the intermediate state resent for a two-photon
# detection seen in both bases: sin^2(pi/8).
INTERMEDIATE_STATE_QBER = math.sin(math.pi / 8.0) ** 2

CASE_LABELS = ("A", "B", "C", "D")

# Greedy consumption order, best information-per-error first.  D carries no
# information and is only ever a filler.
GREEDY_ORDER = ("B", "C", "A", "D")


@dataclass(frozen=True)
class InterceptCase:
    """One detection class: its conditional probability, the information the
    eavesdropper gains per resent bit, and the error she creates."""

    label: str
    p_cond: float
    info: float
    qber: float

    @property
    def ratio(self) -> float:
        """Information per created error; 0 for the information-free class."""
        if self.info == 0.0:
            return 0.0
        return self.info / self.qber


def case_table(mu: float) -> tuple[InterceptCase, ...]:
    """The four detection classes for mean photon number mu.

    Conditional on at least one detected photon:
      A  single photon                    p = 1 - mu/2   info 1/2  qber 1/4
      B  two photons, different bases     p = mu/4       info 1    qber sin^2(pi/8)
      C  two photons, same detector       p = 3mu/16     info 2/3  qber 1/6
      D  two photons, same wrong basis    p = mu/16      info 0    qber 1/2

    Valid to second order in mu; a warning is emitted above mu = 0.2, and
    mu >= 2, where class A's probability is no longer positive, is rejected.
    """
    if not 0 < mu < 2:
        raise ValueError(f"mu must be in (0, 2), got {mu}")
    if mu > SECOND_ORDER_MU_LIMIT:
        warnings.warn(
            f"case probabilities are second-order in mu; mu={mu} is outside "
            f"the advertised range (<= {SECOND_ORDER_MU_LIMIT})",
            stacklevel=2,
        )
    half = mu / 2.0
    return (
        InterceptCase("A", 1.0 - half, 0.5, 0.25),
        InterceptCase("B", 0.5 * half, 1.0, INTERMEDIATE_STATE_QBER),
        InterceptCase("C", 0.375 * half, 2.0 / 3.0, 1.0 / 6.0),
        InterceptCase("D", 0.125 * half, 0.0, 0.5),
    )


@dataclass
class CaseMix:
    """Allocation of resend events across detection classes.

    ``usage`` is the per-pulse rate at which each class is resent,
    ``supply`` the per-pulse rate at which it occurs.  When the total
    supply cannot cover the required rate the remainder ``blind`` is sent
    as fresh random states (information 0, error 1/2) and ``deficit`` is
    set.  ``supply`` holds a float per class; ``required_rate``, each
    ``usage`` entry, ``blind`` and ``deficit`` take the shape of ``t_ab``.
    """

    mu: float
    t_ab: float | np.ndarray
    required_rate: float | np.ndarray
    supply: dict[str, float]
    usage: dict[str, float | np.ndarray]
    blind: float | np.ndarray = 0.0
    deficit: bool | np.ndarray = False
    cases: tuple[InterceptCase, ...] = field(default_factory=tuple)

    @property
    def total_usage(self) -> float | np.ndarray:
        return sum(self.usage.values()) + self.blind

    def fraction(self, label: str) -> float | np.ndarray:
        """Share of resent events drawn from one class (or 'blind');
        elementwise, and 0 where nothing is resent."""
        total = self.total_usage
        used = self.blind if label == "blind" else self.usage[label]
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(total == 0.0, 0.0, np.divide(used, total))[()]


def allocate(mu: float, t_ab: float | np.ndarray) -> CaseMix:
    """Fill the receiver's expected photon-arrival rate mu * t_ab greedily;
    elementwise in ``t_ab``.

    Detector efficiency cancels: resent single photons face the same
    detectors as the original pulses, so matching the photon-arrival rate
    matches the click rate.  Supply per class is the exact detection
    probability (1 - e^-mu) times the conditional class probability.  Each
    class in ``GREEDY_ORDER`` takes what it can of the demand left; once a
    class covers it, the demand left is exactly 0 and later classes take 0.
    """
    t_ab = np.asarray(t_ab, dtype=float)[()]
    if not np.all((t_ab >= 0) & (t_ab <= 1)):
        raise ValueError(f"t_ab must be in [0, 1], got {t_ab}")
    cases = case_table(mu)
    required = mu * t_ab
    p_detect = -math.expm1(-mu)
    supply = {c.label: p_detect * c.p_cond for c in cases}

    usage = dict.fromkeys(CASE_LABELS)
    remaining = required
    for label in GREEDY_ORDER:
        usage[label] = np.minimum(remaining, supply[label])
        remaining = remaining - usage[label]

    return CaseMix(
        mu=mu,
        t_ab=t_ab,
        required_rate=required,
        supply=supply,
        usage=usage,
        blind=remaining,
        deficit=remaining > 0,
        cases=cases,
    )


def info_per_error(mix: CaseMix) -> float | np.ndarray:
    """Usage-weighted information divided by usage-weighted error;
    elementwise, and NaN where the mix creates no errors at all (an empty
    mix), where the ratio is undefined.
    """
    by_label = {c.label: c for c in (mix.cases or case_table(mix.mu))}
    info = sum(mix.usage[lb] * by_label[lb].info for lb in CASE_LABELS)
    qber = sum(mix.usage[lb] * by_label[lb].qber for lb in CASE_LABELS) + mix.blind * 0.5
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(qber == 0.0, np.nan, np.divide(info, qber))[()]


def attributed_info(mix: CaseMix, qber_eve: float | np.ndarray) -> float | np.ndarray:
    """Information credited to the eavesdropper for an attributed error
    budget; elementwise.

    She converts each tolerated error into information at the mix's
    information-per-error ratio; the result is clamped to one bit, and is 0
    where the ratio is undefined.  A negative or NaN budget is rejected.
    """
    if not np.all(np.greater_equal(qber_eve, 0)):
        raise ValueError(f"qber_eve must be >= 0, got {qber_eve}")
    # fmax takes 0 over the NaN of an undefined ratio
    return np.minimum(1.0, np.fmax(0.0, info_per_error(mix) * qber_eve))


def pure_b_crossover_km(mu: float, alpha_ab: float) -> float:
    """Distance beyond which class B alone covers the required rate.

    Solves (1 - e^-mu) * mu/4 = mu * t_ab for t_ab and converts to km.
    """
    if alpha_ab <= 0:
        raise ValueError(f"alpha_ab must be > 0, got {alpha_ab}")
    t_star = -math.expm1(-mu) / 4.0
    return to_loss_db(t_star) / alpha_ab


def regime_curve(mu: float, alpha_ab: float, distances: np.ndarray) -> dict[str, np.ndarray]:
    """The regime plot's columns at each distance, keyed by their CSV names:
    distance, information per error, the mix fractions and the deficit flag,
    from one allocation over the whole array."""
    d = np.asarray(distances, dtype=float)
    mix = allocate(mu, transmission(alpha_ab * d))
    return {
        "distance_km": d,
        "ratio": info_per_error(mix),
        **{f"frac_{label}": mix.fraction(label) for label in (*CASE_LABELS, "blind")},
        "deficit": mix.deficit.astype(float),
    }
