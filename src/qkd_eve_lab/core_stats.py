"""Photon statistics, fiber transmission, and Bob's detection probabilities.

Everything here is a pure function of its inputs.  Exact exponential forms
are the canonical outputs; the low-order polynomial approximations that are
convenient for quick estimates are exposed alongside them, clearly labeled,
because several downstream thresholds are traditionally quoted in terms of
the approximate forms.
"""
from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass

import numpy as np

# Above this mean photon number the second-order expansions drift beyond
# ~20% and are flagged with a warning rather than an error.
SECOND_ORDER_MU_LIMIT = 0.2


class BasisMode(enum.Enum):
    """How Bob chooses his measurement basis.

    ACTIVE gates 2 detectors per pulse and carries the 1/4 coincidence
    prefactor; PASSIVE gates 4 and carries 5/8.
    """

    ACTIVE = "active"
    PASSIVE = "passive"

    @property
    def coincidence_prefactor(self) -> float:
        return 0.25 if self is BasisMode.ACTIVE else 0.625

    @property
    def n_gated(self) -> int:
        return 2 if self is BasisMode.ACTIVE else 4


class EveModel(enum.Enum):
    """Which eavesdropper the privacy amplification has to assume."""

    NONE = "none"
    STRATEGY_A = "strategy-a"
    STRATEGY_B = "strategy-b"
    STRATEGY_B_STORAGE = "strategy-b-storage"
    UNLIMITED = "unlimited"


@dataclass(frozen=True)
class SourceParams:
    """Faint-laser source: mean photon number per pulse and pulse rate.

    Attributes
    ----------
    mu : float or ndarray
        Mean photon number per pulse (> 0).  Second-order formulas are
        only advertised for mu <= 0.2.  An array of mu makes
        :func:`p_single` elementwise in mu.
    nu : float
        Pulse repetition frequency in Hz (> 0).  Only absolute rates
        depend on it; all probabilities are per pulse.
    """

    mu: float = 0.1
    nu: float = 1.0e6

    def __post_init__(self) -> None:
        if not np.all(np.greater(self.mu, 0)):
            raise ValueError(f"mu must be > 0, got {self.mu}")
        if not self.nu > 0:
            raise ValueError(f"nu must be > 0, got {self.nu}")


@dataclass(frozen=True)
class ChannelParams:
    """Installed fiber and the best replacement link the eavesdropper owns.

    Attributes
    ----------
    alpha_ab : float
        Attenuation of the installed fiber, dB/km.
    length_ab : float
        Installed fiber length, km.
    alpha_e : float
        Attenuation of the eavesdropper's best fiber, dB/km.  Must not
        exceed alpha_ab, otherwise replacing the line is a loss.
    bee_line_d : float or None
        Straight-line distance between the endpoints, km.  Defaults to
        length_ab (installed fiber already straight).
    """

    alpha_ab: float = 0.25
    length_ab: float = 60.0
    alpha_e: float = 0.15
    bee_line_d: float | None = None

    def __post_init__(self) -> None:
        if not self.alpha_ab >= 0:
            raise ValueError(f"alpha_ab must be >= 0, got {self.alpha_ab}")
        if not self.length_ab >= 0:
            raise ValueError(f"length_ab must be >= 0, got {self.length_ab}")
        if not self.alpha_e >= 0:
            raise ValueError(f"alpha_e must be >= 0, got {self.alpha_e}")
        if not self.alpha_e <= self.alpha_ab:
            raise ValueError(
                "alpha_e must not exceed alpha_ab "
                f"(got {self.alpha_e} > {self.alpha_ab})"
            )
        if self.bee_line_d is not None and not self.bee_line_d <= self.length_ab:
            raise ValueError(
                "bee_line_d cannot exceed the installed fiber length "
                f"(got {self.bee_line_d} > {self.length_ab})"
            )

    @property
    def loss_ab_db(self) -> float:
        """Total loss of the installed link in dB."""
        return self.alpha_ab * self.length_ab


@dataclass(frozen=True)
class DetectorParams:
    """Bob's gated single-photon counters; ``BasisMode.n_gated`` says how many."""

    eta_b: float = 0.10
    p_dark: float = 1.0e-6

    def __post_init__(self) -> None:
        if not 0 < self.eta_b <= 1:
            raise ValueError(f"eta_b must be in (0, 1], got {self.eta_b}")
        if not 0 <= self.p_dark <= 1:
            raise ValueError(f"p_dark must be in [0, 1], got {self.p_dark}")


def poisson_pmf(n: int, mu: float) -> float:
    """Probability of finding n photons in a pulse of mean photon number mu.

    Evaluated in log space so large n does not overflow the factorial.
    """
    if mu <= 0:
        raise ValueError(f"mu must be > 0, got {mu}")
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    return math.exp(n * math.log(mu) - mu - math.lgamma(n + 1))


def multi_photon_fraction(mu: float, mode: str = "exact") -> float:
    """Fraction of non-empty pulses that contain more than one photon.

    mode="exact" evaluates (1 - P(0) - P(1)) / (1 - P(0));
    mode="second_order" returns the expansion mu/2 + mu^2/4.
    """
    if mu <= 0:
        raise ValueError(f"mu must be > 0, got {mu}")
    if mode == "second_order":
        if mu > SECOND_ORDER_MU_LIMIT:
            warnings.warn(
                f"second-order multiphoton fraction requested at mu={mu}; "
                f"only advertised for mu <= {SECOND_ORDER_MU_LIMIT}",
                stacklevel=2,
            )
        return mu / 2 + mu * mu / 4
    if mode != "exact":
        raise ValueError(f"mode must be 'exact' or 'second_order', got {mode!r}")
    p0 = math.exp(-mu)
    p1 = mu * p0
    return (1.0 - p0 - p1) / (1.0 - p0)


def transmission(loss_db: float | np.ndarray) -> float | np.ndarray:
    """Transmittance of a link with the given total loss in dB; elementwise.
    A negative or NaN loss raises ValueError."""
    if not np.all(np.greater_equal(loss_db, 0)):
        raise ValueError(f"loss_db must be >= 0, got {loss_db}")
    return 10.0 ** (-loss_db / 10.0)


def to_loss_db(transmittance: float) -> float:
    """Inverse of :func:`transmission`."""
    if not 0 < transmittance <= 1:
        raise ValueError(f"transmittance must be in (0, 1], got {transmittance}")
    return -10.0 * math.log10(transmittance)


def eve_gain_db(channel: ChannelParams, monitor_tof: bool = False) -> float:
    """Eavesdropper's maximum transmission gain in dB.

    She replaces the installed link with her own fiber on the straight
    line.  If the photons' time of flight is monitored she cannot shorten
    the path and only profits from the lower attenuation per km.
    """
    if monitor_tof:
        return (channel.alpha_ab - channel.alpha_e) * channel.length_ab
    d = channel.bee_line_d if channel.bee_line_d is not None else channel.length_ab
    return channel.loss_ab_db - channel.alpha_e * d


def p_single(src: SourceParams, t: float, det: DetectorParams) -> float:
    """Probability of at least one click at Bob per pulse (dark counts excluded).

    Exact form 1 - exp(-mu * t * eta_b), elementwise in ``t`` and ``src.mu``.
    The linearized form is available as :func:`p_single_linear`.
    """
    _check_t(t)
    return -np.expm1(-src.mu * t * det.eta_b)


def p_single_linear(src: SourceParams, t: float, det: DetectorParams) -> float:
    """First-order approximation mu * t * eta_b of :func:`p_single`."""
    _check_t(t)
    return src.mu * t * det.eta_b


def p_coinc(
    src: SourceParams,
    t: float,
    det: DetectorParams,
    mode: BasisMode = BasisMode.ACTIVE,
    form: str = "exact",
) -> float:
    """Probability of a click in both detectors of a wrong-basis pulse;
    elementwise in ``t``.

    With active basis choice the exact form is (1/2)[1 - exp(-(mu/2) t eta)]^2,
    the quadratic form (1/8) mu^2 t^2 eta^2.  With passive choice only the
    quadratic form is defined; its prefactor is 5/8 instead of 1/4 applied
    to P(2) ~ mu^2/2, i.e. (5/16) mu^2 t^2 eta^2.
    """
    _check_t(t)
    if form not in ("exact", "approx"):
        raise ValueError(f"form must be 'exact' or 'approx', got {form!r}")
    if mode is BasisMode.PASSIVE:
        return 0.625 * (src.mu**2 / 2.0) * t * t * det.eta_b**2
    if form == "exact":
        return 0.5 * np.expm1(-(src.mu / 2.0) * t * det.eta_b) ** 2
    return 0.25 * (src.mu**2 / 2.0) * t * t * det.eta_b**2


@dataclass(frozen=True)
class Rates:
    """Raw and sifted bit rates in Hz."""

    raw_hz: float
    sifted_hz: float


def rates(src: SourceParams, t: float, det: DetectorParams) -> Rates:
    """Raw rate nu * p_single and the sifted rate after basis reconciliation."""
    ps = p_single(src, t, det)
    return Rates(raw_hz=src.nu * ps, sifted_hz=src.nu * ps / 2.0)


def _check_t(t: float | np.ndarray) -> None:
    if not np.all(np.greater_equal(t, 0) & np.less_equal(t, 1)):
        raise ValueError(f"transmittance must be in [0, 1], got {t}")
