"""Analytic-versus-simulation oracle: its cases and its verdict.

``_CASES`` declares seven simulation configurations.  The suite runs the
pulse-level model on each and holds every tally to the analytic layer's
function for it, so a defect there fails the verdict:

- no eavesdropper: ``core_stats.p_single``, with dark counts as 1 - (1 -
  p_single)(1 - p_dark)^n, n = ``BasisMode.n_gated``; ``core_stats.p_coinc``;
  and half of ``p_single`` as the sifted fraction;
- strategy A: ``strategy_a.allocate``'s ``required_rate`` times eta_b, with
  ``INTERMEDIATE_STATE_QBER`` and 1 as the QBER and the eavesdropper's
  fraction in its pure class-B regime;
- strategy B: ``strategy_b.model_click_probs`` and ``sifted_info_model``;
- every other QBER: ``keyrate.qber_model``'s ``qber_mes``.

Optical error and dark counts are switched off except where they are the
quantity under test, so each check isolates one mechanism.

What decides the verdict, and so the exit code of ``verify``, is
``Report.family_pass``: Holm's step-down procedure over the exact binomial
p-values of all checks at family-wise level ``FAMILY_ALPHA`` = 2.7e-3, the
two-sided 3-sigma tail.  A correct model therefore fails a run with
probability at most 0.27%, whatever the dependence between checks, once
every check has trials: a tally with none gets p = 0, and at the 1e4-pulse
floor three checks can have none.  The worst check fails the family once
its p-value is below 2.7e-3 / 23, about |z| = 3.85.  Each check's own
|z| <= 3 verdict, ``Report.all_pass``, is still reported, for information
only: over 23 checks that rule alone would fail a correct model in about 6%
of runs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import core_stats, montecarlo
from .config import ConfigError, SystemConfig
from .core_stats import ChannelParams, DetectorParams, EveModel, SourceParams
from .keyrate import qber_model
from .montecarlo import SimConfig, SimResult
from .strategy_a import INTERMEDIATE_STATE_QBER, allocate
from .strategy_b import (
    BeamsplitAttack,
    model_click_probs,
    sifted_info_model,
    solve_gamma,
)


@dataclass(frozen=True)
class CheckResult:
    """One analytic-versus-simulation comparison: the tally, its exact
    two-sided binomial ``p_value``, which the family verdict reads, and the
    per-check |z| <= 3 rule ``passed``."""

    name: str
    quantity: str
    observed: int
    trials: int
    expected: float
    z: float
    p_value: float

    @property
    def passed(self) -> bool:
        return abs(self.z) <= 3.0

    @property
    def label(self) -> str:
        return f"{self.name}/{self.quantity}"

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        est = self.observed / self.trials if self.trials else 0.0
        return (
            f"{status} {self.label}: observed {est:.6e} "
            f"({self.observed}/{self.trials}), expected {self.expected:.6e}, "
            f"z={self.z:+.2f}, p={self.p_value:.2e}"
        )


@dataclass
class Report:
    """Machine-readable outcome of a batch of oracle comparisons: the
    verdict ``family_pass`` and the per-check rule ``all_pass``, as the
    module docstring explains."""

    checks: list[CheckResult] = field(default_factory=list)

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def holm_rejected(self) -> list[CheckResult]:
        """Checks Holm's procedure rejects at ``FAMILY_ALPHA``, in report order."""
        rejected = holm_rejections([c.p_value for c in self.checks], FAMILY_ALPHA)
        return [self.checks[i] for i in rejected]

    @property
    def family_pass(self) -> bool:
        return not self.holm_rejected

    def lines(self) -> list[str]:
        out = [c.line() for c in self.checks]
        n_fail = sum(not c.passed for c in self.checks)
        out.append(
            f"{'PASS' if n_fail == 0 else 'FAIL'}: "
            f"{len(self.checks) - n_fail}/{len(self.checks)} checks within 3 sigma"
        )
        rejected = self.holm_rejected
        names = ", ".join(c.label for c in rejected) if rejected else "none"
        out.append(
            f"{'PASS' if not rejected else 'FAIL'}: family verdict, Holm at "
            f"alpha={FAMILY_ALPHA:g} over {len(self.checks)} exact binomial "
            f"p-values rejects {names}"
        )
        return out

    def csv_lines(self) -> list[str]:
        """One row per check; ``expected_count`` is ``expected`` times
        ``trials``, the tally a check expects."""
        lines = ["check,quantity,observed,trials,expected,z,passed,p_value,expected_count"]
        for c in self.checks:
            lines.append(
                f"{c.name},{c.quantity},{c.observed},{c.trials},"
                f"{c.expected!r},{c.z!r},{int(c.passed)},{c.p_value!r},"
                f"{c.expected * c.trials!r}"
            )
        return lines


def _z_score(observed: int, trials: int, expected: float) -> float:
    if trials == 0:
        return math.inf
    if expected <= 0.0 or expected >= 1.0:
        return 0.0 if observed / trials == expected else math.inf
    sigma = math.sqrt(expected * (1.0 - expected) * trials)
    return (observed - trials * expected) / sigma


# Family-wise false-alarm level of the oracle verdict: the two-sided 3-sigma
# tail, which one check alone used to carry, now held by the whole family.
FAMILY_ALPHA = 2.7e-3

_LN_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_TAIL_CHUNK = 4096


def _stirlerr(n: int) -> float:
    """log(n!) - log(sqrt(2 pi n) (n/e)^n), the remainder of Stirling's series."""
    if n <= 15:
        return math.lgamma(n + 1.0) - (n + 0.5) * math.log(n) + n - _LN_SQRT_2PI
    nn = float(n) * n
    return (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / (1188 * nn)) / nn) / nn) / nn) / n


def _bd0(x: float, m: float) -> float:
    """x log(x/m) + m - x without cancellation when x is close to m."""
    if abs(x - m) >= 0.1 * (x + m):
        return x * math.log(x / m) + m - x
    v = (x - m) / (x + m)
    s = (x - m) * v
    term = 2.0 * x * v
    j = 1
    while True:
        term *= v * v
        s_next = s + term / (2 * j + 1)
        if s_next == s:
            return s
        s = s_next
        j += 1


def _binomial_log_pmf(k: int, n: int, p: float) -> float:
    """log P(X = k) for X ~ Binomial(n, p), 0 < p < 1, accurate to ~1e-14
    relative at any n (Loader's saddle-point form, as used by R's dbinom)."""
    if k == 0:
        return n * math.log1p(-p)
    if k == n:
        return n * math.log(p)
    lc = (_stirlerr(n) - _stirlerr(k) - _stirlerr(n - k)
          - _bd0(k, n * p) - _bd0(n - k, n * (1.0 - p)))
    return lc - _LN_SQRT_2PI - 0.5 * (math.log(k) + math.log1p(-k / n))


def _binomial_tail(k: int, n: int, p: float, upper: bool) -> float:
    """P(X >= k) if ``upper`` else P(X <= k), for a ``k`` on the far side of
    the mean, where the terms fall monotonically away from ``k``.

    The terms are summed relative to P(X = k) through the ratio of
    neighbouring terms, one chunk at a time, until the next is below e^-40
    of the sum.
    """
    log_odds = math.log(p) - math.log1p(-p)
    total = 1.0
    log_term = 0.0
    j = k
    while True:
        if upper:  # P(j + 1) / P(j) = (n - j) / (j + 1) * p / q
            js = np.arange(j, min(j + _TAIL_CHUNK, n), dtype=np.float64)
            log_ratio = np.log((n - js) / (js + 1.0)) + log_odds
        else:  # P(j - 1) / P(j) = j / (n - j + 1) * q / p
            js = np.arange(j, max(j - _TAIL_CHUNK, 0), -1, dtype=np.float64)
            log_ratio = np.log(js / (n - js + 1.0)) - log_odds
        if js.size == 0:
            break
        logs = log_term + np.cumsum(log_ratio)
        total += float(np.exp(logs).sum())
        log_term = float(logs[-1])
        j += js.size if upper else -js.size
        if log_term < math.log(total) - 40.0:
            break
    return math.exp(_binomial_log_pmf(k, n, p) + math.log(total))


def binomial_p_value(observed: int, trials: int, expected: float) -> float:
    """Exact two-sided binomial p-value: the smaller tail at ``observed``,
    doubled and capped at 1.

    With ``expected`` at 0 or 1 the outcome is certain, so the p-value is 1
    if the tally matches and 0 otherwise; a tally with no trials gets 0.
    An ``expected`` outside [0, 1], NaN included, raises ValueError.
    """
    if not 0.0 <= expected <= 1.0:
        raise ValueError(f"expected must be a probability in [0, 1], got {expected!r}")
    if trials == 0:
        return 0.0
    if expected in (0.0, 1.0):
        return 1.0 if observed == trials * expected else 0.0
    # The binomial median lies within 1 of the mean, so the tail on the far
    # side of the mean is the smaller one whenever it is below 1/2, and the
    # other is at least 1/2 otherwise.
    upper = observed >= trials * expected
    return min(1.0, 2.0 * _binomial_tail(observed, trials, expected, upper))


def holm_rejections(p_values: list[float], alpha: float) -> list[int]:
    """Indices that Holm's step-down procedure rejects at family-wise level
    ``alpha`` (Holm, Scand. J. Stat. 6, 65, 1979), in ascending order.

    The i-th smallest p-value (from 0) is rejected while it is at most
    alpha / (m - i); the first that is not stops the procedure.  The
    family-wise error rate is at most ``alpha`` under any dependence.
    """
    order = sorted(range(len(p_values)), key=p_values.__getitem__)
    m = len(order)
    rejected = []
    for rank, i in enumerate(order):
        if p_values[i] > alpha / (m - rank):
            break
        rejected.append(i)
    return sorted(rejected)


# The ``SimResult`` tally behind each checked quantity.
_QUANTITIES = {
    "p_single": "singles",
    "p_coinc": "coincidences",
    "sifted_fraction": "sifted",
    "qber": "errors",
    "eve_fraction": "eve_known",
}


def compare(name: str, sim: SimResult, expectations: dict[str, float]) -> Report:
    """z-score and exact-binomial p-value of each expected quantity against
    the simulated tallies."""
    report = Report()
    for quantity, expected in expectations.items():
        try:
            observed, trials = sim.counts(_QUANTITIES[quantity])
        except KeyError:
            raise ValueError(
                f"unknown quantity {quantity!r}; valid: {sorted(_QUANTITIES)}"
            ) from None
        report.checks.append(CheckResult(
            name, quantity, observed, trials, expected,
            _z_score(observed, trials, expected),
            binomial_p_value(observed, trials, expected),
        ))
    return report


@dataclass(frozen=True)
class OracleCase:
    """One simulation run and the closed forms its tallies are held to."""

    name: str
    sim: SimConfig
    expected: dict[str, float]


def _stealthy(lam: float, t_e: float, system: SystemConfig, distance: float) -> BeamsplitAttack:
    """A beamsplitter attack whose shutter keeps Bob's singles at the clean rate."""
    gamma = solve_gamma(system.source.mu, system.t_ab(distance), lam, t_e)
    return BeamsplitAttack(lam=lam, gamma=gamma, t_e=t_e)


# Every oracle case, in report order, at mu = 0.1 over 0.25 dB/km fiber: name,
# distance in km, eta_b, p_dark, qber_opt, eavesdropper, the builder of its
# beamsplitter attack from the link and the distance, and the checked quantities.
_CASES = (
    ("clean_60km", 60.0, 0.1, 0.0, 0.005, EveModel.NONE, None,
     ("p_single", "p_coinc", "sifted_fraction", "qber")),
    ("zero_length_perfect_detector", 0.0, 1.0, 0.0, 0.0, EveModel.NONE, None,
     ("p_single", "sifted_fraction", "qber")),
    ("dark_counts_60km", 60.0, 0.1, 1e-6, 0.0, EveModel.NONE, None, ("p_single", "qber")),
    # 80 km sits well inside the pure class-B regime (threshold ~65 km).
    ("strategy_a_pure_b_80km", 80.0, 0.1, 0.0, 0.0, EveModel.STRATEGY_A, None,
     ("p_single", "qber", "eve_fraction")),
    # Pure beam splitting: statistics identical to the clean channel.
    ("strategy_b_pure_bsa_60km", 60.0, 0.1, 0.0, 0.005, EveModel.STRATEGY_B,
     lambda system, d: BeamsplitAttack(lam=0.5, gamma=1.0, t_e=2.0 * system.t_ab(d)),
     ("p_single", "p_coinc", "qber", "eve_fraction")),
    # Mild shutter at 20 km over the straight-line replacement link (2 dB gain).
    ("strategy_b_shutter_20km", 20.0, 0.1, 0.0, 0.005, EveModel.STRATEGY_B,
     lambda system, d: _stealthy(0.2, system.eve_t_e(d), system, d),
     ("p_single", "p_coinc", "qber", "eve_fraction")),
    # Aggressive blocking at 80 km over a lossy-but-better replacement link.
    ("strategy_b_blocking_80km", 80.0, 0.1, 0.0, 0.0, EveModel.STRATEGY_B,
     lambda system, d: _stealthy(0.8, 0.5, system, d),
     ("p_single", "qber", "eve_fraction")),
)


def _expectations(sim: SimConfig, quantities: tuple[str, ...]) -> dict[str, float]:
    """Each checked quantity of ``sim`` from the analytic layer, as the module
    docstring lists; a quantity the case does not check is not computed."""
    system, d = sim.system, sim.distance
    src, det, t_ab = system.source, system.detector, system.t_ab(d)
    mu, attack = src.mu, sim.attack

    def singles():
        ps = core_stats.p_single(src, t_ab, det)
        if det.p_dark == 0.0:  # exact, where 1 - (1 - ps) would round
            return ps
        return 1.0 - (1.0 - ps) * (1.0 - det.p_dark) ** system.basis_mode.n_gated

    def qber():
        return qber_model(d, system).qber_mes

    forms = {
        EveModel.NONE: {
            "p_single": singles,
            "p_coinc": lambda: core_stats.p_coinc(src, t_ab, det),
            "sifted_fraction": lambda: core_stats.p_single(src, t_ab, det) / 2.0,
            "qber": qber,
        },
        EveModel.STRATEGY_A: {
            "p_single": lambda: allocate(mu, t_ab).required_rate * det.eta_b,
            "qber": lambda: INTERMEDIATE_STATE_QBER,
            "eve_fraction": lambda: 1.0,
        },
        EveModel.STRATEGY_B: {
            "p_single": lambda: model_click_probs(attack, mu, det.eta_b)[0],
            "p_coinc": lambda: model_click_probs(attack, mu, det.eta_b)[1],
            "qber": qber,
            "eve_fraction": lambda: sifted_info_model(attack, mu),
        },
    }[sim.eve_model]
    return {q: float(forms[q]()) for q in quantities}


def oracle_cases(
    n_pulses: int = 10**8,
    seed: int = 42,
    workers: int = 1,
    batch_size: int = 2**20,
) -> list[OracleCase]:
    """Every oracle case, in report order, without running anything: case
    i simulates ``n_pulses`` pulses at seed ``seed + i``."""
    if n_pulses < 10**4:
        raise ConfigError(f"sim.pulses: the oracle suite needs at least 1e4 pulses, "
                          f"got {n_pulses}")
    if seed + len(_CASES) > 2**128:
        raise ConfigError(f"sim.seed: the oracle's {len(_CASES)} cases use seeds seed.."
                          f"seed + {len(_CASES) - 1}, all below 2**128, got {seed}")
    cases = []
    for i, (name, d, eta_b, p_dark, qber_opt, eve, attack, quantities) in enumerate(_CASES):
        system = SystemConfig(
            source=SourceParams(mu=0.1),
            channel=ChannelParams(alpha_ab=0.25, length_ab=d),
            detector=DetectorParams(eta_b=eta_b, p_dark=p_dark),
            qber_opt=qber_opt,
        )
        sim = SimConfig(system=system, eve_model=eve,
                        attack=attack(system, d) if attack else None, distance_km=d,
                        n_pulses=n_pulses, seed=seed + i, workers=workers,
                        batch_size=batch_size)
        cases.append(OracleCase(name, sim, _expectations(sim, quantities)))
    return cases


def oracle_suite(
    n_pulses: int = 10**8,
    seed: int = 42,
    workers: int = 1,
    batch_size: int = 2**20,
) -> Report:
    """Run every oracle case and merge the comparisons into one report.

    Reads ``montecarlo.simulate`` at each call rather than binding it at
    import, so a wrapper set on it later, such as perfbench's tracer, is
    called no matter when this module was first imported."""
    merged = Report()
    for case in oracle_cases(n_pulses, seed, workers, batch_size):
        sim = montecarlo.simulate(case.sim)
        merged.checks.extend(compare(case.name, sim, case.expected).checks)
    return merged
