"""Unit tests for the QBER budget, net rate, and distance solvers."""
import decimal
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkd_eve_lab.config import SystemConfig, load_settings
from qkd_eve_lab.core_stats import BasisMode, ChannelParams, DetectorParams, SourceParams
from qkd_eve_lab.keyrate import (
    EveModel,
    binary_entropy,
    curve,
    eve_information,
    luetkenhaus_rate,
    max_distance,
    net_rate,
    qber_model,
    unlimited_info,
)
from qkd_eve_lab.search import bisect, distance_grid


def make_cfg(mu=0.1, p_dark=1e-6, qber_opt=0.005, f_ec=1.0, alpha_e=0.15,
             n_pulses=10**10) -> SystemConfig:
    return SystemConfig(
        source=SourceParams(mu=mu),
        channel=ChannelParams(alpha_ab=0.25, length_ab=60.0, alpha_e=alpha_e),
        detector=DetectorParams(eta_b=0.1, p_dark=p_dark),
        qber_opt=qber_opt,
        f_ec=f_ec,
        n_pulses=n_pulses,
    )


class TestBinaryEntropy:
    def test_anchors(self):
        assert binary_entropy(0.5) == 1.0
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_frozen_value(self):
        # direct evaluation; symmetry h(0.11) = h(0.89) cross-checks it
        assert binary_entropy(0.11) == pytest.approx(0.4999161, abs=5e-7)
        assert binary_entropy(0.11) == pytest.approx(binary_entropy(0.89), rel=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            binary_entropy(-0.01)
        with pytest.raises(ValueError):
            binary_entropy(1.01)

    @given(st.floats(min_value=1e-9, max_value=0.5))
    @settings(max_examples=200, deadline=None)
    def test_symmetric_and_bounded(self, x):
        h = binary_entropy(x)
        assert 0.0 <= h <= 1.0
        assert h == pytest.approx(binary_entropy(1 - x), rel=1e-9)


class TestQberModel:
    def test_60km_dark_count_share(self):
        budget = qber_model(60.0, make_cfg())
        assert budget.qber_det == pytest.approx(3.1429e-3, rel=1e-4)
        assert budget.qber_mes == pytest.approx(0.005 + budget.qber_det, rel=1e-12)

    def test_no_dark_counts(self):
        budget = qber_model(0.0, make_cfg(p_dark=0.0))
        assert budget.qber_det == 0.0
        assert budget.qber_mes == 0.005

    def test_noise_dominated_limit(self):
        budget = qber_model(500.0, make_cfg())
        assert budget.qber_det > 0.49
        assert budget.qber_mes <= 0.5

    def test_attribution_floor(self):
        budget = qber_model(60.0, make_cfg())
        # excess over the dark share is qber_opt = 0.5%; the floor lifts the
        # attributed budget to 1%
        assert budget.qber_attrib == pytest.approx(0.01, rel=1e-12)

    def test_attribution_above_floor(self):
        budget = qber_model(60.0, make_cfg(qber_opt=0.03))
        assert budget.qber_attrib == pytest.approx(0.03, rel=1e-12)

    def test_passive_link_gates_four_detectors_however_built(self):
        """The basis mode alone sets how many detectors add dark counts: a
        passive link built directly and one loaded from the config keys have
        one dark-count share, 2 p_dark / (p_single + 4 p_dark), and one cutoff."""
        direct = SystemConfig(basis_mode=BasisMode.PASSIVE)
        loaded = load_settings(overrides=["protocol.basis_mode=passive"]).system()
        ps = -math.expm1(-0.1 * 10**-2.5 * 0.1)  # mu t_ab eta_b at 100 km
        assert qber_model(100.0, direct).qber_det == pytest.approx(2e-6 / (ps + 4e-6), rel=1e-12)
        assert qber_model(100.0, direct).qber_det == qber_model(100.0, loaded).qber_det
        assert max_distance(EveModel.NONE, direct) == max_distance(EveModel.NONE, loaded)


class TestNetRate:
    def test_no_eavesdropper_positive_and_decreasing(self):
        cfg = make_cfg()
        rates = [net_rate(d, EveModel.NONE, cfg).r_net_normalized
                 for d in (0, 20, 40, 60, 80)]
        assert all(r > 0 for r in rates)
        assert all(b < a for a, b in zip(rates, rates[1:]))

    def test_strategy_a_costs_pure_b_fraction(self):
        # deep in the class-B regime the secret fraction drops by exactly
        # the attributed-information share
        cfg = make_cfg()
        point_none = net_rate(80.0, EveModel.NONE, cfg)
        point_a = net_rate(80.0, EveModel.STRATEGY_A, cfg)
        lost = (point_none.r_net_normalized - point_a.r_net_normalized)
        lost /= point_none.r_net_normalized
        secret_none = 1 - binary_entropy(point_none.qber.qber_mes)
        assert point_a.i_eve == pytest.approx(0.0682843, abs=1e-6)
        assert lost == pytest.approx(point_a.i_eve / secret_none, rel=1e-9)

    def test_cutoff_clamps_to_zero(self):
        cfg = make_cfg()
        assert net_rate(400.0, EveModel.NONE, cfg).r_net_normalized == 0.0

    def test_zero_exactly_at_long_distance_strategy_a(self):
        cfg = make_cfg()
        assert net_rate(400.0, EveModel.STRATEGY_A, cfg).r_net_normalized == 0.0

    def test_ordering_invariants(self):
        cfg = make_cfg()
        for d in (10.0, 40.0, 70.0, 100.0):
            r_none = net_rate(d, EveModel.NONE, cfg).r_net_normalized
            r_a = net_rate(d, EveModel.STRATEGY_A, cfg).r_net_normalized
            r_b = net_rate(d, EveModel.STRATEGY_B, cfg).r_net_normalized
            r_bs = net_rate(d, EveModel.STRATEGY_B_STORAGE, cfg).r_net_normalized
            assert r_none >= r_a >= 0.0
            assert r_none >= r_bs
            assert r_b >= r_bs

    def test_strategy_b_never_below_half_information_bound(self):
        cfg = make_cfg()
        for d in (20.0, 60.0, 100.0):
            point = net_rate(d, EveModel.STRATEGY_B, cfg)
            assert point.i_eve <= 0.5 + 1e-12
            ps2 = point.r_net_normalized / max(
                1e-300,
                1 - cfg.f_ec * binary_entropy(point.qber.qber_mes) - point.i_eve,
            )
            floor = ps2 * max(
                0.0, 1 - cfg.f_ec * binary_entropy(point.qber.qber_mes) - 0.5
            )
            assert point.r_net_normalized >= floor - 1e-15

    def test_monitoring_coincidences_helps(self):
        # the stealth-constrained information never exceeds the best the
        # attack could do if nobody watched the coincidence rate
        cfg_watched = make_cfg()
        cfg_blind = make_cfg(n_pulses=1)  # one pulse: the alarm has no power
        for d in (40.0, 80.0, 120.0):
            watched = net_rate(d, EveModel.STRATEGY_B, cfg_watched)
            blind = net_rate(d, EveModel.STRATEGY_B, cfg_blind)
            assert watched.i_eve <= blind.i_eve + 1e-12
            assert watched.r_net_normalized >= blind.r_net_normalized - 1e-15


class TestLuetkenhaus:
    def test_information_saturates_at_half_mu_over_clicks(self):
        cfg = make_cfg()
        # second-order form: P(n>=2) ~ mu^2/2 equals mu t eta at t eta = mu/2
        mu = 0.1
        t = mu / 2 / cfg.detector.eta_b  # t eta = mu / 2
        d = -10 * math.log10(t) / cfg.channel.alpha_ab
        assert (mu**2 / 2) / (mu * t * cfg.detector.eta_b) == pytest.approx(1.0)
        # exact Poisson numerator is a shade below one
        assert unlimited_info(mu, d, cfg) == pytest.approx(0.9358, abs=1e-3)

    def test_multiphoton_probability_keeps_its_digits_at_small_mu(self):
        # mu = 5.3756e-5 is the optimum at 130 km without dark counts, where
        # 1 - e^-mu (1 + mu) loses about seven digits to cancellation.
        mu, d, cfg = 5.3756e-5, 100.0, make_cfg()
        with decimal.localcontext() as ctx:
            ctx.prec = 50
            m = decimal.Decimal(mu)
            p_multi = float(1 - (-m).exp() * (1 + m))
        clicks = mu * cfg.t_ab(d) * cfg.detector.eta_b
        assert unlimited_info(mu, d, cfg) == pytest.approx(p_multi / clicks, rel=1e-12)

    def test_mu_opt_strictly_decreasing_with_distance(self):
        cfg = make_cfg()
        mus = [luetkenhaus_rate(d, cfg)[0] for d in (10, 30, 50, 70)]
        assert all(b < a for a, b in zip(mus, mus[1:]))

    def test_first_order_stationarity(self):
        cfg = make_cfg()
        mu_opt, r_opt = luetkenhaus_rate(40.0, cfg)

        def r(mu):
            cm = cfg.with_mu(mu)
            from qkd_eve_lab.core_stats import p_single

            budget = qber_model(40.0, cm)
            i = unlimited_info(mu, 40.0, cfg)
            sf = max(0.0, 1 - binary_entropy(budget.qber_mes) - i)
            return p_single(cm.source, cfg.t_ab(40.0), cfg.detector) / 2 * sf

        h = 1e-4 * mu_opt
        derivative = (r(mu_opt + h) - r(mu_opt - h)) / (2 * h)
        # scale: relative slope per relative mu step
        assert abs(derivative * mu_opt / r_opt) < 1e-2

    @pytest.mark.parametrize("kwargs", [{}, {"p_dark": 0.0}, {"mu": 0.5, "qber_opt": 0.02}])
    def test_array_call_equals_per_distance_calls(self, kwargs):
        cfg = make_cfg(**kwargs)
        distances = np.arange(0.0, 150.0, 2.5)
        mu_opt, rate = luetkenhaus_rate(distances, cfg)
        for i, d in enumerate(distances.tolist()):
            mu_one, rate_one = luetkenhaus_rate(d, cfg)
            assert isinstance(mu_one, float) and isinstance(rate_one, float)
            assert mu_opt[i] == mu_one
            assert rate[i] == pytest.approx(rate_one, rel=1e-14, abs=0.0)

    def test_rejects_negative_distance(self):
        with pytest.raises(ValueError):
            luetkenhaus_rate(-1.0, make_cfg())
        with pytest.raises(ValueError, match=r"got -2\.0$"):
            luetkenhaus_rate(np.array([10.0, -2.0, -3.0]), make_cfg())

    def test_drops_below_realistic_curves_before_their_cutoffs(self):
        cfg = make_cfg()
        for d in (10.0, 30.0, 60.0, 90.0):
            _, r_unl = luetkenhaus_rate(d, cfg)
            assert r_unl < net_rate(d, EveModel.STRATEGY_A, cfg).r_net_normalized
            assert r_unl < net_rate(d, EveModel.STRATEGY_B, cfg).r_net_normalized


def scan_max_distance(eve, cfg, d_limit=500.0):
    """Reference cutoff by a scalar 1 km scan: the last positive grid point,
    the first zero after it, then five halvings of that bracket."""

    def positive(d):
        return net_rate(d, eve, cfg).r_net_normalized > 0.0

    last_positive = first_zero = None
    for d in distance_grid(0.0, d_limit, 1.0):
        if positive(d):
            last_positive, first_zero = d, None
        elif last_positive is not None and first_zero is None:
            first_zero = d
    if last_positive is None:
        return 0.0
    if first_zero is None:
        return math.inf
    lo, hi = bisect(positive, last_positive, first_zero, 5)
    return 0.5 * (lo + hi)


class TestMaxDistance:
    @pytest.mark.parametrize("eve", [EveModel.NONE, EveModel.STRATEGY_A, EveModel.UNLIMITED])
    @pytest.mark.parametrize("kwargs", [{}, {"p_dark": 0.0}, {"qber_opt": 0.2, "f_ec": 1.5}])
    def test_matches_scalar_scan(self, eve, kwargs):
        cfg = make_cfg(**kwargs)
        assert max_distance(eve, cfg) == scan_max_distance(eve, cfg)

    @pytest.mark.parametrize("eve", [EveModel.NONE, EveModel.STRATEGY_A, EveModel.UNLIMITED])
    def test_no_positive_rate_gives_zero(self, eve):
        # 1 - 1.5 h(0.2) < 0: no distance keeps a secret fraction
        assert max_distance(eve, make_cfg(qber_opt=0.2, f_ec=1.5)) == 0.0

    def test_none_cutoff_against_dense_scan_oracle(self):
        cfg = make_cfg()
        d_star = max_distance(EveModel.NONE, cfg)
        # oracle: dense 0.01 km scan around the reported cutoff
        grid = np.arange(d_star - 2.0, d_star + 2.0, 0.01)
        rates = [net_rate(float(d), EveModel.NONE, cfg).r_net_normalized
                 for d in grid]
        last_positive = grid[max(i for i, r in enumerate(rates) if r > 0)]
        assert abs(d_star - last_positive) <= 0.1

    def test_storage_strictly_shortens_the_link(self):
        cfg = make_cfg(f_ec=1.25)
        d_b = max_distance(EveModel.STRATEGY_B, cfg)
        d_bs = max_distance(EveModel.STRATEGY_B_STORAGE, cfg)
        assert d_bs < d_b

    def test_unbounded_reported_as_infinity(self):
        cfg = make_cfg(p_dark=0.0)
        assert math.isinf(max_distance(EveModel.NONE, cfg))


class TestCurve:
    def test_zeros_stay_exact(self):
        cfg = make_cfg()
        table = curve(EveModel.NONE, cfg, distance_grid(220.0, 260.0, 10.0))
        assert len(table) == 5
        tail = table.r_net_normalized[table.distance_km >= 240]
        assert tail.tolist() == [0.0, 0.0, 0.0]

    def test_higher_mu_higher_rate_within_validity(self):
        for model in (EveModel.NONE, EveModel.STRATEGY_A):
            values = [
                net_rate(60.0, model, make_cfg(mu=mu)).r_net_normalized
                for mu in (0.05, 0.1, 0.2)
            ]
            assert values[0] < values[1] < values[2]

    def test_initial_slope_is_fiber_loss(self):
        cfg = make_cfg()
        r0 = net_rate(0.0, EveModel.NONE, cfg).r_net_normalized
        r10 = net_rate(10.0, EveModel.NONE, cfg).r_net_normalized
        decades = math.log10(r0 / r10)
        assert decades == pytest.approx(0.25, abs=0.01)  # alpha * d / 10

    def test_unlimited_points_carry_mu_opt(self):
        cfg = make_cfg()
        distances = distance_grid(10.0, 30.0, 10.0)
        table = curve(EveModel.UNLIMITED, cfg, distances)
        assert table.mu_opt.shape == (3,)
        assert (table.mu_opt > 0).all()
        assert curve(EveModel.NONE, cfg, distances).mu_opt is None

    def test_eve_information_dispatch(self):
        cfg = make_cfg()
        assert eve_information(60.0, EveModel.NONE, cfg) == 0.0
        with pytest.raises(ValueError):
            eve_information(60.0, EveModel.UNLIMITED, cfg)
