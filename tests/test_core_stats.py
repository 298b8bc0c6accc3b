"""Unit tests for photon statistics, transmission, and detection probabilities.

Frozen expected values were computed with the independent oracles named in
the comments (scipy.stats.poisson, cumulative sums, direct evaluation) and
are asserted exactly or to the stated tolerance.
"""
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from qkd_eve_lab.config import SystemConfig
from qkd_eve_lab.core_stats import (
    BasisMode,
    ChannelParams,
    DetectorParams,
    SourceParams,
    eve_gain_db,
    multi_photon_fraction,
    p_coinc,
    p_single,
    p_single_linear,
    poisson_pmf,
    rates,
    to_loss_db,
    transmission,
)

SRC = SourceParams(mu=0.1, nu=1e6)
DET = DetectorParams(eta_b=0.1, p_dark=1e-6)
T60 = transmission(0.25 * 60)


class TestPoissonPmf:
    def test_against_scipy_oracle(self):
        for mu in (0.05, 0.1, 0.2, 0.5, 1.0):
            for n in range(0, 15):
                assert poisson_pmf(n, mu) == pytest.approx(
                    stats.poisson.pmf(n, mu), rel=1e-12
                )

    def test_empty_pulse_at_mu_tenth(self):
        # e^{-0.1}, direct evaluation
        assert poisson_pmf(0, 0.1) == pytest.approx(0.904837418035960, rel=1e-12)

    def test_two_photon_at_mu_tenth(self):
        assert poisson_pmf(2, 0.1) == pytest.approx(0.004524187090180, rel=1e-12)

    def test_two_photon_near_quadratic_approximation(self):
        # mu^2/2 = 0.005 must agree with the exact value within 10%
        exact = poisson_pmf(2, 0.1)
        assert abs(exact - 0.005) / 0.005 <= 0.10

    def test_empty_pulse_limit_small_mu(self):
        assert poisson_pmf(0, 1e-9) == pytest.approx(1.0, abs=1e-8)

    def test_normalization_tail(self):
        for mu in (0.05, 0.1, 0.5, 1.0):
            total = sum(poisson_pmf(n, mu) for n in range(51))
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_large_n_stable(self):
        assert poisson_pmf(150, 1.0) == pytest.approx(
            stats.poisson.pmf(150, 1.0), rel=1e-9
        )

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            poisson_pmf(0, 0.0)
        with pytest.raises(ValueError):
            poisson_pmf(0, -0.1)
        with pytest.raises(ValueError):
            poisson_pmf(-1, 0.1)


class TestMultiPhotonFraction:
    def test_second_order_value(self):
        assert multi_photon_fraction(0.1, "second_order") == pytest.approx(0.0525)

    def test_exact_value(self):
        # oracle: ratio of scipy Poisson tail sums
        expected = (1 - stats.poisson.cdf(1, 0.1)) / (1 - stats.poisson.pmf(0, 0.1))
        assert expected == pytest.approx(0.0491668, rel=1e-4)
        assert multi_photon_fraction(0.1, "exact") == pytest.approx(expected, rel=1e-12)

    def test_small_mu_asymptote(self):
        mu = 1e-6
        assert multi_photon_fraction(mu, "exact") == pytest.approx(mu / 2, rel=1e-3)

    def test_warns_above_validity_limit(self):
        with pytest.warns(UserWarning):
            multi_photon_fraction(0.3, "second_order")

    def test_domain_and_mode_errors(self):
        with pytest.raises(ValueError):
            multi_photon_fraction(0.0)
        with pytest.raises(ValueError):
            multi_photon_fraction(0.1, "cubic")

    @pytest.mark.parametrize("mu", [0.01, 0.03, 0.06, 0.09, 0.11])
    def test_second_order_tracks_exact_at_low_mu(self, mu):
        # The quadratic expansions of P(0), P(1), P(2) and the multiphoton
        # fraction stay within 12% of exact for mu <= ln(1.12) ~ 0.113; the
        # binding term is P(2) ~ mu^2/2, off by e^mu - 1.  (At mu = 0.2 it
        # drifts to ~22%; see the ledger.)
        pairs = [
            (math.exp(-mu), 1 - mu + mu**2 / 2),
            (mu * math.exp(-mu), mu - mu**2),
            (mu**2 / 2 * math.exp(-mu), mu**2 / 2),
            (multi_photon_fraction(mu, "exact"), mu / 2 + mu**2 / 4),
        ]
        for exact, second_order in pairs:
            assert abs(exact - second_order) / exact <= 0.12


class TestTransmission:
    def test_one_decade(self):
        assert transmission(10.0) == pytest.approx(0.1, rel=1e-12)

    def test_blocking_threshold_loss(self):
        # inverse of 10 log10(1/0.025) = 16.0206 dB
        assert transmission(16.02) == pytest.approx(0.02500, abs=5e-6)

    def test_zero_loss(self):
        assert transmission(0.0) == 1.0

    def test_negative_loss_rejected(self):
        with pytest.raises(ValueError):
            transmission(-1.0)

    @pytest.mark.parametrize("loss_db", [math.nan, [1.0, math.nan]])
    def test_nan_loss_rejected(self, loss_db):
        with pytest.raises(ValueError):
            transmission(loss_db)

    @given(
        st.floats(min_value=0.0, max_value=100.0),
        st.floats(min_value=0.0, max_value=100.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_db_additivity(self, a, b):
        assert transmission(a + b) == pytest.approx(
            transmission(a) * transmission(b), abs=1e-12
        )

    def test_round_trip(self):
        for t in (1.0, 0.5, 0.1, 1e-4):
            assert transmission(to_loss_db(t)) == pytest.approx(t, rel=1e-12)


class TestEveGain:
    def test_time_of_flight_monitored(self):
        channel = ChannelParams(alpha_ab=0.25, length_ab=60.0, alpha_e=0.15)
        assert eve_gain_db(channel, monitor_tof=True) == pytest.approx(6.0, rel=1e-12)

    def test_bee_line_shortcut(self):
        channel = ChannelParams(
            alpha_ab=0.25, length_ab=60.0, alpha_e=0.15, bee_line_d=40.0
        )
        assert eve_gain_db(channel) == pytest.approx(0.25 * 60 - 0.15 * 40, rel=1e-12)

    def test_default_bee_line_is_fiber_length(self):
        channel = ChannelParams(alpha_ab=0.25, length_ab=60.0, alpha_e=0.15)
        assert eve_gain_db(channel) == pytest.approx(6.0, rel=1e-12)

    def test_alpha_e_above_alpha_ab_rejected(self):
        with pytest.raises(ValueError):
            ChannelParams(alpha_ab=0.2, alpha_e=0.25)


class TestPSingle:
    def test_60km_value(self):
        # exact exponential at mu t eta = 3.16228e-4; the linear form gives
        # 3.1623e-4
        assert p_single(SRC, T60, DET) == pytest.approx(3.16178e-4, rel=1e-5)
        assert p_single_linear(SRC, T60, DET) == pytest.approx(3.16228e-4, rel=1e-5)

    def test_unit_channel_equals_click_probability(self):
        det = DetectorParams(eta_b=1.0, p_dark=0.0)
        assert p_single(SRC, 1.0, det) == pytest.approx(1 - math.exp(-0.1), rel=1e-12)

    def test_opaque_channel(self):
        assert p_single(SRC, 0.0, DET) == 0.0

    @given(
        st.floats(min_value=0.01, max_value=1.0),
        st.floats(min_value=0.01, max_value=1.0),
        st.floats(min_value=0.01, max_value=1.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_strictly_increasing_in_each_argument(self, mu, t, eta):
        src = SourceParams(mu=mu)
        det = DetectorParams(eta_b=eta, p_dark=0.0)
        bump = 1.01
        assert p_single(SourceParams(mu=mu * bump), t, det) > p_single(src, t, det)
        assert p_single(src, min(1.0, t * bump), det) > p_single(src, t * 0.99, det)
        det_up = DetectorParams(eta_b=min(1.0, eta * bump), p_dark=0.0)
        assert p_single(src, t, det_up) > p_single(
            src, t, DetectorParams(eta_b=eta * 0.99, p_dark=0.0)
        )


class TestPCoinc:
    def test_60km_exact_and_approx(self):
        assert p_coinc(SRC, T60, DET) == pytest.approx(1.24980e-8, rel=1e-4)
        approx = p_coinc(SRC, T60, DET, form="approx")
        assert approx == pytest.approx(1.25e-8, rel=1e-9)

    def test_approx_is_quarter_p2_form(self):
        # (1/4) P(2) t^2 eta^2 with the quadratic P(2) = mu^2/2
        t, eta = 0.3, 0.25
        det = DetectorParams(eta_b=eta, p_dark=0.0)
        expected = 0.25 * (SRC.mu**2 / 2) * t**2 * eta**2
        assert p_coinc(SRC, t, det, form="approx") == pytest.approx(expected, rel=1e-12)

    def test_passive_to_active_ratio(self):
        for t in (1.0, 0.3, 0.01):
            active = p_coinc(SRC, t, DET, BasisMode.ACTIVE, form="approx")
            passive = p_coinc(SRC, t, DET, BasisMode.PASSIVE)
            if active > 0:
                assert passive / active == pytest.approx(2.5, rel=1e-12)

    def test_opaque_channel(self):
        assert p_coinc(SRC, 0.0, DET) == 0.0

    @pytest.mark.parametrize("mode", [BasisMode.ACTIVE, BasisMode.PASSIVE])
    def test_unknown_form_rejected(self, mode):
        with pytest.raises(ValueError, match="form must be"):
            p_coinc(SRC, 0.5, DET, mode, form="bogus")

    @given(
        st.floats(min_value=0.01, max_value=1.0),
        st.floats(min_value=0.01, max_value=1.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_increasing_in_t_and_eta(self, t, eta):
        det_lo = DetectorParams(eta_b=eta * 0.99, p_dark=0.0)
        det_hi = DetectorParams(eta_b=eta, p_dark=0.0)
        assert p_coinc(SRC, t, det_hi) > p_coinc(SRC, t * 0.99, det_lo)


class TestRates:
    def test_60km_example(self):
        r = rates(SRC, T60, DET)
        assert r.raw_hz == pytest.approx(316.18, rel=1e-4)
        assert r.sifted_hz == pytest.approx(158.09, rel=1e-4)

    def test_zero_channel(self):
        r = rates(SRC, 0.0, DET)
        assert r.raw_hz == 0.0 and r.sifted_hz == 0.0

    @given(
        st.floats(min_value=0.001, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_sifted_is_half_of_raw(self, mu, t):
        r = rates(SourceParams(mu=mu), t, DET)
        assert r.sifted_hz == pytest.approx(r.raw_hz / 2, rel=1e-12)


class TestParamValidation:
    def test_source(self):
        with pytest.raises(ValueError):
            SourceParams(mu=0.0)
        with pytest.raises(ValueError):
            SourceParams(mu=0.1, nu=0.0)

    def test_detector(self):
        with pytest.raises(ValueError):
            DetectorParams(eta_b=0.0)
        with pytest.raises(ValueError):
            DetectorParams(eta_b=1.5)
        with pytest.raises(ValueError):
            DetectorParams(p_dark=-1e-9)

    @pytest.mark.parametrize("p_dark", [1.0 + 1e-12, 2.0, math.nan, math.inf])
    def test_detector_dark_count_probability_is_capped_at_one(self, p_dark):
        with pytest.raises(ValueError, match="p_dark"):
            DetectorParams(p_dark=p_dark)

    def test_detector_dark_count_probability_one_is_allowed(self):
        assert DetectorParams(p_dark=1.0).p_dark == 1.0

    def test_channel(self):
        with pytest.raises(ValueError):
            ChannelParams(alpha_ab=-0.1)
        with pytest.raises(ValueError):
            ChannelParams(bee_line_d=100.0, length_ab=60.0)

    @pytest.mark.parametrize("make,field", [
        (ChannelParams, "alpha_ab"),
        (ChannelParams, "length_ab"),
        (ChannelParams, "alpha_e"),
        (ChannelParams, "bee_line_d"),
        (SystemConfig, "f_ec"),
        (SystemConfig, "n_pulses"),
    ])
    def test_nan_is_rejected_when_built_directly(self, make, field):
        with pytest.raises(ValueError, match=field):
            make(**{field: math.nan})
