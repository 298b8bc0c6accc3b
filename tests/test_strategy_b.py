"""Unit tests for the beamsplitter-plus-shutter attack machinery."""
import functools
import math

import numpy as np
import pytest
from scipy import stats

from qkd_eve_lab import strategy_b
from qkd_eve_lab.config import Settings
from qkd_eve_lab.core_stats import BasisMode, transmission
from qkd_eve_lab.strategy_b import (
    _EDGE_TOL,
    STEALTH_Z,
    AlarmStats,
    BeamsplitAttack,
    StealthOptimum,
    blocking_threshold_db,
    blocking_threshold_t,
    bob_probs_prime,
    cascade_info_bound,
    clean_coinc_ref,
    clean_singles_ref,
    coincidence_alarm,
    eve_info_b,
    gamma_sweep,
    lambda_for_gamma,
    max_stealth_info,
    model_click_probs,
    photon_dist_prime,
    photon_dist_prime_zero,
    shutter_survival,
    sifted_info_model,
    solve_gamma,
)

MU = 0.1
T60 = transmission(15.0)


class TestPhotonDistPrime:
    def test_gamma_one_is_poisson_with_reduced_mean(self):
        for lam in np.linspace(0.0, 0.95, 10):
            for t_e in np.linspace(0.05, 1.0, 10):
                attack = BeamsplitAttack(lam=float(lam), gamma=1.0, t_e=float(t_e))
                mean = (1 - lam) * MU * t_e
                for n in range(1, 11):
                    assert photon_dist_prime(n, attack, MU) == pytest.approx(
                        stats.poisson.pmf(n, mean), abs=1e-12
                    )

    def test_no_tap_no_shutter_is_untouched_poisson(self):
        attack = BeamsplitAttack(lam=0.0, gamma=1.0, t_e=0.37)
        for n in range(1, 8):
            assert photon_dist_prime(n, attack, MU) == pytest.approx(
                stats.poisson.pmf(n, MU * 0.37), abs=1e-14
            )

    @pytest.mark.parametrize("lam,gamma,t_e", [
        (0.5, 0.0, 1.0), (0.3, 0.5, 0.6), (0.8, 0.1, 0.9), (0.0, 0.2, 0.5),
    ])
    def test_normalization(self, lam, gamma, t_e):
        attack = BeamsplitAttack(lam=lam, gamma=gamma, t_e=t_e)
        total = photon_dist_prime_zero(attack, MU)
        total += sum(photon_dist_prime(n, attack, MU) for n in range(1, 11))
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_factorizes_into_thinned_poisson_times_survival(self):
        attack = BeamsplitAttack(lam=0.4, gamma=0.3, t_e=0.8)
        s = shutter_survival(attack, MU)
        mean = (1 - attack.lam) * attack.t_e * MU
        for n in range(1, 6):
            assert photon_dist_prime(n, attack, MU) == pytest.approx(
                stats.poisson.pmf(n, mean) * s, rel=1e-12
            )

    def test_shuttered_single_photon_against_simulation_oracle(self):
        """Pulse-level oracle for the shutter distribution (lam=0.5, gamma=0)."""
        attack = BeamsplitAttack(lam=0.5, gamma=0.0, t_e=1.0)
        rng = np.random.default_rng(20240801)
        n_pulses = 2_000_000
        n = rng.poisson(MU, n_pulses)
        tapped = rng.binomial(n, attack.lam)
        passed = n - tapped
        open_shutter = tapped >= 1
        at_bob = np.where(open_shutter, passed, 0)
        for k in (1, 2):
            observed = np.count_nonzero(at_bob == k)
            expected = photon_dist_prime(k, attack, MU) * n_pulses
            sigma = math.sqrt(expected)
            assert abs(observed - expected) <= 3 * sigma

    def test_domain_errors(self):
        attack = BeamsplitAttack(lam=0.5, gamma=1.0, t_e=1.0)
        with pytest.raises(ValueError):
            photon_dist_prime(0, attack, MU)
        with pytest.raises(ValueError):
            photon_dist_prime(1, attack, 0.0)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            BeamsplitAttack(lam=-0.1, gamma=1.0, t_e=1.0)
        with pytest.raises(ValueError):
            BeamsplitAttack(lam=0.5, gamma=1.1, t_e=1.0)
        with pytest.raises(ValueError):
            BeamsplitAttack(lam=0.5, gamma=1.0, t_e=0.0)


class TestBobProbsPrime:
    def test_identity_attack_reproduces_clean_values(self):
        attack = BeamsplitAttack(lam=0.0, gamma=1.0, t_e=T60)
        ps, pc = bob_probs_prime(attack, MU, 0.1)
        assert ps == pytest.approx(clean_singles_ref(MU, T60, 0.1), rel=1e-14)
        assert pc == pytest.approx(clean_coinc_ref(MU, T60, 0.1), rel=1e-14)

    def test_matched_pure_beamsplitting_reproduces_clean_singles(self):
        attack = BeamsplitAttack(lam=0.5, gamma=1.0, t_e=2 * T60)
        ps, _ = bob_probs_prime(attack, MU, 0.1)
        assert ps == pytest.approx(clean_singles_ref(MU, T60, 0.1), rel=1e-14)

    def test_passive_prefactor(self):
        attack = BeamsplitAttack(lam=0.2, gamma=0.7, t_e=0.5)
        _, pc_active = bob_probs_prime(attack, MU, 0.1, BasisMode.ACTIVE)
        _, pc_passive = bob_probs_prime(attack, MU, 0.1, BasisMode.PASSIVE)
        assert pc_passive / pc_active == pytest.approx(2.5, rel=1e-12)

    def test_paper_form_tracks_exact_model_to_leading_order(self):
        attack = BeamsplitAttack(lam=0.3, gamma=0.6, t_e=0.2)
        ps_paper, pc_paper = bob_probs_prime(attack, MU, 0.1)
        p_click, p_coinc = model_click_probs(attack, MU, 0.1)
        m = MU * (1 - attack.lam) * attack.t_e
        assert abs(ps_paper - p_click) / p_click < 1.2 * m
        assert abs(pc_paper - p_coinc) / p_coinc < 1.2 * m


class TestSolveGamma:
    def test_identity_attack(self):
        assert solve_gamma(MU, T60, 0.0, T60) == pytest.approx(1.0, abs=1e-12)

    def test_matched_pure_beamsplitting(self):
        assert solve_gamma(MU, T60, 0.5, 2 * T60) == pytest.approx(1.0, abs=1e-12)

    def test_round_trip_reproduces_clean_singles(self):
        for lam in (0.0, 0.2, 0.5, 0.8):
            for t_e in (0.13, 0.3, 0.7, 1.0):
                for t_ab in (0.001, 0.01, 0.0316):
                    gamma = solve_gamma(MU, t_ab, lam, t_e)
                    if gamma is None:
                        continue
                    attack = BeamsplitAttack(lam=lam, gamma=gamma, t_e=t_e)
                    ps, _ = bob_probs_prime(attack, MU, 0.1)
                    assert ps == pytest.approx(
                        clean_singles_ref(MU, t_ab, 0.1), rel=1e-10
                    )

    def test_second_order_full_blocking_boundary_is_exact(self):
        for t_e in (0.2, 0.5, 1.0):
            t_ab = blocking_threshold_t(MU, t_e)
            assert t_ab == t_e * MU / 4
            gamma = solve_gamma(MU, t_ab, 0.5, t_e, form="second_order")
            assert gamma == pytest.approx(0.0, abs=1e-12)
            # slightly easier link: some shutter opening required
            assert solve_gamma(MU, t_ab * 1.2, 0.5, t_e, form="second_order") > 0
            # slightly harder link: even full blocking oversupplies clicks
            assert solve_gamma(MU, t_ab * 0.8, 0.5, t_e, form="second_order") is None

    def test_blocking_threshold_gain(self):
        g = blocking_threshold_db(MU)
        assert g == pytest.approx(16.0206, abs=1e-4)
        assert abs(g - 16.0) <= 0.1

    @pytest.mark.parametrize("t_ab, lam", [(0.5, 0.5), (0.5, 1.0), (0.0, 1.0)])
    def test_unknown_form_rejected(self, t_ab, lam):
        """Also at lambda = 1, where every photon is tapped and no gamma is solved."""
        with pytest.raises(ValueError, match="form must be"):
            solve_gamma(MU, t_ab, lam, 0.9, form="bogus")

    def test_infeasible_when_gamma_one_undershoots(self):
        # heavy tap over a barely better fiber cannot reach the clean rate
        assert solve_gamma(MU, 0.5, 0.9, 0.55) is None

    def test_exact_full_blocking_needs_slightly_more_gain(self):
        # With the exact exponential forms the gamma = 0 boundary sits a few
        # tenths of a dB above the second-order 16.02 dB value.
        t_e = 1.0
        t_ab = blocking_threshold_t(MU, t_e)
        gamma = solve_gamma(MU, t_ab, 0.5, t_e, form="exact")
        assert gamma is not None and 0 < gamma < 0.01


class TestEveInfo:
    def test_balanced_coupler_maximum(self):
        attack = BeamsplitAttack(lam=0.5, gamma=1.0, t_e=1.0)
        assert eve_info_b(attack, MU) == MU / 8

    def test_full_blocking_gives_half(self):
        for lam in (0.1, 0.5, 0.9):
            attack = BeamsplitAttack(lam=lam, gamma=0.0, t_e=1.0)
            assert eve_info_b(attack, MU) == 0.5

    def test_degenerate_couplers_give_nothing(self):
        for lam in (0.0, 1.0):
            attack = BeamsplitAttack(lam=lam, gamma=1.0, t_e=1.0)
            assert eve_info_b(attack, MU) == 0.0

    def test_linear_in_gamma(self):
        lo = eve_info_b(BeamsplitAttack(lam=0.3, gamma=0.0, t_e=1.0), MU)
        hi = eve_info_b(BeamsplitAttack(lam=0.3, gamma=1.0, t_e=1.0), MU)
        mid = eve_info_b(BeamsplitAttack(lam=0.3, gamma=0.5, t_e=1.0), MU)
        assert mid == pytest.approx((lo + hi) / 2, rel=1e-12)

    def test_maximized_at_balanced_coupler_for_open_shutter(self):
        values = [
            eve_info_b(BeamsplitAttack(lam=float(l), gamma=1.0, t_e=1.0), MU)
            for l in np.linspace(0, 1, 101)
        ]
        assert int(np.argmax(values)) == 50

    def test_sifted_model_value_matches_hand_derivation(self):
        # gamma = 1: (1 - e^{-lam mu}) / 2
        attack = BeamsplitAttack(lam=0.5, gamma=1.0, t_e=1.0)
        assert sifted_info_model(attack, MU) == pytest.approx(
            -math.expm1(-0.05) / 2, rel=1e-12
        )
        # gamma = 0: exactly 1/2 regardless of lam
        attack = BeamsplitAttack(lam=0.17, gamma=0.0, t_e=1.0)
        assert sifted_info_model(attack, MU) == pytest.approx(0.5, rel=1e-12)


class TestCascadeBound:
    def test_no_budget_no_information(self):
        assert cascade_info_bound(MU, 0.0) == 0.0

    def test_single_coupler_at_three_db(self):
        assert cascade_info_bound(MU, 3.0, n_couplers=1) == pytest.approx(
            0.0125, abs=1e-5
        )

    def test_single_coupler_formula_reduces_to_split_term(self):
        for g in (1.0, 3.0, 6.0, 10.0):
            c = 10 ** (-g / 10)
            assert cascade_info_bound(MU, g, n_couplers=1) == pytest.approx(
                (MU / 2) * c * (1 - c), rel=1e-12
            )

    def test_many_coupler_bound_approaches_quarter_mu(self):
        assert cascade_info_bound(MU, 6.0) == pytest.approx(MU / 4, rel=0.05)
        assert cascade_info_bound(MU, 30.0) == pytest.approx(MU / 4, rel=1e-6)

    def test_monotone_and_capped(self):
        values = [cascade_info_bound(MU, g) for g in np.linspace(0, 25, 60)]
        assert all(b >= a - 1e-15 for a, b in zip(values, values[1:]))
        assert all(v <= MU / 4 + 1e-15 for v in values)

    def test_more_couplers_never_hurt(self):
        for g in (2.0, 4.0, 8.0):
            values = [cascade_info_bound(MU, g, n_couplers=n) for n in (1, 2, 4, 16)]
            assert all(b >= a - 1e-15 for a, b in zip(values, values[1:]))
            assert cascade_info_bound(MU, g) >= values[-1] - 1e-15

    def test_domain(self):
        with pytest.raises(ValueError):
            cascade_info_bound(0.0, 3.0)
        with pytest.raises(ValueError):
            cascade_info_bound(MU, -1.0)


class TestCoincidenceAlarm:
    def test_clean_expectation_at_monitoring_scale(self):
        # 60 km, 1e10 pulses: ~125 expected coincidences, 2 sigma ~ +-22.4
        attack = BeamsplitAttack(lam=0.5, gamma=1.0, t_e=2 * T60)
        alarm = coincidence_alarm(attack, MU, 0.1, T60, 1e10)
        assert alarm.expected_coinc_clean == pytest.approx(124.605, abs=1e-2)
        assert 2 * alarm.sigma == pytest.approx(22.4, abs=0.1)

    def test_matched_beamsplitting_is_silent(self):
        attack = BeamsplitAttack(lam=0.5, gamma=1.0, t_e=2 * T60)
        alarm = coincidence_alarm(attack, MU, 0.1, T60, 1e10)
        assert alarm.z_score == pytest.approx(0.0, abs=1e-9)
        assert alarm.stealthy

    def test_any_blocking_raises_coincidences(self):
        for lam in (0.1, 0.4, 0.7):
            gamma = solve_gamma(MU, T60, lam, 0.126)
            if gamma is None or gamma >= 1.0:
                continue
            attack = BeamsplitAttack(lam=lam, gamma=gamma, t_e=0.126)
            alarm = coincidence_alarm(attack, MU, 0.1, T60, 1e10)
            assert alarm.z_score > 0.0

    def test_empty_window_is_silent(self):
        # Both coincidence counts underflow to 0: nothing to see, so z = 0.
        attack = BeamsplitAttack(lam=1.0, gamma=0.0, t_e=0.5)
        alarm = coincidence_alarm(attack, 0.1, 0.1, 1e-200, 1e10)
        assert alarm.expected_coinc_clean == alarm.expected_coinc_attack == 0.0
        assert alarm.z_score == 0.0
        assert alarm.stealthy

    def test_monotonicity_grid_with_matched_singles(self):
        """Matched singles with any shutter activity strictly raises the
        coincidence probability (linear-optics impossibility claim)."""
        feasible_cells = 0
        for lam in np.linspace(0.02, 0.95, 12):
            for t_ab in np.geomspace(1e-3, 0.3, 12):
                for t_e in (0.2, 0.5, 1.0):
                    if t_e <= t_ab:
                        continue
                    gamma = solve_gamma(MU, float(t_ab), float(lam), t_e)
                    if gamma is None or gamma > 1 - 1e-9:
                        continue
                    attack = BeamsplitAttack(lam=float(lam), gamma=gamma, t_e=t_e)
                    _, pc = bob_probs_prime(attack, MU, 0.1)
                    assert pc > clean_coinc_ref(MU, float(t_ab), 0.1)
                    feasible_cells += 1
        assert feasible_cells > 100


class TestMaxStealthInfo:
    def test_optimum_sits_on_the_two_sigma_contour(self):
        t_e = transmission(0.15 * 60)
        opt = max_stealth_info(MU, T60, t_e, 0.1, 1e10)
        assert opt.constrained
        assert opt.z_score == pytest.approx(2.0, abs=1e-6)
        assert 0 < opt.gamma < 1
        ps, _ = bob_probs_prime(
            BeamsplitAttack(lam=opt.lam, gamma=opt.gamma, t_e=t_e), MU, 0.1
        )
        assert ps == pytest.approx(clean_singles_ref(MU, T60, 0.1), rel=1e-9)

    @pytest.mark.parametrize("bound", [STEALTH_Z, 3.0])
    def test_every_bound_is_stealth_z(self, bound, monkeypatch):
        """The optimum's contour and ``AlarmStats.stealthy`` both move with
        ``STEALTH_Z``; no other 2-sigma bound is left to disagree with it."""
        assert STEALTH_Z == 2.0
        monkeypatch.setattr(strategy_b, "STEALTH_Z", bound)
        t_e = transmission(0.15 * 60)
        opt = max_stealth_info(MU, T60, t_e, 0.1, 1e10)
        assert opt.constrained
        assert opt.z_score == pytest.approx(bound, abs=1e-6)
        alarm = AlarmStats(n_pulses=1e10, expected_coinc_clean=1.0,
                           expected_coinc_attack=1.0, sigma=1.0, z_score=bound)
        assert alarm.stealthy
        assert not AlarmStats(**{**vars(alarm), "z_score": np.nextafter(bound, 9.0)}).stealthy

    def test_huge_monitoring_sample_forces_pure_beamsplitting(self):
        t_e = transmission(0.15 * 60)
        opt = max_stealth_info(MU, T60, t_e, 0.1, 1e22)
        bsa = max_stealth_info(MU, T60, t_e, 0.1, 1e10)
        assert opt.gamma > 0.999
        assert opt.info < bsa.info

    def test_loose_window_reaches_the_blocking_ceiling(self):
        # big gain, few pulses: the alarm has no statistics and the shutter
        # information approaches 1/2
        opt = max_stealth_info(MU, 1e-4, 0.5, 0.1, 1e4)
        assert opt.info == pytest.approx(0.5, abs=0.01)

    def test_identity_channel_yields_nothing(self):
        opt = max_stealth_info(MU, 0.3, 0.3, 0.1, 1e10)
        assert opt.info == pytest.approx(0.0, abs=1e-12)

    def test_rejects_lossier_replacement_fiber(self):
        with pytest.raises(ValueError):
            max_stealth_info(MU, 0.5, 0.3, 0.1, 1e10)
        with pytest.raises(ValueError, match=r"got t_e=0\.3 < t_ab=0\.5$"):
            max_stealth_info(MU, [0.1, 0.5, 0.7], [0.3, 0.3, 0.3], 0.1, 1e10)

    def test_rejects_a_dark_link(self):
        with pytest.raises(ValueError):
            max_stealth_info(MU, 0.0, 0.3, 0.1, 1e10)
        with pytest.raises(ValueError, match=r"t_ab must be > 0, got 0\.0$"):
            max_stealth_info(MU, [0.1, 0.0], 0.3, 0.1, 1e10)


class TestOneAlarm:
    """``coincidence_alarm``, ``gamma_sweep`` and ``max_stealth_info`` read one
    alarm formula, so they agree to the last bit: mu = 0.1, 10-80 km."""

    @pytest.mark.parametrize("mode", list(BasisMode))
    def test_every_path_gives_the_same_count_and_z(self, mode):
        rows = 0
        for km in range(10, 81, 10):
            t_ab, t_e = transmission(0.25 * km), transmission(0.15 * km)
            sweep = gamma_sweep(MU, t_ab, t_e, 0.1, 1e10, mode)
            lams = lambda_for_gamma(MU, t_ab, t_e, sweep["gamma"])
            for gamma, lam, count, z in zip(sweep["gamma"], lams,
                                            sweep["expected_coincidences"], sweep["z_score"]):
                attack = BeamsplitAttack(lam=float(lam), gamma=float(gamma), t_e=t_e)
                alarm = coincidence_alarm(attack, MU, 0.1, t_ab, 1e10, mode)
                assert (alarm.expected_coinc_attack, alarm.z_score) == (count, z), (km, gamma)
                rows += 1
            opt = max_stealth_info(MU, t_ab, t_e, 0.1, 1e10, mode)
            attack = BeamsplitAttack(lam=float(opt.lam), gamma=float(opt.gamma), t_e=t_e)
            assert coincidence_alarm(attack, MU, 0.1, t_ab, 1e10, mode).z_score == opt.z_score
        assert rows > 200

    @pytest.mark.parametrize("n_pulses", [0.0, -1e10, float("nan")])
    def test_every_path_rejects_a_window_without_pulses(self, n_pulses):
        t_ab, t_e = transmission(0.25 * 60), transmission(0.15 * 60)
        attack = BeamsplitAttack(lam=0.3, gamma=0.5, t_e=t_e)
        for call in (lambda: coincidence_alarm(attack, MU, 0.1, t_ab, n_pulses),
                     lambda: gamma_sweep(MU, t_ab, t_e, 0.1, n_pulses),
                     lambda: max_stealth_info(MU, t_ab, t_e, 0.1, n_pulses)):
            with pytest.raises(ValueError, match="^n_pulses must be > 0"):
                call()


class TestOneShutter:
    """``solve_gamma`` is the scalar view of the matched shutter that
    ``max_stealth_info`` solves, so it returns each optimum's gamma to the
    last bit: mu = 0.05-0.5, both basis modes, 1-149 km."""

    @pytest.mark.parametrize("mode", list(BasisMode))
    @pytest.mark.parametrize("mu", [0.05, 0.1, 0.2, 0.5])
    def test_solve_gamma_gives_the_optimum_gamma(self, mu, mode):
        km = np.arange(1.0, 150.0)
        t_ab, t_e = transmission(0.25 * km), transmission(0.15 * km)
        opt = max_stealth_info(mu, t_ab, t_e, 0.1, 1e10, mode)
        assert opt.constrained.sum() > 100
        for i in np.flatnonzero(opt.constrained):
            gamma = solve_gamma(mu, float(t_ab[i]), float(opt.lam[i]), float(t_e[i]))
            assert gamma == opt.gamma[i], (km[i], gamma, opt.gamma[i])


_T_AB, _T_E = transmission(0.25 * 60), transmission(0.15 * 60)


def _clean_link_paths(mu, t_ab, eta_b=0.1, t_e=_T_E):
    """Every public path that reads the clean link, as argument-free calls."""
    return {
        "solve_gamma": lambda: solve_gamma(mu, t_ab, 0.5, t_e),
        "solve_gamma_second_order": lambda: solve_gamma(mu, t_ab, 0.5, t_e, form="second_order"),
        "max_stealth_info": lambda: max_stealth_info(mu, t_ab, t_e, eta_b, 1e10),
        "gamma_sweep": lambda: gamma_sweep(mu, t_ab, t_e, eta_b, 1e10),
        "lambda_for_gamma": lambda: lambda_for_gamma(mu, t_ab, t_e, 0.5),
        "clean_singles_ref": lambda: clean_singles_ref(mu, t_ab, eta_b),
        "clean_coinc_ref": lambda: clean_coinc_ref(mu, t_ab, eta_b),
    }


class TestRejectsABadLink:
    """mu and t_ab are checked once, where the clean link is worked out, and
    eta_b and t_e where they are read; none gives a plausible number."""

    @pytest.mark.parametrize("path", list(_clean_link_paths(MU, _T_AB)))
    @pytest.mark.parametrize("mu", [0.0, -0.1, math.nan, math.inf])
    def test_bad_mu(self, path, mu):
        with pytest.raises(ValueError, match="^mu must be finite and > 0"):
            _clean_link_paths(mu, _T_AB)[path]()

    @pytest.mark.parametrize("path", list(_clean_link_paths(MU, _T_AB)))
    def test_nan_t_ab(self, path):
        with pytest.raises(ValueError, match=r"^t_ab must be in \[0, 1\], got nan"):
            _clean_link_paths(MU, math.nan)[path]()

    @pytest.mark.parametrize("path", ["solve_gamma", "lambda_for_gamma", "clean_singles_ref",
                                      "clean_coinc_ref"])
    @pytest.mark.parametrize("t_ab", [-0.1, 1.5])
    def test_t_ab_outside_the_unit_interval(self, path, t_ab):
        with pytest.raises(ValueError, match=r"^t_ab must be in \[0, 1\]"):
            _clean_link_paths(MU, t_ab, t_e=1.0)[path]()

    def test_t_ab_is_named_within_an_array(self):
        with pytest.raises(ValueError, match=r"^t_ab must be in \[0, 1\], got nan$"):
            clean_coinc_ref(MU, np.array([0.1, math.nan, 0.2]), 0.1)

    @pytest.mark.parametrize("eta_b", [math.nan, 0.0, 1.5])
    def test_bad_eta_b(self, eta_b):
        attack = BeamsplitAttack(lam=0.3, gamma=0.5, t_e=_T_E)
        for call in (lambda: coincidence_alarm(attack, MU, eta_b, _T_AB, 1e10),
                     lambda: max_stealth_info(MU, _T_AB, _T_E, eta_b, 1e10),
                     lambda: gamma_sweep(MU, _T_AB, _T_E, eta_b, 1e10)):
            with pytest.raises(ValueError, match=r"^eta_b must be in \(0, 1\]"):
                call()

    @pytest.mark.parametrize("t_e", [2.0, math.nan, [0.5, 1.0 + 1e-9]])
    def test_max_stealth_info_rejects_t_e_above_one(self, t_e):
        with pytest.raises(ValueError, match="^t_e must be <= 1"):
            max_stealth_info(MU, _T_AB, t_e, 0.1, 1e10)


# Reference for the array optimum: the scalar stealth optimum, solved for one
# (t_ab, t_e) at a time with ``bisect``, a scalar halving loop.
def bisect(inside, lo, hi, steps):
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if inside(mid):
            lo = mid
        else:
            hi = mid
    return lo, hi


def _pure_bsa_lambda(mu: float, t_ab: float, t_e: float) -> float:
    """Tap fraction at which gamma = 1 alone matches the clean singles.

    Solves (1 - lam) t_e e^{-(1-lam) mu t_e} = t_ab e^{-mu t_ab} by
    bisection; x e^{-mu x} is monotone for x <= 1 < 1/mu.
    """
    target = t_ab * math.exp(-mu * t_ab)

    def above(lam: float) -> bool:
        pass_f = (1.0 - lam) * t_e
        return pass_f * math.exp(-mu * pass_f) > target

    if not above(0.0):
        return 0.0
    lo, hi = bisect(above, 0.0, 1.0, 200)
    return 0.5 * (lo + hi)


def reference_max_stealth_info(
    mu: float,
    t_ab: float,
    t_e: float,
    eta_b: float,
    n_pulses: float,
    mode: BasisMode = BasisMode.ACTIVE,
    grid_step: float = 1e-3,
) -> StealthOptimum:
    """Best information compatible with matched singles and a quiet alarm.

    The singles condition pins gamma as a function of lam, so the search is
    one-dimensional: a deterministic lam grid (step ``grid_step``) followed
    by bisection onto the z = 2 contour between the best stealthy grid
    point and its louder neighbor.  When no gamma < 1 point is stealthy the
    pure beam-splitting point (gamma = 1) is returned with
    ``constrained=False``.
    """
    if t_e < t_ab:
        raise ValueError(f"t_e must be >= t_ab, got t_e={t_e} < t_ab={t_ab}")
    if t_ab <= 0:
        raise ValueError(f"t_ab must be > 0, got {t_ab}")

    lam_bsa = _pure_bsa_lambda(mu, t_ab, t_e)
    clean = n_pulses * clean_coinc_ref(mu, t_ab, eta_b, mode)
    sigma = math.sqrt(clean)
    target = t_ab * math.exp(-mu * t_ab)
    pref = mode.coincidence_prefactor

    def grid_eval(lams: np.ndarray):
        """Vectorized (gamma, info, z, feasible) along a lam grid."""
        pass_f = (1.0 - lams) * t_e
        m = mu * pass_f
        e_blocked = np.exp(-mu * (lams + pass_f))
        e_pass = np.exp(-m)
        gamma = 1.0 + (target / pass_f - e_pass) / e_blocked
        feasible = (gamma >= -_EDGE_TOL) & (gamma <= 1.0 + _EDGE_TOL)
        gamma = np.clip(gamma, 0.0, 1.0)
        bracket = (gamma - 1.0) * e_blocked + e_pass
        pc = pref * eta_b**2 * m * m / 2.0 * bracket
        if sigma > 0:
            z = (n_pulses * pc - clean) / sigma
        else:
            z = np.where(pc > 0, np.inf, 0.0)
        info = gamma * (mu / 2.0) * lams * (1.0 - lams) + (1.0 - gamma) * 0.5
        return gamma, info, z, feasible

    def evaluate(lam: float) -> tuple[float, float, float] | None:
        arr = np.array([lam])
        gamma, info, z, feasible = grid_eval(arr)
        if not feasible[0]:
            return None
        return float(gamma[0]), float(info[0]), float(z[0])

    fallback = evaluate(lam_bsa)
    if fallback is None:  # t_e == t_ab edge: identity attack only
        return StealthOptimum(0.0, 1.0, 0.0, 0.0, constrained=False)

    lams = np.arange(0.0, lam_bsa, grid_step)
    if lams.size:
        gamma_g, info_g, z_g, feas_g = grid_eval(lams)
        stealthy = feas_g & (z_g <= 2.0) & (gamma_g < 1.0)
    else:
        stealthy = np.zeros(0, dtype=bool)

    if not stealthy.any():
        gamma, info, z = fallback
        return StealthOptimum(lam_bsa, gamma, info, z, constrained=False)

    idx = int(np.flatnonzero(stealthy)[np.argmax(info_g[stealthy])])
    best = (float(info_g[idx]), float(lams[idx]), float(gamma_g[idx]), float(z_g[idx]))

    # Refine onto the z = 2 contour just below the best grid point, where the
    # shutter is more aggressive and the information slightly higher.
    if idx > 0 and feas_g[idx - 1] and z_g[idx - 1] > 2.0:

        def loud(lam: float) -> bool:
            res = evaluate(lam)
            return res is None or res[2] > 2.0

        _, hi = bisect(loud, float(lams[idx - 1]), best[1], 60)
        res = evaluate(hi)
        if res is not None and res[2] <= 2.0 and res[1] > best[0]:
            best = (res[1], hi, res[0], res[2])

    info, lam, gamma, z = best
    fb_gamma, fb_info, fb_z = fallback
    if fb_info > info:
        return StealthOptimum(lam_bsa, fb_gamma, fb_info, fb_z, constrained=True)
    return StealthOptimum(lam, gamma, info, z, constrained=True)


_DISTANCES = np.arange(501) * 0.5  # 0-250 km


@functools.cache
def _reference_rows(mu, n_pulses):
    """(t_ab, t_e, fields of the reference optimum) per distance, at
    t_e = max(eve_t_e, t_ab) as the rate curves use it."""
    cfg = Settings().system()
    rows = []
    for d in _DISTANCES.tolist():
        t_ab = cfg.t_ab(d)
        t_e = max(cfg.eve_t_e(d), t_ab)
        opt = reference_max_stealth_info(mu, t_ab, t_e, 0.1, n_pulses)
        rows.append((t_ab, t_e, opt.lam, opt.gamma, opt.info, opt.z_score, opt.constrained))
    return np.array(rows)


# Below mu = 0.9 no row has the pure beam-splitting point beat the grid.
_WINDOWS = [(mu, n) for mu in (0.05, 0.1, 0.5, 0.9) for n in (1e4, 1e8, 1e10, 1e14)]


@pytest.mark.parametrize("mu,n_pulses", _WINDOWS)
def test_array_optimum_matches_the_scalar_reference(mu, n_pulses):
    t_ab, t_e, lam, gamma, info, z, constrained = _reference_rows(mu, n_pulses).T
    got = max_stealth_info(mu, t_ab, t_e, 0.1, n_pulses)
    assert got.lam.shape == t_ab.shape
    np.testing.assert_array_equal(got.constrained, constrained.astype(bool))
    np.testing.assert_allclose(got.lam, lam, rtol=1e-12, atol=0)
    np.testing.assert_allclose(got.gamma, gamma, rtol=1e-12, atol=0)
    np.testing.assert_allclose(got.info, info, rtol=1e-12, atol=0)
    np.testing.assert_allclose(got.z_score, z, rtol=0, atol=1e-9)


def test_reference_rows_cover_every_branch():
    t_ab, t_e, lam, _, info, z, constrained = np.vstack(
        [_reference_rows(mu, n) for mu, n in _WINDOWS]).T
    constrained = constrained.astype(bool)
    on_grid = lam == np.round(lam / 1e-3) * 1e-3
    on_contour = np.abs(z - 2.0) < 1e-6
    identity = t_e == t_ab
    assert identity.any() and np.all(info[identity] == 0.0)
    branches = {
        "unconstrained fallback": ~constrained & ~identity,
        "grid optimum": constrained & on_grid,
        "refined contour point": constrained & ~on_grid & on_contour,
        "fallback beats the grid": constrained & ~on_grid & ~on_contour,
    }
    assert {name: int(rows.sum()) for name, rows in branches.items() if not rows.any()} == {}


class TestGammaSweep:
    def test_rows_monotone_and_anchored(self):
        t_e = transmission(0.15 * 60)
        columns = gamma_sweep(MU, T60, t_e, 0.1, 1e10)
        assert list(columns) == ["gamma", "expected_coincidences", "z_score", "info"]
        gammas = columns["gamma"]
        assert gammas.size, "sweep produced no feasible points"
        assert {c.shape for c in columns.values()} == {gammas.shape}
        assert (np.diff(gammas) > 0).all()
        assert (np.diff(columns["info"]) <= 1e-12).all()
        assert (np.diff(columns["expected_coincidences"]) <= 1e-9).all()
        assert gammas[-1] == 1.0
        assert columns["z_score"][-1] == pytest.approx(0.0, abs=1e-9)

    def test_rejects_eves_link_below_the_installed_one(self):
        """As max_stealth_info does, t_e < t_ab is refused, not swept to no rows."""
        with pytest.raises(ValueError, match="t_e must be >= t_ab"):
            gamma_sweep(MU, T60, 0.99 * T60, 0.1, 1e10)

    def test_lambda_root_matches_singles(self):
        t_e = transmission(0.15 * 60)
        lam = lambda_for_gamma(MU, T60, t_e, 0.8)
        attack = BeamsplitAttack(lam=lam, gamma=0.8, t_e=t_e)
        ps, _ = bob_probs_prime(attack, MU, 0.1)
        assert ps == pytest.approx(clean_singles_ref(MU, T60, 0.1), rel=1e-9)

    def test_unreachable_gamma_returns_nan(self):
        # at 60 km the available straight-line gain cannot support gamma = 0
        t_e = transmission(0.15 * 60)
        assert np.isnan(lambda_for_gamma(MU, T60, t_e, 0.0))

    @pytest.mark.parametrize("gamma,t_e", [
        (math.nan, 0.5), (-0.1, 0.5), (1.1, 0.5), (0.5, math.nan), (0.5, 0.0),
        ([0.2, math.nan, 0.8], 0.5),
    ])
    def test_rejects_bad_shutter_or_fiber(self, gamma, t_e):
        with pytest.raises(ValueError, match="gamma|t_e"):
            lambda_for_gamma(MU, T60, t_e, gamma)


# Reference for the elementwise lambda_for_gamma: the scalar solve, one gamma
# at a time, with the ``math`` singles level and a scalar golden-section search.
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_max(f, a, b, tol):
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    while abs(b - a) > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def reference_lambda_for_gamma(mu: float, t_ab: float, t_e: float, gamma: float):
    """Decreasing-branch tap fraction matching the clean singles, or None."""
    BeamsplitAttack(lam=0.0, gamma=gamma, t_e=t_e)  # validates gamma and t_e
    target = t_ab * math.exp(-mu * t_ab)

    def level(lam: float) -> float:
        pass_f = (1.0 - lam) * t_e
        bracket = (gamma - 1.0) * math.exp(-mu * (lam + pass_f)) + math.exp(-mu * pass_f)
        return pass_f * max(bracket, 0.0)

    lam_peak = max(0.0, golden_max(level, 0.0, 1.0, 1e-12), key=level)
    if level(lam_peak) < target:
        return None
    lo, hi = bisect(lambda lam: level(lam) > target, lam_peak, 1.0, 200)
    return 0.5 * (lo + hi)


# (mu, km of installed link, km of replacement fiber): the default 60 km link
# cannot be matched below gamma = 0.26; the others cover short and long links.
_SWEEP_POINTS = [(0.1, 60.0, 60.0), (0.1, 20.0, 20.0), (0.5, 100.0, 100.0),
                 (0.05, 120.0, 40.0), (0.9, 5.0, 5.0)]


@pytest.mark.parametrize("mu,d_ab,d_e", _SWEEP_POINTS)
def test_elementwise_lambda_matches_the_scalar_reference(mu, d_ab, d_e):
    t_ab, t_e = transmission(0.25 * d_ab), transmission(0.15 * d_e)
    gammas = np.linspace(0.0, 1.0, 21)
    want = [reference_lambda_for_gamma(mu, t_ab, t_e, float(g)) for g in gammas]
    got = lambda_for_gamma(mu, t_ab, t_e, gammas)
    assert np.isnan(got).tolist() == [w is None for w in want]
    kept = [w for w in want if w is not None]
    assert kept
    np.testing.assert_allclose(got[~np.isnan(got)], kept, rtol=1e-12, atol=0)
