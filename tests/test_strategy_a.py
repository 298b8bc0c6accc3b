"""Unit tests for the intercept-resend case table and greedy allocation."""
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkd_eve_lab import keyrate, strategy_a, strategy_b
from qkd_eve_lab.cli import main
from qkd_eve_lab.config import SystemConfig
from qkd_eve_lab.core_stats import (
    DetectorParams,
    EveModel,
    SourceParams,
    p_single,
    transmission,
)
from qkd_eve_lab.search import distance_grid
from qkd_eve_lab.strategy_a import (
    CASE_LABELS,
    GREEDY_ORDER,
    INTERMEDIATE_STATE_QBER,
    CaseMix,
    allocate,
    attributed_info,
    case_table,
    info_per_error,
    pure_b_crossover_km,
    regime_curve,
)

SIN2_PI_8 = math.sin(math.pi / 8) ** 2  # 0.146447
RATIO_B = 1 / SIN2_PI_8  # 4 + 2 sqrt(2) = 6.828427


class TestCaseTable:
    def test_probabilities_at_mu_tenth(self):
        table = case_table(0.1)
        assert [c.p_cond for c in table] == pytest.approx(
            [0.95, 0.025, 0.01875, 0.00625], abs=1e-15
        )

    def test_information_and_errors(self):
        a, b, c, d = case_table(0.1)
        assert (a.info, a.qber) == (0.5, 0.25)
        assert b.info == 1.0 and b.qber == pytest.approx(SIN2_PI_8, abs=1e-15)
        assert c.info == pytest.approx(2 / 3) and c.qber == pytest.approx(1 / 6)
        assert (d.info, d.qber) == (0.0, 0.5)

    def test_ratios(self):
        ratios = [c.ratio for c in case_table(0.1)]
        assert ratios[0] == pytest.approx(2.0)
        assert ratios[1] == pytest.approx(RATIO_B, rel=1e-12)
        assert abs(ratios[1] - 6.83) <= 0.01
        assert ratios[2] == pytest.approx(4.0)
        assert ratios[3] == 0.0

    def test_intermediate_state_error_value(self):
        assert INTERMEDIATE_STATE_QBER == pytest.approx(0.146447, abs=5e-7)

    @pytest.mark.parametrize("mu", [0.01, 0.05, 0.1, 0.2])
    def test_conditional_probabilities_sum_to_one(self, mu):
        table = case_table(mu)
        assert sum(c.p_cond for c in table) == pytest.approx(1.0, abs=1e-15)
        # the multiphoton rows carry mu/2 between them, by construction
        assert sum(c.p_cond for c in table[1:]) == pytest.approx(mu / 2, abs=1e-15)

    def test_domain(self):
        with pytest.raises(ValueError):
            case_table(0.0)
        with pytest.warns(UserWarning):
            case_table(0.5)

    @pytest.mark.parametrize("mu", [2.0, 3.0, math.inf, math.nan])
    def test_class_a_probability_must_stay_positive(self, mu):
        # class A's conditional probability 1 - mu/2 is not positive from mu = 2
        with pytest.raises(ValueError, match="mu"):
            case_table(mu)


def _pure_mix(label: str, amount: float = 1e-3, mu: float = 0.1) -> CaseMix:
    usage = {lb: 0.0 for lb in CASE_LABELS}
    usage[label] = amount
    supply = {lb: amount for lb in CASE_LABELS}
    return CaseMix(mu=mu, t_ab=0.0, required_rate=amount, supply=supply, usage=usage)


class TestAllocate:
    def test_pure_b_at_80km(self):
        # t_ab = 0.01: required 1e-3 is under the class-B supply 2.379e-3
        mix = allocate(0.1, 0.01)
        assert mix.required_rate == pytest.approx(1e-3)
        assert mix.supply["B"] == pytest.approx(2.3790645e-3, rel=1e-6)
        assert mix.usage["B"] == pytest.approx(1e-3)
        assert all(mix.usage[lb] == 0.0 for lb in "ACD")
        assert not mix.deficit and mix.blind == 0.0

    def test_exhaustion_boundary(self):
        # class-B supply equals demand at t* = (1 - e^-mu)/4
        t_star = -math.expm1(-0.1) / 4
        mix = allocate(0.1, t_star)
        assert mix.usage["B"] == pytest.approx(mix.supply["B"], rel=1e-12)
        assert mix.usage["C"] == pytest.approx(0.0, abs=1e-15)
        just_above = allocate(0.1, t_star * 1.01)
        assert just_above.usage["C"] > 0.0
        assert just_above.usage["A"] == 0.0

    def test_crossover_distance(self):
        km = pure_b_crossover_km(0.1, 0.25)
        assert km == pytest.approx(64.9437, abs=1e-3)
        assert abs(km - 64.9) <= 1.0

    def test_short_fiber_deficit_dominated_by_case_a(self):
        mix = allocate(0.1, 1.0)
        assert mix.deficit
        total_supply = -math.expm1(-0.1)
        assert mix.blind == pytest.approx(0.1 - total_supply, rel=1e-12)
        assert mix.usage["A"] == max(mix.usage.values())
        assert mix.fraction("A") > 0.9

    def test_greedy_order_consumes_b_then_c_then_a(self):
        # demand large enough to exhaust B and C but not A
        t = 0.05
        mix = allocate(0.1, t)
        assert mix.usage["B"] == pytest.approx(mix.supply["B"], rel=1e-12)
        assert mix.usage["C"] == pytest.approx(mix.supply["C"], rel=1e-12)
        assert 0 < mix.usage["A"] < mix.supply["A"]
        assert mix.usage["D"] == 0.0

    def test_required_rate_matches_linear_singles_over_eta(self):
        det = DetectorParams(eta_b=0.1, p_dark=0.0)
        for d_km in (40, 60, 80, 100):
            t = transmission(0.25 * d_km)
            mix = allocate(0.1, t)
            clicks = p_single(SourceParams(mu=0.1), t, det)
            assert mix.required_rate == pytest.approx(clicks / 0.1, rel=0.01)

    def test_invalid_t(self):
        with pytest.raises(ValueError):
            allocate(0.1, 1.5)


class TestInfoPerError:
    def test_pure_b(self):
        assert info_per_error(_pure_mix("B")) == pytest.approx(RATIO_B, rel=1e-12)

    def test_pure_a(self):
        assert info_per_error(_pure_mix("A")) == pytest.approx(2.0, rel=1e-12)

    def test_boundary_mix_between_c_and_pure_b(self):
        t_star = -math.expm1(-0.1) / 4
        mix = allocate(0.1, t_star * 1.05)
        ratio = info_per_error(mix)
        assert 4.0 < ratio < RATIO_B

    def test_empty_mix_is_undefined(self):
        usage = {lb: 0.0 for lb in CASE_LABELS}
        empty = CaseMix(mu=0.1, t_ab=0.0, required_rate=0.0, supply=usage.copy(),
                        usage=usage)
        assert math.isnan(info_per_error(empty))

    def test_monotone_with_distance_until_saturation(self):
        prev = -1.0
        for d in range(0, 121, 5):
            mix = allocate(0.1, transmission(0.25 * d))
            ratio = info_per_error(mix)
            assert ratio >= prev - 1e-12
            prev = ratio
        assert prev == pytest.approx(RATIO_B, rel=1e-12)

    @pytest.mark.parametrize("t_ab", [0.9, 0.3, 0.1, 0.05, 0.03, 0.01])
    def test_greedy_beats_exhaustive_alternatives(self, t_ab):
        """No feasible alternative mix yields more information per error.

        Oracle: enumerate usages on a coarse fraction grid of each class
        supply, keep combinations whose total matches the required rate,
        and compare their ratio against the greedy one.
        """
        mu = 0.1
        greedy = allocate(mu, t_ab)
        best = info_per_error(greedy)
        required = greedy.required_rate
        supply = greedy.supply
        table = {c.label: c for c in case_table(mu)}
        fractions = [0.0, 0.25, 0.5, 0.75, 1.0]
        for fracs in itertools.product(fractions, repeat=4):
            usage = {
                lb: f * supply[lb] for lb, f in zip(CASE_LABELS, fracs)
            }
            total = sum(usage.values())
            blind = required - total
            if blind < -1e-12:
                continue  # oversupplies the line
            info = sum(usage[lb] * table[lb].info for lb in CASE_LABELS)
            qber = sum(usage[lb] * table[lb].qber for lb in CASE_LABELS)
            qber += max(0.0, blind) * 0.5
            if qber == 0.0:
                continue
            assert info / qber <= best + 1e-12


class TestAttributedInfo:
    def test_pure_b_one_percent(self):
        info = attributed_info(_pure_mix("B"), 0.01)
        assert info == pytest.approx(0.0682843, abs=1e-6)

    def test_pure_a_one_percent(self):
        assert attributed_info(_pure_mix("A"), 0.01) == pytest.approx(0.02, rel=1e-12)

    def test_zero_budget(self):
        assert attributed_info(_pure_mix("B"), 0.0) == 0.0

    def test_clamped_to_one_bit(self):
        assert attributed_info(_pure_mix("B"), 0.5) == 1.0

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            attributed_info(_pure_mix("B"), -0.01)

    @pytest.mark.parametrize("budget", [math.nan, [0.01, -0.01], [0.01, math.nan]])
    def test_nan_or_negative_element_rejected(self, budget):
        with pytest.raises(ValueError):
            attributed_info(_pure_mix("B"), np.asarray(budget))

    def test_empty_mix_credits_nothing(self):
        usage = {lb: 0.0 for lb in CASE_LABELS}
        empty = CaseMix(mu=0.1, t_ab=0.0, required_rate=0.0, supply=usage.copy(),
                        usage=usage)
        assert attributed_info(empty, 0.01) == 0.0


class TestRegimeCurve:
    def test_rows_and_plateau(self):
        columns = regime_curve(0.1, 0.25, distance_grid(0.0, 120.0, 5.0))
        assert list(columns) == ["distance_km", "ratio", "frac_A", "frac_B", "frac_C",
                                 "frac_D", "frac_blind", "deficit"]
        assert {c.shape for c in columns.values()} == {(25,)}
        assert columns["distance_km"][0] == 0.0
        # beyond the crossover everything rides on class B
        tail = columns["distance_km"] >= 70.0
        assert tail.sum() == 11
        assert columns["frac_B"][tail] == pytest.approx(1.0, rel=1e-12)
        assert columns["ratio"][tail] == pytest.approx(RATIO_B, rel=1e-12)
        # short distances are deficit territory, dominated by class A
        assert columns["deficit"][0] == 1.0
        assert columns["frac_A"][0] > 0.9


def _reference_allocate(mu: float, t_ab: float) -> dict:
    """The scalar greedy loop with its early exit, kept as a reference."""
    cases = case_table(mu)
    required = mu * t_ab
    p_detect = -math.expm1(-mu)
    supply = {c.label: p_detect * c.p_cond for c in cases}
    usage = {label: 0.0 for label in CASE_LABELS}
    remaining = required
    for label in GREEDY_ORDER:
        take = min(remaining, supply[label])
        usage[label] = take
        remaining -= take
        if remaining <= 0:
            remaining = 0.0
            break
    by_label = {c.label: c for c in cases}
    info = sum(usage[lb] * by_label[lb].info for lb in CASE_LABELS)
    qber = sum(usage[lb] * by_label[lb].qber for lb in CASE_LABELS)
    qber += remaining * 0.5
    ratio = None if qber == 0.0 else info / qber
    return {"usage": usage, "blind": remaining, "deficit": remaining > 0, "ratio": ratio}


def _reference_credit(ratio: float | None, qber_eve: float) -> float:
    return 0.0 if ratio is None else min(1.0, max(0.0, ratio * qber_eve))


def _same(a, b) -> bool:
    """Equal with ==, NaN matching NaN."""
    return a == b or (math.isnan(a) and math.isnan(b))


@st.composite
def _links(draw):
    """mu in (0, 0.2] and transmittances with the fill's boundaries among them."""
    mu = draw(st.floats(min_value=0.0, max_value=0.2, exclude_min=True))
    t_star = -math.expm1(-mu) / 4.0
    special = [0.0, 1.0, t_star, t_star * (1 + 1e-12), t_star * (1 - 1e-12),
               5e-324, 2.2250738585072014e-308 / 3]
    t = draw(st.lists(st.one_of(st.sampled_from(special),
                                st.floats(min_value=0.0, max_value=1.0),
                                st.floats(min_value=0.0, max_value=2.2250738585072014e-308)),
                      min_size=1, max_size=12))
    budget = draw(st.lists(st.floats(min_value=0.0, max_value=0.5),
                           min_size=len(t), max_size=len(t)))
    return mu, np.array(t), np.array(budget)


class TestArrayFill:
    @given(_links())
    @settings(max_examples=300, deadline=None)
    def test_equals_the_scalar_greedy_loop(self, link):
        mu, t, budget = link
        mix = allocate(mu, t)
        ratio = info_per_error(mix)
        credit = attributed_info(mix, budget)
        for i, (t_i, b_i) in enumerate(zip(t.tolist(), budget.tolist())):
            ref = _reference_allocate(mu, t_i)
            for label in CASE_LABELS:
                assert mix.usage[label][i] == ref["usage"][label]
            assert mix.blind[i] == ref["blind"]
            assert mix.deficit[i] == ref["deficit"]
            assert _same(ratio[i], math.nan if ref["ratio"] is None else ref["ratio"])
            assert credit[i] == _reference_credit(ref["ratio"], b_i)

    def test_scalar_link_gives_scalars(self):
        mix = allocate(0.1, 0.01)
        assert np.ndim(mix.usage["B"]) == np.ndim(mix.blind) == np.ndim(mix.deficit) == 0
        assert np.ndim(info_per_error(mix)) == np.ndim(mix.fraction("B")) == 0
        assert attributed_info(mix, 0.01) == pytest.approx(0.0682843, abs=1e-6)

    def test_array_shapes(self):
        t = np.array([[1.0, 0.05], [0.01, 0.0]])
        mix = allocate(0.1, t)
        assert mix.required_rate.shape == mix.blind.shape == mix.deficit.shape == t.shape
        assert all(mix.usage[lb].shape == t.shape for lb in CASE_LABELS)
        assert all(np.ndim(mix.supply[lb]) == 0 for lb in CASE_LABELS)
        assert mix.deficit.tolist() == [[True, False], [False, False]]
        assert mix.fraction("blind")[1, 1] == 0.0  # nothing resent
        assert math.isnan(info_per_error(mix)[1, 1])

    @pytest.mark.parametrize("t_ab", [[0.5, 1.5], [0.5, -1e-9], [0.5, math.nan]])
    def test_invalid_t_in_an_array(self, t_ab):
        with pytest.raises(ValueError):
            allocate(0.1, np.array(t_ab))


@pytest.fixture
def allocate_calls(monkeypatch):
    """Counts the calls of strategy_a.allocate, wherever they come from."""
    calls = []
    real = strategy_a.allocate

    def counted(mu, t_ab):
        calls.append(np.shape(t_ab))
        return real(mu, t_ab)

    monkeypatch.setattr(strategy_a, "allocate", counted)
    return calls


class TestOneCallPerArray:
    def test_curve(self, allocate_calls):
        grid = distance_grid(0.0, 200.0, 1.0)
        table = keyrate.curve(EveModel.STRATEGY_A, SystemConfig(), grid)
        assert len(table) == 201
        assert allocate_calls == [(201,)]

    def test_regime_curve(self, allocate_calls):
        columns = regime_curve(0.1, 0.25, distance_grid(0.0, 120.0, 0.5))
        assert columns["distance_km"].shape == (241,)
        assert allocate_calls == [(241,)]

    def test_default_rates_run(self, allocate_calls, monkeypatch, tmp_path, capsys):
        # Three mu values, one curve each, and one max_distance: a grid pass
        # and a pass over its last bracket.  Strategy B and B-storage each
        # take one stealth solve per curve and per pass, and no scalar rate.
        counts = {"max_stealth_info": 0, "net_rate": 0}
        for module, name in ((strategy_b, "max_stealth_info"), (keyrate, "net_rate")):
            def counted(*args, _real=getattr(module, name), _name=name):
                counts[_name] += 1
                return _real(*args)
            monkeypatch.setattr(module, name, counted)
        assert main(["rates", "--out", str(tmp_path / "rates.csv")]) == 0
        assert len(allocate_calls) == 5
        assert counts == {"max_stealth_info": 6, "net_rate": 0}
