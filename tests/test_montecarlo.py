"""Tests for the pulse-level simulation: determinism and oracle agreement.

The fast tier runs a few hundred thousand to a few million pulses; each
statistical assertion states its false-alarm rate at its sample size, at
most 1e-3 per test.  The full 1e8 oracle run lives in the acceptance suite.
"""
import dataclasses
import math
import multiprocessing
import os
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import settings as hyp_settings
from hypothesis import strategies as st

from qkd_eve_lab import montecarlo
from qkd_eve_lab.config import ConfigError, SystemConfig
from qkd_eve_lab.core_stats import (
    BasisMode,
    ChannelParams,
    DetectorParams,
    SourceParams,
    poisson_pmf_array,
)
from qkd_eve_lab.keyrate import EveModel
from qkd_eve_lab.montecarlo import (
    _COL_BOB_DETECT,
    _COL_BOB_SPLIT,
    _COL_CHANNEL,
    _COL_DARK_0,
    _COL_DARK_1,
    _COL_EVE_AUX,
    _COL_EVE_BLIND,
    _COL_EVE_ERR,
    _COL_EVE_INTERCEPT,
    _COL_EVE_SPLIT,
    _COL_EVE_USE,
    _COL_N,
    _COL_PHOTONS,
    _COL_QBER_FLIP,
    BLOCK,
    PHOTON_CAP,
    _LOW_BITS,
    _RESEND_ERROR_PROB,
    _TRIALS,
    SimConfig,
    SimResult,
    _StrategyAPolicy,
    _Streams,
    _Tables,
    _active_ranks,
    _binomial_cdf_table,
    _binomial_from_u,
    _clicks,
    _halves_from_words,
    _lookup,
    _photons_from_u,
    _strategy_a_codes,
    simulate,
)
from qkd_eve_lab.montecarlo import _bernoulli_positions, _occupied_pulses
from qkd_eve_lab.strategy_a import CASE_LABELS, INTERMEDIATE_STATE_QBER, allocate
from qkd_eve_lab.strategy_b import (
    BeamsplitAttack,
    model_click_probs,
    sifted_info_model,
    solve_gamma,
)
from qkd_eve_lab.verify import (
    _QUANTITIES,
    FAMILY_ALPHA,
    Report,
    binomial_p_value,
    compare,
    holm_rejections,
    oracle_cases,
    oracle_suite,
)

N_FAST = 2_000_000
DATA = Path(__file__).parent / "data"


def _dark_positions(seed, column, block, length, p):
    return _bernoulli_positions(_Streams(seed), column, block, length, p)


def make_system(mu=0.1, length=60.0, eta=0.1, p_dark=0.0, qber_opt=0.0):
    return SystemConfig(
        source=SourceParams(mu=mu),
        channel=ChannelParams(alpha_ab=0.25, length_ab=length),
        detector=DetectorParams(eta_b=eta, p_dark=p_dark),
        qber_opt=qber_opt,
    )


class TestBlockStreams:
    def test_columns_are_distinct(self):
        columns = [_COL_N, _COL_PHOTONS, _COL_DARK_0, _COL_DARK_1]
        draws = [_Streams(123).stream(column, 0).random(32) for column in columns]
        assert len({d.tobytes() for d in draws}) == len(draws)

    def test_blocks_are_distinct(self):
        draws = [_Streams(123).stream(_COL_N, block).random(32) for block in range(4)]
        assert len({d.tobytes() for d in draws}) == len(draws)

    def test_same_key_same_draws(self):
        a = _Streams(123).stream(_COL_PHOTONS, 7).random(32)
        assert np.array_equal(a, _Streams(123).stream(_COL_PHOTONS, 7).random(32))
        assert not np.array_equal(a, _Streams(124).stream(_COL_PHOTONS, 7).random(32))


COLUMNS = sorted(v for k, v in vars(montecarlo).items() if k.startswith("_COL_"))


class TestStreamReset:
    """One generator repositioned by a counter reset gives the draws of a
    freshly built stream, whatever was drawn from it before."""

    SEED = 2**128 - 159

    @staticmethod
    def _fresh(seed, column, block, size):
        bitgen = np.random.Philox(key=seed, counter=[0, block, column, 1])
        return np.random.Generator(bitgen).random(size)

    def test_every_column_and_block(self):
        assert COLUMNS == list(range(16))
        streams = _Streams(self.SEED)
        for column in COLUMNS:
            for block in (0, 1, 2**20):
                expected = self._fresh(self.SEED, column, block, 40)
                assert np.array_equal(streams.stream(column, block).random(40), expected)

    def test_after_a_partial_draw_on_another_column(self):
        streams = _Streams(self.SEED)
        for column in COLUMNS:
            for block in (0, 1, 2**20):
                other = (column + 1) % len(COLUMNS)
                streams.stream(other, block).random(3)  # leaves Philox output buffered
                expected = self._fresh(self.SEED, column, block, 40)
                assert np.array_equal(streams.uniforms(column, block, 40), expected)
                streams.uniforms(other, block, 5)
                assert np.array_equal(streams.stream(column, block).random(40), expected)

    def test_draws_reuse_one_buffer(self, monkeypatch):
        """Uniform draws and the gap sums of ``_bernoulli_positions`` all
        land in ``streams.buffer``."""
        streams = _Streams(self.SEED)
        a = streams.uniforms(_COL_N, 0, 10)
        assert np.array_equal(a, self._fresh(self.SEED, _COL_N, 0, 10))
        assert np.shares_memory(a, streams.uniforms(_COL_PHOTONS, 3, BLOCK))
        sums = []
        cumsum = np.cumsum

        def recording_cumsum(a, *args, **kwargs):
            sums.append(a)
            return cumsum(a, *args, **kwargs)

        monkeypatch.setattr(np, "cumsum", recording_cumsum)
        at = _bernoulli_positions(streams, _COL_N, 0, BLOCK, 0.3)
        assert at.size > 0 and sums
        assert all(s.dtype == np.int64 and np.shares_memory(s, streams.buffer) for s in sums)
        assert not np.shares_memory(at, streams.buffer)


def _binomial_reference(n, u, cdf_table):
    """The searchsorted inverse CDF, one pass per photon number present."""
    out = np.zeros(n.shape, dtype=np.int64)
    where = np.flatnonzero(n)
    n_nz = n[where]
    u_nz = u[where]
    for nv in np.flatnonzero(np.bincount(n_nz)):
        mask = n_nz == nv
        k = np.searchsorted(cdf_table[nv], u_nz[mask], side="right")
        out[where[mask]] = np.minimum(k, nv)
    return out


def _fresh_binomial_table(p):
    table = np.ones((PHOTON_CAP + 1, PHOTON_CAP + 1))
    for n in range(PHOTON_CAP + 1):
        probs = [math.comb(n, k) * p**k * (1.0 - p) ** (n - k) for k in range(n + 1)]
        table[n, : n + 1] = np.cumsum(probs)
    return table


class TestBinomialFromU:
    """The sequential search draws what searchsorted on the row draws, for
    every u in [0, 1)."""

    @given(data=st.data())
    @hyp_settings(max_examples=300, deadline=None)
    def test_matches_searchsorted(self, data):
        p = data.draw(st.sampled_from([0.1, 0.3, 0.5]) | st.floats(0.0, 1.0))
        table = _binomial_cdf_table(p)
        entries = table[table < 1.0].tolist()
        u_values = st.floats(0.0, 1.0, exclude_max=True)
        if entries:  # on a table entry, or the float just below one
            u_values |= st.sampled_from(entries)
            u_values |= st.sampled_from(entries).map(lambda e: float(np.nextafter(e, 0.0)))
        size = data.draw(st.integers(0, 60))
        n = np.array(data.draw(st.lists(st.integers(0, PHOTON_CAP), min_size=size,
                                        max_size=size)), dtype=np.int64)
        u = np.array(data.draw(st.lists(u_values, min_size=size, max_size=size)),
                     dtype=np.float64)
        assert np.array_equal(_binomial_from_u(n, u, table), _binomial_reference(n, u, table))

    @pytest.mark.parametrize("p, n", [(0.1, 3), (0.3, 2)])
    def test_row_ending_off_one(self, p, n):
        # Rounding ends row 3 at p = 0.1 just above 1.0, so the row is not
        # monotone past column 3; at p = 0.3 row 2 ends just below 1.0.
        table = _binomial_cdf_table(p)
        assert table[n, n] != 1.0
        u = np.array([*table[n, : n + 1], *np.nextafter(table[n, : n + 1], 0.0),
                      np.nextafter(1.0, 0.0), 0.0])
        u = u[u < 1.0]
        n_arr = np.full(u.size, n, dtype=np.int64)
        assert np.array_equal(_binomial_from_u(n_arr, u, table),
                              _binomial_reference(n_arr, u, table))

    def test_vacuum_and_empty(self):
        table = _binomial_cdf_table(0.5)
        u = np.random.default_rng(3).random(1000)
        assert not _binomial_from_u(np.zeros(1000, dtype=np.int64), u, table).any()
        empty = _binomial_from_u(np.zeros(0, dtype=np.int64), np.zeros(0), table)
        assert empty.shape == (0,) and empty.dtype == np.int64

    def test_every_photon_number(self):
        n = np.repeat(np.arange(PHOTON_CAP + 1), 500)
        u = np.random.default_rng(4).random(n.size)
        for p in (0.0, 0.07, 0.5, 0.93, 1.0):
            table = _binomial_cdf_table(p)
            assert np.array_equal(_binomial_from_u(n, u, table), _binomial_reference(n, u, table))

    def test_table_is_built_once_and_read_only(self):
        table = _binomial_cdf_table(0.37)
        assert _binomial_cdf_table(0.37) is table
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 0.5
        assert table.tobytes() == _fresh_binomial_table(0.37).tobytes()


class TestFairCoins:
    """Fair coins read raw Philox words: one bit per u < 1/2 decision and a
    popcount of the low n bits of one 32-bit half-word per Binomial(n, 1/2)
    draw."""

    SEED = 2**128 - 159

    @staticmethod
    def _raw(seed, column, block, size):
        return np.random.Philox(key=seed, counter=[0, block, column, 1]).random_raw(size)

    @pytest.mark.parametrize("n", range(PHOTON_CAP + 1))
    def test_halves_is_binomial_over_every_low_bit_pattern(self, n):
        patterns = np.arange(2**n, dtype=np.uint32)
        high = np.random.default_rng(n).integers(0, 2**32 - 1, size=2**n, dtype=np.uint32,
                                                 endpoint=True) & ~_LOW_BITS[n]
        n_arr = np.full(2**n, n, dtype=np.int8)
        k = _halves_from_words(n_arr, patterns | high)
        assert k.dtype == np.int8
        assert np.array_equal(k, _halves_from_words(n_arr, patterns.copy()))
        cdf = np.cumsum(np.bincount(k, minlength=n + 1)) / 2**n
        assert np.array_equal(cdf, _binomial_cdf_table(0.5)[n, : n + 1])

    def test_draw_i_counts_the_low_n_bits_of_half_word_i(self):
        streams = _Streams(self.SEED)
        for size in (0, 1, 2, 7 * (PHOTON_CAP + 1)):
            n = np.resize(np.arange(PHOTON_CAP + 1, dtype=np.int8), size)
            streams.uniforms(_COL_N, 0, 3)  # another stream first
            words = self._raw(self.SEED, _COL_EVE_SPLIT, 5, -(-size // 2))
            expected = []
            for i, k in enumerate(n.tolist()):
                half_word = int(words[i // 2]) >> (32 * (i % 2)) & (2**32 - 1)  # low half first
                expected.append(bin(half_word & (2**k - 1)).count("1"))
            assert streams.halves(_COL_EVE_SPLIT, 5, n).tolist() == expected

    @given(size=st.integers(0, 700), column=st.sampled_from(COLUMNS),
           block=st.integers(0, 2**20))
    @hyp_settings(max_examples=100, deadline=None)
    def test_bit_i_of_word_i_over_64_decides_pulse_i(self, size, column, block):
        streams = _Streams(self.SEED)
        streams.halves(_COL_BOB_SPLIT, block, np.ones(3, dtype=np.int8))  # another stream first
        coins = streams.bits(column, block, size)
        words = self._raw(self.SEED, column, block, -(-size // 64))
        assert coins.dtype == bool and coins.shape == (size,)
        assert coins.tolist() == [bool(int(words[i // 64]) >> (i % 64) & 1)
                                  for i in range(size)]


def _photon_table(mu, truncated=True):
    """The zero-truncated photon-number CDF of ``_Tables``, or the planted
    untruncated one, whose first entry e^-mu is above 0."""
    if truncated:
        return _Tables.build(SimConfig(system=make_system(mu=mu))).photons
    return np.cumsum(poisson_pmf_array(mu, PHOTON_CAP))


def _photons_reference(u, photons):
    return np.minimum(np.searchsorted(photons, u, side="right"), PHOTON_CAP)


PHOTON_MUS = [0.02, 0.1, 0.5, 0.9]


class TestPhotonsFromU:
    """The sequential photon-number search draws what searchsorted on the
    table, capped at PHOTON_CAP, draws, for every u in [0, 1)."""

    @pytest.mark.parametrize("truncated", [True, False])
    @pytest.mark.parametrize("mu", PHOTON_MUS)
    def test_on_and_just_below_every_entry(self, mu, truncated):
        photons = _photon_table(mu, truncated)
        assert (photons[0] > 0) is not truncated
        u = np.concatenate([photons, np.nextafter(photons, 0.0), [0.0, np.nextafter(1.0, 0.0)]])
        u = u[u < 1.0]
        n = _photons_from_u(u, photons)
        assert n.dtype == np.int8
        assert np.array_equal(n, _photons_reference(u, photons))

    @given(data=st.data())
    @hyp_settings(max_examples=200, deadline=None)
    def test_matches_searchsorted(self, data):
        photons = _photon_table(data.draw(st.sampled_from(PHOTON_MUS)), data.draw(st.booleans()))
        entries = photons[photons < 1.0].tolist()
        u_values = (st.floats(0.0, 1.0, exclude_max=True) | st.sampled_from(entries)
                    | st.sampled_from(entries).map(lambda e: float(np.nextafter(e, 0.0))))
        u = np.array(data.draw(st.lists(u_values, max_size=60)), dtype=np.float64)
        assert np.array_equal(_photons_from_u(u, photons), _photons_reference(u, photons))


def _reference_clicks(bob_right, received_bit, k_det, k_split0):
    """The selections the bitwise click rule replaced."""
    detected = k_det > 0
    click0 = np.where(bob_right, detected & ~received_bit, k_split0 > 0)
    click1 = np.where(bob_right, detected & received_bit, k_split0 < k_det)
    return click0, click1


def _reference_strategy_a_probs(n, k_right, k_w0, resend_prob):
    """The resend and error probabilities by first-match selection, which the
    case and error code lookups replaced."""
    n_wrong = n - k_right
    right = k_right > 0
    both_bases = right & (n_wrong > 0)
    prob_a, prob_b, prob_c, prob_d = resend_prob
    resend = np.select([n == 1, both_bases, (k_w0 > 0) & (k_w0 < n_wrong)],
                       [prob_a, prob_b, prob_d], prob_c)
    error = np.select([~right, both_bases], [0.5, INTERMEDIATE_STATE_QBER], 0.0)
    return resend, error


class TestBranchFreeSelections:
    """The bitwise clicks and the table lookups of the strategy-A cases
    agree with the selections they replaced on every combination of counts
    up to n = 6 photons and 3 detected ones."""

    def test_clicks(self):
        combos = [(b, r, k, s) for b in (False, True) for r in (False, True)
                  for k in range(4) for s in range(k + 1)]
        bob_right, received_bit = (np.array(c, dtype=bool) for c in list(zip(*combos))[:2])
        k_det, k_split0 = (np.array(c, dtype=np.int8) for c in list(zip(*combos))[2:])
        clicks = _clicks(bob_right, received_bit, k_det, k_split0)
        for new, old in zip(clicks, _reference_clicks(bob_right, received_bit, k_det, k_split0)):
            assert new.dtype == bool
            assert np.array_equal(new, old)

    @pytest.mark.parametrize("resend_prob", [(0.1, 0.2, 0.3, 0.4), (1.0, 0.0, 0.25, 0.5)])
    def test_strategy_a_lookups(self, resend_prob):
        combos = [(n, k, w) for n in range(7) for k in range(n + 1) for w in range(n - k + 1)]
        n, k_right, k_w0 = (np.array(c, dtype=np.int8) for c in zip(*combos))
        case, error = _strategy_a_codes(n, k_right, k_w0)
        assert case.dtype == error.dtype == np.int8
        old_resend, old_error = _reference_strategy_a_probs(n, k_right, k_w0, resend_prob)
        assert np.array_equal(_lookup(np.array(resend_prob), case), old_resend)
        assert np.array_equal(_lookup(_RESEND_ERROR_PROB, error), old_error)
        # Every case occurs, and D also at n >= 3, where the goldens rarely draw it.
        assert set(case.tolist()) == {0, 1, 2, 3}
        assert 3 in case[n >= 3]

    @pytest.mark.parametrize("table", [_LOW_BITS, np.linspace(0.0, 1.0, PHOTON_CAP + 1)])
    def test_intp_lookups_equal_take_by_int8_codes(self, table):
        codes = np.random.default_rng(5).integers(0, table.size, 1000).astype(np.int8)
        for part in (codes, codes[:0], codes[::3]):
            got = _lookup(table, part)
            assert got.dtype == table.dtype
            assert got.tobytes() == np.take(table, part).tobytes()


class TestPhotonStatistics:
    """Occupied pulses placed by geometric gaps, with zero-truncated photon
    numbers, reproduce Poisson(mu) in each of n = 0, 1, 2 and >= 3."""

    BLOCKS = 64

    def _holm_rejected(self, mu, tables):
        counts = np.zeros(4, dtype=np.int64)
        streams = _Streams(2024)
        for block in range(self.BLOCKS):
            at, n = _occupied_pulses(streams, block, BLOCK, tables)
            assert at.size == n.size
            counts += np.bincount(np.minimum(n, 3), minlength=4)
            counts[0] += BLOCK - at.size
        pmf = poisson_pmf_array(mu, 2)
        expected = [*pmf, 1.0 - pmf.sum()]
        trials = self.BLOCKS * BLOCK
        assert counts.sum() == trials
        p_values = [binomial_p_value(int(c), trials, e) for c, e in zip(counts, expected)]
        return holm_rejections(p_values, 1e-4)

    @staticmethod
    def _tables(mu):
        cfg = SimConfig(system=make_system(mu=mu), eve_model=EveModel.NONE)
        return _Tables.build(cfg)

    @pytest.mark.parametrize("mu", [0.1, 0.5])
    def test_poisson_cells(self, mu):
        assert self._holm_rejected(mu, self._tables(mu)) == []

    @pytest.mark.parametrize("mu", [0.1, 0.5])
    def test_untruncated_table_is_rejected(self, mu):
        # Planted defect: the full Poisson CDF, so an occupied pulse can
        # draw n = 0 and the vacuum cell overfills.
        tables = self._tables(mu)
        planted = np.cumsum(poisson_pmf_array(mu, PHOTON_CAP))
        assert 0 in self._holm_rejected(mu, dataclasses.replace(tables, photons=planted))


class TestDarkPositions:
    """Dark counts are placed per block as an exact i.i.d. Bernoulli process."""

    @pytest.mark.parametrize("p, blocks", [(1e-6, 3000), (1e-3, 1000), (0.3, 200)])
    def test_bernoulli_process_over_many_blocks(self, p, blocks):
        counts = np.empty(blocks, dtype=np.int64)
        first_half = 0
        for block in range(blocks):
            at = _dark_positions(77, _COL_DARK_0, block, BLOCK, p)
            assert np.all(np.diff(at) > 0)  # sorted and unique
            assert at.size == 0 or (at[0] >= 0 and at[-1] < BLOCK)
            counts[block] = at.size
            first_half += int(np.count_nonzero(at < BLOCK // 2))
        total = int(counts.sum())
        # Per block the count is Binomial(BLOCK, p): the total over all blocks
        # is Binomial(blocks * BLOCK, p), and each dark count falls in the
        # first half of its block with probability 1/2.
        assert binomial_p_value(total, blocks * BLOCK, p) > 1e-4
        assert binomial_p_value(first_half, total, 0.5) > 1e-4
        # Sample variance against BLOCK p (1 - p), within 5 standard errors
        # of a sample variance with the binomial's excess kurtosis.  Correct
        # positions fail this with probability 2.6e-6 at p = 1e-6 and 1.5e-6
        # at p = 1e-3, computed exactly from the joint law of the counts' sum
        # and sum of squares, and 6.0e-6 at p = 0.3 from the chi-square law
        # of normal counts (199 degrees of freedom; a count's skewness there
        # is 0.003): about 1e-5 over the three cases, nearly all of it in the
        # upper tail.
        var = BLOCK * p * (1.0 - p)
        excess_kurtosis = (1.0 - 6.0 * p * (1.0 - p)) / var
        se = var * math.sqrt(2.0 / (blocks - 1) + excess_kurtosis / blocks)
        assert abs(counts.var(ddof=1) - var) <= 5.0 * se

    @pytest.mark.parametrize("p", [1e-300, 1e-6, 1e-3, 0.3, 0.9])
    def test_batched_gaps_equal_one_long_draw(self, p):
        """The capped int64 gap sums place what an uncapped float sum of
        one long draw places; at p = 1e-300 an uncapped gap exceeds 2^63."""
        log_q = math.log1p(-p)
        most = 0
        for block in range(200):
            at = _dark_positions(78, _COL_DARK_1, block, BLOCK, p)
            assert at.dtype == np.int64
            u = _Streams(78).stream(_COL_DARK_1, block).random(
                int(BLOCK * p + 10 * math.sqrt(BLOCK * p)) + 10)
            ref = np.cumsum(np.floor(np.log1p(-u) / log_q) + 1.0) - 1.0
            assert ref[-1] >= BLOCK  # the reference reaches past the block
            assert np.array_equal(at, ref[ref < BLOCK].astype(np.int64))
            most = max(most, at.size)
        if p == 1e-300:
            assert ref[0] > 2.0**63
        if p >= 1e-3:
            # The first batch holds ceil(BLOCK p) + 1 gaps, so a block with
            # more dark counts than ceil(BLOCK p) needed a second batch.
            assert most > math.ceil(BLOCK * p)

    def test_certain_and_impossible(self):
        assert _dark_positions(1, _COL_DARK_0, 0, 100, 0.0).size == 0
        assert np.array_equal(_dark_positions(1, _COL_DARK_0, 0, 100, 1.0), np.arange(100))


def _block_edge_kwargs(case):
    """Configs that reach every decision column: dark counts, optical error,
    strategy A blind-filling at 0 km and sparse at 20 km, and strategy B."""
    system = make_system(length=20.0, p_dark=1e-3, qber_opt=0.005)
    if case == "none_dark":
        return dict(system=system, eve_model=EveModel.NONE, distance_km=20.0)
    if case == "strategy_a_blind_fill":
        return dict(system=make_system(mu=0.2, length=0.0, p_dark=1e-3, qber_opt=0.005),
                    eve_model=EveModel.STRATEGY_A, distance_km=0.0)
    if case == "strategy_a_sparse":
        return dict(system=system, eve_model=EveModel.STRATEGY_A, distance_km=20.0,
                    attack_fraction=0.5)
    t_e = system.eve_t_e(20.0)
    gamma = solve_gamma(0.1, system.t_ab(20.0), 0.2, t_e)
    return dict(system=system, eve_model=EveModel.STRATEGY_B, distance_km=20.0,
                attack=BeamsplitAttack(lam=0.2, gamma=gamma, t_e=t_e))


def _golden_kwargs(case):
    """Small fixed-seed runs whose tallies are stored under tests/data: no
    Eve with dark counts, and in the ideal limits (0 km, a perfect detector,
    no dark counts); strategy A blind-filling at 0 km (dense), alone and
    with attack_fraction < 1; strategy A with attack_fraction < 1 at 20 km
    (the intercept and channel columns); strategy B with a shutter, and pure
    beam splitting over a lossless link at 0 km with a perfect detector."""
    system = make_system(length=20.0, p_dark=1e-3, qber_opt=0.005)
    if case == "none_dark":
        return dict(system=system, eve_model=EveModel.NONE, distance_km=20.0)
    if case == "none_perfect":
        return dict(system=make_system(mu=0.5, length=0.0, eta=1.0, qber_opt=0.005),
                    eve_model=EveModel.NONE, distance_km=0.0)
    if case == "strategy_b_certain":
        return dict(system=make_system(mu=0.5, length=0.0, eta=1.0, p_dark=1e-3,
                                       qber_opt=0.005),
                    eve_model=EveModel.STRATEGY_B, distance_km=0.0,
                    attack=BeamsplitAttack(lam=0.5, gamma=1.0, t_e=1.0))
    if case.startswith("strategy_a_0km"):
        return dict(system=make_system(mu=0.2, length=0.0, p_dark=1e-3, qber_opt=0.005),
                    eve_model=EveModel.STRATEGY_A, distance_km=0.0,
                    attack_fraction=0.6 if case.endswith("_fraction") else 1.0)
    if case == "strategy_a_fraction":
        return dict(system=system, eve_model=EveModel.STRATEGY_A, distance_km=20.0,
                    attack_fraction=0.6)
    return dict(system=make_system(mu=0.5, length=20.0, p_dark=1e-3, qber_opt=0.005),
                eve_model=EveModel.STRATEGY_B, distance_km=20.0,
                attack=BeamsplitAttack(lam=0.2, gamma=0.3, t_e=0.9))


GOLDEN_CASES = ("none_dark", "none_perfect", "strategy_a_0km", "strategy_a_0km_fraction",
                "strategy_a_fraction", "strategy_b_gamma", "strategy_b_certain")


def golden_csv(case, workers):
    sim = simulate(SimConfig(n_pulses=3 * BLOCK + 12_345, seed=8, batch_size=77_781,
                             workers=workers, **_golden_kwargs(case)))
    return "\n".join(sim.csv_lines()) + "\n"


class TestGoldenTallies:
    """Fixed-seed tallies match the stored copies byte for byte, so a change
    to any draw of the kernel shows, whatever the worker count."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("case", GOLDEN_CASES)
    def test_tallies_are_byte_identical(self, case, workers):
        assert golden_csv(case, workers) == (DATA / f"mc_{case}.csv").read_text()


class TestCertainDecisions:
    """A decision whose outcome is certain draws no uniform from its column:
    the channel at t = 1, the detector at eta_b = 1, the shutter at gamma =
    1, the optical flip at qber_opt = 0 and the dark counts at p_dark = 0."""

    SKIPPABLE = {_COL_CHANNEL, _COL_BOB_DETECT, _COL_EVE_USE, _COL_QBER_FLIP,
                 _COL_DARK_0, _COL_DARK_1}

    @staticmethod
    def _drawn_columns(monkeypatch, eve_model, distance, eta, attack=None, **system):
        drawn = set()
        stream = _Streams.stream

        def recording(self, column, block):
            drawn.add(column)
            return stream(self, column, block)

        monkeypatch.setattr(_Streams, "stream", recording)
        sim = simulate(SimConfig(system=make_system(mu=0.5, length=distance, eta=eta, **system),
                                 eve_model=eve_model, attack=attack, distance_km=distance,
                                 n_pulses=2 * BLOCK, seed=4))
        assert sim.sifted > 0
        return drawn

    @pytest.mark.parametrize("eve_model, attack", [
        (EveModel.NONE, None),
        (EveModel.STRATEGY_B, BeamsplitAttack(lam=0.5, gamma=1.0, t_e=1.0)),
    ])
    def test_certain_columns_are_never_drawn(self, monkeypatch, eve_model, attack):
        drawn = self._drawn_columns(monkeypatch, eve_model, 0.0, 1.0, attack)
        assert not drawn & self.SKIPPABLE

    @pytest.mark.parametrize("eve_model, attack", [
        (EveModel.NONE, None),
        (EveModel.STRATEGY_B, BeamsplitAttack(lam=0.5, gamma=0.5, t_e=0.9)),
    ])
    def test_uncertain_columns_are_drawn(self, monkeypatch, eve_model, attack):
        drawn = self._drawn_columns(monkeypatch, eve_model, 20.0, 0.5, attack,
                                    p_dark=1e-3, qber_opt=0.005)
        assert drawn >= self.SKIPPABLE - ({_COL_EVE_USE} if attack is None else set())


class TestOpticalFlips:
    """The optical-misalignment flips are a Bernoulli(qber_opt) process over
    the r pulses of a block that reach Bob's detectors, placed by geometric
    gaps from ``_COL_QBER_FLIP`` (``_bernoulli_positions``), not one
    uniform per reaching pulse."""

    QBER_OPT = 0.005
    SEED = 21
    N_PULSES = 4 * BLOCK + 12_345  # four whole blocks and a partial one

    def _run(self, monkeypatch):
        """A lossless no-Eve run with a perfect detector and no dark counts,
        where the reaching pulses are the occupied ones.  Returns, per block,
        the length and probability the flips were placed over and the flip
        count, and the uniforms each column drew."""
        placed, drawn = [], {}
        positions, stream = _bernoulli_positions, _Streams.stream

        class CountingRng:
            def __init__(self, rng, column):
                self.rng, self.column = rng, column

            def random(self, size=None, out=None):
                drawn[self.column] = drawn.get(self.column, 0) + (
                    size if out is None else out.size)
                return self.rng.random(size, out=out)

        def recording_positions(streams, column, block, length, p):
            at = positions(streams, column, block, length, p)
            if column == _COL_QBER_FLIP:
                placed.append((length, p, at.size))
            return at

        monkeypatch.setattr(montecarlo, "_bernoulli_positions", recording_positions)
        monkeypatch.setattr(_Streams, "stream", lambda self, column, block: CountingRng(
            stream(self, column, block), column))
        cfg = SimConfig(system=make_system(mu=0.5, length=0.0, eta=1.0, qber_opt=self.QBER_OPT),
                        eve_model=EveModel.NONE, distance_km=0.0, n_pulses=self.N_PULSES,
                        seed=self.SEED)
        assert simulate(cfg).sifted > 0
        monkeypatch.undo()
        tables = _Tables.build(cfg)
        occupied = [
            _occupied_pulses(_Streams(self.SEED), block, min(BLOCK, self.N_PULSES - block * BLOCK),
                             tables)[0].size
            for block in range(-(-self.N_PULSES // BLOCK))]
        assert [length for length, _, _ in placed] == occupied
        assert all(p == self.QBER_OPT for _, p, _ in placed)
        return placed, drawn

    def test_flip_count_is_binomial_over_the_reaching_pulses(self, monkeypatch):
        """The flips over the R reaching pulses of all five blocks, the last
        one partial, are Binomial(R, qber_opt).  The count must lie inside
        the equal-tailed binomial bound at level 1e-3: neither tail at the
        count is at most 5e-4 (``_inside_binomial_tails``).  So the test
        falsely alarms at a rate of at most 1e-3 at any R.  At this seed's R = 108,439 it accepts
        467 to 620 flips, a false-alarm rate of 9.1e-4, and accepts flips
        drawn at 2 qber_opt with probability 1e-53."""
        placed, _ = self._run(monkeypatch)
        reaching = sum(length for length, _, _ in placed)
        flips = sum(count for _, _, count in placed)
        assert 100_000 < reaching < 115_000
        assert _inside_binomial_tails(flips, reaching, self.QBER_OPT, 1e-3)

    def test_flip_column_draws_geometric_gaps_only(self, monkeypatch):
        """Per block the gaps drawn are the flips, plus at least one gap
        past the last reaching pulse and at most a last batch of
        ceil(r qber_opt) + 1: about qber_opt r gaps, never r uniforms."""
        placed, drawn = self._run(monkeypatch)
        flips = sum(count for _, _, count in placed)
        gaps = drawn[_COL_QBER_FLIP]
        assert flips + len(placed) <= gaps <= flips + sum(
            math.ceil(length * p) + 1 for length, p, _ in placed)
        assert gaps < 3 * self.QBER_OPT * sum(length for length, _, _ in placed)


class TestStrategyADrawSizes:
    def test_photon_splits_are_drawn_on_occupied_pulses_only(self, monkeypatch):
        """A blind-filled block draws no column over the whole block: the
        eavesdropper's photon-number columns and the channel draw for the
        occupied pulses, and ``_COL_EVE_ERR`` for the active ones, the
        union of the occupied, blind-resend and dark-count pulses."""
        sizes = {}
        halves, uniforms, bits = _Streams.halves, _Streams.uniforms, _Streams.bits

        def recording_halves(self, column, block, n):
            sizes[column] = n.size
            return halves(self, column, block, n)

        def recording_uniforms(self, column, block, size):
            sizes[column] = size
            return uniforms(self, column, block, size)

        def recording_bits(self, column, block, size):
            sizes[column] = size
            return bits(self, column, block, size)

        monkeypatch.setattr(_Streams, "halves", recording_halves)
        monkeypatch.setattr(_Streams, "uniforms", recording_uniforms)
        monkeypatch.setattr(_Streams, "bits", recording_bits)
        cfg = SimConfig(system=make_system(mu=0.2, length=1.0, p_dark=1e-3),
                        eve_model=EveModel.STRATEGY_A, distance_km=1.0, attack_fraction=0.6,
                        n_pulses=BLOCK, seed=6)
        policy = montecarlo._strategy_a_policy(cfg)
        assert policy.blind_prob > 0
        assert simulate(cfg).sifted > 0
        streams = _Streams(6)
        occupied = _occupied_pulses(streams, 0, BLOCK, _Tables.build(cfg))[0]
        blind = _bernoulli_positions(streams, _COL_EVE_BLIND, 0, BLOCK,
                                     policy.blind_prob * policy.attack_fraction)
        darks = [_bernoulli_positions(streams, column, 0, BLOCK, 1e-3)
                 for column in (_COL_DARK_0, _COL_DARK_1)]
        assert 0 < occupied.size < BLOCK // 4
        assert blind.size > 0 and all(dark.size > 0 for dark in darks)
        assert max(sizes.values()) < BLOCK
        for column in (_COL_EVE_USE, _COL_EVE_INTERCEPT, _COL_EVE_SPLIT, _COL_EVE_AUX,
                       _COL_CHANNEL):
            assert sizes[column] == occupied.size
        assert sizes[_COL_EVE_ERR] == np.unique(np.concatenate([occupied, blind, *darks])).size

    def test_a_blind_position_on_an_occupied_pulse_is_void(self):
        """Blind resends fill vacuum pulses only.  With a blind position at
        every pulse and no resend of an occupied one, over a lossless link
        with a perfect detector and no dark counts, every vacuum pulse and
        no occupied one clicks, and Eve learns nothing."""
        cfg = SimConfig(system=make_system(mu=0.2, length=0.0, eta=1.0),
                        eve_model=EveModel.STRATEGY_A, distance_km=0.0, n_pulses=BLOCK,
                        seed=12)
        policy = _StrategyAPolicy(np.zeros(4), blind_prob=1.0, attack_fraction=1.0)
        tables = _Tables.build(cfg)
        occupied = _occupied_pulses(_Streams(12), 0, BLOCK, tables)[0].size
        assert occupied > 0
        sim = montecarlo._simulate_block(cfg, policy, tables, _Streams(12), 0)
        assert sim.singles == BLOCK - occupied
        assert sim.eve_known == 0


def _active_ranks_reference(length, *sets):
    """The union sorted with repeats dropped, and each set searched in it."""
    active = np.unique(np.concatenate(sets))
    return active.size, [np.searchsorted(active, at) for at in sets]


class TestActiveRanks:
    """The one mask merge of the active pulses ranks every set as sorting
    their union and searching each set in it does."""

    @hyp_settings(max_examples=60, deadline=None)
    @given(length=st.sampled_from([1, 2, 12_345, BLOCK]) | st.integers(1, BLOCK),
           densities=st.lists(st.sampled_from([0.0, 1e-3, 0.02, 0.2, 1.0]),
                               min_size=1, max_size=4),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_the_sort_reference(self, length, densities, seed):
        rng = np.random.default_rng(seed)
        sets = [np.flatnonzero(rng.random(length) < p) for p in densities]
        m, ranks = _active_ranks(length, *sets)
        m_ref, ranks_ref = _active_ranks_reference(length, *sets)
        assert m == m_ref
        for at, rank, rank_ref in zip(sets, ranks, ranks_ref):
            assert rank.shape == at.shape
            assert np.array_equal(rank, rank_ref)


class TestBlockMemory:
    def test_dense_strategy_a_peak_allocation(self):
        """A blind-filled block computes strategy A on its active pulses
        only, about a fifth of the block here, and keeps counts and ranks
        narrow (int8 and int32), so a 4-block run peaks at about 1.1 MiB
        under tracemalloc, below the 3 MiB bound; it peaked at 1.4 MiB when
        such a block drew over every pulse, and int64 and float64
        temporaries over whole blocks would take about 5.7 MB."""
        cfg = SimConfig(system=make_system(mu=0.2, length=0.0, eta=1.0, qber_opt=0.005),
                        eve_model=EveModel.STRATEGY_A, distance_km=0.0, n_pulses=4 * BLOCK,
                        seed=3)
        assert montecarlo._strategy_a_policy(cfg).blind_prob > 0
        simulate(cfg)  # warm-up: the binomial tables are cached
        tracemalloc.start()
        try:
            simulate(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2**20


class TestDeterminism:
    @pytest.mark.parametrize(
        "case", ["none_dark", "strategy_a_blind_fill", "strategy_a_sparse", "strategy_b"])
    def test_tallies_independent_of_chunking_across_block_edges(self, case):
        n_pulses = 3 * BLOCK + 12_345  # the last block is partial
        results = [
            simulate(SimConfig(n_pulses=n_pulses, seed=31, batch_size=batch,
                               workers=workers, **_block_edge_kwargs(case)))
            for batch in (4, 1000, 77_780, 2**16, 2**20)
            for workers in (1, 2)
        ]
        assert results[0].n_pulses == n_pulses
        assert results[0].sifted > 0
        assert all(r == results[0] for r in results[1:])

    def test_same_seed_same_result(self):
        cfg = SimConfig(system=make_system(), eve_model=EveModel.NONE,
                        n_pulses=300_000, seed=9)
        assert simulate(cfg) == simulate(cfg)

    def test_batch_size_invariance(self):
        base = SimConfig(system=make_system(), eve_model=EveModel.NONE,
                         n_pulses=500_000, seed=9, batch_size=2**20)
        odd = SimConfig(system=make_system(), eve_model=EveModel.NONE,
                        n_pulses=500_000, seed=9, batch_size=77_780)
        assert simulate(base) == simulate(odd)

    def test_worker_count_invariance(self):
        kwargs = dict(system=make_system(), eve_model=EveModel.NONE,
                      n_pulses=400_000, seed=9, batch_size=2**17)
        serial = simulate(SimConfig(workers=1, **kwargs))
        parallel = simulate(SimConfig(workers=3, **kwargs))
        assert serial == parallel
        assert serial.csv_lines() == parallel.csv_lines()

    def test_different_seeds_differ(self):
        cfg_a = SimConfig(system=make_system(), eve_model=EveModel.NONE,
                          n_pulses=300_000, seed=1)
        cfg_b = SimConfig(system=make_system(), eve_model=EveModel.NONE,
                          n_pulses=300_000, seed=2)
        assert simulate(cfg_a) != simulate(cfg_b)


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="planted faults reach workers only by fork")
class TestFanOut:
    """``simulate`` starts one process per run of chunks, hands each its
    result or exception back, and leaves no process running."""

    KWARGS = dict(system=make_system(), eve_model=EveModel.NONE, seed=9, batch_size=BLOCK)

    @pytest.fixture
    def started(self, monkeypatch):
        """The (start, stop) pulse range of each worker process started."""
        ranges = []

        class Recording(multiprocessing.Process):
            def __init__(self, target, args):
                super().__init__(target=target, args=args)
                self.pulses = args[-2:]

            def start(self):
                super().start()
                ranges.append(self.pulses)

        monkeypatch.setattr(multiprocessing, "Process", Recording)
        yield ranges
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("blocks, workers, runs", [
        (2, 4, [(0, 1), (1, 2)]),
        (3, 2, [(0, 1), (1, 3)]),
        (5, 2, [(0, 2), (2, 5)]),
        (5, 3, [(0, 1), (1, 3), (3, 5)]),
        (4, 1, []),
        (1, 3, []),
    ], ids=["2blocks-4workers", "3blocks-2workers", "5blocks-2workers", "5blocks-3workers",
            "4blocks-1worker", "1block-3workers"])
    def test_one_process_per_run_of_chunks(self, started, blocks, workers, runs):
        kwargs = dict(self.KWARGS, n_pulses=blocks * BLOCK)
        assert simulate(SimConfig(workers=workers, **kwargs)) == simulate(SimConfig(**kwargs))
        assert started == [(a * BLOCK, b * BLOCK) for a, b in runs]

    @staticmethod
    def _plant(monkeypatch, fault):
        """Run ``fault`` in place of the first run's simulation, blocks 0 to
        7; the second run first sleeps 0.2 s, so it is still running when
        the first fails."""
        chunk = montecarlo._simulate_chunk

        def planted(cfg, policy, start, stop):
            if start == 0:
                fault()
            time.sleep(0.2)
            return chunk(cfg, policy, start, stop)

        monkeypatch.setattr(montecarlo, "_simulate_chunk", planted)
        return SimConfig(workers=2, n_pulses=17 * BLOCK, **TestFanOut.KWARGS)

    def test_worker_exception_reaches_the_caller(self, started, monkeypatch):
        def fault():
            raise ZeroDivisionError("planted in a worker")

        with pytest.raises(ZeroDivisionError, match="^planted in a worker$"):
            simulate(self._plant(monkeypatch, fault))
        assert len(started) == 2

    def test_worker_without_a_result_names_its_blocks(self, started, monkeypatch):
        with pytest.raises(RuntimeError, match=r"blocks 0 to 7 exited with code 3 without"):
            simulate(self._plant(monkeypatch, lambda: os._exit(3)))
        assert len(started) == 2


def _z(count, trials, p):
    return (count - trials * p) / math.sqrt(trials * p * (1 - p))


def _inside_binomial_tails(count, trials, p, alpha):
    """Whether ``count`` lies inside the equal-tailed Binomial(trials, p)
    bound at level ``alpha``: neither tail at ``count`` is at most alpha / 2.
    ``binomial_p_value`` doubles the far tail, so this is its value above
    ``alpha``, and a Binomial(trials, p) tally falls outside with
    probability at most ``alpha`` at any ``trials``."""
    return binomial_p_value(count, trials, p) > alpha


def _lower_tail_bound(trials, p, alpha):
    """The largest c with P(X < c) <= alpha for X ~ Binomial(trials, p), so
    a tally below c falsely alarms at a rate of at most alpha."""
    tail = 0.0
    for c in range(trials + 1):
        tail += math.comb(trials, c) * p**c * (1.0 - p) ** (trials - c)  # P(X <= c)
        if tail > alpha:
            return c
    return trials + 1


class TestCleanChannel:
    def test_singles_and_sifting_at_60km(self):
        """The singles and sifted tallies of 2e6 pulses are binomial, and so
        are the errors given the sifted count, about 316.  Each must lie
        inside its binomial tail bound at level 1e-3 / 3, which falsely
        alarms at a rate of 2.9e-4 on the singles, 2.8e-4 on the sifted
        bits and 3.5e-5 on the errors at 313 sifted bits: at most 6.1e-4
        together.  The |z| <= 3 bounds these replace had rates of 2.7e-3,
        2.7e-3 and 5.3e-3."""
        system = make_system(qber_opt=0.005)
        sim = simulate(SimConfig(system=system, eve_model=EveModel.NONE,
                                 n_pulses=N_FAST, seed=101))
        x = 0.1 * system.t_ab(60.0) * 0.1
        alpha = 1e-3 / 3
        assert _inside_binomial_tails(sim.singles, sim.n_pulses, -math.expm1(-x), alpha)
        assert _inside_binomial_tails(sim.sifted, sim.n_pulses, -math.expm1(-x) / 2, alpha)
        assert _inside_binomial_tails(sim.errors, sim.sifted, 0.005, alpha)

    def test_zero_length_perfect_detectors(self):
        """The sifted tally of 4e5 pulses must lie inside its binomial tail
        bound at level 1e-3, a false-alarm rate of 9.9e-4 at this size
        (2.7e-3 for the |z| <= 3 bound it replaces).  Without an optical
        error or dark counts nothing can flip a bit."""
        system = make_system(length=0.0, eta=1.0)
        sim = simulate(SimConfig(system=system, eve_model=EveModel.NONE,
                                 distance_km=0.0, n_pulses=400_000, seed=102))
        p = -math.expm1(-0.1)
        assert _inside_binomial_tails(sim.sifted, sim.n_pulses, p / 2, 1e-3)
        assert sim.errors == 0

    def test_coincidences_at_short_distance(self):
        """About 7.9 wrong-basis coincidences are expected in 2e6 pulses.
        The tally must lie inside its binomial tail bound at level 1e-3,
        1 to 19 counts here, a false-alarm rate of 5.9e-4 (3.2e-3 for the
        |z| <= 3 bound it replaces, which failed from 17 counts on)."""
        system = make_system(length=10.0)
        sim = simulate(SimConfig(system=system, eve_model=EveModel.NONE,
                                 distance_km=10.0, n_pulses=N_FAST, seed=103))
        x = 0.1 * system.t_ab(10.0) * 0.1
        p_c = 0.5 * math.expm1(-x / 2) ** 2
        assert _inside_binomial_tails(sim.coincidences, sim.n_pulses, p_c, 1e-3)
        # right-basis pulses cannot coincide without dark counts
        assert sim.coincidences_all == sim.coincidences

    def test_dark_counts_dominate_long_links(self):
        """Clicks are nearly pure noise at 200 km: the expected QBER is
        p_dark / (p_s + 2 p_dark) = 0.4975 on about 20 sifted bits.

        The errors must reach the one-sided binomial lower-tail bound of
        that QBER given the sifted count, so the test falsely alarms at a
        rate of at most 1e-3 at any sifted count: at 20 sifted bits it
        needs 3 errors, at a false-alarm rate of 2.2e-4.  Its power against
        the dark-free channel, whose QBER is qber_opt = 0 so that it makes
        no error, is 1 wherever the bound needs an error, that is from 11
        sifted bits on.
        """
        system = make_system(length=200.0, p_dark=1e-5)
        sim = simulate(SimConfig(system=system, eve_model=EveModel.NONE,
                                 distance_km=200.0, n_pulses=N_FAST, seed=104))
        p_s = -math.expm1(-0.1 * system.t_ab(200.0) * 0.1)
        qber = system.detector.p_dark / (p_s + 2 * system.detector.p_dark)
        assert qber == pytest.approx(0.4975, abs=5e-5)
        assert _lower_tail_bound(20, qber, 1e-3) == 3
        assert _lower_tail_bound(10, qber, 1e-3) == 0 < _lower_tail_bound(11, qber, 1e-3)
        assert sim.errors >= _lower_tail_bound(sim.sifted, qber, 1e-3)


def _strategy_a_classes(mu, t_ab):
    """The classes of pulse that the simulated strategy A tells apart, at
    attack_fraction = 1: (probability, resend probability, error
    probability before the optical flip, whether Eve learns the bit), with
    the exact Poisson photon numbers up to ``PHOTON_CAP`` and the resend
    probabilities of ``allocate``."""
    mix = allocate(mu, t_ab)
    resend = {x: mix.usage[x] / mix.supply[x] for x in CASE_LABELS}
    p0 = math.exp(-mu)
    classes = [
        (p0, min(1.0, mix.blind / p0), 0.5, False),  # blind state
        (mu * p0 / 2, resend["A"], 0.0, True),  # one photon, Eve's basis right
        (mu * p0 / 2, resend["A"], 0.5, False),  # one photon, Eve's basis wrong
    ]
    for n in range(2, PHOTON_CAP + 1):
        pn = math.exp(n * math.log(mu) - mu - math.lgamma(n + 1))
        h = 0.5**n  # all n photons in one given basis
        classes += [
            (pn * (1 - 2 * h), resend["B"], INTERMEDIATE_STATE_QBER, True),  # both bases
            (pn * h, resend["C"], 0.0, True),  # all in the right basis
            (pn * h * 2 * h, resend["C"], 0.5, False),  # all wrong, one detector
            (pn * h * (1 - 2 * h), resend["D"], 0.5, False),  # all wrong, both detectors
        ]
    return classes


class TestStrategyA:
    def test_pure_b_regime(self):
        """Given the sifted count, about 400, the errors are binomial at the
        intermediate-state QBER, and the singles of 8e6 pulses are binomial
        at mu t_ab eta_b.  Each must lie inside its binomial tail bound at
        level 5e-4: false-alarm rates of 4.1e-4 on the errors at 388 sifted
        bits and 4.6e-4 on the singles, at most 8.7e-4 together; the |z| <=
        3 bounds these replace had rates of 2.7e-3 and 2.8e-3.  The
        simulated resend rate is 0.02% below mu t_ab, since the policy
        divides each class's usage by its second-order supply, which moves
        the singles' rate by less than 1e-5."""
        system = make_system(length=80.0)
        sim = simulate(SimConfig(system=system, eve_model=EveModel.STRATEGY_A,
                                 distance_km=80.0, n_pulses=8_000_000, seed=105))
        assert sim.eve_known == sim.sifted  # class B knows every resent bit
        assert _inside_binomial_tails(sim.errors, sim.sifted, INTERMEDIATE_STATE_QBER, 5e-4)
        assert _inside_binomial_tails(sim.singles, sim.n_pulses,
                                      0.1 * system.t_ab(80.0) * 0.1, 5e-4)

    def test_mixed_regime_error_rate_between_cases(self):
        """At 20 km the fill mixes classes A to D with no blind state.  By
        the exact classes, Eve resends a share 0.0316 of the pulses, so
        about 3,158 are sifted; the expected QBER is 0.2376 and she knows a
        share 0.5468 of the sifted bits.  Given the sifted count, the errors
        and the known bits are binomial.  At 3,158 sifted bits the QBER
        bounds falsely alarm at a rate of 2.8e-132 (at or below Q_B / 2)
        and 2.6e-223 (at or above 1/2), the known-bit bounds at
        0.4532^3158 and 0.5468^3158, both below 1e-800: every rate is far
        below 1e-3.
        """
        system = make_system(length=20.0)
        classes = _strategy_a_classes(0.1, system.t_ab(20.0))
        p_resend = sum(p * r for p, r, _, _ in classes)
        assert p_resend == pytest.approx(0.0316, abs=5e-5)
        assert N_FAST * p_resend * 0.1 / 2 == pytest.approx(3158, abs=0.5)
        assert sum(p * r * e for p, r, e, _ in classes) / p_resend == pytest.approx(
            0.2376, abs=5e-5)
        assert sum(p * r for p, r, _, knows in classes if knows) / p_resend == pytest.approx(
            0.5468, abs=5e-5)
        sim = simulate(SimConfig(system=system, eve_model=EveModel.STRATEGY_A,
                                 distance_km=20.0, n_pulses=N_FAST, seed=106))
        q, _ = sim.estimate("errors")
        # mixture of classes A through D: error rate between B's and D's
        assert INTERMEDIATE_STATE_QBER / 2 < q < 0.5
        assert 0 < sim.eve_known < sim.sifted

    def test_attack_fraction_scales_errors(self):
        """Untouched pulses dilute the created errors by the pass-through
        share.  At attack_fraction = 1/2 half the pulses are intercepted and
        resent at the rate of the full attack, and the other half reach Bob
        through the fiber without error, so the QBER is Q_B a / (a + b),
        with a and b the two halves' click rates: Q_B / 2 to within 1e-4
        (relative).

        Given the sifted counts, Binomial(1.25e7, 5.0e-5) on each run (about
        625), the errors are binomial at Q_B and at that diluted QBER.  Each
        must lie inside its binomial tail bound at level 5e-4.  Summed over
        the sifted counts, the exact false-alarm rates are 4.1e-4 on the full
        run and 3.8e-4 on the half run, at most 7.9e-4 together.  A half run
        that ignored attack_fraction, at QBER Q_B, would pass its bound with
        probability 7.3e-3, so the test fails it with probability 0.993; at
        the earlier 4e6 pulses (about 200 sifted bits) it passed with
        probability 0.52.
        """
        system = make_system(length=80.0)
        p_resend = sum(p * r for p, r, _, _ in _strategy_a_classes(0.1, system.t_ab(80.0)))
        resent = 0.5 * p_resend * 0.1
        untouched = 0.5 * -math.expm1(-0.1 * system.t_ab(80.0) * 0.1)
        q_half_model = INTERMEDIATE_STATE_QBER * resent / (resent + untouched)
        assert q_half_model == pytest.approx(INTERMEDIATE_STATE_QBER / 2, rel=1e-4)
        full = simulate(SimConfig(system=system, eve_model=EveModel.STRATEGY_A,
                                  distance_km=80.0, n_pulses=12_500_000, seed=107))
        half = simulate(SimConfig(system=system, eve_model=EveModel.STRATEGY_A,
                                  distance_km=80.0, attack_fraction=0.5,
                                  n_pulses=12_500_000, seed=107))
        assert _inside_binomial_tails(full.errors, full.sifted, INTERMEDIATE_STATE_QBER, 5e-4)
        assert _inside_binomial_tails(half.errors, half.sifted, q_half_model, 5e-4)

    def test_deficit_policy_guard(self):
        """At 0 km Eve runs in deficit and resends a share mu = 0.1 of the
        pulses, blind states included; with eta_b = 0.1 a pulse is sifted
        with probability 0.005, so the test falsely alarms at a rate of
        (1 - 0.005)^200000, about 1e-435."""
        system = make_system(length=0.0)
        p_resend = sum(p * r for p, r, _, _ in _strategy_a_classes(0.1, 1.0))
        assert p_resend == pytest.approx(0.1, rel=1e-9)
        cfg = SimConfig(system=system, eve_model=EveModel.STRATEGY_A,
                        distance_km=0.0, n_pulses=200_000, seed=108)
        sim = simulate(cfg)
        assert sim.sifted > 0

    def test_blind_fill_matches_closed_form(self):
        """At 0 km with mu = 0.2 the allocation runs in full deficit: Eve
        resends every class she can and fills vacuum pulses with blind
        states, so vacuum pulses click too.  With t_ab = eta_b = 1 and no
        dark counts each resent photon clicks exactly one detector, so
        P(click) = P(resend) = 0.2, and the QBER is 0.2710.

        The singles are Binomial(10^6, 0.2), and given the sifted count,
        about 10^5, the errors are binomial.  By the exact binomial tails,
        |z| <= 4 falsely alarms at a rate of 6.3e-5 on the singles and
        6.4e-5 on the errors at 10^5 sifted bits (6.3e-5 to 6.4e-5 from
        98,000 to 102,000), at most 1.3e-4 together; both are below 1e-3.
        """
        mu, qber_opt = 0.2, 0.005
        mix = allocate(mu, 1.0)
        assert mix.deficit and mix.blind > 0
        classes = _strategy_a_classes(mu, 1.0)
        p_click = sum(p * r for p, r, _, _ in classes)
        e = sum(p * r * err for p, r, err, _ in classes) / p_click
        qber = e * (1 - qber_opt) + (1 - e) * qber_opt
        assert p_click == pytest.approx(0.2, rel=1e-9)
        assert qber == pytest.approx(0.2710, abs=5e-5)

        system = make_system(mu=mu, length=0.0, eta=1.0, qber_opt=qber_opt)
        sim = simulate(SimConfig(system=system, eve_model=EveModel.STRATEGY_A,
                                 distance_km=0.0, n_pulses=10**6, seed=113))
        assert abs(_z(sim.singles, sim.n_pulses, p_click)) <= 4
        assert abs(_z(sim.errors, sim.sifted, qber)) <= 4


class TestStrategyB:
    def test_pure_beamsplitting_matches_clean_run(self):
        """With the shutter always open and a link of twice t_ab behind a
        half-tap, each photon reaches Bob with probability t_ab, so both
        runs' singles are Binomial(2e6, p) with the same p.  Given their
        total T, the attacked run's singles are then hypergeometric, which
        Binomial(T, 1/2) matches to a relative variance of 3e-4 at T of
        about 1,250.  With the errors and the known bits given the sifted
        count, about 320, each must lie inside its binomial tail bound at
        level 1e-3 / 3: false-alarm rates of 3.1e-4 on the singles (under
        the exact hypergeometric law too) at T = 1,242, 5.3e-5 on the errors
        and 7.9e-5 on the known bits at 330 sifted bits, at most 4.4e-4
        together.  The bounds these replace, |difference| <= 3 sqrt(T) and
        |z| <= 3, had rates of 2.7e-3, 6.8e-3 and 3.5e-3."""
        system = make_system(qber_opt=0.005)
        t_ab = system.t_ab(60.0)
        attack = BeamsplitAttack(lam=0.5, gamma=1.0, t_e=2 * t_ab)
        with_eve = simulate(SimConfig(system=system, eve_model=EveModel.STRATEGY_B,
                                      attack=attack, n_pulses=N_FAST, seed=109))
        without = simulate(SimConfig(system=system, eve_model=EveModel.NONE,
                                     n_pulses=N_FAST, seed=110))
        alpha = 1e-3 / 3
        assert _inside_binomial_tails(with_eve.singles, with_eve.singles + without.singles,
                                      0.5, alpha)
        assert _inside_binomial_tails(with_eve.errors, with_eve.sifted, 0.005, alpha)
        expected_info = sifted_info_model(attack, 0.1)
        assert _inside_binomial_tails(with_eve.eve_known, with_eve.sifted, expected_info, alpha)

    def test_blocking_shifts_photon_statistics(self):
        """The shutter setting matches the single-photon singles term, so in
        the exact model (``model_click_probs``) the singles stay within 1%
        of the clean rate (0.81% above it), while the wrong-basis
        coincidences rise 28% above it.

        In 8e6 pulses the singles and the coincidences, about 12.8, must
        each lie inside the binomial tail bound of the exact model at level
        5e-4: false-alarm rates of 5.0e-4 and 1.9e-4, at most 6.9e-4
        together.  The bounds these replace tested the clean rates: |z| <=
        3.5 on the singles falsely alarmed at a rate of 1.4e-2 under the
        exact model, and z > 0 on the coincidences at 0.18, since at this
        size the excess is 2.8 counts.  The slow tier shows the excess at
        1e9 pulses.
        """
        system = make_system(length=20.0)
        t_ab = system.t_ab(20.0)
        t_e = system.eve_t_e(20.0)
        gamma = solve_gamma(0.1, t_ab, 0.2, t_e)
        attack = BeamsplitAttack(lam=0.2, gamma=gamma, t_e=t_e)
        x = 0.1 * t_ab * 0.1
        p_click, p_coinc = model_click_probs(attack, 0.1, 0.1)
        assert p_click == pytest.approx(-math.expm1(-x), rel=0.01)
        assert p_coinc > 1.25 * 0.5 * math.expm1(-x / 2) ** 2
        sim = simulate(SimConfig(system=system, eve_model=EveModel.STRATEGY_B,
                                 attack=attack, distance_km=20.0,
                                 n_pulses=8_000_000, seed=111))
        assert _inside_binomial_tails(sim.singles, sim.n_pulses, p_click, 5e-4)
        assert _inside_binomial_tails(sim.coincidences, sim.n_pulses, p_coinc, 5e-4)

    @pytest.mark.skipif(
        not os.environ.get("QKD_EVE_LAB_SLOW"),
        reason="desk-scale statistical tier; set QKD_EVE_LAB_SLOW=1 to run",
    )
    def test_coincidence_increase_is_significant_at_scale(self):
        system = make_system(length=20.0)
        t_ab = system.t_ab(20.0)
        t_e = system.eve_t_e(20.0)
        gamma = solve_gamma(0.1, t_ab, 0.2, t_e)
        attack = BeamsplitAttack(lam=0.2, gamma=gamma, t_e=t_e)
        sim = simulate(SimConfig(system=system, eve_model=EveModel.STRATEGY_B,
                                 attack=attack, distance_km=20.0,
                                 n_pulses=10**9, seed=112, workers=4))
        x = 0.1 * t_ab * 0.1
        p_c_clean = 0.5 * math.expm1(-x / 2) ** 2
        assert _z(sim.coincidences, sim.n_pulses, p_c_clean) > 3.0


class TestValidation:
    def test_strategy_b_needs_attack(self):
        with pytest.raises(ConfigError):
            SimConfig(system=make_system(), eve_model=EveModel.STRATEGY_B,
                      n_pulses=100, seed=1)

    @pytest.mark.parametrize("distance", [float("nan"), -1.0])
    def test_nan_or_negative_distance_rejected(self, distance):
        with pytest.raises(ConfigError, match="distance_km"):
            SimConfig(system=SystemConfig(), distance_km=distance, n_pulses=70000)

    def test_mu_above_one_rejected(self):
        SimConfig(system=make_system(mu=1.0))
        with pytest.raises(ConfigError, match="source.mu"):
            SimConfig(system=make_system(mu=math.nextafter(1.0, 2.0)))

    def test_unlimited_is_not_simulable(self):
        with pytest.raises(ConfigError):
            SimConfig(system=make_system(), eve_model=EveModel.UNLIMITED,
                      n_pulses=100, seed=1)

    def test_passive_mode_rejected(self):
        system = SystemConfig(
            source=SourceParams(mu=0.1),
            channel=ChannelParams(),
            detector=DetectorParams(eta_b=0.1, n_gated=4),
            basis_mode=BasisMode.PASSIVE,
        )
        with pytest.raises(ConfigError):
            SimConfig(system=system, eve_model=EveModel.NONE, n_pulses=100, seed=1)


class TestCompare:
    def test_z_scores_and_report(self):
        sim = SimResult(n_pulses=10_000, singles=100, coincidences=0,
                        coincidences_all=0, sifted=50, errors=25, eve_known=0)
        report = compare("demo", sim, {"p_single": 0.01, "qber": 0.5})
        assert report.all_pass
        assert len(report.checks) == 2
        assert all("PASS" in line for line in report.lines()[:-1])

    def test_failing_check(self):
        sim = SimResult(n_pulses=10_000, singles=500, coincidences=0,
                        coincidences_all=0, sifted=250, errors=0, eve_known=0)
        report = compare("demo", sim, {"p_single": 0.01})
        assert not report.all_pass
        assert report.checks[0].z > 3

    def test_certain_outcomes(self):
        sim = SimResult(n_pulses=100, singles=0, coincidences=0,
                        coincidences_all=0, sifted=10, errors=0, eve_known=10)
        report = compare("demo", sim, {"eve_fraction": 1.0, "qber": 0.0})
        assert report.all_pass

    def test_unknown_quantity(self):
        with pytest.raises(ValueError):
            compare("demo", SimResult(), {"bogus": 1.0})


class TestOracleSuiteFastTier:
    def test_all_checks_pass_at_reduced_scale(self):
        report = oracle_suite(n_pulses=400_000, seed=42)
        assert report.all_pass, "\n".join(report.lines())

    def test_report_is_machine_readable(self):
        report = oracle_suite(n_pulses=100_000, seed=7)
        lines = report.csv_lines()
        assert lines[0].startswith("check,quantity,")
        assert len(lines) == len(report.checks) + 1


# Tallies of the v0 oracle suite, which drew every decision column per pulse,
# at seed 42 and 1e8 pulses: (check, quantity) -> (observed, trials).  The
# block-sparse sampler draws other streams and so gives other tallies at this
# seed; these stay as a fixture of realistic trial counts and of one run that
# trips the 3-sigma rule, for the p-value and family-verdict tests.  The
# sifted counts are the trial counts of the qber and eve_fraction checks.
SEED42_1E8 = {
    ("clean_60km", "p_single"): (31652, 10**8),
    ("clean_60km", "p_coinc"): (2, 10**8),
    ("clean_60km", "sifted_fraction"): (15880, 10**8),
    ("clean_60km", "qber"): (91, 15880),
    ("zero_length_perfect_detector", "p_single"): (9517010, 10**8),
    ("zero_length_perfect_detector", "sifted_fraction"): (4756547, 10**8),
    ("zero_length_perfect_detector", "qber"): (0, 4756547),
    ("dark_counts_60km", "p_single"): (31533, 10**8),
    ("dark_counts_60km", "qber"): (51, 15685),
    ("strategy_a_pure_b_80km", "p_single"): (10109, 10**8),
    ("strategy_a_pure_b_80km", "qber"): (756, 4989),
    ("strategy_a_pure_b_80km", "eve_fraction"): (4989, 4989),
    ("strategy_b_pure_bsa_60km", "p_single"): (31647, 10**8),
    ("strategy_b_pure_bsa_60km", "p_coinc"): (1, 10**8),
    ("strategy_b_pure_bsa_60km", "qber"): (64, 15679),
    ("strategy_b_pure_bsa_60km", "eve_fraction"): (369, 15679),
    ("strategy_b_shutter_20km", "p_single"): (319392, 10**8),
    ("strategy_b_shutter_20km", "p_coinc"): (192, 10**8),
    ("strategy_b_shutter_20km", "qber"): (888, 160192),
    ("strategy_b_shutter_20km", "eve_fraction"): (1971, 160192),
    ("strategy_b_blocking_80km", "p_single"): (10058, 10**8),
    ("strategy_b_blocking_80km", "qber"): (0, 5025),
    ("strategy_b_blocking_80km", "eve_fraction"): (1958, 5025),
}


def _oracle_report(tallies, expectations=None):
    """The seed-42 oracle report rebuilt through ``compare`` from ``tallies``,
    with ``expectations`` (check, quantity) -> value overriding closed forms.
    Each quantity's tally and trials go to the SimResult fields that
    ``verify._QUANTITIES`` and ``SimResult.counts`` read them from; where
    two quantities share a field (``sifted`` is qber's trials), the later
    one in the case sets it."""
    report = Report()
    for case in oracle_cases(n_pulses=10**8, seed=42):
        counts = {"n_pulses": 10**8}
        for quantity in case.expected:
            tally = _QUANTITIES[quantity]
            counts[tally], counts[_TRIALS[tally]] = tallies[case.name, quantity]
        expected = {
            q: (expectations or {}).get((case.name, q), value)
            for q, value in case.expected.items()
        }
        report.checks.extend(compare(case.name, SimResult(**counts), expected).checks)
    return report


def _scipy_p_value(stats, observed, trials, expected):
    tails = (stats.binom.cdf(observed, trials, expected),
             stats.binom.sf(observed - 1, trials, expected))
    return min(1.0, 2.0 * min(tails))


class TestExactPValue:
    @pytest.mark.parametrize("trials", [1, 2, 5, 17, 60, 400])
    @pytest.mark.parametrize("expected", [0.01, 0.3, 0.5, 0.93])
    def test_matches_scipy_on_small_tallies(self, trials, expected):
        stats = pytest.importorskip("scipy.stats")
        for observed in range(trials + 1):
            ref = _scipy_p_value(stats, observed, trials, expected)
            got = binomial_p_value(observed, trials, expected)
            # scipy's own relative accuracy degrades far out in the tails
            assert got == pytest.approx(ref, rel=1e-7, abs=1e-30), observed

    @pytest.mark.parametrize("key", sorted(SEED42_1E8))
    def test_matches_scipy_on_seed42_tallies(self, key):
        stats = pytest.importorskip("scipy.stats")
        case = next(c for c in oracle_cases(n_pulses=10**8, seed=42) if c.name == key[0])
        expected = case.expected[key[1]]
        observed, trials = SEED42_1E8[key]
        if expected in (0.0, 1.0):
            assert binomial_p_value(observed, trials, expected) == 1.0
            return
        ref = _scipy_p_value(stats, observed, trials, expected)
        assert binomial_p_value(observed, trials, expected) == pytest.approx(ref, rel=1e-7)

    @pytest.mark.parametrize("offset_sigma", [-40.0, -8.0, -3.85, -1.0, 0.0, 0.3, 3.85, 8.0, 40.0])
    def test_matches_scipy_on_1e8_trial_tallies(self, offset_sigma):
        stats = pytest.importorskip("scipy.stats")
        trials = 10**8
        for expected in (1.25e-8, 3.2e-3, -math.expm1(-0.1), 0.5):
            sigma = math.sqrt(trials * expected * (1.0 - expected))
            observed = max(0, round(trials * expected + offset_sigma * sigma))
            ref = _scipy_p_value(stats, observed, trials, expected)
            got = binomial_p_value(observed, trials, expected)
            assert got == pytest.approx(ref, rel=1e-6, abs=1e-300), (expected, observed)

    def test_seed42_worst_check(self):
        # 888 errors in 160192 sifted bits against 0.005: z=+3.08, exact
        # p=0.0025, twenty times the first Holm threshold 2.7e-3/23.
        p = binomial_p_value(888, 160192, 0.005)
        assert p == pytest.approx(2.54e-3, abs=1e-5)
        assert p > 20 * FAMILY_ALPHA / 23

    def test_certain_expectations(self):
        assert binomial_p_value(0, 4756547, 0.0) == 1.0
        assert binomial_p_value(1, 4756547, 0.0) == 0.0
        assert binomial_p_value(4989, 4989, 1.0) == 1.0
        assert binomial_p_value(4988, 4989, 1.0) == 0.0

    def test_no_trials(self):
        assert binomial_p_value(0, 0, 0.3) == 0.0
        assert binomial_p_value(0, 0, 0.0) == 0.0

    @pytest.mark.parametrize("expected", [math.nan, -0.1, 1.5])
    def test_expected_outside_unit_interval_rejected(self, expected):
        with pytest.raises(ValueError):
            binomial_p_value(3, 10, expected)

    def test_far_tail_underflows_to_zero(self):
        assert binomial_p_value(10**6, 10**8, 1e-3) == 0.0


class TestHolm:
    def test_step_down_rejections(self):
        # sorted: .005 <= .05/4, .01 <= .05/3, .03 > .05/2 stops the procedure
        assert holm_rejections([0.01, 0.04, 0.03, 0.005], 0.05) == [0, 3]

    def test_first_acceptance_stops_later_rejections(self):
        # .02 > .05/3 stops; .021 would pass alpha/2 on its own
        assert holm_rejections([0.001, 0.02, 0.021, 0.9], 0.05) == [0]

    def test_all_and_none(self):
        assert holm_rejections([0.001, 0.002, 0.003], 0.05) == [0, 1, 2]
        assert holm_rejections([0.02, 0.5, 1.0], 0.05) == []
        assert holm_rejections([], 0.05) == []

    def test_family_verdict_is_bonferroni_on_the_smallest(self):
        m = 23
        just_below = [1.0] * (m - 1) + [FAMILY_ALPHA / m * 0.999]
        just_above = [1.0] * (m - 1) + [FAMILY_ALPHA / m * 1.001]
        assert holm_rejections(just_below, FAMILY_ALPHA) == [m - 1]
        assert holm_rejections(just_above, FAMILY_ALPHA) == []


class TestFamilyVerdict:
    def test_seed42_report_passes_the_family(self):
        report = _oracle_report(SEED42_1E8)
        assert len(report.checks) == 23
        worst = min(report.checks, key=lambda c: c.p_value)
        assert (worst.name, worst.quantity) == ("strategy_b_shutter_20km", "qber")
        assert worst.p_value > FAMILY_ALPHA / 23
        assert not report.all_pass  # the per-check 3-sigma rule trips on it
        assert report.family_pass
        assert report.lines()[-1].startswith("PASS: family verdict")

    def test_one_check_below_the_first_holm_threshold_fails(self):
        tallies = dict(SEED42_1E8)
        tallies["strategy_b_shutter_20km", "qber"] = (920, 160192)  # z=+4.2
        report = _oracle_report(tallies)
        worst = min(report.checks, key=lambda c: c.p_value)
        assert worst.p_value < FAMILY_ALPHA / 23
        assert not report.family_pass
        assert [c.label for c in report.holm_rejected] == ["strategy_b_shutter_20km/qber"]
        assert report.lines()[-1].startswith("FAIL: family verdict")
        assert report.lines()[-1].endswith("rejects strategy_b_shutter_20km/qber")

    def test_csv_appends_p_value_column(self):
        lines = _oracle_report(SEED42_1E8).csv_lines()
        assert lines[0] == ("check,quantity,observed,trials,expected,z,passed,p_value,"
                            "expected_count")
        rows = {tuple(line.split(",")[:2]): line.split(",") for line in lines[1:]}
        row = lines[1].split(",")
        assert row[:4] == ["clean_60km", "p_single", "31652", "100000000"]
        assert 0.0 <= float(row[7]) <= 1.0
        # expected x trials: about one coincidence at 60 km in 1e8 pulses
        coinc = rows["clean_60km", "p_coinc"]
        assert float(coinc[8]) == float(coinc[4]) * int(coinc[3])
        assert float(coinc[8]) == pytest.approx(1.2498, abs=1e-4)


def _one_dark_detector_qber(case):
    system = case.sim.system
    p_dark = system.detector.p_dark
    x = system.source.mu * system.t_ab(case.sim.distance) * system.detector.eta_b
    return (p_dark / 2.0) / (-math.expm1(-x) + p_dark)


# Planted physics mistakes: (check, quantity, wrong closed form from the case).
PLANTED_DEFECTS = {
    "passive_coincidence_prefactor": (
        "strategy_b_shutter_20km", "p_coinc",
        lambda case: case.expected["p_coinc"] * 0.625 / 0.25,
    ),
    "one_dark_counting_detector": (
        "dark_counts_60km", "qber", _one_dark_detector_qber,
    ),
    "class_b_error_one_quarter": (
        "strategy_a_pure_b_80km", "qber", lambda case: 0.25,
    ),
    "eve_fraction_without_shutter_normalisation": (
        "strategy_b_blocking_80km", "eve_fraction",
        lambda case: -math.expm1(-case.sim.attack.lam * case.sim.system.source.mu) / 2.0,
    ),
}


class TestNegativeControls:
    """The family verdict keeps the power to catch planted mistakes at the
    criterion-7 budget: tallies sit exactly on the true closed forms at the
    seed-42 1e8-pulse trial counts, and one expectation is swapped for a
    planted mistake."""

    @staticmethod
    def _true_tallies():
        tallies = {}
        for case in oracle_cases(n_pulses=10**8, seed=42):
            for quantity, value in case.expected.items():
                trials = SEED42_1E8[case.name, quantity][1]
                tallies[case.name, quantity] = (round(trials * value), trials)
        return tallies

    def test_true_closed_forms_pass(self):
        report = _oracle_report(self._true_tallies())
        assert report.family_pass
        assert min(c.p_value for c in report.checks) > 0.1  # rounding of small counts

    @pytest.mark.parametrize("defect", sorted(PLANTED_DEFECTS))
    def test_planted_defect_fails_the_family(self, defect):
        name, quantity, wrong = PLANTED_DEFECTS[defect]
        case = next(c for c in oracle_cases(n_pulses=10**8, seed=42) if c.name == name)
        planted = wrong(case)
        assert planted != pytest.approx(case.expected[quantity], rel=1e-3)
        report = _oracle_report(self._true_tallies(), {(name, quantity): planted})
        assert not report.family_pass
        assert f"{name}/{quantity}" in [c.label for c in report.holm_rejected]
