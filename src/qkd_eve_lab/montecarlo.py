"""Pulse-level simulation of the Alice-channel-Eve-Bob chain.

Photons are drawn per pulse, split, blocked, lost, detected and tallied.
This is the independent cross-check of the analytic layer: the module
docstring of :mod:`qkd_eve_lab.verify` lists the closed form that each of
its oracle cases holds these tallies to.

Determinism contract: every random decision comes from a counter-based
Philox stream keyed by (seed, column, block), where a block is ``BLOCK``
pulses and a column (a ``_COL_*`` id) is one kind of decision, so a run is
bit-for-bit reproducible regardless of how its blocks are shared out.  No
stream is per pulse: cost scales with the pulses that carry light or click.

* A block's photons are one Poisson(mu * ``BLOCK``) count T, drawn by
  ``Generator.poisson`` from the ``_COL_N`` stream, each on a uniform pulse
  of the block: photon i takes half-word ``i % 4`` of raw word ``i // 4``
  of ``_COL_PHOTONS`` as its pulse index, the low half first.  Given T, a
  Poisson process puts each point on an independent uniform pulse, so the
  pulses' photon numbers are i.i.d. Poisson(mu).  Sorted, the indices
  give the occupied pulses, the first of each run of equal indices, and
  their photon numbers, the runs' lengths.  A partial block is drawn as a
  whole one and keeps its indices below its length.  The tallies at a
  seed so depend on numpy's ``Generator.poisson``, as they depend on its
  ``random``.  Each detector's dark counts, a Bernoulli(p_dark) process,
  are placed exactly by geometric gaps from ``_COL_DARK_0`` /
  ``_COL_DARK_1``.
* Strategy A's blind resends, which fill vacuum pulses when Eve runs short
  of multiphoton pulses, are a Bernoulli(blind_prob * attack_fraction)
  process placed the same way from ``_COL_EVE_BLIND``; a position that
  falls on an occupied pulse is void, since only vacuum pulses are
  blind-filled.
* The channel and eavesdropper columns draw one value per active pulse,
  in pulse order: the occupied, blind-resend and dark-count pulses, merged
  by one boolean mark over the block.  Strategy A's photon-number columns,
  ``_COL_EVE_USE``, ``_COL_EVE_INTERCEPT``, ``_COL_EVE_SPLIT``,
  ``_COL_EVE_AUX`` and ``_COL_CHANNEL``, draw for the occupied pulses
  alone, in pulse order; ``_COL_EVE_ERR`` draws for every active pulse,
  with p = 1/2 (a random bit) on vacuum pulses.
* The receiver columns ``_COL_BOB_*`` and ``_COL_ALICE_BIT`` draw one
  value per pulse, in pulse order, only where a photon reaches Bob's
  detectors or a detector fires a dark count.  The optical-misalignment
  flips of those r pulses, a Bernoulli(qber_opt) process, are placed by
  geometric gaps from ``_COL_QBER_FLIP`` like the dark counts, so the
  column draws about qber_opt * r gaps, not r uniforms.
* A fair coin reads raw Philox bits, not a uniform.  A u < 1/2 decision
  (``_COL_ALICE_BIT``, ``_COL_BOB_BASIS``, strategy B's ``_COL_EVE_AUX``)
  takes bit ``i % 64`` of raw word ``i // 64`` for pulse i.  A
  Binomial(n, 1/2) draw (``_COL_BOB_SPLIT``, strategy A's
  ``_COL_EVE_SPLIT`` and ``_COL_EVE_AUX``) counts the set bits among the
  low n of one 32-bit half-word each, half-word ``i % 2`` of raw word
  ``i // 2`` for draw i, the low half first, which n <= ``PHOTON_CAP`` < 32
  allows (Knuth, TAOCP Vol. 2, 3.4.1).  Any other decision whose
  probability is exactly 1/2 (an eta_b, lambda or gamma of 1/2) draws the
  same way.  Every other decision drawn per pulse reads one uniform per
  draw; ``_COL_EVE_ERR`` mixes probabilities per pulse, so it reads
  uniforms too.
* A decision whose outcome is certain draws nothing: Binomial(n, 1) is
  n, Binomial(n, 0) is 0, u < 1 always holds and u < 0 never does.  So
  ``_COL_QBER_FLIP`` is not drawn at ``qber_opt`` = 0, ``_COL_DARK_0`` and
  ``_COL_DARK_1`` at ``p_dark`` in {0, 1}, ``_COL_CHANNEL`` at t_ab = 1 (or
  t_e = 1 under strategy B), ``_COL_BOB_DETECT`` at eta_b = 1,
  ``_COL_EVE_USE`` under strategy B at gamma in {0, 1}, ``_COL_EVE_SPLIT``
  under strategy B at lambda in {0, 1}, ``_COL_EVE_INTERCEPT`` at
  ``attack_fraction`` in {0, 1}, and ``_COL_EVE_BLIND`` unless strategy A
  blind-fills at ``attack_fraction`` > 0.  Every other column keeps its
  draws, so the tallies are the same either way.  Likewise a block without dark
  counts builds no dark-count masks, and a run without an eavesdropper no
  record of what she knows or alters.
* No selection over per-pulse arrays branches on random data.  The
  detector clicks are bitwise expressions, and strategy A's per-case
  resend and error probabilities are lookups by int8 case codes into
  arrays, indexed by intp copies of the codes (``_lookup``).  Each gives
  the same bits as the selection it replaces, so the tallies do not
  depend on the form.
* The b blocks of n pulses form w = max(1, min(workers, b, n // batch_size))
  contiguous runs of near-equal whole-block counts, one per worker process,
  started for the call and joined before it returns, or this process when
  w = 1.  Starting a process costs about what 2^20 pulses of work take, so
  ``batch_size`` (2^20 by default) is the fewest pulses worth one.
* Streams are repositioned, not rebuilt.  A run holds one Philox
  generator and, for each draw, resets its counter to (0, block, column, 1),
  which gives the draws of a stream built afresh at that counter (Salmon et
  al., SC'11).  A stream is valid only until the next reset.  Every uniform
  draw and the gap sums of the placed processes land in one buffer of the
  run, so each is used before the next draw; raw-bit draws return fresh
  arrays, and the photon indices are sorted in place in theirs.  The
  occupied pulses' positions are gathered only where a merge with blind
  resends or dark counts reads them, and the reaching pulses only where
  some active pulse does not reach.
"""
from __future__ import annotations

import functools
import math
import multiprocessing
import numbers
from dataclasses import dataclass, fields

import numpy as np

from . import strategy_a
from .config import ConfigError, SystemConfig
from .core_stats import BasisMode
from .keyrate import EveModel
from .strategy_b import BeamsplitAttack

PHOTON_CAP = 20
assert PHOTON_CAP < 32  # a Binomial(n, 1/2) draw is the low n bits of one half-word

# Pulses per block of the random streams.  Tallies at a given seed depend on
# it, so it is fixed rather than configurable; a photon's pulse is one uint16.
BLOCK = 2**16

# Decision columns; each owns an independent counter-based stream.
_COL_N = 0
_COL_PHOTONS = 1
_COL_ALICE_BIT = 2
_COL_EVE_SPLIT = 3
_COL_EVE_AUX = 4
_COL_EVE_USE = 5
_COL_EVE_ERR = 6
_COL_CHANNEL = 7
_COL_BOB_BASIS = 8
_COL_BOB_DETECT = 9
_COL_BOB_SPLIT = 10
_COL_QBER_FLIP = 11
_COL_DARK_0 = 12
_COL_DARK_1 = 13
_COL_EVE_INTERCEPT = 14
_COL_EVE_BLIND = 15


def _lookup(table: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """``np.take(table, codes)`` for narrow integer codes, by indexing with
    an intp copy of them, numpy's own index type."""
    return table[codes.astype(np.intp)]


def _halves_from_words(n: np.ndarray, words: np.ndarray) -> np.ndarray:
    """Binomial(n, 1/2) per int8 count n, one uint32 half-word each: the
    count of set bits among its low n, masked by (1 << n) - 1 in uint32, so
    bits above n are ignored.  ``words`` is overwritten; the draws are int8."""
    mask = np.left_shift(np.uint32(1), n.view(np.uint8), dtype=np.uint32)
    words &= np.subtract(mask, np.uint32(1), out=mask)
    return np.bitwise_count(words).view(np.int8)


class _Streams:
    """The block streams of one seed, all served by one Philox generator.

    ``stream`` repositions the generator at the start of a stream by
    resetting its counter, so a stream is valid only until the next reset.
    ``uniforms`` lands its draws in ``buffer``, one array reused by every
    uniform draw, so what it returns is valid only until the next one.
    ``words`` returns the generator's raw 64-bit words in a fresh array;
    ``bits`` and ``halves`` read them as 64 coins or two Binomial(n, 1/2)
    draws per word.
    """

    def __init__(self, seed: int) -> None:
        self._bitgen = np.random.Philox(key=seed)
        self._state = self._bitgen.state  # counter zero, output buffer empty
        self._counter = self._state["state"]["counter"]
        self._rng = np.random.Generator(self._bitgen)
        self.buffer = np.empty(BLOCK + 1)

    def stream(self, column: int, block: int) -> np.random.Generator:
        """The stream of one decision column within one block of pulses."""
        self._counter[:] = (0, block, column, 1)
        self._bitgen.state = self._state
        return self._rng

    def uniforms(self, column: int, block: int, size: int) -> np.ndarray:
        """The first ``size`` uniforms of a stream."""
        return self.stream(column, block).random(out=self.buffer[:size])

    def words(self, column: int, block: int, size: int) -> np.ndarray:
        """The first ``size`` raw 64-bit words of a stream, little-endian."""
        raw = self.stream(column, block).bit_generator.random_raw(size)
        return raw.astype("<u8", copy=False)

    def bits(self, column: int, block: int, size: int) -> np.ndarray:
        """``size`` fair coins of a stream as booleans: bit ``i % 64`` of raw
        word ``i // 64`` decides pulse ``i``."""
        words = self.words(column, block, -(-size // 64))
        return np.unpackbits(words.view(np.uint8), count=size, bitorder="little").view(bool)

    def halves(self, column: int, block: int, n: np.ndarray) -> np.ndarray:
        """Binomial(n, 1/2) per entry of ``n``, one 32-bit half-word of a
        stream each (``_halves_from_words``): draw ``i`` reads half-word
        ``i % 2`` of raw word ``i // 2``, the low half first."""
        words = self.words(column, block, -(-n.size // 2))
        return _halves_from_words(n, words.view("<u4")[:n.size])


def _bernoulli_positions(streams: _Streams, column: int, block: int, length: int,
                         p: float) -> np.ndarray:
    """Sorted indices in [0, length) of the pulses of ``block`` with an
    event (photons, a dark count), each independently with probability ``p``.

    The gaps between events are geometric and drawn exactly by inversion
    from the block stream of ``column``, in batches sized to the expected
    remaining count, until one passes the end of the block (Devroye 1986).
    The batches hold at most ``length + 1`` gaps in all: every batch but the
    last ends inside the block, and the last has at most one gap per pulse
    left plus one.  A gap is floor(log(1 - u) / log(1 - p)) + 1, with the
    quotient capped at ``length``: a longer gap ends the block anyway, and
    the cap keeps a gap at tiny ``p`` inside int64.  The gaps are summed as
    int64 in place, in an int64 view of ``streams.buffer``, which gives the
    positions of a float sum, exact below 2^53.
    """
    if not p > 0.0:
        return np.empty(0, dtype=np.int64)
    if p >= 1.0:
        return np.arange(length)
    rng = streams.stream(column, block)
    buffer = streams.buffer
    sums = buffer.view(np.int64)
    log_q = math.log1p(-p)
    cap = float(length)
    end = 0
    last = -1  # index of the latest event drawn so far
    # At a subnormal p the divide overflows to inf, which the cap discards;
    # no other step here can overflow.
    with np.errstate(over="ignore"):
        while last < length:
            size = math.ceil((length - 1 - last) * p) + 1
            x = rng.random(out=buffer[end:end + size])
            np.log1p(np.negative(x, out=x), out=x)
            np.minimum(np.divide(x, log_q, out=x), cap, out=x)
            x += 1.0
            gaps = sums[end:end + size]
            np.copyto(gaps, x, casting="unsafe")  # truncation floors these x >= 1
            gaps[0] += last
            np.cumsum(gaps, out=gaps)
            last = int(gaps[-1])
            end += size
    positions = sums[:end]
    return positions[: np.searchsorted(positions, length)].copy()


@functools.lru_cache(maxsize=64)
def _binomial_cdf_table(p: float) -> np.ndarray:
    """Rows n = 0..PHOTON_CAP of the Binomial(n, p) CDF, built once per
    ``p`` and read-only."""
    table = np.ones((PHOTON_CAP + 1, PHOTON_CAP + 1))  # 1 past k = n
    for n in range(PHOTON_CAP + 1):
        probs = [math.comb(n, k) * p**k * (1.0 - p) ** (n - k) for k in range(n + 1)]
        table[n, : n + 1] = np.cumsum(probs)
    table.flags.writeable = False
    return table


def _binomial_from_u(
    n: np.ndarray, u: np.ndarray, cdf_table: np.ndarray
) -> np.ndarray:
    """Inverse-CDF binomial, one uniform u in [0, 1) per draw; n = 0 draws 0.

    A sequential search up each draw's row n: k counts the entries of the
    row below column n that are at most u, which is what
    ``searchsorted(row, u, side="right")`` capped at n gives.  A row is
    non-decreasing up to column n, so a draw stops at its first entry above
    u, and each pass gathers only the draws still counting.  Row 0 is 1.0,
    above every u.  The draws have the dtype of ``n``.
    """
    rows = n.astype(np.intp)  # indexes as ``_lookup`` does, converted once
    hit = cdf_table[:, 0][rows] <= u
    k = hit.astype(n.dtype)
    at = np.flatnonzero(hit & (n > 1))
    j = 1
    while at.size:
        n_at = rows[at]
        hit = cdf_table[:, j][n_at] <= u[at]
        k[at] += hit
        j += 1
        at = at[hit & (n_at > j)]
    return k


@dataclass(frozen=True)
class SimConfig:
    """One simulation run: system, eavesdropper, size, and seeding.

    ``workers`` and ``batch_size`` cannot change the tallies; they set how
    many processes share the blocks, at most one per ``batch_size`` pulses
    (see :func:`simulate`).
    """

    system: SystemConfig
    eve_model: EveModel = EveModel.NONE
    attack: BeamsplitAttack | None = None
    distance_km: float | None = None
    attack_fraction: float = 1.0
    n_pulses: int = 10**6
    seed: int = 42
    batch_size: int = 2**20
    workers: int = 1

    @property
    def distance(self) -> float:
        if self.distance_km is not None:
            return self.distance_km
        return self.system.channel.length_ab

    def __post_init__(self) -> None:
        for name in ("n_pulses", "seed", "workers", "batch_size"):
            if not isinstance(getattr(self, name), numbers.Integral):
                raise ConfigError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if not 0 <= self.seed < 2**128:  # a Philox key
            raise ConfigError(f"seed must be in [0, 2**128), got {self.seed}")
        if self.n_pulses < 1:
            raise ConfigError(f"n_pulses must be >= 1, got {self.n_pulses}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        if self.distance_km is not None and not self.distance_km >= 0:
            raise ConfigError(f"distance_km must be >= 0, got {self.distance_km}")
        if self.system.source.mu > 1.0:
            raise ConfigError(
                f"source.mu: must be <= 1 to simulate, where photon numbers above "
                f"PHOTON_CAP = {PHOTON_CAP} are negligible, got {self.system.source.mu}")
        if self.system.basis_mode is not BasisMode.ACTIVE:
            raise ConfigError("protocol.basis_mode: the simulation models active choice only")
        if self.eve_model in (EveModel.STRATEGY_B, EveModel.STRATEGY_B_STORAGE):
            if self.attack is None:
                raise ConfigError("strategy-b simulation needs attack parameters")
        if self.eve_model is EveModel.UNLIMITED:
            raise ConfigError("eve.model: unlimited is analytic only; nothing to simulate")
        if self.eve_model is EveModel.STRATEGY_A and not 0 <= self.attack_fraction <= 1:
            raise ConfigError(f"attack_fraction must be in [0, 1], got {self.attack_fraction}")


# Each tally of ``SimResult``, in field order, and the tally it is divided
# by: its trials.
_TRIALS = {
    "n_pulses": "n_pulses",
    "singles": "n_pulses",
    "coincidences": "n_pulses",
    "coincidences_all": "n_pulses",
    "sifted": "n_pulses",
    "errors": "sifted",
    "eve_known": "sifted",
}


@dataclass
class SimResult:
    """Tallies of one run, with binomial standard errors on the estimates."""

    n_pulses: int = 0
    singles: int = 0
    coincidences: int = 0  # wrong-basis double clicks (the monitored alarm)
    coincidences_all: int = 0  # any double click, either basis
    sifted: int = 0
    errors: int = 0
    eve_known: int = 0

    def __add__(self, other: "SimResult") -> "SimResult":
        return SimResult(*[getattr(self, f.name) + getattr(other, f.name)
                           for f in fields(self)])

    def counts(self, tally: str) -> tuple[int, int]:
        """A tally and its trials, the count it is divided by."""
        return getattr(self, tally), getattr(self, _TRIALS[tally])

    def estimate(self, tally: str) -> tuple[float, float]:
        """A tally's share of its trials and the binomial standard error."""
        count, n = self.counts(tally)
        if n == 0:
            return 0.0, 0.0
        p = count / n
        return p, math.sqrt(p * (1.0 - p) / n)

    def csv_lines(self) -> list[str]:
        lines = ["quantity,count,estimate,sigma"]
        for tally in _TRIALS:
            est, sig = self.estimate(tally)
            lines.append(f"{tally},{getattr(self, tally)},{est!r},{sig!r}")
        return lines

    def summary(self) -> str:
        ps, dps = self.estimate("singles")
        q, dq = self.estimate("errors")
        ek, dek = self.estimate("eve_known")
        return (
            f"pulses {self.n_pulses}: singles {self.singles} "
            f"(p={ps:.4e}+-{dps:.1e}), coincidences {self.coincidences}, "
            f"sifted {self.sifted}, QBER {q:.4e}+-{dq:.1e}, "
            f"eve fraction {ek:.4e}+-{dek:.1e}"
        )


@dataclass(frozen=True)
class _StrategyAPolicy:
    """Per-case resend probabilities realized by the simulated eavesdropper."""

    resend_prob: np.ndarray  # A, B, C, D
    blind_prob: float


# Probability that a strategy-A resend carries the wrong bit, by error code:
# no photon in her right basis (a random bit), photons in her right basis
# only, photons in both bases (the intermediate state).
_RESEND_ERROR_PROB = np.array([0.5, 0.0, strategy_a.INTERMEDIATE_STATE_QBER])


def _strategy_a_codes(n: np.ndarray, k_right: np.ndarray,
                      k_w0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Case and error codes, int8, of pulses with n photons, k_right of them
    in Eve's right basis and k_w0 of the rest on detector 0 of her wrong one.

    The case code indexes (A, B, C, D): A one photon, B photons in both
    bases, D all in the wrong basis and on both of its detectors, C the
    rest, the first match in the order A, B, D, C.  A one-photon pulse is
    never B or D, so the code is 2 - 2[A] - [B] + [D and not B].  The error
    code indexes ``_RESEND_ERROR_PROB``.
    """
    n_wrong = n - k_right
    right = k_right > 0
    both_bases = right & (n_wrong > 0)
    split_wrong = (k_w0 > 0) & (k_w0 < n_wrong)
    case = (2 - 2 * (n == 1).view(np.int8) - both_bases.view(np.int8)
            + (split_wrong & ~both_bases))
    return case, right.view(np.int8) + both_bases


def _strategy_a_policy(cfg: SimConfig) -> _StrategyAPolicy:
    mu = cfg.system.source.mu
    mix = strategy_a.allocate(mu, cfg.system.t_ab(cfg.distance))
    probs = []
    for label in strategy_a.CASE_LABELS:
        supply = mix.supply[label]
        probs.append(mix.usage[label] / supply if supply > 0 else 0.0)
    blind_prob = min(1.0, mix.blind / math.exp(-mu))  # 0 unless in deficit
    return _StrategyAPolicy(np.array(probs), blind_prob)


def _occupied_pulses(streams: _Streams, block: int, length: int, mu: float,
                     positions: bool = True) -> tuple[np.ndarray | None, np.ndarray]:
    """Sorted indices in [0, length) of the occupied pulses of ``block``, or
    None unless ``positions``, and their photon numbers as int8, capped at
    PHOTON_CAP.

    The block's photon count T ~ Poisson(mu * BLOCK) comes from
    ``_COL_N``; photon i falls on pulse index half-word ``i % 4`` of raw
    word ``i // 4`` of ``_COL_PHOTONS``, the low half first.  Sorting those
    half-words in place groups the photons by pulse: each run of equal
    indices is one occupied pulse, and its length, the difference of
    consecutive run starts, is the pulse's photon number.  The cap
    truncates only n > PHOTON_CAP, whose probability is < 1e-19 at mu <= 1,
    as ``SimConfig`` requires.
    """
    total = int(streams.stream(_COL_N, block).poisson(mu * BLOCK))
    pulses = streams.words(_COL_PHOTONS, block, -(-total // 4)).view("<u2")[:total]
    pulses.sort()  # the pulse of each photon
    if length < BLOCK:  # a Poisson process on the first length pulses
        pulses = pulses[: np.searchsorted(pulses, length)]
    edge = np.empty(pulses.size + 1, dtype=bool)  # run starts, then the end
    edge[0] = edge[-1] = True
    np.not_equal(pulses[1:], pulses[:-1], out=edge[1:-1])
    bounds = np.flatnonzero(edge)
    n = np.subtract(bounds[1:], bounds[:-1])
    at = pulses[bounds[:-1]].astype(np.intp) if positions else None
    return at, np.minimum(n, PHOTON_CAP, out=n).astype(np.int8)


def _active_ranks(length: int, *sets: np.ndarray) -> tuple[int, list[np.ndarray]]:
    """The number m of pulses in the union of ``sets``, index arrays into
    [0, length), and each set's indices among those m pulses in pulse order.

    One boolean mark over the block, and an int32 rank at each marked
    pulse: what sorting the union, dropping repeats and ``searchsorted``
    each set into it gives.
    """
    mark = np.zeros(length, dtype=bool)
    for at in sets:
        mark[at] = True
    active = np.flatnonzero(mark)
    rank = np.empty(length, dtype=np.int32)  # read at marked pulses only
    rank[active] = np.arange(active.size, dtype=np.int32)
    return active.size, [rank[at] for at in sets]


def _clicks(bob_right: np.ndarray, received_bit: np.ndarray, k_det: np.ndarray,
            k_split0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Whether each of Bob's detectors fires on the k_det photons he detects.

    In Alice's basis every detected photon fires the received bit's
    detector; in the other basis each picks a detector at random, k_split0
    of them detector 0.  Bitwise, so no element branches.
    """
    detected = k_det > 0
    wrong_basis = ~bob_right
    click0 = (bob_right & detected & ~received_bit) | (wrong_basis & (k_split0 > 0))
    click1 = (bob_right & detected & received_bit) | (wrong_basis & (k_split0 < k_det))
    return click0, click1


def _simulate_block(
    cfg: SimConfig, policy: _StrategyAPolicy | None, channel: float,
    streams: _Streams, block: int,
) -> SimResult:
    """Tallies of ``block``; ``channel`` is t_ab, or Eve's link t_e under strategy B."""
    count = min(BLOCK, cfg.n_pulses - block * BLOCK)
    system: SystemConfig = cfg.system

    # The m active pulses are those that may click.  pos locates the occupied
    # pulses, blind the blind resends and dark_at each detector's dark counts,
    # first in the block, then among the active pulses.  Without a blind
    # resend or a dark count the active pulses are the occupied ones, and
    # their positions are not gathered.
    blind = _bernoulli_positions(streams, _COL_EVE_BLIND, block, count,
                                 0.0 if policy is None
                                 else policy.blind_prob * cfg.attack_fraction)
    dark_at = [_bernoulli_positions(streams, column, block, count, system.detector.p_dark)
               for column in (_COL_DARK_0, _COL_DARK_1)]
    any_dark = bool(dark_at[0].size or dark_at[1].size)
    merge = bool(blind.size) or any_dark
    pos, n = _occupied_pulses(streams, block, count, system.source.mu, positions=merge)
    if merge:
        m, (pos, blind, *dark_at) = _active_ranks(count, pos, blind, *dark_at)
    else:
        m, pos = n.size, slice(None)
    # Each detector's dark counts over the active pulses; no rows without any.
    darks = np.zeros((2 if any_dark else 0, m), dtype=bool)
    for dark, at in zip(darks, dark_at):
        dark[at] = True

    # A decision whose outcome is certain draws nothing, and a fair one reads
    # raw bits.  Each column owns its stream, so skipping one moves no other
    # draw.
    def uniforms(column: int, size: int = m) -> np.ndarray:
        return streams.uniforms(column, block, size)

    def binomial(column: int, n: np.ndarray, p: float) -> np.ndarray:
        """Binomial(n, p) per entry of ``n`` from ``column``: a popcount of
        raw bits at p = 1/2, else one uniform each.  At p = 1 this is ``n``
        itself."""
        if not 0.0 < p < 1.0:
            return n if p >= 1.0 else np.zeros_like(n)
        if p == 0.5:
            return streams.halves(column, block, n)
        return _binomial_from_u(n, uniforms(column, n.size), _binomial_cdf_table(p))

    def chance(column: int, p: float, size: int = m) -> np.ndarray:
        """u < p per pulse from ``column``: one raw bit each at p = 1/2, else
        one uniform each."""
        if not 0.0 < p < 1.0:
            return np.full(size, p >= 1.0)
        if p == 0.5:
            return streams.bits(column, block, size)
        return uniforms(column, size) < p

    # Arrays only where an eavesdropper acts: whether she knows the sifted
    # bit, and whether the bit she resends disagrees with Alice's before
    # the optical-misalignment flip.
    eve_knows = resend_error = None

    if cfg.eve_model is EveModel.STRATEGY_A:
        # Photon-number cases of the occupied pulses only.  She learns the
        # bit whenever a photon is in her right basis; with none she resends
        # a random bit.
        k_right = binomial(_COL_EVE_SPLIT, n, 0.5)
        k_w0 = binomial(_COL_EVE_AUX, n - k_right, 0.5)
        case, error = _strategy_a_codes(n, k_right, k_w0)
        intercepted = chance(_COL_EVE_INTERCEPT, cfg.attack_fraction, n.size)
        used = intercepted & (uniforms(_COL_EVE_USE, n.size) < _lookup(policy.resend_prob, case))
        resend = np.zeros(m, dtype=bool)
        resend[blind] = True  # a blind position on an occupied pulse is overwritten: void
        resend[pos] = used
        codes = np.zeros(m, dtype=np.int8)  # a vacuum pulse's 0 resends a random bit
        codes[pos] = error
        resend_error = resend & (uniforms(_COL_EVE_ERR) < _lookup(_RESEND_ERROR_PROB, codes))
        eve_knows = np.zeros(m, dtype=bool)
        eve_knows[pos] = used & (k_right > 0)

        # Resent pulses carry one fresh photon straight into the receiver;
        # pulses she left alone travel the installed fiber.
        arrivals = resend.view(np.int8)  # resend is not read again
        if cfg.attack_fraction < 1.0:
            passed = binomial(_COL_CHANNEL, n, channel)
            merged = arrivals[pos]
            np.copyto(merged, passed, where=~intercepted)
            arrivals[pos] = merged
    else:
        if m > n.size:  # pulses with a dark count alone carry no photon
            n_occupied, n = n, np.zeros(m, dtype=n.dtype)
            n[pos] = n_occupied
        if cfg.eve_model is EveModel.NONE:
            arrivals = binomial(_COL_CHANNEL, n, channel)
        else:
            k_e = binomial(_COL_EVE_SPLIT, n, cfg.attack.lam)
            eve_detected = k_e > 0
            eve_knows = eve_detected & chance(_COL_EVE_AUX, 0.5)
            shutter_open = eve_detected | chance(_COL_EVE_USE, cfg.attack.gamma)
            arrivals = binomial(_COL_CHANNEL, n - k_e, channel)
            arrivals *= shutter_open

    # Receiver, only where a photon or a dark count arrives: no other pulse can click.
    reach = arrivals > 0
    for dark in darks:
        reach |= dark
    at = slice(None) if reach.all() else np.flatnonzero(reach)
    arrivals = arrivals[at]
    r = arrivals.size
    bob_right = chance(_COL_BOB_BASIS, 0.5, r)  # his basis equals Alice's
    k_det = binomial(_COL_BOB_DETECT, arrivals, system.detector.eta_b)
    k_split0 = binomial(_COL_BOB_SPLIT, k_det, 0.5)

    alice_bit = chance(_COL_ALICE_BIT, 0.5, r)
    received_bit = alice_bit if resend_error is None else alice_bit ^ resend_error[at]

    click0, click1 = _clicks(bob_right, received_bit, k_det, k_split0)
    for click, dark in zip((click0, click1), darks):
        click |= dark[at]
    any_click = click0 | click1
    double = click0 & click1

    sifted = bob_right & any_click & ~double
    # Exactly one detector clicked on sifted pulses.  The optical flips are
    # a Bernoulli(qber_opt) process over the r reaching pulses, placed.
    bob_bit = click1  # click1 is not read again
    bob_bit[_bernoulli_positions(streams, _COL_QBER_FLIP, block, r, system.qber_opt)] ^= True
    errors = sifted & (bob_bit != alice_bit)

    return SimResult(
        n_pulses=count,
        singles=int(np.count_nonzero(any_click)),
        coincidences=int(np.count_nonzero(double & ~bob_right)),
        coincidences_all=int(np.count_nonzero(double)),
        sifted=int(np.count_nonzero(sifted)),
        errors=int(np.count_nonzero(errors)),
        eve_known=0 if eve_knows is None else int(np.count_nonzero(sifted & eve_knows[at])),
    )


def _simulate_chunk(cfg: SimConfig, policy: _StrategyAPolicy | None,
                    start: int, stop: int) -> SimResult:
    """Tallies of the pulses [start, stop), which starts on a block edge,
    simulated one block at a time with one ``_Streams``."""
    beamsplit = cfg.eve_model in (EveModel.STRATEGY_B, EveModel.STRATEGY_B_STORAGE)
    channel = cfg.attack.t_e if beamsplit else cfg.system.t_ab(cfg.distance)
    streams = _Streams(cfg.seed)
    total = SimResult()
    for block in range(start // BLOCK, -(-stop // BLOCK)):
        total = total + _simulate_block(cfg, policy, channel, streams, block)
    return total


def _worker(conn, cfg: SimConfig, policy: _StrategyAPolicy | None,
            start: int, stop: int) -> None:
    """A worker process: send the parent the tallies of [start, stop), or
    the exception that simulating them raised."""
    try:
        result = _simulate_chunk(cfg, policy, start, stop)
    except Exception as exc:  # re-raised by the parent
        result = exc
    conn.send(result)
    conn.close()


def simulate(cfg: SimConfig) -> SimResult:
    """Run the pulse-level simulation described by ``cfg``.

    The tallies are independent of ``workers`` and ``batch_size``; both only
    set how the work is divided.  The random streams are laid out over fixed
    blocks of ``BLOCK`` pulses (see the module docstring).  The b blocks of
    the n pulses go to w = max(1, min(workers, b, n // batch_size)) runs of
    b // w or b // w + 1 whole blocks: at most one process per
    ``batch_size`` pulses, since starting one costs about what 2^20 pulses
    of work take, and no run without a block.  One run is simulated in this
    process; otherwise each run goes to one worker process, started for
    this call and joined before it returns or raises.  A worker's exception
    is re-raised here, and one that exits without a result raises
    RuntimeError naming its blocks.
    """
    policy = _strategy_a_policy(cfg) if cfg.eve_model is EveModel.STRATEGY_A else None
    blocks = -(-cfg.n_pulses // BLOCK)
    w = max(1, min(cfg.workers, blocks, cfg.n_pulses // cfg.batch_size))
    if w == 1:
        return _simulate_chunk(cfg, policy, 0, cfg.n_pulses)
    edges = [i * blocks // w * BLOCK for i in range(w)] + [cfg.n_pulses]
    # numpy loads numpy.random lazily: import it once here, so that forked
    # workers inherit it rather than each importing it again.
    import numpy.random  # noqa: F401
    children = []
    try:
        for start, stop in zip(edges, edges[1:]):
            receiver, sender = multiprocessing.Pipe(duplex=False)
            child = multiprocessing.Process(target=_worker,
                                            args=(sender, cfg, policy, start, stop))
            child.start()
            children.append((child, receiver, start, stop))
            sender.close()  # so a worker that dies leaves its pipe at EOF
        total = SimResult()
        for child, receiver, start, stop in children:
            try:
                part = receiver.recv()
            except EOFError:
                child.join()
                raise RuntimeError(
                    f"the worker simulating blocks {start // BLOCK} to "
                    f"{-(-stop // BLOCK) - 1} exited with code {child.exitcode} "
                    "without a result") from None
            if isinstance(part, Exception):
                raise part
            total = total + part
        return total
    finally:
        for child, receiver, _, _ in children:
            receiver.close()
            child.join()
