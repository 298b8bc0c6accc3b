"""The three benchmark workloads and the correctness check of each operation.

Every workload is a sequence of identical passes.  A pass calls only
``cli.main`` or ``montecarlo.simulate``; the pass's outputs are checked
after its clock stops.  Why each workload exists is in README.md.

* ``analytic_sweep``: ``rates`` with the shipped defaults, 11 curves plus the
  5-model max-distance table.  16 operations per pass.
* ``oracle_sparse``: ``verify`` on one worker, 7 simulation configs at
  mu = 0.1 over 0-80 km.  7 operations per pass.
* ``mc_dense``: ``simulate`` on two workers at 0 km with a perfect detector.
  3 operations per pass.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from qkd_eve_lab import cli, montecarlo
from qkd_eve_lab.config import SystemConfig
from qkd_eve_lab.core_stats import ChannelParams, DetectorParams, SourceParams
from qkd_eve_lab.keyrate import EveModel
from qkd_eve_lab.montecarlo import SimConfig, SimResult
from qkd_eve_lab.strategy_b import BeamsplitAttack

from . import gate

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
EXPECTED_FILE = REFERENCE_DIR / "mc_expected.json"

# The oracle's closed forms are printed in full; a rewrite of the analytic
# layer may move them by rounding only.
EXPECTED_REL_TOL = 1e-6


@dataclass(frozen=True)
class Size:
    """How much work one pass and one run do."""

    oracle_pulses: int  # per verify config
    dense_pulses: int  # per mc_dense config
    dense_batch: int
    min_passes: int
    baseline_passes: int  # untraced passes that the traced pass is compared with


SIZES = {
    "full": Size(10**6, 2**22, 2**20, 3, 2),
    # For the benchmark's own tests: every code path, a few seconds each.
    "small": Size(10**4, 2**14, 2**12, 1, 1),
}


@dataclass
class PassResult:
    """Outcome of one pass: its timing and one entry per operation."""

    wall_s: float
    pulses: int = 0
    mc_s: float = 0.0
    ops: list[tuple[str, str | None]] = field(default_factory=list)  # (name, failure)
    tallies: dict[str, SimResult] = field(default_factory=dict)
    oracle_rows: list[dict[str, str]] = field(default_factory=list)


@dataclass
class Context:
    """Everything a pass needs besides its index."""

    seed: int
    size: Size
    workdir: Path


def pass_seed(seed: int, index: int) -> int:
    """Simulation seed of pass ``index`` of a run with workload seed ``seed``."""
    return random.Random(seed * 1_000_003 + index).randrange(1, 2**31)


def load_expected() -> dict[str, dict[str, dict[str, float]]]:
    """Closed-form expectations per workload, config and quantity."""
    return json.loads(EXPECTED_FILE.read_text(encoding="utf-8"))


def sim_tallies(result: SimResult) -> dict[str, tuple[int, int]]:
    """(successes, trials) of every quantity the oracle checks."""
    return {
        "p_single": (result.singles, result.n_pulses),
        "p_coinc": (result.coincidences, result.n_pulses),
        "sifted_fraction": (result.sifted, result.n_pulses),
        "qber": (result.errors, result.sifted),
        "eve_fraction": (result.eve_known, result.sifted),
    }


def _quiet(fn, *args):
    with contextlib.redirect_stdout(io.StringIO()):
        return fn(*args)


def _fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# ---------------------------------------------------------------- analytic_sweep

def analytic_pass(ctx: Context, index: int) -> PassResult:
    out_dir = _fresh_dir(ctx.workdir / "rates")
    t0 = perf_counter()
    try:
        code = _quiet(cli.main, ["rates", "--out", str(out_dir / "rates.csv")])
    except Exception as exc:  # an operation that raises counts as failed
        code = repr(exc)
    wall = perf_counter() - t0
    ops = gate.compare_rates(out_dir, REFERENCE_DIR)
    if code != 0:
        ops = [(name, f"rates: {code}") for name, _ in ops]
    return PassResult(wall, ops=ops)


# ----------------------------------------------------------------- oracle_sparse

def oracle_pass(ctx: Context, index: int, expected: dict[str, dict[str, float]]) -> PassResult:
    out = _fresh_dir(ctx.workdir / "verify") / "verify.csv"
    pulses = ctx.size.oracle_pulses
    argv = ["verify", "--pulses", str(pulses), "--seed", str(pass_seed(ctx.seed, index)),
            "--set", "sim.workers=1", "--out", str(out)]
    t0 = perf_counter()
    try:
        code = _quiet(cli.main, argv)
    except Exception as exc:
        code = repr(exc)
    wall = perf_counter() - t0
    result = PassResult(wall, pulses=pulses * len(expected), mc_s=wall)
    # verify exits 2 when a check is outside 3 sigma: reported, not gated.
    if code not in (0, 2):
        result.ops = [(name, f"verify: {code}") for name in expected]
        return result
    rows = gate.data_rows(out)
    result.oracle_rows = [dict(zip(rows[0], row)) for row in rows[1:]]
    for name, quantities in expected.items():
        got = {r["quantity"]: r for r in result.oracle_rows if r["check"] == name}
        failures = [
            f"{q}: closed form {got[q]['expected']}, reference {p!r}"
            for q, p in quantities.items()
            if q in got and not math.isclose(float(got[q]["expected"]), p, rel_tol=EXPECTED_REL_TOL)
        ]
        tallies = {q: (int(r["observed"]), int(r["trials"])) for q, r in got.items()}
        failures += gate.tally_failures(tallies, quantities)
        result.ops.append((name, "; ".join(failures) or None))
    return result


# ---------------------------------------------------------------------- mc_dense

DENSE_WORKERS = 2

# (name, mu, eavesdropper, beamsplitter attack) at 0 km with eta_b = 1.
DENSE_CONFIGS = (
    ("dense_none_mu0.5", 0.5, EveModel.NONE, None),
    ("dense_strategy_b_mu0.5", 0.5, EveModel.STRATEGY_B,
     BeamsplitAttack(lam=0.5, gamma=1.0, t_e=1.0)),
    ("dense_strategy_a_mu0.2", 0.2, EveModel.STRATEGY_A, None),
)


def dense_system(mu: float) -> SystemConfig:
    return SystemConfig(
        source=SourceParams(mu=mu),
        channel=ChannelParams(alpha_ab=0.25, length_ab=0.0),
        detector=DetectorParams(eta_b=1.0, p_dark=0.0),
        qber_opt=0.005,
    )


def dense_configs(size: Size, seed: int, workers: int) -> list[tuple[str, SimConfig]]:
    return [
        (name, SimConfig(system=dense_system(mu), eve_model=model, attack=attack,
                         distance_km=0.0, n_pulses=size.dense_pulses, seed=seed + j,
                         batch_size=size.dense_batch, workers=workers))
        for j, (name, mu, model, attack) in enumerate(DENSE_CONFIGS)
    ]


def dense_pass(ctx: Context, index: int, expected: dict[str, dict[str, float]],
               workers: int = DENSE_WORKERS) -> PassResult:
    result = PassResult(0.0)
    t0 = perf_counter()
    for name, cfg in dense_configs(ctx.size, pass_seed(ctx.seed, index), workers):
        t = perf_counter()
        try:
            result.tallies[name] = montecarlo.simulate(cfg)
        except Exception as exc:
            result.ops.append((name, repr(exc)))
            continue
        result.mc_s += perf_counter() - t
        result.pulses += cfg.n_pulses
    result.wall_s = perf_counter() - t0
    for name, sim in result.tallies.items():
        failures = gate.tally_failures(sim_tallies(sim), expected[name])
        result.ops.append((name, "; ".join(failures) or None))
    return result


# --------------------------------------------------------------------- registry

@dataclass(frozen=True)
class Workload:
    name: str
    workers: int
    uses_mc: bool


WORKLOADS = {
    w.name: w
    for w in (
        Workload("analytic_sweep", 1, False),
        Workload("oracle_sparse", 1, True),
        Workload("mc_dense", DENSE_WORKERS, True),
    )
}


def run_pass(name: str, ctx: Context, index: int, expected) -> PassResult:
    if name == "analytic_sweep":
        return analytic_pass(ctx, index)
    if name == "oracle_sparse":
        return oracle_pass(ctx, index, expected["oracle_sparse"])
    return dense_pass(ctx, index, expected["mc_dense"])
