"""The benchmark's own tests: small-size smoke runs and negative controls.

    PYTHONPATH=src python -m pytest -q perfbench/test_perfbench.py

The smoke runs execute ``run.py`` with the arguments of BENCHMARK.json, on tiny
passes, and require every metric named in BENCHMARK.json.  The negative
controls plant a known defect and require the correctness gate to count a
failed operation, so the gate is shown to have power.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from perfbench import gate, workloads  # noqa: E402
from qkd_eve_lab.keyrate import EveModel  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(*args: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--seed", "5", "--seconds", "0",
         "--size", "small", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("environment: ")
    env = json.loads(lines[0].split(": ", 1)[1])
    assert {"nproc", "cpu_model", "python", "numpy", "seed"} <= env.keys()
    assert env["seed"] == 5
    return json.loads(lines[-1])


def _check_result(result: dict, names: set[str]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == names
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name


def test_spec_names_every_workload_and_metric():
    # analytic_sweep is timed by hand only: its wall time drifts too much on
    # a shared 2-CPU machine for the bounds (README.md).  It stays in the
    # traced run.
    assert [w["name"] for w in SPEC["workloads"]] == ["oracle_sparse", "mc_dense"]
    e2e = {m["name"]: m for m in SPEC["end_to_end"]}
    assert set(e2e) == {"setup_s", "wall_s", "mpulses_per_s", "peak_rss_mb"}
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values())
    layer = {m["name"] for m in SPEC["per_layer"]}
    for model in (m.value for m in EveModel):
        assert {f"keyrate.curve_ms.{model}", f"keyrate.max_distance_ms.{model}",
                f"keyrate.net_rate_calls_per_max_distance.{model}",
                f"keyrate.qber_model_calls_per_point.{model}"} <= layer
    configs = [*workloads.load_expected()["oracle_sparse"], *(c[0] for c in workloads.DENSE_CONFIGS)]
    assert {f"montecarlo.mpulses_per_s.{c}" for c in configs} <= layer
    assert {f"trace.overhead_s.{w}" for w in workloads.WORKLOADS} <= layer
    assert {
        "keyrate.luetkenhaus_rate_ms_per_call", "strategy_b.max_stealth_info_calls",
        "strategy_b.max_stealth_info_ms_per_call", "strategy_a.allocate_calls",
        "strategy_a.allocate_ms_per_call", "core_stats.p_single_calls",
        "montecarlo.photon_fraction.oracle_sparse", "montecarlo.photon_fraction.mc_dense",
        "montecarlo.click_fraction.oracle_sparse", "montecarlo.click_fraction.mc_dense",
        "montecarlo.chunks", "montecarlo.pool_efficiency", "verify.checks",
        "verify.checks_outside_3sigma", "verify.max_abs_z", "config.load_settings_ms",
        "cli.self_ms",
    } <= layer


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_timed_run_smoke(workload):
    result = _run("--workload", workload, "--trace", "0")
    names = {m["name"] for m in SPEC["end_to_end"]}
    if not workloads.WORKLOADS[workload].uses_mc:
        names.discard("mpulses_per_s")
    _check_result(result, names)


def test_traced_run_smoke():
    result = _run("--workload", "mc_dense", "--trace", "1")
    _check_result(result, {m["name"] for m in SPEC["per_layer"]})
    # 11 curves + 5 table entries, 7 verify configs, 3 dense configs at
    # workers=2 and workers=1, 3 determinism pairs; each pass runs twice.
    assert result["attempted"] == 2 * (16 + 7 + 3) + 3 + 3


def test_refuses_a_directory_without_the_source(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mc_dense", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


# ------------------------------------------------------------- negative controls

def _fake_rates_output(out_dir: Path) -> None:
    """The reference tables themselves, named as ``rates --out out/rates.csv`` names them."""
    out_dir.mkdir()
    for ref in workloads.REFERENCE_DIR.glob("rates*.csv"):
        shutil.copy(ref, out_dir / ref.name)


def _perturb(path: Path, row: int, col: int, change) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    cells = lines[row].split(",")
    cells[col] = repr(change(float(cells[col])))
    lines[row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _failed(ops) -> list[str]:
    return [name for name, why in ops if why is not None]


def test_rates_gate_accepts_the_reference(tmp_path):
    _fake_rates_output(tmp_path / "out")
    ops = gate.compare_rates(tmp_path / "out", workloads.REFERENCE_DIR)
    assert len(ops) == 16 and _failed(ops) == []


def test_rates_gate_catches_a_perturbed_curve_value(tmp_path):
    _fake_rates_output(tmp_path / "out")
    ref = tmp_path / "ref"
    shutil.copytree(workloads.REFERENCE_DIR, ref)
    _perturb(ref / "rates_unlimited_mu0.1.csv", 31, 5, lambda v: v * 1.01)
    ops = gate.compare_rates(tmp_path / "out", ref)
    assert _failed(ops) == ["rates_unlimited_mu0.1"]


def test_rates_gate_catches_a_max_distance_beyond_its_resolution(tmp_path):
    _fake_rates_output(tmp_path / "out")
    ref = tmp_path / "ref"
    shutil.copytree(workloads.REFERENCE_DIR, ref)
    _perturb(ref / "rates.csv", 3, 2, lambda v: v + 0.15)  # strategy-b row
    ops = gate.compare_rates(tmp_path / "out", ref)
    assert _failed(ops) == ["max_distance.strategy-b"]


def test_rates_gate_ignores_header_lines(tmp_path):
    _fake_rates_output(tmp_path / "out")
    curve = tmp_path / "out" / "rates_none_mu0.1.csv"
    curve.write_text("# new.key = 1\n" + curve.read_text(encoding="utf-8"), encoding="utf-8")
    assert _failed(gate.compare_rates(tmp_path / "out", workloads.REFERENCE_DIR)) == []


def test_tally_gate_catches_a_biased_expectation(tmp_path):
    expected = workloads.load_expected()["mc_dense"]
    ctx = workloads.Context(5, replace(workloads.SIZES["small"], dense_pulses=2**16),
                            tmp_path)
    clean = workloads.dense_pass(ctx, 0, expected, workers=1)
    assert _failed(clean.ops) == []
    biased = {name: dict(q) for name, q in expected.items()}
    biased["dense_none_mu0.5"]["p_single"] *= 1.05
    result = workloads.dense_pass(ctx, 0, biased, workers=1)
    assert _failed(result.ops) == ["dense_none_mu0.5"]


@pytest.mark.parametrize("observed, trials, expected, fails", [
    (1, 10**6, 1.25e-8, False),  # one count where 0.0125 are expected: no alarm
    (1, 10**6, 0.0, True),
    (99, 100, 1.0, True),
    (0, 0, 0.005, False),  # no trials, no evidence
    (50_000 + 5 * 218, 10**6, 0.05, False),  # +5 sigma: inside the rejection point
    (50_000 + 6 * 218, 10**6, 0.05, True),  # +6 sigma
    (50_000 - 6 * 218, 10**6, 0.05, True),
])
def test_tally_gate_bounds(observed, trials, expected, fails):
    assert gate.tally_fails(observed, trials, expected) is fails
