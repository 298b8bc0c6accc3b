"""Regenerate the reference data in perfbench/reference/ from the current source.

Run from the repository root:  python3 perfbench/capture_reference.py

Writes
* ``rates*.csv``: the CSVs of ``rates`` with the shipped defaults, without
  their ``#`` header lines;
* ``mc_expected.json``: per Monte Carlo config, the closed-form probability
  of every tallied quantity.  The ``oracle_sparse`` values are the
  ``expected`` column of ``verify``; the ``mc_dense`` values are derived
  below for a 0 km link with a perfect detector and no dark counts.

Only regenerate when a change is meant to alter these numbers, and say so.
"""
from __future__ import annotations

import json
import math
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from qkd_eve_lab import cli, strategy_a  # noqa: E402
from qkd_eve_lab.montecarlo import PHOTON_CAP  # noqa: E402
from qkd_eve_lab.strategy_b import model_click_probs, sifted_info_model  # noqa: E402

from perfbench import gate, workloads  # noqa: E402


def no_eve_expected(mu: float, qber_opt: float) -> dict[str, float]:
    """Clean channel with t_ab = eta_b = 1: every photon reaches a detector."""
    p_click = -math.expm1(-mu)
    return {
        "p_single": p_click,
        "p_coinc": 0.5 * math.expm1(-mu / 2.0) ** 2,
        "sifted_fraction": p_click / 2.0,
        "qber": qber_opt,
        "eve_fraction": 0.0,
    }


def strategy_b_expected(attack, mu: float, qber_opt: float) -> dict[str, float]:
    p_click, p_coinc = model_click_probs(attack, mu, 1.0)
    return {
        "p_single": p_click,
        "p_coinc": p_coinc,
        "sifted_fraction": p_click / 2.0,
        "qber": qber_opt,
        "eve_fraction": sifted_info_model(attack, mu),
    }


def strategy_a_expected(mu: float, qber_opt: float) -> dict[str, float]:
    """Strategy A at t_ab = 1, eta_b = 1, as the simulation realizes it.

    Eve's analyzer sends each of n photons to the sifting basis with
    probability 1/2, and the wrong-basis ones to either detector with 1/2.
    She resends class X with probability usage_X / supply_X and fills
    vacuum pulses with blind states.  Each resent photon clicks exactly one
    detector, so P(click) = P(resend).  Per resent pulse the error
    probability and whether she knows the bit are:
      n = 1, right basis: 0, known;        n = 1, wrong basis: 1/2
      n >= 2, both bases (class B): sin^2(pi/8), known
      n >= 2, all right (class C): 0, known
      n >= 2, all wrong, same detector (class C): 1/2
      n >= 2, all wrong, both detectors (class D): 1/2
      n = 0, blind: 1/2
    """
    mix = strategy_a.allocate(mu, 1.0)
    resend = {x: mix.usage[x] / mix.supply[x] for x in strategy_a.CASE_LABELS}
    p0 = math.exp(-mu)
    blind = min(1.0, mix.blind / p0)
    p_resend, p_error, p_known = p0 * blind, p0 * blind * 0.5, 0.0
    p1 = mu * p0
    p_resend += p1 * resend["A"]
    p_error += p1 * resend["A"] * 0.25
    p_known += p1 * resend["A"] * 0.5
    for n in range(2, PHOTON_CAP + 1):
        pn = math.exp(n * math.log(mu) - mu - math.lgamma(n + 1))
        h = 0.5**n
        classes = (  # (probability given n, resend prob, error prob, known)
            (1.0 - 2.0 * h, resend["B"], strategy_a.INTERMEDIATE_STATE_QBER, True),
            (h, resend["C"], 0.0, True),
            (h * 2.0 * h, resend["C"], 0.5, False),
            (h * (1.0 - 2.0 * h), resend["D"], 0.5, False),
        )
        for p_class, r, err, known in classes:
            w = pn * p_class * r
            p_resend += w
            p_error += w * err
            p_known += w if known else 0.0
    e = p_error / p_resend
    return {
        "p_single": p_resend,
        "p_coinc": 0.0,
        "sifted_fraction": p_resend / 2.0,
        "qber": e * (1.0 - qber_opt) + (1.0 - e) * qber_opt,
        "eve_fraction": p_known / p_resend,
    }


def dense_expected() -> dict[str, dict[str, float]]:
    out = {}
    for name, mu, model, attack in workloads.DENSE_CONFIGS:
        qber_opt = workloads.dense_system(mu).qber_opt
        if attack is not None:
            out[name] = strategy_b_expected(attack, mu, qber_opt)
        elif model.value == "strategy-a":
            out[name] = strategy_a_expected(mu, qber_opt)
        else:
            out[name] = no_eve_expected(mu, qber_opt)
    return out


def oracle_expected(work: Path) -> dict[str, dict[str, float]]:
    out_csv = work / "verify.csv"
    cli.main(["verify", "--pulses", "1e4", "--seed", "1", "--out", str(out_csv)])
    rows = gate.data_rows(out_csv)
    expected: dict[str, dict[str, float]] = {}
    for row in rows[1:]:
        rec = dict(zip(rows[0], row))
        expected.setdefault(rec["check"], {})[rec["quantity"]] = float(rec["expected"])
    return expected


def main() -> int:
    ref = workloads.REFERENCE_DIR
    work = ROOT / ".perfbench_out" / "capture"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ref.mkdir(exist_ok=True)
    cli.main(["rates", "--out", str(work / "rates.csv")])
    for old in ref.glob("rates*.csv"):
        old.unlink()
    for csv in sorted(work.glob("rates*.csv")):
        rows = gate.data_rows(csv)
        (ref / csv.name).write_text("\n".join(",".join(r) for r in rows) + "\n", encoding="utf-8")
    expected = {"oracle_sparse": oracle_expected(work), "mc_dense": dense_expected()}
    workloads.EXPECTED_FILE.write_text(json.dumps(expected, indent=1) + "\n", encoding="utf-8")
    shutil.rmtree(work)
    print(f"wrote reference data to {ref}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
