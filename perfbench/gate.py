"""Correctness gates that decide whether one benchmark operation failed.

Two gates, both pure functions of already-produced output:

* ``compare_rates`` compares the CSV files written by ``rates`` with the
  reference tables stored in ``perfbench/reference/``.  ``#`` header lines
  are skipped, so adding a config key never counts as a failure.
* ``tally_fails`` decides whether one Monte Carlo tally is inconsistent
  with its closed-form probability.  It rejects when the Chernoff bound on
  the binomial tail probability falls below ``TAIL_ALPHA``, the one-sided
  normal 5-sigma tail.  The Chernoff bound is never smaller than the exact
  tail, so the false-alarm rate per tally is at most ``2 * TAIL_ALPHA``
  (5.7e-7), also for tallies of a handful of counts where a normal z-score
  means nothing.  For large counts the rejection point is about 5.5 sigma.
"""
from __future__ import annotations

import math
from pathlib import Path

# One-sided tail of the standard normal beyond 5 sigma.
TAIL_ALPHA = 0.5 * math.erfc(5.0 / math.sqrt(2.0))

# Rate-curve columns are printed with six decimals (seven significant digits
# below 1e-3); solver tolerances (mu_opt to 1e-6) move the last ones.
RATE_REL_TOL = 1e-3
RATE_ABS_TOL = 1e-9
# keyrate.max_distance resolves the cutoff to 0.1 km.
MAX_DISTANCE_TOL_KM = 0.1


def data_rows(path: Path) -> list[list[str]]:
    """CSV rows of a file, without ``#`` header lines."""
    lines = path.read_text(encoding="utf-8").splitlines()
    return [line.split(",") for line in lines if line and not line.startswith("#")]


def _close(value: str, ref: str, rel: float, abs_tol: float) -> bool:
    try:
        a, b = float(value), float(ref)
    except ValueError:
        return value == ref
    if math.isinf(a) or math.isinf(b) or math.isnan(a) or math.isnan(b):
        return str(a) == str(b)
    return math.isclose(a, b, rel_tol=rel, abs_tol=abs_tol)


def curve_mismatch(out: Path, ref: Path) -> str | None:
    """First difference between one rate-curve CSV and its reference."""
    if not out.is_file():
        return f"{out.name}: not written"
    got, want = data_rows(out), data_rows(ref)
    if not got or got[0] != want[0]:
        return f"{out.name}: columns {got[:1]} != {want[:1]}"
    if len(got) != len(want):
        return f"{out.name}: {len(got) - 1} rows, reference has {len(want) - 1}"
    for row, ref_row in zip(got[1:], want[1:]):
        if len(row) != len(ref_row):
            return f"{out.name}: row {row} has the wrong width"
        for col, value, ref_value in zip(want[0], row, ref_row):
            if not _close(value, ref_value, RATE_REL_TOL, RATE_ABS_TOL):
                return f"{out.name}: {col}={value}, reference {ref_value} (row {row[0]})"
    return None


def table_mismatches(out: Path, ref: Path) -> dict[str, str | None]:
    """Per model: the difference of its max-distance entry, or None."""
    ref_rows = data_rows(ref)
    got: dict[str, list[str]] = {}
    if out.is_file():
        rows = data_rows(out)
        if rows and rows[0] == ref_rows[0]:
            got = {row[0]: row for row in rows[1:]}
    result: dict[str, str | None] = {}
    for ref_row in ref_rows[1:]:
        model, row = ref_row[0], got.get(ref_row[0])
        if row is None or len(row) != len(ref_row):
            result[model] = f"max distance of {model}: missing"
        elif not (
            _close(row[1], ref_row[1], 1e-12, 0.0)
            and _close(row[2], ref_row[2], 0.0, MAX_DISTANCE_TOL_KM)
        ):
            result[model] = f"max distance of {model}: {row[1:]} != reference {ref_row[1:]}"
        else:
            result[model] = None
    return result


def compare_rates(out_dir: Path, ref_dir: Path) -> list[tuple[str, str | None]]:
    """One (operation, failure or None) per rate curve and per table entry.

    ``out_dir`` holds the files of ``rates --out out_dir/rates.csv``: the
    max-distance table ``rates.csv`` and one ``rates_<model>_mu<mu>.csv``
    per curve, named as in ``ref_dir``.
    """
    ops: list[tuple[str, str | None]] = [
        (ref.stem, curve_mismatch(out_dir / ref.name, ref))
        for ref in sorted(ref_dir.glob("rates_*.csv"))
    ]
    for model, failure in table_mismatches(out_dir / "rates.csv", ref_dir / "rates.csv").items():
        ops.append((f"max_distance.{model}", failure))
    return ops


def _kl_bernoulli(q: float, p: float) -> float:
    """Kullback-Leibler divergence KL(Bernoulli(q) || Bernoulli(p))."""
    out = 0.0
    if q > 0.0:
        out += q * math.log(q / p)
    if q < 1.0:
        out += (1.0 - q) * math.log((1.0 - q) / (1.0 - p))
    return out


def tally_fails(observed: int, trials: int, expected: float) -> bool:
    """True when ``observed`` successes in ``trials`` contradict ``expected``.

    The Chernoff bound exp(-n KL(k/n || p)) on the tail probability on the
    observed side is compared with ``TAIL_ALPHA``.  A tally with no trials
    carries no evidence and never fails.
    """
    if not 0.0 <= expected <= 1.0 or not 0 <= observed <= trials:
        return True
    if trials == 0:
        return False
    if expected == 0.0:
        return observed > 0
    if expected == 1.0:
        return observed < trials
    exponent = trials * _kl_bernoulli(observed / trials, expected)
    return exponent > -math.log(TAIL_ALPHA)


def tally_failures(tallies: dict[str, tuple[int, int]], expected: dict[str, float]) -> list[str]:
    """Messages for every expected quantity whose tally fails the gate."""
    failures = []
    for quantity, p in expected.items():
        if quantity not in tallies:
            failures.append(f"{quantity}: not tallied")
            continue
        observed, trials = tallies[quantity]
        if tally_fails(observed, trials, p):
            failures.append(f"{quantity}: {observed}/{trials} against expected {p!r}")
    return failures
