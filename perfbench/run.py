"""Benchmark entry point.  Run from the repository root:

    python3 perfbench/run.py --workload analytic_sweep --seed 1 --seconds 20 --trace 0

``--trace 0`` is the timed run of one workload: it repeats the workload's
pass for ``--seconds`` and reports the end-to-end metrics (medians over
passes).  ``--trace 1`` is the traced run: one traced pass of every workload,
after untraced passes of the same inputs, and the workers=1 / workers=2
determinism probe; it reports the per-layer metrics.

Every operation's output is checked; the last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  A line before it records the run environment.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORKLOAD_NAMES = ("analytic_sweep", "oracle_sparse", "mc_dense")

# What a user pays before the first result: interpreter, package import and
# the shipped config, parsed and validated.
SETUP_CODE = "import qkd_eve_lab; qkd_eve_lab.load_settings().system()"

# calibrate() at the nominal speed of the 2-CPU VM the baseline was taken
# on (median of 40 calls).  That VM's speed drifted by 20-50% for minutes
# at a time, moving every raw time with it.  Scaling by the calibration
# cancels the drift; see README.md.
CALIBRATION_NOMINAL_S = 0.28


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True, help="workload seed")
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long the timed run repeats its pass")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run reporting the per-layer metrics")
    parser.add_argument("--size", choices=("full", "small"), default="full",
                        help="small: tiny passes, for the benchmark's own tests")
    return parser.parse_args(argv)


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict[str, object]:
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "seed": seed,
    }


def setup_probe() -> float:
    """Wall time of one fresh interpreter running SETUP_CODE."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT, check=True)
    return perf_counter() - t0


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest child (pool worker
    or set-up interpreter), in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def calibrate() -> float:
    """Seconds taken by a fixed mix of interpreter and numpy work."""
    t0 = perf_counter()
    acc = 0.0
    for i in range(250_000):
        x = i * 1e-6
        acc += math.exp(-x) * (1.0 + x) / (2.0 + math.log1p(x))
    rng = np.random.Generator(np.random.Philox(key=0))
    edges = np.linspace(0.0, 1.0, 21)
    for _ in range(3):
        np.count_nonzero(np.searchsorted(edges, rng.random(2**20)) > 3)
    return perf_counter() - t0


def timed_run(name, ctx, seconds, expected):
    """Repeat the workload's pass for ``seconds``; medians over passes.

    Times are reported at the machine's nominal speed.  The calibration
    loop runs before the first pass and after every pass.  Each pass's
    times are scaled by CALIBRATION_NOMINAL_S over the mean of the two
    calibrations around it.  The set-up probe runs between passes too, so
    it is scaled by the same neighbours.  The raw medians go to stderr.
    """
    from perfbench import workloads

    setup_probe()  # writes the .pyc files
    passes, setup, cal = [], [], [calibrate()]
    t_start = perf_counter()
    while True:
        passes.append(workloads.run_pass(name, ctx, len(passes), expected))
        setup.append(setup_probe())
        cal.append(calibrate())
        elapsed = perf_counter() - t_start
        if len(passes) >= ctx.size.min_passes and elapsed * (1 + 1 / len(passes)) > seconds:
            break
    speed = [2.0 * CALIBRATION_NOMINAL_S / (a + b) for a, b in zip(cal, cal[1:])]
    metrics = {
        "setup_s": (statistics.median(t * f for t, f in zip(setup, speed)), "s"),
        "wall_s": (statistics.median(p.wall_s * f for p, f in zip(passes, speed)), "s"),
    }
    if workloads.WORKLOADS[name].uses_mc:
        rates = [p.pulses / (p.mc_s * f) / 1e6 for p, f in zip(passes, speed)]
        metrics["mpulses_per_s"] = (statistics.median(rates), "Mpulses/s")
    metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    print(f"{name}: {len(passes)} passes in {perf_counter() - t_start:.1f} s; raw medians "
          f"wall {statistics.median(p.wall_s for p in passes):.4f} s, "
          f"set-up {statistics.median(setup):.4f} s; speed factor {statistics.median(speed):.4f}",
          file=sys.stderr)
    return [op for p in passes for op in p.ops], metrics


def traced_run(ctx, expected):
    from perfbench import tracing, workloads

    ops, metrics, traced = [], {}, {}
    for name in WORKLOAD_NAMES:
        base = [workloads.run_pass(name, ctx, 0, expected) for _ in range(ctx.size.baseline_passes)]
        tracer = tracing.Tracer()
        with tracing.installed(tracer):
            result = workloads.run_pass(name, ctx, 0, expected)
        traced[name] = (result, tracer.spans)
        ops += [op for p in (*base, result) for op in p.ops]
        overhead = result.wall_s - statistics.median(p.wall_s for p in base)
        metrics[f"trace.overhead_s.{name}"] = (overhead, "s")

    # Determinism probe (criterion 10): the traced workers=2 pass against
    # the same inputs on one worker; its timing gives the pool efficiency.
    dense, dense_spans = traced["mc_dense"]
    probe_tracer = tracing.Tracer()
    with tracing.installed(probe_tracer):
        single = workloads.dense_pass(ctx, 0, expected["mc_dense"], workers=1)
    ops += single.ops
    for cfg_name, tally in dense.tallies.items():
        other = single.tallies.get(cfg_name)
        why = None if other == tally else f"workers=2 {tally} != workers=1 {other}"
        ops.append((f"determinism.{cfg_name}", why))

    analytic_spans = traced["analytic_sweep"][1]
    metrics.update(tracing.analytic_metrics(analytic_spans))

    oracle, oracle_spans = traced["oracle_sparse"]
    oracle_sims = tracing.sim_spans(oracle_spans)
    oracle_names = list(expected["oracle_sparse"])
    if len(oracle_sims) != len(oracle_names):
        raise RuntimeError(f"verify ran {len(oracle_sims)} simulations, expected {len(oracle_names)}")
    dense_sims = tracing.sim_spans(dense_spans)
    for cfg_name, span in [*zip(oracle_names, oracle_sims), *zip(dense.tallies, dense_sims)]:
        metrics[f"montecarlo.mpulses_per_s.{cfg_name}"] = (tracing.mpulses_per_s([span]), "Mpulses/s")
    singles = [r for r in oracle.oracle_rows if r["quantity"] == "p_single"]
    click = {
        "oracle_sparse": sum(int(r["observed"]) for r in singles)
        / sum(int(r["trials"]) for r in singles),
        "mc_dense": sum(t.singles for t in dense.tallies.values())
        / sum(t.n_pulses for t in dense.tallies.values()),
    }
    for wl, sims in (("oracle_sparse", oracle_sims), ("mc_dense", dense_sims)):
        metrics[f"montecarlo.photon_fraction.{wl}"] = (tracing.photon_fraction(sims), "fraction")
        metrics[f"montecarlo.click_fraction.{wl}"] = (click[wl], "fraction")
    metrics["montecarlo.chunks"] = (tracing.chunks(oracle_sims + dense_sims), "count")
    single_sims = tracing.sim_spans(probe_tracer.spans)
    metrics["montecarlo.pool_efficiency"] = (
        tracing.mpulses_per_s(dense_sims) / (2.0 * tracing.mpulses_per_s(single_sims)), "ratio")

    z = [float(r["z"]) for r in oracle.oracle_rows]
    metrics["verify.checks"] = (len(oracle.oracle_rows), "count")
    metrics["verify.checks_outside_3sigma"] = (
        sum(r["passed"] != "1" for r in oracle.oracle_rows), "count")
    metrics["verify.max_abs_z"] = (max((abs(v) for v in z if math.isfinite(v)), default=0.0), "sigma")

    loads = [s.duration for _, spans in traced.values() for s in spans
             if s.name == "config.load_settings"]
    metrics["config.load_settings_ms"] = (1e3 * statistics.fmean(loads), "ms")
    return ops, metrics


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "qkd_eve_lab" / "__init__.py").is_file():
        print(f"error: no qkd_eve_lab source under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    import qkd_eve_lab

    if not Path(qkd_eve_lab.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported qkd_eve_lab from {qkd_eve_lab.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from perfbench import workloads

    names = WORKLOAD_NAMES if args.trace else (args.workload,)
    cpus = os.cpu_count() or 1
    for name in names:
        if workloads.WORKLOADS[name].workers > cpus:
            print(f"error: {name} needs {workloads.WORKLOADS[name].workers} workers, "
                  f"os.cpu_count() is {cpus}", file=sys.stderr)
            return 2

    print("environment: " + json.dumps(environment(args.seed)))
    workdir = ROOT / ".perfbench_out" / f"{args.workload}-{os.getpid()}"
    ctx = workloads.Context(args.seed, workloads.SIZES[args.size], workdir)
    expected = workloads.load_expected()
    try:
        if args.trace:
            ops, metrics = traced_run(ctx, expected)
        else:
            ops, metrics = timed_run(args.workload, ctx, args.seconds, expected)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()

    failures = [f"{op}: {why}" for op, why in ops if why is not None]
    for line in failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
