"""Before/after benchmark pairs of two checkouts of this repository.

    python3 tools/bench_pairs.py --parent OLD --change NEW \\
        --workload oracle_sparse mc_dense --seed 700 --pairs 10 --out BENCH.json

For each workload, pair i runs ``perfbench/run.py --seed SEED+i`` in each
tree, one after the other; the parent goes first in even pairs and the
change in odd ones, so a drift of the machine's speed falls on both sides
alike.  Run length and the end-to-end metrics, with which way is better
and their bounds, come from the change tree's ``BENCHMARK.json``.  For
each side and metric the output gives the median, the quartiles and every
value, the ratio of the medians (change over parent), the number of pairs
the change won (ties count for neither side) and two verdicts:

* ``within_bound``: the ratio of the medians is not worse than the
  metric's ``bound`` in ``BENCHMARK.json``, a fraction of the parent's
  median (at most 1 + bound where lower is better, at least 1 - bound
  where higher is);
* ``gain_holds``: the change won at least 9 in 10 of the pairs, and its
  median is better than the parent's by more than the parent's
  interquartile range.

Each side also gets the median and quartiles of ``minor_faults``: the
minor page faults of each run, the ``RUSAGE_CHILDREN`` delta around it,
which covers the pool workers it waited for.  ``--traced N`` adds N traced
runs (``--trace 1``) per tree, alternating the same way with seed SEED+i in
run i, and gives the median and quartiles of each Monte Carlo and analytic
layer metric: one traced pass cannot resolve a change of 20% in one
config's throughput.  They include ``montecarlo.pool_efficiency``, the
two-worker dense throughput over twice the one-worker throughput, which
shows what the process start-up of a two-worker ``simulate`` costs.
``src_lines`` gives each tree's line count of ``src/qkd_eve_lab/*.py``,
as ``wc -l`` counts it.  Uses the standard library only.

Both trees are timed in the same bytecode state: every run has
``PYTHONDONTWRITEBYTECODE=1``, and a tree holding a ``__pycache__``
directory under ``src/`` is refused, because stale ``.pyc`` files there
make its ``setup_s`` read faster than a clean tree's.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
TRACED_PREFIXES = ("montecarlo.mpulses_per_s.", "montecarlo.photon_fraction.",
                   "montecarlo.pool_efficiency", "keyrate.", "core_stats.", "strategy_a.",
                   "strategy_b.")


STDERR_TAIL = 20  # lines of a failed run's stderr that its error quotes


def run_bench(tree: Path, args: list[str]) -> dict:
    """One ``perfbench/run.py`` run in ``tree``: its environment line, the
    JSON object of its last line and its minor page faults.  The run
    writes no bytecode.  A run that exits non-zero raises RuntimeError
    naming the tree, the workload, the seed and the exit code, with the
    last lines of the run's stderr."""
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=tree,
                          env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
                          capture_output=True, text=True)
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - faults
    if proc.returncode != 0:
        options = dict(zip(args[::2], args[1::2]))
        tail = "\n".join(proc.stderr.splitlines()[-STDERR_TAIL:])
        raise RuntimeError(
            f"perfbench/run.py in {tree} (workload {options.get('--workload')}, seed "
            f"{options.get('--seed')}) exited with code {proc.returncode}; "
            f"last lines of its stderr:\n{tail}")
    lines = proc.stdout.strip().splitlines()
    env = next(json.loads(line.split(":", 1)[1]) for line in lines
               if line.startswith("environment:"))
    return {"environment": env, "minor_faults": faults, **json.loads(lines[-1])}


def src_lines(tree: Path) -> int:
    """Newlines in the package's modules, the total of ``wc -l``."""
    return sum(path.read_bytes().count(b"\n")
               for path in (tree / "src" / "qkd_eve_lab").glob("*.py"))


def summary(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "values": values}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def bench_workload(trees: dict, workload: str, seed: int, pairs: int,
                   seconds: float, metrics: dict) -> dict:
    runs = {side: [] for side in SIDES}
    for i in range(pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for side in order:
            result = run_bench(trees[side], ["--workload", workload, "--seed", str(seed + i),
                                             "--seconds", str(seconds), "--trace", "0"])
            runs[side].append(result)
            print(f"{workload} pair {i} {side}: " + ", ".join(
                f"{m}={result['metrics'][m]['value']:.4g}" for m in metrics
                if m in result["metrics"]), file=sys.stderr)
    out = {"seeds": [seed + i for i in range(pairs)],
           "failed": {side: sum(r["failed"] for r in runs[side]) for side in SIDES},
           "attempted": {side: sum(r["attempted"] for r in runs[side]) for side in SIDES},
           "change_wins": {}, "median_ratio": {}, "within_bound": {}, "gain_holds": {}}
    for side in SIDES:
        out[side] = {"minor_faults": summary([r["minor_faults"] for r in runs[side]])}
    for name, (better, bound) in metrics.items():
        if name not in runs["parent"][0]["metrics"]:
            continue
        values = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in SIDES}
        for side in SIDES:
            out[side][name] = summary(values[side])
        sign = 1.0 if better == "higher" else -1.0
        wins = sum(sign * (new - old) > 0 for old, new in zip(values["parent"], values["change"]))
        out["change_wins"][name] = wins
        parent, change = out["parent"][name], out["change"][name]
        ratio = change["median"] / parent["median"]
        out["median_ratio"][name] = ratio
        out["within_bound"][name] = ratio >= 1.0 - bound if sign > 0 else ratio <= 1.0 + bound
        out["gain_holds"][name] = (10 * wins >= 9 * pairs and sign * (
            change["median"] - parent["median"]) > parent["q3"] - parent["q1"])
    out["environment"] = runs["change"][0]["environment"]
    return out


def bench_traced(trees: dict, workload: str, seed: int, runs: int) -> dict:
    values = {side: {} for side in SIDES}
    for i in range(runs):
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            result = run_bench(trees[side], ["--workload", workload, "--seed", str(seed + i),
                                             "--seconds", "1", "--trace", "1"])
            for name, m in result["metrics"].items():
                if name.startswith(TRACED_PREFIXES):
                    values[side].setdefault(name, []).append(m["value"])
    out = {"runs": runs, "seeds": [seed + i for i in range(runs)]}
    for side in SIDES:
        out[side] = {name: summary(v) for name, v in values[side].items()}
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="parent checkout")
    parser.add_argument("--change", type=Path, required=True, help="changed checkout")
    parser.add_argument("--workload", nargs="+", required=True)
    parser.add_argument("--seed", type=int, required=True, help="seed of pair 0")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--traced", type=int, default=0, metavar="N",
                        help="also N traced runs per tree, for the layer metrics")
    parser.add_argument("--out", type=Path, help="JSON file; default standard output")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    if args.traced < 0:
        parser.error("--traced must be >= 0")

    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, tree in trees.items():
        compiled = sorted((tree / "src").rglob("__pycache__"))
        if compiled:
            parser.error(f"the {side} tree holds compiled bytecode in {compiled[0]}; "
                         "remove it, so that both trees time their set-up alike")
    contract = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    metrics = {m["name"]: (m["better"], m["bound"]) for m in contract["end_to_end"]}
    seconds = contract["run_seconds"]
    report = {"command": "python3 perfbench/run.py --workload W --seed S "
                         f"--seconds {seconds} --trace 0",
              "pairs": args.pairs,
              "src_lines": {side: src_lines(trees[side]) for side in SIDES},
              "workloads": {}}
    if args.traced:
        report["traced"] = bench_traced(trees, args.workload[0], args.seed, args.traced)
    for workload in args.workload:
        report["workloads"][workload] = bench_workload(
            trees, workload, args.seed, args.pairs, seconds, metrics)
    text = json.dumps(report, indent=1) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        args.out.write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
