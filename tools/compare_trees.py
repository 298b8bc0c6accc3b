"""Byte gate between two checkouts of this repository.

    python3 tools/compare_trees.py PARENT CHANGE --configs 120 --seed 31

Draws N random configs from SEED: source.mu, keyrate.f_ec, detector.p_dark,
detector.eta_b, protocol.basis_mode, sim.pulses (also the alarm window),
channel.alpha_e, channel.monitor_tof, channel.length_ab and eve.lambda.  For
each tree, one Python process imports that tree's ``src/qkd_eve_lab`` and
runs every config in process through ``cli.main``: ``rates``, ``strategy-b``,
``stats`` and ``montecarlo`` (eve.model=strategy-b, eve.gamma=auto, 1e5
pulses, and active basis choice, the only one it simulates).

Each command's output files, stdout, stderr, exit code and warnings land
under ``WORK/parent`` and ``WORK/change``, the runs writing relative paths so
that no output names its tree.  A warning is kept as its category and
message, without the file and line that raised it, and the tree's path is
replaced by ``<tree>`` in stdout and stderr.  Every file that differs, or
exists on one side only, is then listed; the exit code is 0 when none does
and 1 otherwise.  Uses the standard library only; the runs use the trees'
own numpy.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import random
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

SIDES = ("parent", "change")
COMMANDS = {  # subcommand -> arguments of cli.main after the config's, so they win
    "rates": [],
    "strategy-b": [],
    "stats": [],
    "montecarlo": ["--set", "protocol.basis_mode=active", "--set", "eve.model=strategy-b",
                   "--set", "eve.gamma=auto", "--pulses", "1e5"],
}
# Run in the tree's process: load this file by path and call run_configs.
RUNNER = ("import importlib.util, sys; "
          "spec = importlib.util.spec_from_file_location('compare_trees', sys.argv[1]); "
          "mod = importlib.util.module_from_spec(spec); spec.loader.exec_module(mod); "
          "mod.run_configs(sys.argv[2])")


def draw_configs(n: int, seed: int) -> list[list[str]]:
    """N configs, each a list of key=value overrides, drawn from seed."""
    rng = random.Random(seed)

    def log_uniform(lo: float, hi: float) -> float:
        return math.exp(rng.uniform(math.log(lo), math.log(hi)))

    configs = []
    for _ in range(n):
        values = {
            "source.mu": f"{log_uniform(0.02, 0.9):.4g}",
            "keyrate.f_ec": f"{rng.uniform(1.0, 1.6):.4g}",
            "detector.p_dark": "0" if rng.random() < 0.2 else f"{log_uniform(1e-8, 1e-5):.3g}",
            "detector.eta_b": f"{rng.uniform(0.05, 1.0):.4g}",
            "protocol.basis_mode": rng.choice(["active", "passive"]),
            "sim.pulses": str(round(10 ** rng.uniform(4.0, 14.0))),
            "channel.alpha_e": f"{rng.uniform(0.1, 0.25):.4g}",
            "channel.monitor_tof": rng.choice(["true", "false"]),
            "channel.length_ab": f"{rng.uniform(1.0, 150.0):.4g}",
            "eve.lambda": f"{rng.uniform(0.02, 0.95):.4g}",
        }
        configs.append([f"{key}={value}" for key, value in values.items()])
    return configs


def run_configs(work: str) -> None:
    """Run every command on every config of ``WORK/configs.json``, in this
    process, writing each run's outputs under ``WORK/cNNN/``."""
    import contextlib
    import io
    import warnings

    from qkd_eve_lab import cli

    work_dir = Path(work)
    tree = str(Path(cli.__file__).resolve().parents[2])
    os.chdir(work_dir)
    for i, overrides in enumerate(json.loads(Path("configs.json").read_text())):
        case = Path(f"c{i:03d}")
        case.mkdir()
        sets = [arg for pair in overrides for arg in ("--set", pair)]
        for name, extra in COMMANDS.items():
            stdout, stderr = io.StringIO(), io.StringIO()
            with warnings.catch_warnings(record=True) as caught, \
                    contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                warnings.simplefilter("always")
                try:
                    code = cli.main([name, *sets, *extra, "--out", str(case / f"{name}.csv")])
                except Exception as exc:  # kept as an output, so both trees are compared
                    code = f"{type(exc).__name__}: {exc}"
            for suffix, text in (("stdout", stdout.getvalue()),
                                 ("stderr", f"exit {code}\n{stderr.getvalue()}"),
                                 ("warnings", "".join(f"{w.category.__name__}: {w.message}\n"
                                                      for w in caught))):
                (case / f"{name}.{suffix}").write_text(text.replace(tree, "<tree>"))


def run_tree(tree: Path, work: Path, configs: list[list[str]]) -> None:
    """Run the configs in one process that imports ``tree``'s source."""
    work.mkdir(parents=True)
    (work / "configs.json").write_text(json.dumps(configs))
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run([sys.executable, "-c", RUNNER, str(Path(__file__).resolve()),
                           str(work)], env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"the runs in {tree} exited with code {proc.returncode}:\n"
                           f"{proc.stderr}")


def differing(parent: Path, change: Path) -> list[str]:
    """Relative paths that differ between two output directories, or exist
    in one only, in name order."""
    def files(root: Path) -> dict[str, bytes]:
        return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}

    old, new = files(parent), files(change)
    return sorted(name for name in old.keys() | new.keys() if old.get(name) != new.get(name))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--configs", type=int, default=120, help="random configs to run")
    parser.add_argument("--seed", type=int, default=0, help="seed of the config draw")
    parser.add_argument("--work", type=Path, default=None,
                        help="directory for the outputs, which must not exist; "
                             "default: a temporary one, removed afterwards")
    args = parser.parse_args(argv)
    configs = draw_configs(args.configs, args.seed)
    work = args.work or Path(tempfile.mkdtemp(prefix="compare_trees_")) / "runs"
    try:
        for side, tree in zip(SIDES, (args.parent, args.change)):
            run_tree(tree.resolve(), work / side, configs)
        names = differing(work / "parent", work / "change")
    finally:
        if args.work is None:
            shutil.rmtree(work.parent)
    for name in names:
        print(f"differs: {name}")
    runs = len(configs) * len(COMMANDS)
    print(f"{len(names)} differing files over {len(configs)} configs ({runs} runs per tree)")
    return 1 if names else 0


if __name__ == "__main__":
    sys.exit(main())
