"""The pair runner's bookkeeping, with the benchmark runs faked."""
import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def test_summary_quartiles():
    s = bench_pairs.summary([4.0, 1.0, 3.0, 2.0, 5.0])
    assert (s["q1"], s["median"], s["q3"]) == (2.0, 3.0, 4.0)
    assert bench_pairs.summary([7.0])["median"] == 7.0


def test_pairs_alternate_and_count_wins(monkeypatch, tmp_path):
    calls = []

    def fake_run(tree, args):
        side = tree.name
        seed = int(args[args.index("--seed") + 1])
        calls.append((side, seed))
        speed = 2.0 if side == "change" else 1.0
        if seed == 3:
            speed = 0.5  # a tie: the change does not win this pair
        return {"environment": {"seed": seed}, "minor_faults": 100 * seed + len(side),
                "correct": True, "attempted": 3, "failed": 0,
                "metrics": {"wall_s": {"value": 1.0 / speed, "unit": "s"},
                            "mpulses_per_s": {"value": speed, "unit": "Mpulses/s"}}}

    monkeypatch.setattr(bench_pairs, "run_bench", fake_run)
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps({
        "run_seconds": 1, "end_to_end": [
            {"name": "wall_s", "better": "lower", "bound": 0.25},
            {"name": "mpulses_per_s", "better": "higher", "bound": 0.25}]}))
    out = tmp_path / "bench.json"
    assert bench_pairs.main(["--parent", str(tmp_path / "parent"), "--change",
                             str(tmp_path / "change"), "--workload", "w", "--seed", "0",
                             "--pairs", "4", "--out", str(out)]) == 0
    assert calls == [("parent", 0), ("change", 0), ("change", 1), ("parent", 1),
                     ("parent", 2), ("change", 2), ("change", 3), ("parent", 3)]
    report = json.loads(out.read_text())["workloads"]["w"]
    assert report["change_wins"] == {"wall_s": 3, "mpulses_per_s": 3}
    assert report["parent"]["wall_s"]["values"] == [1.0, 1.0, 1.0, 2.0]
    assert report["median_ratio"]["mpulses_per_s"] == 2.0
    assert report["parent"]["minor_faults"]["values"] == [6, 106, 206, 306]
    assert report["change"]["minor_faults"]["median"] == 156.0
    assert "minor_faults" not in report["change_wins"]


def test_verdicts_on_bounds_and_gains(monkeypatch, tmp_path):
    # Ten pairs; in pair i the parent reads 10 + i/10 on every metric, so its
    # interquartile range is 0.45.
    def change_value(name, i, parent):
        if name == "mpulses_per_s":  # higher is better: 9 wins by about 1
            return parent + 1.0 if i != 9 else parent - 0.5
        if name == "wall_s":  # 10 wins, by less than the parent's spread
            return parent - 0.01
        if name == "setup_s":  # 30% slower, beyond its bound of 25%
            return parent * 1.3
        return parent / 2 if i < 8 else parent + 1.0  # peak_rss_mb: 8 wins of 10

    def fake_run(tree, args):
        i = int(args[args.index("--seed") + 1])
        parent = 10.0 + i / 10
        return {"environment": {}, "minor_faults": 0, "attempted": 1, "failed": 0,
                "metrics": {name: {"value": parent if tree.name == "parent"
                                   else change_value(name, i, parent)}
                            for name in ("mpulses_per_s", "wall_s", "setup_s", "peak_rss_mb")}}

    monkeypatch.setattr(bench_pairs, "run_bench", fake_run)
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps({
        "run_seconds": 1, "end_to_end": [
            {"name": "setup_s", "better": "lower", "bound": 0.25},
            {"name": "wall_s", "better": "lower", "bound": 0.25},
            {"name": "mpulses_per_s", "better": "higher", "bound": 0.25},
            {"name": "peak_rss_mb", "better": "lower", "bound": 0.15}]}))
    out = tmp_path / "bench.json"
    assert bench_pairs.main(["--parent", str(tmp_path / "parent"), "--change",
                             str(tmp_path / "change"), "--workload", "w", "--seed", "0",
                             "--pairs", "10", "--out", str(out)]) == 0
    report = json.loads(out.read_text())["workloads"]["w"]
    parent = report["parent"]["wall_s"]
    assert parent["q3"] - parent["q1"] == pytest.approx(0.45)
    assert report["change_wins"] == {"setup_s": 0, "wall_s": 10, "mpulses_per_s": 9,
                                     "peak_rss_mb": 8}
    assert report["within_bound"] == {"setup_s": False, "wall_s": True,
                                      "mpulses_per_s": True, "peak_rss_mb": True}
    assert report["gain_holds"] == {"setup_s": False, "wall_s": False,
                                    "mpulses_per_s": True, "peak_rss_mb": False}


def test_within_bound_at_and_past_the_bound(monkeypatch, tmp_path):
    # A slowdown of exactly the bound is within it; a larger one is not.
    def fake_run(tree, args):
        past = int(args[args.index("--seed") + 1])  # seed 0 at the bound, 1 past it
        wall, rate = (8.0, 8.0) if tree.name == "parent" else ((10.0, 6.0), (10.5, 5.5))[past]
        return {"environment": {}, "minor_faults": 0, "attempted": 1, "failed": 0,
                "metrics": {"wall_s": {"value": wall}, "mpulses_per_s": {"value": rate}}}

    monkeypatch.setattr(bench_pairs, "run_bench", fake_run)
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps({
        "run_seconds": 1, "end_to_end": [
            {"name": "wall_s", "better": "lower", "bound": 0.25},
            {"name": "mpulses_per_s", "better": "higher", "bound": 0.25}]}))
    verdicts = []
    for seed in ("0", "1"):
        out = tmp_path / f"bench{seed}.json"
        assert bench_pairs.main(["--parent", str(tmp_path / "parent"), "--change",
                                 str(tmp_path / "change"), "--workload", "w", "--seed", seed,
                                 "--pairs", "1", "--out", str(out)]) == 0
        verdicts.append(json.loads(out.read_text())["workloads"]["w"]["within_bound"])
    assert verdicts == [{"wall_s": True, "mpulses_per_s": True},
                        {"wall_s": False, "mpulses_per_s": False}]


def test_run_counts_the_minor_faults_of_the_run(tmp_path):
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(
        "import json\n"
        "pages = b'x' * (16 * 2**20)  # writes 4096 fresh pages\n"
        "print('environment: {\"cpus\": 2}')\n"
        "print(json.dumps({'attempted': 1, 'failed': 0, 'metrics': {}}))\n")
    result = bench_pairs.run_bench(tmp_path, ["--seed", "0"])
    assert result["environment"] == {"cpus": 2}
    assert result["attempted"] == 1
    assert result["minor_faults"] >= 16 * 2**20 // 4096


def test_run_writes_no_bytecode(monkeypatch, tmp_path):
    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(
        "import json, os, sys\n"
        "print('environment: ' + json.dumps({'flag': os.environ.get('PYTHONDONTWRITEBYTECODE'),"
        " 'writes': not sys.dont_write_bytecode}))\n"
        "print(json.dumps({'attempted': 1, 'failed': 0, 'metrics': {}}))\n")
    result = bench_pairs.run_bench(tmp_path, ["--seed", "0"])
    assert result["environment"] == {"flag": "1", "writes": False}


@pytest.mark.parametrize("side", ["parent", "change"])
def test_tree_holding_bytecode_under_src_is_refused(monkeypatch, tmp_path, capsys, side):
    monkeypatch.setattr(bench_pairs, "run_bench", lambda tree, args: pytest.fail("ran"))
    for name in ("parent", "change"):
        (tmp_path / name / "src" / "qkd_eve_lab").mkdir(parents=True)
    compiled = tmp_path / side / "src" / "qkd_eve_lab" / "__pycache__"
    compiled.mkdir()
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps({
        "run_seconds": 1, "end_to_end": [{"name": "wall_s", "better": "lower", "bound": 0.25}]}))
    with pytest.raises(SystemExit) as exit_info:
        bench_pairs.main(["--parent", str(tmp_path / "parent"), "--change",
                          str(tmp_path / "change"), "--workload", "w", "--seed", "0"])
    assert exit_info.value.code == 2
    assert f"the {side} tree holds compiled bytecode in {compiled}" in capsys.readouterr().err


def test_failed_run_names_tree_workload_seed_code_and_stderr(tmp_path):
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(
        "import sys\n"
        "for i in range(30):\n"
        "    print(f'stderr line {i}', file=sys.stderr)\n"
        "sys.exit(1)\n")
    with pytest.raises(RuntimeError) as failure:
        bench_pairs.run_bench(tmp_path, ["--workload", "mc_dense", "--seed", "703",
                                         "--seconds", "1", "--trace", "0"])
    message = str(failure.value)
    assert f"in {tmp_path} (workload mc_dense, seed 703) exited with code 1" in message
    assert message.endswith("stderr line 29")
    assert "stderr line 10\n" in message and "stderr line 9\n" not in message


def test_traced_runs_alternate_and_take_medians(monkeypatch, tmp_path):
    calls = []

    def fake_run(tree, args):
        side = tree.name
        seed = int(args[args.index("--seed") + 1])
        calls.append((side, seed, args[args.index("--trace") + 1]))
        if args[args.index("--trace") + 1] == "0":
            metrics = {"wall_s": {"value": 1.0, "unit": "s"}}
        else:
            rate = (10.0 if side == "change" else 5.0) + seed  # seeds 0, 1, 2
            metrics = {"montecarlo.mpulses_per_s.dense": {"value": rate, "unit": "Mpulses/s"},
                       "montecarlo.photon_fraction.mc_dense": {"value": 0.3, "unit": "fraction"},
                       "keyrate.curve_ms.none": {"value": 2.0 * seed, "unit": "ms"},
                       "montecarlo.pool_efficiency": {"value": 0.6 + 0.1 * seed,
                                                      "unit": "ratio"},
                       "montecarlo.chunks": {"value": 40, "unit": "count"},
                       "verify.checks": {"value": 23, "unit": "count"}}
        return {"environment": {}, "minor_faults": 0, "correct": True, "attempted": 1,
                "failed": 0, "metrics": metrics}

    monkeypatch.setattr(bench_pairs, "run_bench", fake_run)
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps({
        "run_seconds": 1, "end_to_end": [{"name": "wall_s", "better": "lower", "bound": 0.25}]}))
    out = tmp_path / "bench.json"
    assert bench_pairs.main(["--parent", str(tmp_path / "parent"), "--change",
                             str(tmp_path / "change"), "--workload", "w", "--seed", "0",
                             "--pairs", "1", "--traced", "3", "--out", str(out)]) == 0
    assert calls[:6] == [("parent", 0, "1"), ("change", 0, "1"), ("change", 1, "1"),
                         ("parent", 1, "1"), ("parent", 2, "1"), ("change", 2, "1")]
    traced = json.loads(out.read_text())["traced"]
    assert traced["runs"] == 3 and traced["seeds"] == [0, 1, 2]
    assert set(traced["change"]) == {"montecarlo.mpulses_per_s.dense",
                                     "montecarlo.photon_fraction.mc_dense",
                                     "keyrate.curve_ms.none",
                                     "montecarlo.pool_efficiency"}
    rates = traced["change"]["montecarlo.mpulses_per_s.dense"]
    assert (rates["median"], rates["values"]) == (11.0, [10.0, 11.0, 12.0])
    assert traced["parent"]["montecarlo.mpulses_per_s.dense"]["median"] == 6.0
    assert traced["parent"]["keyrate.curve_ms.none"]["values"] == [0.0, 2.0, 4.0]
    efficiency = traced["change"]["montecarlo.pool_efficiency"]
    assert [efficiency[q] for q in ("q1", "median", "q3")] == pytest.approx([0.65, 0.7, 0.75])


def test_negative_traced_count_is_rejected(tmp_path):
    with pytest.raises(SystemExit):
        bench_pairs.main(["--parent", str(tmp_path), "--change", str(tmp_path),
                          "--workload", "w", "--seed", "0", "--traced", "-1"])


def test_report_counts_the_source_lines_of_each_tree(monkeypatch, tmp_path):
    def fake_run(tree, args):
        return {"environment": {}, "minor_faults": 0, "attempted": 1, "failed": 0,
                "metrics": {"wall_s": {"value": 1.0}}}

    monkeypatch.setattr(bench_pairs, "run_bench", fake_run)
    files = {"parent": {"a.py": "x = 1\ny = 2\n", "b.py": "z = 3\n"},
             "change": {"a.py": "x = 1\n", "b.py": "", "c.py": "w = 4"}}
    for side, modules in files.items():
        package = tmp_path / side / "src" / "qkd_eve_lab"
        package.mkdir(parents=True)
        for name, text in modules.items():
            (package / name).write_text(text)
        (package / "notes.txt").write_text("not counted\n")
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps({
        "run_seconds": 1, "end_to_end": [{"name": "wall_s", "better": "lower", "bound": 0.25}]}))
    out = tmp_path / "bench.json"
    assert bench_pairs.main(["--parent", str(tmp_path / "parent"), "--change",
                             str(tmp_path / "change"), "--workload", "w", "--seed", "0",
                             "--pairs", "1", "--out", str(out)]) == 0
    # like wc -l, a last line without a newline is not counted
    assert json.loads(out.read_text())["src_lines"] == {"parent": 3, "change": 1}
