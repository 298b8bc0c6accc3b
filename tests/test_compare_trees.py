"""The byte gate between two checkouts: its config draw, its file
comparison, and a run of two copies of this tree at different paths."""
import importlib.util
import shutil
from pathlib import Path

from qkd_eve_lab.config import load_settings

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("compare_trees", ROOT / "tools" / "compare_trees.py")
compare_trees = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_trees)


def test_configs_are_seeded_and_valid():
    configs = compare_trees.draw_configs(20, seed=5)
    assert configs == compare_trees.draw_configs(20, seed=5)
    assert configs != compare_trees.draw_configs(20, seed=6)
    for overrides in configs:
        load_settings(overrides=overrides)  # every drawn value is within its key's bounds


def test_lists_changed_and_one_sided_files(tmp_path):
    for side, files in (("a", {"same": "x", "moved": "1", "c0/only_a": ""}),
                        ("b", {"same": "x", "moved": "2", "c0/only_b": ""})):
        for name, text in files.items():
            (tmp_path / side / name).parent.mkdir(parents=True, exist_ok=True)
            (tmp_path / side / name).write_text(text)
    assert compare_trees.differing(tmp_path / "a", tmp_path / "b") == [
        "c0/only_a", "c0/only_b", "moved"]


def test_a_copy_elsewhere_matches_byte_for_byte(tmp_path, capsys):
    """Every output of two configs, over two copies of the source at
    different paths: the tree's path shows in no output."""
    copy = tmp_path / "copy"
    shutil.copytree(ROOT / "src", copy / "src", ignore=shutil.ignore_patterns("__pycache__"))
    work = tmp_path / "work"
    assert compare_trees.main([str(ROOT), str(copy), "--configs", "2", "--seed", "3",
                               "--work", str(work)]) == 0
    assert capsys.readouterr().out == "0 differing files over 2 configs (8 runs per tree)\n"
    names = {p.name for p in (work / "change" / "c000").iterdir()}
    assert {"rates.csv", "strategy-b.csv", "stats.csv", "montecarlo.stdout"} <= names
