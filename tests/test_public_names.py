"""The package's public names resolve and load their submodule on first use,
and the oracle's verdict statistics are defined in ``verify`` alone, beside
the cases they judge."""
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qkd_eve_lab
from qkd_eve_lab import montecarlo, verify

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
perfbench_run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perfbench_run)

VERDICT_NAMES = ["Report", "compare", "binomial_p_value", "holm_rejections", "FAMILY_ALPHA"]


def test_every_public_name_resolves():
    """Each name in ``__all__`` is the object its home module defines."""
    assert qkd_eve_lab.__all__ == sorted(qkd_eve_lab._HOME)
    for name, home in qkd_eve_lab._HOME.items():
        module = importlib.import_module(f"qkd_eve_lab.{home}")
        value = getattr(qkd_eve_lab, name)
        assert value is getattr(module, name), name
        # the home is where the name is defined, not a module that re-exports it
        assert getattr(value, "__module__", module.__name__) == module.__name__, name


def test_verdict_statistics_are_defined_in_verify_only():
    for name in VERDICT_NAMES:
        value = getattr(verify, name)
        assert getattr(value, "__module__", verify.__name__) == verify.__name__, name
        assert not hasattr(montecarlo, name), name
    assert qkd_eve_lab.Report is verify.Report
    assert qkd_eve_lab.compare is verify.compare


def test_dir_lists_every_public_name():
    listed = dir(qkd_eve_lab)
    assert [name for name in qkd_eve_lab.__all__ if name not in listed] == []
    assert "__version__" in listed


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from qkd_eve_lab import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == qkd_eve_lab.__all__


def test_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        qkd_eve_lab.no_such_name  # noqa: B018


def _fresh_interpreter(code: str) -> dict:
    """Run ``code`` in a fresh interpreter that imports this tree's package;
    return the JSON object that its last line of output prints."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


_LOADED = ("import json, sys; print(json.dumps(sorted(m for m in sys.modules "
           "if m == 'multiprocessing' or m.startswith('qkd_eve_lab'))))")


def test_setup_code_loads_only_config_and_core_stats():
    """The benchmark's set-up code leaves the key-rate, Monte Carlo and oracle
    layers, and the Monte Carlo's multiprocessing, unloaded."""
    loaded = _fresh_interpreter(f"{perfbench_run.SETUP_CODE}\n{_LOADED}")
    assert loaded == ["qkd_eve_lab", "qkd_eve_lab.config", "qkd_eve_lab.core_stats"]


def test_stats_command_loads_no_monte_carlo(tmp_path):
    out = tmp_path / "stats.csv"
    loaded = _fresh_interpreter(
        "from qkd_eve_lab import cli\n"
        f"assert cli.main(['stats', '--out', {str(out)!r}]) == 0\n{_LOADED}")
    assert out.is_file()
    assert "qkd_eve_lab.montecarlo" not in loaded
    assert "qkd_eve_lab.verify" not in loaded
    assert "multiprocessing" not in loaded


def test_montecarlo_command_loads_numpy_random_before_it_forks(tmp_path):
    """Two workers over four blocks: each worker process starts after
    ``numpy.random`` is loaded, so no forked worker imports it again."""
    out = tmp_path / "mc.csv"
    report = _fresh_interpreter(
        "import json, multiprocessing, sys\n"
        "seen = []\n"
        "start = multiprocessing.Process.start\n"
        "def recording_start(self):\n"
        "    seen.append('numpy.random' in sys.modules)\n"
        "    start(self)\n"
        "multiprocessing.Process.start = recording_start\n"
        "from qkd_eve_lab import cli\n"
        f"code = cli.main(['montecarlo', '--set', 'sim.pulses={4 * 2**16}', '--set',\n"
        f"                 'sim.batch_size={2**16}', '--set', 'sim.workers=2',\n"
        f"                 '--out', {str(out)!r}])\n"
        "print(json.dumps({'code': code, 'seen': seen}))\n")
    assert report == {"code": 0, "seen": [True, True]}
    assert f"n_pulses,{4 * 2**16}," in out.read_text()
