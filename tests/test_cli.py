"""End-to-end tests of the command-line interface and config handling."""
import contextlib
import errno
import io
import math
import multiprocessing
import os
import warnings
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import settings as hyp_settings
from hypothesis import strategies as st

from qkd_eve_lab import config, keyrate
from qkd_eve_lab.cli import main
from qkd_eve_lab.config import (
    ConfigError,
    Settings,
    default_config_text,
    load_settings,
    parse_config_text,
)
from qkd_eve_lab.core_stats import BasisMode, EveModel
from qkd_eve_lab.search import MAX_SWEEP_POINTS

DATA = Path(__file__).parent / "data"
# Config overrides of the goldens not taken at the shipped defaults.
GOLDEN_OVERRIDES = {
    "stats_passive_mu0.5.csv": ["protocol.basis_mode=passive", "source.mu=0.5",
                                "sweep.step=0.37", "sweep.d_max=150"],
    "strategy_a_mu0.05_alpha0.2.csv": ["source.mu=0.05", "channel.alpha_ab=0.2",
                                       "sweep.step=2.5"],
}


class TestConfigParsing:
    def test_defaults_parse_cleanly(self):
        settings = load_settings()
        assert settings.mu == 0.1
        assert settings.alpha_ab == 0.25
        assert settings.p_dark == 1e-6
        assert settings.qber_opt == 0.005
        assert settings.eta_b == 0.1
        assert settings.n_pulses == 10**10

    def test_comments_and_blanks(self):
        pairs = parse_config_text("# comment\n\nsource.mu = 0.2 # inline\n")
        assert pairs == {"source.mu": "0.2"}

    @pytest.mark.parametrize("key", ["source.brightness", "sim.batch_size"])
    def test_unknown_key_lists_valid_ones(self, key, capsys):
        settings = Settings()
        with pytest.raises(ConfigError) as excinfo:
            settings.apply({key: "65536"})
        assert "source.mu" in str(excinfo.value)
        assert main(["strategy-b", "--report", "thresholds", "--set", f"{key}=65536"]) == 1
        assert capsys.readouterr().err.startswith(f"error: unknown config key {key!r}; ")

    def test_overrides_win_over_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("source.mu = 0.2\nchannel.length_ab = 100\n")
        settings = load_settings(cfg, ["source.mu=0.05"])
        assert settings.mu == 0.05
        assert settings.length_ab == 100.0

    def test_malformed_line(self):
        with pytest.raises(ConfigError):
            parse_config_text("just words\n")

    def test_bad_value_reports_key(self):
        with pytest.raises(ConfigError) as excinfo:
            Settings().apply({"source.mu": "plenty"})
        assert "source.mu" in str(excinfo.value)

    def test_system_build_validates(self):
        settings = Settings()
        settings.apply({"detector.eta_b": "2.0"})
        with pytest.raises(ConfigError):
            settings.system()

    def test_shipped_defaults_cover_every_key(self):
        pairs = parse_config_text(default_config_text())
        settings = Settings()
        settings.apply(pairs)  # every key in the file must be valid
        assert settings.system() is not None


class TestExitCodes:
    def test_bad_override_returns_one(self, capsys):
        rc = main(["stats", "--set", "nope=1"])
        assert rc == 1
        assert "valid keys" in capsys.readouterr().err

    def test_missing_config_file_returns_one(self, capsys):
        rc = main(["stats", "--config", "/nonexistent/x.cfg"])
        assert rc == 1

    def test_verify_small_sample_exits_zero(self, capsys):
        rc = main(["verify", "--pulses", "1e5", "--seed", "42"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "checks within 3 sigma" in out

    def test_verify_reports_family_verdict_and_p_values(self, tmp_path, capsys):
        out = tmp_path / "verify.csv"
        rc = main(["verify", "--pulses", "1e5", "--seed", "42", "--out", str(out)])
        assert rc == 0
        printed = capsys.readouterr().out.splitlines()
        assert printed[-1].startswith("PASS: family verdict, Holm at alpha=0.0027")
        text = out.read_text().splitlines()
        header = [line for line in text if line.startswith("#")]
        assert "# sim.seed = 42" in header
        assert "# sim.pulses = 100000" in header
        lines = [line for line in text if not line.startswith("#")]
        assert lines[0] == ("check,quantity,observed,trials,expected,z,passed,p_value,"
                            "expected_count")
        assert len(lines) == 24
        assert all(0.0 <= float(line.split(",")[7]) <= 1.0 for line in lines[1:])


class TestStrategyACommand:
    def test_crossover_reported_and_csv_written(self, tmp_path, capsys):
        out = tmp_path / "fig2.csv"
        rc = main(["strategy-a", "--out", str(out)])
        assert rc == 0
        assert "64.9" in capsys.readouterr().out
        text = out.read_text()
        assert "# pure_case_b_crossover_km = 64.9438" in text
        header = [l for l in text.splitlines() if not l.startswith("#")][0]
        assert header.split(",") == [
            "distance_km", "ratio", "frac_A", "frac_B", "frac_C", "frac_D",
            "frac_blind", "deficit",
        ]
        # ratio plateau at the pure class-B value beyond ~65 km
        rows = [l for l in text.splitlines() if not l.startswith("#")][1:]
        far = [r for r in rows if float(r.split(",")[0]) > 70]
        assert far and all(
            float(r.split(",")[1]) == pytest.approx(6.828427, abs=1e-5) for r in far
        )


class TestStrategyBCommand:
    def test_threshold_report(self, capsys):
        rc = main(["strategy-b", "--report", "thresholds", "--set", "source.mu=0.1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "16.02 dB" in out

    def test_curve_columns(self, tmp_path):
        out = tmp_path / "fig4.csv"
        rc = main(["strategy-b", "--out", str(out), "--set", "sim.pulses=1e10"])
        assert rc == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert lines[0] == "gamma,expected_coincidences,z_score,info"
        assert len(lines) > 10

    def test_passive_pure_splitting_row_matches_the_clean_header(self, tmp_path):
        # At gamma = 1 the shutter is always open, so the expected
        # coincidences are the clean ones under the same basis mode.
        out = tmp_path / "fig4.csv"
        assert main(["strategy-b", "--out", str(out),
                     "--set", "protocol.basis_mode=passive"]) == 0
        text = out.read_text().splitlines()
        clean = next(l for l in text if l.startswith("# expected_coincidences_clean = "))
        row = next(l for l in text if l.startswith("1.000000,"))
        assert row.split(",")[1] == clean.split(" = ")[1]


class TestStatsCommand:
    def test_table_written(self, tmp_path):
        out = tmp_path / "stats.csv"
        rc = main(["stats", "--out", str(out), "--set", "sweep.d_max=50",
                   "--set", "sweep.step=10"])
        assert rc == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert lines[0].startswith("distance_km,t_ab,p0,p1,p2")
        assert len(lines) == 7  # header + 6 distances


class TestRatesCommand:
    def test_curves_and_table(self, tmp_path, capsys):
        out = tmp_path / "rates.csv"
        rc = main([
            "rates", "--out", str(out),
            "--set", "sweep.d_max=60", "--set", "sweep.step=20",
            "--set", "rates.mu_values=0.1",
        ])
        assert rc == 0
        assert "max distance" in capsys.readouterr().out
        table = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert table[0] == "eve_model,mu,max_distance_km"
        assert len(table) == 6  # five eavesdropper models
        curve = tmp_path / "rates_none_mu0.1.csv"
        lines = [l for l in curve.read_text().splitlines() if not l.startswith("#")]
        assert lines[0] == ("distance_km,t_ab,qber_mes,i_eve,mu_opt_if_any,"
                            "r_net_normalized")
        assert len(lines) == 5
        unlimited = tmp_path / "rates_unlimited_mu0.1.csv"
        row = [l for l in unlimited.read_text().splitlines()
               if not l.startswith("#")][1]
        assert row.split(",")[4] != ""  # mu_opt column filled

    def test_unlimited_curve_computed_once_for_all_mu(self, tmp_path, monkeypatch):
        models = []
        real_curve = keyrate.curve

        def counting_curve(eve, *args, **kwargs):
            models.append(eve)
            return real_curve(eve, *args, **kwargs)

        monkeypatch.setattr(keyrate, "curve", counting_curve)
        assert main(["rates", "--out", str(tmp_path / "rates.csv"), "--set", "sweep.d_max=40",
                     "--set", "sweep.step=10", "--set", "rates.mu_values=0.05,0.1,0.2"]) == 0
        assert models.count(EveModel.UNLIMITED) == 1
        files = [(tmp_path / f"rates_unlimited_mu{mu}.csv").read_text().splitlines()
                 for mu in ("0.05", "0.1", "0.2")]
        rows = [[line for line in lines if not line.startswith("#")] for lines in files]
        assert rows[0] == rows[1] == rows[2] and len(rows[0]) == 6
        assert [lines[-len(rows[0]) - 1] for lines in files] == [
            "# mu = 0.05", "# mu = 0.1", "# mu = 0.2"]


class TestDeterministicOutput:
    def test_strategy_a_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["strategy-a", "--out", str(a)]) == 0
        assert main(["strategy-a", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_montecarlo_rerun_and_worker_invariance(self, tmp_path, monkeypatch):
        started = []
        start = multiprocessing.Process.start

        def recording_start(self):
            started.append(self)
            start(self)

        monkeypatch.setattr(multiprocessing.Process, "start", recording_start)
        common = ["montecarlo", "--set", "sim.pulses=3.2e6", "--seed", "7",
                  "--set", "detector.p_dark=0"]
        paths = [tmp_path / name for name in ("w1.csv", "w1b.csv", "w3.csv")]
        assert main(common + ["--out", str(paths[0]), "--set", "sim.workers=1"]) == 0
        assert main(common + ["--out", str(paths[1]), "--set", "sim.workers=1"]) == 0
        assert main(common + ["--out", str(paths[2]), "--set", "sim.workers=3"]) == 0
        assert len(started) == 3
        first = paths[0].read_bytes()
        assert first == paths[1].read_bytes()
        # the worker count is excluded from the header, so files stay
        # byte-identical across it
        assert first == paths[2].read_bytes()


class TestEdgeValues:
    def test_scientific_notation_below_threshold(self, tmp_path):
        out = tmp_path / "stats.csv"
        main(["stats", "--out", str(out), "--set", "sweep.d_min=100",
              "--set", "sweep.d_max=120", "--set", "sweep.step=10"])
        rows = [l for l in out.read_text().splitlines() if not l.startswith("#")][1:]
        p_single_col = rows[0].split(",")[7]
        assert "e-" in p_single_col  # tiny probabilities in scientific notation
        assert float(p_single_col) < 1e-3

    def test_zero_emitted_exactly(self, tmp_path):
        out = tmp_path / "rates.csv"
        main(["rates", "--out", str(out), "--set", "sweep.d_min=300",
              "--set", "sweep.d_max=320", "--set", "sweep.step=10",
              "--set", "rates.mu_values=0.1"])
        curve = out.with_name("rates_none_mu0.1.csv")
        rows = [l for l in curve.read_text().splitlines() if not l.startswith("#")][1:]
        assert all(r.rsplit(",", 1)[1] == "0" for r in rows)


class TestSweepValidation:
    @pytest.mark.parametrize("command", ["stats", "strategy-a", "rates"])
    @pytest.mark.parametrize("sweep", [
        ["sweep.step=0"],
        ["sweep.step=-1"],
        ["sweep.d_min=50", "sweep.d_max=10"],
    ])
    def test_bad_sweep_exits_one_without_output(self, command, sweep, tmp_path, capsys):
        out = tmp_path / "out.csv"
        args = [command, "--out", str(out)]
        for item in sweep:
            args += ["--set", item]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("sweep,last", [
        (["sweep.d_max=10", "sweep.step=6"], "6.000000"),
        (["sweep.step=0.3"], "199.800000"),
        (["sweep.d_min=0.5", "sweep.d_max=10", "sweep.step=0.3"], "9.800000"),
    ])
    def test_no_row_lies_past_d_max(self, sweep, last, tmp_path):
        out = tmp_path / "stats.csv"
        assert main(["stats", "--out", str(out), *(a for s in sweep for a in ("--set", s))]) == 0
        settings = load_settings(overrides=sweep)
        rows = [l for l in out.read_text().splitlines() if not l.startswith("#")][1:]
        assert rows[-1].split(",")[0] == last
        assert float(last) <= settings.d_max

    def test_help_states_the_point_cap(self, capsys):
        with pytest.raises(SystemExit):
            main(["stats", "--help"])
        step_line = next(l for l in capsys.readouterr().out.splitlines()
                         if l.startswith("sweep.step "))
        assert f"at most {MAX_SWEEP_POINTS:,} sweep points" in step_line


_NUMERIC_PARSERS = {
    config._parse_float, config._parse_int, config._parse_optional_float,
    config._parse_mu_list,
}
_NUMERIC_KEYS = sorted(
    key for key, (_, parser) in config._KEY_SPEC.items() if parser in _NUMERIC_PARSERS
)


class TestNonFiniteValues:
    def test_every_key_but_the_enums_and_the_flag_is_numeric(self):
        assert len(_NUMERIC_KEYS) == len(config._KEY_SPEC) - 3

    @pytest.mark.parametrize("key", _NUMERIC_KEYS)
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_value_exits_one_and_names_the_key(self, key, value, capsys):
        rc = main(["strategy-b", "--report", "thresholds", "--set", f"{key}={value}"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key}: ")
        assert "finite" in err

    def test_non_finite_entry_in_a_list(self, capsys):
        rc = main(["rates", "--set", "rates.mu_values=0.1,nan"])
        assert rc == 1
        assert "rates.mu_values" in capsys.readouterr().err

    def test_non_finite_pulses_flag_names_the_key(self, capsys):
        rc = main(["montecarlo", "--pulses", "nan"])
        assert rc == 1
        assert "sim.pulses" in capsys.readouterr().err


class TestStrictBooleans:
    @pytest.mark.parametrize("raw,expected", [
        ("true", True), ("YES", True), ("1", True),
        ("false", False), ("No", False), ("0", False),
    ])
    def test_accepted_spellings(self, raw, expected):
        settings = Settings()
        settings.apply({"channel.monitor_tof": raw})
        assert settings.monitor_tof is expected

    @pytest.mark.parametrize("raw", ["flase", "", "2", "on"])
    def test_misspelling_exits_one_and_names_the_key(self, raw, capsys):
        rc = main(["strategy-b", "--report", "thresholds",
                   "--set", f"channel.monitor_tof={raw}"])
        assert rc == 1
        assert "channel.monitor_tof" in capsys.readouterr().err


class TestStrategyAMuDomain:
    """Strategy A's class-A weight 1 - mu/2 is negative above mu = 2, so each
    command that solves strategy A there exits 1 instead of writing numbers."""

    @pytest.mark.parametrize("argv", [
        ["strategy-a", "--set", "source.mu=3"],
        ["rates", "--set", "rates.mu_values=2.5", "--set", "sweep.step=50"],
        ["montecarlo", "--set", "source.mu=3", "--set", "eve.model=strategy-a",
         "--set", "sim.pulses=1e4"],
        ["rates", "--set", "source.mu=3", "--set", "sweep.step=50"],
    ])
    def test_exits_one(self, argv, tmp_path):
        """The error names the key of the first ``--set``, the one out of range."""
        _rejected(argv + ["--out", str(tmp_path / "out.csv")], argv[2].partition("=")[0])


class TestRatesFailureWritesNothing:
    """``rates`` computes every curve and the cutoff table before it writes
    a file, and writes each one whole under a temporary name first."""

    @staticmethod
    def _snapshot(directory):
        return {p.name: p.read_bytes() for p in directory.iterdir()}

    def test_failing_run_leaves_the_directory_as_it_found_it(self, tmp_path, capsys):
        (tmp_path / "rates.csv").write_text("an earlier table\n")
        (tmp_path / "rates_none_mu0.1.csv").write_text("an earlier curve\n")
        before = self._snapshot(tmp_path)
        assert main(["rates", "--out", str(tmp_path / "rates.csv"), "--set", "sweep.step=50",
                     "--set", "rates.mu_values=0.1,2.5"]) == 1
        assert "mu" in capsys.readouterr().err
        assert self._snapshot(tmp_path) == before

    def test_failed_write_leaves_no_temporary_file(self, tmp_path, capsys):
        (tmp_path / "rates.csv").mkdir()  # the table cannot replace a directory
        assert main(["rates", "--out", str(tmp_path / "rates.csv"), "--set", "sweep.step=50",
                     "--set", "rates.mu_values=0.1"]) == 1
        assert not list(tmp_path.glob(".*"))
        assert not list(tmp_path.glob("rates_*_mu*.csv"))  # no curve went in before the table
        assert not list((tmp_path / "rates.csv").iterdir())

    def test_missing_directory_is_named_by_the_output_path(self, tmp_path, capsys):
        out = tmp_path / "missing" / "rates.csv"
        assert main(["rates", "--out", str(out), "--set", "sweep.step=50",
                     "--set", "rates.mu_values=0.1"]) == 1
        err = capsys.readouterr().err
        assert f"No such file or directory: '{tmp_path / 'missing' / 'rates_none_mu0.1.csv'}'" in err
        assert ".tmp" not in err


class TestFailedWriteKeepsTheEarlierFile:
    def test_stats_over_an_existing_file(self, tmp_path, monkeypatch, capsys):
        """A write that truncates its file and then fails leaves the earlier
        table in place: the truncated file is a temporary one.  A full disk
        fails the write with no file name, and the error still names the output."""
        out = tmp_path / "stats.csv"
        out.write_text("an earlier table\n")

        def truncate_then_fail(self, *args, **kwargs):
            self.open("w").close()
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(Path, "write_text", truncate_then_fail)
        assert main(["stats", "--out", str(out), "--set", "sweep.step=50"]) == 1
        assert f"No space left on device: '{out}'" in capsys.readouterr().err
        assert out.read_bytes() == b"an earlier table\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["stats.csv"]


class TestDarkCountCap:
    def test_dark_count_probability_above_one_exits_one(self, capsys):
        rc = main(["montecarlo", "--set", "detector.p_dark=2",
                   "--set", "sim.pulses=1e4"])
        assert rc == 1
        assert "p_dark" in capsys.readouterr().err

    def test_subnormal_dark_count_probability_runs_without_a_warning(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["montecarlo", "--set", "detector.p_dark=5e-324",
                       "--set", "sim.pulses=1e5"])
        assert rc == 0
        assert capsys.readouterr().err == ""


class TestSimulationMuDomain:
    """Photon numbers stop at ``PHOTON_CAP``, which is exact only for mu <= 1:
    at mu = 30 the singles rate would read 0.18 against 1 - e^-0.3 = 0.26."""

    def test_mu_above_one_exits_one_and_names_the_key(self, tmp_path):
        out = tmp_path / "out.csv"
        _rejected(["montecarlo", "--set", "source.mu=30", "--set", "channel.length_ab=0",
                   "--set", "detector.eta_b=0.01", "--set", "detector.p_dark=0",
                   "--set", "sim.pulses=1e6", "--out", str(out)], "source.mu")
        assert not out.exists()


class TestVerifyPulses:
    def test_too_few_pulses_exits_one_and_names_the_key(self):
        _rejected(["verify", "--pulses", "1e3"], "sim.pulses")


class TestGoldenOutput:
    """Data rows match the stored copies byte for byte: the shipped defaults,
    the passive branch of ``p_coinc`` on a fractional step, strategy A at
    another mu and fiber attenuation, and the whole output of ``rates`` (also
    on a fractional step from a nonzero start), ``verify`` and ``montecarlo``."""

    @pytest.mark.parametrize("command,golden", [
        ("stats", "stats_default.csv"),
        ("strategy-a", "strategy_a_default.csv"),
        ("strategy-b", "strategy_b_default.csv"),
        ("stats", "stats_passive_mu0.5.csv"),
        ("strategy-a", "strategy_a_mu0.05_alpha0.2.csv"),
    ])
    def test_data_rows_are_byte_identical(self, command, golden, tmp_path, capsys, recwarn):
        out = tmp_path / "out.csv"
        sets = [arg for key in GOLDEN_OVERRIDES.get(golden, []) for arg in ("--set", key)]
        assert main([command, "--out", str(out), *sets]) == 0
        rows = [line for line in out.read_bytes().splitlines(keepends=True)
                if not line.startswith(b"#")]
        assert b"".join(rows) == (DATA / golden).read_bytes()

    def test_rates_files_are_byte_identical(self, tmp_path, capsys):
        assert main(["rates", "--out", str(tmp_path / "rates.csv"),
                     "--set", "sweep.step=10"]) == 0
        assert rates_bundle(tmp_path) == (DATA / "rates_step10.txt").read_bytes()

    def test_fractional_step_rates_files_are_byte_identical(self, tmp_path, capsys):
        assert main(["rates", "--out", str(tmp_path / "rates.csv"), "--set", "sweep.d_min=2.5",
                     "--set", "sweep.d_max=61", "--set", "sweep.step=1.3"]) == 0
        assert rates_bundle(tmp_path) == (DATA / "rates_d2.5_step1.3.txt").read_bytes()

    def test_verify_csv_and_stdout_are_byte_identical(self, tmp_path, capsys):
        out = tmp_path / "verify.csv"
        assert main(["verify", "--pulses", "1e6", "--seed", "42", "--out", str(out)]) == 0
        assert out.read_bytes() == (DATA / "verify_1e6_seed42.csv").read_bytes()
        assert capsys.readouterr().out == (DATA / "verify_1e6_seed42.txt").read_text()

    def test_montecarlo_stdout_is_byte_identical(self, capsys):
        assert main(["montecarlo", "--set", "sim.pulses=1e5"]) == 0
        assert capsys.readouterr().out == (DATA / "montecarlo_1e5.txt").read_text()


def rates_bundle(directory: Path) -> bytes:
    """Every CSV that ``rates`` wrote, in name order, each under its name."""
    paths = sorted(directory.glob("*.csv"))
    return b"".join(b"== %s ==\n" % p.name.encode() + p.read_bytes() for p in paths)


_FIELDS = {f.metadata["key"]: f for f in fields(Settings)}
_BOUNDED_KEYS = sorted(key for key, f in _FIELDS.items() if f.metadata["bounds"])


@st.composite
def _just_outside(draw, key):
    """A config value beyond one end of the key's declared interval."""
    bounds = _FIELDS[key].metadata["bounds"]
    lo, hi = config._ends(bounds)
    ends = ["lo"] + (["hi"] if math.isfinite(hi) else [])
    end = draw(st.sampled_from(ends))
    if config._KEY_SPEC[key][1] is config._parse_int:
        if end == "lo":
            value = draw(st.integers(max_value=int(lo) - 1))
        else:
            value = draw(st.integers(min_value=int(hi) + (bounds[-1] == "]")))
    elif end == "lo":
        value = draw(st.floats(max_value=lo, exclude_max=bounds[0] == "[",
                               allow_infinity=False))
    else:
        value = draw(st.floats(min_value=hi, exclude_min=bounds[-1] == "]",
                               allow_infinity=False))
    return f"0.1,{value!r}" if key == "rates.mu_values" else repr(value)


def _rejected(argv, key):
    """Run the CLI, expecting exit 1 and an error that starts with the key."""
    with contextlib.redirect_stderr(io.StringIO()) as stderr:
        rc = main(argv)
    err = stderr.getvalue()
    assert rc == 1, err
    assert err.startswith(f"error: {key}: "), err
    return err


class TestKeyTable:
    def test_each_field_is_one_key_and_no_key_repeats(self):
        keys = [f.metadata["key"] for f in fields(Settings)]
        assert len(set(keys)) == len(keys) == len(config._KEY_SPEC)
        assert [attr for attr, _ in config._KEY_SPEC.values()] == [
            f.name for f in fields(Settings)
        ]

    def test_defaults_text_parses_back_to_the_defaults(self):
        pairs = parse_config_text(default_config_text())
        assert list(pairs) == list(config._KEY_SPEC)
        settings = Settings()
        settings.apply(pairs)
        for f in fields(Settings):
            value, default = getattr(settings, f.name), getattr(Settings(), f.name)
            assert value == default and type(value) is type(default), f.name

    def test_help_lists_every_key_and_its_default(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["stats", "--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        for line in default_config_text().splitlines():
            assert line in out

    @given(key=st.sampled_from(sorted(config._KEY_SPEC)),
           value=st.sampled_from(["nan", "inf", "-inf"]))
    @hyp_settings(max_examples=100, deadline=None)
    def test_non_finite_value_names_the_key(self, key, value):
        _rejected(["strategy-b", "--report", "thresholds", "--set", f"{key}={value}"],
                  key)

    @given(data=st.data())
    @hyp_settings(max_examples=200, deadline=None)
    def test_value_just_outside_the_bounds_names_the_key(self, data):
        key = data.draw(st.sampled_from(_BOUNDED_KEYS))
        value = data.draw(_just_outside(key))
        err = _rejected(["strategy-b", "--report", "thresholds",
                         "--set", f"{key}={value}"], key)
        assert f"must be in {_FIELDS[key].metadata['bounds']}" in err

    def test_closed_ends_of_the_bounds_build_a_system(self):
        # the table is no stricter than the parameter dataclasses at its edges
        edge = Settings(mu=1e-300, nu=1e-300, alpha_ab=0.0, length_ab=0.0,
                        alpha_e=0.0, bee_line_d=0.0, eta_b=1.0, p_dark=1.0,
                        qber_opt=0.5, qber_attrib_floor=0.5, f_ec=1.0, n_pulses=1)
        edge.check_bounds()
        assert edge.system() is not None


class TestBoundsOnEverySubcommand:
    @pytest.mark.parametrize("command", [
        ["stats"], ["strategy-a"], ["strategy-b"], ["strategy-b", "--report", "thresholds"],
        ["rates"], ["montecarlo"], ["verify"],
    ])
    def test_zero_workers_exits_one(self, command, tmp_path):
        out = tmp_path / "out.csv"
        _rejected(command + ["--out", str(out), "--pulses", "1e3",
                             "--set", "sweep.d_max=1", "--set", "sim.workers=0"],
                  "sim.workers")
        assert not out.exists()

    @pytest.mark.parametrize("argv,key", [
        (["stats", "--set", "source.mu=-1"], "source.mu"),
        (["montecarlo", "--set", "eve.model=strategy-b", "--set", "eve.lambda=2"],
         "eve.lambda"),
        (["montecarlo", "--set", "sim.seed=-1"], "sim.seed"),
        (["montecarlo", "--seed", "-1"], "sim.seed"),
        (["montecarlo", "--set", "eve.attack_fraction=2"], "eve.attack_fraction"),
        (["stats", "--set", "sim.workers=0"], "sim.workers"),
        (["stats", "--set", "sweep.step=0"], "sweep.step"),
        (["stats", "--set", "sweep.d_min=50", "--set", "sweep.d_max=10"], "sweep.d_max"),
        (["strategy-a", "--set", "sweep.d_max=0"], "sweep.d_max"),
        (["rates", "--set", "eve.t_e=0.5", "--set", "sweep.d_max=10",
          "--set", "rates.mu_values=0.1"], "eve.t_e"),
        (["strategy-b", "--set", "eve.t_e=0.03"], "eve.t_e"),
        (["stats", "--set", "sweep.d_max=1e300", "--set", "sweep.step=1e-10"], "sweep.step"),
        (["strategy-a", "--set", "sweep.d_max=1e300", "--set", "sweep.step=1e-10"],
         "sweep.step"),
        (["rates", "--set", "sweep.d_max=1e300", "--set", "sweep.step=1e-10"], "sweep.step"),
        (["strategy-a", "--set", "channel.alpha_ab=0", "--set", "channel.alpha_e=0"],
         "channel.alpha_ab"),
        (["montecarlo", "--set", "eve.model=unlimited"], "eve.model"),
        (["montecarlo", "--set", "protocol.basis_mode=passive"], "protocol.basis_mode"),
        (["verify", "--seed", str(2**128 - 6)], "sim.seed"),  # the cases use seed..seed + 6
    ])
    def test_measured_case_names_its_key(self, argv, key, tmp_path):
        _rejected(argv + ["--out", str(tmp_path / "out.csv"),
                          "--set", "sim.pulses=1e4"], key)


class TestStrictEnums:
    @pytest.mark.parametrize("key,cls", [
        ("protocol.basis_mode", BasisMode), ("eve.model", EveModel),
    ])
    def test_unknown_value_lists_the_members(self, key, cls):
        err = _rejected(["stats", "--set", f"{key}=bogus"], key)
        assert all(member.value in err for member in cls)

    def test_values_parse_to_the_members(self):
        settings = load_settings(None, ["protocol.basis_mode=PASSIVE",
                                        "eve.model=strategy-b-storage"])
        assert settings.basis_mode is BasisMode.PASSIVE
        assert settings.eve_model is EveModel.STRATEGY_B_STORAGE

    def test_eve_model_is_still_importable_from_keyrate(self):
        from qkd_eve_lab.keyrate import EveModel as FromKeyrate

        assert FromKeyrate is EveModel


class TestSeeds:
    def test_large_seed_is_kept_exactly(self):
        seed = 2**128 - 1
        assert load_settings(None, [f"sim.seed={seed}"]).seed == seed

    def test_seed_flag_goes_through_the_table(self, tmp_path):
        out = tmp_path / "mc.csv"
        assert main(["montecarlo", "--seed", "9007199254740993", "--pulses", "1e3",
                     "--out", str(out)]) == 0
        assert "# sim.seed = 9007199254740993" in out.read_text().splitlines()


class TestEveTransmittance:
    def test_rates_runs_with_t_e_auto(self, tmp_path):
        assert main(["rates", "--out", str(tmp_path / "r.csv"), "--set", "eve.t_e=auto",
                     "--set", "sweep.d_max=10", "--set", "sweep.step=10",
                     "--set", "rates.mu_values=0.1"]) == 0

    def test_strategy_b_still_uses_t_e(self, tmp_path):
        out = tmp_path / "b.csv"
        assert main(["strategy-b", "--out", str(out), "--set", "eve.t_e=0.5"]) == 0
        assert "# t_e = 0.500000" in out.read_text().splitlines()

    def test_thresholds_reject_a_set_t_e(self):
        _rejected(["strategy-b", "--report", "thresholds", "--set", "eve.t_e=0.5"],
                  "eve.t_e")


class TestCrossKeyChecks:
    @pytest.mark.parametrize("argv,key", [
        (["stats", "--set", "channel.alpha_e=0.3"], "channel.alpha_e"),
        (["stats", "--set", "channel.bee_line_d=100"], "channel.bee_line_d"),
    ])
    def test_cross_key_rejection_names_its_key(self, argv, key, tmp_path):
        out = tmp_path / "out.csv"
        _rejected(argv + ["--out", str(out)], key)
        assert not out.exists()


class TestRatesMuValues:
    def test_empty_list_exits_one(self, tmp_path):
        out = tmp_path / "rates.csv"
        _rejected(["rates", "--out", str(out), "--set", "rates.mu_values="],
                  "rates.mu_values")
        assert not list(tmp_path.iterdir())

    def test_empty_entry_exits_one(self, tmp_path):
        """Every comma-separated entry is parsed: an empty one is not skipped."""
        out = tmp_path / "rates.csv"
        _rejected(["rates", "--out", str(out), "--set", "rates.mu_values=0.1,,0.2"],
                  "rates.mu_values")
        assert not list(tmp_path.iterdir())
