"""Command-line front end: figure tables, thresholds, simulation, verification.

Every subcommand writes plot-ready CSV (comma separator, ``#`` metadata
header with the full effective configuration) and is byte-for-byte
deterministic for a given configuration and seed.
"""
from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import core_stats, keyrate, strategy_a, strategy_b
from .config import ConfigError, Settings, default_config_text, load_settings
from .keyrate import EveModel
from .search import distance_grid
from .strategy_b import BeamsplitAttack, solve_gamma

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_VERIFY = 2


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if value == 0.0:
            return "0"
        if math.isnan(value):
            return "nan"
        if math.isinf(value):
            return "inf"
        if abs(value) < 1e-3:
            return f"{value:.6e}"
        return f"{value:.6f}"
    return str(value)


def _header_lines(settings: Settings) -> list[str]:
    """The ``#`` metadata header: the full effective configuration."""
    return [f"# {key} = {val}" for key, val in settings.as_pairs().items()]


def _write_lines(out: Path | None, lines: list[str]) -> None:
    text = "\n".join(lines) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        out.write_text(text, encoding="utf-8")


def _write_whole(path: Path, lines: list[str]) -> None:
    """Write ``lines`` to a temporary name beside ``path``, then rename it
    over ``path``, so a failed write leaves no partial file."""
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        _write_lines(tmp, lines)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _csv_lines(
    settings: Settings,
    columns: list[str],
    rows: list[tuple],
    extra_header: dict[str, str] | None = None,
) -> list[str]:
    lines = _header_lines(settings)
    for key, val in (extra_header or {}).items():
        lines.append(f"# {key} = {val}")
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    return lines


def _write_csv(
    out: Path | None,
    settings: Settings,
    columns: list[str],
    rows: list[tuple],
    extra_header: dict[str, str] | None = None,
) -> None:
    _write_lines(out, _csv_lines(settings, columns, rows, extra_header))


def _sweep(settings: Settings) -> tuple[float, float, float]:
    d_min, d_max = settings.d_min, settings.d_max
    if not d_max > d_min:
        raise ConfigError(
            f"sweep.d_max: must exceed sweep.d_min = {d_min}, got {d_max}")
    return d_min, d_max, settings.d_step


def _eve_t_e(settings: Settings, distance_km: float) -> float:
    if settings.eve_t_e is not None:
        return settings.eve_t_e
    return settings.system().eve_t_e(distance_km)


def _attack_from_settings(settings: Settings, distance_km: float) -> BeamsplitAttack:
    system = settings.system()
    t_ab = system.t_ab(distance_km)
    t_e = _eve_t_e(settings, distance_km)
    gamma = settings.eve_gamma
    if gamma is None:
        gamma = solve_gamma(settings.mu, t_ab, settings.eve_lambda, t_e)
        if gamma is None:
            raise ConfigError(
                "eve.gamma=auto: the singles rate cannot be matched at "
                f"lambda={settings.eve_lambda}, t_e={t_e:.6g}, distance {distance_km} km"
            )
    return BeamsplitAttack(lam=settings.eve_lambda, gamma=gamma, t_e=t_e)


def _cmd_stats(settings: Settings, args: argparse.Namespace) -> int:
    system = settings.system()
    src, det = system.source, system.detector
    d = np.asarray(distance_grid(*_sweep(settings)))
    t = system.t_ab(d)
    rate = core_stats.rates(src, t, det)
    columns = [
        d,
        t,
        core_stats.poisson_pmf(0, src.mu),
        core_stats.poisson_pmf(1, src.mu),
        core_stats.poisson_pmf(2, src.mu),
        core_stats.multi_photon_fraction(src.mu, "exact"),
        core_stats.multi_photon_fraction(src.mu, "second_order"),
        core_stats.p_single(src, t, det),
        core_stats.p_single_linear(src, t, det),
        core_stats.p_coinc(src, t, det, system.basis_mode),
        core_stats.p_coinc(src, t, det, core_stats.BasisMode.ACTIVE, form="approx"),
        rate.raw_hz,
        rate.sifted_hz,
    ]
    rows = list(zip(*(np.broadcast_to(c, d.shape).tolist() for c in columns)))
    _write_csv(args.out, settings, [
        "distance_km", "t_ab", "p0", "p1", "p2",
        "multiphoton_exact", "multiphoton_second_order",
        "p_single", "p_single_linear", "p_coinc", "p_coinc_approx",
        "raw_hz", "sifted_hz",
    ], rows)
    return EXIT_OK


def _cmd_strategy_a(settings: Settings, args: argparse.Namespace) -> int:
    d_min, d_max, step = _sweep(settings)
    rows = strategy_a.regime_curve(settings.mu, settings.alpha_ab, d_min, d_max, step)
    crossover = strategy_a.pure_b_crossover_km(settings.mu, settings.alpha_ab)
    _write_csv(
        args.out,
        settings,
        ["distance_km", "ratio", "frac_A", "frac_B", "frac_C", "frac_D",
         "frac_blind", "deficit"],
        [tuple(r.values()) for r in rows],
        extra_header={"pure_case_b_crossover_km": f"{crossover:.4f}"},
    )
    print(f"pure case-B regime from {crossover:.1f} km "
          f"(mu={settings.mu}, alpha_ab={settings.alpha_ab} dB/km)")
    return EXIT_OK


def _cmd_strategy_b(settings: Settings, args: argparse.Namespace) -> int:
    system = settings.system()
    if args.report == "thresholds":
        if settings.eve_t_e is not None:
            raise ConfigError("eve.t_e: the thresholds report derives Eve's gain from "
                              "channel.alpha_e and channel.bee_line_d; leave it auto")
        g_block = strategy_b.blocking_threshold_db(settings.mu)
        print(f"blocking threshold: gamma=0 feasible for G_t >= {g_block:.2f} dB "
              f"(t_ab <= t_e*mu/4, mu={settings.mu})")
        g_avail = core_stats.eve_gain_db(system.channel, system.monitor_tof)
        print(f"available gain at {settings.length_ab} km: {g_avail:.2f} dB")
        return EXIT_OK
    distance = settings.length_ab
    t_ab = system.t_ab(distance)
    t_e = _eve_t_e(settings, distance)
    rows = strategy_b.gamma_sweep(
        settings.mu, t_ab, t_e, settings.eta_b, float(settings.n_pulses),
        mode=system.basis_mode,
    )
    clean = settings.n_pulses * strategy_b.clean_coinc_ref(
        settings.mu, t_ab, settings.eta_b, system.basis_mode
    )
    _write_csv(
        args.out,
        settings,
        ["gamma", "expected_coincidences", "z_score", "info"],
        [tuple(r.values()) for r in rows],
        extra_header={
            "t_ab": _fmt(t_ab),
            "t_e": _fmt(t_e),
            "expected_coincidences_clean": _fmt(clean),
            "two_sigma_window": _fmt(2.0 * math.sqrt(clean)),
            "lambda_convention": "solved per gamma on the singles-matched branch",
        },
    )
    return EXIT_OK


_RATE_COLUMNS = ["distance_km", "t_ab", "qber_mes", "i_eve", "mu_opt_if_any",
                 "r_net_normalized"]


def _curve_rows(points: list[keyrate.RatePoint]) -> list[tuple]:
    return [
        (p.distance_km, p.t_ab, p.qber.qber_mes, p.i_eve, p.mu_opt,
         p.r_net_normalized)
        for p in points
    ]


def _cmd_rates(settings: Settings, args: argparse.Namespace) -> int:
    if settings.eve_t_e is not None:
        raise ConfigError("eve.t_e: rates derives t_e at each distance from "
                          "channel.alpha_e and channel.bee_line_d; leave it auto")
    system = settings.system()
    d_min, d_max, step = _sweep(settings)
    stem = args.out if args.out is not None else Path("rates.csv")
    # Every file is computed before any is written, so a failed run writes none.
    files: dict[Path, list[str]] = {}

    def add_curve(model: EveModel, mu: float, points: list[keyrate.RatePoint]) -> None:
        path = stem.with_name(f"{stem.stem}_{model.value}_mu{mu:g}{stem.suffix}")
        files[path] = _csv_lines(settings, _RATE_COLUMNS, _curve_rows(points),
                                 extra_header={"eve_model": model.value, "mu": f"{mu:g}"})

    # The unlimited model optimises mu, so one curve serves every mu value.
    unlimited = keyrate.curve(EveModel.UNLIMITED, system, d_min, d_max, step)
    for mu in settings.mu_values:
        for model in (EveModel.NONE, EveModel.STRATEGY_A):
            add_curve(model, mu, keyrate.curve(model, system.with_mu(mu), d_min, d_max, step))
        add_curve(EveModel.UNLIMITED, mu, unlimited)
    for model in (EveModel.STRATEGY_B, EveModel.STRATEGY_B_STORAGE):
        add_curve(model, settings.mu, keyrate.curve(model, system, d_min, d_max, step))

    table_rows = [(model.value, settings.mu, keyrate.max_distance(model, system))
                  for model in EveModel]
    files[stem] = _csv_lines(settings, ["eve_model", "mu", "max_distance_km"], table_rows)
    for path, lines in files.items():
        _write_whole(path, lines)
    for model, _, d_max_km in table_rows:
        label = "unbounded at grid limit" if math.isinf(d_max_km) else f"{d_max_km:.1f} km"
        print(f"max distance {model}: {label}")
    return EXIT_OK


def _cmd_montecarlo(settings: Settings, args: argparse.Namespace) -> int:
    # Imported here, not at the top, so the analytic commands do not load the
    # Monte Carlo and its multiprocessing fan-out; the same holds for verify.
    from .montecarlo import SimConfig, simulate

    system = settings.system()
    model = settings.eve_model
    distance = settings.length_ab
    attack = None
    if model in (EveModel.STRATEGY_B, EveModel.STRATEGY_B_STORAGE):
        attack = _attack_from_settings(settings, distance)
    sim_cfg = SimConfig(
        system=system,
        eve_model=model,
        attack=attack,
        distance_km=distance,
        attack_fraction=settings.attack_fraction,
        n_pulses=settings.n_pulses,
        seed=settings.seed,
        batch_size=settings.batch_size,
        workers=settings.workers,
    )
    result = simulate(sim_cfg)
    _write_lines(args.out, _header_lines(settings) + result.csv_lines())
    print(result.summary())
    return EXIT_OK


def _cmd_verify(settings: Settings, args: argparse.Namespace) -> int:
    """Run the oracle suite; exit 2 when Holm's family verdict rejects a check."""
    from .verify import oracle_suite

    report = oracle_suite(
        n_pulses=settings.n_pulses,
        seed=settings.seed,
        workers=settings.workers,
        batch_size=settings.batch_size,
    )
    for line in report.lines():
        print(line)
    if args.out is not None:
        _write_lines(args.out, _header_lines(settings) + report.csv_lines())
    return EXIT_OK if report.family_pass else EXIT_VERIFY


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qkd-eve-lab",
        description="Faint-laser BB84 eavesdropping analysis: tables, curves, "
                    "thresholds, and a pulse-level simulation oracle.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    epilog = default_config_text()
    for name, run, help_text in [
        ("stats", _cmd_stats, "photon statistics and detection probability table"),
        ("strategy-a", _cmd_strategy_a,
         "intercept-resend regime curve and crossover report"),
        ("strategy-b", _cmd_strategy_b,
         "beamsplitter attack curve or threshold report"),
        ("rates", _cmd_rates, "net-rate curves and max-distance table for all models"),
        ("montecarlo", _cmd_montecarlo, "run the pulse-level simulation"),
        ("verify", _cmd_verify, "analytic-versus-simulation oracle suite"),
    ]:
        cmd = sub.add_parser(name, help=help_text, epilog=epilog,
                             formatter_class=argparse.RawDescriptionHelpFormatter)
        cmd.set_defaults(run=run)
        cmd.add_argument("--config", type=Path, default=None,
                         help="key=value config file")
        cmd.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                         help="override one config key (repeatable)")
        cmd.add_argument("--out", type=Path, default=None,
                         help="output CSV path (default: stdout)")
        cmd.add_argument("--seed", type=int, default=None, help="override sim.seed")
        cmd.add_argument("--pulses", type=float, default=None,
                         help="override sim.pulses")
        if name == "strategy-b":
            cmd.add_argument("--report", choices=["curve", "thresholds"],
                             default="curve")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    flags = {"sim.seed": args.seed, "sim.pulses": args.pulses}
    overrides = args.set + [f"{k}={v!r}" for k, v in flags.items() if v is not None]
    try:
        return args.run(load_settings(args.config, overrides), args)
    except (ConfigError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
