"""System configuration and the flat key=value config file format.

Every config key is declared once, as one field of ``Settings``: its dotted
name, parser, shipped default, bounds and a one-line doc.  Everything else is
derived from those fields: ``Settings()`` holds the shipped defaults, the key
table ``_KEY_SPEC``, the bounds check, the ``#`` header of every CSV and the
defaults text that ``--help`` prints.

Files are plain text: one ``section.key = value`` per line, ``#`` starts a
comment, keys are namespaced with dots.  Unknown keys are rejected with the
list of valid ones; command-line overrides win over file values, and every
rejected value names its key.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Callable

from .core_stats import (
    BasisMode, ChannelParams, DetectorParams, EveModel, SourceParams, transmission,
)


class ConfigError(ValueError):
    """Bad key, bad value, or an inconsistent combination."""


def _parse_float(raw: str) -> float:
    try:
        value = float(raw)
    except ValueError as exc:
        raise ConfigError(f"expected a number, got {raw!r}") from exc
    if not math.isfinite(value):
        raise ConfigError(f"expected a finite number, got {raw!r}")
    return value


def _parse_int(raw: str) -> int:
    # Integer literals stay exact (seeds up to 2**128); counts may also be
    # written in scientific notation (sim.pulses = 1e8).
    value = int(raw) if raw.strip().removeprefix("-").isdecimal() else _parse_float(raw)
    if value != int(value):
        raise ConfigError(f"expected an integer, got {raw!r}")
    return int(value)


def _parse_optional_float(raw: str) -> float | None:
    if raw.lower() in ("none", "auto", ""):
        return None
    return _parse_float(raw)


def _parse_bool(raw: str) -> bool:
    value = raw.lower()
    if value not in ("true", "false", "1", "0", "yes", "no"):
        raise ConfigError(f"expected true/false/1/0/yes/no, got {raw!r}")
    return value in ("true", "1", "yes")


def _parse_enum(cls: type[enum.Enum]) -> Callable[[str], enum.Enum]:
    def parse(raw: str) -> enum.Enum:
        try:
            return cls(raw.lower())
        except ValueError:
            allowed = ", ".join(member.value for member in cls)
            raise ConfigError(f"expected one of {allowed}, got {raw!r}") from None
    return parse


def _parse_mu_list(raw: str) -> tuple[float, ...]:
    return tuple(_parse_float(part) for part in raw.split(","))


def _ends(bounds: str) -> list[float]:
    """Endpoints of an interval written as ``(0, 1]`` or ``[0, 2**128)``."""
    parts = (token.partition("**") for token in bounds[1:-1].split(","))
    return [float(base) ** int(power or 1) for base, _, power in parts]


def _within(bounds: str, x: float) -> bool:
    lo, hi = _ends(bounds)
    above = lo < x if bounds[0] == "(" else lo <= x
    return above and (x < hi if bounds[-1] == ")" else x <= hi)


def _key(name: str, parser: Callable, default, bounds: str | None, doc: str):
    """One config key: a ``Settings`` field that carries its own metadata."""
    meta = {"key": name, "parser": parser, "bounds": bounds, "doc": doc}
    return field(default=default, metadata=meta)


def _render(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, enum.Enum):
        return value.value
    return str(value)


@dataclass(frozen=True)
class SystemConfig:
    """Source, channel, detector and protocol parameters of one link."""

    source: SourceParams = field(default_factory=SourceParams)
    channel: ChannelParams = field(default_factory=ChannelParams)
    detector: DetectorParams = field(default_factory=DetectorParams)
    basis_mode: BasisMode = BasisMode.ACTIVE
    qber_opt: float = 0.005
    qber_attrib_floor: float = 0.01
    f_ec: float = 1.0
    n_pulses: int = 10**10
    monitor_tof: bool = False

    def __post_init__(self) -> None:
        if not 0 <= self.qber_opt <= 0.5:
            raise ConfigError(f"qber_opt must be in [0, 0.5], got {self.qber_opt}")
        if not 0 <= self.qber_attrib_floor <= 0.5:
            raise ConfigError(
                f"qber_attrib_floor must be in [0, 0.5], got {self.qber_attrib_floor}"
            )
        if not self.f_ec >= 1.0:
            raise ConfigError(f"f_ec must be >= 1, got {self.f_ec}")
        if not self.n_pulses >= 1:
            raise ConfigError(f"n_pulses must be >= 1, got {self.n_pulses}")

    def with_mu(self, mu: float) -> "SystemConfig":
        return replace(self, source=replace(self.source, mu=mu))

    def t_ab(self, distance_km: float) -> float:
        """Installed-link transmittance at a given fiber length; elementwise."""
        return transmission(self.channel.alpha_ab * distance_km)

    def eve_t_e(self, distance_km: float) -> float:
        """Transmittance of the eavesdropper's replacement link.

        The straight-line shortcut scales proportionally when a bee-line
        distance was configured for the nominal length.
        """
        ch = self.channel
        if self.monitor_tof or ch.bee_line_d is None or ch.length_ab == 0:
            d_e = distance_km
        else:
            d_e = distance_km * (ch.bee_line_d / ch.length_ab)
        return transmission(ch.alpha_e * d_e)


@dataclass
class Settings:
    """Every config key, one field each; ``Settings()`` is the shipped defaults."""

    mu: float = _key("source.mu", _parse_float, 0.1, "(0, inf)",
                     "mean photon number per pulse")
    nu: float = _key("source.nu", _parse_float, 1.0e6, "(0, inf)",
                     "pulse rate in Hz; free choice, rates also reported per pulse")
    alpha_ab: float = _key("channel.alpha_ab", _parse_float, 0.25, "[0, inf)",
                           "installed fiber, dB/km")
    length_ab: float = _key("channel.length_ab", _parse_float, 60.0, "[0, inf)",
                            "installed fiber length, km")
    alpha_e: float = _key("channel.alpha_e", _parse_float, 0.15, "[0, inf)",
                          "eavesdropper's best fiber, dB/km")
    bee_line_d: float | None = _key("channel.bee_line_d", _parse_optional_float, None,
                                    "[0, inf)", "bee-line distance, km; none = length")
    monitor_tof: bool = _key("channel.monitor_tof", _parse_bool, False, None,
                             "time of flight watched: Eve cannot take a shortcut")
    eta_b: float = _key("detector.eta_b", _parse_float, 0.1, "(0, 1]",
                        "Bob's detection efficiency")
    p_dark: float = _key("detector.p_dark", _parse_float, 1.0e-6, "[0, 1]",
                         "dark-count probability per gated detector and pulse")
    basis_mode: BasisMode = _key("protocol.basis_mode", _parse_enum(BasisMode),
                                 BasisMode.ACTIVE, None,
                                 "Bob's basis choice: 2 or 4 detectors gated per pulse")
    qber_opt: float = _key("qber.optical", _parse_float, 0.005, "[0, 0.5]",
                           "optical error rate, the same at every distance")
    qber_attrib_floor: float = _key("qber.attrib_floor", _parse_float, 0.01, "[0, 0.5]",
                                    "error budget attributed to the eavesdropper")
    f_ec: float = _key("keyrate.f_ec", _parse_float, 1.0, "[1, inf)",
                       "error-correction inefficiency (1 = Shannon limit)")
    eve_model: EveModel = _key("eve.model", _parse_enum(EveModel), EveModel.NONE, None,
                               "eavesdropper that montecarlo simulates")
    eve_lambda: float = _key("eve.lambda", _parse_float, 0.5, "[0, 1]",
                             "strategy B: fraction of each pulse tapped")
    eve_gamma: float | None = _key("eve.gamma", _parse_optional_float, 1.0, "[0, 1]",
                                   "shutter pass fraction; auto = solve from singles")
    eve_t_e: float | None = _key("eve.t_e", _parse_optional_float, None, "(0, 1]",
                                 "Eve's fiber transmittance; auto = from channel.*")
    attack_fraction: float = _key("eve.attack_fraction", _parse_float, 1.0, "[0, 1]",
                                  "strategy A: fraction of pulses intercepted")
    n_pulses: int = _key("sim.pulses", _parse_int, 10**10, "[1, inf)",
                         "pulses simulated; also Eve's alarm window")
    seed: int = _key("sim.seed", _parse_int, 42, "[0, 2**128)", "simulation seed")
    workers: int = _key("sim.workers", _parse_int, 1, "[1, inf)",
                        "worker processes, at most one per 2^20 pulses; change no "
                        "result")
    d_min: float = _key("sweep.d_min", _parse_float, 0.0, "[0, inf)",
                        "first distance of a sweep, km")
    d_max: float = _key("sweep.d_max", _parse_float, 200.0, None,
                        "last distance of a sweep, km; above sweep.d_min")
    d_step: float = _key("sweep.step", _parse_float, 1.0, "(0, inf)",
                         "distance step of a sweep, km; at most 1,000,000 sweep points")
    mu_values: tuple[float, ...] = _key("rates.mu_values", _parse_mu_list,
                                        (0.05, 0.1, 0.2), "(0, 2)",
                                        "mu of each rates curve, comma-separated")

    def apply(self, pairs: dict[str, str]) -> None:
        for key, raw in pairs.items():
            spec = _KEY_SPEC.get(key)
            if spec is None:
                valid = ", ".join(sorted(_KEY_SPEC))
                raise ConfigError(f"unknown config key {key!r}; valid keys: {valid}")
            attr, parser = spec
            try:
                setattr(self, attr, parser(raw))
            except ConfigError as exc:
                raise ConfigError(f"{key}: {exc}") from exc

    def check_bounds(self) -> None:
        """Reject the first value outside its key's interval, naming the key."""
        for f in fields(self):
            bounds, value = f.metadata["bounds"], getattr(self, f.name)
            if bounds is None or value is None:
                continue
            for x in value if isinstance(value, tuple) else (value,):
                if not _within(bounds, x):
                    key = f.metadata["key"]
                    raise ConfigError(f"{key}: must be in {bounds}, got {x}")

    def system(self) -> SystemConfig:
        try:
            return SystemConfig(
                source=SourceParams(mu=self.mu, nu=self.nu),
                channel=ChannelParams(alpha_ab=self.alpha_ab, length_ab=self.length_ab,
                                      alpha_e=self.alpha_e, bee_line_d=self.bee_line_d),
                detector=DetectorParams(eta_b=self.eta_b, p_dark=self.p_dark),
                basis_mode=self.basis_mode, qber_opt=self.qber_opt,
                qber_attrib_floor=self.qber_attrib_floor, f_ec=self.f_ec,
                n_pulses=self.n_pulses, monitor_tof=self.monitor_tof,
            )
        except ValueError as exc:
            # Past check_bounds only the cross-key checks fail here.  Each
            # dataclass message starts with the field it rejects: name its key.
            name = str(exc).split(" ", 1)[0]
            key = next((k for k, (attr, _) in _KEY_SPEC.items() if attr == name), None)
            raise ConfigError(f"{key}: {exc}" if key else str(exc)) from exc

    def as_pairs(self) -> dict[str, str]:
        """Effective configuration as the flat key=value mapping (sorted).

        The worker count is omitted: it cannot change any result, and output
        files must stay byte-identical across it.  It only sets how many
        processes share the pulses, at most one per 2^20, since starting one
        costs about what 2^20 pulses of work take.
        """
        return {
            key: _render(getattr(self, attr))
            for key, (attr, _) in sorted(_KEY_SPEC.items())
            if key != "sim.workers"
        }


# key -> (attribute name, parser)
_KEY_SPEC = {
    f.metadata["key"]: (f.name, f.metadata["parser"]) for f in fields(Settings)
}


def parse_config_text(text: str) -> dict[str, str]:
    """Parse ``key = value`` lines, ignoring blanks and # comments."""
    pairs: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key=value, got {line!r}")
        key, _, raw = stripped.partition("=")
        pairs[key.strip()] = raw.strip()
    return pairs


def load_settings(
    config_path: str | Path | None = None,
    overrides: list[str] | None = None,
) -> Settings:
    """Defaults, then the config file, then key=value overrides; then every
    value is checked against its key's bounds."""
    settings = Settings()
    if config_path is not None:
        text = Path(config_path).read_text(encoding="utf-8")
        settings.apply(parse_config_text(text))
    if overrides:
        pairs: dict[str, str] = {}
        for item in overrides:
            if "=" not in item:
                raise ConfigError(f"override must be key=value, got {item!r}")
            key, _, raw = item.partition("=")
            pairs[key.strip()] = raw.strip()
        settings.apply(pairs)
    settings.check_bounds()
    return settings


def default_config_text() -> str:
    """The shipped defaults as a config file, one ``key = default  # doc`` line
    per key; it parses back to ``Settings()``."""
    rows = []
    for f in fields(Settings):
        doc, bounds = f.metadata["doc"], f.metadata["bounds"]
        if isinstance(f.default, enum.Enum):
            doc += f"; one of {', '.join(m.value for m in type(f.default))}"
        if bounds is not None:
            doc += f"; in {bounds}"
        rows.append((f"{f.metadata['key']} = {_render(f.default)}", doc))
    width = max(len(left) for left, _ in rows)
    lines = ["# Shipped defaults; override any key with --set key=value."]
    lines += [f"{left:<{width}}  # {doc}" for left, doc in rows]
    return "\n".join(lines) + "\n"
