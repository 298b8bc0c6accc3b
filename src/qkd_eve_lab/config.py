"""System configuration and the flat key=value config file format.

Files are plain text: one ``section.key = value`` per line, ``#`` starts a
comment, keys are namespaced with dots.  Unknown keys are rejected with the
list of valid ones; command-line overrides win over file values.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from importlib import resources
from pathlib import Path

from .core_stats import (
    BasisMode, ChannelParams, DetectorParams, SourceParams, transmission,
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
    # Accept scientific notation for counts (sim.pulses = 1e8).
    value = _parse_float(raw)
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


def _parse_basis(raw: str) -> str:
    if raw.lower() not in ("active", "passive"):
        raise ConfigError(f"protocol.basis_mode must be active or passive, got {raw!r}")
    return raw.lower()


def _parse_eve_model(raw: str) -> str:
    allowed = ("none", "strategy-a", "strategy-b", "strategy-b-storage", "unlimited")
    if raw.lower() not in allowed:
        raise ConfigError(f"eve.model must be one of {allowed}, got {raw!r}")
    return raw.lower()


def _parse_mu_list(raw: str) -> tuple[float, ...]:
    return tuple(_parse_float(part) for part in raw.split(",") if part.strip())


# key -> (attribute name, parser)
_KEY_SPEC = {
    "source.mu": ("mu", _parse_float),
    "source.nu": ("nu", _parse_float),
    "channel.alpha_ab": ("alpha_ab", _parse_float),
    "channel.length_ab": ("length_ab", _parse_float),
    "channel.alpha_e": ("alpha_e", _parse_float),
    "channel.bee_line_d": ("bee_line_d", _parse_optional_float),
    "channel.monitor_tof": ("monitor_tof", _parse_bool),
    "detector.eta_b": ("eta_b", _parse_float),
    "detector.p_dark": ("p_dark", _parse_float),
    "protocol.basis_mode": ("basis_mode", _parse_basis),
    "qber.optical": ("qber_opt", _parse_float),
    "qber.attrib_floor": ("qber_attrib_floor", _parse_float),
    "keyrate.f_ec": ("f_ec", _parse_float),
    "eve.model": ("eve_model", _parse_eve_model),
    "eve.lambda": ("eve_lambda", _parse_float),
    "eve.gamma": ("eve_gamma", _parse_optional_float),
    "eve.t_e": ("eve_t_e", _parse_optional_float),
    "eve.attack_fraction": ("attack_fraction", _parse_float),
    "sim.pulses": ("n_pulses", _parse_int),
    "sim.seed": ("seed", _parse_int),
    "sim.batch_size": ("batch_size", _parse_int),
    "sim.workers": ("workers", _parse_int),
    "sweep.d_min": ("d_min", _parse_float),
    "sweep.d_max": ("d_max", _parse_float),
    "sweep.step": ("d_step", _parse_float),
    "rates.mu_values": ("mu_values", _parse_mu_list),
}


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
        if self.f_ec < 1.0:
            raise ConfigError(f"f_ec must be >= 1, got {self.f_ec}")
        if self.n_pulses < 1:
            raise ConfigError(f"n_pulses must be >= 1, got {self.n_pulses}")

    def with_mu(self, mu: float) -> "SystemConfig":
        return replace(self, source=replace(self.source, mu=mu))

    def t_ab(self, distance_km: float) -> float:
        """Installed-link transmittance at a given fiber length."""
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
    """Everything a run can configure, with the shipped defaults filled in."""

    mu: float = 0.1
    nu: float = 1.0e6
    alpha_ab: float = 0.25
    length_ab: float = 60.0
    alpha_e: float = 0.15
    bee_line_d: float | None = None
    monitor_tof: bool = False
    eta_b: float = 0.1
    p_dark: float = 1.0e-6
    basis_mode: str = "active"
    qber_opt: float = 0.005
    qber_attrib_floor: float = 0.01
    f_ec: float = 1.0
    eve_model: str = "none"
    eve_lambda: float = 0.5
    eve_gamma: float | None = 1.0
    eve_t_e: float | None = None
    attack_fraction: float = 1.0
    n_pulses: int = 10**10
    seed: int = 42
    batch_size: int = 2**20
    workers: int = 1
    d_min: float = 0.0
    d_max: float = 200.0
    d_step: float = 1.0
    mu_values: tuple[float, ...] = (0.05, 0.1, 0.2)

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

    def system(self) -> SystemConfig:
        mode = BasisMode.ACTIVE if self.basis_mode == "active" else BasisMode.PASSIVE
        try:
            return SystemConfig(
                source=SourceParams(mu=self.mu, nu=self.nu),
                channel=ChannelParams(
                    alpha_ab=self.alpha_ab,
                    length_ab=self.length_ab,
                    alpha_e=self.alpha_e,
                    bee_line_d=self.bee_line_d,
                ),
                detector=DetectorParams(
                    eta_b=self.eta_b, p_dark=self.p_dark, n_gated=mode.n_gated
                ),
                basis_mode=mode,
                qber_opt=self.qber_opt,
                qber_attrib_floor=self.qber_attrib_floor,
                f_ec=self.f_ec,
                n_pulses=self.n_pulses,
                monitor_tof=self.monitor_tof,
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def as_pairs(self) -> dict[str, str]:
        """Effective configuration as the flat key=value mapping (sorted).

        Pure execution knobs (worker count, batch size) are omitted: they
        cannot change any result, and output files must stay byte-identical
        across them.
        """
        out: dict[str, str] = {}
        for key, (attr, _) in sorted(_KEY_SPEC.items()):
            if key in ("sim.workers", "sim.batch_size"):
                continue
            value = getattr(self, attr)
            if value is None:
                text = "none"
            elif isinstance(value, tuple):
                text = ",".join(repr(v) for v in value)
            elif isinstance(value, bool):
                text = "true" if value else "false"
            else:
                text = repr(value) if isinstance(value, float) else str(value)
            out[key] = text
        return out


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
    """Defaults, then the config file, then key=value overrides."""
    settings = Settings()
    settings.apply(parse_config_text(default_config_text()))
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
    return settings


def default_config_text() -> str:
    """Contents of the shipped defaults file."""
    return resources.files(__package__).joinpath("defaults.cfg").read_text("utf-8")
