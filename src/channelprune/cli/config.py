"""Experiment configuration: flat key=value files plus overrides.

Every sweep report embeds the fully resolved configuration as '#'
comment lines, in the canonical key order below, so a report is
self-describing and replayable.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

from ..errors import ConfigError
from ..prune import ProtectionPolicy, Selector
from ..sim import SyntheticSpec

__all__ = ["ExperimentConfig", "format_value", "parse_config_file", "parse_config_lines"]

MODES = ("synthetic", "from-files")

# Canonical order for the config file format.
CONFIG_KEYS = (
    "mode",
    "d",
    "L",
    "L_obs",
    "L_future",
    "outlier_fraction",
    "outlier_scale",
    "drift_gamma",
    "q_path",
    "k_path",
    "q_future_path",
    "lambdas",
    "selectors",
    "seeds",
    "protect",
    "protect_sigma",
    "protect_bounds",
    "oracle",
    "enumeration_cap",
    "timing",
    "out",
)

# Keys embedded in reports: everything that determines the rows. The output
# path is where a report landed, not part of the experiment, so rewriting the
# same experiment to a different file stays byte-identical in content.
EMBEDDED_KEYS = tuple(key for key in CONFIG_KEYS if key != "out")


def format_value(x: float) -> str:
    """Serialize a real number with 12 significant digits."""
    return format(float(x), ".12g")


def _embedded(x: float) -> str:
    """`format_value` when it parses back to x, else the round-trip `repr`."""
    text = format_value(x)
    return text if float(text) == x else repr(float(x))


def _parse_bool(key: str, value: str) -> bool:
    lowered = value.strip().lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ConfigError(f"{key}: expected a boolean, got {value!r}")


def _parse_int(key: str, value: str) -> int:
    try:
        return int(value)
    except ValueError as exc:
        raise ConfigError(f"{key}: expected an integer, got {value!r}") from exc


def _parse_float(key: str, value: str) -> float:
    try:
        return float(value)
    except ValueError as exc:
        raise ConfigError(f"{key}: expected a number, got {value!r}") from exc


def parse_seeds(value: str) -> tuple[int, ...]:
    """Parse 'a:b' (half-open range), 'n', or 'a,b,c'."""
    value = value.strip()
    if ":" in value:
        lo_s, hi_s = value.split(":", 1)
        lo, hi = _parse_int("seeds", lo_s), _parse_int("seeds", hi_s)
        if hi <= lo:
            raise ConfigError(f"seeds: empty range {value!r}")
        return tuple(range(lo, hi))
    return tuple(_parse_int("seeds", part) for part in value.split(","))


def parse_lambdas(value: str) -> tuple[float, ...]:
    return tuple(_parse_float("lambdas", part) for part in value.split(","))


def parse_selectors(value: str) -> tuple[Selector, ...]:
    out = []
    for part in value.split(","):
        name = part.strip().lower()
        try:
            out.append(Selector(name))
        except ValueError as exc:
            valid = ", ".join(s.value for s in Selector)
            raise ConfigError(f"selectors: unknown selector {name!r}, expected one of {valid}") from exc
    return tuple(out)


def parse_bounds(value: str) -> tuple[float, float]:
    parts = value.split(",")
    if len(parts) != 2:
        raise ConfigError(f"protect_bounds: expected 'A,B', got {value!r}")
    return _parse_float("protect_bounds", parts[0]), _parse_float("protect_bounds", parts[1])


@dataclass(frozen=True)
class ExperimentConfig:
    mode: str = "synthetic"
    d: int = 64
    L: int = 64
    L_obs: int = 32
    L_future: int = 32
    outlier_fraction: float = 0.05
    outlier_scale: float = 10.0
    drift_gamma: float = 0.5
    q_path: str | None = None
    k_path: str | None = None
    q_future_path: str | None = None
    lambdas: tuple[float, ...] = (0.5,)
    selectors: tuple[Selector, ...] = (Selector.MIES, Selector.THINK)
    seeds: tuple[int, ...] = (0,)
    protect: bool = True
    protect_sigma: float = 1.0
    protect_bounds: tuple[float, float] = (0.01, 0.125)
    oracle: bool = False
    enumeration_cap: int = 2_000_000
    timing: bool = False
    out: str | None = None

    def validate(self) -> "ExperimentConfig":
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if not self.lambdas:
            raise ConfigError("at least one pruning ratio is required")
        if any(not 0.0 <= lam <= 1.0 for lam in self.lambdas):
            raise ConfigError(f"pruning ratios must lie in [0, 1], got {self.lambdas}")
        if not self.selectors:
            raise ConfigError("at least one selector is required")
        if not self.seeds:
            raise ConfigError("at least one seed is required")
        if self.mode == "from-files" and (self.q_path is None or self.k_path is None):
            raise ConfigError("from-files mode requires q_path and k_path")
        try:
            self.policy()
            if self.mode == "synthetic":
                self.synthetic_spec(self.seeds[0])
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        return self

    def policy(self) -> ProtectionPolicy:
        a, b = self.protect_bounds
        return ProtectionPolicy(threshold_sigma=self.protect_sigma, a=a, b=b, enabled=self.protect)

    def synthetic_spec(self, seed: int) -> SyntheticSpec:
        return SyntheticSpec(
            d=self.d,
            L=self.L,
            L_obs=self.L_obs,
            L_future=self.L_future,
            outlier_fraction=self.outlier_fraction,
            outlier_scale=self.outlier_scale,
            drift_gamma=self.drift_gamma,
            seed=seed,
        )

    def resolved_items(self) -> list[tuple[str, str]]:
        """(key, value) pairs of row-determining settings, for report embedding."""
        values = {
            "mode": self.mode,
            "d": str(self.d),
            "L": str(self.L),
            "L_obs": str(self.L_obs),
            "L_future": str(self.L_future),
            "outlier_fraction": _embedded(self.outlier_fraction),
            "outlier_scale": _embedded(self.outlier_scale),
            "drift_gamma": _embedded(self.drift_gamma),
            "q_path": self.q_path or "",
            "k_path": self.k_path or "",
            "q_future_path": self.q_future_path or "",
            "lambdas": ",".join(_embedded(x) for x in self.lambdas),
            "selectors": ",".join(s.value for s in self.selectors),
            "seeds": ",".join(str(s) for s in self.seeds),
            "protect": "true" if self.protect else "false",
            "protect_sigma": _embedded(self.protect_sigma),
            "protect_bounds": ",".join(_embedded(x) for x in self.protect_bounds),
            "oracle": "true" if self.oracle else "false",
            "enumeration_cap": str(self.enumeration_cap),
            "timing": "true" if self.timing else "false",
        }
        return [(key, values[key]) for key in EMBEDDED_KEYS]

    def with_updates(self, **changes) -> "ExperimentConfig":
        return replace(self, **changes)


def _apply_key(cfg: ExperimentConfig, key: str, value: str) -> ExperimentConfig:
    value = value.strip()
    if key == "mode":
        return cfg.with_updates(mode=value)
    if key in ("d", "L", "L_obs", "L_future", "enumeration_cap"):
        return cfg.with_updates(**{key: _parse_int(key, value)})
    if key in ("outlier_fraction", "outlier_scale", "drift_gamma", "protect_sigma"):
        return cfg.with_updates(**{key: _parse_float(key, value)})
    if key in ("q_path", "k_path", "q_future_path", "out"):
        return cfg.with_updates(**{key: value or None})
    if key == "lambdas":
        return cfg.with_updates(lambdas=parse_lambdas(value))
    if key == "selectors":
        return cfg.with_updates(selectors=parse_selectors(value))
    if key == "seeds":
        return cfg.with_updates(seeds=parse_seeds(value))
    if key in ("protect", "oracle", "timing"):
        return cfg.with_updates(**{key: _parse_bool(key, value)})
    if key == "protect_bounds":
        return cfg.with_updates(protect_bounds=parse_bounds(value))
    raise ConfigError(f"unknown configuration key {key!r}")


def parse_config_lines(lines, base: ExperimentConfig | None = None) -> ExperimentConfig:
    """Fold key=value lines (comments and blanks ignored) into a config."""
    cfg = base or ExperimentConfig()
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key=value, got {stripped!r}")
        key, _, value = stripped.partition("=")
        cfg = _apply_key(cfg, key.strip(), value)
    return cfg


def parse_config_file(path: str | Path, base: ExperimentConfig | None = None) -> ExperimentConfig:
    text = Path(path).read_text(encoding="utf-8")
    return parse_config_lines(text.splitlines(), base=base)
