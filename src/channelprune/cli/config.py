"""Experiment configuration: flat key=value files plus overrides.

Every sweep report embeds the fully resolved configuration as '#'
comment lines, in the canonical key order below, so a report is
self-describing and replayable.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from operator import attrgetter
from pathlib import Path

from ..errors import ConfigError
from ..graph import DEFAULT_ENUMERATION_CAP
from ..prune import ProtectionPolicy, Selector
from ..sim import SyntheticSpec

__all__ = ["ExperimentConfig", "format_value", "parse_config_file", "parse_config_lines"]

MODES = ("synthetic", "from-files")


def format_value(x: float) -> str:
    """Serialize a real number with 12 significant digits."""
    return format(float(x), ".12g")


def _embedded(x: float) -> str:
    """`format_value` when it parses back to x, else the round-trip `repr`."""
    text = format_value(x)
    return text if float(text) == x else repr(float(x))


# Parsers take (key, text) so that their errors name the key.
def _bool(key: str, value: str) -> bool:
    lowered = value.lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ConfigError(f"{key}: expected a boolean, got {value!r}")


def _int(key: str, value: str) -> int:
    try:
        return int(value)
    except ValueError as exc:
        raise ConfigError(f"{key}: expected an integer, got {value!r}") from exc


def _float(key: str, value: str) -> float:
    try:
        return float(value)
    except ValueError as exc:
        raise ConfigError(f"{key}: expected a number, got {value!r}") from exc


def _selector(key: str, value: str) -> Selector:
    name = value.strip().lower()
    try:
        return Selector(name)
    except ValueError as exc:
        valid = ", ".join(s.value for s in Selector)
        raise ConfigError(f"{key}: unknown selector {name!r}, expected one of {valid}") from exc


def _each(parse):
    """Parse a comma-separated list item by item."""
    return lambda key, value: tuple(parse(key, part) for part in value.split(","))


def _seeds(key: str, value: str) -> tuple[int, ...]:
    """'a:b' (half-open range), 'n', or 'a,b,c'."""
    if ":" not in value:
        return _each(_int)(key, value)
    lo, hi = (_int(key, part) for part in value.split(":", 1))
    if hi <= lo:
        raise ConfigError(f"{key}: empty range {value!r}")
    return tuple(range(lo, hi))


def _bounds(key: str, value: str) -> tuple[float, ...]:
    if value.count(",") != 1:
        raise ConfigError(f"{key}: expected 'A,B', got {value!r}")
    return _each(_float)(key, value)


def _joined(write):
    return lambda values: ",".join(write(x) for x in values)


def _path(key: str, value: str) -> str | None:
    return value or None


def _write_bool(flag: bool) -> str:
    return "true" if flag else "false"


def _write_path(path: str | None) -> str:
    return path or ""


def _setting(default, parse, write):
    """A config field: its default, and the parser and writer of its text form."""
    return field(default=default, metadata={"parse": parse, "write": write})


# Each field declares one setting; the field order is the canonical key order.
@dataclass(frozen=True)
class ExperimentConfig:
    mode: str = _setting("synthetic", lambda key, value: value, str)
    d: int = _setting(SyntheticSpec.d, _int, str)
    L: int = _setting(SyntheticSpec.L, _int, str)
    L_obs: int = _setting(SyntheticSpec.L_obs, _int, str)
    L_future: int = _setting(SyntheticSpec.L_future, _int, str)
    outlier_fraction: float = _setting(SyntheticSpec.outlier_fraction, _float, _embedded)
    outlier_scale: float = _setting(SyntheticSpec.outlier_scale, _float, _embedded)
    drift_gamma: float = _setting(SyntheticSpec.drift_gamma, _float, _embedded)
    q_path: str | None = _setting(None, _path, _write_path)
    k_path: str | None = _setting(None, _path, _write_path)
    q_future_path: str | None = _setting(None, _path, _write_path)
    lambdas: tuple[float, ...] = _setting((0.5,), _each(_float), _joined(_embedded))
    selectors: tuple[Selector, ...] = _setting(
        (Selector.MIES, Selector.THINK), _each(_selector), _joined(lambda s: s.value)
    )
    seeds: tuple[int, ...] = _setting((0,), _seeds, _joined(str))
    protect: bool = _setting(ProtectionPolicy.enabled, _bool, _write_bool)
    protect_sigma: float = _setting(ProtectionPolicy.threshold_sigma, _float, _embedded)
    protect_bounds: tuple[float, float] = _setting(
        (ProtectionPolicy.a, ProtectionPolicy.b), _bounds, _joined(_embedded)
    )
    oracle: bool = _setting(False, _bool, _write_bool)
    enumeration_cap: int = _setting(DEFAULT_ENUMERATION_CAP, _int, str)
    timing: bool = _setting(False, _bool, _write_bool)
    out: str | None = _setting(None, _path, _write_path)

    def validate(self) -> "ExperimentConfig":
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if not self.lambdas:
            raise ConfigError("at least one pruning ratio is required")
        if any(not 0.0 <= lam <= 1.0 for lam in self.lambdas):
            raise ConfigError(f"pruning ratios must lie in [0, 1], got {self.lambdas}")
        if not self.selectors:
            raise ConfigError("at least one selector is required")
        if any(not isinstance(s, Selector) for s in self.selectors):
            raise ConfigError(f"selectors must be Selector members, got {self.selectors}")
        if not self.seeds:
            raise ConfigError("at least one seed is required")
        if any(seed < 0 for seed in self.seeds):
            raise ConfigError(f"seeds must be non-negative, got {self.seeds}")
        for key in ("lambdas", "selectors", "seeds"):  # a repeated entry would repeat its rows
            values = getattr(self, key)
            repeated = [value for i, value in enumerate(values) if value in values[:i]]
            if repeated:
                raise ConfigError(f"{key}: repeated value {_KEYS[key][1](repeated[:1])}")
        if self.enumeration_cap < 0:
            raise ConfigError(f"enumeration_cap must be non-negative, got {self.enumeration_cap}")
        if self.mode == "from-files" and (self.q_path is None or self.k_path is None):
            raise ConfigError("from-files mode requires q_path and k_path")
        for key in ("q_path", "k_path", "q_future_path"):
            path = str(getattr(self, key) or "")
            # A report embeds each path on one '#' line, and reading it back strips each value.
            if "".join(path.splitlines()) != path or path != path.strip():
                raise ConfigError(f"{key} must not contain a line break or begin or end with whitespace, got {path!r}")
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
        return SyntheticSpec(*_spec_settings(self), seed=seed)

    def resolved_items(self) -> list[tuple[str, str]]:
        """(key, value) pairs of row-determining settings, for report embedding."""
        return [(key, _KEYS[key][1](getattr(self, key))) for key in EMBEDDED_KEYS]

    def with_updates(self, **changes) -> "ExperimentConfig":
        return replace(self, **changes)


_KEYS = {f.name: (f.metadata["parse"], f.metadata["write"]) for f in fields(ExperimentConfig)}

# Keys embedded in reports: everything that determines the rows. The output
# path is where a report landed, not part of the experiment, so rewriting the
# same experiment to a different file stays byte-identical in content.
EMBEDDED_KEYS = tuple(key for key in _KEYS if key != "out")

# SyntheticSpec's fields but its trailing seed, in order; each is the setting of the same name.
_spec_settings = attrgetter(*(f.name for f in fields(SyntheticSpec)[:-1]))


def _apply_key(cfg: ExperimentConfig, key: str, value: str) -> ExperimentConfig:
    """`cfg` with setting `key` read from its text form."""
    if key not in _KEYS:
        raise ConfigError(f"unknown configuration key {key!r}")
    return cfg.with_updates(**{key: _KEYS[key][0](key, value.strip())})


def parse_config_lines(lines) -> ExperimentConfig:
    """Fold key=value lines (comments and blanks ignored) into the default config."""
    cfg = ExperimentConfig()
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key=value, got {stripped!r}")
        key, _, value = stripped.partition("=")
        cfg = _apply_key(cfg, key.strip(), value)
    return cfg


def parse_config_file(path: str | Path) -> ExperimentConfig:
    return parse_config_lines(Path(path).read_text(encoding="utf-8").splitlines())
