"""Experiment configuration: flat key=value files, CLI overrides, validation."""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from ..bodies import body_from_descriptor
from ..variation import Q_MAX

__all__ = ["ConfigError", "ExperimentConfig", "parse_config_file", "SUITES"]

SUITES = (
    "identities",
    "domination",
    "carleson",
    "cz",
    "square",
    "counterexample",
    "interp",
    "ergodic",
    "sweep",
)

# suites whose checks track operator-norm ratios and therefore need q > 2
BOUNDEDNESS_SUITES = ("sweep", "square", "ergodic", "counterexample")

SUPPORT_WIDTH = 64.0  # physical window of generated fields, fixed across refinement


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class ExperimentConfig:
    suite: str
    body: str = "ball"
    d: int = 1
    grid: int = 64
    mesh: float | None = None  # default SUPPORT_WIDTH / grid
    p1: float = 2.0
    p2: float = 2.0
    p: float = 1.0
    q: float = 3.0
    l: float = 1.5
    eps: float = 1.0
    s: float = 10.0
    n: int = 4
    trials: int = 50
    seed: int = 0
    out: str = "reports"
    norm: str = "strong"  # strong | weak | bmo
    ceiling: float | None = None

    @property
    def mesh_value(self) -> float:
        return self.mesh if self.mesh is not None else SUPPORT_WIDTH / self.grid

    def validate(self) -> "ExperimentConfig":
        if self.suite not in SUITES:
            raise ConfigError(f"unknown suite {self.suite!r}; choose from {SUITES}")
        if self.d not in (1, 2):
            raise ConfigError("d must be 1 or 2")
        if self.grid < 8 or self.grid & (self.grid - 1):
            raise ConfigError("grid must be a power of two >= 8")
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if self.norm not in ("strong", "weak", "bmo"):
            raise ConfigError("norm must be strong, weak, or bmo")
        try:
            body_from_descriptor(self.body, self.d)
        except ValueError as exc:
            raise ConfigError(f"bad body {self.body!r}: {exc}") from exc
        if self.mesh is not None and not 0 < self.mesh < np.inf:
            raise ConfigError("mesh must be positive and finite")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if self.ceiling is not None and not self.ceiling > 0:
            raise ConfigError("ceiling must be positive")
        for name, low in (("p1", 1.0), ("p2", 1.0), ("p", 0.5)):  # the paper's range
            if not getattr(self, name) >= low:
                raise ConfigError(f"{name} must be >= {low:g}")
        if self.suite == "cz" and not np.isfinite(self.p):
            raise ConfigError("suite 'cz' requires a finite p")
        if self.norm != "bmo" and np.isfinite(self.p1) and np.isfinite(self.p2):
            if abs(1.0 / self.p - (1.0 / self.p1 + 1.0 / self.p2)) > 1e-9:
                raise ConfigError("exponents must satisfy 1/p = 1/p1 + 1/p2")
        if not 1.0 < self.q <= Q_MAX:
            raise ConfigError(f"q must lie in (1, {Q_MAX:g}]")
        if self.suite in BOUNDEDNESS_SUITES and not self.q > 2:
            raise ConfigError(f"suite {self.suite!r} requires q > 2")
        if not (1.0 < self.l < 2.0):
            raise ConfigError("l must lie in (1, 2)")
        if not self.eps > 0:
            raise ConfigError("eps must be positive")
        if not self.s > 2:
            raise ConfigError("s must exceed 2")
        if not 0 <= self.n <= 8:
            raise ConfigError("n must lie in 0..8")
        return self


_FLOAT_KEYS = {"mesh", "p1", "p2", "p", "q", "l", "eps", "s", "ceiling"}
_INT_KEYS = {"d", "grid", "n", "trials", "seed"}


def _coerce(key: str, raw: str):
    raw = raw.strip()
    if key in _INT_KEYS:
        return int(raw)
    if key in _FLOAT_KEYS:
        return float(raw)  # accepts 'inf'
    return raw


def parse_config_file(path) -> dict:
    """Flat key = value lines; '#' comments and blank lines ignored."""
    known = {f.name for f in fields(ExperimentConfig)}
    out: dict = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, raw = (s.strip() for s in line.split("=", 1))
            if key not in known:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                out[key] = _coerce(key, raw)
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    return out


def build_config(file_values: dict, overrides: dict) -> ExperimentConfig:
    merged = dict(file_values)
    merged.update({k: v for k, v in overrides.items() if v is not None})
    if "suite" not in merged:
        raise ConfigError("a suite must be named (config key 'suite' or CLI argument)")
    try:
        cfg = ExperimentConfig(**merged)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc
    return cfg.validate()


def with_updates(cfg: ExperimentConfig, **kw) -> ExperimentConfig:
    return replace(cfg, **kw).validate()
