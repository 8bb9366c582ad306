"""Pipeline configuration: defaults, JSON loading, validation."""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import Any

from .community import LeidenConfig
from .pruning import DEFAULT_ALPHA, DEFAULT_SCALE, check_alpha, check_scale
from .selector import STOPPING_MODES

DEFAULT_SWEEP_GRID = tuple(round(0.1 * i, 1) for i in range(1, 10))
DEFAULT_LAMBDA_GRID = (0.01, 0.1, 1.0, 10.0, 100.0)


def _is_number(value: Any) -> bool:
    return type(value) is int or (type(value) is float and math.isfinite(value))


# what a JSON value must be, by the type of the field's default; a bool is
# neither an integer nor a number here, and json reads NaN and Infinity,
# which no artifact can hold
_FIELD_RULES = {
    int: ("a non-negative integer", lambda v: type(v) is int and v >= 0),
    float: ("a finite number", _is_number),
    str: ("a string", lambda v: type(v) is str),
    tuple: ("a list of finite numbers", lambda v: type(v) is list and all(map(_is_number, v))),
}


def _section(raw: dict[str, Any], name: str, factory: type) -> Any:
    """``factory`` built from section ``name`` of a parsed config file."""
    data = raw.get(name, {})
    if not isinstance(data, dict):
        raise ValueError(f"config section {name} must be an object, got {data!r}")
    kinds = {f.name: type(f.default) for f in fields(factory)}
    for key, value in data.items():
        if key not in kinds:
            raise ValueError(f"unknown config field {name}.{key}")
        what, valid = _FIELD_RULES[kinds[key]]
        if not valid(value):
            raise ValueError(f"config field {name}.{key} must be {what}, got {value!r}")
    return factory(**{k: tuple(v) if type(v) is list else v for k, v in data.items()})


@dataclass(frozen=True)
class PruningConfig:
    alpha: float = DEFAULT_ALPHA
    quantization: float = DEFAULT_SCALE

    def __post_init__(self) -> None:
        check_alpha(self.alpha)
        check_scale(self.quantization)


@dataclass(frozen=True)
class SelectorConfig:
    stopping: str = "NONE"

    def __post_init__(self) -> None:
        if self.stopping not in STOPPING_MODES:
            raise ValueError(f"stopping must be one of {STOPPING_MODES}")


@dataclass(frozen=True)
class SweepConfig:
    grid: tuple[float, ...] = DEFAULT_SWEEP_GRID
    master_seed: int = 0

    def __post_init__(self) -> None:
        for r in self.grid:
            if not 0.0 < r < 1.0:
                raise ValueError(f"missingness ratios must be in (0, 1), got {r}")
        if self.master_seed < 0:
            raise ValueError(
                f"master_seed must be non-negative, got {self.master_seed}"
            )


@dataclass(frozen=True)
class RegressionConfig:
    folds: int = 10
    lambda_grid: tuple[float, ...] = DEFAULT_LAMBDA_GRID
    seed: int = 0

    def __post_init__(self) -> None:
        if self.folds < 2:
            raise ValueError(f"need at least 2 folds, got {self.folds}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if not self.lambda_grid:
            raise ValueError("lambda grid must not be empty")
        if not all(l > 0 for l in self.lambda_grid):
            raise ValueError(
                "lambda values must be positive: the one-hot design columns are "
                "collinear, so lambda = 0 has no unique fit"
            )


@dataclass(frozen=True)
class PipelineConfig:
    pruning: PruningConfig = field(default_factory=PruningConfig)
    leiden: LeidenConfig = field(default_factory=LeidenConfig)
    selector: SelectorConfig = field(default_factory=SelectorConfig)
    sweep: SweepConfig = field(default_factory=SweepConfig)
    regression: RegressionConfig = field(default_factory=RegressionConfig)

    def with_seed(self, seed: int) -> "PipelineConfig":
        """Copy with every seeded component reseeded from one value."""
        return replace(
            self,
            leiden=replace(self.leiden, seed=seed),
            sweep=replace(self.sweep, master_seed=seed),
            regression=replace(self.regression, seed=seed),
        )

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, raw: dict[str, Any]) -> "PipelineConfig":
        """Config from parsed JSON; a malformed section or field is named."""
        if not isinstance(raw, dict):
            raise ValueError(f"config must be a JSON object, got {raw!r}")
        # each section's class is its field's default factory
        sections = {f.name: f.default_factory for f in fields(cls)}
        unknown = set(raw) - set(sections)
        if unknown:
            raise ValueError(f"unknown config sections: {sorted(unknown)}")
        return cls(**{name: _section(raw, name, kind) for name, kind in sections.items()})

    @classmethod
    def from_json(cls, path: str | Path) -> "PipelineConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))
