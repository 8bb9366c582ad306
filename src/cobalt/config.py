"""Pipeline configuration: defaults, JSON loading, validation."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Any

from .community import LeidenConfig
from .selector import STOPPING_MODES

DEFAULT_SWEEP_GRID = tuple(round(0.1 * i, 1) for i in range(1, 10))
DEFAULT_LAMBDA_GRID = (0.01, 0.1, 1.0, 10.0, 100.0)


@dataclass(frozen=True)
class PruningConfig:
    alpha: float = 0.05
    quantization: float = 1000.0

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")
        if self.quantization <= 0.0:
            raise ValueError(f"quantization must be positive, got {self.quantization}")


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


@dataclass(frozen=True)
class RegressionConfig:
    folds: int = 10
    lambda_grid: tuple[float, ...] = DEFAULT_LAMBDA_GRID
    seed: int = 0

    def __post_init__(self) -> None:
        if self.folds < 2:
            raise ValueError(f"need at least 2 folds, got {self.folds}")
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
        known = {"pruning", "leiden", "selector", "sweep", "regression"}
        unknown = set(raw) - known
        if unknown:
            raise ValueError(f"unknown config sections: {sorted(unknown)}")

        def build(section: str, factory, tuple_fields: tuple[str, ...] = ()):
            data = dict(raw.get(section, {}))
            for name in tuple_fields:
                if name in data:
                    data[name] = tuple(data[name])
            return factory(**data)

        return cls(
            pruning=build("pruning", PruningConfig),
            leiden=build("leiden", LeidenConfig),
            selector=build("selector", SelectorConfig),
            sweep=build("sweep", SweepConfig, ("grid",)),
            regression=build("regression", RegressionConfig, ("lambda_grid",)),
        )

    @classmethod
    def from_json(cls, path: str | Path) -> "PipelineConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))
