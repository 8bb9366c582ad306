"""Seeded input tables for the benchmark workloads, written as cobalt CSV files.

The generators live here, not in the test suite, so that test edits never
change what the benchmark measures. Every table depends only on the seed.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

PLANTED_N = 400
PLANTED_LAYERS = 6
PLANTED_GROUPS = 4
PLANTED_SEPARATION = 10.0
PLANTED_NOISE = 0.5

TIED_N = 400
TIED_LAYERS = 6
TIED_MAX_SCORE = 10
TIED_MISSING_P = 0.3

SWEEP_N = 200


@dataclass(frozen=True)
class Inputs:
    """One workload's input files, as paths relative to the run directory."""

    scores: Path
    covariates: Path | None = None
    targets: Path | None = None


def _entities(n: int) -> list[str]:
    return [f"e{i:03d}" for i in range(n)]


def _layers(count: int) -> list[str]:
    return [f"L{i + 1}" for i in range(count)]


def _write_rows(path: Path, header: list[str], rows: list[list[str]]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_scores(path: Path, layers: list[str], entities: list[str], cells) -> None:
    """``cells[i][l]`` is a float or None (missing)."""
    rows = [
        [e] + ["" if v is None else repr(float(v)) for v in cells[i]]
        for i, e in enumerate(entities)
    ]
    _write_rows(path, ["entity", *layers], rows)


def planted(seed: int, out: Path) -> Inputs:
    """Complete Gaussian table with four equal planted groups per layer,
    plus covariates and follow-up targets (t0 score + N(0, 1))."""
    rng = np.random.default_rng(seed)
    entities = _entities(PLANTED_N)
    layers = _layers(PLANTED_LAYERS)
    # equal-sized groups, shuffled independently per layer
    groups = np.column_stack(
        [rng.permutation(np.arange(PLANTED_N) % PLANTED_GROUPS) for _ in range(PLANTED_LAYERS)]
    )
    scores = groups * PLANTED_SEPARATION + rng.normal(
        0.0, PLANTED_NOISE, size=(PLANTED_N, PLANTED_LAYERS)
    )
    age = rng.uniform(20.0, 80.0, size=PLANTED_N).round(1)
    gender = rng.choice(["F", "M"], size=PLANTED_N)
    follow_up = scores + rng.normal(0.0, 1.0, size=scores.shape)

    inputs = Inputs(out / "scores.csv", out / "covariates.csv", out / "targets.csv")
    _write_scores(inputs.scores, layers, entities, scores.tolist())
    _write_rows(
        inputs.covariates,
        ["entity", "age", "gender"],
        [[e, repr(float(a)), str(g)] for e, a, g in zip(entities, age, gender)],
    )
    _write_rows(
        inputs.targets,
        ["entity", *(f"{l}_t1" for l in layers)],
        [[e] + [repr(float(v)) for v in row] for e, row in zip(entities, follow_up)],
    )
    return inputs


def tied_missing(seed: int, out: Path) -> Inputs:
    """Integer scores 0..10; in each layer a random 30% of the cells are
    missing, and each entity keeps at least one cell."""
    rng = np.random.default_rng(seed)
    entities = _entities(TIED_N)
    layers = _layers(TIED_LAYERS)
    scores = rng.integers(0, TIED_MAX_SCORE + 1, size=(TIED_N, TIED_LAYERS))
    # a fixed count per layer, so the edge count (and the work) does not
    # change from seed to seed
    present = np.ones((TIED_N, TIED_LAYERS), dtype=bool)
    for layer in range(TIED_LAYERS):
        present[rng.choice(TIED_N, size=round(TIED_MISSING_P * TIED_N), replace=False), layer] = False
    empty = np.flatnonzero(~present.any(axis=1))
    present[empty, rng.integers(0, TIED_LAYERS, size=len(empty))] = True
    cells = [
        [int(v) if p else None for v, p in zip(row, mask)]
        for row, mask in zip(scores.tolist(), present.tolist())
    ]
    inputs = Inputs(out / "scores.csv")
    _write_scores(inputs.scores, layers, entities, cells)
    return inputs


def sweep(seed: int, out: Path) -> Inputs:
    """Complete three-layer table: two layers split the entities in halves,
    one splits them by parity (separation 10, noise 0.5)."""
    rng = np.random.default_rng(seed)
    entities = _entities(SWEEP_N)
    idx = np.arange(SWEEP_N)
    halves = (idx >= SWEEP_N // 2).astype(float)
    groups = np.column_stack([halves, halves, (idx % 2).astype(float)])
    scores = groups * PLANTED_SEPARATION + rng.normal(
        0.0, PLANTED_NOISE, size=groups.shape
    )
    inputs = Inputs(out / "scores.csv")
    _write_scores(inputs.scores, ["A", "B", "C"], entities, scores.tolist())
    return inputs


GENERATORS = {"planted": planted, "tied-missing": tied_missing, "sweep": sweep}
