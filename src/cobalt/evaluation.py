"""Robustness and prediction harnesses around the selection pipeline.

The missingness sweep removes a growing fraction of entities from a complete
table (an entity disappears from every layer at once), reruns the full
pipeline per ratio, and tracks modularity per iteration. The regression
harness predicts post-treatment scores from age, gender, and the
pre-treatment score, optionally augmented with one-hot community membership,
using ridge regression with seeded k-fold cross-validation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

import numpy as np

from .config import PipelineConfig
from .model import CovariateTable, ScoreTable, TargetTable
from .pipeline import run_selection
from .selector import IterationTrace, project_partition

NO_COMMUNITY = "none"


# ---------------------------------------------------------------------------
# missingness sweep


def derive_seed(master_seed: int, index: int) -> int:
    """Independent per-ratio seed, reproducible from the master seed."""
    return int(np.random.SeedSequence([master_seed, index]).generate_state(1)[0])


def inject_missingness(table: ScoreTable, ratio: float, seed: int) -> ScoreTable:
    """Remove round(ratio * n) entities, chosen uniformly, from every layer."""
    if not table.is_complete():
        raise ValueError("missingness injection requires a complete table")
    if not 0.0 <= ratio < 1.0:
        raise ValueError(f"ratio must be in [0, 1), got {ratio}")
    n = len(table.entities)
    k = round(ratio * n)
    if k == 0:
        return table
    rng = np.random.default_rng(seed)
    removed = set(rng.choice(n, size=k, replace=False).tolist())
    keep = [e for i, e in enumerate(table.entities) if i not in removed]
    return table.subset_entities(keep)


@dataclass(frozen=True)
class SweepEntry:
    ratio: float
    seed: int | None
    removed: tuple[str, ...]
    modularity: tuple[float, ...]
    best_iteration: int
    failed: bool = False
    reason: str | None = None


@dataclass(frozen=True)
class MissingnessSweepReport:
    reference: SweepEntry
    entries: tuple[SweepEntry, ...]
    config: dict = field(default_factory=dict)


def _sweep_entry(
    table: ScoreTable, ratio: float, seed: int | None, config: PipelineConfig
) -> SweepEntry:
    if ratio > 0.0:
        assert seed is not None
        reduced = inject_missingness(table, ratio, seed)
    else:
        reduced = table
    removed = tuple(e for e in table.entities if e not in set(reduced.entities))

    thin = [
        layer
        for layer in reduced.layers
        if sum(1 for e in reduced.entities if reduced.has(e, layer)) < 3
    ]
    if thin or len(reduced.entities) < 3:
        return SweepEntry(
            ratio, seed, removed, (), 0, failed=True,
            reason=f"fewer than 3 entities left in layers {thin or list(reduced.layers)}",
        )
    try:
        trace = run_selection(reduced, config)
    except (ValueError, ArithmeticError) as exc:
        return SweepEntry(ratio, seed, removed, (), 0, failed=True, reason=str(exc))

    qs = tuple(r.modularity for r in trace.records)
    best = max(range(len(qs)), key=lambda i: qs[i]) + 1
    return SweepEntry(ratio, seed, removed, qs, best)


def missingness_sweep(
    table: ScoreTable,
    config: PipelineConfig,
    grid: Sequence[float] | None = None,
    master_seed: int | None = None,
) -> MissingnessSweepReport:
    """Run the pipeline at every missingness ratio plus the 0% reference.

    Ratios are independent: each draws its own removal set from a seed
    derived from the master seed and the ratio's position in the grid.
    A ratio that leaves fewer than 3 entities in some layer (or whose
    pipeline fails outright) is marked failed and the sweep continues.
    """
    if not table.is_complete():
        raise ValueError("missingness sweep requires a complete table")
    ratios = tuple(grid) if grid is not None else config.sweep.grid
    base_seed = master_seed if master_seed is not None else config.sweep.master_seed

    # selection in NONE mode: the sweep observes every iteration
    cfg = replace(config, selector=replace(config.selector, stopping="NONE"))
    reference = _sweep_entry(table, 0.0, None, cfg)

    entries = [
        _sweep_entry(table, r, derive_seed(base_seed, i), cfg)
        for i, r in enumerate(ratios)
    ]
    return MissingnessSweepReport(
        reference, tuple(entries), {"master_seed": base_seed, "grid": list(ratios)}
    )


# ---------------------------------------------------------------------------
# regression harness


@dataclass(frozen=True)
class DesignMatrix:
    matrix: np.ndarray
    columns: tuple[str, ...]
    entities: tuple[str, ...]


def build_design_matrix(
    covariates: CovariateTable,
    table_t0: ScoreTable,
    targets: TargetTable,
    target_layer: str,
    partition: Mapping[str, int] | None = None,
) -> tuple[DesignMatrix, np.ndarray]:
    """Feature matrix and target vector for one post-treatment score.

    Rows are the entities with age, gender, the pre-treatment score of the
    target layer, and the post-treatment target all present. Columns:
    intercept, age, one-hot gender, pre-treatment score, and (when a
    partition is given) one-hot community membership with an extra column
    for entities outside the partition. The community block never changes
    the row set, only the columns.
    """
    if target_layer not in targets.layers:
        raise ValueError(f"target layer {target_layer!r} not in targets")

    rows = [
        e
        for e in table_t0.entities
        if e in covariates.age
        and e in covariates.gender
        and table_t0.has(e, target_layer)
        and (e, target_layer) in targets.values
    ]
    if not rows:
        raise ValueError(f"no eligible rows for target {target_layer!r}")

    genders = sorted({covariates.gender[e] for e in rows})
    columns = ["intercept", "age"]
    columns += [f"gender={g}" for g in genders]
    columns += [f"{target_layer}@t0"]
    community_ids: list[int] = []
    if partition is not None:
        community_ids = sorted(set(partition.values()))
        columns += [f"community={c}" for c in community_ids]
        columns += [f"community={NO_COMMUNITY}"]

    matrix = np.zeros((len(rows), len(columns)))
    matrix[:, 0] = 1.0
    for i, e in enumerate(rows):
        matrix[i, 1] = covariates.age[e]
        matrix[i, 2 + genders.index(covariates.gender[e])] = 1.0
        matrix[i, 2 + len(genders)] = table_t0.scores[(e, target_layer)]
        if partition is not None:
            base = 3 + len(genders)
            comm = partition.get(e)
            if comm is None:
                matrix[i, base + len(community_ids)] = 1.0
            else:
                matrix[i, base + community_ids.index(comm)] = 1.0

    y = np.array([targets.values[(e, target_layer)] for e in rows])
    return DesignMatrix(matrix, tuple(columns), tuple(rows)), y


def fit_ridge(X: np.ndarray, y: np.ndarray, lam: float) -> np.ndarray:
    """Penalized least squares with an unpenalized intercept (column 0).

    lam = 0 reduces to ordinary least squares and raises on a singular
    normal system.
    """
    if lam < 0:
        raise ValueError(f"lambda must be non-negative, got {lam}")
    gram = X.T @ X
    penalty = np.eye(X.shape[1]) * lam
    penalty[0, 0] = 0.0
    system = gram + penalty
    if lam == 0.0:
        sv = np.linalg.svd(system, compute_uv=False)
        if sv[-1] <= sv[0] * 1e-12:
            raise np.linalg.LinAlgError(
                "normal system is singular at lambda = 0; drop columns or penalize"
            )
    return np.linalg.solve(system, X.T @ y)


def regression_metrics(
    y_true: np.ndarray, y_pred: np.ndarray
) -> tuple[float, float, float]:
    """(MAE, MSE, R^2); R^2 is NaN when the targets have zero variance."""
    y_true = np.asarray(y_true, dtype=float)
    y_pred = np.asarray(y_pred, dtype=float)
    if y_true.shape != y_pred.shape or y_true.size < 2:
        raise ValueError("need two equal-length vectors of size >= 2")
    err = y_pred - y_true
    mae = float(np.mean(np.abs(err)))
    mse = float(np.mean(err**2))
    ss_tot = float(np.sum((y_true - y_true.mean()) ** 2))
    if ss_tot == 0.0:
        return mae, mse, math.nan
    r2 = 1.0 - float(np.sum(err**2)) / ss_tot
    return mae, mse, r2


@dataclass(frozen=True)
class CrossValResult:
    best_lambda: float
    mae: float
    mse: float
    r2: float


def _fold_r2(y_true: np.ndarray, y_pred: np.ndarray, train_mean: float) -> float:
    ss_res = float(np.sum((y_true - y_pred) ** 2))
    ss_tot = float(np.sum((y_true - train_mean) ** 2))
    if ss_tot == 0.0:
        return 1.0 if ss_res == 0.0 else -math.inf
    return 1.0 - ss_res / ss_tot


def cross_validate(
    X: np.ndarray,
    y: np.ndarray,
    folds: int = 10,
    lambda_grid: Sequence[float] = (0.01, 0.1, 1.0, 10.0, 100.0),
    seed: int = 0,
) -> CrossValResult:
    """Seeded k-fold grid search; best lambda by lowest mean out-of-fold MSE.

    Out-of-fold R^2 measures against the training-fold mean, so a predictor
    no better than that baseline scores at or below zero.
    """
    n = len(y)
    if n < folds:
        raise ValueError(f"{n} samples cannot fill {folds} folds")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    fold_indices = np.array_split(perm, folds)

    best: CrossValResult | None = None
    for lam in lambda_grid:
        maes, mses, r2s = [], [], []
        for test_idx in fold_indices:
            mask = np.ones(n, dtype=bool)
            mask[test_idx] = False
            beta = fit_ridge(X[mask], y[mask], lam)
            pred = X[test_idx] @ beta
            err = pred - y[test_idx]
            maes.append(float(np.mean(np.abs(err))))
            mses.append(float(np.mean(err**2)))
            r2s.append(_fold_r2(y[test_idx], pred, float(y[mask].mean())))
        candidate = CrossValResult(
            lam, float(np.mean(maes)), float(np.mean(mses)), float(np.mean(r2s))
        )
        if best is None or candidate.mse < best.mse:
            best = candidate
    assert best is not None
    return best


@dataclass(frozen=True)
class RegressionRow:
    target: str
    feature_set: str
    model: str
    best_lambda: float
    mae: float
    mse: float
    r2: float
    folds: int
    n: int


@dataclass(frozen=True)
class RegressionReport:
    rows: tuple[RegressionRow, ...]
    metadata: dict = field(default_factory=dict)


def regression_report(
    covariates: CovariateTable,
    table_t0: ScoreTable,
    targets: TargetTable,
    trace: IterationTrace,
    config: PipelineConfig,
) -> RegressionReport:
    """Baseline vs community-augmented cross-validated metrics per target.

    Targets whose layer yields no eligible rows or too few rows for the fold
    count are skipped (recorded in metadata), mirroring how tiny follow-up
    samples drop out of the analysis.
    """
    rows: list[RegressionRow] = []
    skipped: list[str] = []
    reg = config.regression
    for target_layer in targets.layers:
        feature_sets: list[tuple[str, Mapping[str, int] | None]] = [("baseline", None)]
        for record in trace.records:
            projected = project_partition(record.partition, record.layers)
            feature_sets.append((f"cobalt@iteration{record.index}", projected))
        for name, partition in feature_sets:
            try:
                design, y = build_design_matrix(
                    covariates, table_t0, targets, target_layer, partition
                )
                result = cross_validate(
                    design.matrix, y, reg.folds, reg.lambda_grid, reg.seed
                )
            except ValueError as exc:
                skipped.append(f"{target_layer}/{name}: {exc}")
                continue
            rows.append(
                RegressionRow(
                    target=target_layer,
                    feature_set=name,
                    model="ridge",
                    best_lambda=result.best_lambda,
                    mae=result.mae,
                    mse=result.mse,
                    r2=result.r2,
                    folds=reg.folds,
                    n=len(y),
                )
            )
    metadata = {
        "lambda_grid": list(reg.lambda_grid),
        "folds": reg.folds,
        "seed": reg.seed,
        "r2_baseline": "training-fold mean",
        "skipped": skipped,
    }
    return RegressionReport(tuple(rows), metadata)
