"""Robustness and prediction harnesses around the selection pipeline.

The missingness sweep removes a growing fraction of entities from a complete
table (an entity disappears from every layer at once), reruns the full
pipeline per ratio, and tracks modularity per iteration. The regression
harness predicts post-treatment scores from age, gender, and the
pre-treatment score, optionally augmented with one-hot community membership,
using ridge regression with seeded k-fold cross-validation.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, field, replace
from typing import Mapping, Sequence

import numpy as np

from .config import PipelineConfig
from .model import CovariateTable, ScoreTable
from .pipeline import run_selection
from .selector import IterationTrace, project_partition

NO_COMMUNITY = "none"


# ---------------------------------------------------------------------------
# missingness sweep


def derive_seed(master_seed: int, index: int) -> int:
    """Independent per-ratio seed, reproducible from the master seed."""
    return int(np.random.SeedSequence([master_seed, index]).generate_state(1)[0])


def inject_missingness(table: ScoreTable, ratio: float, seed: int | None) -> ScoreTable:
    """Remove round(ratio * n) entities, chosen uniformly, from every layer.
    Where that count is 0 none is drawn, so ``seed`` may be ``None``."""
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
    reduced = inject_missingness(table, ratio, seed)
    kept = set(reduced.entities)
    removed = tuple(e for e in table.entities if e not in kept)

    # the table is complete, so every layer holds every remaining entity
    if len(reduced.entities) < 3:
        return SweepEntry(
            ratio, seed, removed, (), 0, failed=True,
            reason=f"fewer than 3 entities left in layers {list(reduced.layers)}",
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
) -> MissingnessSweepReport:
    """Run the pipeline at every missingness ratio plus the 0% reference.

    The ratios and the master seed come from ``config.sweep``. Ratios are
    independent: each draws its own removal set from a seed derived from
    the master seed and the ratio's position in the grid.
    A ratio that leaves fewer than 3 entities in some layer (or whose
    pipeline fails outright) is marked failed and the sweep continues.
    """
    if not table.is_complete():
        raise ValueError("missingness sweep requires a complete table (no missing cells)")
    ratios, base_seed = config.sweep.grid, config.sweep.master_seed

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
    targets: ScoreTable,
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
        and targets.has(e, target_layer)
    ]
    if not rows:
        raise ValueError(f"no eligible rows for target {target_layer!r}")

    genders = sorted({covariates.gender[e] for e in rows})
    columns = ["intercept", "age", *(f"gender={g}" for g in genders), f"{target_layer}@t0"]
    blocks = [
        np.ones(len(rows)),
        np.array([covariates.age[e] for e in rows]),
        _one_hot([covariates.gender[e] for e in rows], genders),
        np.array([table_t0.scores[(e, target_layer)] for e in rows]),
    ]
    if partition is not None:
        levels = [*sorted(set(partition.values())), NO_COMMUNITY]
        columns += [f"community={c}" for c in levels]
        blocks.append(_one_hot([partition.get(e, NO_COMMUNITY) for e in rows], levels))
    matrix = np.column_stack(blocks)

    y = np.array([targets.scores[(e, target_layer)] for e in rows])
    return DesignMatrix(matrix, tuple(columns), tuple(rows)), y


def _one_hot(labels: Sequence, levels: Sequence) -> np.ndarray:
    """Indicator block: row ``i`` holds a 1 in the column of ``labels[i]``."""
    column = {level: k for k, level in enumerate(levels)}
    block = np.zeros((len(labels), len(levels)))
    block[np.arange(len(labels)), [column[label] for label in labels]] = 1.0
    return block


@dataclass(frozen=True)
class CrossValResult:
    best_lambda: float
    mae: float
    mse: float
    r2: float


def cross_validate(
    X: np.ndarray,
    y: np.ndarray,
    folds: int,
    lambda_grid: Sequence[float],
    seed: int,
) -> CrossValResult:
    """Seeded k-fold grid search; best lambda by lowest mean out-of-fold MSE.

    Out-of-fold R^2 measures against the training-fold mean, so a predictor
    no better than that baseline scores at or below zero. The intercept
    (column 0) is not penalized.

    No BLAS or LAPACK routine touches the numbers, so the bytes do not depend
    on the kernel the machine's BLAS picks: every sum adds one term at a time
    (``np.bincount`` in row order, ``np.cumsum``), and the fold x lambda
    normal systems are solved together by :func:`_solve_positive_definite`.
    """
    if folds < 2:
        raise ValueError(f"folds must be at least 2, got {folds}")
    if not lambda_grid or not all(lam > 0 for lam in lambda_grid):
        raise ValueError(f"lambda_grid must hold positive values, got {list(lambda_grid)}")
    n, p = X.shape
    if n < folds:
        raise ValueError(f"{n} samples cannot fill {folds} folds")
    rng = np.random.default_rng(seed)
    fold_of = np.empty(n, dtype=np.int64)
    for f, test_idx in enumerate(np.array_split(rng.permutation(n), folds)):
        fold_of[test_idx] = f
    size = np.bincount(fold_of, minlength=folds)[:, None]

    def fold_sums(values: np.ndarray) -> np.ndarray:
        """Per fold, the column sums of ``values`` over its rows."""
        k = values.shape[1]
        keys = fold_of[:, None] * k + np.arange(k)
        return np.bincount(keys.ravel(), values.ravel(), folds * k).reshape(folds, k)

    def training_sums(values: np.ndarray) -> np.ndarray:
        """Per fold, the sums over its training rows: the other folds' sums,
        added in fold order."""
        others = ~np.eye(folds, dtype=bool)[:, :, None]
        return np.cumsum(fold_sums(values)[None] * others, axis=1)[:, -1]

    gram = training_sums((X[:, :, None] * X[:, None, :]).reshape(n, -1)).reshape(folds, p, p)
    moment = training_sums(X * y[:, None])
    train_mean = training_sums(y[:, None]) / (n - size)

    lams = np.array(lambda_grid, dtype=float)
    penalty = np.eye(p)
    penalty[0, 0] = 0.0
    systems = gram[:, None] + lams[:, None, None] * penalty
    beta = _solve_positive_definite(systems, np.repeat(moment[:, None], len(lams), axis=1))
    # out-of-fold predictions, one column per lambda
    err = np.cumsum(X[:, None, :] * beta[fold_of], axis=2)[:, :, -1] - y[:, None]

    ss_res = fold_sums(err**2)
    ss_tot = fold_sums((y[:, None] - train_mean[fold_of]) ** 2)
    flat = np.broadcast_to(ss_tot == 0.0, ss_res.shape)
    r2 = 1.0 - ss_res / np.where(flat, 1.0, ss_tot)
    r2[flat] = np.where(ss_res[flat] == 0.0, 1.0, -np.inf)
    # per lambda, the mean over folds of each fold's score
    scores = np.stack([fold_sums(np.abs(err)) / size, ss_res / size, r2])
    mae, mse, r2 = (np.cumsum(scores, axis=1)[:, -1] / folds).tolist()
    best = min(range(len(lams)), key=lambda l: mse[l])
    return CrossValResult(lambda_grid[best], mae[best], mse[best], r2[best])


def _solve_positive_definite(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solutions x of ``a @ x = b`` for a stack of symmetric positive
    definite systems, by Gaussian elimination without pivoting (which such
    systems never need), one numpy operation per step and no BLAS."""
    a, b = a.copy(), b.copy()
    p = b.shape[-1]
    for k in range(p):
        factor = a[..., k + 1 :, k] / a[..., k, k, None]
        a[..., k + 1 :, k:] -= factor[..., None] * a[..., None, k, k:]
        b[..., k + 1 :] -= factor * b[..., k, None]
    x = np.empty_like(b)
    for k in reversed(range(p)):
        x[..., k] = b[..., k] / a[..., k, k]
        b[..., :k] -= a[..., :k, k] * x[..., k, None]
    return x


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
    targets: ScoreTable,
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
    feature_sets: list[tuple[str, Mapping[str, int] | None]] = [("baseline", None)]
    feature_sets += [
        (f"cobalt@iteration{r.index}", project_partition(r.partition, r.layers))
        for r in trace.records
    ]
    for target_layer in targets.layers:
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
                RegressionRow(target_layer, name, "ridge", *astuple(result), reg.folds, len(y))
            )
    metadata = {
        "lambda_grid": list(reg.lambda_grid),
        "folds": reg.folds,
        "seed": reg.seed,
        "r2_baseline": "training-fold mean",
        "skipped": skipped,
    }
    return RegressionReport(tuple(rows), metadata)
