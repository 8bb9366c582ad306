import math
from dataclasses import replace

import numpy as np
import pytest

from cobalt.config import PipelineConfig, SweepConfig
from cobalt.evaluation import (
    CrossValResult,
    build_design_matrix,
    cross_validate,
    derive_seed,
    inject_missingness,
    missingness_sweep,
    regression_report,
)
from cobalt.model import CovariateTable, ScoreTable
from cobalt.pipeline import run_selection

from _support import fit_ridge, halves_and_parity_table, least_squares_oracle, planted_table


def complete_table(n=100, seed=0):
    halves = [0 if i < n // 2 else 1 for i in range(n)]
    return planted_table(n, {"A": halves}, seed=seed)


class TestInjectMissingness:
    def test_exact_removal_count(self):
        table = complete_table(100)
        reduced = inject_missingness(table, 0.1, seed=1)
        assert len(reduced.entities) == 90
        assert reduced.is_complete()

    def test_zero_ratio_identity(self):
        table = complete_table(20)
        assert inject_missingness(table, 0.0, seed=1) is table

    def test_deterministic_under_seed(self):
        table = complete_table(50)
        first = inject_missingness(table, 0.3, seed=9)
        second = inject_missingness(table, 0.3, seed=9)
        assert first.entities == second.entities

    def test_incomplete_input_rejected(self):
        table = ScoreTable(
            ("e1", "e2"), ("A",), {("e1", "A"): 1.0}
        )
        with pytest.raises(ValueError, match="complete"):
            inject_missingness(table, 0.1, seed=0)

    def test_rounding_of_removal_count(self):
        table = complete_table(25)
        reduced = inject_missingness(table, 0.1, seed=0)
        assert len(reduced.entities) == 25 - round(0.1 * 25)


def sweep_config(grid: list[float], master_seed: int) -> PipelineConfig:
    return replace(PipelineConfig(), sweep=SweepConfig(tuple(grid), master_seed))


class TestMissingnessSweep:
    def test_single_ratio_report_shape(self):
        table = halves_and_parity_table(n=24, seed=1)
        report = missingness_sweep(table, sweep_config([0.1], 4))
        assert report.reference.ratio == 0.0
        assert len(report.entries) == 1
        assert not report.reference.failed
        assert len(report.reference.modularity) == 3

    def test_default_grid_has_nine_entries(self):
        table = halves_and_parity_table(n=20, seed=2)
        report = missingness_sweep(table, PipelineConfig())
        assert [e.ratio for e in report.entries] == [
            0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9,
        ]

    def test_deterministic(self):
        table = halves_and_parity_table(n=20, seed=2)
        a = missingness_sweep(table, sweep_config([0.2, 0.4], 7))
        b = missingness_sweep(table, sweep_config([0.2, 0.4], 7))
        assert [e.removed for e in a.entries] == [e.removed for e in b.entries]
        assert [e.modularity for e in a.entries] == [e.modularity for e in b.entries]

    def test_ratio_leaving_too_few_entities_marked_failed(self):
        table = halves_and_parity_table(n=4, seed=0)
        report = missingness_sweep(table, sweep_config([0.5], 0))
        assert report.entries[0].failed
        assert "fewer than 3" in (report.entries[0].reason or "")

    def test_per_iteration_modularity_recorded(self):
        table = halves_and_parity_table(n=24, seed=5)
        report = missingness_sweep(table, sweep_config([0.25], 1))
        entry = report.entries[0]
        assert not entry.failed
        assert len(entry.modularity) == 3  # one value per iteration
        assert 1 <= entry.best_iteration <= 3

    def test_derived_seeds_differ_by_index(self):
        assert derive_seed(5, 0) != derive_seed(5, 1)
        assert derive_seed(5, 0) == derive_seed(5, 0)


def tiny_population(n=30, seed=3):
    rng = np.random.default_rng(seed)
    entities = tuple(f"e{i}" for i in range(n))
    t0 = ScoreTable(
        entities, ("A", "B"),
        {(e, l): float(rng.normal(50, 10)) for e in entities for l in ("A", "B")},
    )
    covariates = CovariateTable(
        entities,
        {e: float(rng.uniform(20, 80)) for e in entities},
        {e: ("m" if rng.random() < 0.5 else "f") for e in entities},
    )
    targets = ScoreTable(
        entities, ("A",),
        {(e, "A"): t0.scores[(e, "A")] * 0.8 + float(rng.normal(0, 2)) for e in entities},
    )
    return t0, covariates, targets


class TestBuildDesignMatrix:
    def test_baseline_columns(self):
        t0, cov, targets = tiny_population()
        design, y = build_design_matrix(cov, t0, targets, "A", None)
        genders = len(set(cov.gender.values()))
        assert design.columns == ("intercept", "age", *(f"gender={g}" for g in sorted(set(cov.gender.values()))), "A@t0")
        assert design.matrix.shape == (30, 3 + genders - 1 + 1)
        assert np.all(design.matrix[:, 0] == 1.0)
        assert len(y) == 30

    def test_community_block_adds_k_plus_one_columns(self):
        t0, cov, targets = tiny_population()
        base, _ = build_design_matrix(cov, t0, targets, "A", None)
        partition = {e: (0 if i % 3 else 1) for i, e in enumerate(t0.entities[:20])}
        aug, _ = build_design_matrix(cov, t0, targets, "A", partition)
        k = len(set(partition.values()))
        assert len(aug.columns) == len(base.columns) + k + 1
        assert aug.entities == base.entities

    def test_entities_missing_target_excluded(self):
        t0, cov, targets = tiny_population()
        values = dict(targets.scores)
        del values[("e0", "A")]
        targets = ScoreTable(targets.entities, targets.layers, values)
        design, _ = build_design_matrix(cov, t0, targets, "A", None)
        assert "e0" not in design.entities
        assert len(design.entities) == 29

    def test_unknown_target_layer(self):
        t0, cov, targets = tiny_population()
        with pytest.raises(ValueError, match="not in targets"):
            build_design_matrix(cov, t0, targets, "Z", None)

    def test_no_community_column_catches_outsiders(self):
        t0, cov, targets = tiny_population()
        partition = {"e0": 0}
        design, _ = build_design_matrix(cov, t0, targets, "A", partition)
        none_col = design.columns.index("community=none")
        row_e1 = design.entities.index("e1")
        assert design.matrix[row_e1, none_col] == 1.0


class TestFitRidge:
    """The test-side ridge reference, which test_equals_one_fit_per_lambda_and_fold
    holds ``cross_validate`` to."""

    def test_ols_two_by_two(self):
        X = np.array([[1.0, 0.0], [1.0, 1.0]])
        y = np.array([1.0, 3.0])
        beta = fit_ridge(X, y, 0.0)
        assert beta == pytest.approx([1.0, 2.0], abs=1e-12)

    def test_matches_least_squares_oracle(self):
        rng = np.random.default_rng(0)
        X = np.column_stack([np.ones(40), rng.normal(size=(40, 3))])
        y = rng.normal(size=40)
        beta = fit_ridge(X, y, 0.0)
        expected = least_squares_oracle(X, y)
        assert beta == pytest.approx(expected, rel=1e-8)

    def test_large_lambda_shrinks_to_intercept(self):
        rng = np.random.default_rng(1)
        X = np.column_stack([np.ones(50), rng.normal(size=(50, 2))])
        y = rng.normal(5.0, 1.0, size=50)
        beta = fit_ridge(X, y, 1e12)
        assert beta[1:] == pytest.approx([0.0, 0.0], abs=1e-6)
        assert beta[0] == pytest.approx(float(y.mean()), abs=1e-3)

    def test_singular_system_raises_at_zero(self):
        X = np.array([[1.0, 2.0, 4.0], [1.0, 3.0, 6.0], [1.0, 4.0, 8.0]])
        with pytest.raises(np.linalg.LinAlgError):
            fit_ridge(X, np.array([1.0, 2.0, 3.0]), 0.0)

    def test_intercept_unpenalized(self):
        # pure-intercept design: any lambda must still return the mean
        X = np.ones((20, 1))
        y = np.linspace(0, 10, 20)
        for lam in (0.0, 1.0, 100.0):
            assert fit_ridge(X, y, lam)[0] == pytest.approx(float(y.mean()))


class TestCrossValidate:
    def test_near_perfect_linear_data(self):
        rng = np.random.default_rng(2)
        X = np.column_stack([np.ones(200), rng.normal(size=(200, 3))])
        beta_true = np.array([2.0, 1.0, -3.0, 0.5])
        y = X @ beta_true + rng.normal(0, 0.01, size=200)
        result = cross_validate(X, y, folds=10, lambda_grid=[0.01], seed=0)
        assert result.r2 >= 0.99
        assert result.mae < 0.05

    def test_constant_target_never_beats_baseline(self):
        rng = np.random.default_rng(3)
        X = np.column_stack([np.ones(40), rng.normal(size=(40, 2))])
        y = np.full(40, 7.0)
        result = cross_validate(X, y, folds=5, lambda_grid=[0.01], seed=0)
        assert result.r2 <= 0.0

    def test_deterministic_under_seed(self):
        rng = np.random.default_rng(4)
        X = np.column_stack([np.ones(60), rng.normal(size=(60, 2))])
        y = rng.normal(size=60)
        a = cross_validate(X, y, folds=6, lambda_grid=[0.1, 1.0], seed=11)
        b = cross_validate(X, y, folds=6, lambda_grid=[0.1, 1.0], seed=11)
        assert a == b

    def test_too_few_samples(self):
        X = np.ones((5, 1))
        with pytest.raises(ValueError, match="folds"):
            cross_validate(X, np.arange(5.0), folds=10, lambda_grid=[0.1], seed=0)

    def test_best_lambda_by_mse(self):
        rng = np.random.default_rng(5)
        X = np.column_stack([np.ones(100), rng.normal(size=(100, 2))])
        y = X @ np.array([1.0, 2.0, -1.0]) + rng.normal(0, 0.05, size=100)
        result = cross_validate(X, y, folds=10, lambda_grid=[1000.0, 0.01], seed=0)
        assert result.best_lambda == 0.01

    def test_equals_one_fit_per_lambda_and_fold(self):
        """The shared per-fold normal systems give the result of fitting
        every lambda on every fold anew with LAPACK, to rounding."""
        rng = np.random.default_rng(6)
        X = np.column_stack([np.ones(120), rng.normal(size=(120, 4))])
        y = X @ rng.normal(size=5) + rng.normal(0, 0.5, size=120)
        grid = (0.001, 0.01, 1.0, 100.0)
        folds = np.array_split(np.random.default_rng(3).permutation(120), 7)
        expected = None
        for lam in grid:
            errors, r2s = [], []
            for test_idx in folds:
                mask = np.ones(120, dtype=bool)
                mask[test_idx] = False
                pred = X[test_idx] @ fit_ridge(X[mask], y[mask], lam)
                errors.append(pred - y[test_idx])
                ss_tot = float(np.sum((y[test_idx] - float(y[mask].mean())) ** 2))
                r2s.append(1.0 - float(np.sum((y[test_idx] - pred) ** 2)) / ss_tot)
            mse = float(np.mean([float(np.mean(e**2)) for e in errors]))
            if expected is None or mse < expected.mse:
                mae = float(np.mean([float(np.mean(np.abs(e))) for e in errors]))
                expected = CrossValResult(lam, mae, mse, float(np.mean(r2s)))
        result = cross_validate(X, y, folds=7, lambda_grid=grid, seed=3)
        assert result.best_lambda == expected.best_lambda
        assert (result.mae, result.mse, result.r2) == pytest.approx(
            (expected.mae, expected.mse, expected.r2), rel=1e-12
        )

    def test_each_lambda_scores_as_if_alone(self):
        """Solving every lambda of the grid together changes no bit: the
        result is the best of the one-lambda runs, in any grid order."""
        rng = np.random.default_rng(7)
        X = np.column_stack([np.ones(90), rng.normal(size=(90, 3))])
        y = X @ rng.normal(size=4) + rng.normal(0, 2.0, size=90)
        grid = [100.0, 0.01, 10.0, 1.0]
        alone = [cross_validate(X, y, 6, [lam], seed=2) for lam in grid]
        best = min(alone, key=lambda r: r.mse)
        assert best.best_lambda != grid[0]
        assert cross_validate(X, y, 6, grid, seed=2) == best
        assert cross_validate(X, y, 6, grid[::-1], seed=2) == best

    @pytest.mark.parametrize(
        "folds, grid, name",
        [(1, [0.1], "folds"), (5, [], "lambda_grid"), (0, [0.1], "folds"),
         (5, [0.1, 0.0], "lambda_grid"), (5, [-1.0], "lambda_grid"),
         (5, [float("nan")], "lambda_grid")],
    )
    def test_refuses_bad_arguments(self, folds, grid, name):
        X = np.column_stack([np.ones(30), np.arange(30.0)])
        with pytest.raises(ValueError, match=name):
            cross_validate(X, np.arange(30.0), folds=folds, lambda_grid=grid, seed=0)


class TestRegressionReport:
    def test_baseline_plus_iterations_rows(self):
        table = halves_and_parity_table(n=30, seed=6)
        config = PipelineConfig()
        trace = run_selection(table, config)
        rng = np.random.default_rng(7)
        entities = table.entities
        covariates = CovariateTable(
            entities,
            {e: float(rng.uniform(20, 70)) for e in entities},
            {e: ("m" if i % 2 else "f") for i, e in enumerate(entities)},
        )
        targets = ScoreTable(
            entities, ("A",),
            {(e, "A"): table.scores[(e, "A")] + float(rng.normal(0, 1)) for e in entities},
        )
        report = regression_report(covariates, table, targets, trace, config)
        feature_sets = [r.feature_set for r in report.rows]
        assert feature_sets == ["baseline"] + [
            f"cobalt@iteration{i}" for i in range(1, len(trace.records) + 1)
        ]
        assert all(r.target == "A" for r in report.rows)
        assert all(r.n == 30 for r in report.rows)
        assert all(math.isfinite(r.mse) for r in report.rows)

    def test_missing_target_layer_skipped_with_note(self):
        table = halves_and_parity_table(n=30, seed=8)
        config = PipelineConfig()
        trace = run_selection(table, config)
        covariates = CovariateTable(tuple(), {}, {})
        targets = ScoreTable(table.entities, ("A",), {})
        report = regression_report(covariates, table, targets, trace, config)
        assert report.rows == ()
        assert report.metadata["skipped"]
