"""Tests for the shared experiment workload builders."""

import numpy as np
import pytest

from repro.erm.oracle import NonPrivateOracle
from repro.experiments.workloads import (
    classification_workload,
    family_max_error,
    pmw_max_error,
    regression_workload,
    single_query_excess,
)
from repro.losses.families import (
    random_logistic_family,
    random_squared_family,
)


class TestWorkloadBuilders:
    def test_classification_workload_fields(self):
        workload = classification_workload(
            n=1_000, d=3, k=5, family_builder=random_logistic_family,
            universe_size=60, rng=0,
        )
        assert workload.dataset.n == 1_000
        assert len(workload.losses) == 5
        assert workload.scale == pytest.approx(2.0)
        assert "classification" in workload.description

    def test_regression_workload_fields(self):
        workload = regression_workload(
            n=1_000, d=3, k=4, family_builder=random_squared_family,
            universe_size=60, rng=0,
        )
        assert len(workload.losses) == 4
        assert workload.universe.is_labeled

    def test_reproducible(self):
        a = classification_workload(n=500, d=2, k=3,
                                    family_builder=random_logistic_family,
                                    universe_size=40, rng=7)
        b = classification_workload(n=500, d=2, k=3,
                                    family_builder=random_logistic_family,
                                    universe_size=40, rng=7)
        np.testing.assert_array_equal(a.dataset.indices, b.dataset.indices)


class TestMeasurements:
    @pytest.fixture(scope="class")
    def workload(self):
        return classification_workload(
            n=20_000, d=3, k=6, family_builder=random_logistic_family,
            universe_size=60, rng=1,
        )

    def test_pmw_max_error_runs(self, workload):
        error, updates = pmw_max_error(
            workload, NonPrivateOracle(150), alpha=0.3, epsilon=2.0,
            max_updates=10, rng=0,
        )
        assert 0.0 <= error <= 1.0
        assert 0 <= updates <= 10

    def test_family_max_error_of_optima_is_zero(self, workload):
        from repro.optimize.minimize import minimize_loss
        data = workload.dataset.histogram()
        thetas = [minimize_loss(loss, data, steps=400).theta
                  for loss in workload.losses]
        assert family_max_error(workload.losses, data, thetas,
                                solver_steps=400) <= 2e-3

    def test_single_query_excess_nonnegative(self, workload):
        excess = single_query_excess(
            workload.losses[0], workload.dataset, NonPrivateOracle(200),
            rng=0,
        )
        assert excess >= 0.0
        assert excess < 0.05  # non-private oracle is near-exact


class TestExperimentSmoke:
    """Tiny-parameter smoke runs of every experiment driver."""

    def test_linear_row(self):
        from repro.experiments.table1 import run_linear_row
        report = run_linear_row(n=5_000, ks=(8, 32), trials=1,
                                max_updates=8, rng=0)
        assert "PMW" in report.render()

    def test_uglm_row(self):
        from repro.experiments.table1 import run_uglm_row
        report = run_uglm_row(dims=(2, 4), n=2_000, trials=1, rng=0)
        assert "GLM" in report.render()

    def test_strongly_convex_row(self):
        from repro.experiments.table1 import run_strongly_convex_row
        report = run_strongly_convex_row(
            sigmas=(0.5, 1.0), ns=(1_000, 4_000), n_fixed=2_000, k=4,
            trials=1, rng=0,
        )
        assert "sigma" in report.render()

    def test_crossover(self):
        from repro.experiments.crossover import run_crossover
        report = run_crossover(ks=(2, 8), n=5_000, trials=1, rng=0)
        assert "winner" in report.render()

    def test_update_count(self):
        from repro.experiments.diagnostics import run_update_count
        report = run_update_count(alphas=(0.4,), n=5_000, pool_size=5,
                                  queries=10, rng=0)
        assert "paper budget" in report.render()

    def test_offline_online(self):
        from repro.experiments.offline_online import run_offline_online
        report = run_offline_online(n=5_000, k=5, rounds=3, trials=1, rng=0)
        assert "offline" in report.render()

    def test_oracle_sweep(self):
        from repro.experiments.oracles import run_oracle_sweep
        report = run_oracle_sweep(ns=(500, 2_000), trials=1, rng=0)
        assert "noisy-GD" in report.render()

    def test_generalization(self):
        from repro.experiments.generalization import run_generalization
        report = run_generalization(n=40, pool_size=5, k=5, trials=1, rng=0)
        assert "gap" in report.render()

    def test_runtime(self):
        from repro.experiments.runtime import run_runtime_profile
        report = run_runtime_profile(universe_sizes=(40, 80), n=2_000, k=3,
                                     rng=0)
        assert "per-query" in report.render()


class TestLargeUniverseWorkload:
    """The large-universe interval workload the engine benchmarks run."""

    def test_builds_shared_table_matrix(self):
        from repro.engine import kernels
        from repro.experiments.workloads import large_universe_workload

        workload = large_universe_workload(universe_size=5_000, k=8,
                                           n=2_000, rng=0)
        assert workload.universe.size == 5_000
        assert len(workload.queries) == 8
        stacked = kernels.stack_tables(workload.queries)
        # the workload builds one contiguous matrix; stacking is zero-copy
        assert (stacked.__array_interface__["data"][0]
                == workload.queries[0].table.__array_interface__["data"][0])

    def test_interval_tables_are_indicators(self):
        import numpy as np
        from repro.experiments.workloads import large_universe_workload

        workload = large_universe_workload(universe_size=2_000, k=5,
                                           n=1_000, rng=4)
        for query in workload.queries:
            assert set(np.unique(query.table)) <= {0.0, 1.0}
