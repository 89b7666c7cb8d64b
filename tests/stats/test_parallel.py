"""Worker-count invariance: the parallel executor never changes results.

The acceptance contract of the parallel-planning PR, asserted (not just
benchmarked): ``workers=`` produces results identical to serial for
``tight_sample_size``, ``tight_epsilon_many`` (element-wise, with the
probe certificates re-checked) and full ``SampleSizeEstimator.plan``
across all three adaptivity modes — and the parent process's caches end
up warm exactly as a serial run would leave them.
"""

import numpy as np
import pytest

from repro.core.engine import CIEngine
from repro.core.estimators.api import SampleSizeEstimator
from repro.exceptions import InvalidParameterError
from repro.stats.cache import all_caches, clear_all_caches
from repro.stats.parallel import (
    WORKERS_ENV,
    PlanningExecutor,
    get_executor,
    resolve_workers,
)
from repro.stats.tight_bounds import (
    epsilon_sweep_shards,
    estimate_probe_cost,
    exceeds_delta_many,
    tight_epsilon_many,
    tight_sample_size,
)

SIZES = np.unique(np.linspace(300, 1600, 10).astype(int))
DELTA, TOL = 1e-2, 1e-5


class TestResolveWorkers:
    def test_serial_spellings(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV, raising=False)
        for value in (None, 0, 1, "serial", "none", "0", "1", ""):
            assert resolve_workers(value) == 1

    def test_auto_uses_the_cpu_count(self):
        import os

        assert resolve_workers("auto") == max(1, os.cpu_count() or 1)

    def test_explicit_counts(self):
        assert resolve_workers(3) == 3
        assert resolve_workers("4") == 4

    def test_env_default(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "2")
        assert resolve_workers(None) == 2
        assert resolve_workers("serial") == 1  # explicit beats env
        monkeypatch.setenv(WORKERS_ENV, "serial")
        assert resolve_workers(None) == 1

    def test_invalid_values_raise(self):
        for value in ("bogus", -1, 2.5, True):
            with pytest.raises(InvalidParameterError):
                resolve_workers(value)


class TestShardPlanning:
    def test_shards_partition_the_unique_sizes(self):
        shards = epsilon_sweep_shards(SIZES, 4)
        assert 1 <= len(shards) <= 4
        assert all(len(s) for s in shards)
        assert np.array_equal(np.concatenate(shards), np.unique(SIZES))

    def test_shards_balance_estimated_cost(self):
        sizes = np.arange(100, 5000, 37)
        shards = epsilon_sweep_shards(sizes, 4)
        costs = [estimate_probe_cost(s).sum() for s in shards]
        assert max(costs) < 2.0 * min(costs)

    def test_more_shards_than_sizes_degrades_gracefully(self):
        shards = epsilon_sweep_shards(np.array([500, 700]), 8)
        assert len(shards) == 2

    def test_invalid_shard_count_raises(self):
        with pytest.raises(InvalidParameterError):
            epsilon_sweep_shards(SIZES, 0)


class TestExecutorParity:
    def test_epsilon_sweep_identical_and_certified(self):
        clear_all_caches()
        serial = tight_epsilon_many(SIZES, DELTA, tol=TOL)
        clear_all_caches()
        with PlanningExecutor(2) as executor:
            sharded = executor.tight_epsilon_many(SIZES, DELTA, tol=TOL)
        assert np.array_equal(serial, sharded)
        # The probe certificates hold on the sharded result too.
        assert not exceeds_delta_many(SIZES, sharded, DELTA).any()
        assert exceeds_delta_many(SIZES, sharded - TOL, DELTA).all()

    def test_sharded_sweep_leaves_the_parent_warm(self):
        clear_all_caches()
        with PlanningExecutor(2) as executor:
            sharded = executor.tight_epsilon_many(SIZES, DELTA, tol=TOL)
        cache = all_caches()["stats.tight_bounds.tight_epsilon_many"]
        hits = cache.info().hits
        assert np.array_equal(tight_epsilon_many(SIZES, DELTA, tol=TOL), sharded)
        assert cache.info().hits == hits + 1
        anchors = all_caches()["stats.tight_bounds.epsilon_anchors"]
        (entries,) = [value for _, value in anchors.items()]
        assert {n for n, _ in entries} == set(np.unique(SIZES).tolist())

    def test_executor_serves_the_memoized_sweep_without_a_pool(self):
        clear_all_caches()
        serial = tight_epsilon_many(SIZES, DELTA, tol=TOL)
        executor = PlanningExecutor(2)
        try:
            assert np.array_equal(
                executor.tight_epsilon_many(SIZES, DELTA, tol=TOL), serial
            )
            assert executor._pool is None  # cache hit — no pool was spawned
        finally:
            executor.close()

    def test_tight_sample_size_identical(self):
        clear_all_caches()
        serial = [tight_sample_size(0.06, 1e-3), tight_sample_size(0.08, 1e-3)]
        clear_all_caches()
        with PlanningExecutor(2) as executor:
            sharded = executor.tight_sample_size_many([(0.06, 1e-3), (0.08, 1e-3)])
            assert sharded == serial
            assert executor.tight_sample_size(0.06, 1e-3) == serial[0]
        cache = all_caches()["stats.tight_bounds.tight_sample_size"]
        hits, misses = cache.info().hits, cache.info().misses
        assert tight_sample_size(0.08, 1e-3) == serial[1]  # warm parent
        assert (cache.info().hits, cache.info().misses) == (hits + 1, misses)

    def test_serial_executor_never_spawns(self):
        executor = PlanningExecutor("serial")
        result = executor.tight_epsilon_many(SIZES, DELTA, tol=TOL)
        assert executor._pool is None
        assert np.array_equal(result, tight_epsilon_many(SIZES, DELTA, tol=TOL))

    def test_spawn_start_method_parity(self):
        clear_all_caches()
        serial = tight_epsilon_many(SIZES[:4], DELTA, tol=TOL)
        clear_all_caches()
        with PlanningExecutor(2, start_method="spawn") as executor:
            sharded = executor.tight_epsilon_many(SIZES[:4], DELTA, tol=TOL)
        assert np.array_equal(serial, sharded)


PLAN_CASES = [
    ("none", "n > 0.8 +/- 0.08 /\\ d < 0.3 +/- 0.1"),
    ("full", "n > 0.8 +/- 0.08 /\\ d < 0.3 +/- 0.1"),
    ("firstChange", "n - o > 0.02 +/- 0.1 /\\ d < 0.25 +/- 0.1"),
]


class TestEstimatorWorkers:
    @pytest.mark.parametrize("adaptivity,condition", PLAN_CASES)
    def test_plan_identical_to_serial(self, adaptivity, condition):
        clear_all_caches()
        serial = SampleSizeEstimator(use_exact_binomial=True).plan(
            condition, delta=1e-3, adaptivity=adaptivity, steps=4
        )
        clear_all_caches()
        parallel = SampleSizeEstimator(use_exact_binomial=True, workers=2).plan(
            condition, delta=1e-3, adaptivity=adaptivity, steps=4
        )
        assert parallel == serial

    def test_workers_is_not_part_of_the_plan_cache_key(self):
        clear_all_caches()
        serial_plan = SampleSizeEstimator(use_exact_binomial=True).plan(
            "n > 0.8 +/- 0.08", delta=1e-3, steps=2
        )
        parallel_plan = SampleSizeEstimator(use_exact_binomial=True, workers=2).plan(
            "n > 0.8 +/- 0.08", delta=1e-3, steps=2
        )
        assert parallel_plan is serial_plan  # cache hit, no pool engaged

    def test_export_config_round_trips_workers(self):
        estimator = SampleSizeEstimator(workers="auto")
        config = estimator.export_config()
        assert config["workers"] == "auto"
        assert SampleSizeEstimator(**config).workers == "auto"

    def test_invalid_workers_rejected_eagerly(self):
        with pytest.raises(InvalidParameterError):
            SampleSizeEstimator(workers="many")

    def test_env_configures_the_default(self, monkeypatch):
        clear_all_caches()
        serial = SampleSizeEstimator(use_exact_binomial=True).plan(
            "n > 0.75 +/- 0.09", delta=1e-3, steps=2
        )
        clear_all_caches()
        monkeypatch.setenv(WORKERS_ENV, "2")
        parallel = SampleSizeEstimator(use_exact_binomial=True).plan(
            "n > 0.75 +/- 0.09", delta=1e-3, steps=2
        )
        assert parallel == serial


class TestEngineWiring:
    def make_world(self, workers=None):
        from repro.core.script.config import CIScript
        from repro.core.testset import Testset
        from repro.ml.models.simulated import ModelPairSpec, simulate_model_pair

        script = CIScript.from_dict(
            {
                "script": "./test_model.py",
                "condition": "d < 0.25 +/- 0.1 /\\ n - o > 0.05 +/- 0.1",
                "reliability": 0.999,
                "mode": "fp-free",
                "adaptivity": "full",
                "steps": 4,
            }
        )
        plan = SampleSizeEstimator().plan(
            script.condition, delta=script.delta,
            adaptivity=script.adaptivity, steps=script.steps,
        )
        pair = simulate_model_pair(
            ModelPairSpec(old_accuracy=0.80, new_accuracy=0.84, difference=0.1),
            n_examples=plan.pool_size,
            seed=3,
        )
        engine = CIEngine(
            script, Testset(labels=pair.labels), pair.old_model, workers=workers
        )
        return engine, pair

    def test_engine_workers_reach_the_estimator(self):
        engine, _ = self.make_world(workers=2)
        assert engine.planner.estimator.workers == 2

    def test_custom_estimator_is_rebuilt_with_workers(self):
        from repro.core.script.config import CIScript
        from repro.core.testset import Testset
        from repro.ml.models.simulated import ModelPairSpec, simulate_model_pair

        script = CIScript.from_dict(
            {
                "script": "./test_model.py",
                "condition": "n > 0.6 +/- 0.1",
                "reliability": 0.999,
                "mode": "fp-free",
                "adaptivity": "full",
                "steps": 2,
            }
        )
        estimator = SampleSizeEstimator(use_exact_binomial=True)
        plan = estimator.plan(
            script.condition, delta=script.delta,
            adaptivity=script.adaptivity, steps=script.steps,
        )
        pair = simulate_model_pair(
            ModelPairSpec(old_accuracy=0.80, new_accuracy=0.80, difference=0.0),
            n_examples=plan.pool_size,
            seed=3,
        )
        engine = CIEngine(
            script,
            Testset(labels=pair.labels),
            pair.old_model,
            estimator=estimator,
            workers=2,
        )
        assert engine.planner.estimator.workers == 2
        assert engine.planner.estimator.use_exact_binomial is True

    def test_parallel_engine_results_match_serial(self):
        serial_engine, pair = self.make_world()
        parallel_engine, _ = self.make_world(workers=2)
        assert parallel_engine.submit(pair.new_model) == serial_engine.submit(
            pair.new_model
        )


class TestSharedExecutors:
    def test_get_executor_is_shared_per_count(self):
        assert get_executor(2) is get_executor(2)
        assert get_executor(2) is not get_executor(3)
