"""Sharded execution: shard maps, spawn parity, store merge, worker failure."""

import dataclasses
import glob
import os

import numpy as np
import pytest

from repro.analysis.determinism import compare_runs
from repro.bench.registry import get_suite
from repro.bench.runner import run_suite
from repro.shard import (
    ShardedExecutor,
    ShardSpec,
    ShardWorkerError,
    run_sequential,
    union_state_digest,
)

SEEDS = [0, 1]


@pytest.fixture(scope="module")
def tiny_specs():
    return get_suite("tiny")[0].shard_specs(SEEDS)


@pytest.fixture(scope="module")
def oracle(tiny_specs):
    """The in-process sequential oracle every parity test diffs against."""
    return run_sequential(tiny_specs)


def assert_matches_oracle(outcome, oracle):
    identical, _, divergence = compare_runs(outcome, oracle)
    assert identical, divergence


class TestShardMap:
    def test_static_partition_is_pure(self, tiny_specs):
        executor = ShardedExecutor(tiny_specs * 3, workers=2)
        assert executor.shard_map() == {i: i % 2 for i in range(6)}
        # A pure function of (len(specs), workers): rebuilt maps agree.
        assert executor.shard_map() == ShardedExecutor(tiny_specs * 3, workers=2).shard_map()

    def test_effective_workers_never_exceed_shards(self, tiny_specs):
        executor = ShardedExecutor(tiny_specs, workers=8)
        assert executor.effective_workers == len(tiny_specs)
        assert set(executor.shard_map().values()) == set(range(len(tiny_specs)))

    def test_validation(self, tiny_specs):
        with pytest.raises(ValueError, match="at least one shard"):
            ShardedExecutor([])
        with pytest.raises(ValueError, match="at least 1"):
            ShardedExecutor(tiny_specs, workers=0)
        with pytest.raises(ValueError, match="needs checkpoint_dir"):
            ShardedExecutor(tiny_specs, workers=1, resume=True)
        # Kill plans SIGKILL the worker process; the in-process fast path
        # must refuse them instead of killing the parent.
        with pytest.raises(ValueError, match="spawned execution"):
            ShardedExecutor(tiny_specs, workers=1, kill_plans={0: 1})


class TestParity:
    def test_inline_fast_path_matches_oracle(self, tiny_specs, oracle):
        outcome = ShardedExecutor(
            tiny_specs, workers=1, collect_cache_content=True
        ).run()
        assert_matches_oracle(outcome, oracle)
        assert [shard.worker for shard in outcome.shards] == [0, 0]

    def test_spawned_workers_match_oracle(self, tiny_specs, oracle):
        outcome = ShardedExecutor(
            tiny_specs, workers=2, collect_cache_content=True
        ).run()
        assert_matches_oracle(outcome, oracle)
        assert outcome.cache_digest == oracle.cache_digest
        # Placement bookkeeping: the map, the shard records and the
        # per-worker rollup all tell the same story.
        assert outcome.shard_map == {0: 0, 1: 1}
        assert [shard.worker for shard in outcome.shards] == [0, 1]
        assert [entry["shards"] for entry in outcome.per_worker] == [1, 1]
        # Per-seed counters are exact (each shard is its own single-seed
        # campaign), so campaign-wide sums match the oracle's too.
        assert outcome.engine_calls == oracle.engine_calls
        assert outcome.cache_hits == oracle.cache_hits

    @pytest.mark.parametrize("user_setting", [None, "3"], ids=["unset", "user-set"])
    def test_spawned_workers_pin_blas_threads(self, tiny_specs, monkeypatch, user_setting):
        for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            monkeypatch.delenv(name, raising=False)
        if user_setting is not None:
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", user_setting)
        outcome = ShardedExecutor(tiny_specs, workers=2).run()
        limit = max(1, (os.cpu_count() or 1) // 2)
        assert outcome.blas_threads == limit
        # Each worker saw the limit, unless the user had set one.
        seen = user_setting or str(limit)
        assert [entry["blas_threads"] for entry in outcome.per_worker] == [seen, seen]
        # The parent's environment is restored.
        assert os.environ.get("OPENBLAS_NUM_THREADS") == user_setting
        assert "OMP_NUM_THREADS" not in os.environ
        assert "MKL_NUM_THREADS" not in os.environ

    def test_in_process_run_sets_no_blas_limit(self, tiny_specs):
        outcome = ShardedExecutor(tiny_specs, workers=1).run()
        assert outcome.blas_threads is None

    def test_uncollected_cache_content_is_not_comparable(self, tiny_specs, oracle):
        # Without collect_cache_content a sharded outcome has no cache
        # digest; comparing it must fail loudly, not match null == null.
        outcome = ShardedExecutor(tiny_specs, workers=1).run()
        assert outcome.cache_digest is None
        with pytest.raises(ValueError, match="collect_cache_content"):
            compare_runs(outcome, oracle)
        with pytest.raises(ValueError, match="collect_cache_content"):
            compare_runs(outcome, outcome)

    def test_bench_runner_sharded_block(self):
        payload = run_suite("tiny", seeds=SEEDS, execution="sharded", workers=1)
        assert payload["execution"] == "sharded"
        (case,) = payload["cases"]
        shard = case["shard"]
        assert shard["workers"] == 1
        assert sorted(shard["shard_map"]) == [str(seed) for seed in SEEDS]
        assert [entry["worker"] for entry in shard["per_worker"]] == [0]


class TestCacheMerge:
    def test_merge_on_close_equivalence(self, tiny_specs, oracle, tmp_path):
        from repro.search.eval_cache import EvaluationCache

        master = str(tmp_path / "cache.evc")
        cold = ShardedExecutor(
            tiny_specs, workers=2, cache_path=master, collect_cache_content=True
        ).run()
        # Per-shard files are folded into the master and removed.
        assert glob.glob(master + ".shard-*") == []
        assert os.path.exists(master)
        # The merged master's digest equals both the union digest and the
        # sequential oracle's in-process cache digest.
        def _no_engine(rows, corners):
            raise AssertionError("read-back must not evaluate")

        campaign = tiny_specs[0].build()
        dimension = campaign.handle.design_space.dimension
        n_metrics = len(campaign.handle.metric_names)
        campaign.close()
        store = EvaluationCache(
            _no_engine, dimension, n_metrics, persist_path=master
        )
        try:
            assert store.state_digest() == cold.cache_digest
        finally:
            store.close()
        assert cold.cache_digest == oracle.cache_digest

        # Warm rerun: every shard preloads the merged master and recomputes
        # nothing, yet lands on the identical digest.
        warm = ShardedExecutor(
            tiny_specs, workers=2, cache_path=master, collect_cache_content=True
        ).run()
        assert warm.cache_digest == cold.cache_digest
        assert all(
            shard.cache_counters["preloaded_pairs"] > 0 for shard in warm.shards
        )
        assert [shard.engine_calls for shard in warm.shards] == [0, 0]

    def test_union_digest_rejects_conflicting_rows(self):
        corner = ("typical", 1.0, 27.0)
        left = [(corner, [b"key"], np.ones((1, 2)))]
        right = [(corner, [b"key"], np.zeros((1, 2)))]
        with pytest.raises(ValueError, match="two different metric rows"):
            union_state_digest([left, right])


class TestWorkerFailure:
    def test_spawned_crash_names_the_shard(self, tiny_specs, tmp_path):
        bad = [
            dataclasses.replace(spec, topology="no_such_topology")
            for spec in tiny_specs
        ]
        with pytest.raises(ShardWorkerError) as excinfo:
            ShardedExecutor(bad, workers=2).run()
        error = excinfo.value
        assert error.exitcode == 1
        assert (0, bad[0].label, 0) in error.shards
        assert "no_such_topology" in str(error)

    def test_inline_crash_names_the_shard(self, tiny_specs):
        bad = [dataclasses.replace(tiny_specs[0], topology="no_such_topology")]
        with pytest.raises(ShardWorkerError) as excinfo:
            ShardedExecutor(bad, workers=1).run()
        error = excinfo.value
        assert error.worker == 0
        assert error.exitcode is None
        assert (0, bad[0].label, 0) in error.shards

    def test_sigkilled_worker_resumes_bit_identical(
        self, tiny_specs, oracle, tmp_path
    ):
        checkpoint_dir = str(tmp_path / "checkpoints")
        with pytest.raises(ShardWorkerError) as excinfo:
            ShardedExecutor(
                tiny_specs,
                workers=2,
                checkpoint_dir=checkpoint_dir,
                collect_cache_content=True,
                kill_plans={0: 2},
            ).run()
        error = excinfo.value
        # A real SIGKILL, surfaced with the dead worker's shard identity.
        assert error.worker == 0
        assert error.exitcode == -9
        assert (0, tiny_specs[0].label, 0) in error.shards
        resumed = ShardedExecutor(
            tiny_specs,
            workers=2,
            checkpoint_dir=checkpoint_dir,
            resume=True,
            collect_cache_content=True,
        ).run()
        assert_matches_oracle(resumed, oracle)
        # The killed shard restored its round-1 snapshot; the survivor's
        # finished-state snapshot replays as a no-op.
        assert resumed.shards[0].resumed_from_round == 1
