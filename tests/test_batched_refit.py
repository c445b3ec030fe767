"""Batched-across-seeds surrogate refit: bitwise parity and accounting.

``repro.nn.fused.fit_batched`` is the one training kernel: a lone refit is
a one-job dispatch, a campaign round's refits one stacked dispatch.  It
claims *bit-identical* results per seed versus the autodiff ``MLP``/``Adam``
reference trained alone through ``train_regressor``.  These tests hold it
to that at one seed and at several: kernel-level locks compare per-epoch
losses, parameters and Adam moments with ``==``/``array_equal`` (never
``allclose``), and campaign-level locks byte-diff whole trajectories of a
multi-seed campaign against one single-seed campaign per seed (whose
refits are one-job dispatches), through checkpoints, and under the
determinism auditor.
"""

from typing import List, NamedTuple

import numpy as np
import pytest

from repro.analysis.determinism import audit_case, fingerprint_outcome
from repro.bench.registry import BenchCase, get_suite
from repro.nn import (
    Adam,
    BatchedFusedAdam,
    BatchedFusedMLP,
    FusedAdam,
    FusedFitJob,
    FusedMLP,
    fit_batched,
    fit_job_signature,
    train_regressor,
)
from repro.core.design_space import DesignSpace, Parameter
from repro.resilience import FaultPlan, InjectedFault, inject
from repro.search import Spec, Specification, TrustRegionConfig, TrustRegionSearch
from repro.search.progressive import ProgressiveConfig


def make_model(seed, in_features=6, hidden=(24, 24), out_features=3, **kwargs):
    rng = np.random.default_rng(seed)
    model = FusedMLP(in_features, hidden, out_features, rng=rng, **kwargs)
    return model, FusedAdam(model, lr=3e-3)


def make_data(seed, count, in_features=6, out_features=3):
    rng = np.random.default_rng(100 + seed)
    inputs = rng.normal(size=(count, in_features))
    targets = rng.normal(size=(count, out_features))
    return inputs, targets


def make_job(seed, count, epochs=5, batch_size=16, **model_kwargs):
    """One (model, adam, data, rng) training job keyed by ``seed``.

    Called again with the same seed it produces bit-identical twins, so
    one copy can train through ``fit_batched`` and another through the
    autodiff reference.
    """
    model, adam = make_model(seed, **model_kwargs)
    inputs, targets = make_data(
        seed, count, model.in_features, model.out_features
    )
    return FusedFitJob(
        model=model,
        adam=adam,
        inputs=inputs,
        targets=targets,
        epochs=epochs,
        batch_size=batch_size,
        rng=np.random.default_rng(1000 + seed),
    )


def flatten(arrays) -> np.ndarray:
    return np.concatenate([np.ravel(array) for array in arrays])


class ReferenceRun(NamedTuple):
    """One job trained by the autodiff reference, flattened to the fused layout."""

    losses: List[float]
    theta: np.ndarray
    m: np.ndarray
    v: np.ndarray
    t: int


def run_reference(jobs):
    """The oracle: each job trained alone by the autodiff ``MLP``/``Adam``.

    Each job's fresh fused model is copied into an autodiff twin with a
    fresh ``Adam`` (same weights, hyper-parameters, data and shuffle
    stream), which ``train_regressor`` then trains through the Tensor graph.
    """
    runs = []
    for job in jobs:
        module = job.model.to_module()
        adam = Adam(
            module.parameters(),
            lr=job.adam.lr,
            betas=(job.adam.beta1, job.adam.beta2),
            eps=job.adam.eps,
            weight_decay=job.adam.weight_decay,
        )
        history = train_regressor(
            module, job.inputs, job.targets, epochs=job.epochs,
            batch_size=job.batch_size, optimizer=adam, rng=job.rng,
        )
        state = adam.state_dict()
        runs.append(
            ReferenceRun(
                history.losses,
                flatten(p.data for p in module.parameters()),
                flatten(state["m"]),
                flatten(state["v"]),
                state["t"],
            )
        )
    return runs


def assert_matches_reference(jobs, losses, reference):
    """Per seed: losses, weights and Adam m/v/t equal the reference's bits."""
    assert len(jobs) == len(losses) == len(reference)
    for job, job_losses, run in zip(jobs, losses, reference):
        assert job_losses == run.losses  # exact float equality
        np.testing.assert_array_equal(job.model.theta, run.theta)
        np.testing.assert_array_equal(job.adam._m, run.m)
        np.testing.assert_array_equal(job.adam._v, run.v)
        assert job.adam._t == run.t


def check_parity(specs):
    """The stacked kernel at n=len(specs) and at n=1 equals the reference.

    Builds three twin job sets from ``specs``: one trains as a single
    ``fit_batched`` call, one as a one-job call per spec, one through the
    autodiff reference.
    """
    def build():
        return [make_job(*spec[:2], **spec[2]) for spec in specs]

    stacked_jobs, lone_jobs, reference_jobs = build(), build(), build()
    reference = run_reference(reference_jobs)
    assert_matches_reference(stacked_jobs, fit_batched(stacked_jobs), reference)
    lone_losses = [fit_batched([job])[0] for job in lone_jobs]
    assert_matches_reference(lone_jobs, lone_losses, reference)


class TestKernelParity:
    """fit_batched, stacked and one job at a time, vs the autodiff reference."""

    def test_uniform_geometry(self):
        check_parity([(seed, 48, {}) for seed in range(4)])

    def test_ragged_counts_and_epochs_bucket(self):
        # Three distinct (rows, batch_size, epochs) buckets in one call.
        check_parity(
            [
                (0, 48, {"epochs": 5}),
                (1, 48, {"epochs": 5}),
                (2, 31, {"epochs": 5}),
                (3, 48, {"epochs": 9}),
            ]
        )

    def test_single_job_degenerates_cleanly(self):
        check_parity([(7, 40, {})])

    def test_zero_epoch_job_is_skipped(self):
        batched_jobs = [make_job(0, 48), make_job(1, 48, epochs=0)]
        before = batched_jobs[1].model.theta.copy()
        losses = fit_batched(batched_jobs)
        assert losses[1] == []
        np.testing.assert_array_equal(batched_jobs[1].model.theta, before)
        assert batched_jobs[1].adam._t == 0
        # ... and the trained sibling still matches the reference.
        reference = run_reference([make_job(0, 48)])
        assert_matches_reference(batched_jobs[:1], losses[:1], reference)
        # A lone zero-epoch job is skipped the same way.
        lone = make_job(2, 48, epochs=0)
        assert fit_batched([lone]) == [[]]
        assert lone.adam._t == 0

    def test_mixed_batch_sizes(self):
        check_parity([(0, 48, {"batch_size": 16}), (1, 48, {"batch_size": 11})])

    def test_remainder_one_window(self):
        # 65 rows at batch 64: the last window is a single row (gemv path).
        check_parity([(0, 65, {"batch_size": 64}), (1, 65, {"batch_size": 64})])

    def test_single_row_dataset(self):
        check_parity([(0, 1, {"batch_size": 4}), (1, 1, {"batch_size": 4})])

    def test_relu_and_sigmoid_activations(self):
        kwargs = {"activation": "relu", "output_activation": "sigmoid"}
        check_parity([(0, 32, kwargs), (1, 32, kwargs)])

    def test_campaign_like_geometry(self):
        # The shape the trust region actually refits: batch 64, epochs 25.
        check_parity(
            [(seed, 70, {"batch_size": 64, "epochs": 25}) for seed in range(3)]
        )

    def test_empty_job_list(self):
        assert fit_batched([]) == []

    def test_mixed_signature_rejected(self):
        small = make_job(0, 16)
        wide = make_job(1, 16, in_features=7)
        assert fit_job_signature(small) != fit_job_signature(wide)
        with pytest.raises(ValueError, match="fit_job_signature"):
            fit_batched([small, wide])

    def test_bad_geometry_rejected(self):
        job = make_job(0, 16)
        job.targets = job.targets[:-1]
        with pytest.raises(ValueError, match="rows"):
            fit_batched([job])
        bad = make_job(1, 16)
        bad.batch_size = 0
        with pytest.raises(ValueError, match="batch_size"):
            fit_batched([bad])

    @pytest.mark.parametrize("n_jobs", [1, 2])
    @pytest.mark.parametrize(
        "array, width",
        [("targets", 1), ("targets", 5), ("inputs", 5), ("inputs", 7)],
    )
    def test_feature_width_mismatch_rejected(self, array, width, n_jobs):
        # The model is 6-in/4-out; a wrong width in the last job must be
        # named, not surface as an opaque numpy error mid-dispatch.
        jobs = [make_job(seed, 16, out_features=4) for seed in range(n_jobs)]
        data = np.random.default_rng(5).normal(size=(16, width))
        setattr(jobs[-1], array, data)
        expected = 6 if array == "inputs" else 4
        with pytest.raises(
            ValueError,
            match=rf"job {n_jobs - 1} {array} have {width} columns, "
            rf"the model expects {expected}",
        ):
            fit_batched(jobs)


class TestGatherScatter:
    def test_round_trip_preserves_bits(self):
        models = [make_model(seed)[0] for seed in range(3)]
        originals = [model.theta.copy() for model in models]
        stacked = BatchedFusedMLP(models[0], 3)
        stacked.gather(models)
        stacked.scatter(models)
        for model, original in zip(models, originals):
            np.testing.assert_array_equal(model.theta, original)

    def test_gather_validates_count_and_architecture(self):
        model, _ = make_model(0)
        stacked = BatchedFusedMLP(model, 2)
        with pytest.raises(ValueError, match="expected 2 models"):
            stacked.gather([model])
        other, _ = make_model(1, hidden=(8,))
        with pytest.raises(ValueError, match="architecture"):
            stacked.gather([model, other])

    def test_adam_round_trip_preserves_moments_and_step(self):
        # Different epoch counts: the seeds end at different step counts.
        jobs = [make_job(seed, 24, epochs=3 + seed) for seed in range(2)]
        fit_batched(jobs)  # advance the moments past zero
        assert jobs[0].adam._t != jobs[1].adam._t
        stacked = BatchedFusedMLP(jobs[0].model, 2)
        stacked.gather([job.model for job in jobs])
        adam = BatchedFusedAdam(stacked, lr=jobs[0].adam.lr)
        adam.gather([job.adam for job in jobs])
        snapshots = [
            (job.adam._m.copy(), job.adam._v.copy(), job.adam._t) for job in jobs
        ]
        adam.scatter([job.adam for job in jobs])
        for job, (m, v, t) in zip(jobs, snapshots):
            np.testing.assert_array_equal(job.adam._m, m)
            np.testing.assert_array_equal(job.adam._v, v)
            assert job.adam._t == t

    def test_bad_seed_count_rejected(self):
        model, _ = make_model(0)
        with pytest.raises(ValueError, match="n_seeds"):
            BatchedFusedMLP(model, 0)


#: Campaign workloads hard enough that the refit loop actually runs (the
#: Monte-Carlo seed does not solve them), one per topology — the
#: trajectory lock is vacuous on a case that never refits.
CAMPAIGN_CASES = [
    BenchCase(topology, "nominal", "hardest", max_evaluations=120, max_phases=1)
    for topology in ("two_stage_opamp", "ota_5t", "folded_cascode", "telescopic")
]


#: Per-seed counters that depend on which seeds share the evaluation cache,
#: not on the trajectory: a seed alone computes pairs a co-scheduled seed
#: would have cached for it.
_SHARED_CACHE_FIELDS = ("cache_hits", "cache_misses", "engine_calls")


def _campaign_lock_state(case, seeds):
    """Run one case; return (per-seed records, surrogate/Adam state, outcome)."""
    campaign = case.build_campaign(seeds)
    outcome = campaign.run()
    fingerprint = fingerprint_outcome(outcome, campaign.cache.state_digest(), seeds)
    records = fingerprint["per_seed"]
    for record in records:
        for field in _SHARED_CACHE_FIELDS:
            record.pop(field)
    surrogates = []
    for member in campaign._members:
        optimizer = member.optimizer
        surrogates.append(
            (
                optimizer._surrogate.theta.copy(),
                optimizer._optimizer._m.copy(),
                optimizer._optimizer._v.copy(),
                optimizer._optimizer._t,
                optimizer.refit_count,
            )
        )
    return records, surrogates, outcome


class TestCampaignParity:
    """Multi-seed campaign vs one single-seed campaign per seed, per topology."""

    @pytest.mark.parametrize("case", CAMPAIGN_CASES, ids=lambda c: c.topology)
    def test_trajectory_and_adam_moment_lock(self, case):
        seeds = (0, 1)
        batched_records, batched_state, batched_outcome = _campaign_lock_state(
            case, seeds
        )
        # Two live seeds sharing one round schedule must actually bucket.
        assert batched_outcome.batched_kernel_calls > 0
        for seed, record, batched in zip(seeds, batched_records, batched_state):
            (lone_record,), (lone,), lone_outcome = _campaign_lock_state(case, (seed,))
            # A lone seed's refits never stack: each is a one-job
            # fit_batched dispatch, which batched_kernel_calls excludes.
            assert lone_outcome.batched_kernel_calls == 0
            assert lone_outcome.refit_rounds > 0
            assert record == lone_record
            b_theta, b_m, b_v, b_t, b_refits = batched
            s_theta, s_m, s_v, s_t, s_refits = lone
            np.testing.assert_array_equal(b_theta, s_theta)
            np.testing.assert_array_equal(b_m, s_m)
            np.testing.assert_array_equal(b_v, s_v)
            assert b_t == s_t
            assert b_refits == s_refits and b_refits > 0


class TestDeferredRefitMechanics:
    def make_search(self):
        space = DesignSpace([Parameter("x", 0.0, 1.0, grid_points=51)])
        spec = Specification([Spec("a", ">=", 10.0)], ["a"])  # unsatisfiable

        def evaluator(samples):
            return np.atleast_2d(samples)[:, :1] * 0.0

        config = TrustRegionConfig(
            seed=0, initial_samples=10, batch_size=5, max_evaluations=40,
            candidate_pool=32, surrogate_hidden=(8,), initial_epochs=6,
            refit_epochs=3,
        )
        return TrustRegionSearch(evaluator, space, spec, config), evaluator

    def drive_until_pending(self, search, evaluator):
        while search.take_refit_job() is None and not search.is_done:
            rows = search.ask()
            search.tell(rows, evaluator(rows))
            if search._pending_refit_epochs is not None:
                return
        pytest.fail("search never deferred a refit")

    def test_snapshot_with_pending_refit_rejected(self):
        search, evaluator = self.make_search()
        search.set_refit_deferred(True)
        self.drive_until_pending(search, evaluator)
        with pytest.raises(RuntimeError, match="deferred refit"):
            search.state_dict()
        job = search.take_refit_job()
        assert isinstance(job, FusedFitJob)
        fit_batched([job])
        search.state_dict()  # flushed: snapshotting is legal again

    def test_take_refit_job_consumes_the_pending_refit(self):
        search, evaluator = self.make_search()
        search.set_refit_deferred(True)
        self.drive_until_pending(search, evaluator)
        assert search.take_refit_job() is not None
        assert search.take_refit_job() is None

    def test_fault_site_fires_in_batched_path(self):
        """The drill's optimizer.refit site must cover the deferred path."""
        search, evaluator = self.make_search()
        search.set_refit_deferred(True)
        self.drive_until_pending(search, evaluator)
        with inject(FaultPlan("optimizer.refit", occurrence=1)):
            with pytest.raises(InjectedFault):
                search.take_refit_job()


class TestCampaignAccounting:
    def test_refit_mode_validated(self):
        # Refits always batch under a campaign; there is no mode to pick.
        with pytest.raises(TypeError, match="refit_mode"):
            ProgressiveConfig(refit_mode="sequential")

    def test_batched_is_the_default(self):
        (case,) = get_suite("drill")
        campaign = case.build_campaign([0, 1])
        assert all(member.optimizer._refit_deferred for member in campaign._members)

    def test_refit_counters_survive_checkpoint_round_trip(self):
        (case,) = get_suite("drill")
        campaign = case.build_campaign([0, 1])
        outcome = campaign.run()
        assert outcome.refit_rounds > 0 and outcome.batched_kernel_calls > 0
        state = campaign.state_dict()
        assert state["refit"] == (
            campaign.refit_rounds,
            campaign.batched_kernel_calls,
        )
        fresh = case.build_campaign([0, 1])
        fresh.load_state_dict(state)
        assert fresh.refit_rounds == campaign.refit_rounds
        assert fresh.batched_kernel_calls == campaign.batched_kernel_calls

    def test_refit_seconds_attributed_to_members(self):
        (case,) = get_suite("drill")
        campaign = case.build_campaign([0, 1])
        campaign.run()
        for member in campaign._members:
            assert member.optimizer.refit_seconds > 0.0


class TestAuditorWithBatchedRefit:
    def test_determinism_double_run_green(self):
        (case,) = get_suite("drill")
        audit = audit_case(case, seeds=(0, 1))
        assert audit.identical, audit.divergence

    def test_checkpoint_resume_parity_green(self):
        (case,) = get_suite("drill")
        audit = audit_case(case, seeds=(0, 1), resume_parity=True)
        assert audit.identical, audit.divergence
