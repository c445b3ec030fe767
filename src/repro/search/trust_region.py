"""Surrogate-assisted trust-region search (Algorithm 1 of the paper).

The agent alternates between

1. *Monte-Carlo exploration* — uniform sampling of the gridded design space
   to seed the dataset and to escape when the trust region goes stale;
2. *surrogate refit* — an on-the-fly MLP (the "SPICE approximator" of
   Eq. 3) incrementally refit on all evaluated sizings, keeping the Adam
   moments across refits so each iteration is a cheap warm-started pass;
3. *trust-region proposal* — a candidate pool sampled inside the L-infinity
   ball of Eq. (5) around the incumbent, ranked by the surrogate's predicted
   constraint-satisfaction score, with only the top few candidates sent to
   the (expensive) true evaluator;
4. *radius adaptation* — the trust region expands after an improving step
   and shrinks otherwise, in the classic trust-region fashion.

Since the ask/tell redesign the algorithm is expressed on the
:class:`~repro.search.optimizer.Optimizer` protocol: :meth:`ask` runs the
proposal side (Monte-Carlo seeding, trust-region sampling, surrogate
ranking, grid snapping, dedup, budget clamping) and :meth:`tell` the update
side (dataset append, surrogate refit with persistent Adam moments, radius
adaptation).  ``run()`` is the thin self-driving loop inherited from
:class:`~repro.search.optimizer.DatasetOptimizer`; evaluation ownership can
equally live outside, in a :class:`~repro.search.campaign.Campaign`.  The
split is **bit-identical** to the historical monolithic loop — same RNG
draw order, same refit schedule, same trajectories — and is locked by the
parity tests against the pre-refactor oracle.

Hot-path notes (this is the inner loop of every benchmark case): the
evaluated-point dataset (amortized-doubling buffers, vectorized void-view
dedup, incremental incumbent) lives in the shared
:class:`~repro.search.optimizer.DatasetOptimizer` base; candidate ranking
uses ``np.argpartition`` to keep ranking cost O(pool); the surrogate refit
runs on the fused NumPy kernel (:mod:`repro.nn.fused`), which is
step-for-step bit-identical to the autodiff reference implementation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from repro.core.design_space import DesignSpace
from repro.obs import profiled
from repro.resilience.faults import fault_point, register_fault_site
from repro.nn.fused import FusedAdam, FusedFitJob, FusedMLP, fit_batched
from repro.nn.modules import MLP
from repro.nn.scalers import StandardScaler
from repro.analysis.contracts import contract
from repro.search.optimizer import (
    FEASIBLE_TOL,
    BatchEvaluator,
    DatasetOptimizer,
    IterationRecord,
    SearchResult,
    register_optimizer,
    tell_precondition,
)
from repro.search.spec import Specification

__all__ = [
    "BatchEvaluator",
    "IterationRecord",
    "SearchResult",
    "TrustRegionConfig",
    "TrustRegionSearch",
]

#: Kill-and-resume drill site: a crash inside a surrogate refit loses the
#: half-updated Adam moments, which resume must reconstruct exactly.
SITE_REFIT = register_fault_site("optimizer.refit")


@dataclass
class TrustRegionConfig:
    """Hyper-parameters of Algorithm 1 (and the shared optimizer knobs).

    The baseline optimizers (:class:`~repro.search.optimizer.RandomSearch`,
    :class:`~repro.search.optimizer.CrossEntropySearch`) reuse the common
    subset — ``seed``, ``initial_samples``, ``batch_size``,
    ``max_evaluations`` — so one config type drives any registered
    optimizer.
    """

    initial_samples: int = 48
    batch_size: int = 8
    candidate_pool: int = 512
    max_evaluations: int = 400
    initial_radius: float = 0.25
    min_radius: float = 0.02
    max_radius: float = 0.5
    expand: float = 1.6
    shrink: float = 0.5
    surrogate_hidden: Sequence[int] = (48, 48)
    initial_epochs: int = 120
    refit_epochs: int = 25
    learning_rate: float = 3e-3
    seed: int = 0
    #: Minibatch size of the surrogate refits.  The refit cost is dominated
    #: by per-step dispatch overhead (the matrices are tiny), so fewer,
    #: larger batches are strictly cheaper; 64 was chosen by measuring the
    #: smoke suite — identical success rates and evaluations-to-feasible
    #: within noise of 32, at roughly half the refit wall time.
    surrogate_batch_size: int = 64

    def __post_init__(self) -> None:
        for name in ("initial_samples", "batch_size", "candidate_pool", "max_evaluations"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")


class TrustRegionSearch(DatasetOptimizer):
    """Algorithm 1: surrogate-assisted trust-region CSP search.

    Parameters
    ----------
    evaluator:
        Batch evaluator mapping ``(count, dim)`` sizings to metrics, for
        standalone ``run()`` use; ``None`` when a driver (e.g. a
        :class:`~repro.search.campaign.Campaign`) owns evaluation and
        drives the optimizer through ``ask``/``tell``.
    design_space:
        The gridded CSP domain.
    specification:
        The constraints to satisfy; its ``metric_names`` must match the
        evaluator's output columns.
    config:
        Hyper-parameters; the RNG seed makes runs reproducible.
    initial_points:
        Optional extra sizings (natural units) evaluated up-front — used by
        the progressive PVT loop to warm-start later phases from the best
        sizing of an earlier phase.
    """

    def __init__(
        self,
        evaluator: Optional[BatchEvaluator],
        design_space: DesignSpace,
        specification: Specification,
        config: Optional[TrustRegionConfig] = None,
        initial_points: Optional[np.ndarray] = None,
    ) -> None:
        super().__init__(
            evaluator,
            design_space,
            specification,
            config=config or TrustRegionConfig(),
            initial_points=initial_points,
        )
        # Ask/tell phase tracking: the first ask is the Monte-Carlo seed
        # stage, the first tell processes it (initial surrogate fit).
        self._seeded = False
        self._iterating = False
        self._radius = self.config.initial_radius
        # Surrogate state persists across refits (warm-started Adam).
        self._surrogate: Optional[FusedMLP] = None
        self._optimizer: Optional[FusedAdam] = None
        self._output_scaler: Optional[StandardScaler] = None
        # Batched-refit deferral (always on under a Campaign): when set,
        # tell() queues the refit instead of training, and the driver pops
        # it via take_refit_job() at the end of the round.
        self._refit_deferred = False
        self._pending_refit_epochs: Optional[int] = None

    # ------------------------------------------------------------------
    def set_refit_deferred(self, deferred: bool) -> None:
        """Queue refits for a round-level batched dispatch instead of
        training inline.

        Deferral cannot shift a trajectory: the refit is the only RNG
        consumer inside ``tell`` and the next RNG use is the next ``ask``,
        which the campaign only reaches after flushing the queued refits —
        so the draw order is exactly the sequential one.
        """
        self._refit_deferred = bool(deferred)

    def take_refit_job(self) -> Optional[FusedFitJob]:
        """Pop this round's queued refit as a fit job, or ``None``.

        Runs the refit bookkeeping (fault site, refit counter, lazy
        surrogate build) at pop time.  The inline refit pops its own job
        here too, so kill-and-resume drills cover both paths with one
        sequence.
        """
        if self._pending_refit_epochs is None:
            return None
        epochs = self._pending_refit_epochs
        self._pending_refit_epochs = None
        fault_point(SITE_REFIT)
        self.refit_count += 1
        metrics = self._M[: self._count]
        self._ensure_surrogate(metrics)
        return FusedFitJob(
            model=self._surrogate,
            adam=self._optimizer,
            inputs=self._U[: self._count],
            targets=self._output_scaler.transform(metrics),
            epochs=epochs,
            batch_size=self.config.surrogate_batch_size,
            rng=self.rng,
        )

    def _refit_surrogate(self, epochs: int) -> None:
        self._pending_refit_epochs = epochs
        if self._refit_deferred:
            return
        job = self.take_refit_job()
        with profiled("trust_region.refit", epochs=epochs, rows=self._count) as timer:
            fit_batched([job])
        self.refit_seconds += timer.seconds

    def _build_surrogate(self) -> None:
        """The surrogate and a fresh Adam, initialized from the derived seed."""
        template = MLP(
            in_features=self.design_space.dimension,
            hidden=tuple(self.config.surrogate_hidden),
            out_features=len(self.specification.metric_names),
            rng=np.random.default_rng(self.config.seed + 1),
        )
        self._surrogate = FusedMLP.from_module(template)
        self._optimizer = FusedAdam(self._surrogate, lr=self.config.learning_rate)

    def _ensure_surrogate(self, metrics: np.ndarray) -> None:
        """Lazily build the surrogate, its optimizer and the output scaler."""
        if self._surrogate is not None:
            return
        self._build_surrogate()
        # The output scaler is fitted once on the Monte-Carlo seed and
        # then frozen: retargeting it every refit would silently shift
        # the regression problem under the persistent Adam moments.
        self._output_scaler = StandardScaler().fit(metrics)

    # -- checkpoint/resume ---------------------------------------------
    def state_dict(self) -> Dict[str, object]:
        """Dataset state plus the trust-region and surrogate extras.

        The surrogate bundle stores only what the builder cannot
        reconstruct: parameter values, Adam moments/step and the frozen
        output-scaler statistics.  The network *shape* and its
        initialization RNG are derived from the config, so restore rebuilds
        the surrogate exactly the way the first refit does and then
        overwrites the trained values.
        """
        if self._pending_refit_epochs is not None:
            raise RuntimeError(
                "cannot snapshot with a deferred refit still pending; "
                "flush the round's refit jobs first"
            )
        state = super().state_dict()
        state["seeded"] = self._seeded
        state["iterating"] = self._iterating
        state["radius"] = self._radius
        if self._surrogate is None:
            state["surrogate"] = None
        else:
            state["surrogate"] = {
                "params": self._surrogate.state_dict(),
                "adam": self._optimizer.state_dict(),
                "scaler_mean": self._output_scaler.mean_.copy(),
                "scaler_std": self._output_scaler.std_.copy(),
            }
        return state

    def load_state_dict(self, state: Dict[str, object]) -> None:
        super().load_state_dict(state)
        self._seeded = state["seeded"]
        self._iterating = state["iterating"]
        self._radius = state["radius"]
        bundle = state["surrogate"]
        if bundle is None:
            self._surrogate = None
            self._optimizer = None
            self._output_scaler = None
            return
        # The same construction sequence as the first refit, then the
        # checkpointed values land on top.
        self._build_surrogate()
        self._surrogate.load_state_dict(bundle["params"])
        self._optimizer.load_state_dict(bundle["adam"])
        scaler = StandardScaler()
        scaler.mean_ = np.asarray(bundle["scaler_mean"], dtype=np.float64).copy()
        scaler.std_ = np.asarray(bundle["scaler_std"], dtype=np.float64).copy()
        self._output_scaler = scaler

    def _rank_candidates(self, candidates: np.ndarray, keep: int) -> np.ndarray:
        """Indices of the predicted-best ``keep`` candidates, best first.

        The satisfaction score saturates at 0 for every predicted-feasible
        candidate, so inside a converged trust region large parts of the
        pool tie exactly.  Ranking is therefore lexicographic: the clipped
        score first, the *worst* predicted margin as the tie-break — among
        candidates predicted feasible, prefer the one most robustly so
        (maximin), instead of an arbitrary sort-order accident.

        ``np.argpartition`` pre-selects by score so the bulk of the pool is
        never fully sorted; when score ties straddle the partition boundary
        the slice is widened to *all* boundary-tied candidates before the
        tie-break, so the maximin choice is taken over every candidate
        with an equal claim, not an arbitrary partition accident.
        """
        unit = self.design_space.to_unit(candidates)
        predicted = self._surrogate.predict(unit)
        metrics = self._output_scaler.inverse_transform(predicted)
        margins = self.specification.margins(metrics)
        scores = np.minimum(margins, 0.0).sum(axis=1)
        worst = margins.min(axis=1)
        if keep < scores.shape[0]:
            top = np.argpartition(scores, -keep)[-keep:]
            threshold = scores[top].min()
            tied = np.flatnonzero(scores >= threshold)
            if tied.size > keep:
                top = tied
        else:
            top = np.arange(scores.shape[0])
        # lexsort is ascending on the last key first: negate both keys to
        # get score-descending with worst-margin-descending tie-breaks.
        return top[np.lexsort((-worst[top], -scores[top]))][:keep]

    # -- ask/tell protocol ---------------------------------------------
    def ask(self) -> np.ndarray:
        """Next batch: Monte-Carlo seed first, trust-region proposals after.

        Line 1-3 of Algorithm 1 on the first call (uniform exploration,
        warm-start points placed first so they always make the cut); lines
        5-7 afterwards (L-infinity ball around the incumbent, surrogate
        ranking with maximin tie-breaks, duplicates replaced by the next
        best-ranked candidates).  When the whole region is already
        evaluated the ask falls back to Monte-Carlo exploration so the
        budget is never wasted; an empty batch means even that is
        exhausted.
        """
        config = self.config
        if self._done:
            return self._empty_batch()
        if not self._seeded:
            self._seeded = True
            seed_points = self.design_space.sample(self.rng, config.initial_samples)
            if self._initial_points is not None:
                seed_points = np.vstack([self._initial_points, seed_points])
            rows, _ = self._select_new(seed_points, limit=config.max_evaluations)
            if rows.shape[0] == 0:
                self._done = True
            return rows
        center = self._X[self._best]
        candidates = self.design_space.sample_ball(
            self.rng, center, self._radius, config.candidate_pool
        )
        order = self._rank_candidates(candidates, keep=4 * config.batch_size)
        # The final iteration may have less budget left than a full batch;
        # never propose past max_evaluations.
        step = min(config.batch_size, config.max_evaluations - self._count)
        rows, _ = self._select_new(candidates[order], limit=step)
        if rows.shape[0] == 0:
            rows, _ = self._select_new(
                self.design_space.sample(self.rng, config.batch_size), limit=step
            )
            if rows.shape[0] == 0:
                self._done = True
        return rows

    @contract(pre=tell_precondition)
    def tell(self, samples: np.ndarray, metrics: np.ndarray) -> None:
        """Fold evaluated metrics back in: dataset, surrogate, radius.

        The first tell processes the Monte-Carlo seed (initial surrogate
        fit, line 4); later tells run line 8-10 — incremental refit with
        persistent Adam moments, but only when another iteration will
        actually consume it (a refit after the deciding batch would train a
        surrogate nobody queries, and the RNG draws it would consume are
        equally dead, so skipping cannot shift a trajectory) — then the
        trust-region radius update and the history record.
        """
        config = self.config
        samples = np.atleast_2d(np.asarray(samples, dtype=np.float64))
        metrics = np.atleast_2d(np.asarray(metrics, dtype=np.float64))
        previous = self._scores[self._best] if self._best >= 0 else -np.inf
        self._append(samples, self._row_keys(samples), metrics)
        if not self._iterating:
            self._iterating = True
            self._radius = config.initial_radius
            self._update_done()
            # Only worth fitting a surrogate when a search will actually run.
            if self._scores[self._best] < FEASIBLE_TOL:
                self._refit_surrogate(epochs=config.initial_epochs)
            return
        improved = self._scores[self._best] > previous + 1e-12
        self._update_done()
        if not self._done:
            self._refit_surrogate(epochs=config.refit_epochs)
        if improved:
            self._radius = min(self._radius * config.expand, config.max_radius)
        else:
            self._radius = max(self._radius * config.shrink, config.min_radius)
        self._history.append(
            IterationRecord(
                evaluations=self._count,
                radius=self._radius,
                best_score=float(self._scores[self._best]),
                improved=bool(improved),
            )
        )


register_optimizer("trust_region", TrustRegionSearch)
