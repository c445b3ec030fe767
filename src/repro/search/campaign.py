"""The Campaign driver: evaluation ownership for ask/tell optimizers.

The ask/tell redesign splits the search stack into two halves.  Optimizers
(:mod:`repro.search.optimizer`) own the *proposal* side — what to evaluate
next.  The :class:`Campaign` owns the *evaluation* side:

* the true corner evaluator (a topology's
  :meth:`~repro.circuits.topologies.base.SizingProblem.evaluate_corners`,
  or the per-corner loop over the handle's evaluator factory when the
  handle has no stacked evaluator), wrapped in the cross-phase
  :class:`~repro.search.eval_cache.EvaluationCache`;
* budget and wall-time accounting (``eval_seconds``, engine calls, cache
  hits/misses);
* the progressive PVT corner-hardening schedule of Section IV-E, run as a
  per-seed state machine (size at the hardest corner, verify over the full
  grid, fold failing corners back in);
* **multi-seed vectorized execution**: each round the Campaign gathers the
  pending ``ask`` batches of every live seed, groups them by corner set,
  stacks each group into a single :func:`evaluate_corners` tensor pass,
  and scatters the ``tell``\\ s back.  Per ``(row, corner)`` pair the
  stacked evaluator is bit-identical however the pass is batched, so
  trajectories never depend on how many seeds share a round — the
  multi-seed path is bit-exact versus running the seeds sequentially
  (locked by tests) and computes no extra ``(row, corner)`` pairs; it just
  issues far fewer, larger evaluator calls.

:func:`repro.search.progressive.progressive_pvt_search` and
:func:`repro.search.sizing.size_problem` are thin compatibility layers over
a single-seed Campaign and reproduce the pre-redesign behaviour bit-exactly
at a fixed seed/config.
"""

from __future__ import annotations

import os
import pickle
import re
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.analysis.contracts import ArraySpec, contract
from repro.circuits.pvt import PVTCondition, nine_corner_grid, rank_by_severity
from repro.core.design_space import DesignSpace
from repro.nn.fused import FusedFitJob, fit_batched, fit_job_signature
from repro.obs import event, profiled
from repro.resilience.faults import register_fault_site
# save_snapshot is unused here but stays bound: perfbench/layers.py
# patches it by this module's name.
from repro.resilience.snapshot import (  # noqa: F401
    SnapshotError,
    load_snapshot,
    save_snapshot,
)
from repro.resilience.store import Record, StoreError, scan_journal
from repro.search.eval_cache import CornerEvaluator, EvaluationCache
from repro.search.optimizer import Optimizer, SearchResult, get_optimizer
from repro.search.progressive import (
    CornerReport,
    EvaluatorFactory,
    ProgressiveConfig,
    ProgressiveResult,
    _as_progressive_config,
    _looped_corner_evaluator,
    _stacked_specification,
)
from repro.search.spec import Spec, Specification
from repro.search.trust_region import TrustRegionConfig

#: Kill-and-resume drill site: a checkpoint dying here leaves half its
#: commit frame in the journal, so the previous commit is the last intact
#: one (the worst case a torn append permits).
SITE_SNAPSHOT_WRITE = register_fault_site("snapshot.write")

#: Payload format of a journal commit (checked on resume).
COMMIT_FORMAT = "repro.resilience/commit-v1"

#: Cache journal generations in a checkpoint directory: ``cache-NNNNN.journal``.
_JOURNAL_NAME = re.compile(r"cache-(\d+)\.journal")


def _generations(checkpoint_dir: str) -> List[Tuple[int, str]]:
    """``(generation, path)`` of every journal in ``checkpoint_dir``, oldest first."""
    return sorted(
        (int(match.group(1)), os.path.join(checkpoint_dir, match.group(0)))
        for match in map(_JOURNAL_NAME.fullmatch, os.listdir(checkpoint_dir))
        if match is not None
    )


def _next_journal(checkpoint_dir: str) -> str:
    """Path of the next, never used, journal generation in ``checkpoint_dir``."""
    newest = max((gen for gen, _ in _generations(checkpoint_dir)), default=0)
    return os.path.join(checkpoint_dir, f"cache-{newest + 1:05d}.journal")


def _old_layout_error(path: str) -> SnapshotError:
    """The error for a snapshot file of the retired checkpoint layout."""
    try:
        load_snapshot(path)
        detail = "a campaign snapshot"
    except SnapshotError as error:
        detail = str(error)
    return SnapshotError(
        f"{path!r} belongs to the old checkpoint layout ({detail}); "
        "checkpoints are now commits in cache-NNNNN.journal files, "
        "so it cannot be resumed"
    )


def _replay_commits(
    path: str, commits: Sequence[Tuple[int, bytes]], resume_round: Optional[int]
) -> Optional[Tuple[Dict[str, object], int]]:
    """Rebuild the state of one journal commit from the commits before it.

    The target is the commit of ``resume_round``, or the last one when it
    is ``None``; returns ``(state tree, pairs before the commit)``, or
    ``None`` when this journal holds no commit for that round.  The first
    commit of a generation is its base (it carries the identity block);
    each later one logs a member's optimizer dataset (``X``/``M``) from
    row ``rows_from`` on, so a member's dataset is the concatenation of
    its rows since its last full (``rows_from == 0``) log.
    """
    identity = None
    datasets: Dict[int, Tuple[List[np.ndarray], List[np.ndarray], int]] = {}
    for number, (pairs, payload) in enumerate(commits, start=1):
        try:
            document = pickle.loads(payload)
        except Exception as error:
            raise SnapshotError(
                f"commit {number} of {path!r} does not decode: {error}"
            ) from error
        found = document.get("format") if isinstance(document, dict) else None
        if found != COMMIT_FORMAT:
            raise SnapshotError(
                f"commit {number} of {path!r} has format {found!r}, "
                f"expected {COMMIT_FORMAT!r}"
            )
        state = document["state"]
        if number == 1:
            identity = state.get("identity")
            if identity is None:
                raise SnapshotError(f"the first commit of {path!r} is not a base commit")
        for index, member in enumerate(state["members"]):
            optimizer = member["optimizer"]
            if optimizer is None:
                continue
            start = optimizer.pop("rows_from")
            rows_x, rows_m, count = datasets.get(index, ([], [], 0))
            if start == 0:
                rows_x, rows_m, count = [], [], 0
            elif start != count:
                raise SnapshotError(
                    f"commit {number} of {path!r} logs member {index}'s dataset "
                    f"from row {start}, but the commits before it hold {count} rows"
                )
            rows_x.append(optimizer["X"])
            rows_m.append(optimizer["M"])
            datasets[index] = (rows_x, rows_m, count + optimizer["X"].shape[0])
        target = state["rounds"] == resume_round or (
            resume_round is None and number == len(commits)
        )
        if target:
            for index, member in enumerate(state["members"]):
                optimizer = member["optimizer"]
                if optimizer is not None:
                    rows_x, rows_m, _ = datasets[index]
                    # analysis: allow(hot-loop-alloc) resume is cold: once per member
                    optimizer["X"] = np.concatenate(rows_x)
                    # analysis: allow(hot-loop-alloc) resume is cold: once per member
                    optimizer["M"] = np.concatenate(rows_m)
            state["identity"] = identity
            return state, pairs
    return None


@dataclass(frozen=True)
class EvaluationHandle:
    """Everything a :class:`Campaign` needs to evaluate one workload.

    Produced by
    :meth:`~repro.circuits.topologies.base.SizingProblem.evaluation_handle`;
    tests and third-party problems can also build one directly around any
    pair of evaluators honouring the corner-tensor contract.

    Attributes
    ----------
    design_space:
        The gridded CSP domain shared by every optimizer of the campaign.
    metric_names:
        Single-corner metric layout (columns of the evaluator output).
    corner_evaluator:
        Vectorized ``(samples, corners) -> (n_corners, count, n_metrics)``
        stacked evaluator, or ``None`` when only the looped path exists.
    evaluator_factory:
        Per-corner batch-evaluator factory, looped over the corners when
        ``corner_evaluator`` is ``None`` — the reference engine the stacked
        evaluator is locked against.
    """

    design_space: DesignSpace
    metric_names: Tuple[str, ...]
    corner_evaluator: Optional[CornerEvaluator] = None
    evaluator_factory: Optional[EvaluatorFactory] = None


@dataclass
class CampaignResult:
    """Outcome of a (possibly multi-seed) campaign, plus eval accounting."""

    #: One :class:`ProgressiveResult` per seed, in ``seeds`` order.
    results: List[ProgressiveResult]
    seeds: List[int]
    #: Number of lockstep evaluation rounds the campaign ran.
    rounds: int
    #: Invocations of the wrapped corner evaluator (the "fewer, larger
    #: calls" the multi-seed tensor batching is about).
    engine_calls: int
    #: Wall time inside the true corner evaluator, campaign-wide.
    eval_seconds: float
    #: Cross-phase evaluation-cache counters, per ``(row, corner)`` pair.
    cache_hits: int
    cache_misses: int
    #: Round the campaign resumed from (``None`` for an uninterrupted run).
    #: ``rounds`` still counts from the resumed round, matching the oracle.
    resumed_from_round: Optional[int] = None
    #: Lockstep rounds in which at least one surrogate refit ran.
    refit_rounds: int = 0
    #: Stacked multi-seed training dispatches (single-job refits don't
    #: count).
    batched_kernel_calls: int = 0
    #: ``EvaluationCache.state_digest()`` of the finished run's cache, the
    #: content half of :func:`repro.analysis.determinism.fingerprint_outcome`.
    cache_digest: Optional[str] = None

    @property
    def solved_fraction(self) -> float:
        if not self.results:
            return 0.0
        return sum(r.solved_all_corners for r in self.results) / len(self.results)


def _receive_precondition(arguments) -> Optional[str]:
    """Contract: a received metric block must match the member's last request.

    A precondition (not a return check) because ``receive`` consumes
    ``_pending_rows`` while running — the expected shape must be read before
    the call body executes.
    """
    member = arguments["self"]
    block = arguments["block"]
    if member._state == "search":
        if member._pending_rows is None:
            return "receive() without a pending search request"
        expected = (
            len(member.active),
            member._pending_rows.shape[0],
            len(member.metric_names),
        )
    else:
        expected = (len(member.ranked), 1, len(member.metric_names))
    if block.shape != expected:
        return f"metric block shape {block.shape}, expected {expected}"
    return None


class _ProgressiveMember:
    """One seed's progressive corner-hardening search, as a state machine.

    Mirrors the historical sequential loop exactly — phase optimizer at the
    active corner set, full-grid verification of the phase winner, fold the
    worst new failing corner, repeat — but exposes it one evaluation request
    at a time so the Campaign can batch requests across seeds.
    """

    def __init__(
        self,
        seed: int,
        design_space: DesignSpace,
        specs: Sequence[Spec],
        metric_names: Sequence[str],
        ranked: Sequence[PVTCondition],
        trust_config: TrustRegionConfig,
        optimizer_name: str,
        max_phases: int,
    ) -> None:
        self.seed = seed
        self.design_space = design_space
        self.specs = list(specs)
        self.metric_names = list(metric_names)
        self.ranked = list(ranked)
        # Snapshots refer to corners by rank; built once, not per checkpoint.
        self._corner_index = {corner: i for i, corner in enumerate(self.ranked)}
        self.config = (
            replace(trust_config, seed=seed) if trust_config.seed != seed else trust_config
        )
        self.optimizer_name = optimizer_name
        self.optimizer_cls = get_optimizer(optimizer_name)
        self.max_phases = max_phases
        # Per-seed evaluation accounting, attributed by the Campaign: exact
        # cache-counter deltas for this member's own requests, plus its
        # share of any multi-seed stacked pass (see Campaign._run_group).
        self.eval_seconds = 0.0
        self.cache_hits = 0
        self.cache_misses = 0
        self.engine_calls = 0
        self._single_spec = Specification(self.specs, self.metric_names)

        self.active: List[PVTCondition] = [self.ranked[0]]
        self.phase = 0
        self.total_evaluations = 0
        self.phase_results: List = []
        self.corner_reports: List[CornerReport] = []
        self.solved_all = False
        self.finished = False
        self.warm_start: Optional[np.ndarray] = None
        self.best_vector: Optional[np.ndarray] = None
        self._state = "search"
        self._pending_rows: Optional[np.ndarray] = None
        self.optimizer = self._build_optimizer()

    def _build_optimizer(self) -> Optimizer:
        specification = _stacked_specification(
            self.specs, self.metric_names, self.active
        )
        # dataclasses.replace keeps working if the config ever gains
        # non-init or derived fields, where reconstructing from __dict__
        # would silently break.
        phase_config = replace(self.config, seed=self.config.seed + self.phase)
        optimizer = self.optimizer_cls(
            None,
            self.design_space,
            specification,
            config=phase_config,
            initial_points=self.warm_start,
        )
        # The optimizer queues its refits for the campaign's round-level
        # stacked dispatch (a no-op for strategies without a surrogate).
        optimizer.set_refit_deferred(True)
        return optimizer

    def account(
        self, hits: int, misses: int, engine_calls: int, eval_seconds: float
    ) -> None:
        """Fold one evaluation's attributed cache/engine deltas into the seed."""
        self.cache_hits += hits
        self.cache_misses += misses
        self.engine_calls += engine_calls
        self.eval_seconds += eval_seconds

    def request(self) -> Optional[Tuple[np.ndarray, List[PVTCondition]]]:
        """The member's next evaluation request, or ``None`` when finished."""
        while not self.finished:
            if self._state == "search":
                if not self.optimizer.is_done:
                    with profiled(
                        "optimizer.ask",
                        seed=self.seed,
                        phase=self.phase,
                        optimizer=self.optimizer_name,
                    ):
                        rows = self.optimizer.ask()
                    if rows.shape[0]:
                        self._pending_rows = rows
                        return rows, self.active
                    continue  # the ask flipped is_done; fall through next pass
                # Phase over: collect its result, verify over the full grid.
                result = self.optimizer.result()
                self.phase_results.append(result)
                self.total_evaluations += result.evaluations
                self.best_vector = result.best_vector
                self.warm_start = self.best_vector[np.newaxis, :]
                self._state = "verify"
                event(
                    "campaign.verify",
                    seed=self.seed,
                    phase=self.phase,
                    evaluations=result.evaluations,
                )
                return self.best_vector[np.newaxis, :], self.ranked
            raise RuntimeError(f"member in unexpected state {self._state!r}")
        return None

    @contract(args={"block": ArraySpec(None, None, None)}, pre=_receive_precondition)
    def receive(self, block: np.ndarray) -> None:
        """Consume the metric block ``(n_corners, count, n_metrics)`` of the
        member's last request."""
        if self._state == "search":
            # Reorder to the corner-major column layout of the stacked
            # specification — for each sizing row, corner 0's metrics
            # first, then corner 1's, and so on.
            flat = block.transpose(1, 0, 2).reshape(self._pending_rows.shape[0], -1)
            with profiled(
                "optimizer.tell",
                seed=self.seed,
                phase=self.phase,
                rows=int(flat.shape[0]),
            ):
                self.optimizer.tell(self._pending_rows, flat)
            self._pending_rows = None
            return
        # Verification of the phase winner across the full corner grid.
        self.corner_reports = []
        failing: List[PVTCondition] = []
        for corner, metrics in zip(self.ranked, block[:, 0, :]):
            ok = bool(self._single_spec.satisfied(metrics[np.newaxis, :])[0])
            self.corner_reports.append(
                CornerReport(
                    condition=corner,
                    metrics={
                        name: float(v) for name, v in zip(self.metric_names, metrics)
                    },
                    satisfied=ok,
                )
            )
            if not ok:
                failing.append(corner)
        if not failing:
            self.solved_all = True
            self.finished = True
            event("campaign.solved", seed=self.seed, phase=self.phase)
            return
        # Fold the worst *new* failing corner into the active set (frozen
        # dataclass identity, not the rounded display name).
        active_set = set(self.active)
        new_failures = [corner for corner in failing if corner not in active_set]
        if not new_failures:
            # The search itself could not satisfy the active set; more
            # phases would re-run the same problem.
            self.finished = True
            event(
                "campaign.finished",
                seed=self.seed,
                phase=self.phase,
                reason="no-new-failing-corner",
            )
            return
        if self.phase == self.max_phases - 1:
            # No further phase will run, so don't report a corner that was
            # never actually folded into a searched constraint set.
            self.finished = True
            event(
                "campaign.finished",
                seed=self.seed,
                phase=self.phase,
                reason="max-phases",
            )
            return
        self.active = self.active + [new_failures[0]]
        self.phase += 1
        self._state = "search"
        event(
            "campaign.phase",
            seed=self.seed,
            phase=self.phase,
            folded_corner=new_failures[0].name,
            active_corners=len(self.active),
        )
        self.optimizer = self._build_optimizer()

    # -- checkpoint/resume ---------------------------------------------
    def state_dict(self) -> Dict[str, object]:
        """Serialize the member at a round boundary.

        Snapshots are only taken between lockstep rounds, where every live
        member is back in the ``search`` state with no request in flight —
        so there is deliberately no ``_pending_rows`` field here, and
        serializing mid-request is an error, not a silent wrong snapshot.
        Corners serialize as indices into the severity-ranked grid the
        member was built with, which the identity block of the campaign
        snapshot pins.
        """
        if self._pending_rows is not None:
            raise RuntimeError(
                "member state_dict mid-request; snapshots happen at round boundaries"
            )
        corner_index = self._corner_index
        return {
            "seed": self.seed,
            "phase": self.phase,
            "active": [corner_index[corner] for corner in self.active],
            "total_evaluations": self.total_evaluations,
            "phase_results": [result.state_dict() for result in self.phase_results],
            "corner_reports": [
                (corner_index[report.condition], dict(report.metrics), report.satisfied)
                for report in self.corner_reports
            ],
            "solved_all": self.solved_all,
            "finished": self.finished,
            "state": self._state,
            # analysis: allow(hot-loop-alloc) snapshot serialization is cold
            "warm_start": self.warm_start.copy() if self.warm_start is not None else None,
            "best_vector": self.best_vector.copy() if self.best_vector is not None else None,
            "accounting": (
                self.cache_hits,
                self.cache_misses,
                self.engine_calls,
                self.eval_seconds,
            ),
            "optimizer": None if self.finished else self.optimizer.state_dict(),
        }

    def load_state_dict(self, state: Dict[str, object]) -> None:
        if state["seed"] != self.seed:
            raise ValueError(
                f"member state is for seed {state['seed']}, this member is seed {self.seed}"
            )
        self.phase = state["phase"]
        self.active = [self.ranked[index] for index in state["active"]]
        self.total_evaluations = state["total_evaluations"]
        self.phase_results = [
            SearchResult.from_state(result) for result in state["phase_results"]
        ]
        self.corner_reports = [
            CornerReport(
                condition=self.ranked[index],
                metrics=dict(metrics),
                satisfied=satisfied,
            )
            for index, metrics, satisfied in state["corner_reports"]
        ]
        self.solved_all = state["solved_all"]
        self.finished = state["finished"]
        self._state = state["state"]
        self._pending_rows = None
        warm_start = state["warm_start"]
        self.warm_start = (
            np.asarray(warm_start, dtype=np.float64).copy()
            if warm_start is not None
            else None
        )
        best_vector = state["best_vector"]
        self.best_vector = (
            np.asarray(best_vector, dtype=np.float64).copy()
            if best_vector is not None
            else None
        )
        self.cache_hits, self.cache_misses, self.engine_calls, self.eval_seconds = state[
            "accounting"
        ]
        if state["optimizer"] is not None:
            # Rebuilt for the restored phase/warm-start first (the exact
            # construction the interrupted run performed), then the mutable
            # search state lands on top.
            self.optimizer = self._build_optimizer()
            self.optimizer.load_state_dict(state["optimizer"])

    def build_result(self) -> ProgressiveResult:
        return ProgressiveResult(
            best_sizing=self.design_space.to_dict(self.best_vector),
            best_vector=self.best_vector,
            solved_all_corners=self.solved_all,
            evaluations=self.total_evaluations,
            corner_reports=self.corner_reports,
            phase_results=self.phase_results,
            active_corners=self.active,
            eval_seconds=self.eval_seconds,
            cache_hits=self.cache_hits,
            cache_misses=self.cache_misses,
            engine_calls=self.engine_calls,
        )


class Campaign:
    """Drive one or many seeds of a sizing search over shared evaluation.

    Parameters
    ----------
    handle:
        The workload's :class:`EvaluationHandle` (design space, metric
        names, corner evaluators).
    specs:
        Constraints that must hold at every sign-off corner.
    corners:
        Sign-off grid; defaults to :func:`nine_corner_grid`.
    config:
        A :class:`~repro.search.progressive.ProgressiveConfig` (or, legacy
        style, the :class:`TrustRegionConfig` shared by every phase).  Its
        ``optimizer`` field names the registered search strategy.  The
        handle's stacked ``corner_evaluator`` runs when it has one, the
        per-corner loop over its ``evaluator_factory`` otherwise.
    seeds:
        RNG seeds, one independent progressive search each; defaults to the
        config's seed.  All seeds share one :class:`EvaluationCache`, and
        each lockstep round feeds the live seeds' pending batches through
        one stacked evaluator call per distinct corner set.
    cache_path:
        Optional persistent evaluation-cache store: computed pairs are
        appended there and preloaded on construction, so a resumed or
        repeated campaign over the same workload warm-starts across
        processes (see ``EvaluationCache(persist_path=...)``).
    cache_preload:
        Extra store files warm-loaded read-only (no repair, no write
        handle) — how a sharded worker shares the master store while
        appending its own pairs to ``cache_path``.
    """

    def __init__(
        self,
        handle: EvaluationHandle,
        specs: Sequence[Spec],
        corners: Optional[Sequence[PVTCondition]] = None,
        config: Union[TrustRegionConfig, ProgressiveConfig, None] = None,
        seeds: Optional[Sequence[int]] = None,
        cache_path: Optional[str] = None,
        cache_preload: Sequence[str] = (),
    ) -> None:
        self.handle = handle
        self.progressive = _as_progressive_config(config, None)
        if self.progressive.max_phases < 1:
            raise ValueError("max_phases must be at least 1")
        trust = self.progressive.trust_region
        self.corners = list(corners) if corners is not None else nine_corner_grid()
        self.ranked = rank_by_severity(self.corners)
        self.seeds = [int(s) for s in seeds] if seeds is not None else [trust.seed]
        if not self.seeds:
            raise ValueError("a campaign needs at least one seed")
        if handle.corner_evaluator is not None:
            engine = handle.corner_evaluator
        elif handle.evaluator_factory is not None:
            engine = _looped_corner_evaluator(handle.evaluator_factory, self.corners)
        else:
            raise ValueError(
                "the evaluation handle provides neither a corner evaluator "
                "nor a per-corner evaluator factory"
            )
        self.cache = EvaluationCache(
            engine,
            handle.design_space.dimension,
            len(handle.metric_names),
            persist_path=cache_path,
            preload_paths=cache_preload,
        )
        self._members = [
            _ProgressiveMember(
                seed=seed,
                design_space=handle.design_space,
                specs=specs,
                metric_names=handle.metric_names,
                ranked=self.ranked,
                trust_config=trust,
                optimizer_name=self.progressive.optimizer,
                max_phases=self.progressive.max_phases,
            )
            for seed in self.seeds
        ]
        self.rounds = 0
        self.refit_rounds = 0
        self.batched_kernel_calls = 0
        # Per member, ``(optimizer, dataset rows)`` as of the journal
        # generation's last commit (``None`` before its base commit): the
        # next commit logs only the rows that optimizer added since.
        self._logged: Optional[List[Optional[Tuple[Optimizer, int]]]] = None
        # What a checkpoint must match to be loaded here (see state_dict);
        # fixed for the campaign's life, so built once.
        self._identity = {
            "seeds": list(self.seeds),
            "config": repr(self.progressive),
            "dimension": handle.design_space.dimension,
            "metric_names": list(handle.metric_names),
            "corners": [
                (corner.process, corner.voltage_factor, corner.temperature_c)
                for corner in self.ranked
            ],
        }

    def _counters(self) -> Tuple[int, int, int, float]:
        cache = self.cache
        return cache.hits, cache.misses, cache.engine_calls, cache.eval_seconds

    def _evaluate_for(
        self,
        member: _ProgressiveMember,
        rows: np.ndarray,
        corners: List[PVTCondition],
    ) -> np.ndarray:
        """Evaluate one member's own request, attributing the exact deltas.

        Every cache counter moved by this call belongs to ``member`` alone,
        so the attribution is the plain before/after difference — for a
        single-seed campaign this reproduces exactly the accounting the
        historical sequential loop reported.
        """
        hits0, misses0, calls0, seconds0 = self._counters()
        with profiled(
            "campaign.evaluate",
            seed=member.seed,
            phase=member.phase,
            rows=int(rows.shape[0]),
            corners=len(corners),
        ) as timer:
            block = self.cache.evaluate(rows, corners)
            hits, misses, calls, seconds = self._counters()
            timer.annotate(hits=hits - hits0, misses=misses - misses0)
        member.account(hits - hits0, misses - misses0, calls - calls0, seconds - seconds0)
        return block

    def _run_group(
        self,
        grouped: List[Tuple[_ProgressiveMember, np.ndarray, List[PVTCondition]]],
    ) -> None:
        """One stacked tensor pass for members sharing a corner set.

        Attribution of the shared pass: each member's misses are its own
        fresh ``(row, corner)`` pairs, peeked **before** the pass mutates
        the store — the stacked block's fresh rows are exactly the union of
        the members' fresh rows, so the decomposition is exact.  The engine
        wall time splits proportionally to miss share, and the single
        engine call books to every member with fresh pairs (a shared call
        serves several seeds, so per-seed ``engine_calls`` can sum to more
        than the campaign-wide counter).
        """
        cache = self.cache
        corners = grouped[0][2]
        n_corners = len(corners)
        fresh_counts = [
            cache.fresh_row_count(rows, corners) for _, rows, _ in grouped
        ]
        total_fresh = sum(fresh_counts)
        hits0, misses0, calls0, seconds0 = self._counters()
        with profiled(
            "campaign.pass",
            members=len(grouped),
            corners=n_corners,
            seeds=[m.seed for m, _, _ in grouped],
        ) as timer:
            # One stack per round is the whole point — it buys a single
            # large evaluator call.
            # analysis: allow(hot-loop-alloc) intentional per-round stack
            cache.evaluate(np.vstack([rows for _, rows, _ in grouped]), corners)
            hits, misses, calls, seconds = self._counters()
            timer.annotate(hits=hits - hits0, misses=misses - misses0)
        pass_calls = calls - calls0
        pass_seconds = seconds - seconds0
        for (member, rows, _), fresh in zip(grouped, fresh_counts):
            member.account(
                (rows.shape[0] - fresh) * n_corners,
                fresh * n_corners,
                pass_calls if fresh else 0,
                pass_seconds * (fresh / total_fresh) if total_fresh else 0.0,
            )
        # Scatter: per-member re-reads are all cache hits, attributed
        # exactly like lone requests.
        for member, rows, _ in grouped:
            member.receive(self._evaluate_for(member, rows, corners))

    # -- batched surrogate refit ---------------------------------------
    def _flush_refits(self) -> None:
        """Collect and dispatch every member's queued refit for this round.

        Jobs are grouped by :func:`fit_job_signature` (members in different
        phases have different surrogate output widths); each group trains
        through one :func:`fit_batched` dispatch, a lone job at seed count
        1.  Either way the per-seed bits equal the sequential inline refit,
        so deferral is invisible to trajectories — only to the wall clock.
        """
        pending: List[Tuple[_ProgressiveMember, FusedFitJob]] = []
        for member in self._members:
            job = member.optimizer.take_refit_job()
            if job is not None:
                pending.append((member, job))
        if not pending:
            return
        groups: "OrderedDict[tuple, List[Tuple[_ProgressiveMember, FusedFitJob]]]" = (
            OrderedDict()
        )
        for member, job in pending:
            groups.setdefault(fit_job_signature(job), []).append((member, job))
        for grouped in groups.values():
            self._run_refit(grouped)

    def _run_refit(
        self, grouped: List[Tuple[_ProgressiveMember, FusedFitJob]]
    ) -> None:
        """One training dispatch for same-signature refit jobs.

        A lone job is traced and timed like the inline refit
        (``trust_region.refit``); two or more are a stacked dispatch
        (``campaign.refit_batched``), the only kind
        ``batched_kernel_calls`` counts.  The kernel wall time is
        attributed back to the members proportionally to each job's
        training volume (epochs x rows), the refit analogue of the
        eval-side miss-share attribution — so the per-seed
        ``refit_seconds`` still sum to the campaign-wide cost.
        """
        jobs = [job for _, job in grouped]
        rows = [int(job.inputs.shape[0]) for job in jobs]
        if len(jobs) == 1:
            name, tags = "trust_region.refit", {"epochs": jobs[0].epochs, "rows": rows[0]}
        else:
            name, tags = "campaign.refit_batched", {
                "n_seeds": len(jobs),
                "n_params": jobs[0].model.num_parameters,
                "rows": sum(rows),
            }
        with profiled(name, **tags) as timer:
            fit_batched(jobs)
        self.batched_kernel_calls += int(len(jobs) > 1)
        weights = [job.epochs * count for job, count in zip(jobs, rows)]
        total = sum(weights)
        for (member, _), weight in zip(grouped, weights):
            member.optimizer.refit_seconds += (
                timer.seconds * (weight / total) if total else 0.0
            )

    # -- checkpoint/resume ---------------------------------------------
    def state_dict(self) -> Dict[str, object]:
        """The campaign at a round boundary: identity, members, cache.

        The cache contributes only its counters; its content is the
        journal's pairs before the checkpoint's commit (see
        :meth:`EvaluationCache.state_dict`).

        The identity block pins everything the checkpoint's index-based
        corner references and optimizer states assume about the campaign
        it is loaded into — seeds, optimizer, corner grid, workload shape,
        and the full resolved config (via its dataclass ``repr``, which
        covers every hyper-parameter).  :meth:`load_state_dict` refuses a
        mismatch instead of resuming a silently different search.
        """
        return {
            "identity": self._identity,
            "rounds": self.rounds,
            "refit": (self.refit_rounds, self.batched_kernel_calls),
            "members": [member.state_dict() for member in self._members],
            "cache": self.cache.state_dict(),
        }

    def load_state_dict(
        self, state: Dict[str, object], records: Sequence[Record] = ()
    ) -> None:
        """Restore :meth:`state_dict` output; ``records`` are the cache
        journal's pairs before the checkpoint's commit."""
        identity = state["identity"]
        expected = self._identity
        for field in expected:
            if identity.get(field) != expected[field]:
                raise ValueError(
                    f"checkpoint identity mismatch on {field!r}: checkpoint has "
                    f"{identity.get(field)!r}, this campaign has {expected[field]!r}"
                )
        self.rounds = state["rounds"]
        self.refit_rounds, self.batched_kernel_calls = state.get("refit", (0, 0))
        for member, member_state in zip(self._members, state["members"]):
            member.load_state_dict(member_state)
        self.cache.load_state_dict(state["cache"], records)

    def close(self) -> None:
        """Release the persistent cache store and the journal, if any."""
        self.cache.close()

    def _restore(self, resume_from: str, resume_round: Optional[int]) -> Optional[str]:
        """Load the checkpoint ``resume_from`` names; returns its journal.

        ``resume_from`` is a checkpoint directory.  Its journal generations
        are scanned newest first, each up to its first torn or damaged
        frame, and the first that holds the wanted commit — the one of
        ``resume_round``, or the last complete one — is replayed.  A
        directory with no complete commit returns ``None`` (cold start)
        unless a round was asked for.
        """
        if not os.path.isdir(resume_from):
            if not os.path.exists(resume_from):
                raise FileNotFoundError(
                    f"checkpoint directory {resume_from!r} does not exist"
                )
            raise _old_layout_error(resume_from)
        for name in sorted(os.listdir(resume_from)):
            if name.endswith(".snapshot"):
                raise _old_layout_error(os.path.join(resume_from, name))
        dimension = self.handle.design_space.dimension
        scanned = []
        for _, path in reversed(_generations(resume_from)):
            try:
                records, commits = scan_journal(path, dimension, self.cache.n_metrics)
            except StoreError as error:
                raise SnapshotError(
                    f"cache journal {path!r} is unusable: {error}"
                ) from error
            scanned.append(f"{os.path.basename(path)} ({len(commits)} commits)")
            found = _replay_commits(path, commits, resume_round) if commits else None
            if found is not None:
                state, pairs = found
                self.load_state_dict(state, records[:pairs])
                return path
        if resume_round is None:
            return None
        raise SnapshotError(
            f"round {resume_round} has no complete commit in {resume_from!r}; "
            f"scanned: {', '.join(scanned) or 'no cache journal'}"
        )

    def _commit_payload(self) -> Tuple[bytes, List[Optional[Tuple[Optimizer, int]]]]:
        """The checkpoint's commit: :meth:`state_dict`, delta-encoded.

        A generation's base commit carries the identity block and every
        member's full optimizer dataset.  Later commits drop the identity,
        and a member whose optimizer is the one logged at the previous
        commit logs only the ``X``/``M`` rows added since (``rows_from``
        marks where they start); a new optimizer (a new phase) logs its
        full dataset.  Returns the payload and the new logged positions.
        """
        state = self.state_dict()
        previous = self._logged
        if previous is None:
            previous = [None] * len(self._members)
        else:
            del state["identity"]
        logged: List[Optional[Tuple[Optimizer, int]]] = []
        for member, member_state, last in zip(self._members, state["members"], previous):
            optimizer = member_state["optimizer"]
            if optimizer is None:
                logged.append(None)
                continue
            start = last[1] if last is not None and last[0] is member.optimizer else 0
            rows = optimizer["X"].shape[0]
            optimizer["X"] = optimizer["X"][start:]
            optimizer["M"] = optimizer["M"][start:]
            optimizer["rows_from"] = start
            logged.append((member.optimizer, rows))
        payload = pickle.dumps(
            {"format": COMMIT_FORMAT, "state": state}, protocol=pickle.HIGHEST_PROTOCOL
        )
        return payload, logged

    def _write_checkpoint(self, checkpoint_dir: str) -> None:
        """Append this round's commit to the journal: one write, one fsync."""
        with profiled("resilience.checkpoint", round=self.rounds) as timer:
            payload, logged = self._commit_payload()
            size = self.cache.commit(payload, SITE_SNAPSHOT_WRITE)
            self._logged = logged
            timer.annotate(commit_bytes=size, journal_records=self.cache.journal_records)
        event("resilience.checkpoint", round=self.rounds, dir=checkpoint_dir)

    def run(
        self,
        checkpoint_dir: Optional[str] = None,
        resume_from: Optional[str] = None,
        checkpoint_every: int = 1,
        resume_round: Optional[int] = None,
    ) -> CampaignResult:
        """Run all seeds to completion in lockstep evaluation rounds.

        Parameters
        ----------
        checkpoint_dir:
            When given, the run starts a new cache journal generation
            there, ``<dir>/cache-NNNNN.journal``, seeded with the cache's
            content; every computed pair is then appended to it, and each
            eligible round ends with a checkpoint: one commit record (the
            campaign state, with only the optimizer-dataset rows added
            since the previous commit) appended after the round's pairs
            and made durable, together with them, by one fsync.  The
            directory holds nothing else.  Journals are never truncated or
            reused, so every commit in the directory stays resumable.
        resume_from:
            A checkpoint directory.  The campaign state of its newest
            complete commit (see ``resume_round``) is restored before the
            first round; the continued run is bit-identical to the
            uninterrupted one — trajectories, best vectors, cache content
            *and* cache accounting (locked by the determinism auditor's
            resume-parity mode and the resilience drill).  A directory
            without a complete commit (the run died before its first
            checkpoint) cold-starts.  An unusable journal, or a directory
            of the old layout (``*.snapshot`` files), raises
            :class:`~repro.resilience.snapshot.SnapshotError`.
        checkpoint_every:
            Checkpoint cadence in rounds (default: every round).
        resume_round:
            Resume from the commit of this round instead of the newest
            (used by resume-parity audits); a round without a complete
            commit in ``resume_from`` raises ``SnapshotError``.
        """
        if checkpoint_every < 1:
            raise ValueError("checkpoint_every must be at least 1")
        if resume_round is not None and resume_from is None:
            raise ValueError("resume_round needs resume_from")
        if checkpoint_dir is not None:
            # Created before the first round, not at the first write: a run
            # that dies before any checkpoint leaves a directory without a
            # commit, which resume_from correctly reads as "cold-start"
            # instead of mistaking it for a mistyped path.
            os.makedirs(checkpoint_dir, exist_ok=True)
        resumed_from_round: Optional[int] = None
        if resume_from is not None:
            journal = self._restore(resume_from, resume_round)
            if journal is not None:
                resumed_from_round = self.rounds
                event("resilience.resume", round=self.rounds, journal=journal)
        if checkpoint_dir is not None:
            self.cache.start_journal(_next_journal(checkpoint_dir))
            self._logged = None
        cache = self.cache
        with profiled(
            "campaign.run",
            seeds=len(self._members),
            optimizer=self.progressive.optimizer,
            corners=len(self.ranked),
        ):
            while True:
                requests: List[Tuple[_ProgressiveMember, np.ndarray, List[PVTCondition]]] = []
                for member in self._members:
                    pending = member.request()
                    if pending is not None:
                        requests.append((member, pending[0], pending[1]))
                if not requests:
                    break
                self.rounds += 1
                # Requests are grouped by their exact corner set, and each
                # group rides one stacked tensor pass.  Grouping (rather than
                # evaluating everything at the union of all corner sets) keeps
                # the computed (row, corner) pairs exactly what the members
                # asked for — a seed verifying over the full grid never drags
                # other seeds' search batches through corners they don't need.
                # Per (row, corner) the stacked engine is bit-identical however
                # the pass is batched, so the scatter serves exact values.
                groups: "OrderedDict[Tuple[PVTCondition, ...], List[Tuple[_ProgressiveMember, np.ndarray, List[PVTCondition]]]]" = (
                    OrderedDict()
                )
                for request in requests:
                    groups.setdefault(tuple(request[2]), []).append(request)
                # Refit-round detection must survive phase transitions: a
                # receive() may rebuild a member's optimizer, so keep a
                # reference to the object whose counter we snapshotted.
                refits_before = [
                    (member.optimizer, member.optimizer.refit_count)
                    for member in self._members
                ]
                with profiled(
                    "campaign.round",
                    round=self.rounds,
                    requests=len(requests),
                    groups=len(groups),
                ):
                    for grouped in groups.values():
                        if len(grouped) == 1:
                            # Lone request: evaluate directly, which keeps the
                            # call sequence (and so the cache accounting)
                            # identical to the historical sequential loop.
                            member, rows, corners = grouped[0]
                            member.receive(self._evaluate_for(member, rows, corners))
                            continue
                        self._run_group(grouped)
                    # End of round: train every queued refit before the snapshot below, so checkpoints never carry
                    # a half-deferred surrogate.
                    self._flush_refits()
                if any(
                    optimizer.refit_count > count for optimizer, count in refits_before
                ):
                    self.refit_rounds += 1
                # Round boundary: every receive() has landed, so no member
                # has a request in flight — the one state a checkpoint is
                # allowed to capture.
                if checkpoint_dir is not None and self.rounds % checkpoint_every == 0:
                    self._write_checkpoint(checkpoint_dir)
        results = [member.build_result() for member in self._members]
        return CampaignResult(
            results=results,
            seeds=list(self.seeds),
            rounds=self.rounds,
            engine_calls=cache.engine_calls,
            eval_seconds=cache.eval_seconds,
            cache_hits=cache.hits,
            cache_misses=cache.misses,
            resumed_from_round=resumed_from_round,
            refit_rounds=self.refit_rounds,
            batched_kernel_calls=self.batched_kernel_calls,
            cache_digest=cache.state_digest(),
        )
