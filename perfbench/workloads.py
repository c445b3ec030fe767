"""The benchmark's workloads and one closed-loop repetition of each.

Every workload runs through the package's public API only: a bench case's
``build_campaign(seeds).run()``, or its ``shard_specs`` handed to a
``ShardedExecutor``.  A repetition runs every case of the workload once,
one after the other, and returns the wall time, the set-up time and the
per-(case, seed) results; :func:`check_solutions` then re-verifies every
claimed solution against the case's full corner set.
"""

from __future__ import annotations

import os
import random
import shutil
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.bench.registry import BenchCase
from repro.circuits.topologies import get_topology
from repro.search.progressive import ProgressiveResult
from repro.search.spec import Specification
from repro.shard import ShardedExecutor

from layers import LayerTrace

#: The trust-region smoke cases: the designer's path.
SEARCH_CASES = (
    BenchCase("two_stage_opamp", "nominal", "nine"),
    BenchCase("ota_5t", "nominal", "hardest"),
    BenchCase("folded_cascode", "nominal", "nine"),
    BenchCase("telescopic", "nominal", "nine"),
)

#: The Monte-Carlo baseline over the 45-corner grid, checkpointed every round.
MC45_CASES = tuple(
    BenchCase(topology, "nominal", "full45", max_evaluations=800, optimizer="random")
    for topology in ("two_stage_opamp", "folded_cascode", "telescopic")
)


@dataclass(frozen=True)
class Workload:
    """A named set of cases, the seeds each case runs, and how it runs.

    ``mode`` is ``"campaign"`` (one in-process multi-seed campaign per
    case), ``"checkpoint"`` (the same, with a persistent cache store and
    a snapshot every round) or ``"sharded"`` (one ``ShardedExecutor`` per
    case with ``os.cpu_count()`` workers and a persistent cache store).
    """

    name: str
    cases: Tuple[BenchCase, ...]
    seeds: Tuple[int, ...]
    mode: str = "campaign"


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload("search", SEARCH_CASES, tuple(range(4))),
        Workload("mc45-ckpt", MC45_CASES, (15,), mode="checkpoint"),
        Workload("fleet", SEARCH_CASES, tuple(range(4)), mode="sharded"),
    )
}


@dataclass
class CaseRun:
    """One case of one repetition: its results and its accounting."""

    case: BenchCase
    results: List[ProgressiveResult]
    seeds: List[int]
    run_seconds: float
    rounds: int
    engine_calls: int
    cache_hits: int
    cache_misses: int
    #: Busy seconds per worker (sharded mode only).
    worker_busy: List[float] = field(default_factory=list)
    #: Shard wall seconds inside the workers (sharded mode only).
    shard_seconds: List[float] = field(default_factory=list)
    #: Engine seconds inside the workers (sharded mode only).
    worker_engine_seconds: float = 0.0


@dataclass
class Repetition:
    """Every case of a workload, run once."""

    wall_s: float
    build_s: float
    cases: List[CaseRun]
    trace: Optional[LayerTrace] = None

    def pairs(self) -> List[Tuple[BenchCase, int, ProgressiveResult]]:
        return [
            (run.case, seed, result)
            for run in self.cases
            for seed, result in zip(run.seeds, run.results)
        ]


def _run_case(case: BenchCase, workload: Workload, work_dir: str) -> Tuple[float, CaseRun]:
    """Build and run one case; returns ``(build seconds, CaseRun)``."""
    seeds = list(workload.seeds)
    store = os.path.join(work_dir, f"{case.slug}.evc")
    if workload.mode == "sharded":
        start = time.perf_counter()
        executor = ShardedExecutor(
            case.shard_specs(seeds),
            workers=os.cpu_count(),
            cache_path=store,
            scratch_dir=os.path.join(work_dir, f"{case.slug}.results"),
        )
        built = time.perf_counter()
        outcome = executor.run()
        finished = time.perf_counter()
        return built - start, CaseRun(
            case=case,
            results=list(outcome.results),
            seeds=list(outcome.seeds),
            run_seconds=finished - built,
            rounds=outcome.rounds,
            engine_calls=outcome.engine_calls,
            cache_hits=outcome.cache_hits,
            cache_misses=outcome.cache_misses,
            worker_busy=[worker["wall_seconds"] for worker in outcome.per_worker],
            shard_seconds=[shard.wall_seconds for shard in outcome.shards],
            worker_engine_seconds=outcome.eval_seconds,
        )
    checkpointed = workload.mode == "checkpoint"
    start = time.perf_counter()
    campaign = case.build_campaign(seeds, cache_path=store if checkpointed else None)
    built = time.perf_counter()
    try:
        outcome = campaign.run(
            checkpoint_dir=os.path.join(work_dir, case.slug) if checkpointed else None
        )
    finally:
        campaign.close()
    finished = time.perf_counter()
    return built - start, CaseRun(
        case=case,
        results=list(outcome.results),
        seeds=list(outcome.seeds),
        run_seconds=finished - built,
        rounds=outcome.rounds,
        engine_calls=outcome.engine_calls,
        cache_hits=outcome.cache_hits,
        cache_misses=outcome.cache_misses,
    )


def run_repetition(
    workload: Workload, order: Sequence[int], work_dir: str, traced: bool = False
) -> Repetition:
    """Run every case once, in ``order``, from a fresh work directory.

    The wall time counts only ``run()`` (and closing the case's store);
    building campaigns and shard specs is set-up.  With ``traced`` the
    layer wrappers are installed for the whole repetition.
    """
    wall = build = 0.0
    runs: List[Optional[CaseRun]] = [None] * len(workload.cases)
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    try:
        with LayerTrace() if traced else nullcontext() as trace:
            for index in order:
                build_s, run = _run_case(workload.cases[index], workload, work_dir)
                build += build_s
                wall += run.run_seconds
                runs[index] = run
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return Repetition(wall_s=wall, build_s=build, cases=runs, trace=trace)


def case_order(rng: random.Random, workload: Workload) -> List[int]:
    """The seeded order in which one repetition runs the workload's cases."""
    order = list(range(len(workload.cases)))
    rng.shuffle(order)
    return order


# -- output check ----------------------------------------------------------
def reverify(case: BenchCase, vector: np.ndarray) -> bool:
    """Does ``vector`` meet the case's spec tier at every sign-off corner?

    Rebuilds the topology from the case alone and re-evaluates through the
    public ``evaluate_corners`` over the case's full corner set, so the
    check shares no state with the campaign that produced the claim.
    """
    problem = get_topology(case.topology)(case.technology, load_cap=case.load_cap)
    specification = Specification(
        problem.default_specs()[case.tier], problem.METRIC_NAMES
    )
    block = problem.evaluate_corners(np.atleast_2d(vector), case.corners())
    return bool(specification.satisfied(block[:, 0, :]).all())


def check_solutions(repetition: Repetition) -> int:
    """Number of (case, seed) pairs whose claimed solution fails re-verification."""
    return sum(
        1
        for case, _, result in repetition.pairs()
        if result.solved_all_corners and not reverify(case, result.best_vector)
    )


# -- counts and metrics -------------------------------------------------
def fingerprint(repetition: Repetition) -> Tuple:
    """Everything a repetition must repeat exactly: counts and trajectories."""
    return tuple(
        (
            case.name,
            seed,
            bool(result.solved_all_corners),
            int(result.evaluations),
            len(result.phase_results),
            result.best_vector.tobytes(),
        )
        for case, seed, result in sorted(
            repetition.pairs(), key=lambda pair: (pair[0].name, pair[1])
        )
    ) + tuple(
        sorted(
            (run.case.name, run.rounds, run.engine_calls, run.cache_hits, run.cache_misses)
            for run in repetition.cases
        )
    )


def outcome_counts(repetition: Repetition) -> Dict[str, float]:
    """The deterministic end-to-end counts of a repetition."""
    pairs = repetition.pairs()
    solved = [result for _, _, result in pairs if result.solved_all_corners]
    evaluations = [int(result.evaluations) for _, _, result in pairs]
    return {
        "pairs": len(pairs),
        "solved": len(solved),
        # With no solve, the cost of trying is the whole budget spent.
        "evals_per_solve": float(
            statistics.median(int(result.evaluations) for result in solved)
            if solved
            else sum(evaluations)
        ),
        "sim_pairs": sum(run.cache_misses for run in repetition.cases),
        "sim_calls": sum(run.engine_calls for run in repetition.cases),
    }


def layer_metrics(repetition: Repetition, cpu_count: int) -> Dict[str, float]:
    """Per-layer metrics of one traced repetition (shares of its wall time)."""
    trace = repetition.trace
    wall = repetition.wall_s
    own = trace.self_seconds
    calls = trace.calls
    counts = trace.counts
    pairs = repetition.pairs()
    sharded = any(run.worker_busy for run in repetition.cases)

    def share(seconds: float) -> float:
        return seconds / wall

    hits = sum(run.cache_hits for run in repetition.cases)
    misses = sum(run.cache_misses for run in repetition.cases)
    engine_calls = sum(run.engine_calls for run in repetition.cases)
    if sharded:
        # The wrappers do not exist inside spawned workers: the engine's
        # numbers come from the per-shard accounting the executor returns.
        engine_seconds = sum(run.worker_engine_seconds for run in repetition.cases)
        engine_share = engine_seconds / (cpu_count * wall)
        lookups = hits + misses
    else:
        engine_seconds = own["circuits.engine"]
        engine_share = share(engine_seconds)
        lookups = counts["eval_cache.lookups"]

    busy_max = sum(max(run.worker_busy) for run in repetition.cases if run.worker_busy)
    busy_mean = sum(
        statistics.fmean(run.worker_busy) for run in repetition.cases if run.worker_busy
    )
    busy_total = sum(sum(run.worker_busy) for run in repetition.cases)
    shard_seconds = [s for run in repetition.cases for s in run.shard_seconds]
    evaluations = sum(int(result.evaluations) for _, _, result in pairs)
    unsolved_evaluations = sum(
        int(result.evaluations) for _, _, result in pairs if not result.solved_all_corners
    )
    metrics = {
        "nn.fit_share": share(own["nn.fit"]),
        "nn.fit_calls": calls["nn.fit"],
        "nn.fit_jobs_per_call": counts["nn.fit_jobs"] / calls["nn.fit"] if calls["nn.fit"] else 0.0,
        "nn.train_row_epochs": counts["nn.train_row_epochs"],
        "nn.predict_share": share(own["nn.predict"]),
        "nn.predict_rows": counts["nn.predict_rows"],
        "optimizer.ask_share": share(own["optimizer.ask"]),
        "optimizer.ask_calls": calls["optimizer.ask"],
        "optimizer.tell_share": share(own["optimizer.tell"]),
        "optimizer.proposed_rows": counts["optimizer.proposed_rows"],
        "optimizer.empty_asks": counts["optimizer.empty_asks"],
        "optimizer.scored_per_proposed": (
            counts["nn.predict_rows"] / counts["optimizer.proposed_rows"]
            if counts["optimizer.proposed_rows"]
            else 0.0
        ),
        "eval_cache.lookups": lookups,
        "eval_cache.hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "eval_cache.self_share": share(own["eval_cache"]),
        "circuits.engine_share": engine_share,
        "circuits.engine_calls": engine_calls,
        "circuits.pairs": misses if sharded else counts["circuits.pairs"],
        "circuits.us_per_pair": 1e6 * engine_seconds / misses if misses else 0.0,
        "campaign.rounds": sum(run.rounds for run in repetition.cases),
        "campaign.self_share": share(own["campaign"]),
        "progressive.phases_mean": statistics.fmean(
            len(result.phase_results) for _, _, result in pairs
        ),
        "progressive.unsolved_eval_frac": unsolved_evaluations / evaluations,
        "resilience.state_dict_share": share(own["resilience.state_dict"]),
        "resilience.snapshot_share": share(own["resilience.snapshot"]),
        "resilience.snapshots": calls["resilience.snapshot"],
        "resilience.snapshot_mb": counts["resilience.snapshot_bytes"] / 1e6,
        "resilience.store_share": share(own["resilience.store"]),
        "resilience.merge_share": share(own["resilience.merge"]),
        "resilience.result_load_share": share(own["resilience.result_load"]),
        "shard.self_share": share(own["shard"]),
        "shard.busy_max_share": share(busy_max),
        "shard.imbalance": busy_max / busy_mean if busy_mean else 0.0,
        "shard.overhead_share": share(wall - busy_max) if sharded else 0.0,
        "shard.idle_core_share": (
            (cpu_count * wall - busy_total) / (cpu_count * wall) if sharded else 0.0
        ),
        "shard.shards": len(shard_seconds),
        "shard.shard_max_over_p50": (
            max(shard_seconds) / statistics.median(shard_seconds) if shard_seconds else 0.0
        ),
        "trace.attributed_share": share(sum(own.values())),
    }
    return {name: float(value) for name, value in metrics.items()}
