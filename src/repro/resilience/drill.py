"""Kill-and-resume drill: crash a campaign at every fault site, resume, diff.

The drill is the end-to-end proof behind the crash-safety story.  For each
bench case it first runs an uninterrupted **oracle** campaign.  Then,
for every registered fault site and
each requested occurrence, it arms a deterministic
:class:`~repro.resilience.faults.FaultPlan`, runs a campaign with
checkpointing *and* a persistent evaluation-cache store until the injected
fault kills it, builds a fresh campaign over the same on-disk state —
repairing the cache store's torn tail where the fault left one — resumes
from the newest complete commit in its cache journal, and byte-diffs the
finished run against the oracle with :func:`repro.analysis.determinism.compare_runs` — per-seed
trajectories, best-vector bytes, evaluation accounting and cache-content
digest, the same bytes the determinism auditor gates on.

What "byte-identical" means per scenario:

* When the crashed run had completed at least one checkpoint, the resumed
  run restores the full campaign state (cache content *and* hit/miss
  accounting included), so the entire fingerprint must match the oracle.
* When the fault struck before the first checkpoint, the resumed run
  cold-starts against the persistent store's surviving pairs — its
  trajectories, best vectors and final cache digest must still match the
  oracle bit for bit, but its hit/miss counters legitimately differ (disk
  pairs hit where the oracle computed), so those are the ``excuse``
  fields of that scenario's comparison only.

A plan whose site is never reached (e.g. ``optimizer.refit`` under a
surrogate-free optimizer) completes normally and is compared directly —
reported as unfired, still required to match.

The **worker-kill** scenarios (:func:`drill_worker_kill`) extend the same
proof across process boundaries: a sharded run
(:class:`~repro.shard.ShardedExecutor`) has one worker SIGKILLed — a real
``os.kill``, not an exception — right before a checkpoint write, the
parent surfaces the dead worker's shard identity, and a resumed executor
continues that shard from its last complete commit.  The finished state must
match the in-process sequential oracle in full: per-shard campaigns keep
their own counters, so even the hit/miss accounting is exact.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.resilience.faults import (
    FaultPlan,
    InjectedFault,
    inject,
    registered_fault_sites,
)

#: Counter fields that legitimately differ when a run cold-starts against
#: a warm persistent store instead of restoring a checkpoint.
_COUNTER_FIELDS = ("engine_calls", "cache_hits", "cache_misses")


@dataclass(frozen=True)
class DrillOutcome:
    """One (case, site, occurrence) kill-and-resume scenario's verdict."""

    case: str
    site: str
    occurrence: int
    #: Whether the armed fault actually fired (its site was reached).
    fired: bool
    #: Round the resumed campaign restored from (``None``: cold-started).
    resumed_from_round: Optional[int]
    #: Bytes the cache store trimmed repairing a torn tail on reopen.
    repaired_bytes: int
    identical: bool
    #: Pointer to the first differing field when the diff failed.
    divergence: Optional[str] = None

    def format(self) -> str:
        status = "OK  " if self.identical else "DIFF"
        if not self.fired:
            how = "site never reached, ran to completion"
        elif self.resumed_from_round is not None:
            how = f"fired, resumed from round {self.resumed_from_round}"
        else:
            how = "fired before first checkpoint, cold-started on the store"
        if self.repaired_bytes:
            how += f", repaired {self.repaired_bytes} B torn tail"
        line = f"{status} {self.site} x{self.occurrence}: {how}"
        if self.divergence:
            line += f"\n       first divergence: {self.divergence}"
        return line


@dataclass(frozen=True)
class DrillReport:
    """All scenarios of a drill run."""

    suite: str
    seeds: Tuple[int, ...]
    occurrences: Tuple[int, ...]
    outcomes: Tuple[DrillOutcome, ...]

    @property
    def ok(self) -> bool:
        return all(outcome.identical for outcome in self.outcomes)

    @property
    def fired_count(self) -> int:
        return sum(outcome.fired for outcome in self.outcomes)

    def format(self) -> str:
        sites = list(registered_fault_sites())
        if any(outcome.site == "worker.kill" for outcome in self.outcomes):
            sites.append("worker.kill")
        lines = [
            f"kill-and-resume drill: suite {self.suite!r}, seeds "
            f"{list(self.seeds)}, occurrences {list(self.occurrences)}, "
            f"sites {sites}"
        ]
        by_case: Dict[str, List[DrillOutcome]] = {}
        for outcome in self.outcomes:
            by_case.setdefault(outcome.case, []).append(outcome)
        for case, outcomes in by_case.items():
            lines.append(f"{case}:")
            lines.extend("  " + outcome.format() for outcome in outcomes)
        verdict = (
            f"all {len(self.outcomes)} resumed runs byte-identical to the "
            f"oracle ({self.fired_count} faults fired)"
            if self.ok
            else "RESUME DIVERGENCE DETECTED"
        )
        lines.append(verdict)
        return "\n".join(lines)


def drill_case(
    case: Any,
    seeds: Sequence[int],
    occurrences: Sequence[int],
    workdir: str,
) -> List[DrillOutcome]:
    """Run every (site, occurrence) kill-and-resume scenario for one case."""
    # Imported lazily (with the bench/search stack) so repro.resilience's
    # leaf modules stay importable without it.
    from repro.analysis.determinism import compare_runs

    seeds = [int(seed) for seed in seeds]
    oracle = case.build_campaign(seeds).run()
    outcomes: List[DrillOutcome] = []
    for site in registered_fault_sites():
        for occurrence in occurrences:
            scenario = f"{site.replace('.', '-')}-occ{occurrence}"
            scenario_dir = os.path.join(workdir, case.slug, scenario)
            checkpoint_dir = os.path.join(scenario_dir, "checkpoints")
            cache_path = os.path.join(scenario_dir, "cache.evc")
            os.makedirs(scenario_dir, exist_ok=True)
            plan = FaultPlan(site, occurrence=occurrence)
            campaign = case.build_campaign(seeds, cache_path=cache_path)
            outcome = None
            try:
                with inject(plan):
                    outcome = campaign.run(checkpoint_dir=checkpoint_dir)
            except InjectedFault:
                pass
            finally:
                campaign.close()
            repaired_bytes = 0
            if plan.fired:
                resumed = case.build_campaign(seeds, cache_path=cache_path)
                repaired_bytes = resumed.cache.repaired_bytes
                try:
                    outcome = resumed.run(resume_from=checkpoint_dir)
                finally:
                    resumed.close()
            # Restoring a checkpoint carries the cache content and accounting
            # exactly, so those scenarios must match the oracle in full; a
            # cold-start against the surviving store hits pairs the oracle
            # computed, so only its counters are excused.
            cold_start = plan.fired and outcome.resumed_from_round is None
            identical, _, divergence = compare_runs(
                oracle, outcome, excuse=_COUNTER_FIELDS if cold_start else ()
            )
            outcomes.append(
                DrillOutcome(
                    case=case.name,
                    site=site,
                    occurrence=occurrence,
                    fired=plan.fired,
                    resumed_from_round=outcome.resumed_from_round,
                    repaired_bytes=repaired_bytes,
                    identical=identical,
                    divergence=divergence,
                )
            )
    return outcomes


def drill_worker_kill(
    case: Any,
    seeds: Sequence[int],
    occurrences: Sequence[int],
    workdir: str,
) -> List[DrillOutcome]:
    """SIGKILL a sharded worker mid-run, resume its shard, diff the result.

    For each occurrence ``N`` the scenario arms a kill plan on shard 0:
    its worker process dies on a real ``SIGKILL`` in its ``N``-th
    checkpoint, with half the commit written (so the shard's last complete
    commit is round ``N - 1``; at ``N = 1`` the shard cold-restarts).  The parent must
    surface the failure as a :class:`~repro.shard.ShardWorkerError` naming
    the dead worker's unfinished shard, and a second executor with
    ``resume=True`` must finish from the surviving per-shard checkpoints —
    byte-identical **in full** to the in-process sequential oracle,
    counters included, because every shard owns its own campaign state.
    """
    from repro.analysis.determinism import compare_runs
    from repro.shard import ShardedExecutor, ShardWorkerError, run_sequential

    seeds = [int(seed) for seed in seeds]
    # Spawned kill plans need at least two shards (the in-process fast
    # path refuses them — it would SIGKILL the parent).
    while len(seeds) < 2:
        seeds.append(max(seeds) + 1 if seeds else 0)
    specs = case.shard_specs(seeds)
    oracle = run_sequential(specs)
    outcomes: List[DrillOutcome] = []
    for occurrence in occurrences:
        scenario_dir = os.path.join(
            workdir, case.slug, f"worker-kill-occ{occurrence}"
        )
        checkpoint_dir = os.path.join(scenario_dir, "checkpoints")
        os.makedirs(scenario_dir, exist_ok=True)
        fired = True
        try:
            outcome = ShardedExecutor(
                specs,
                workers=2,
                checkpoint_dir=checkpoint_dir,
                collect_cache_content=True,
                kill_plans={0: occurrence},
            ).run()
            # Occurrence beyond the shard's checkpoint count: the plan
            # never fires and the run completes normally — compared
            # directly, like an unreached fault site.
            fired = False
        except ShardWorkerError:
            outcome = ShardedExecutor(
                specs,
                workers=2,
                checkpoint_dir=checkpoint_dir,
                resume=True,
                collect_cache_content=True,
            ).run()
        identical, _, divergence = compare_runs(oracle, outcome)
        outcomes.append(
            DrillOutcome(
                case=case.name,
                site="worker.kill",
                occurrence=occurrence,
                fired=fired,
                resumed_from_round=(
                    outcome.shards[0].resumed_from_round if fired else None
                ),
                repaired_bytes=0,
                identical=identical,
                divergence=divergence,
            )
        )
    return outcomes


def drill_suite(
    suite: str = "drill",
    seeds: Sequence[int] = (0,),
    occurrences: Sequence[int] = (1, 3),
    workdir: str = "drill-workdir",
    worker_kill: bool = True,
) -> DrillReport:
    """Drill every case of a bench suite; see :class:`DrillReport`.

    ``worker_kill`` appends the multi-process SIGKILL scenarios
    (:func:`drill_worker_kill`) after the in-process fault sites.
    """
    from repro.bench.registry import get_suite

    outcomes: List[DrillOutcome] = []
    for case in get_suite(suite):
        outcomes.extend(drill_case(case, seeds, occurrences, workdir))
        if worker_kill:
            outcomes.extend(drill_worker_kill(case, seeds, occurrences, workdir))
    return DrillReport(
        suite=suite,
        seeds=tuple(int(seed) for seed in seeds),
        occurrences=tuple(int(occurrence) for occurrence in occurrences),
        outcomes=tuple(outcomes),
    )
