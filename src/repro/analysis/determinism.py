"""Determinism auditor: double-run bench cases and byte-diff everything.

Four PRs in a row shipped hand-written "bit-identical trajectory" locks;
this module turns them into one reusable gate.  For every case of a bench
suite the auditor builds the same multi-seed
:class:`~repro.search.campaign.Campaign` the benchmark harness runs, runs
it **twice in-process**, and compares byte-level fingerprints of everything
except wall time: the per-seed trajectories (winning sizing, evaluation
counts, phase counts, failing corners, the raw ``best_vector`` bytes), the
campaign's evaluation accounting (rounds, engine calls, cache hits/misses),
and a digest of the full :class:`~repro.search.eval_cache.EvaluationCache`
content — every ``(corner, row-key, metric-row)`` triple, bit for bit.

Any nondeterminism anywhere in the stack — an unseeded RNG, dict-ordering
dependence, an uninitialised buffer read, a mutated cached array — shows up
as a fingerprint mismatch.  :func:`compare_runs` is the one comparator: it
takes two finished runs (a ``CampaignResult`` or a ``ShardRunOutcome``),
fingerprints both and byte-compares them, optionally excusing named
fields.  Every auditor mode below and every resilience-drill scenario is
one call to it.  Contracts (``repro.analysis.contracts``) are
enabled for the audited runs by default, so shape violations and aliasing
mutations fault loudly instead of corrupting the comparison.

**Resume-parity mode** (``--resume-parity``) swaps the second run for a
kill-and-resume one: the first run checkpoints every round
(:meth:`Campaign.run` with ``checkpoint_dir``), the second starts a
fresh campaign and resumes it from the mid-run commit (``resume_round``).
The same byte-diff then proves a resumed campaign is bit-identical to the
uninterrupted one — including the cache content digest *and* the hit/miss
accounting, which checkpoint restore carries exactly.

**Sharded mode** (``--execution sharded``) swaps both runs: the first is
a multi-process :class:`~repro.shard.ShardedExecutor` run (``--workers``
spawned workers), the second the in-process sequential oracle over the
same shard specs (:func:`repro.shard.parity.run_sequential`).  The
byte-diff then proves process placement changes nothing: trajectories,
summed counters, and the cross-process union cache digest
(:func:`repro.shard.parity.union_state_digest`) all match bit for bit.
Contracts guard the in-process oracle only — spawned workers run without
them, which is itself part of the point: the comparison would catch a
worker behaving differently for any reason, contracts included.
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.analysis.contracts import contracts

#: ``ProgressiveResult.to_dict`` keys that measure wall time, not behaviour.
_TIMING_FIELDS = ("refit_seconds", "eval_seconds", "wall_seconds")


def fingerprint_outcome(outcome: Any) -> Dict[str, Any]:
    """Deterministic fingerprint of a finished run.

    ``outcome`` is a :class:`~repro.search.campaign.CampaignResult` or a
    :class:`~repro.shard.ShardRunOutcome`; both carry their seeds and the
    digest of their cache content.  Everything behavioural, nothing timed:
    per-seed trajectories (with the raw ``best_vector`` bytes hashed),
    run-wide evaluation accounting, and the cache-content digest.
    ``resumed_from_round`` is deliberately absent — it is the one field a
    resumed run legitimately differs on.  Raises :class:`ValueError` for an
    outcome without a cache digest (a sharded run that did not collect its
    cache content), which would otherwise compare ``null == null``.
    """
    if outcome.cache_digest is None:
        raise ValueError(
            "outcome has no cache digest to fingerprint; run the "
            "ShardedExecutor with collect_cache_content=True"
        )
    per_seed: List[Dict[str, Any]] = []
    for seed, result in zip(outcome.seeds, outcome.results):
        record = result.to_dict()
        for field in _TIMING_FIELDS:
            record.pop(field, None)
        record["seed"] = int(seed)
        record["best_vector_sha256"] = hashlib.sha256(
            result.best_vector.tobytes()
        ).hexdigest()
        per_seed.append(record)
    return {
        "per_seed": per_seed,
        "rounds": outcome.rounds,
        "engine_calls": outcome.engine_calls,
        "cache_hits": outcome.cache_hits,
        "cache_misses": outcome.cache_misses,
        "refit_rounds": outcome.refit_rounds,
        "batched_kernel_calls": outcome.batched_kernel_calls,
        "cache_sha256": outcome.cache_digest,
    }


def _differs(first: Any, second: Any) -> bool:
    """Do the two values serialize to different JSON bytes?

    Plain ``!=`` is not enough: ``1 == 1.0`` and ``[1, 2] == [1, 2.0]`` in
    Python, but their JSON bytes differ, and bytes are what the audit
    compares.
    """
    return json.dumps(first, sort_keys=True) != json.dumps(second, sort_keys=True)


def _first_divergence(first: Any, second: Any, path: str = "$") -> str:
    """Human-readable pointer to the first differing leaf of two payloads."""
    if type(first) is not type(second):
        return f"{path}: type {type(first).__name__} vs {type(second).__name__}"
    if isinstance(first, dict):
        for key in first:
            if key not in second:
                return f"{path}.{key}: missing in second run"
            if _differs(first[key], second[key]):
                return _first_divergence(first[key], second[key], f"{path}.{key}")
        extra = [key for key in second if key not in first]
        if extra:
            return f"{path}: second run has extra keys {', '.join(map(str, extra))}"
    elif isinstance(first, list):
        if len(first) != len(second):
            return f"{path}: length {len(first)} vs {len(second)}"
        for index, (a, b) in enumerate(zip(first, second)):
            if _differs(a, b):
                return _first_divergence(a, b, f"{path}[{index}]")
    return f"{path}: {first!r} vs {second!r}"


def _compare_fingerprints(first: Any, second: Any) -> Tuple[bool, str, Optional[str]]:
    """Byte-compare two fingerprints' canonical JSON encodings.

    Returns ``(identical, sha256 of the first encoding, divergence)`` — the
    :class:`CaseAudit` field order — where ``divergence`` points at the
    first differing field, or is ``None`` when the bytes are equal.
    """
    first_bytes = json.dumps(first, sort_keys=True).encode("utf-8")
    second_bytes = json.dumps(second, sort_keys=True).encode("utf-8")
    identical = first_bytes == second_bytes
    return (
        identical,
        hashlib.sha256(first_bytes).hexdigest(),
        None if identical else _first_divergence(first, second),
    )


def compare_runs(
    first: Any, second: Any, *, excuse: Sequence[str] = ()
) -> Tuple[bool, str, Optional[str]]:
    """Byte-compare two finished runs: the one A/B gate of this repo.

    Fingerprints both outcomes (:func:`fingerprint_outcome`), drops every
    ``excuse`` field from the top level and from each per-seed record, and
    compares the canonical JSON bytes.  Returns ``(identical,
    fingerprint_sha256, divergence)``: the SHA-256 of the first run's
    encoding and, when the bytes differ, a pointer to the first differing
    field (e.g. ``$.per_seed[1].best_vector_sha256``), else ``None``.
    """
    fingerprints = []
    for outcome in (first, second):
        fingerprint = fingerprint_outcome(outcome)
        for record in (fingerprint, *fingerprint["per_seed"]):
            for field in excuse:
                record.pop(field, None)
        fingerprints.append(fingerprint)
    return _compare_fingerprints(*fingerprints)


@dataclass(frozen=True)
class CaseAudit:
    """Double-run comparison of one bench case."""

    name: str
    identical: bool
    fingerprint_sha256: str
    #: Pointer to the first differing field when the runs diverged.
    divergence: Optional[str] = None

    def format(self) -> str:
        status = "OK  " if self.identical else "DIFF"
        line = f"{status} {self.name}  fingerprint {self.fingerprint_sha256[:16]}"
        if self.divergence:
            line += f"\n     first divergence: {self.divergence}"
        return line


@dataclass(frozen=True)
class AuditReport:
    """Outcome of a suite-level determinism audit."""

    suite: str
    seeds: Tuple[int, ...]
    cases: Tuple[CaseAudit, ...]
    #: ``"double-run"``, ``"resume-parity"`` or ``"sharded-parity"``
    #: (what the two compared runs were).
    mode: str = "double-run"

    @property
    def ok(self) -> bool:
        return all(case.identical for case in self.cases)

    def format(self) -> str:
        comparison = {
            "double-run": "double-run byte-diff",
            "resume-parity": "uninterrupted vs mid-run-resumed byte-diff",
            "sharded-parity": "sharded vs sequential-oracle byte-diff",
        }.get(self.mode, self.mode)
        lines = [
            f"determinism audit: suite {self.suite!r}, seeds {list(self.seeds)}, "
            f"{comparison}"
        ]
        lines.extend(case.format() for case in self.cases)
        verdict = "all runs byte-identical" if self.ok else "NONDETERMINISM DETECTED"
        lines.append(verdict)
        return "\n".join(lines)


def audit_case(
    case: Any,
    seeds: Sequence[int],
    optimizer: Optional[str] = None,
    with_contracts: bool = True,
    resume_parity: bool = False,
    execution: str = "campaign",
    workers: int = 2,
) -> CaseAudit:
    """Run one case twice and byte-compare the fingerprints.

    With ``resume_parity`` the second run resumes a fresh campaign from
    the first run's mid-run commit instead of starting cold, turning
    the same byte-diff into the checkpoint/resume correctness gate.  With
    ``execution="sharded"`` the first run shards the seeds across
    ``workers`` spawned processes and the second is the in-process
    sequential oracle over the same shard specs — the multi-process
    parity gate (exclusive with ``resume_parity``; contracts apply to the
    oracle run only, see the module docstring).
    """
    seeds = [int(seed) for seed in seeds]
    if execution not in ("campaign", "sharded"):
        raise ValueError(
            f"unknown audit execution {execution!r}; "
            "available: campaign, sharded"
        )
    if execution == "sharded":
        if resume_parity:
            raise ValueError(
                "resume_parity and the sharded execution are exclusive "
                "audit modes; the worker-kill resilience drill covers "
                "sharded resume"
            )
        from repro.shard import ShardedExecutor, run_sequential

        specs = case.shard_specs(seeds, optimizer=optimizer)
        first = ShardedExecutor(
            specs, workers=workers, collect_cache_content=True
        ).run()
        with contracts(with_contracts):
            second = run_sequential(specs)
    else:
        with contracts(with_contracts):
            if resume_parity:
                with tempfile.TemporaryDirectory(prefix="repro-audit-") as ckpt_dir:
                    first = case.build_campaign(seeds, optimizer=optimizer).run(
                        checkpoint_dir=ckpt_dir
                    )
                    second = case.build_campaign(seeds, optimizer=optimizer).run(
                        resume_from=ckpt_dir, resume_round=max(1, first.rounds // 2)
                    )
            else:
                first = case.build_campaign(seeds, optimizer=optimizer).run()
                second = case.build_campaign(seeds, optimizer=optimizer).run()
    return CaseAudit(case.name, *compare_runs(first, second))


def audit_suite(
    suite: str = "tiny",
    seeds: Sequence[int] = (0, 1, 2),
    optimizer: Optional[str] = None,
    with_contracts: bool = True,
    resume_parity: bool = False,
    execution: str = "campaign",
    workers: int = 2,
) -> AuditReport:
    """Audit every case of a bench suite; see :class:`AuditReport`."""
    from repro.bench.registry import get_suite

    if execution == "sharded":
        mode = "sharded-parity"
    elif resume_parity:
        mode = "resume-parity"
    else:
        mode = "double-run"
    return AuditReport(
        suite=suite,
        seeds=tuple(int(seed) for seed in seeds),
        cases=tuple(
            audit_case(
                case,
                seeds,
                optimizer=optimizer,
                with_contracts=with_contracts,
                resume_parity=resume_parity,
                execution=execution,
                workers=workers,
            )
            for case in get_suite(suite)
        ),
        mode=mode,
    )
