"""Crash safety for long-lived campaigns: checkpoints, persistence, drills.

The package has four pieces:

* :mod:`repro.resilience.atomic` — the shared write-temp + fsync +
  ``os.replace`` helper every committed artifact goes through;
* :mod:`repro.resilience.snapshot` — versioned, CRC-checked snapshot
  files (:func:`save_snapshot` / :func:`load_snapshot`), the envelope of
  the sharded executor's per-shard result files;
* :mod:`repro.resilience.store` — the append-only on-disk store behind
  ``EvaluationCache(persist_path=...)``, with torn-tail repair on reopen,
  and the campaign's cache journal: the same pair frames plus one commit
  frame per checkpoint (:func:`~repro.resilience.store.scan_journal`);
* :mod:`repro.resilience.faults` — deterministic fault injection at named
  engine sites, driving the kill-and-resume drill
  (``python -m repro.resilience drill``, :mod:`repro.resilience.drill`).

The drill module is imported lazily (by ``__main__``) — it pulls in the
bench stack, which the leaf helpers here must stay independent of.
"""

from repro.resilience.atomic import (
    atomic_write_bytes,
    atomic_write_json,
    atomic_write_text,
    fsync_replace,
)
from repro.resilience.faults import (
    FaultPlan,
    InjectedFault,
    fault_point,
    inject,
    register_fault_site,
    registered_fault_sites,
)
from repro.resilience.snapshot import (
    SNAPSHOT_FORMAT,
    SnapshotError,
    load_snapshot,
    save_snapshot,
)
from repro.resilience.store import CacheStore, StoreError

__all__ = [
    "CacheStore",
    "FaultPlan",
    "InjectedFault",
    "SNAPSHOT_FORMAT",
    "SnapshotError",
    "StoreError",
    "atomic_write_bytes",
    "atomic_write_json",
    "atomic_write_text",
    "fault_point",
    "fsync_replace",
    "inject",
    "load_snapshot",
    "register_fault_site",
    "registered_fault_sites",
    "save_snapshot",
]
