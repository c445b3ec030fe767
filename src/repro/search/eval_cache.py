"""Cross-phase memoisation of true-evaluator results.

The progressive PVT loop re-touches the same sizings repeatedly: each phase
warm-starts from the previous phase's winner, every phase verifies its winner
over the full sign-off grid, and later phases re-verify sizings whose active
corners were already evaluated earlier.  :class:`EvaluationCache` sits between
the search stack and the corner evaluator and memoises every ``(sizing row,
corner)`` pair, so none of those repeats ever reaches the (comparatively
expensive) closed-form evaluator again.

Rows are keyed by their fixed-width float64 byte patterns — the same
bit-exact row identity the trust-region dedup builds its void views from.
The whole block is exported with a single ``tobytes`` and sliced per row
(NumPy void scalars stopped being hashable dict keys in NumPy 2), so the key
is exact — bit-level, no rounding — and cheap to build.

The cache is engine-agnostic: it wraps *any* corner evaluator with the
``(samples, corners) -> (n_corners, count, n_metrics)`` contract, whether the
stacked fast path or the looped reference engine, and since both are
bit-identical the cache never changes a search trajectory — it only removes
repeat work.  It also keeps the benchmark accounting: ``eval_seconds`` is the
wall time actually spent inside the wrapped evaluator.

With ``persist_path`` the cache additionally mirrors every computed pair
into an append-only on-disk store (:class:`repro.resilience.store.CacheStore`)
and warm-starts from it on construction, so a later *process* — a resumed
campaign, a bench rerun, a future shard — serves the same pairs without
touching the engine.  Persisted values are the exact float64 buffers the
engine produced, so warm hits are bit-identical to recomputation and
trajectories stay unchanged; only the hit/miss accounting moves, which the
``warm_hits``/``cold_hits`` split makes visible.

A checkpointing campaign also gives the cache a **journal**
(:meth:`EvaluationCache.start_journal`): a store-format file in the
checkpoint directory, seeded once with the current content and then fed
every computed pair.  A checkpoint is one commit record appended to it
(:meth:`EvaluationCache.commit`), so the pairs before a commit are the
cache content at that checkpoint and the cache's own part of the commit
is only its counters (:meth:`~EvaluationCache.state_dict`).  Restore
replays those pairs (:meth:`~EvaluationCache.load_state_dict`).  The
journal is never a warm source: its pairs are this campaign's own, so
restoring them leaves the warm/cold split as it was.
"""

from __future__ import annotations

import hashlib
import os
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.analysis.contracts import ArraySpec, SeqLen, contract
from repro.circuits.pvt import PVTCondition
from repro.obs import event, profiled
from repro.resilience.faults import fault_point, register_fault_site
from repro.resilience.store import CacheStore, Record, read_records

#: A corner evaluator maps ``(count, dim)`` sizings and a corner list to a
#: ``(n_corners, count, n_metrics)`` metric block.
CornerEvaluator = Callable[[np.ndarray, Sequence[PVTCondition]], np.ndarray]

#: Kill-and-resume drill site: a crash inside the true evaluator loses the
#: whole in-flight block (nothing was cached or persisted yet).
SITE_ENGINE_CALL = register_fault_site("engine.call")

_EMPTY_KEYS: "frozenset[bytes]" = frozenset()


def _corner_tag(corner: PVTCondition) -> bytes:
    """Exact, parseable corner identity for the on-disk store.

    ``float.hex`` round-trips bit-for-bit, matching the canonical corner
    encoding :meth:`EvaluationCache.state_digest` hashes.
    """
    return (
        f"{corner.process}|{corner.voltage_factor.hex()}"
        f"|{corner.temperature_c.hex()}".encode("ascii")
    )


def _corner_from_tag(tag: bytes) -> PVTCondition:
    process, voltage, temperature = tag.decode("ascii").split("|")
    return PVTCondition(
        process=process,
        voltage_factor=float.fromhex(voltage),
        temperature_c=float.fromhex(temperature),
    )


class EvaluationCache:
    """Memoise ``(sizing row, corner)`` -> metric row across search phases.

    Parameters
    ----------
    corner_evaluator:
        The true evaluator to wrap (stacked or looped engine).
    dimension:
        Sizing-vector length, fixing the void-view key width.
    n_metrics:
        Metric columns per corner (the evaluator's last axis).
    persist_path:
        Optional on-disk store file.  When given, the cache preloads every
        record the store holds (repairing a torn tail from a crashed
        writer, see :class:`~repro.resilience.store.CacheStore`) and
        appends every newly computed pair, so hits survive the process.
    preload_paths:
        Extra store files to warm-load **read-only** — no write handle is
        taken and no torn tail is repaired, so another process may still
        own them.  The sharded executor points every worker's cache at the
        shared master store this way while the worker appends its own
        fresh pairs to a private per-shard file.

    Attributes
    ----------
    hits, misses:
        Per ``(row, corner)`` pair counters: ``hits`` were served from the
        cache, ``misses`` went to the true evaluator.
    warm_hits, cold_hits:
        Split of ``hits``: warm hits were served from pairs preloaded off
        the persistent store (another process computed them), cold hits
        from pairs this cache computed itself.  Without ``persist_path``
        every hit is cold.
    engine_calls:
        Invocations of the wrapped evaluator — the multi-seed Campaign
        batches many seeds' requests into fewer, larger calls, and this is
        the counter that shows it.
    eval_seconds:
        Cumulative wall time inside the wrapped evaluator.
    preloaded_pairs, repaired_bytes:
        Persistence diagnostics: pairs warm-loaded at construction, and
        bytes a torn-tail repair truncated off the store on open.
    """

    def __init__(
        self,
        corner_evaluator: CornerEvaluator,
        dimension: int,
        n_metrics: int,
        persist_path: Optional[str] = None,
        preload_paths: Sequence[str] = (),
    ) -> None:
        self._evaluate = corner_evaluator
        self._dimension = int(dimension)
        self._key_width = int(dimension) * np.dtype(np.float64).itemsize
        self.n_metrics = int(n_metrics)
        # One row-key -> metric-row dict per corner.  Keyed by the (frozen,
        # hashable) PVTCondition itself, not its display name — the name
        # rounds voltage/temperature for printing, so two distinct corners
        # can share it.
        self._store: Dict[PVTCondition, Dict[bytes, np.ndarray]] = {}
        self.hits = 0
        self.misses = 0
        self.warm_hits = 0
        self.cold_hits = 0
        self.engine_calls = 0
        self.eval_seconds = 0.0
        self.preloaded_pairs = 0
        self.repaired_bytes = 0
        # Pairs that came off the persistent store rather than this
        # process's own engine calls, for the warm/cold hit split.
        self._warm: Dict[PVTCondition, Set[bytes]] = {}
        self._backend: Optional[CacheStore] = None
        self._journal: Optional[CacheStore] = None
        if persist_path is not None:
            self._backend = CacheStore(persist_path, int(dimension), self.n_metrics)
            self.repaired_bytes = self._backend.repaired_bytes
            self._ingest(self._backend.records)
        for path in preload_paths:
            records, _trailing = read_records(path, int(dimension), self.n_metrics)
            self._ingest(records)
        if persist_path is not None or preload_paths:
            self.preloaded_pairs = len(self)
            event(
                "eval_cache.warm_load",
                path=persist_path,
                preloads=len(preload_paths),
                pairs=self.preloaded_pairs,
                repaired_bytes=self.repaired_bytes,
            )

    def _ingest(self, records: Sequence[Record], warm: bool = True) -> None:
        """Load ``(tag, key, row)`` store records, in record order.

        ``warm`` marks the pairs as preloaded for the warm/cold hit split;
        a journal replay passes ``False``.
        """
        corners_by_tag: Dict[bytes, PVTCondition] = {}
        for tag, key, row in records:
            corner = corners_by_tag.get(tag)
            if corner is None:
                corner = corners_by_tag.setdefault(tag, _corner_from_tag(tag))
            self._store.setdefault(corner, {})[key] = row
            if warm:
                self._warm.setdefault(corner, set()).add(key)

    def __len__(self) -> int:
        """Total number of cached ``(row, corner)`` pairs."""
        return sum(len(store) for store in self._store.values())

    def _row_keys(self, samples: np.ndarray) -> List[bytes]:
        """Bit-exact per-row keys: one buffer export, sliced fixed-width."""
        data = np.ascontiguousarray(samples).tobytes()
        width = self._key_width
        return [data[i * width : (i + 1) * width] for i in range(samples.shape[0])]

    def fresh_row_count(self, samples: np.ndarray, corners: Sequence[PVTCondition]) -> int:
        """How many rows :meth:`evaluate` would send to the engine right now.

        A pure peek — no store is created or mutated, no counter moves —
        used by the multi-seed Campaign to attribute a shared stacked
        pass's misses to the member that caused them *before* the pass
        itself updates the cache.
        """
        samples = np.atleast_2d(np.asarray(samples, dtype=np.float64))
        keys = self._row_keys(samples)
        stores = [self._store.get(corner) for corner in corners]
        if any(store is None for store in stores):
            return samples.shape[0]
        return sum(1 for key in keys if any(key not in store for store in stores))

    @contract(
        args={"corners": SeqLen("c")},
        returns=ArraySpec("c", None, None),
    )
    def evaluate(
        self, samples: np.ndarray, corners: Sequence[PVTCondition]
    ) -> np.ndarray:
        """Metrics block ``(n_corners, count, n_metrics)``, memoised.

        A row already cached at *every* requested corner is served entirely
        from memory; all other rows go to the wrapped evaluator in a single
        stacked call covering all requested corners at once (recomputing a
        corner that was cached for such a row costs nothing extra in the
        broadcast and returns bit-identical values).

        The returned block — and every metric row retained in the cache —
        is **read-only** (``writeable=False``): a caller mutating a result
        in place would otherwise silently corrupt the shared cache (results
        alias cached rows), so the mutation faults at its own line instead.
        """
        samples = np.atleast_2d(np.asarray(samples, dtype=np.float64))
        corners = list(corners)
        if not corners:
            raise ValueError("evaluate needs at least one PVT corner")
        count = samples.shape[0]
        keys = self._row_keys(samples)
        stores = [self._store.setdefault(corner, {}) for corner in corners]

        # A row counts as fresh unless *every* requested corner has it; fresh
        # rows are (re)computed at all corners, so each of their pairs is a
        # miss, and each pair of a fully-cached row is a hit.
        fresh = [
            i
            for i in range(count)
            if any(keys[i] not in store for store in stores)
        ]
        fresh_set = set(fresh)
        hits = (count - len(fresh)) * len(corners)
        misses = len(fresh) * len(corners)
        self.hits += hits
        self.misses += misses
        if hits:
            self._split_hits(keys, corners, fresh_set, hits)
        event(
            "eval_cache.evaluate",
            rows=count,
            corners=len(corners),
            hits=hits,
            misses=misses,
        )

        out = np.empty((len(corners), count, self.n_metrics), dtype=np.float64)
        if fresh:
            self.engine_calls += 1
            fault_point(SITE_ENGINE_CALL)
            with profiled(
                "eval_cache.engine", rows=len(fresh), corners=len(corners)
            ) as timer:
                block = np.asarray(
                    self._evaluate(samples[fresh], corners), dtype=np.float64
                )
            self.eval_seconds += timer.seconds
            out[:, fresh, :] = block
            # The stored metric rows are views into this block; freezing it
            # makes every cached row immutable for the cache's lifetime.
            block.flags.writeable = False
            for corner_index, store in enumerate(stores):
                for block_index, row_index in enumerate(fresh):
                    store[keys[row_index]] = block[corner_index, block_index]
            if self._backend is not None or self._journal is not None:
                self._persist(keys, corners, fresh, block)
        for row_index in range(count):
            if row_index in fresh_set:
                continue
            for corner_index, store in enumerate(stores):
                out[corner_index, row_index] = store[keys[row_index]]
        out.flags.writeable = False
        return out

    def _split_hits(
        self,
        keys: List[bytes],
        corners: Sequence[PVTCondition],
        fresh_set: Set[int],
        hits: int,
    ) -> None:
        """Attribute served hits to the warm (preloaded) or cold pool."""
        if not self._warm:
            self.cold_hits += hits
            return
        warm = 0
        for row_index in range(len(keys)):
            if row_index in fresh_set:
                continue
            key = keys[row_index]
            for corner in corners:
                if key in self._warm.get(corner, _EMPTY_KEYS):
                    warm += 1
        self.warm_hits += warm
        self.cold_hits += hits - warm

    def _persist(
        self,
        keys: List[bytes],
        corners: Sequence[PVTCondition],
        fresh: List[int],
        block: np.ndarray,
    ) -> None:
        """Append this engine call's pairs to the store, then the journal.

        A fresh row is recomputed at *all* requested corners, so a pair
        already on disk (cached at one corner, missing at another) can be
        re-appended; the loader replays records in order, so the duplicate
        is harmless — same key, bit-identical value, same dict position.
        Each pair's frame is built once and the same bytes go to both
        logs.  The store is flushed per call (other processes may read
        it); the journal only at commits (:meth:`commit`).
        """
        encode = (self._backend or self._journal).frame
        tags = [_corner_tag(corner) for corner in corners]
        frames = [
            encode(tag, keys[row_index], block[corner_index, block_index])
            for corner_index, tag in enumerate(tags)
            for block_index, row_index in enumerate(fresh)
        ]
        if self._backend is not None:
            for frame in frames:
                self._backend.append_frame(frame)
            self._backend.flush()
        if self._journal is not None:
            for frame in frames:
                self._journal.append_frame(frame)

    def close(self) -> None:
        """Flush and close the persistent store and the journal, if any."""
        for log in (self._backend, self._journal):
            if log is not None:
                log.close()

    # -- checkpoint/resume ---------------------------------------------
    def start_journal(self, path: str) -> None:
        """Start a new journal generation at ``path``, a file not yet there.

        The journal is seeded with the current content, corner by corner
        in insertion order, so replaying the pairs before any of its
        commits rebuilds the same dicts in the same iteration order; from
        then on every computed pair is appended to it.  A journal this
        cache already had is closed (it stays on disk with its commits).
        """
        if os.path.exists(path):
            raise FileExistsError(f"cache journal {path!r} already exists")
        if self._journal is not None:
            self._journal.close()
        journal = CacheStore(path, self._dimension, self.n_metrics)
        for corner, store in self._store.items():
            tag = _corner_tag(corner)
            for key, row in store.items():
                journal.append(tag, key, row)
        journal.flush()
        self._journal = journal

    def commit(self, payload: bytes, fault_site: str) -> int:
        """Append a commit after the journal's pairs; returns its size.

        One fsync makes the commit and every pair before it durable.
        Needs a journal (:meth:`start_journal`).
        """
        return self._journal.commit(payload, fault_site)

    @property
    def journal_records(self) -> int:
        """Pairs in the current journal (0 without one)."""
        return 0 if self._journal is None else self._journal.record_count

    def state_dict(self) -> Dict[str, object]:
        """The counters, for campaign checkpoints.

        The content is not serialized: a checkpoint is a journal commit,
        and the pairs before it are the content (see
        :meth:`load_state_dict`).
        """
        return {
            "counters": {
                "hits": self.hits,
                "misses": self.misses,
                "warm_hits": self.warm_hits,
                "cold_hits": self.cold_hits,
                "engine_calls": self.engine_calls,
                "eval_seconds": self.eval_seconds,
            },
        }

    def load_state_dict(
        self, state: Dict[str, object], records: Sequence[Record] = ()
    ) -> None:
        """Restore a checkpoint, *replacing* the current content.

        ``records`` are the journal's pairs before the checkpoint's commit,
        replayed in record order, so every corner's dict comes back in the
        order the interrupted run built it; pairs after the commit — those
        computed after the checkpoint, a torn tail — are not passed in.

        Replacement (not merge) is what makes a resumed campaign
        bit-identical to the uninterrupted oracle including its hit/miss
        accounting: the cache holds exactly what it held at the checkpoint
        round, even when the persistent store already has pairs the
        interrupted run computed afterwards (those are simply recomputed —
        to identical values — and re-appended).  The warm/cold split is
        re-intersected against the restored content so the split's
        invariant (warm keys are a subset of stored keys) survives.
        """
        counters = state["counters"]
        self.hits = counters["hits"]
        self.misses = counters["misses"]
        self.warm_hits = counters["warm_hits"]
        self.cold_hits = counters["cold_hits"]
        self.engine_calls = counters["engine_calls"]
        self.eval_seconds = counters["eval_seconds"]
        self._store = {}
        self._ingest(records, warm=False)
        self._warm = {
            corner: {key for key in warm_keys if key in self._store.get(corner, ())}
            for corner, warm_keys in self._warm.items()
        }

    def content(
        self,
    ) -> List[Tuple[Tuple[str, float, float], List[bytes], List[np.ndarray]]]:
        """Every cached pair: ``(corner fields, keys, metric rows)`` per corner.

        Corners and keys come in insertion order.  Used to compare caches
        across processes (:func:`repro.shard.parity.union_state_digest`).
        """
        return [
            (
                (corner.process, corner.voltage_factor, corner.temperature_c),
                list(store),
                list(store.values()),
            )
            for corner, store in self._store.items()
        ]

    def state_digest(self) -> str:
        """SHA-256 over the full cache content, bit for bit.

        Every ``(corner, row-key, metric-row)`` triple enters the hash in a
        canonical order (corners by their exact field values, rows by key
        bytes), so two caches digest equal **iff** they hold bit-identical
        results for bit-identical sizings at identical corners — the
        determinism auditor's cache comparison.
        """
        digest = hashlib.sha256()
        corner_order = sorted(
            self._store,
            key=lambda corner: (
                corner.process,
                corner.voltage_factor.hex(),
                corner.temperature_c.hex(),
            ),
        )
        for corner in corner_order:
            digest.update(
                f"{corner.process}|{corner.voltage_factor.hex()}"
                f"|{corner.temperature_c.hex()}".encode("ascii")
            )
            store = self._store[corner]
            for key in sorted(store):
                digest.update(key)
                digest.update(store[key].tobytes())
        return digest.hexdigest()
