"""Structured tracing: spans, events, ring buffer, optional JSONL sink.

The :class:`Tracer` emits flat record dicts — ``{"type", "id", "parent",
"name", "start", "dur", "tags"}`` — where ``start`` is seconds on the
monotonic clock relative to the tracer's epoch, ``dur`` the span duration
(0 for events), and ``parent`` the id of the span that was open when this
record began, so a trace reconstructs the call tree (``Campaign.run`` >
round > stacked pass > ``evaluate_corners``, and round > refit >
``nn.fused_fit``).  Records
land in a bounded in-memory ring (oldest dropped first, drops counted) and,
when a sink path is given, are appended to a JSONL file that
``python -m repro.obs report`` renders.

Like the contracts layer (:mod:`repro.analysis.contracts`) tracing is **off
by default and near-free when off**: the :func:`span` decorator's disabled
path is one flag test before delegating, and :func:`event` is one flag
test.  Enable with the ``REPRO_TRACE`` environment variable (``1`` for the
ring only, any other value is taken as a JSONL sink path) or in-process
with :func:`set_tracing` / the :func:`tracing` context manager.  Tracing
never touches RNG state or numerics, so trajectories are bit-identical on
or off (locked by tests and the determinism auditor).

:class:`profiled` is the third primitive: a context manager that *always*
measures wall time (exposing ``.seconds``) and additionally records a span
when tracing is on — the home for the accounting the engine must keep even
untraced (``eval_seconds``, ``refit_seconds``, bench wall clocks).  All
direct ``time.perf_counter()`` use outside this module is flagged by the
``ad-hoc-timing`` lint rule.
"""

from __future__ import annotations

import atexit
import functools
import itertools
import json
import os
import time
from collections import deque
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Tuple

from repro.obs.metrics import MetricsRegistry

#: Ring capacity in records; a smoke-suite case emits a few thousand.
DEFAULT_RING_SIZE = 1 << 16


def _json_default(value: Any) -> Any:
    """Serialize tag values the engine uses (numpy scalars, corners)."""
    for caster in (int, float):
        try:
            return caster(value)
        except (TypeError, ValueError):
            continue
    return str(value)


class _SpanHandle:
    """Open-span bookkeeping passed between ``start`` and ``finish``."""

    __slots__ = ("id", "parent", "name", "tags", "t0")

    def __init__(
        self,
        span_id: int,
        parent: Optional[int],
        name: str,
        tags: Optional[Dict[str, Any]],
    ) -> None:
        self.id = span_id
        self.parent = parent
        self.name = name
        self.tags = tags
        self.t0 = time.perf_counter()


class Tracer:
    """Collect span/event records into a ring buffer and optional JSONL sink.

    Parameters
    ----------
    sink:
        Path of a JSONL file to append every record to (opened fresh), or
        ``None`` for the in-memory ring only.
    ring_size:
        Ring capacity; once full the oldest records are dropped (counted in
        :attr:`dropped`).  The owned :attr:`metrics` registry keeps exact
        per-name rollups regardless of ring wrap.
    """

    def __init__(
        self, sink: Optional[str] = None, ring_size: int = DEFAULT_RING_SIZE
    ) -> None:
        self.epoch = time.perf_counter()
        self.records: "deque[Dict[str, Any]]" = deque(maxlen=int(ring_size))
        self.dropped = 0
        self.emitted = 0
        self.metrics = MetricsRegistry()
        self.sink_path = sink
        self._partial_path = sink + ".partial" if sink else None
        # The sink streams line-buffered into a ``.partial`` sidecar, so a
        # killed process leaves every completed record on disk (at worst one
        # torn final line, which the loader tolerates); close() fsyncs and
        # promotes it to the real path — readers of ``sink`` only ever see a
        # finalized trace.
        self._sink = (
            # analysis: allow(non-atomic-artifact-write) streaming sink, finalized by close()
            open(self._partial_path, "w", encoding="utf-8", buffering=1)
            if sink
            else None
        )
        if self._sink is not None:
            # Belt and braces for sinks that outlive their scope (the
            # REPRO_TRACE process tracer): finalize at interpreter exit.
            atexit.register(self.close)
        self._ids = itertools.count(1)
        self._stack: List[int] = []

    # -- record plumbing -------------------------------------------------
    def _emit(self, record: Dict[str, Any]) -> None:
        if len(self.records) == self.records.maxlen:
            self.dropped += 1
        self.records.append(record)
        self.emitted += 1
        if self._sink is not None:
            self._sink.write(
                json.dumps(record, sort_keys=True, default=_json_default) + "\n"
            )

    def close(self) -> None:
        """Finalize the JSONL sink (the ring stays readable); idempotent.

        Flushes and fsyncs the ``.partial`` sidecar, then atomically
        promotes it to :attr:`sink_path`.
        """
        if self._sink is None:
            return
        # Imported here, not at module level: repro.resilience's fault
        # registry emits repro.obs events, so the package-level import
        # would be circular.  close() is cold.
        from repro.resilience.atomic import fsync_replace

        sink = self._sink
        self._sink = None
        sink.flush()
        try:
            os.fsync(sink.fileno())
        except OSError:  # pragma: no cover - exotic filesystems
            pass
        sink.close()
        fsync_replace(self._partial_path, self.sink_path)
        atexit.unregister(self.close)

    # -- spans and events --------------------------------------------------
    def start(self, name: str, tags: Optional[Dict[str, Any]] = None) -> _SpanHandle:
        """Open a span; the current innermost open span becomes its parent."""
        handle = _SpanHandle(
            next(self._ids), self._stack[-1] if self._stack else None, name, tags
        )
        self._stack.append(handle.id)
        return handle

    def finish(self, handle: _SpanHandle) -> float:
        """Close a span, emit its record, and return its duration."""
        duration = time.perf_counter() - handle.t0
        # Well-nested code pops its own id; unwinding through an exception
        # can leave descendants on the stack, so clear down to the handle.
        while self._stack and self._stack[-1] != handle.id:
            self._stack.pop()
        if self._stack:
            self._stack.pop()
        self._emit(
            {
                "type": "span",
                "id": handle.id,
                "parent": handle.parent,
                "name": handle.name,
                "start": handle.t0 - self.epoch,
                "dur": duration,
                "tags": dict(handle.tags) if handle.tags else {},
            }
        )
        self.metrics.histogram("span." + handle.name).observe(duration)
        return duration

    def event(self, name: str, tags: Optional[Dict[str, Any]] = None) -> None:
        """A zero-duration record (phase transitions, cache traffic marks)."""
        self._emit(
            {
                "type": "event",
                "id": next(self._ids),
                "parent": self._stack[-1] if self._stack else None,
                "name": name,
                "start": time.perf_counter() - self.epoch,
                "dur": 0.0,
                "tags": dict(tags) if tags else {},
            }
        )
        self.metrics.counter("event." + name).inc()


# ----------------------------------------------------------------------
# Process-wide enablement (mirrors repro.analysis.contracts).


def _env_sink() -> Tuple[bool, Optional[str]]:
    value = os.environ.get("REPRO_TRACE", "").strip()
    if value.lower() in ("", "0", "false", "no"):
        return False, None
    if value.lower() in ("1", "true", "yes", "on"):
        return True, None
    return True, value  # any other value names a JSONL sink path


_ENABLED, _env_sink_path = _env_sink()
# A sinked Tracer registers its own atexit finalizer, covering the
# REPRO_TRACE process tracer here as well.
_TRACER = Tracer(sink=_env_sink_path)
del _env_sink_path


def tracing_enabled() -> bool:
    """Whether spans/events are currently being recorded."""
    return _ENABLED


def get_tracer() -> Tracer:
    """The active tracer (always exists; it may simply not be fed)."""
    return _TRACER


def set_tracing(
    enabled: bool,
    sink: Optional[str] = None,
    ring_size: int = DEFAULT_RING_SIZE,
) -> Tuple[bool, Tracer]:
    """Flip tracing on/off; returns the previous ``(enabled, tracer)`` pair.

    Enabling installs a **fresh** tracer (new epoch, empty ring, empty
    metrics) so the recorded window has a clean zero; disabling leaves the
    current tracer in place for post-hoc reads.  Prefer the :func:`tracing`
    context manager, which also restores the previous state and closes the
    sink.
    """
    global _ENABLED, _TRACER
    previous = (_ENABLED, _TRACER)
    if enabled:
        _TRACER = Tracer(sink=sink, ring_size=ring_size)
    _ENABLED = bool(enabled)
    return previous


@contextmanager
def tracing(
    sink: Optional[str] = None,
    ring_size: int = DEFAULT_RING_SIZE,
    enabled: bool = True,
) -> Iterator[Tracer]:
    """Scope tracing to a block; yields the (fresh) tracer.

    ``tracing(sink="trace.jsonl")`` records the block to a JSONL file and
    closes it on exit; ``tracing()`` records to the ring only (read
    ``tracer.records`` afterwards — the yielded tracer outlives the block).
    ``enabled=False`` scopes tracing *off* (for overhead comparisons).
    """
    global _ENABLED, _TRACER
    previous_enabled, previous_tracer = set_tracing(
        enabled, sink=sink, ring_size=ring_size
    )
    tracer = _TRACER
    try:
        yield tracer
    finally:
        _ENABLED, _TRACER = previous_enabled, previous_tracer
        if tracer is not previous_tracer:
            tracer.close()


# ----------------------------------------------------------------------
# Instrumentation primitives.


def event(name: str, **tags: Any) -> None:
    """Record a zero-duration event when tracing is on (one flag test off)."""
    if _ENABLED:
        _TRACER.event(name, tags)


def span(
    name: str, self_tags: Optional[Mapping[str, str]] = None
) -> Callable[[Callable], Callable]:
    """Decorator recording each call of ``fn`` as a span.

    ``self_tags`` maps tag keys to attribute names read off the first
    positional argument when tracing is on —
    ``@span("topology.evaluate_corners", self_tags={"topology": "name"})``
    tags every record with the concrete topology.  The disabled path is a
    single flag test before delegating, so decorating a hot entry point
    costs nothing when tracing is off.
    """
    tag_items = tuple(self_tags.items()) if self_tags else ()

    def decorate(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not _ENABLED:
                return fn(*args, **kwargs)
            tags = (
                {key: getattr(args[0], attr, None) for key, attr in tag_items}
                if tag_items and args
                else None
            )
            handle = _TRACER.start(name, tags)
            try:
                return fn(*args, **kwargs)
            finally:
                _TRACER.finish(handle)

        wrapper.__traced_span__ = name
        return wrapper

    return decorate


class profiled:
    """Context manager that always times and records a span when tracing.

    The engine's accounting (``eval_seconds``, ``refit_seconds``, bench
    wall clocks) must keep working with tracing off, so ``profiled`` is the
    one primitive that pays a clock read unconditionally; use it at coarse
    points only.  The measured duration is exposed as :attr:`seconds`, and
    :meth:`annotate` adds tags (e.g. hit/miss counts known only after the
    work) that land in the emitted record.
    """

    __slots__ = ("name", "tags", "seconds", "_handle", "_t0")

    def __init__(self, name: str, **tags: Any) -> None:
        self.name = name
        self.tags = tags
        self.seconds = 0.0
        self._handle: Optional[_SpanHandle] = None
        self._t0 = 0.0

    def annotate(self, **tags: Any) -> None:
        """Attach tags; visible in the record if added before the block ends."""
        self.tags.update(tags)

    def __enter__(self) -> "profiled":
        if _ENABLED:
            self._handle = _TRACER.start(self.name, self.tags)
            self._t0 = self._handle.t0
        else:
            self._handle = None
            self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        if self._handle is not None:
            self.seconds = _TRACER.finish(self._handle)
            self._handle = None
        else:
            self.seconds = time.perf_counter() - self._t0
