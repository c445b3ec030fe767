"""Outside-in layer tracing: time the public entry points of each layer.

The benchmark measures per-layer costs without touching the package: while
a :class:`LayerTrace` is installed it replaces each layer's public function
*under the name its caller binds* with a wrapper that records one span per
call (layer, start, duration, parent layer) and a few counts.  On
uninstall every original is put back, so untraced repetitions run the
unmodified code.

A layer's *self time* is its spans' duration minus the time of the traced
child spans they enclose; self times of all layers partition the traced
wall time, so they add up to an attribution table.  A call nested inside
a span of the same layer (``super().tell`` inside ``tell``) is not a new
span, so no time or call is counted twice.

Install a trace *before* building any campaign: a topology's
``evaluation_handle()`` binds ``evaluate_corners`` at construction, so a
handle built earlier would keep calling the unwrapped engine.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

import repro.search.campaign as campaign_module
import repro.shard.executor as executor_module
from repro.circuits.topologies.base import SizingProblem
from repro.nn.fused import FusedMLP
from repro.resilience.store import CacheStore
from repro.search.campaign import Campaign
from repro.search.eval_cache import EvaluationCache
from repro.search.optimizer import DatasetOptimizer, available_optimizers, get_optimizer
from repro.shard.executor import ShardedExecutor

#: Counting hook: ``(trace, result, args) -> None``, run after the call.
CountHook = Callable[["LayerTrace", Any, Tuple[Any, ...]], None]


def _count_fit(trace: "LayerTrace", result: Any, args: Tuple[Any, ...]) -> None:
    jobs = args[0]
    trace.counts["nn.fit_jobs"] += len(jobs)
    trace.counts["nn.train_row_epochs"] += sum(
        job.epochs * int(job.inputs.shape[0]) for job in jobs
    )


def _count_predict(trace: "LayerTrace", result: Any, args: Tuple[Any, ...]) -> None:
    trace.counts["nn.predict_rows"] += int(result.shape[0])


def _count_ask(trace: "LayerTrace", result: Any, args: Tuple[Any, ...]) -> None:
    rows = int(result.shape[0])
    trace.counts["optimizer.proposed_rows"] += rows
    trace.counts["optimizer.empty_asks"] += rows == 0


def _count_lookups(trace: "LayerTrace", result: Any, args: Tuple[Any, ...]) -> None:
    trace.counts["eval_cache.lookups"] += int(result.shape[0] * result.shape[1])


def _count_pairs(trace: "LayerTrace", result: Any, args: Tuple[Any, ...]) -> None:
    trace.counts["circuits.pairs"] += int(result.shape[0] * result.shape[1])


def _count_snapshot(trace: "LayerTrace", result: Any, args: Tuple[Any, ...]) -> None:
    trace.counts["resilience.snapshot_bytes"] += os.path.getsize(args[0])


def _patch_points() -> List[Tuple[Any, str, str, Optional[CountHook]]]:
    """``(owner, attribute, layer, count hook)`` for every traced entry point."""
    points: List[Tuple[Any, str, str, Optional[CountHook]]] = [
        (campaign_module, "fit_batched", "nn.fit", _count_fit),
        (FusedMLP, "predict", "nn.predict", _count_predict),
        (EvaluationCache, "evaluate", "eval_cache", _count_lookups),
        (SizingProblem, "evaluate_corners", "circuits.engine", _count_pairs),
        (Campaign, "run", "campaign", None),
        (Campaign, "state_dict", "resilience.state_dict", None),
        (campaign_module, "save_snapshot", "resilience.snapshot", _count_snapshot),
        (CacheStore, "append", "resilience.store", None),
        (executor_module, "merge_stores", "resilience.merge", None),
        (executor_module, "load_snapshot", "resilience.result_load", None),
        (ShardedExecutor, "run", "shard", None),
    ]
    classes = {DatasetOptimizer}
    classes.update(get_optimizer(name) for name in available_optimizers())
    for cls in sorted(classes, key=lambda cls: cls.__name__):
        if "ask" in cls.__dict__:
            points.append((cls, "ask", "optimizer.ask", _count_ask))
        if "tell" in cls.__dict__:
            points.append((cls, "tell", "optimizer.tell", None))
    return points


class LayerTrace:
    """Spans and counts of one traced repetition, kept in memory.

    Use as a context manager: ``__enter__`` installs the wrappers,
    ``__exit__`` restores every original.
    """

    def __init__(self) -> None:
        #: ``(layer, start, duration, parent layer or None)`` per call.
        self.spans: List[Tuple[str, float, float, Optional[str]]] = []
        self.self_seconds: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        # Open spans: [layer, seconds covered by traced children].
        self._stack: List[list] = []
        self._saved: List[Tuple[Any, str, Any]] = []

    def _wrap(self, layer: str, function: Callable, count: Optional[CountHook]) -> Callable:
        stack = self._stack

        @functools.wraps(function)
        def traced(*args, **kwargs):
            if stack and stack[-1][0] == layer:
                return function(*args, **kwargs)
            frame = [layer, 0.0]
            parent = stack[-1][0] if stack else None
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += duration
                self.self_seconds[layer] += duration - frame[1]
                self.calls[layer] += 1
                self.spans.append((layer, start, duration, parent))
            if count is not None:
                count(self, result, args)
            return result

        return traced

    def __enter__(self) -> "LayerTrace":
        for owner, name, layer, count in _patch_points():
            original = owner.__dict__[name]
            self._saved.append((owner, name, original))
            setattr(owner, name, self._wrap(layer, original, count))
        return self

    def __exit__(self, *exc_info) -> None:
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()

    def write_spans(self, path: str) -> None:
        """Write the spans as JSON lines, start times relative to the first."""
        origin = min((span[1] for span in self.spans), default=0.0)
        with open(path, "w") as handle:
            for layer, start, duration, parent in self.spans:
                record = {
                    "layer": layer,
                    "start_s": start - origin,
                    "duration_s": duration,
                    "parent": parent,
                }
                handle.write(json.dumps(record) + "\n")
