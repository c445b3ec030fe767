"""Closed-loop benchmark of the sizing engine, end to end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload search --seed 0 --seconds 20 --trace 0

One process runs the named workload (see ``workloads.py``) repeatedly for
about ``--seconds`` seconds, at least twice, and re-verifies every claimed
solution.  With ``--trace 0`` it reports the end-to-end metrics named in
``BENCHMARK.json``; with ``--trace 1`` it alternates untraced and traced
repetitions and reports the per-layer metrics from the traced ones.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the host (cores, BLAS, thread settings, versions, load).

``--seed`` seeds the order in which each repetition runs the workload's
cases.  The search seeds of each case are fixed by the workload, so every
count (solves, evaluations, simulator pairs and calls) repeats exactly
from run to run, whatever the seed.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing.resource_tracker
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: The modules a user of the engine imports before the first run.
SETUP_IMPORTS = "import repro.bench, repro.search.campaign, repro.shard"
#: Fresh-interpreter import timings per run; their median enters setup_s.
IMPORT_PROBES = 5
#: Repetitions every run makes, whatever ``--seconds`` says.
MIN_REPETITIONS = 2

# The engine's own tracer and contract checks stay off in both runs: the
# layer numbers come from the wrappers in layers.py alone.
os.environ.pop("REPRO_TRACE", None)
os.environ.pop("REPRO_CONTRACTS", None)
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


def host_facts(load_1min: float) -> Dict[str, Any]:
    """The host facts every result records; the benchmark sets none of them."""
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_count": os.cpu_count(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "load_1min": load_1min,
    }


def import_seconds() -> float:
    """Wall time of a fresh interpreter importing the engine."""
    environment = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", SETUP_IMPORTS], env=environment, check=True, cwd=ROOT
    )
    return time.perf_counter() - start


def peak_rss_mb() -> float:
    """Peak resident set of this process or any child it waited for."""
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return peak_kb / 1024.0


def load_metric_units() -> Dict[str, Dict[str, str]]:
    """``{"end_to_end": {name: unit}, "per_layer": {name: unit}}`` from BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    return {
        kind: {metric["name"]: metric["unit"] for metric in spec[kind]}
        for kind in ("end_to_end", "per_layer")
    }


def measure(
    workload: Any,
    seed: int,
    seconds: float,
    traced: bool,
) -> Dict[str, Any]:
    """Run one benchmark measurement; returns the result and its details."""
    from workloads import (
        case_order,
        check_solutions,
        fingerprint,
        layer_metrics,
        outcome_counts,
        run_repetition,
    )

    cpu_count = os.cpu_count() or 1
    imports = [import_seconds() for _ in range(IMPORT_PROBES)]
    rng = random.Random(seed)
    work_dir = str(OUT / f"work-{os.getpid()}")
    repetitions = []
    start = time.perf_counter()
    while True:
        # Traced runs alternate untraced and traced repetitions, so both
        # see the same host conditions and the overhead is a fair ratio.
        repetition = run_repetition(
            workload,
            case_order(rng, workload),
            work_dir,
            traced=traced and len(repetitions) % 2 == 1,
        )
        repetitions.append(repetition)
        elapsed = time.perf_counter() - start
        typical = statistics.median(rep.wall_s + rep.build_s for rep in repetitions)
        if len(repetitions) >= MIN_REPETITIONS and elapsed + typical > seconds:
            break

    pairs_per_rep = len(repetitions[0].pairs())
    attempted = pairs_per_rep * len(repetitions)
    failures = [check_solutions(rep) for rep in repetitions]
    failed = sum(failures)
    consistent = len({fingerprint(rep) for rep in repetitions}) == 1
    counts = outcome_counts(repetitions[0])
    untraced = [rep for rep in repetitions if rep.trace is None]
    wall_s = statistics.median(rep.wall_s for rep in untraced)
    result: Dict[str, Any] = {
        "correct": failed == 0 and consistent,
        "attempted": attempted,
        "failed": failed,
    }
    if traced:
        traced_reps = [rep for rep in repetitions if rep.trace is not None]
        layer_runs = [layer_metrics(rep, cpu_count) for rep in traced_reps]
        metrics = {
            name: statistics.median(run[name] for run in layer_runs)
            for name in layer_runs[0]
        }
        metrics["trace.overhead"] = (
            statistics.median(rep.wall_s for rep in traced_reps) / wall_s - 1.0
        )
        OUT.mkdir(exist_ok=True)
        traced_reps[-1].trace.write_spans(
            str(OUT / f"{workload.name}-seed{seed}.spans.jsonl")
        )
    else:
        metrics = {
            "wall_s": wall_s,
            "setup_s": statistics.median(imports)
            + statistics.median(rep.build_s for rep in repetitions),
            "s_per_solve": statistics.median(
                rep.wall_s / max(counts["solved"], 1) for rep in untraced
            ),
            "solve_rate": (counts["solved"] - failures[0]) / counts["pairs"],
            "ok_frac": 1.0 - failed / attempted,
            "evals_per_solve": counts["evals_per_solve"],
            "sim_pairs": float(counts["sim_pairs"]),
            "sim_calls": float(counts["sim_calls"]),
            "peak_rss_mb": peak_rss_mb(),
        }
    result["metrics"] = metrics
    return {
        "result": result,
        "repetitions": repetitions,
        "imports": imports,
        "consistent": consistent,
    }


def stop_resource_tracker() -> None:
    """Stop and reap the helper process that spawned workers leave behind.

    Starting a ``spawn`` process launches multiprocessing's resource
    tracker, which otherwise outlives this process by a moment.  Closing
    its pipe ends it; ``_stop`` does that and waits for it to exit.
    """
    multiprocessing.resource_tracker._resource_tracker._stop()


def with_units(metrics: Dict[str, float], units: Dict[str, str]) -> Dict[str, Any]:
    """``{name: {"value", "unit"}}``; the names must be exactly those of ``units``."""
    if set(metrics) != set(units):
        raise RuntimeError(
            f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}"
        )
    return {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}


def layer_table(repetitions: Sequence[Any]) -> str:
    """Human-readable self seconds and calls per layer, per traced repetition."""
    lines = []
    for index, rep in enumerate(repetitions):
        if rep.trace is None:
            continue
        lines.append(f"traced repetition {index}: wall {rep.wall_s:.3f} s")
        for layer, seconds in sorted(rep.trace.self_seconds.items(), key=lambda kv: -kv[1]):
            lines.append(
                f"  {layer:24s} {seconds:9.3f} s  {100 * seconds / rep.wall_s:5.1f}%"
                f"  {rep.trace.calls[layer]:8d} calls"
            )
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: no engine source at {SRC}", file=sys.stderr)
        return 2
    load_1min = os.getloadavg()[0]
    units = load_metric_units()["per_layer" if args.trace else "end_to_end"]
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; available: {', '.join(WORKLOADS)}")
    try:
        run = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    finally:
        stop_resource_tracker()
    result = run["result"]
    result["metrics"] = with_units(result["metrics"], units)
    repetitions = run["repetitions"]
    for index, rep in enumerate(repetitions):
        print(
            f"repetition {index}: wall {rep.wall_s:.3f} s, build {rep.build_s:.4f} s"
            + (" (traced)" if rep.trace is not None else ""),
            file=sys.stderr,
        )
    if args.trace:
        print(layer_table(repetitions), file=sys.stderr)
    if not run["consistent"]:
        print("counts or trajectories differ between repetitions", file=sys.stderr)
    print(
        json.dumps(
            {
                "host": host_facts(load_1min),
                "workload": args.workload,
                "seed": args.seed,
                "repetitions": len(repetitions),
                "import_s": run["imports"],
            }
        )
    )
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
