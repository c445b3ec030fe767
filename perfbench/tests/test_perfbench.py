"""Tests of the benchmark itself, at a tiny size of each workload mode.

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from repro.bench.registry import BenchCase  # noqa: E402
from repro.circuits.topologies import get_topology  # noqa: E402
from workloads import (  # noqa: E402
    Workload,
    check_solutions,
    fingerprint,
    reverify,
    run_repetition,
)

#: Refits its surrogate, so the nn layer is exercised.
TRUST_CASE = BenchCase("ota_5t", "nominal", "hardest", max_evaluations=120, max_phases=1)
#: A Monte-Carlo case that solves within its budget.
RANDOM_CASE = BenchCase("two_stage_opamp", "smoke", "nominal", optimizer="random")

TINY = {
    "search": Workload("search", (TRUST_CASE,), (0, 1)),
    "monte-carlo": Workload("monte-carlo", (RANDOM_CASE,), (0, 1)),
    "mc45-ckpt": Workload("mc45-ckpt", (RANDOM_CASE,), (0,), mode="checkpoint"),
    "fleet": Workload("fleet", (TRUST_CASE,), (0, 1), mode="sharded"),
}


@pytest.fixture
def work_dir(tmp_path):
    return str(tmp_path / "work")


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("traced", [False, True])
def test_every_metric_is_reported_with_its_unit(name, traced):
    measured = run.measure(TINY[name], seed=0, seconds=0, traced=traced)
    result = measured["result"]
    assert result["correct"]
    assert result["attempted"] == 2 * len(TINY[name].seeds)
    units = run.load_metric_units()["per_layer" if traced else "end_to_end"]
    reported = run.with_units(result["metrics"], units)
    assert set(reported) == set(units)
    for name_, entry in reported.items():
        assert entry["unit"] == units[name_]
        assert np.isfinite(entry["value"])
    json.dumps(result)


@pytest.mark.parametrize("name", sorted(TINY))
def test_wrappers_do_not_change_trajectories(name, work_dir):
    workload = TINY[name]
    plain = run_repetition(workload, [0], work_dir)
    traced = run_repetition(workload, [0], work_dir, traced=True)
    assert fingerprint(plain) == fingerprint(traced)
    assert traced.trace.spans


def test_wrappers_are_removed_after_a_traced_repetition(work_dir):
    from repro.circuits.topologies.base import SizingProblem
    from repro.search.eval_cache import EvaluationCache

    before = (SizingProblem.evaluate_corners, EvaluationCache.evaluate)
    run_repetition(TINY["search"], [0], work_dir, traced=True)
    assert (SizingProblem.evaluate_corners, EvaluationCache.evaluate) == before


def test_fleet_matches_the_in_process_campaign(work_dir):
    fleet = run_repetition(TINY["fleet"], [0], work_dir)
    in_process = run_repetition(
        dataclasses.replace(TINY["fleet"], mode="campaign"), [0], work_dir
    )
    sharded = {(case.name, seed): result for case, seed, result in fleet.pairs()}
    for case, seed, result in in_process.pairs():
        twin = sharded[(case.name, seed)]
        assert twin.evaluations == result.evaluations
        assert np.array_equal(twin.best_vector, result.best_vector)


def test_reverify_rejects_a_perturbed_best_vector(work_dir):
    repetition = run_repetition(TINY["monte-carlo"], [0], work_dir)
    case, _, result = repetition.pairs()[0]
    assert result.solved_all_corners
    assert reverify(case, result.best_vector)
    assert check_solutions(repetition) == 0

    problem = get_topology(case.topology)(case.technology, load_cap=case.load_cap)
    samples = problem.design_space().sample(np.random.default_rng(0), 32)
    failing = next(vector for vector in samples if not reverify(case, vector))
    result.best_vector = failing
    assert check_solutions(repetition) == 1


def test_doc_lists_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    doc = (BENCH / "README.md").read_text()
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert f"`{metric['name']}`" in doc, metric["name"]
    for workload in spec["workloads"]:
        assert f"`{workload['name']}`" in doc, workload["name"]


def test_fails_without_the_engine_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "search", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_the_resource_tracker_is_stopped_and_reaped():
    import multiprocessing
    from multiprocessing import resource_tracker

    # Starting a spawned process starts the tracker, as fleet's workers do.
    worker = multiprocessing.get_context("spawn").Process(target=os.getpid)
    worker.start()
    worker.join()
    tracker = resource_tracker._resource_tracker
    pid = tracker._pid
    assert pid is not None
    run.stop_resource_tracker()
    assert tracker._pid is None
    with pytest.raises(ChildProcessError):
        os.waitpid(pid, os.WNOHANG)
