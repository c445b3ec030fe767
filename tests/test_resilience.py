"""Crash safety: atomic writes, snapshots, the persistent cache store,
fault injection, checkpoint/resume parity, and the kill-and-resume drill."""

import json
import os
import pickle
import re
import types
import zlib

import numpy as np
import pytest

from repro.analysis.determinism import compare_runs
from repro.bench.registry import BenchCase, get_suite
from repro.bench.runner import run_suite
from repro.resilience import (
    CacheStore,
    FaultPlan,
    InjectedFault,
    SnapshotError,
    StoreError,
    atomic_write_json,
    atomic_write_text,
    fault_point,
    fsync_replace,
    inject,
    load_snapshot,
    registered_fault_sites,
    save_snapshot,
)
from repro.resilience import snapshot as snapshot_module
from repro.resilience.drill import drill_case, drill_suite
from repro.resilience.store import read_prefix
from repro.search.campaign import LATEST_SNAPSHOT

#: The CI workflow whose resilience job runs the drill.
CI_WORKFLOW = os.path.join(
    os.path.dirname(__file__), os.pardir, ".github", "workflows", "ci.yml"
)


def assert_same_run(first, second, excuse=()):
    identical, _, divergence = compare_runs(first, second, excuse=excuse)
    assert identical, divergence


class TestAtomicWrites:
    def test_text_write_and_replace(self, tmp_path):
        target = tmp_path / "artifact.txt"
        atomic_write_text(str(target), "first")
        atomic_write_text(str(target), "second")
        assert target.read_text() == "second"
        # No temp residue: the one file present is the artifact itself.
        assert os.listdir(tmp_path) == ["artifact.txt"]

    def test_json_write_is_stable(self, tmp_path):
        target = tmp_path / "payload.json"
        atomic_write_json(str(target), {"b": 1, "a": [1, 2]})
        text = target.read_text()
        assert text.endswith("\n")
        assert json.loads(text) == {"a": [1, 2], "b": 1}
        # Keys are sorted so byte-diffs of artifacts are meaningful.
        assert text.index('"a"') < text.index('"b"')

    def test_fsync_replace_promotes_partial(self, tmp_path):
        partial = tmp_path / "trace.jsonl.partial"
        final = tmp_path / "trace.jsonl"
        partial.write_text("line\n")
        fsync_replace(str(partial), str(final))
        assert final.read_text() == "line\n"
        assert not partial.exists()


class TestSnapshot:
    def test_roundtrip_preserves_numpy_and_bytes(self, tmp_path):
        path = str(tmp_path / "state.snapshot")
        state = {
            "matrix": np.arange(6, dtype=np.float64).reshape(2, 3),
            "key": b"\x00\x01",
            "nested": {"seeds": (0, 1), "name": "ota_5t"},
        }
        save_snapshot(path, state)
        restored = load_snapshot(path)
        np.testing.assert_array_equal(restored["matrix"], state["matrix"])
        assert restored["key"] == state["key"]
        assert restored["nested"] == state["nested"]

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(SnapshotError, match="does not exist"):
            load_snapshot(str(tmp_path / "nope.snapshot"))

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.snapshot"
        path.write_bytes(b"not a snapshot at all")
        with pytest.raises(SnapshotError, match="bad magic"):
            load_snapshot(str(path))

    def test_truncation_rejected(self, tmp_path):
        path = tmp_path / "state.snapshot"
        save_snapshot(str(path), {"x": 1})
        blob = path.read_bytes()
        path.write_bytes(blob[:-3])
        with pytest.raises(SnapshotError, match="truncated"):
            load_snapshot(str(path))

    def test_bitflip_fails_crc(self, tmp_path):
        path = tmp_path / "state.snapshot"
        save_snapshot(str(path), {"x": 1})
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0x40
        path.write_bytes(bytes(blob))
        with pytest.raises(SnapshotError, match="CRC"):
            load_snapshot(str(path))


class TestCacheStore:
    DIM, METRICS = 3, 2

    def _record(self, value):
        key = np.full(self.DIM, value, dtype=np.float64).tobytes()
        row = np.array([value, -value], dtype=np.float64)
        return b"corner", key, row

    def test_append_then_reopen_replays_records(self, tmp_path):
        path = str(tmp_path / "cache.evc")
        store = CacheStore(path, self.DIM, self.METRICS)
        for value in (1.0, 2.0):
            store.append(*self._record(value))
        store.close()
        reopened = CacheStore(path, self.DIM, self.METRICS)
        assert reopened.repaired_bytes == 0
        assert len(reopened.records) == 2
        tag, key, row = reopened.records[1]
        assert tag == b"corner"
        assert key == self._record(2.0)[1]
        np.testing.assert_array_equal(row, [2.0, -2.0])
        reopened.close()

    def test_torn_tail_truncated_on_reopen(self, tmp_path):
        path = str(tmp_path / "cache.evc")
        store = CacheStore(path, self.DIM, self.METRICS)
        store.append(*self._record(1.0))
        store.close()
        intact_size = os.path.getsize(path)
        torn = b"\x2a\x00\x00\x00torn-frame"
        with open(path, "ab") as handle:
            handle.write(torn)
        reopened = CacheStore(path, self.DIM, self.METRICS)
        # The torn bytes are gone from disk and the good record survived.
        assert reopened.repaired_bytes == len(torn)
        assert os.path.getsize(path) == intact_size
        assert len(reopened.records) == 1
        reopened.close()

    def test_injected_append_fault_leaves_repairable_half_frame(self, tmp_path):
        path = str(tmp_path / "cache.evc")
        store = CacheStore(path, self.DIM, self.METRICS)
        store.append(*self._record(1.0))
        with pytest.raises(InjectedFault):
            with inject(FaultPlan("cache.append", occurrence=1)):
                store.append(*self._record(2.0))
        store.close()
        reopened = CacheStore(path, self.DIM, self.METRICS)
        assert reopened.repaired_bytes > 0
        assert len(reopened.records) == 1
        reopened.close()

    def test_read_prefix_stops_at_the_watermark(self, tmp_path):
        path = str(tmp_path / "cache.journal")
        store = CacheStore(path, self.DIM, self.METRICS)
        store.append(*self._record(1.0))
        store.flush()
        watermark = store.size
        store.append(*self._record(2.0))
        store.close()
        with open(path, "ab") as handle:
            handle.write(b"\x2a\x00torn")
        (record,) = read_prefix(path, self.DIM, self.METRICS, watermark)
        assert record[1] == self._record(1.0)[1]
        assert len(read_prefix(path, self.DIM, self.METRICS, store.size)) == 2
        with pytest.raises(StoreError, match="damaged"):
            read_prefix(path, self.DIM, self.METRICS, watermark + 1)
        with pytest.raises(StoreError, match="fewer than"):
            read_prefix(path, self.DIM, self.METRICS, os.path.getsize(path) + 1)

    def test_shape_mismatch_rejected(self, tmp_path):
        path = str(tmp_path / "cache.evc")
        CacheStore(path, self.DIM, self.METRICS).close()
        with pytest.raises(StoreError, match="dimension"):
            CacheStore(path, self.DIM + 1, self.METRICS)

    def test_foreign_file_rejected(self, tmp_path):
        path = tmp_path / "cache.evc"
        path.write_bytes(b"x" * 64)
        with pytest.raises(StoreError, match="not an evaluation-cache store"):
            CacheStore(str(path), self.DIM, self.METRICS)


class TestFaultInjection:
    def test_all_engine_sites_registered(self):
        assert {"cache.append", "engine.call", "optimizer.refit",
                "snapshot.write"} <= set(registered_fault_sites())

    def test_plan_fires_at_exact_occurrence(self):
        plan = FaultPlan("engine.call", occurrence=3)
        with inject(plan):
            fault_point("engine.call")
            fault_point("engine.call")
            with pytest.raises(InjectedFault):
                fault_point("engine.call")
        assert plan.fired
        assert plan.counts["engine.call"] == 3
        # A fired plan never fires again.
        with inject(plan):
            fault_point("engine.call")

    def test_unarmed_fault_point_is_noop(self):
        fault_point("engine.call")

    def test_unknown_site_rejected_at_arming(self):
        with pytest.raises(ValueError, match="unknown fault site"):
            with inject(FaultPlan("warp.core", occurrence=1)):
                pass

    def test_nested_arming_rejected(self):
        with inject(FaultPlan("engine.call", occurrence=99)):
            with pytest.raises(RuntimeError, match="already armed"):
                with inject(FaultPlan("engine.call", occurrence=1)):
                    pass

    def test_from_seed_is_deterministic(self):
        first = FaultPlan.from_seed(7)
        second = FaultPlan.from_seed(7)
        assert (first.site, first.occurrence) == (second.site, second.occurrence)


#: The drill workload (hard enough to refit) under each registered
#: optimizer, plus a second topology — the resume-parity matrix.
RESUME_CASES = [
    (get_suite("drill")[0], "trust_region"),
    (get_suite("drill")[0], "random"),
    (get_suite("drill")[0], "cross_entropy"),
    (
        BenchCase(
            "two_stage_opamp", "smoke", "nominal",
            max_evaluations=120, max_phases=1,
        ),
        "trust_region",
    ),
]


class TestCheckpointResume:
    @pytest.mark.parametrize(
        "case, optimizer",
        RESUME_CASES,
        ids=[f"{case.topology}-{opt}" for case, opt in RESUME_CASES],
    )
    def test_resume_is_bit_identical(self, tmp_path, case, optimizer):
        seeds = [0, 1]
        ckpt = str(tmp_path / "ckpt")
        oracle = case.build_campaign(seeds, optimizer=optimizer).run(
            checkpoint_dir=ckpt, keep_history=True
        )
        assert oracle.rounds >= 2  # otherwise "mid-run" below is meaningless
        mid = max(1, oracle.rounds // 2)
        resumed = case.build_campaign(seeds, optimizer=optimizer).run(
            resume_from=os.path.join(ckpt, f"round-{mid:05d}.snapshot")
        )
        assert resumed.resumed_from_round == mid
        # Full parity including the hit/miss accounting — snapshot restore
        # carries the cache content and counters exactly.
        assert_same_run(resumed, oracle)

    def test_resume_from_latest_in_directory(self, tmp_path):
        (case,) = get_suite("drill")
        ckpt = str(tmp_path / "ckpt")
        oracle = case.build_campaign([0]).run(checkpoint_dir=ckpt)
        assert os.path.exists(os.path.join(ckpt, LATEST_SNAPSHOT))
        outcome = case.build_campaign([0]).run(resume_from=ckpt)
        # The latest snapshot is the finished campaign: resume loads it and
        # the run loop immediately agrees it is done.
        assert outcome.resumed_from_round == oracle.rounds
        assert_same_run(outcome, oracle)

    def test_resume_from_missing_path_rejected(self, tmp_path):
        (case,) = get_suite("drill")
        campaign = case.build_campaign([0])
        with pytest.raises(FileNotFoundError):
            campaign.run(resume_from=str(tmp_path / "nowhere"))

    def test_empty_checkpoint_dir_is_a_cold_start(self, tmp_path):
        (case,) = get_suite("drill")
        ckpt = str(tmp_path / "ckpt")
        baseline = case.build_campaign([0]).run()
        # resume_from pointing at the (empty) checkpoint dir of a run that
        # died before its first checkpoint: legitimate cold start.
        os.makedirs(ckpt)
        campaign = case.build_campaign([0])
        outcome = campaign.run(checkpoint_dir=ckpt, resume_from=ckpt)
        assert outcome.resumed_from_round is None
        assert_same_run(outcome, baseline)

    def test_snapshot_identity_mismatch_rejected(self, tmp_path):
        (case,) = get_suite("drill")
        ckpt = str(tmp_path / "ckpt")
        donor = case.build_campaign([0])
        donor.run(checkpoint_dir=ckpt)
        receiver = case.build_campaign([0, 1])  # different seed set
        with pytest.raises(ValueError, match="seeds"):
            receiver.run(resume_from=ckpt)

    def test_checkpoint_every_thins_history(self, tmp_path):
        (case,) = get_suite("drill")
        ckpt = str(tmp_path / "ckpt")
        campaign = case.build_campaign([0])
        outcome = campaign.run(
            checkpoint_dir=ckpt, checkpoint_every=2, keep_history=True
        )
        history = sorted(
            name for name in os.listdir(ckpt) if name.startswith("round-")
        )
        expected = [
            f"round-{r:05d}.snapshot"
            for r in range(2, outcome.rounds + 1, 2)
        ]
        assert history == expected


def _crash_at_checkpoint(case, seeds, occurrence, **run_kwargs):
    """Run ``case`` until its ``occurrence``-th checkpoint write kills it."""
    campaign = case.build_campaign(seeds)
    try:
        with inject(FaultPlan("snapshot.write", occurrence=occurrence)) as plan:
            with pytest.raises(InjectedFault):
                campaign.run(**run_kwargs)
    finally:
        campaign.close()
    assert plan.fired


def _finish(case, seeds, **run_kwargs):
    campaign = case.build_campaign(seeds)
    try:
        return campaign.run(**run_kwargs)
    finally:
        campaign.close()


def _journals(directory):
    return sorted(name for name in os.listdir(directory) if name.endswith(".journal"))


def _leaves(tree):
    if isinstance(tree, dict):
        for value in tree.values():
            yield from _leaves(value)
    elif isinstance(tree, (list, tuple)):
        for value in tree:
            yield from _leaves(value)
    else:
        yield tree


class TestCacheJournal:
    """A snapshot points into the cache journal; it never carries pairs."""

    SEEDS = [0]

    @pytest.fixture
    def drill(self):
        (case,) = get_suite("drill")
        return case

    @pytest.fixture
    def oracle(self, drill):
        return drill.build_campaign(self.SEEDS).run()

    @pytest.fixture
    def history(self, tmp_path, drill):
        """A finished ``keep_history`` run: ``(directory, outcome)``."""
        ckpt = str(tmp_path / "history")
        return ckpt, _finish(drill, self.SEEDS, checkpoint_dir=ckpt, keep_history=True)

    def test_snapshot_cache_subtree_is_a_watermark(self, history):
        ckpt, outcome = history
        states = [
            load_snapshot(os.path.join(ckpt, f"round-{r:05d}.snapshot"))["cache"]
            for r in range(1, outcome.rounds + 1)
        ]
        for state in states:
            assert set(state) == {"counters", "journal", "records", "bytes"}
            assert state["journal"] == "cache-00001.journal"
            # No row keys, no metric rows: only names and numbers.
            assert not any(
                isinstance(leaf, (bytes, np.ndarray)) for leaf in _leaves(state)
            )
        first, last = states[0], states[-1]
        assert last["records"] > first["records"] > 0
        assert last["bytes"] == os.path.getsize(os.path.join(ckpt, last["journal"]))
        # The pickled subtree does not grow with the cache (a few bytes of
        # wider integer encodings at most), and is a fraction of its pairs.
        sizes = [len(pickle.dumps(state)) for state in states]
        assert max(sizes) - min(sizes) <= 16
        assert 10 * max(sizes) < last["bytes"] - first["bytes"]

    def test_chained_resume_is_byte_identical(self, tmp_path, drill, oracle):
        first = str(tmp_path / "first")
        second = str(tmp_path / "second")
        # Crash, resume into the same directory, crash again.
        _crash_at_checkpoint(drill, self.SEEDS, 2, checkpoint_dir=first)
        _crash_at_checkpoint(
            drill, self.SEEDS, 2, checkpoint_dir=first, resume_from=first
        )
        assert _journals(first) == ["cache-00001.journal", "cache-00002.journal"]
        assert load_snapshot(os.path.join(first, LATEST_SNAPSHOT))["rounds"] == 2
        # Resume into a different directory, crash there too.
        _crash_at_checkpoint(
            drill, self.SEEDS, 2, checkpoint_dir=second, resume_from=first
        )
        assert _journals(second) == ["cache-00001.journal"]
        assert load_snapshot(os.path.join(second, LATEST_SNAPSHOT))["rounds"] == 3
        # Both directories finish byte-identical to the oracle, counters too.
        for directory, round_ in ((first, 2), (second, 3)):
            outcome = _finish(
                drill, self.SEEDS, checkpoint_dir=directory, resume_from=directory
            )
            assert outcome.resumed_from_round == round_
            assert_same_run(outcome, oracle)

    def test_history_survives_a_crash_resume(self, tmp_path, drill, oracle):
        ckpt = str(tmp_path / "ckpt")
        _crash_at_checkpoint(
            drill, self.SEEDS, 3, checkpoint_dir=ckpt, keep_history=True
        )
        finished = _finish(
            drill,
            self.SEEDS,
            checkpoint_dir=ckpt,
            resume_from=ckpt,
            keep_history=True,
        )
        assert finished.resumed_from_round == 2
        assert _journals(ckpt) == ["cache-00001.journal", "cache-00002.journal"]
        journals = set()
        for round_ in range(1, oracle.rounds + 1):
            path = os.path.join(ckpt, f"round-{round_:05d}.snapshot")
            journals.add(load_snapshot(path)["cache"]["journal"])
            outcome = _finish(drill, self.SEEDS, resume_from=path)
            assert outcome.resumed_from_round == round_
            assert_same_run(outcome, oracle)
        # Rounds 1-2 point into the crashed run's journal, 3+ into the new one.
        assert journals == {"cache-00001.journal", "cache-00002.journal"}

    def test_torn_journal_tail_past_the_watermark_is_ignored(
        self, history, drill, oracle
    ):
        ckpt, _ = history
        with open(os.path.join(ckpt, "cache-00001.journal"), "ab") as handle:
            handle.write(b"\x74\x00\x00\x00half a frame")
        for source in (os.path.join(ckpt, "round-00002.snapshot"), ckpt):
            assert_same_run(_finish(drill, self.SEEDS, resume_from=source), oracle)

    def _damage(self, ckpt, how):
        path = os.path.join(ckpt, "round-00002.snapshot")
        state = load_snapshot(path)["cache"]
        journal = os.path.join(ckpt, state["journal"])
        if how == "missing":
            os.remove(journal)
        elif how == "short":
            with open(journal, "r+b") as handle:
                handle.truncate(state["bytes"] - 1)
        elif how == "bitflip":
            with open(journal, "r+b") as handle:
                handle.seek(state["bytes"] - 12)
                byte = handle.read(1)
                handle.seek(state["bytes"] - 12)
                handle.write(bytes([byte[0] ^ 0x10]))
        return path, state["journal"]

    @pytest.mark.parametrize("how", ["missing", "short", "bitflip"])
    def test_unusable_journal_is_a_snapshot_error(self, history, drill, how):
        ckpt, _ = history
        path, journal = self._damage(ckpt, how)
        campaign = drill.build_campaign(self.SEEDS)
        with pytest.raises(SnapshotError, match=re.escape(journal)):
            campaign.run(resume_from=path)

    def test_snapshot_v1_is_a_snapshot_error(self, tmp_path, drill):
        path = tmp_path / "old.snapshot"
        payload = pickle.dumps(
            {"format": "repro.resilience/snapshot-v1", "state": {"cache": {}}}
        )
        path.write_bytes(
            snapshot_module.MAGIC
            + snapshot_module._HEADER.pack(zlib.crc32(payload), len(payload))
            + payload
        )
        with pytest.raises(SnapshotError, match="old.snapshot.*snapshot-v1"):
            drill.build_campaign(self.SEEDS).run(resume_from=str(path))

    def test_history_snapshot_is_encoded_once(self, tmp_path, drill, monkeypatch):
        dumps = []

        def counting_dumps(obj, *args, **kwargs):
            dumps.append(obj["format"])
            return pickle.dumps(obj, *args, **kwargs)

        monkeypatch.setattr(
            snapshot_module,
            "pickle",
            types.SimpleNamespace(
                dumps=counting_dumps,
                loads=pickle.loads,
                HIGHEST_PROTOCOL=pickle.HIGHEST_PROTOCOL,
            ),
        )
        ckpt = str(tmp_path / "ckpt")
        outcome = _finish(drill, self.SEEDS, checkpoint_dir=ckpt, keep_history=True)
        assert len(dumps) == outcome.rounds
        with open(os.path.join(ckpt, LATEST_SNAPSHOT), "rb") as latest, open(
            os.path.join(ckpt, f"round-{outcome.rounds:05d}.snapshot"), "rb"
        ) as last:
            assert latest.read() == last.read()

    def test_checkpoint_is_one_span_with_its_sizes(self, tmp_path, drill, oracle):
        from repro.obs import tracing

        ckpt = str(tmp_path / "ckpt")
        with tracing() as tracer:
            outcome = _finish(drill, self.SEEDS, checkpoint_dir=ckpt)
        records = [r for r in tracer.records if r["name"] == "resilience.checkpoint"]
        spans = [r for r in records if r["type"] == "span"]
        events = [r for r in records if r["type"] == "event"]
        assert len(spans) == len(events) == outcome.rounds
        assert [span["tags"]["round"] for span in spans] == list(
            range(1, outcome.rounds + 1)
        )
        assert all(span["dur"] > 0 for span in spans)
        records_seen = [span["tags"]["journal_records"] for span in spans]
        assert records_seen == sorted(records_seen) and records_seen[0] > 0
        last = load_snapshot(os.path.join(ckpt, LATEST_SNAPSHOT))
        assert spans[-1]["tags"]["journal_records"] == last["cache"]["records"]
        assert spans[-1]["tags"]["snapshot_bytes"] == os.path.getsize(
            os.path.join(ckpt, LATEST_SNAPSHOT)
        )
        # Tracing stays trajectory-neutral.
        assert_same_run(outcome, oracle)


class TestPersistentCampaignCache:
    def test_cross_process_warm_start_is_bit_identical(self, tmp_path):
        (case,) = get_suite("drill")
        cache_path = str(tmp_path / "cache.evc")
        cold = case.build_campaign([0], cache_path=cache_path)
        try:
            cold_outcome = cold.run()
        finally:
            cold.close()
        assert cold_outcome.cache_misses > 0
        warm = case.build_campaign([0], cache_path=cache_path)
        try:
            outcome = warm.run()
        finally:
            warm.close()
        # Every previously computed pair is served from disk...
        assert warm.cache.preloaded_pairs > 0
        assert warm.cache.warm_hits > 0
        assert outcome.cache_misses == 0
        assert outcome.engine_calls < cold_outcome.engine_calls
        # ...with byte-identical trajectories and final cache content
        # (hit/miss accounting legitimately differs: that is the warm
        # start working, so it is excused exactly as in the drill).
        from repro.resilience.drill import _COUNTER_FIELDS

        assert_same_run(outcome, cold_outcome, excuse=_COUNTER_FIELDS)


class TestDrill:
    def test_drill_suite_green_with_every_site_fired(self, tmp_path):
        report = drill_suite(
            seeds=[0], occurrences=(1,), workdir=str(tmp_path / "drill")
        )
        assert report.ok, report.format()
        # Occurrence 1 of every registered site is reached on the drill
        # workload — each fault actually fired and each resume matched —
        # plus the multi-process worker-kill scenario (one per occurrence).
        assert report.fired_count == len(registered_fault_sites()) + 1
        assert any(o.site == "worker.kill" for o in report.outcomes)
        assert "byte-identical" in report.format()

    def test_append_fault_after_first_checkpoint_resumes_over_torn_store(
        self, tmp_path
    ):
        (case,) = get_suite("drill")
        # Counting probe: how many cache.append passes (store and journal)
        # precede round 1's checkpoint?  The next one is the first append
        # after a snapshot exists.
        probe = FaultPlan("snapshot.write", occurrence=1)
        campaign = case.build_campaign([0], cache_path=str(tmp_path / "probe.evc"))
        try:
            with inject(probe), pytest.raises(InjectedFault):
                campaign.run(checkpoint_dir=str(tmp_path / "probe"))
        finally:
            campaign.close()
        occurrence = probe.counts["cache.append"] + 1
        outcomes = drill_case(case, [0], (occurrence,), str(tmp_path / "drill"))
        (outcome,) = [o for o in outcomes if o.site == "cache.append"]
        assert outcome.fired and outcome.identical, outcome.divergence
        assert outcome.resumed_from_round == 1
        assert outcome.repaired_bytes > 0
        assert "resumed from round 1, repaired" in outcome.format()
        # CI drills this occurrence next to the defaults.
        with open(CI_WORKFLOW) as handle:
            drill_steps = [
                line for line in handle if "python -m repro.resilience drill" in line
            ]
        (step,) = drill_steps
        listed = re.search(r"--occurrences (\S+)", step).group(1).split(",")
        assert str(occurrence) in listed

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--seeds", "0"], "--seeds must be at least 1"),
            (["--suite", "nosuch"], "unknown bench suite 'nosuch'"),
            (["--occurrences", "0"], "--occurrences must be a comma list"),
            (["--occurrences", "x"], "--occurrences must be a comma list"),
        ],
        ids=["zero-seeds", "unknown-suite", "zero-occurrence", "non-integer"],
    )
    def test_cli_drill_rejects_bad_input(self, tmp_path, capsys, argv, message):
        from repro.resilience.__main__ import main

        with pytest.raises(SystemExit) as excinfo:
            main(["drill", "--workdir", str(tmp_path / "drill"), *argv])
        assert excinfo.value.code == 2
        assert message in capsys.readouterr().err

    def test_cli_sites_lists_registry(self, capsys):
        from repro.resilience.__main__ import main

        assert main(["sites"]) == 0
        out = capsys.readouterr().out.split()
        assert out == sorted(set(out))  # registration order is stable here
        assert "snapshot.write" in out


class TestBenchResilienceIntegration:
    def test_payload_reports_warm_cache_hits(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        cold = run_suite("tiny", seeds=[0], cache_dir=cache_dir)
        warm = run_suite("tiny", seeds=[0], cache_dir=cache_dir)
        assert cold["schema"] == "repro.bench/v9"
        cold_block = cold["cases"][0]["resilience"]["cache"]
        warm_block = warm["cases"][0]["resilience"]["cache"]
        assert cold_block["warm_hits"] == 0
        assert warm_block["preloaded_pairs"] > 0
        assert warm_block["warm_hits"] > 0
        assert warm_block["repaired_bytes"] == 0
        # Trajectories are unaffected by the warm start.
        t_cold = cold["cases"][0]["per_seed"][0]
        t_warm = warm["cases"][0]["per_seed"][0]
        assert t_warm["best_sizing"] == t_cold["best_sizing"]

    def test_unpersisted_run_reports_null_block(self):
        payload = run_suite("tiny", seeds=[0])
        resilience = payload["cases"][0]["resilience"]
        assert resilience == {"resumed_from_round": None, "cache": None}


class TestTracerSinkDurability:
    def test_sink_streams_to_partial_and_finalizes_on_close(self, tmp_path):
        from repro.obs import tracing

        sink = tmp_path / "trace.jsonl"
        partial = tmp_path / "trace.jsonl.partial"
        with tracing(sink=str(sink)) as tracer:
            tracer.event("drill.mark", {"n": 1})
            # Mid-run the stream lives in the .partial sidecar,
            # line-buffered: a kill here loses at most a torn final line.
            assert partial.exists()
            assert not sink.exists()
            assert '"drill.mark"' in partial.read_text()
        assert sink.exists()
        assert not partial.exists()
        records = [json.loads(line) for line in sink.read_text().splitlines()]
        assert any(record["name"] == "drill.mark" for record in records)
