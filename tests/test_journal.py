"""Unit tests for the run journal: records, replay, listing, auditing."""

from __future__ import annotations

import hashlib
import json
import time

import pytest

from repro.experiments.engine import CACHE_VERSION, ResultCache
from repro.experiments.journal import (
    JournalCorruptError,
    ManifestMismatchError,
    RunJournal,
    UnknownRunError,
    compute_run_id,
    journal_path,
    list_runs,
    manifest_diffs,
    manifest_for,
    read_journal,
    verify_run,
)


def _manifest(**overrides):
    base = dict(
        workload_digest="d" * 16,
        configs=["fcfs/easy", "fcfs/list"],
        total_nodes=128,
        weighted=False,
        recompute_threshold=2.0 / 3.0,
        failures_digest="",
        recovery="",
        cache_version=CACHE_VERSION,
        workload_name="unit",
        n_jobs=5,
    )
    base.update(overrides)
    return manifest_for(**base)


class TestRunId:
    def test_deterministic(self):
        assert _manifest()["run"] == _manifest()["run"]
        assert len(_manifest()["run"]) == 12

    def test_every_identity_field_changes_the_id(self):
        base = _manifest()["run"]
        assert _manifest(workload_digest="e" * 16)["run"] != base
        assert _manifest(total_nodes=256)["run"] != base
        assert _manifest(weighted=True)["run"] != base
        assert _manifest(recompute_threshold=0.5)["run"] != base
        assert _manifest(failures_digest="ff")["run"] != base
        assert _manifest(recovery="requeue")["run"] != base
        assert _manifest(configs=["fcfs/easy"])["run"] != base
        assert _manifest(cache_version=CACHE_VERSION + 1)["run"] != base

    def test_display_fields_do_not_change_the_id(self):
        base = _manifest()["run"]
        assert _manifest(workload_name="other")["run"] == base
        assert _manifest(n_jobs=9999)["run"] == base

    def test_manifest_diffs_names_the_drifted_field(self):
        old, new = _manifest(), _manifest(total_nodes=512)
        diffs = manifest_diffs(old, new)
        assert set(diffs) == {"total_nodes"}
        assert diffs["total_nodes"] == (128, 512)
        err = ManifestMismatchError(old["run"], diffs)
        assert "total_nodes" in str(err) and old["run"] in str(err)
        assert manifest_diffs(old, old) == {}


class TestJournalRoundTrip:
    def _fresh(self, tmp_path, manifest=None):
        manifest = manifest or _manifest()
        path = journal_path(tmp_path, manifest["run"])
        return path, RunJournal.create(path, manifest)

    def test_create_then_replay(self, tmp_path):
        path, journal = self._fresh(tmp_path)
        with journal:
            journal.record_cell("fcfs/easy", "scheduled", fingerprint="ab" * 32)
            journal.record_cell("fcfs/easy", "started", fingerprint="ab" * 32)
            journal.record_cell(
                "fcfs/easy", "completed", fingerprint="ab" * 32, objective=1.5
            )
            journal.record_cell("fcfs/list", "scheduled", fingerprint="cd" * 32)
        replay = read_journal(path)
        assert replay.run_id == journal.run_id
        assert not replay.torn_tail
        assert replay.completed == ["fcfs/easy"]
        assert replay.remaining == ["fcfs/list"]
        assert not replay.complete
        cell = replay.cells["fcfs/easy"]
        assert cell.state == "completed"
        assert cell.objective == 1.5
        assert cell.fingerprint == "ab" * 32
        assert cell.attempts == 1

    def test_latest_record_wins(self, tmp_path):
        path, journal = self._fresh(tmp_path)
        with journal:
            journal.record_cell("fcfs/easy", "started", fingerprint="ab" * 32)
            journal.record_cell("fcfs/easy", "failed", detail="worker crashed")
            journal.record_cell("fcfs/easy", "started")
            journal.record_cell("fcfs/easy", "completed", objective=2.0)
        cell = read_journal(path).cells["fcfs/easy"]
        assert cell.state == "completed"
        assert cell.attempts == 2
        assert cell.failures == 1

    def test_unknown_state_rejected(self, tmp_path):
        _, journal = self._fresh(tmp_path)
        with journal:
            with pytest.raises(ValueError, match="unknown cell state"):
                journal.record_cell("fcfs/easy", "exploded")

    def test_open_resume_appends_marker(self, tmp_path):
        """``open`` on a journal that replays continues it: a ``resumed``
        marker, then the new records, after the old ones."""
        path, journal = self._fresh(tmp_path)
        with journal:
            journal.record_cell("fcfs/easy", "completed", objective=1.0)
        resumed, replay = RunJournal.open(path, _manifest())
        with resumed:
            assert replay.completed == ["fcfs/easy"]
            resumed.record_cell("fcfs/list", "completed", objective=2.0)
        replay = read_journal(path)
        assert replay.resumes == 1
        assert replay.complete

    def test_open_starts_a_missing_journal(self, tmp_path):
        manifest = _manifest()
        path = journal_path(tmp_path / "runs", manifest["run"])
        journal, replay = RunJournal.open(path, manifest)
        with journal:
            journal.record_cell("fcfs/easy", "started")
        assert replay is None
        replay = read_journal(path)
        assert replay.resumes == 0 and replay.records == 2
        assert replay.run_id == manifest["run"]

    def test_open_starts_afresh_over_a_journal_that_does_not_replay(self, tmp_path):
        path, journal = self._fresh(tmp_path)
        with journal:
            journal.record_cell("fcfs/easy", "completed", objective=1.0)
            journal.record_cell("fcfs/list", "started")
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[1] = lines[1][: len(lines[1]) // 2]  # a torn interior line
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        journal, replay = RunJournal.open(path, _manifest())
        journal.close()
        assert replay is None
        replay = read_journal(path)
        assert replay.records == 1 and replay.cells == {}

    def test_open_refuses_a_colliding_manifest_and_leaves_it(self, tmp_path):
        """Another grid's journal under the same run id (a 12-hex prefix
        collision) is neither continued nor overwritten."""
        manifest = _manifest()
        path = journal_path(tmp_path, manifest["run"])
        with RunJournal.create(path, {**manifest, "total_nodes": 512}) as other:
            other.record_cell("fcfs/easy", "completed", objective=1.0)
        before = path.read_bytes()
        with pytest.raises(ManifestMismatchError) as excinfo:
            RunJournal.open(path, manifest)
        assert set(excinfo.value.diffs) == {"total_nodes"}
        assert excinfo.value.run_id == manifest["run"]
        assert path.read_bytes() == before

    def test_continued_journal_counts_seq_on(self, tmp_path):
        """``seq`` is a record's position in the journal: a journal
        continued twice numbers its records 0, 1, 2, ... without repeats."""
        path, journal = self._fresh(tmp_path)
        with journal:
            journal.record_cell("fcfs/easy", "started")
        for _ in range(2):
            resumed, _replay = RunJournal.open(path, _manifest())
            with resumed:
                resumed.record_cell("fcfs/easy", "completed", objective=1.0)
        seqs = [
            json.loads(line)["seq"]
            for line in path.read_text(encoding="utf-8").splitlines()
        ]
        assert seqs == list(range(6))
        assert read_journal(path).resumes == 2

    def test_duplicate_seqs_still_replay_and_continue(self, tmp_path):
        """Journals continued before ``seq`` counted on restart it at 0
        after every marker; replay does not read it, so they still replay,
        and a continuation numbers on past every earlier record."""
        manifest = _manifest()
        path = journal_path(tmp_path, manifest["run"])
        records = [
            {**manifest, "created": 1.0e9, "pid": 1},
            {"kind": "cell", "key": "fcfs/easy", "state": "started", "t": 1.0e9},
            {"kind": "resumed", "at": 1.0e9, "pid": 2},
            {"kind": "cell", "key": "fcfs/easy", "state": "completed",
             "t": 1.0e9, "objective": 1.0},
        ]
        path.write_text(
            "".join(
                TestFleetEraJournal._line({**record, "seq": seq}) + "\n"
                for seq, record in zip((0, 1, 0, 1), records)
            ),
            encoding="utf-8",
        )
        journal, replay = RunJournal.open(path, manifest)
        with journal:
            assert replay.completed == ["fcfs/easy"] and replay.resumes == 1
            journal.record_cell("fcfs/list", "completed", objective=2.0)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert [json.loads(line)["seq"] for line in lines[4:]] == [4, 5]
        replay = read_journal(path)
        assert replay.complete and replay.resumes == 2

    def test_create_truncates_previous_attempt(self, tmp_path):
        path, journal = self._fresh(tmp_path)
        with journal:
            journal.record_cell("fcfs/easy", "completed", objective=1.0)
        with RunJournal.create(path, _manifest()) as fresh:
            fresh.record_cell("fcfs/list", "started")
        replay = read_journal(path)
        assert replay.completed == []
        assert set(replay.cells) == {"fcfs/list"}


class TestTornAndCorrupt:
    def _journal_with_cells(self, tmp_path):
        manifest = _manifest()
        path = journal_path(tmp_path, manifest["run"])
        with RunJournal.create(path, manifest) as journal:
            journal.record_cell("fcfs/easy", "completed", objective=1.0)
            journal.record_cell("fcfs/list", "started")
        return path

    def test_torn_final_line_dropped(self, tmp_path):
        path = self._journal_with_cells(tmp_path)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"kind": "cell", "key": "fcfs/li')  # died mid-write
        replay = read_journal(path)
        assert replay.torn_tail
        assert replay.completed == ["fcfs/easy"]
        assert replay.cells["fcfs/list"].state == "started"

    def test_torn_interior_line_raises(self, tmp_path):
        path = self._journal_with_cells(tmp_path)
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[1] = lines[1][: len(lines[1]) // 2]  # tear a middle record
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(JournalCorruptError, match="line 2"):
            read_journal(path)

    def test_checksum_catches_edited_record(self, tmp_path):
        path = self._journal_with_cells(tmp_path)
        lines = path.read_text(encoding="utf-8").splitlines()
        doctored = json.loads(lines[1])
        doctored["objective"] = 99.0  # valid JSON, but the crc no longer matches
        lines[1] = json.dumps(doctored, sort_keys=True)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(JournalCorruptError):
            read_journal(path)

    def test_resume_cuts_the_torn_tail_before_appending(self, tmp_path):
        """A continued journal is appended to; glued onto a torn tail its
        first record would turn a tolerated torn *final* line into a fatal
        interior one."""
        path = self._journal_with_cells(tmp_path)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"kind": "cell", "key": "fcfs/li')
        resumed, replay = RunJournal.open(path, _manifest())
        with resumed:
            assert replay.torn_tail
            resumed.record_cell("fcfs/list", "completed", objective=2.0)
        replay = read_journal(path)
        assert not replay.torn_tail
        assert replay.resumes == 1
        assert replay.complete

    def test_continuing_ends_a_last_line_whose_newline_never_landed(self, tmp_path):
        """A write torn just before its newline leaves a whole record
        without one: the continuation starts a new line, not the same."""
        path = self._journal_with_cells(tmp_path)
        path.write_bytes(path.read_bytes().rstrip(b"\n"))
        resumed, replay = RunJournal.open(path, _manifest())
        with resumed:
            assert not replay.torn_tail
            resumed.record_cell("fcfs/list", "completed", objective=2.0)
        replay = read_journal(path)
        assert replay.records == 5 and replay.resumes == 1
        assert replay.complete

    def test_missing_manifest_raises(self, tmp_path):
        path = tmp_path / "nomanifest.jsonl"
        path.write_text("", encoding="utf-8")
        with pytest.raises(JournalCorruptError, match="no manifest"):
            read_journal(path)

    def test_missing_file_is_unknown_run(self, tmp_path):
        with pytest.raises(UnknownRunError):
            read_journal(tmp_path / "nope.jsonl")


class TestGroupCommit:
    """``RunJournal.batch``: one fsync for the records of one loop."""

    @pytest.fixture
    def fsyncs(self, monkeypatch):
        import os

        calls = []
        real = os.fsync
        monkeypatch.setattr(os, "fsync", lambda fd: (calls.append(fd), real(fd))[1])
        return calls

    def test_batch_shares_one_fsync_and_nests(self, tmp_path, fsyncs):
        manifest = _manifest()
        path = journal_path(tmp_path, manifest["run"])
        with RunJournal.create(path, manifest) as journal:
            assert len(fsyncs) == 1  # the manifest
            with journal.batch():
                journal.record_cell("fcfs/easy", "scheduled")
                with journal.batch():
                    journal.record_cell("fcfs/list", "scheduled")
                journal.record_cell("fcfs/easy", "started")
                assert len(fsyncs) == 1  # nothing synced inside, nested or not
            assert len(fsyncs) == 2
            with journal.batch():
                pass  # nothing written: nothing to sync
            assert len(fsyncs) == 2
            journal.record_cell("fcfs/easy", "completed", objective=1.0)
            assert len(fsyncs) == 3  # outside a batch: per record, as ever
            assert read_journal(path).records == 5

    def test_exception_leaving_a_batch_still_syncs(self, tmp_path, fsyncs):
        manifest = _manifest()
        path = journal_path(tmp_path, manifest["run"])
        journal = RunJournal.create(path, manifest)
        with pytest.raises(KeyError):
            with journal.batch():
                journal.record_cell("fcfs/easy", "completed", objective=1.0)
                raise KeyError("boom")
        assert len(fsyncs) == 2
        # Readable before close(): the record did not wait in a buffer.
        assert read_journal(path).completed == ["fcfs/easy"]
        journal.record_cell("fcfs/list", "started")
        assert len(fsyncs) == 3  # and the journal is back to per-record syncs
        journal.close()

    def test_crash_inside_a_batch_loses_only_that_batch(self, tmp_path):
        """What is on disk while a batch is open is what a killed driver
        leaves: every record from before the batch, and of the batch a
        prefix whose last line may be torn."""
        configs = [f"row{i}/easy" for i in range(120)]
        manifest = _manifest(configs=configs)
        path = journal_path(tmp_path, manifest["run"])
        journal = RunJournal.create(path, manifest)
        journal.record_cell(configs[0], "completed", objective=1.0)
        with journal.batch():
            for key in configs[1:]:  # more than the file buffer holds
                journal.record_cell(key, "scheduled", fingerprint="ab" * 32)
            crashed = tmp_path / "crashed.jsonl"
            crashed.write_bytes(path.read_bytes())
        journal.close()
        assert read_journal(path).records == 1 + len(configs)
        replay = read_journal(crashed)
        assert replay.completed == [configs[0]]
        assert 2 <= replay.records < 1 + len(configs)  # part of the batch is gone
        # What survived is a prefix of the batch, every line of it intact.
        assert list(replay.cells) == configs[: len(replay.cells)]
        assert {c.state for c in replay.cells.values()} <= {"completed", "scheduled"}
        # And the wreck continues: the torn line goes, new records follow.
        resumed, _ = RunJournal.open(crashed, manifest)
        with resumed:
            resumed.record_cell(configs[1], "completed", objective=2.0)
        assert read_journal(crashed).completed == configs[:2]


class TestCrashInsideBatchResume:
    """The disk state a driver killed inside a dispatch batch leaves —
    cache entries written, journal lines still in the buffer — reruns to
    the uninterrupted grid and never shows a completion without its
    cache entry."""

    #: Which fsync of the run the driver dies at: the manifest is the
    #: first, then the commits of the lookup, the submit and the first
    #: outcome batch.
    @pytest.mark.parametrize("dies_at", [2, 3, 4])
    def test_resume_after_crash_at_batch_commit(self, tmp_path, monkeypatch, dies_at):
        import shutil

        from repro.experiments.engine import ExperimentEngine
        from repro.experiments.paper import probabilistic_workload
        from repro.experiments.runner import SchedulerConfig

        jobs = probabilistic_workload(60, seed=5)
        configs = [
            SchedulerConfig(row, column)
            for row in ("fcfs", "psrs")
            for column in ("list", "easy")
        ]
        live, wreck = tmp_path / "live", tmp_path / "wreck"
        syncs = []
        real_sync = RunJournal._sync

        def snapshotting_sync(journal):
            syncs.append(journal)
            if len(syncs) == dies_at:
                # Before the flush: exactly what SIGKILL here would leave.
                shutil.copytree(live, wreck)
            real_sync(journal)

        monkeypatch.setattr(RunJournal, "_sync", snapshotting_sync)
        with ExperimentEngine(workers=2, cache=live, handle_signals=False) as engine:
            fresh = engine.run(jobs, total_nodes=256, configs=configs)
            run_id = engine.stats.run_id
            assert engine.stats.degraded_cells == 0
        monkeypatch.undo()
        assert wreck.is_dir()

        cache = ResultCache(wreck)
        replay = read_journal(journal_path(wreck / "runs", run_id))
        for key in replay.completed:
            assert cache.status(replay.cells[key].fingerprint) == "hit", key
        assert len(replay.completed) < len(configs)
        audit = verify_run(run_id, journal_dir=wreck / "runs", cache=cache)
        assert audit.ok  # orphaned cache entries heal on a rerun
        if dies_at == 4:
            # The cells of that batch: cached, their "completed" lines lost.
            assert audit.orphaned and not replay.completed

        hits = sum(
            cache.status(fp) == "hit" for fp in fresh.fingerprints.values()
        )
        with ExperimentEngine(workers=2, cache=wreck, handle_signals=False) as engine:
            # The same call again: cells whose entry reached the cache
            # before the crash are hits; only the rest are dispatched.
            resumed = engine.run(jobs, total_nodes=256, configs=configs)
            assert engine.stats.run_id == run_id
            assert engine.stats.cache_hits == hits
            assert engine.stats.simulated == len(configs) - hits
        assert read_journal(journal_path(wreck / "runs", run_id)).resumes == 1
        assert resumed.fingerprints == fresh.fingerprints
        for key, cell in fresh.cells.items():
            assert resumed.cells[key].objective == cell.objective, key
            assert resumed.cells[key].makespan == cell.makespan, key
        audit = verify_run(
            run_id, journal_dir=wreck / "runs", cache=ResultCache(wreck), grid=resumed
        )
        assert audit.ok and audit.completed == len(configs)


class TestListRuns:
    def test_statuses_and_order(self, tmp_path):
        complete = _manifest()
        with RunJournal.create(
            journal_path(tmp_path, complete["run"]), complete
        ) as journal:
            for key in complete["configs"]:
                journal.record_cell(key, "completed", objective=1.0)

        interrupted = _manifest(total_nodes=512)
        with RunJournal.create(
            journal_path(tmp_path, interrupted["run"]), interrupted
        ) as journal:
            journal.record_cell("fcfs/easy", "completed", objective=1.0)
            journal.record_cell("fcfs/list", "interrupted")

        (tmp_path / "deadbeef0000.jsonl").write_text("garbage\n", encoding="utf-8")

        summaries = {s.run_id: s for s in list_runs(tmp_path)}
        assert summaries[complete["run"]].status == "complete"
        assert summaries[complete["run"]].completed == 2
        assert summaries[interrupted["run"]].status == "interrupted"
        assert summaries[interrupted["run"]].completed == 1
        assert summaries["deadbeef0000"].status == "corrupt"
        assert "2/2 cells" in summaries[complete["run"]].describe()

    def test_a_continued_journal_lists_by_its_last_attempt(self, tmp_path):
        """A rerun continues its journal, whose ``created`` stays that of
        the first attempt: the listing orders by the last attempt."""
        now = time.time()
        older = dict(_manifest(), created=now - 200.0)
        newer = dict(_manifest(total_nodes=512), created=now - 100.0)
        for manifest in (older, newer):
            RunJournal.create(journal_path(tmp_path, manifest["run"]), manifest).close()
        assert [s.run_id for s in list_runs(tmp_path)] == [newer["run"], older["run"]]
        journal, replay = RunJournal.open(journal_path(tmp_path, older["run"]), older)
        journal.close()
        assert replay is not None
        first, second = list_runs(tmp_path)
        assert (first.run_id, second.run_id) == (older["run"], newer["run"])
        assert first.created == now - 200.0 and first.last_attempt >= now
        assert time.strftime("%Y-%m-%d %H:%M", time.localtime(first.last_attempt)) in (
            first.describe()
        )

    def test_empty_or_missing_dir(self, tmp_path):
        assert list_runs(tmp_path) == []
        assert list_runs(tmp_path / "absent") == []


class TestVerifyRun:
    def _completed_run(self, tmp_path, cache, workload_cell):
        manifest = _manifest(configs=["fcfs/easy"])
        fp = "ab" * 32
        cache.put(fp, workload_cell)
        with RunJournal.create(
            journal_path(tmp_path, manifest["run"]), manifest
        ) as journal:
            journal.record_cell(
                "fcfs/easy", "completed", fingerprint=fp,
                objective=workload_cell.objective,
            )
        return manifest["run"], fp

    @pytest.fixture
    def cell(self):
        from repro.experiments.paper import probabilistic_workload
        from repro.experiments.runner import SchedulerConfig, run_grid

        grid = run_grid(
            probabilistic_workload(40, seed=3),
            total_nodes=128,
            configs=[SchedulerConfig("fcfs", "easy")],
        )
        return grid.cells["fcfs/easy"]

    def test_clean_run_audits_ok(self, tmp_path, cell):
        cache = ResultCache(tmp_path / "cache")
        run_id, _ = self._completed_run(tmp_path, cache, cell)
        audit = verify_run(run_id, journal_dir=tmp_path, cache=cache)
        assert audit.ok and audit.inconsistencies == 0
        assert audit.completed == 1 and audit.total == 1
        assert "OK: journal and cache agree" in audit.describe()

    def test_missing_cache_entry_flagged(self, tmp_path, cell):
        cache = ResultCache(tmp_path / "cache")
        run_id, fp = self._completed_run(tmp_path, cache, cell)
        cache.path(fp).unlink()
        audit = verify_run(run_id, journal_dir=tmp_path, cache=cache)
        assert not audit.ok
        assert audit.missing == ["fcfs/easy"]
        assert "missing from cache" in audit.describe()

    def test_corrupt_cache_entry_flagged_without_eviction(self, tmp_path, cell):
        cache = ResultCache(tmp_path / "cache")
        run_id, fp = self._completed_run(tmp_path, cache, cell)
        cache.path(fp).write_text("{broken", encoding="utf-8")
        audit = verify_run(run_id, journal_dir=tmp_path, cache=cache)
        assert audit.corrupt == ["fcfs/easy"]
        # The audit never mutates the cache.
        assert cache.path(fp).exists()

    def test_objective_mismatch_flagged(self, tmp_path, cell):
        cache = ResultCache(tmp_path / "cache")
        manifest = _manifest(configs=["fcfs/easy"])
        fp = "ab" * 32
        cache.put(fp, cell)
        with RunJournal.create(
            journal_path(tmp_path, manifest["run"]), manifest
        ) as journal:
            journal.record_cell(
                "fcfs/easy", "completed", fingerprint=fp,
                objective=cell.objective + 1.0,
            )
        audit = verify_run(manifest["run"], journal_dir=tmp_path, cache=cache)
        assert audit.mismatched == ["fcfs/easy"]

    def test_unfinished_cached_cell_is_orphaned_not_inconsistent(
        self, tmp_path, cell
    ):
        cache = ResultCache(tmp_path / "cache")
        manifest = _manifest(configs=["fcfs/easy"])
        fp = "ab" * 32
        cache.put(fp, cell)
        with RunJournal.create(
            journal_path(tmp_path, manifest["run"]), manifest
        ) as journal:
            # Crash landed between the cache write and the journal append.
            journal.record_cell("fcfs/easy", "started", fingerprint=fp)
        audit = verify_run(manifest["run"], journal_dir=tmp_path, cache=cache)
        assert audit.ok
        assert audit.orphaned == ["fcfs/easy"]
        assert audit.remaining == ["fcfs/easy"]

    def test_unknown_run_raises(self, tmp_path):
        with pytest.raises(UnknownRunError):
            verify_run("0" * 12, journal_dir=tmp_path)

    def test_journal_only_audit_without_cache(self, tmp_path, cell):
        cache = ResultCache(tmp_path / "cache")
        run_id, _ = self._completed_run(tmp_path, cache, cell)
        audit = verify_run(run_id, journal_dir=tmp_path)
        assert audit.ok and not audit.cache_checked
        assert "journal-only audit" in audit.describe()


class TestComputeRunIdStandalone:
    def test_matches_manifest_field(self):
        manifest = _manifest()
        assert compute_run_id(manifest) == manifest["run"]


class TestFleetEraJournal:
    """A journal written when runs could execute on a remote fleet and
    write through to a remote cache still lists, verifies and continues
    locally under the same run id."""

    @staticmethod
    def _line(payload: dict) -> str:
        """One record in the on-disk format: canonical JSON plus crc."""
        canonical = json.dumps(payload, sort_keys=True)
        crc = hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:8]
        return json.dumps({**payload, "crc": crc}, sort_keys=True)

    def test_lists_verifies_and_resumes_locally(self, tmp_path, monkeypatch):
        import socket

        from repro.experiments.engine import ExperimentEngine
        from repro.experiments.paper import probabilistic_workload
        from repro.experiments.runner import SchedulerConfig

        def no_network(*args, **kwargs):
            raise AssertionError("the audit opened a socket")

        monkeypatch.setattr(socket, "create_connection", no_network)
        monkeypatch.setattr(socket.socket, "connect", no_network)

        jobs = probabilistic_workload(40, seed=3)
        configs = [SchedulerConfig("fcfs", "easy"), SchedulerConfig("fcfs", "list")]
        cache_dir = tmp_path / "cache"
        engine = ExperimentEngine(cache=cache_dir)
        request = engine._prepare(jobs, total_nodes=128, configs=configs)
        run_id = request.run_id
        done, started = (c.key for c in configs)
        records = [
            {
                **request.manifest,
                "execution_backend": "remote",
                "remote_cache": "hostA:9100",
                "created": 1.0e9,
                "pid": 1,
            },
            {"kind": "cell", "key": done, "state": "completed", "t": 1.0e9,
             "fp": request.fingerprint(configs[0]), "objective": 123.0},
            {"kind": "cell", "key": started, "state": "started", "t": 1.0e9,
             "fp": request.fingerprint(configs[1])},
            {"kind": "cache-health", "t": 1.0e9, "remote_cache": "hostA:9100",
             "store": "fleet", "remote_hits": 1, "remote_rejected": 0,
             "quarantined": 0, "breaker_opened": 0, "breaker_state": "closed",
             "errors": 0, "shed": 0},
        ]
        runs = cache_dir / "runs"
        runs.mkdir(parents=True)
        journal_path(runs, run_id).write_text(
            "".join(
                self._line({**record, "seq": seq}) + "\n"
                for seq, record in enumerate(records)
            ),
            encoding="utf-8",
        )

        (summary,) = list_runs(runs)
        assert summary.run_id == run_id
        assert summary.status == "incomplete"
        assert "1/2 cells" in summary.describe()

        # The local cache is the only backing: the completed cell that
        # lived only in the fleet cache is missing, not unverifiable.
        audit = verify_run(run_id, journal_dir=runs, cache=ResultCache(cache_dir))
        assert audit.missing == [done]
        assert audit.remaining == [started]
        assert not audit.ok

        grid = engine.run(jobs, total_nodes=128, configs=configs)
        assert engine.stats.run_id == run_id
        assert engine.stats.simulated == 2
        fresh = ExperimentEngine().run(jobs, total_nodes=128, configs=configs)
        for config in configs:
            assert grid.cells[config.key].objective == fresh.cells[config.key].objective
        assert verify_run(run_id, journal_dir=runs, cache=ResultCache(cache_dir)).ok
        assert read_journal(journal_path(runs, run_id)).resumes == 1
