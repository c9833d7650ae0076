"""Journal-backed job store: durability, replay, upload spooling."""

import gzip
import json
import os

import pytest

from repro.service.errors import ServiceError
from repro.service.store import JOBS_JOURNAL_NAME, JobStore


class TestLifecycle:
    def test_create_then_get(self, tmp_path):
        store = JobStore(str(tmp_path))
        store.create("j1", kind="hurst", key="k1")
        record = store.get("j1")
        assert record["status"] == "queued"
        assert record["kind"] == "hurst"
        assert record["created_ts"] > 0

    def test_update_merges(self, tmp_path):
        store = JobStore(str(tmp_path))
        store.create("j1", kind="hurst", key="k1")
        store.update("j1", status="running", started_ts=1.0)
        record = store.get("j1")
        assert record["status"] == "running"
        assert record["kind"] == "hurst"  # untouched fields survive

    def test_duplicate_create_rejected(self, tmp_path):
        store = JobStore(str(tmp_path))
        store.create("j1")
        with pytest.raises(ValueError):
            store.create("j1")

    def test_update_unknown_job_rejected(self, tmp_path):
        with pytest.raises(KeyError):
            JobStore(str(tmp_path)).update("ghost", status="done")

    def test_jobs_in_submission_order(self, tmp_path):
        store = JobStore(str(tmp_path))
        for i in range(5):
            store.create(f"j{i}")
        assert [r["id"] for r in store.jobs()] == [f"j{i}" for i in range(5)]

    def test_counts(self, tmp_path):
        store = JobStore(str(tmp_path))
        store.create("j1")
        store.create("j2")
        store.update("j2", status="done")
        assert store.counts() == {
            "queued": 1,
            "running": 0,
            "done": 1,
            "error": 0,
            "cancelled": 0,
            "poisoned": 0,
        }

    def test_in_flight_for_key(self, tmp_path):
        store = JobStore(str(tmp_path))
        store.create("j1", key="k1")
        store.create("j2", key="k2")
        store.update("j1", status="done")
        assert store.in_flight_for_key("k1") is None  # done is not in flight
        assert store.in_flight_for_key("k2")["id"] == "j2"
        assert store.in_flight_for_key("k3") is None


class TestReplay:
    def test_restart_sees_last_state(self, tmp_path):
        store = JobStore(str(tmp_path))
        store.create("j1", kind="coplot", key="k1")
        store.update("j1", status="running")
        store.update("j1", status="done", wall_s=1.5)
        reborn = JobStore(str(tmp_path))
        record = reborn.get("j1")
        assert record["status"] == "done"
        assert record["wall_s"] == 1.5
        assert [r["id"] for r in reborn.jobs()] == ["j1"]

    def test_torn_tail_is_skipped(self, tmp_path):
        store = JobStore(str(tmp_path))
        store.create("j1", key="k1")
        journal = tmp_path / JOBS_JOURNAL_NAME
        with open(journal, "a", encoding="utf-8") as fh:
            fh.write('{"type": "job", "id": "j2", "status": "que')  # SIGKILL here
        reborn = JobStore(str(tmp_path))
        assert reborn.get("j1") is not None
        assert reborn.get("j2") is None

    def test_foreign_records_ignored(self, tmp_path):
        journal = tmp_path / JOBS_JOURNAL_NAME
        journal.write_text(
            json.dumps({"type": "note", "id": "x"}) + "\n"
            + json.dumps({"type": "job", "id": 7}) + "\n"
            + json.dumps({"type": "job", "id": "ok", "status": "queued"}) + "\n"
        )
        store = JobStore(str(tmp_path))
        assert [r["id"] for r in store.jobs()] == ["ok"]


class TestJournal:
    def test_flush_is_one_fsync_per_batch(self, tmp_path, monkeypatch):
        store = JobStore(str(tmp_path))
        fsyncs = []
        real = os.fsync
        monkeypatch.setattr(os, "fsync", lambda fd: (fsyncs.append(fd), real(fd)))
        for i in range(3):
            store.create_deferred(f"j{i}", key=f"k{i}")
        store.flush()
        assert len(fsyncs) == 1
        lines = (tmp_path / JOBS_JOURNAL_NAME).read_text().splitlines()
        assert [json.loads(line)["id"] for line in lines] == ["j0", "j1", "j2"]
        assert all(line == json.dumps(json.loads(line), sort_keys=True) for line in lines)

    def test_poison_counts_replay_last_wins(self, tmp_path):
        store = JobStore(str(tmp_path))
        assert store.record_key_failure("k1") == 1
        assert store.record_key_failure("k1") == 2
        assert store.record_key_failure("k2") == 1
        store.pardon_key("k2")
        reborn = JobStore(str(tmp_path))
        assert reborn.poison_count("k1") == 2
        assert reborn.poison_count("k2") == 0

    def test_reopen_repairs_a_torn_tail_before_appending(self, tmp_path):
        store = JobStore(str(tmp_path))
        store.create("j1")
        with open(tmp_path / JOBS_JOURNAL_NAME, "a", encoding="utf-8") as fh:
            fh.write('{"type": "job", "id": "j2", "sta')  # SIGKILL here
        JobStore(str(tmp_path)).create("j3")
        assert [r["id"] for r in JobStore(str(tmp_path)).jobs()] == ["j1", "j3"]


class TestUploads:
    def test_plain_and_gzip_share_a_digest(self, tmp_path):
        store = JobStore(str(tmp_path))
        body = b"; a log\n1 0 0 10 4 -1 -1 4 10 -1 1 1 1 1 1 -1 -1 -1\n"
        assert store.spool_upload(body) == store.spool_upload(gzip.compress(body))

    def test_spooled_bytes_are_decompressed(self, tmp_path):
        store = JobStore(str(tmp_path))
        body = b"payload bytes\n"
        digest = store.spool_upload(gzip.compress(body))
        with open(store.upload_path(digest), "rb") as fh:
            assert fh.read() == body

    def test_bad_gzip_is_a_service_error(self, tmp_path):
        store = JobStore(str(tmp_path))
        with pytest.raises(ServiceError) as err:
            store.spool_upload(b"\x1f\x8bthis is not a gzip stream")
        assert err.value.code == "bad_swf"
        assert err.value.status == 400
