"""Journal-backed job store: durability, replay, the upload spool."""

import gzip
import hashlib
import io
import json
import os
import sys
import threading
import zipfile

import pytest

from repro.service import store as store_module
from repro.service.errors import ServiceError
from repro.service.store import (
    JOBS_JOURNAL_NAME,
    UPLOADS_DIR_NAME,
    JobStore,
    decode_upload,
    load_upload,
)
from repro.workload.fields import FIELD_NAMES
from repro.workload.swf import SCAN_VERSION, read_swf, scan_swf


def _scan_in_flight(store, key):
    """The first queued/running job on *key* in submission order."""
    for record in store.jobs():
        if record.get("key") == key and record["status"] in ("queued", "running"):
            return record["id"]
    return None


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
        """The key index answers what a scan of every job in submission
        order answers, through every transition that moves a job in or
        out of flight — including a pardon that puts two jobs on a key."""

        def check(store, expected):
            for key in ("k1", "k2", "k3"):
                found = store.in_flight_for_key(key)
                assert (found and found["id"]) == _scan_in_flight(store, key) == expected.get(key)

        store = JobStore(str(tmp_path))
        store.create("j1", key="k1")
        store.create("j2", key="k2")
        check(store, {"k1": "j1", "k2": "j2"})
        store.update("j1", status="running")
        check(store, {"k1": "j1", "k2": "j2"})
        store.update("j1", status="done")  # done is not in flight
        check(store, {"k2": "j2"})
        store.update("j2", status="cancelled")
        check(store, {})
        store.create("j3", key="k1")
        store.update("j3", status="running")
        check(store, {"k1": "j3"})
        # A pardon re-queues j1 behind the running j3; the earlier
        # submission is the one the key reports.
        store.update("j1", status="queued", retried=True)
        check(store, {"k1": "j1"})
        store.update("j1", status="running")
        store.update("j1", status="queued", drain_requeued=True)  # drain gave up
        check(store, {"k1": "j1"})
        store.update("j3", status="error")
        check(store, {"k1": "j1"})
        store.update("j2", status="queued", retried=True)
        check(store, {"k1": "j1", "k2": "j2"})
        # A restart replays the same index from the journal.
        reborn = JobStore(str(tmp_path))
        check(reborn, {"k1": "j1", "k2": "j2"})
        reborn.update("j1", status="done")
        check(reborn, {"k2": "j2"})
        reborn.update("j3", status="queued", retried=True)
        check(reborn, {"k1": "j3", "k2": "j2"})
        check(JobStore(str(tmp_path)), {"k1": "j3", "k2": "j2"})

    def test_key_index_holds_under_racing_writers(self, tmp_path):
        """More threads than cores race jobs on shared keys through their
        states; a lost index update would leave a key disagreeing with
        the scan."""
        store = JobStore(str(tmp_path))
        keys = ("k0", "k1", "k2")
        errors = []

        def churn(t):
            try:
                for i in range(12):
                    job_id = f"t{t}-{i}"
                    store.create_deferred(job_id, key=keys[(t + i) % len(keys)])
                    store.update(job_id, status="running")
                    if i % 3:
                        store.update(job_id, status="done")
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=churn, args=(t,)) for t in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not errors
        assert not any(thread.is_alive() for thread in threads)
        for key in keys:
            found = store.in_flight_for_key(key)
            assert found is not None
            assert found["id"] == _scan_in_flight(store, key)


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
    LOG = b"; Computer: Box\n; MaxProcs: 8\n1 0 0 10 4 -1 -1 4 10 -1 1 1 1 1 1 -1 -1 -1\n"

    def test_plain_and_gzip_share_a_digest(self):
        assert decode_upload(self.LOG)[0] == decode_upload(gzip.compress(self.LOG))[0]

    def test_gzip_body_decodes_to_its_log(self):
        digest, raw = decode_upload(gzip.compress(self.LOG))
        assert raw == self.LOG
        assert digest == hashlib.sha256(self.LOG).hexdigest()

    @pytest.mark.parametrize(
        "body",
        [
            b"\x1f\x8bthis is not a gzip stream",  # bad header: OSError
            gzip.compress(LOG)[:-4],  # truncated stream: EOFError
            gzip.compress(LOG * 50)[:20] + b"\xff" * 40,  # bad deflate data: zlib.error
        ],
        ids=["header", "truncated", "deflate"],
    )
    def test_bad_gzip_is_a_service_error(self, body):
        with pytest.raises(ServiceError) as err:
            decode_upload(body)
        assert err.value.code == "bad_swf"
        assert err.value.status == 400

    def test_spool_loads_to_what_read_swf_reads(self, tmp_path):
        store = JobStore(str(tmp_path))
        digest, raw = decode_upload(self.LOG)
        headers, columns = scan_swf(raw)
        assert not store.has_upload(digest)
        store.spool_upload(digest, headers, columns)
        assert store.has_upload(digest)
        name = f"{digest}.scan{SCAN_VERSION}.npz"
        assert os.listdir(store.uploads_dir) == [name]
        # One member per SWF field beside the header block, and nothing else.
        with zipfile.ZipFile(os.path.join(store.uploads_dir, name)) as archive:
            members = archive.namelist()
        assert members == [f"{m}.npy" for m in ("headers", *FIELD_NAMES)]
        got = load_upload(store.uploads_dir, digest, name="U1")
        want = read_swf(io.BytesIO(self.LOG), name="U1")
        for field in FIELD_NAMES:
            assert got.column(field).dtype == want.column(field).dtype
            assert got.column(field).tobytes() == want.column(field).tobytes()
        assert (got.machine, got.name) == (want.machine, want.name)

    def test_unspooled_digest_is_evicted(self, tmp_path):
        with pytest.raises(ServiceError) as err:
            load_upload(str(tmp_path), "0" * 64, name="upload")
        assert err.value.code == "result_evicted"

    def test_a_scan_of_another_version_is_not_spooled(self, tmp_path, monkeypatch):
        store = JobStore(str(tmp_path))
        digest, raw = decode_upload(self.LOG)
        store.spool_upload(digest, *scan_swf(raw))
        monkeypatch.setattr(store_module, "SCAN_VERSION", SCAN_VERSION + 1)
        assert not store.has_upload(digest)
        with pytest.raises(ServiceError) as err:
            load_upload(store.uploads_dir, digest, name="upload")
        assert err.value.code == "result_evicted"

    def test_opening_a_state_dir_deletes_spool_files_no_server_loads(self, tmp_path):
        uploads = tmp_path / UPLOADS_DIR_NAME
        uploads.mkdir()
        scanned, unscanned = "a" * 64, hashlib.sha256(self.LOG).hexdigest()
        keep = {f"{scanned}.scan{SCAN_VERSION}.npz", f"{unscanned}.swf"}
        gone = {
            f"{scanned}.scan{SCAN_VERSION - 1}.npz",  # another scan version
            f"{scanned}.swf",  # a log whose current-version scan exists
            "tmpq3v9x_1c.tmp",  # a spool write a crash cut short
        }
        for name in keep | gone:
            (uploads / name).write_bytes(self.LOG)
        store = JobStore(str(tmp_path))
        assert set(os.listdir(uploads)) == keep
        # A recovered job still loads the log that has no current scan.
        got = load_upload(store.uploads_dir, unscanned, name="U1")
        want = read_swf(io.BytesIO(self.LOG), name="U1")
        assert got.column("run_time").tolist() == want.column("run_time").tolist()

    def test_failed_spool_write_leaves_nothing(self, tmp_path):
        class UnreadableColumn:
            def __array__(self, dtype=None, copy=None):
                raise OSError("the column's data is gone")

        store = JobStore(str(tmp_path))
        digest, raw = decode_upload(self.LOG)
        headers, columns = scan_swf(raw)
        # The last member fails after the archive's others are on disk.
        columns["think_time"] = UnreadableColumn()
        with pytest.raises(OSError, match="data is gone"):
            store.spool_upload(digest, headers, columns)
        assert os.listdir(store.uploads_dir) == []
