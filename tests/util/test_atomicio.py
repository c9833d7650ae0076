"""Tests for the atomic filesystem helpers (REP007 idiom)."""

import os
import threading

import pytest

from repro.util import atomicio
from repro.util.atomicio import (
    atomic_symlink,
    atomic_write_bytes,
    atomic_write_text,
    create_run_dir,
    point_latest,
)


class TestAtomicWrite:
    def test_bytes_roundtrip(self, tmp_path):
        path = tmp_path / "blob.bin"
        atomic_write_bytes(str(path), b"\x00\x01payload")
        assert path.read_bytes() == b"\x00\x01payload"

    def test_bytes_overwrite(self, tmp_path):
        path = tmp_path / "blob.bin"
        atomic_write_bytes(str(path), b"old")
        atomic_write_bytes(str(path), b"new")
        assert path.read_bytes() == b"new"

    def test_no_temp_residue(self, tmp_path):
        atomic_write_bytes(str(tmp_path / "a"), b"x")
        atomic_write_text(str(tmp_path / "b"), "y")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a", "b"]


class TestAtomicSymlink:
    def test_creates_fresh_link(self, tmp_path):
        (tmp_path / "run1").mkdir()
        link = tmp_path / "latest"
        atomic_symlink("run1", str(link), target_is_directory=True)
        assert os.readlink(str(link)) == "run1"

    def test_repoints_existing_link(self, tmp_path):
        (tmp_path / "run1").mkdir()
        (tmp_path / "run2").mkdir()
        link = tmp_path / "latest"
        atomic_symlink("run1", str(link))
        atomic_symlink("run2", str(link))
        assert os.readlink(str(link)) == "run2"
        assert (link / ".").exists()

    def test_replaces_regular_file(self, tmp_path):
        # os.replace clobbers whatever holds the name, even a plain file
        # left behind by the LATEST fallback on another filesystem.
        link = tmp_path / "latest"
        link.write_text("stale\n")
        (tmp_path / "run1").mkdir()
        atomic_symlink("run1", str(link))
        assert os.readlink(str(link)) == "run1"

    def test_no_temp_residue(self, tmp_path):
        (tmp_path / "run1").mkdir()
        for _ in range(5):
            atomic_symlink("run1", str(tmp_path / "latest"))
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["latest", "run1"]

    def test_concurrent_hammer_never_breaks_the_link(self, tmp_path):
        """The race the service hits: many jobs repointing ``latest`` at once.

        The old unlink+symlink dance raised FileExistsError under
        contention and left windows with no link at all; the atomic
        rename must do neither.
        """
        targets = []
        for i in range(4):
            (tmp_path / f"run{i}").mkdir()
            targets.append(f"run{i}")
        link = str(tmp_path / "latest")
        errors = []
        barrier = threading.Barrier(8)

        def flip(seed: int) -> None:
            barrier.wait()
            try:
                for i in range(50):
                    atomic_symlink(targets[(seed + i) % len(targets)], link)
                    # every observation mid-race sees a complete link
                    assert os.readlink(link) in targets
            except BaseException as exc:  # noqa: BLE001 - collected for the assert
                errors.append(exc)

        threads = [threading.Thread(target=flip, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        assert os.readlink(link) in targets
        residue = [p for p in os.listdir(str(tmp_path)) if p.endswith(".tmp")]
        assert residue == []

    def test_symlink_failure_cleans_up(self, tmp_path, monkeypatch):
        (tmp_path / "run1").mkdir()
        link = str(tmp_path / "latest")
        real_replace = os.replace

        def boom(src, dst):
            raise PermissionError("no")

        monkeypatch.setattr(os, "replace", boom)
        with pytest.raises(OSError):
            atomic_symlink("run1", link)
        monkeypatch.setattr(os, "replace", real_replace)
        residue = [p for p in os.listdir(str(tmp_path)) if p.endswith(".tmp")]
        assert residue == []


class TestRunDir:
    def test_taken_names_get_the_next_suffix(self, tmp_path):
        (tmp_path / "run").mkdir()
        (tmp_path / "run.2").mkdir()
        run_dir = create_run_dir(str(tmp_path), "run")
        assert run_dir == os.path.join(str(tmp_path), "run.3")
        assert os.path.isdir(run_dir)

    def test_mkdir_decides_not_an_exists_check(self, tmp_path, monkeypatch):
        """A racing writer creates the name between the check and the
        mkdir; with ``os.path.exists`` blind, the helper still steps on."""
        (tmp_path / "run").mkdir()
        monkeypatch.setattr(os.path, "exists", lambda path: False)
        run_dir = create_run_dir(str(tmp_path), "run")
        assert os.path.basename(run_dir) == "run.2"

    def test_latest_file_without_symlinks(self, tmp_path, monkeypatch):
        def no_symlinks(*args, **kwargs):
            raise OSError("symlinks unsupported")

        monkeypatch.setattr(atomicio, "atomic_symlink", no_symlinks)
        run_dir = create_run_dir(str(tmp_path), "run")
        point_latest(run_dir)
        assert (tmp_path / "LATEST").read_text() == "run\n"
        assert not (tmp_path / "latest").exists()
