"""Append-log tests: durable appends, torn-tail repair, tolerant replay."""

import json
import os

import pytest

from repro.util import appendlog


@pytest.fixture
def fsyncs(monkeypatch):
    """Count ``os.fsync`` calls made while the test runs."""
    calls = []
    real = os.fsync

    def counting(fd):
        calls.append(fd)
        real(fd)

    monkeypatch.setattr(os, "fsync", counting)
    return calls


class TestAppend:
    def test_lines_land_newline_terminated(self, tmp_path):
        path = tmp_path / "log.jsonl"
        appendlog.append(path, ['{"a": 1}'])
        appendlog.append(path, ['{"b": 2}', '{"c": 3}'])
        assert path.read_text() == '{"a": 1}\n{"b": 2}\n{"c": 3}\n'

    def test_one_fsync_per_call_whatever_the_batch(self, tmp_path, fsyncs):
        path = tmp_path / "log.jsonl"
        appendlog.append(path, ['{"a": 1}'])
        appendlog.append(path, [json.dumps({"i": i}) for i in range(5)])
        assert len(fsyncs) == 2

    def test_append_never_repairs(self, tmp_path):
        # Repair is the owner's job at open time, not every append's.
        path = tmp_path / "log.jsonl"
        appendlog.tear(path, "x")
        appendlog.append(path, ['{"a": 1}'])
        records, skipped = appendlog.replay(path)
        assert records == [] and skipped


class TestRepairTornTail:
    def test_missing_file_needs_no_repair(self, tmp_path):
        path = tmp_path / "absent.jsonl"
        assert appendlog.repair_torn_tail(path) is False
        assert not path.exists()

    def test_empty_and_clean_files_are_untouched(self, tmp_path, fsyncs):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        clean = tmp_path / "clean.jsonl"
        clean.write_text('{"a": 1}\n')
        assert appendlog.repair_torn_tail(empty) is False
        assert appendlog.repair_torn_tail(clean) is False
        assert empty.read_text() == "" and clean.read_text() == '{"a": 1}\n'
        assert fsyncs == []

    def test_torn_tail_is_terminated_once(self, tmp_path):
        path = tmp_path / "log.jsonl"
        appendlog.append(path, ['{"a": 1}'])
        appendlog.tear(path, "crash")
        assert appendlog.repair_torn_tail(path) is True
        assert appendlog.repair_torn_tail(path) is False
        appendlog.append(path, ['{"b": 2}'])
        records, skipped = appendlog.replay(path)
        assert records == [{"a": 1}, {"b": 2}]
        assert skipped  # the fragment itself stays in the file


class TestReplay:
    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            appendlog.replay(tmp_path / "absent.jsonl")

    def test_blank_lines_are_not_reported(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text('\n{"a": 1}\n\n   \n{"b": 2}\n')
        assert appendlog.replay(path) == ([{"a": 1}, {"b": 2}], False)

    def test_undecodable_and_non_object_lines_are_skipped_and_reported(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_bytes(b'[1, 2]\n"str"\nnot json\n{"x": "\xc3\x28"}\n{"ok": true}\n{"torn')
        assert appendlog.replay(path) == ([{"ok": True}], True)

    def test_tear_is_what_a_crash_mid_append_leaves(self, tmp_path):
        path = tmp_path / "log.jsonl"
        appendlog.append(path, ['{"a": 1}'])
        appendlog.tear(path, "t")
        assert not path.read_text().endswith("\n")
        assert appendlog.replay(path) == ([{"a": 1}], True)
