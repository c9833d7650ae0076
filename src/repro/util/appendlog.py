"""Crash-safe append-only JSONL logs: append, torn-tail repair, replay.

The one implementation behind every durable log in the package — the
run journal (:mod:`repro.runtime.journal`), the service's job journal
(:mod:`repro.service.store`) and the streamed trace
(:mod:`repro.obs.trace`).  Callers encode their own records (one JSON
object per line, sorted keys) and keep their own schemas; this module
owns the bytes on disk:

* :func:`append` writes already-encoded lines with one
  open/write/flush/fsync per call.  A SIGKILL can tear at most the line
  being written, and every line of a returned call is durable.
* :func:`repair_torn_tail` terminates a torn, newline-less final line.
  Only a log's *owner* calls it, once, when it opens the log: appending
  after a tear would glue the new line onto the fragment and lose it.
  Other writers of a shared log (trace workers) never repair — another
  process may be in the middle of an append.
* :func:`replay` reads a log back, skipping blank, undecodable and
  non-object lines, and reports whether it skipped any.
* :func:`tear` leaves exactly what a crash mid-append leaves: the chaos
  and drill probe for the two functions above.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Sequence, Tuple, Union

__all__ = ["append", "repair_torn_tail", "replay", "tear"]

PathLike = Union[str, os.PathLike]


def _write(path: PathLike, text: str) -> None:
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(text)
        fh.flush()
        os.fsync(fh.fileno())


def append(path: PathLike, lines: Sequence[str]) -> None:
    """Append *lines* (each one encoded record, no newline) durably."""
    _write(path, "".join(line + "\n" for line in lines))


def repair_torn_tail(path: PathLike) -> bool:
    """Newline-terminate a torn final line; returns whether it was torn.

    A missing or empty log needs no repair.
    """
    try:
        with open(path, "rb") as fh:
            if fh.seek(0, os.SEEK_END) == 0:
                return False
            fh.seek(-1, os.SEEK_END)
            if fh.read(1) == b"\n":
                return False
    except OSError:
        return False
    _write(path, "\n")
    return True


def replay(path: PathLike) -> Tuple[List[Dict[str, Any]], bool]:
    """Every decodable JSON-object line of *path*, plus whether any was skipped.

    Blank lines are skipped silently; undecodable lines (a torn tail, or
    mid-file garbage) and non-object lines are skipped and reported.
    Raises ``OSError`` (``FileNotFoundError``) when *path* cannot be read.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    records: List[Dict[str, Any]] = []
    skipped = False
    for line in data.split(b"\n"):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except ValueError:
            skipped = True
            continue
        if isinstance(record, dict):
            records.append(record)
        else:
            skipped = True
    return records, skipped


def tear(path: PathLike, token: str) -> None:
    """Append a torn (newline-less, undecodable) fragment to *path*."""
    _write(path, '{"torn": "%s", "sta' % token)
