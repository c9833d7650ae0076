"""Atomic file writes: the tempfile + ``os.replace`` idiom, in one place.

A plain ``open(path, "w")`` write torn by a crash (SIGKILL, power loss,
full disk) leaves a half-written file behind that later reads will
happily consume.  Every library writer that produces a file a later
process may read — reports, scorecards, traces, SWF exports, cache
entries — must instead write to a temporary file in the *same
directory* and ``os.replace`` it into place, which POSIX guarantees to
be atomic.  Lint rule REP007 enforces the idiom; this module is the
sanctioned implementation.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import tempfile
from typing import IO, Iterator, Optional, Union

__all__ = [
    "atomic_open",
    "atomic_symlink",
    "atomic_write_bytes",
    "atomic_write_text",
    "create_run_dir",
    "point_latest",
]


@contextlib.contextmanager
def atomic_open(
    path: Union[str, os.PathLike], mode: str = "wb", *, encoding: Optional[str] = None
) -> Iterator[IO]:
    """A file handle whose content lands at *path* atomically on success.

    The handle writes a temporary file in *path*'s directory (so the
    replace never crosses a filesystem boundary); leaving the ``with``
    block normally ``os.replace``-s it into place, and an exception
    removes it.  Readers either see the old content or the complete new
    content, never a torn intermediate state, and a writer can stream
    without holding the whole content in memory.
    """
    target = os.fspath(path)
    directory = os.path.dirname(target) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, mode, encoding=encoding) as fh:
            yield fh
        os.replace(tmp, target)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_text(
    path: Union[str, os.PathLike],
    text: str,
    *,
    encoding: str = "utf-8",
) -> None:
    """Write *text* to *path* atomically (:func:`atomic_open`)."""
    with atomic_open(path, "w", encoding=encoding) as fh:
        fh.write(text)


def atomic_write_bytes(path: Union[str, os.PathLike], data: bytes) -> None:
    """Write *data* to *path* atomically (:func:`atomic_open`).

    The binary twin of :func:`atomic_write_text`, for payloads that are
    already encoded — SVG documents, serialized results.
    """
    with atomic_open(path) as fh:
        fh.write(data)


#: Per-process uniquifier for temporary symlink names; combined with the
#: pid it keeps concurrent writers from colliding without any entropy.
_symlink_serial = itertools.count()


def atomic_symlink(
    target: Union[str, os.PathLike],
    link: Union[str, os.PathLike],
    *,
    target_is_directory: bool = False,
) -> None:
    """Point symlink *link* at *target* atomically (symlink + ``os.replace``).

    The naive ``unlink(link); symlink(target, link)`` dance has a window
    where *link* does not exist and a window where a concurrent writer's
    ``symlink`` call fails with ``FileExistsError``.  Creating the new
    symlink under a unique temporary name and renaming it over *link*
    closes both: ``rename(2)`` replaces an existing entry atomically, so
    readers always see either the old target or the new one, and
    concurrent writers each land a complete link (last rename wins).

    Raises ``OSError`` where symlinks are unsupported or *link* is an
    existing directory; callers keep their non-symlink fallbacks.
    """
    link = os.fspath(link)
    directory = os.path.dirname(link) or "."
    base = os.path.basename(link)
    while True:
        tmp = os.path.join(directory, f".{base}.{os.getpid()}.{next(_symlink_serial)}.tmp")
        try:
            os.symlink(os.fspath(target), tmp, target_is_directory=target_is_directory)
        except FileExistsError:  # stale tmp from a killed writer: pick a new name
            continue
        try:
            os.replace(tmp, link)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return


def create_run_dir(root: Union[str, os.PathLike], name: str) -> str:
    """Create a new directory ``root/name`` and return its path.

    A taken name gets the first free suffix: ``name.2``, ``name.3``, ...
    The ``mkdir`` itself is the test, so two writers racing for one name
    in the same second (same-seed runs sharing an ``--out`` root, or two
    service jobs) each get their own directory instead of one crashing
    on ``FileExistsError``.
    """
    root = os.fspath(root)
    run_dir = os.path.join(root, name)
    suffix = 1
    while True:
        try:
            os.mkdir(run_dir)
            return run_dir
        except FileExistsError:
            suffix += 1
            run_dir = os.path.join(root, f"{name}.{suffix}")


def point_latest(run_dir: Union[str, os.PathLike]) -> None:
    """Point the ``latest`` symlink beside *run_dir* at it.

    The link is swapped with :func:`atomic_symlink`, since concurrent
    runs finish concurrently.  Where symlinks are unsupported, a
    ``LATEST`` file names the directory instead.
    """
    root, name = os.path.split(os.fspath(run_dir))
    try:
        atomic_symlink(name, os.path.join(root, "latest"), target_is_directory=True)
    except OSError:  # filesystems without symlink support
        atomic_write_text(os.path.join(root, "LATEST"), name + "\n")
