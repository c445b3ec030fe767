"""Atomic artifact writes: write-temp + fsync + ``os.replace``.

Every committed artifact the repo produces — BENCH JSON payloads, trace
JSONL finalization, campaign snapshots — goes through this helper, so a
crash at any instant leaves either the complete previous version or the
complete new version on disk, never a truncated hybrid.  The recipe is the
standard one: write the full content to a temporary file *in the target
directory* (so the final rename never crosses a filesystem), flush and
fsync the data, then :func:`os.replace` over the destination (atomic on
POSIX and Windows).  The directory entry itself is fsynced best-effort —
some filesystems/platforms reject directory fds, and the rename is already
durable-or-absent without it.

The ``non-atomic-artifact-write`` lint rule
(:mod:`repro.analysis.rules`) flags raw ``open(path, "w")`` artifact
writes outside this package, pointing offenders here.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Any


def atomic_write_bytes(path: str, data: bytes) -> None:
    """Write ``data`` to ``path`` atomically (all-or-nothing on crash)."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp_path = tempfile.mkstemp(
        prefix=os.path.basename(path) + ".", suffix=".tmp", dir=directory
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
    fsync_directory(directory)


def atomic_write_text(path: str, text: str, encoding: str = "utf-8") -> None:
    """Write ``text`` to ``path`` atomically."""
    atomic_write_bytes(path, text.encode(encoding))


def atomic_write_json(
    path: str, payload: Any, indent: int = 2, sort_keys: bool = True
) -> None:
    """Serialize ``payload`` as stable JSON and write it atomically."""
    text = json.dumps(payload, indent=indent, sort_keys=sort_keys) + "\n"
    atomic_write_text(path, text)


def fsync_replace(src: str, dst: str) -> None:
    """Promote an already-written file over ``dst`` durably.

    For streaming writers (e.g. the tracer's ``.partial`` JSONL sink) that
    build the file incrementally and only need the final rename: fsync the
    source content, replace the destination, fsync the directory entry.
    """
    with open(src, "rb") as handle:
        os.fsync(handle.fileno())
    os.replace(src, dst)
    fsync_directory(os.path.dirname(os.path.abspath(dst)) or ".")


def fsync_directory(directory: str) -> None:
    """Best-effort fsync of a directory (durable renames and new files)."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)
