"""Versioned, integrity-checked snapshot files.

A snapshot is a single file holding one state tree: a fixed magic +
format version, a CRC32 and length of the payload, then the payload
itself — a :mod:`pickle` of plain builtins, ``bytes`` and NumPy arrays
only.  The envelope makes corruption *detected*, and the write path
(:func:`repro.resilience.atomic.atomic_write_bytes`) makes torn writes
*impossible*: a crash mid-write leaves the previous file intact, and any
bit rot that slips past the filesystem fails the CRC loudly at load.

Its user is the sharded executor: each finished shard's result (and a
failed worker's error report) travels to the parent as one snapshot file.
Campaign checkpoints are not snapshots: a checkpoint is one commit record
in the campaign's cache journal (:mod:`repro.resilience.store`), and a
checkpoint directory holding ``latest.snapshot`` or ``round-NNNNN.snapshot``
files from the retired layout is refused on resume with
:class:`SnapshotError`, as is any ``snapshot-v1`` file.

Pickle is safe here in the usual caveated sense — snapshots are local
state produced by the same trusted code that reloads them, not a wire
format — and the restricted vocabulary (no custom classes in the tree)
keeps the format stable across refactors of the engine's class layout.
"""

from __future__ import annotations

import os
import pickle
import struct
import zlib
from typing import Any

from repro.resilience.atomic import atomic_write_bytes

#: Envelope magic; the trailing byte is the envelope version.
MAGIC = b"REPROSNAP\x01"
#: Payload format tag, checked on load (bump on incompatible tree changes).
SNAPSHOT_FORMAT = "repro.resilience/snapshot-v2"

_HEADER = struct.Struct("<IQ")  # crc32(payload), len(payload)


class SnapshotError(RuntimeError):
    """A snapshot file is missing, torn, corrupt, or of a foreign format."""


def save_snapshot(path: str, state: Any) -> None:
    """Serialize ``state`` into an integrity-checked snapshot, atomically."""
    payload = pickle.dumps(
        {"format": SNAPSHOT_FORMAT, "state": state}, protocol=pickle.HIGHEST_PROTOCOL
    )
    blob = MAGIC + _HEADER.pack(zlib.crc32(payload), len(payload)) + payload
    atomic_write_bytes(path, blob)


def load_snapshot(path: str) -> Any:
    """Load and validate a snapshot; returns the state tree.

    Raises :class:`SnapshotError` on any integrity failure — wrong magic,
    truncated envelope, CRC mismatch, or foreign payload format.
    """
    if not os.path.exists(path):
        raise SnapshotError(f"snapshot {path!r} does not exist")
    with open(path, "rb") as handle:
        blob = handle.read()
    if not blob.startswith(MAGIC):
        raise SnapshotError(f"{path!r} is not a repro snapshot (bad magic)")
    header = blob[len(MAGIC) : len(MAGIC) + _HEADER.size]
    if len(header) < _HEADER.size:
        raise SnapshotError(f"snapshot {path!r} is truncated (no header)")
    crc, length = _HEADER.unpack(header)
    payload = blob[len(MAGIC) + _HEADER.size :]
    if len(payload) != length:
        raise SnapshotError(
            f"snapshot {path!r} is truncated ({len(payload)} of {length} payload bytes)"
        )
    if zlib.crc32(payload) != crc:
        raise SnapshotError(f"snapshot {path!r} failed its CRC check")
    document = pickle.loads(payload)
    if not isinstance(document, dict) or document.get("format") != SNAPSHOT_FORMAT:
        raise SnapshotError(
            f"snapshot {path!r} has format "
            f"{document.get('format') if isinstance(document, dict) else None!r}, "
            f"expected {SNAPSHOT_FORMAT!r}"
        )
    return document["state"]
