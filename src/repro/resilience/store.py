"""Append-only on-disk store behind the persistent EvaluationCache.

One file per campaign workload, holding ``(corner tag, row key, metric
row)`` records in append order:

* **header** — magic + format version + the workload shape (sizing
  dimension, metric count), CRC-protected.  Reopening a store with a
  different shape is a hard error (it is a different workload, not a
  recoverable state).
* **records** — ``u32 payload length | payload | u32 crc32(payload)``
  frames, where the payload is ``u16 tag length | corner tag | row key
  (dimension * 8 bytes) | metric row (n_metrics * 8 bytes)``.  Keys and
  rows are raw float64 buffers — the same bit-exact identities the
  in-memory :class:`~repro.search.eval_cache.EvaluationCache` uses — so a
  warm-started process serves byte-identical results.

Because appends are the only mutation, a crash can damage the file in
exactly one way: a torn final frame.  :meth:`CacheStore.open` scans the
frames on reopen, and the first short read or CRC mismatch truncates the
file back to the last good frame boundary (counted in
:attr:`CacheStore.repaired_bytes`) — everything before it is intact by
construction.  The ``cache.append`` fault site makes that failure mode
testable on demand: when the armed plan fires there, the store writes a
genuine half-frame and flushes it before the fault propagates, so the
drill's resumed process exercises the real repair path, not a simulation.

The same format is the campaign's **cache journal**
(``<checkpoint_dir>/cache-NNNNN.journal``), which adds one more frame
kind: a **commit**, whose payload starts with a zero tag length (no pair
has an empty corner tag, so a commit can never be read as a pair).  A
commit's payload is an opaque byte string the caller encodes — the
campaign state at a checkpoint — and :meth:`CacheStore.commit` appends
it after the pending pairs and makes both durable with one fsync.  The
pairs before a commit are that commit's cache content, so its position
in the journal is its watermark; :func:`scan_journal` reads the pairs and
commits up to the first short or CRC-failing frame.  A commit interrupted
at the ``snapshot.write`` fault site leaves a genuine half-frame, like an
interrupted pair.
"""

from __future__ import annotations

import os
import struct
import zlib
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.resilience.atomic import fsync_directory
from repro.resilience.faults import InjectedFault, fault_point, register_fault_site

MAGIC = b"REPROEVC\x01"
VERSION = 1

_HEADER_BODY = struct.Struct("<HII")  # version, dimension, n_metrics
_HEADER_CRC = struct.Struct("<I")
_FRAME_LEN = struct.Struct("<I")
_FRAME_CRC = struct.Struct("<I")
_TAG_LEN = struct.Struct("<H")

#: Size of the complete header on disk.
HEADER_SIZE = len(MAGIC) + _HEADER_BODY.size + _HEADER_CRC.size

SITE_CACHE_APPEND = register_fault_site("cache.append")

#: Payload prefix of a commit frame: a zero corner-tag length.
_COMMIT_MARK = _TAG_LEN.pack(0)

#: ``(tag, key, metric row)`` — one cached pair.
Record = Tuple[bytes, bytes, np.ndarray]


class StoreError(RuntimeError):
    """The store file belongs to a different workload or is not a store."""


def _check_header(path: str, header: bytes, dimension: int, n_metrics: int) -> None:
    """Raise :class:`StoreError` unless ``header`` pins this workload."""
    if not header.startswith(MAGIC):
        raise StoreError(f"{path!r} is not an evaluation-cache store")
    body = header[len(MAGIC) : len(MAGIC) + _HEADER_BODY.size]
    (crc,) = _HEADER_CRC.unpack(header[len(MAGIC) + _HEADER_BODY.size :])
    if zlib.crc32(body) != crc:
        raise StoreError(f"{path!r} has a corrupt store header")
    version, file_dimension, file_n_metrics = _HEADER_BODY.unpack(body)
    if version != VERSION:
        raise StoreError(
            f"{path!r} is store format v{version}, expected v{VERSION}"
        )
    if file_dimension != dimension or file_n_metrics != n_metrics:
        raise StoreError(
            f"{path!r} was written for dimension={file_dimension}, "
            f"n_metrics={file_n_metrics}; this workload has "
            f"dimension={dimension}, n_metrics={n_metrics}"
        )


def _parse_payload(
    payload: bytes, key_width: int, row_width: int, n_metrics: int
) -> "Record | None":
    (tag_length,) = _TAG_LEN.unpack(payload[: _TAG_LEN.size])
    key_start = _TAG_LEN.size + tag_length
    row_start = key_start + key_width
    if len(payload) != row_start + row_width:
        return None
    tag = payload[_TAG_LEN.size : key_start]
    key = payload[key_start:row_start]
    # A view into the (immutable) payload bytes: read-only by
    # construction, matching the cache's frozen-row invariant.
    row = np.frombuffer(payload, dtype=np.float64, count=n_metrics, offset=row_start)
    return tag, key, row


def _scan_frames(
    handle,
    key_width: int,
    row_width: int,
    n_metrics: int,
    commits: "List[Tuple[int, bytes]] | None" = None,
) -> Tuple[List[Record], int]:
    """Read frames (from just past the header) until EOF or damage.

    Returns ``(records, good_offset)`` where ``good_offset`` is the file
    offset of the last frame boundary every record before it ends on.
    With a ``commits`` list, commit frames are collected into it as
    ``(pairs before the commit, commit payload)``; without one, a commit
    frame ends the scan like damage (a store never holds one).
    """
    records: List[Record] = []
    offset = HEADER_SIZE
    while True:
        length_bytes = handle.read(_FRAME_LEN.size)
        if len(length_bytes) < _FRAME_LEN.size:
            break  # clean EOF, or a tail torn inside the length field
        (length,) = _FRAME_LEN.unpack(length_bytes)
        payload = handle.read(length)
        crc_bytes = handle.read(_FRAME_CRC.size)
        if (
            length < _TAG_LEN.size
            or len(payload) < length
            or len(crc_bytes) < _FRAME_CRC.size
            or zlib.crc32(payload) != _FRAME_CRC.unpack(crc_bytes)[0]
        ):
            break  # torn/corrupt frame: everything after it is the tail
        if payload.startswith(_COMMIT_MARK):
            if commits is None:
                break
            commits.append((len(records), payload[_TAG_LEN.size :]))
        else:
            record = _parse_payload(payload, key_width, row_width, n_metrics)
            if record is None:
                break
            records.append(record)
        offset += _FRAME_LEN.size + length + _FRAME_CRC.size
    return records, offset


def read_records(
    path: str, dimension: int, n_metrics: int
) -> Tuple[List[Record], int]:
    """Read-only scan of a store file: the good records, without repair.

    Unlike constructing a :class:`CacheStore`, nothing is truncated and no
    write handle is taken, so this is safe on a file another process still
    owns — a torn tail (if any) is simply not yielded.  Returns
    ``(records, trailing_bytes)`` where ``trailing_bytes`` counts what a
    writer's repair pass would trim.
    """
    key_width = int(dimension) * 8
    row_width = int(n_metrics) * 8
    size = os.path.getsize(path)
    with open(path, "rb") as handle:
        header = handle.read(HEADER_SIZE)
        if len(header) < HEADER_SIZE:
            raise StoreError(f"{path!r} is truncated inside the store header")
        _check_header(path, header, int(dimension), int(n_metrics))
        records, good_offset = _scan_frames(handle, key_width, row_width, n_metrics)
    return records, size - good_offset


def scan_journal(
    path: str, dimension: int, n_metrics: int
) -> Tuple[List[Record], List[Tuple[int, bytes]]]:
    """Read-only scan of a cache journal: its pairs and its commits.

    Returns ``(records, commits)``: every intact pair in append order, and
    one ``(pairs before it, payload)`` entry per intact commit.  The scan
    stops at the first short or CRC-failing frame, so a torn tail (a
    half-written pair or commit) is never read; a file shorter than its
    header (a creation that died before the header landed) holds nothing.
    Raises :class:`StoreError` when the file is not a journal of this
    shape.
    """
    with open(path, "rb") as handle:
        header = handle.read(HEADER_SIZE)
        if len(header) < HEADER_SIZE:
            return [], []
        _check_header(path, header, int(dimension), int(n_metrics))
        commits: List[Tuple[int, bytes]] = []
        records, _ = _scan_frames(
            handle, int(dimension) * 8, int(n_metrics) * 8, int(n_metrics), commits
        )
    return records, commits


def merge_stores(
    target_path: str,
    shard_paths: "Sequence[str]",
    dimension: int,
    n_metrics: int,
) -> int:
    """Merge per-shard store files into one master store, deduplicated.

    The sharded executor gives every shard its own single-writer store
    file (preserving the append-only/torn-tail-repair invariant — no
    cross-process locking) and the parent replays them into the master
    after all workers have exited.  Shards are replayed **in the given
    order** and a ``(tag, key)`` pair already present in the master or an
    earlier shard is skipped: the parity locks guarantee duplicate pairs
    carry bit-identical rows, so first-write-wins is exact, and the merged
    file's record sequence is deterministic.  Returns the number of
    records appended.
    """
    target = CacheStore(target_path, dimension, n_metrics)
    try:
        seen = {(tag, key) for tag, key, _ in target.records}
        appended = 0
        for path in shard_paths:
            records, _ = read_records(path, dimension, n_metrics)
            for tag, key, row in records:
                if (tag, key) in seen:
                    continue
                seen.add((tag, key))
                target.append(tag, key, row)
                appended += 1
        target.flush()
    finally:
        target.close()
    return appended


class CacheStore:
    """Single-writer append-only record log with torn-tail repair.

    Parameters
    ----------
    path:
        Store file; created (with its parent directory) when missing.
    dimension, n_metrics:
        The workload shape fixing the key and metric-row byte widths.

    Attributes
    ----------
    records:
        The ``(tag, key, metrics)`` tuples that survived the opening scan,
        in append order (later duplicates intentionally kept — the loader
        replays them in order, so last-write-wins like the appends did).
    repaired_bytes:
        Bytes truncated off a torn tail at open (0 for a clean file).
    record_count, size:
        Complete pair records in the file and its length in bytes,
        counting every append (and commit) made through this handle.
    """

    def __init__(self, path: str, dimension: int, n_metrics: int) -> None:
        self.path = path
        self._key_width = int(dimension) * 8
        self._row_width = int(n_metrics) * 8
        self._dimension = int(dimension)
        self._n_metrics = int(n_metrics)
        self.records: List[Record] = []
        self.repaired_bytes = 0
        self.size = HEADER_SIZE
        self._heads: Dict[bytes, Tuple[bytes, int]] = {}
        # Encoded frames not yet handed to the file: one write per flush.
        self._pending: List[bytes] = []
        self._file = self._open()
        self.record_count = len(self.records)

    # -- opening and repair --------------------------------------------
    def _open(self):
        directory = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(directory, exist_ok=True)
        size = os.path.getsize(self.path) if os.path.exists(self.path) else 0
        if size < HEADER_SIZE:
            # New store — or a creation that died before the header landed
            # (nothing after a torn header can be valid, so start over).
            self.repaired_bytes = size
            handle = open(self.path, "wb")  # analysis: allow(non-atomic-artifact-write) append-only log, integrity via per-record CRCs
            handle.write(self._header())
            handle.flush()
            os.fsync(handle.fileno())
            fsync_directory(directory)
            return handle
        handle = open(self.path, "r+b")
        try:
            self._validate_header(handle.read(HEADER_SIZE))
            good_offset = self._scan(handle)
        except StoreError:
            handle.close()
            raise
        if good_offset < size:
            handle.truncate(good_offset)
            self.repaired_bytes = size - good_offset
        handle.seek(good_offset)
        self.size = good_offset
        return handle

    def _header(self) -> bytes:
        body = _HEADER_BODY.pack(VERSION, self._dimension, self._n_metrics)
        return MAGIC + body + _HEADER_CRC.pack(zlib.crc32(body))

    def _validate_header(self, header: bytes) -> None:
        _check_header(self.path, header, self._dimension, self._n_metrics)

    def _scan(self, handle) -> int:
        """Read frames until EOF or damage; return the last good offset."""
        records, offset = _scan_frames(
            handle, self._key_width, self._row_width, self._n_metrics
        )
        self.records.extend(records)
        return offset

    # -- appends --------------------------------------------------------
    def _frame_head(self, tag: bytes) -> Tuple[bytes, int]:
        """``(frame bytes before the key, crc32 of the payload's tag part)``.

        Every frame of one corner starts the same way (the payload length
        is fixed by the workload shape), so this is built once per tag.
        """
        tag_part = _TAG_LEN.pack(len(tag)) + tag
        length = len(tag_part) + self._key_width + self._row_width
        head = (_FRAME_LEN.pack(length) + tag_part, zlib.crc32(tag_part))
        self._heads[tag] = head
        return head

    def frame(self, tag: bytes, key: bytes, metrics: np.ndarray) -> bytes:
        """The on-disk frame of one ``(corner tag, row key, metric row)`` pair.

        The bytes depend only on the workload shape, so a frame built by
        one log can be appended to another of the same shape.
        """
        if not tag:
            raise ValueError("a pair needs a non-empty corner tag")
        if len(key) != self._key_width:
            raise ValueError(f"key width {len(key)}, expected {self._key_width}")
        body = key + metrics.tobytes()
        if len(body) != self._key_width + self._row_width:
            raise ValueError(
                f"metric row has {metrics.size} values, expected {self._n_metrics}"
            )
        prefix, tag_crc = self._heads.get(tag) or self._frame_head(tag)
        return prefix + body + _FRAME_CRC.pack(zlib.crc32(body, tag_crc))

    def append(self, tag: bytes, key: bytes, metrics: np.ndarray) -> None:
        """Append one ``(corner tag, row key, metric row)`` record."""
        self.append_frame(self.frame(tag, key, metrics))

    def append_frame(self, frame: bytes) -> None:
        """Append one pair frame built by :meth:`frame`."""
        self._append(frame, SITE_CACHE_APPEND)
        self.record_count += 1

    def commit(self, payload: bytes, fault_site: str) -> int:
        """Append a commit frame after the pending pairs; one fsync for all.

        Returns the frame's size in bytes.  ``fault_site`` is the drill
        site the commit passes: when it fires, half the frame reaches the
        file before the fault propagates, so the previous commit is the
        last intact one.
        """
        body = _COMMIT_MARK + payload
        frame = (
            _FRAME_LEN.pack(len(body)) + body + _FRAME_CRC.pack(zlib.crc32(body))
        )
        self._append(frame, fault_site)
        self.sync()
        return len(frame)

    def _append(self, frame: bytes, fault_site: str) -> None:
        if self._file is None:
            raise StoreError(f"store {self.path!r} is closed")
        try:
            fault_point(fault_site)
        except InjectedFault:
            # Die like a real crash would: half the frame durably on disk.
            self._pending.append(frame[: len(frame) // 2])
            self.flush()
            raise
        self._pending.append(frame)
        self.size += len(frame)

    def flush(self) -> None:
        """Hand every appended frame to the operating system."""
        if self._file is not None:
            if self._pending:
                self._file.write(b"".join(self._pending))
                self._pending.clear()
            self._file.flush()

    def sync(self) -> None:
        """Make every append so far durable: flush, then fsync."""
        if self._file is not None:
            self.flush()
            os.fsync(self._file.fileno())

    def close(self) -> None:
        if self._file is not None:
            self.sync()
            self._file.close()
            self._file = None
