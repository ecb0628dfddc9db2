"""Result persistence: the JSONL shard format.

The paper publishes its measurement data and analysis scripts; this
module is the equivalent surface for the reproduction. Campaigns export
as JSONL shards (one row object per line, written by
:func:`write_shard` or :class:`AtomicShardWriter`) that
:func:`iter_json_lines` streams back one
:class:`~repro.measure.records.MeasurementRecord` at a time, so
out-of-core pipelines (the sharded store in :mod:`repro.measure.store`,
spooling parallel workers) never hold a whole campaign in RAM.

The format is append-friendly, newline-splittable, and exact — JSON
serialises doubles via ``repr``, which round-trips every finite float
bit-identically.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Iterable, Iterator, Optional, TextIO, Union

from repro.measure.records import (
    MeasurementRecord,
    Method,
    ResultSet,
    TargetKind,
    record_to_row,
)
from repro.web.types import Status

#: The row keys :func:`record_to_row` writes. ``sim_time_s`` and
#: ``meta`` are the newest, so rows that predate them still parse
#: (missing keys fall back to the record defaults on read).
_KNOWN_KEYS = frozenset((
    "pt", "category", "target", "kind", "method", "client", "server",
    "medium", "duration_s", "ttfb_s", "speed_index_s", "status",
    "bytes_expected", "bytes_received", "repetition", "sim_time_s", "meta",
))

#: value -> enum member, bypassing EnumMeta.__call__ in the row-decode
#: hot path (a streaming pass decodes millions of rows per reduction).
_KIND_OF = {k.value: k for k in TargetKind}
_METHOD_OF = {m.value: m for m in Method}
_STATUS_OF = {s.value: s for s in Status}

#: Anything the writers accept: a result set or a plain record iterable.
Records = Union[ResultSet, Iterable[MeasurementRecord]]


def _opt_float(value):
    return None if value is None else float(value)


def _record_from_row(row: dict) -> MeasurementRecord:
    meta = dict(row.get("meta") or {})
    if row.keys() != _KNOWN_KEYS:
        # Not the exact current schema (which every row we write has):
        # unknown keys must not be dropped silently, or hand-edited or
        # newer-format shards would lose fields. The explicit meta
        # object wins on a key collision.
        unknown = {key: value for key, value in row.items()
                   if key not in _KNOWN_KEYS and value is not None}
        if unknown:
            meta = {**unknown, **meta}

    try:
        kind = _KIND_OF[row["kind"]]
        method = _METHOD_OF[row["method"]]
        status = _STATUS_OF[row["status"]]
    except KeyError as exc:
        if any(key not in row for key in ("kind", "method", "status")):
            raise  # absent column: the bare KeyError names it, as before
        # The dict lookups exist for speed; corrupt or newer-format
        # files still deserve the descriptive ValueError the enum
        # constructors used to raise.
        raise ValueError(f"row has invalid enum value {exc.args[0]!r} "
                         f"(kind={row.get('kind')!r}, "
                         f"method={row.get('method')!r}, "
                         f"status={row.get('status')!r})") from None
    return MeasurementRecord(
        pt=row["pt"],
        category=row["category"],
        target=row["target"],
        kind=kind,
        method=method,
        client_city=row["client"],
        server_city=row["server"],
        medium=row["medium"],
        duration_s=float(row["duration_s"]),
        status=status,
        bytes_expected=float(row["bytes_expected"]),
        bytes_received=float(row["bytes_received"]),
        ttfb_s=_opt_float(row.get("ttfb_s")),
        speed_index_s=_opt_float(row.get("speed_index_s")),
        sim_time_s=float(row.get("sim_time_s", 0.0)),
        repetition=int(row.get("repetition", 0)),
        meta=meta,
    )


def rows_to_result_set(rows: Iterable[dict]) -> ResultSet:
    """Rebuild a result set from :meth:`ResultSet.to_rows` output.

    This is the wire format parallel campaign workers use to ship
    results back to the parent process, so it must restore every field.
    Unknown row keys land in ``meta``.
    """
    return ResultSet(_record_from_row(row) for row in rows)


def row_lines(results: Records) -> Iterator[str]:
    """Records as JSONL lines (trailing newline included), streamed.

    The one serialization every shard writer shares — the spool merge
    copies raw lines between files, so bit-identity across write paths
    is only guaranteed because they all emit exactly these bytes.
    """
    for record in results:
        yield json.dumps(record_to_row(record), sort_keys=True) + "\n"


def write_shard(results: Records, path: str | Path) -> tuple[int, str]:
    """Atomically write a JSONL shard; return ``(n_rows, sha256 hex)``.

    The bytes land in ``<name>.tmp`` first, are flushed and fsynced,
    then :func:`os.replace`'d into place — a writer killed at any
    instant leaves either the complete shard or no shard at the final
    path, never a truncated one (the stale ``.tmp`` is simply
    overwritten by the retry). The digest fingerprints the exact bytes
    on disk, so readers (the supervisor's verify hook, journal resume)
    can prove a shard is intact without trusting the filesystem.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    digest = hashlib.sha256()
    n_rows = 0
    with tmp.open("wb") as handle:
        for line in row_lines(results):
            data = line.encode()
            digest.update(data)
            handle.write(data)
            n_rows += 1
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    return n_rows, digest.hexdigest()


class AtomicShardWriter:
    """Incremental atomic text writer for shard-sized outputs.

    Lines stream into ``<name>.tmp``; :meth:`commit` flushes, fsyncs
    and :func:`os.replace`'s the bytes into place, giving the same
    crash contract as :func:`write_shard` (complete shard or no shard,
    never a truncated one) without requiring the caller to hold all
    lines in memory or re-serialise records. :meth:`abort` discards an
    unfinished writer, leaving only a stale ``.tmp`` the next attempt
    overwrites. Used by the parallel campaign merge, which rolls over
    many chunk-sized shards while streaming unit files.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._tmp = self.path.with_name(self.path.name + ".tmp")
        self._handle: Optional[TextIO] = self._tmp.open("w")

    def write(self, line: str) -> None:
        if self._handle is None:
            raise ValueError(f"writer for {self.path} is closed")
        self._handle.write(line)

    def commit(self) -> None:
        """Durably publish the shard at its final path."""
        if self._handle is None:
            raise ValueError(f"writer for {self.path} is closed")
        handle, self._handle = self._handle, None
        handle.flush()
        os.fsync(handle.fileno())
        handle.close()
        os.replace(self._tmp, self.path)

    def abort(self) -> None:
        """Drop an unfinished shard (nothing appears at the final path)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None


def file_digest(path: str | Path) -> str:
    """sha256 hex digest of a file's bytes (shard integrity checks)."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def iter_json_lines(path: str | Path) -> Iterator[MeasurementRecord]:
    """Stream records from a JSONL shard, one at a time."""
    path = Path(path)
    with path.open() as handle:
        for line in handle:
            line = line.strip()
            if line:
                yield _record_from_row(json.loads(line))


def merge(result_sets: Iterable[ResultSet]) -> ResultSet:
    """Concatenate several result sets (e.g. per-location exports)."""
    merged = ResultSet()
    for results in result_sets:
        merged.extend(results)
    return merged
