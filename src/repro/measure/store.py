"""Sharded, append-only streaming result store for out-of-core campaigns.

The paper's headline artifact is a dataset of *millions* of PT
measurements; holding every :class:`~repro.measure.records.MeasurementRecord`
in RAM makes paper-scale campaigns memory-bound long before they are
CPU-bound. :class:`ShardedResultStore` accepts records through the same
``append``/``extend`` surface as a ``ResultSet`` but spills them to
JSONL shard files (:mod:`repro.measure.io`'s shard format) once the
in-memory buffer reaches ``chunk_size`` — a campaign of tens of
millions of records holds at most one chunk of records plus small
per-group aggregates.

Reductions run through the engine a ``ResultSet`` uses,
:class:`~repro.measure.records.ChunkedColumnStore`, here fed one shard
at a time instead of one chunk holding every record. The fold merges
exact sums, integer counts and first-seen label registries, so its
results do not depend on where chunk boundaries fall. See
``docs/streaming-store.md``.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Callable, Iterable, Iterator, Optional, Sequence

from repro.errors import ConfigError
from repro.measure import io as measure_io
from repro.measure.records import (
    MeasurementRecord,
    ReducibleResults,
    ResultSet,
)

#: Default records per shard: large enough to amortize per-shard
#: overheads, small enough that one chunk of records is a rounding
#: error against a paper-scale campaign.
DEFAULT_CHUNK_SIZE = 100_000

#: Shard file names, ``shard-<index>.jsonl`` (see :func:`shard_path`).
_SHARD_NAME = re.compile(r"shard-(\d+)\.jsonl")

#: Bytes read from the end of a shard when validating its tail. Shard
#: lines are single JSON row objects, far below this bound.
_TAIL_PROBE = 1 << 20


def shard_path(directory: Path, index: int) -> Path:
    """Shard number ``index`` of a store directory (``shard-00007.jsonl``).

    This module alone knows the shard name: it is written here and read
    back by ``_SHARD_NAME``.
    """
    return directory / f"shard-{index:05d}.jsonl"


def _list_shards(directory: Path) -> list[tuple[int, Path]]:
    """(index, path) of every shard file in a directory, by index.

    Numeric order, not lexicographic: the 5-digit name padding
    overflows past 99999 shards and "shard-100000" sorts before
    "shard-99999" as a string.
    """
    found: list[tuple[int, Path]] = []
    for path in directory.iterdir():
        match = _SHARD_NAME.fullmatch(path.name)
        if match is not None:
            found.append((int(match[1]), path))
    return sorted(found)


def remove_shards(directory: Path) -> None:
    """Delete a directory's shard files and their leftovers.

    A leftover keeps its shard's name and adds a suffix: ``.tmp`` from
    an unfinished atomic write, ``.corrupt`` from quarantine.
    """
    if not directory.is_dir():
        return
    for path in directory.iterdir():
        if _SHARD_NAME.match(path.name):
            path.unlink()


def _shard_tail_valid(path: Path) -> bool:
    """Whether a shard file ends in a complete, parseable JSONL line.

    A shard written through the atomic path is either whole or absent,
    but stores written by older code (or copied around carelessly) can
    end in a torn line. Torn writes only ever damage the *tail* —
    JSONL is append-only — so checking the last line is a complete
    integrity probe for that failure mode, at a bounded read cost.
    An empty shard is valid (zero records).
    """
    size = path.stat().st_size
    if size == 0:
        return True
    probe = min(size, _TAIL_PROBE)
    with path.open("rb") as handle:
        handle.seek(size - probe)
        tail = handle.read(probe)
    if not tail.endswith(b"\n"):
        return False
    body = tail.rstrip(b"\n")
    if size > probe and b"\n" not in body:
        return False  # a "line" longer than the probe is not our format
    last = body.rsplit(b"\n", 1)[-1]
    try:
        obj = json.loads(last)
    except ValueError:
        return False
    return isinstance(obj, dict)


class ShardedResultStore(ReducibleResults):
    """Append-only record store that spills to JSONL shards.

    Quacks like a :class:`~repro.measure.records.ResultSet` for the
    analysis layer — ``append``/``extend``, ``len``, iteration, and
    the :class:`~repro.measure.records.ReducibleResults` reduction
    surface — while keeping at most ``chunk_size`` records in memory.
    Its columnar view folds the shard files and then the live buffer,
    one chunk at a time.

    A store owns its directory: creating one over a directory that
    already holds shards raises (use :meth:`open` to re-attach to an
    existing export).
    """

    def __init__(self, directory: str | Path, *,
                 chunk_size: int = DEFAULT_CHUNK_SIZE,
                 _shards: Optional[list[Path]] = None,
                 _next_shard_index: int = 0) -> None:
        if chunk_size < 1:
            raise ConfigError("chunk_size must be >= 1")
        super().__init__()
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        if _shards is None:
            if self.has_shards(self.directory):
                raise ConfigError(
                    f"{self.directory} already contains shards; use "
                    "ShardedResultStore.open() to read an existing store")
            _shards = []
        self.chunk_size = chunk_size
        self._buffer: list[MeasurementRecord] = []
        #: Shard files in index order; :meth:`open` hands in the ones
        #: it adopted.
        self._shards: list[Path] = _shards
        #: Next shard file number: for an adopted directory, one past
        #: the highest index :meth:`open` found, not the shard count —
        #: a gap in the numbering, or a shard quarantined aside, must
        #: never be overwritten.
        self._next_shard_index = _next_shard_index
        #: Records per shard; None until counted (adopted shards are
        #: only line-counted when a caller actually asks for len()).
        self._shard_counts: Optional[list[int]] = \
            None if _shards else []
        #: Shards :meth:`open` renamed aside as damaged (``*.corrupt``).
        self.quarantined: tuple[Path, ...] = ()

    @classmethod
    def open(cls, directory: str | Path, *,
             chunk_size: int = DEFAULT_CHUNK_SIZE,
             shard_counts: Optional[Sequence[int]] = None,
             ) -> "ShardedResultStore":
        """Attach to a directory of previously written shards.

        The directory must exist: a mistyped path raises
        :class:`~repro.errors.ConfigError` instead of reading as an
        empty campaign. Each shard's tail is checked first (see
        :func:`_shard_tail_valid`); a damaged shard is *quarantined* —
        renamed to ``<name>.corrupt``, so no longer a shard — instead
        of crashing the first reduction that streams into the torn
        line. Quarantined paths are reported on ``store.quarantined``
        so callers can surface the data loss; the store carries on
        with the intact shards.

        ``shard_counts`` lets a caller that just wrote the shards (and
        therefore knows the per-shard record counts) seed the lazy
        ``len()`` bookkeeping instead of paying a line-count pass; it
        must have one entry per shard file. Counts and quarantine are
        mutually exclusive: a writer that knows its counts wrote the
        shards *now*, so a damaged one means the counts are wrong too
        — that is an error, not a degradation.
        """
        directory = Path(directory)
        if not directory.is_dir():
            raise ConfigError(f"no result store at {directory}: "
                              "not a directory")
        found = _list_shards(directory)
        # Claim the numbering of *every* pre-quarantine shard: a later
        # spill must never mint the index of a shard that was just
        # renamed aside.
        next_index = found[-1][0] + 1 if found else 0
        intact: list[Path] = []
        quarantined: list[Path] = []
        for _, path in found:
            if _shard_tail_valid(path):
                intact.append(path)
            else:
                target = path.with_name(path.name + ".corrupt")
                path.replace(target)
                quarantined.append(target)
        if quarantined and shard_counts is not None:
            raise ConfigError(
                f"{len(quarantined)} shard(s) in {directory} are corrupt "
                f"({', '.join(p.name for p in quarantined)}) but "
                "shard_counts was supplied — the writer's bookkeeping "
                "no longer matches the directory")
        store = cls(directory, chunk_size=chunk_size, _shards=intact,
                    _next_shard_index=next_index)
        store.quarantined = tuple(quarantined)
        if shard_counts is not None:
            if len(shard_counts) != len(intact):
                raise ConfigError(
                    f"shard_counts has {len(shard_counts)} entries for "
                    f"{len(intact)} shard files")
            store._shard_counts = list(shard_counts)
        return store

    @staticmethod
    def has_shards(directory: str | Path) -> bool:
        """Whether a directory already holds shard files.

        The one shared definition of "occupied" for every pre-flight
        check (CLI export targets, the spool merge claim) — callers
        must not re-implement the shard name, or a future format
        change would desynchronize their guards from the store's own.
        """
        directory = Path(directory)
        return directory.is_dir() and bool(_list_shards(directory))

    # -- collection basics ---------------------------------------------

    def append(self, record: MeasurementRecord) -> None:
        self._buffer.append(record)
        self._version += 1
        if len(self._buffer) >= self.chunk_size:
            self._spill()

    def extend(self, records: ResultSet | Iterable[MeasurementRecord],
               ) -> None:
        for record in records:
            self.append(record)

    def _spill(self) -> None:
        if not self._buffer:
            return
        path = shard_path(self.directory, self._next_shard_index)
        self._next_shard_index += 1
        # Atomic (tmp + fsync + rename): a process killed mid-spill
        # leaves no torn shard for the next open() to quarantine.
        measure_io.write_shard(self._buffer, path)
        self._shards.append(path)
        if self._shard_counts is not None:
            self._shard_counts.append(len(self._buffer))
        self._buffer = []

    def flush(self) -> None:
        """Spill the in-memory tail so every record is on disk."""
        self._spill()

    @property
    def shard_paths(self) -> tuple[Path, ...]:
        return tuple(self._shards)

    def __len__(self) -> int:
        if self._shard_counts is None:
            # Adopted shards: count lines once, on the first len() ask —
            # open() itself must not pay a full dataset pass.
            counts: list[int] = []
            for path in self._shards:
                with path.open() as handle:
                    counts.append(sum(1 for line in handle
                                      if line.strip()))
            self._shard_counts = counts
        # replint: allow[NUM01] -- integer line counts; exact under built-in sum
        return sum(self._shard_counts) + len(self._buffer)

    def __bool__(self) -> bool:
        return len(self) > 0

    def iter_chunks(self) -> Iterator[list[MeasurementRecord]]:
        """Chunks of records: one per shard file, then the live buffer."""
        for path in self._shards:
            yield list(measure_io.iter_json_lines(path))
        if self._buffer:
            yield list(self._buffer)

    def iter_records(self) -> Iterator[MeasurementRecord]:
        """Every record in append order, streaming shard by shard."""
        for chunk in self.iter_chunks():
            yield from chunk

    def __iter__(self) -> Iterator[MeasurementRecord]:
        return self.iter_records()

    def to_result_set(self) -> ResultSet:
        """Materialize everything in RAM (small stores / tests only)."""
        return ResultSet(self.iter_records())

    def _chunk_source(self,
                      ) -> Callable[[], Iterator[list[MeasurementRecord]]]:
        return self.iter_chunks
