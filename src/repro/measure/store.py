"""Sharded, append-only streaming result store for out-of-core campaigns.

The paper's headline artifact is a dataset of *millions* of PT
measurements; holding every :class:`~repro.measure.records.MeasurementRecord`
in RAM makes paper-scale campaigns memory-bound long before they are
CPU-bound. This module is the scale leg of the roadmap's north star:

* :class:`ShardedResultStore` accepts records through the same
  ``append``/``extend`` surface as a ``ResultSet`` but spills them to
  JSONL shard files (:mod:`repro.measure.io`'s shard format) once the
  in-memory buffer reaches ``chunk_size`` — a campaign of tens of
  millions of records holds at most one chunk of records plus small
  per-group aggregates;
* :class:`ChunkedColumnStore` exposes the ``ResultSet`` reduction
  surface (``values_by``, ``per_target_mean_table``, ``pt_categories``,
  ``status_fractions_by_pt``) by folding *mergeable* partial aggregates
  per shard — exact sums via :class:`repro.analysis.backend.ExactSum`,
  integer status counts, first-seen label registries — instead of
  materializing flat columns. Per-chunk grouping runs through the same
  analysis backend as the in-memory path.

Exactness is by construction: every scalar that the in-memory path
computes with one ``math.fsum`` is computed here from Shewchuk partials
fed shard by shard, whose final rounding is the same double; integer
counts merge exactly; sorting/grouping are exact operations. See
``docs/streaming-store.md`` for the full argument.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, Iterable, Iterator, Optional, Sequence

from repro.analysis import backend
from repro.errors import ConfigError
from repro.measure import io as measure_io
from repro.measure.records import (
    ColumnStore,
    GroupedValues,
    MeasurementRecord,
    Method,
    ResultSet,
    check_group_key,
    status_fractions_from_counts,
)
from repro.web.types import Status

#: Default records per shard: large enough to amortize per-shard
#: overheads, small enough that one chunk of records is a rounding
#: error against a paper-scale campaign.
DEFAULT_CHUNK_SIZE = 100_000

_SHARD_GLOB = "shard-*.jsonl"

#: Bytes read from the end of a shard when validating its tail. Shard
#: lines are single JSON row objects, far below this bound.
_TAIL_PROBE = 1 << 20


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


class ChunkedColumnStore:
    """Reductions over a sequence of record chunks, folded per shard.

    ``chunks`` is a zero-argument callable returning a fresh iterable
    of record sequences — each reduction streams the chunks once,
    folding per-chunk aggregates produced by the regular
    :class:`~repro.measure.records.ColumnStore` machinery. Labels
    (transports, targets) register in global first-seen order as chunks
    stream by, which is exactly the order the in-memory extraction
    would have seen them in.

    Memory: the fold-based reductions (:meth:`per_target_mean_table`,
    :meth:`status_fractions_by_pt`, :meth:`pt_categories`) hold one
    chunk of records plus O(groups) aggregates. :meth:`grouped_values`
    is different by contract — its return value *is* every included
    metric value, so it costs O(included records) floats (though never
    the record objects themselves, which is the dominant term the
    store avoids).

    The other deliberate caveat: every reduction call is a full pass
    over the chunks (a disk re-read for file-backed stores). Mean
    tables memoize per (value, method), mirroring the in-memory store.
    """

    def __init__(self, chunks: Callable[[], Iterable[Sequence[MeasurementRecord]]],
                 ) -> None:
        self._chunks = chunks
        self.n = 0
        self._pts: list[str] = []
        self._pt_index: dict[str, int] = {}
        self._targets: list[str] = []
        self._target_index: dict[str, int] = {}
        self._categories: dict[str, set[str]] = {}
        self._first_category: dict[str, str] = {}
        self._status_counts: dict[str, list[int]] = {}
        self._scanned = False
        self._mean_tables: dict[tuple, dict[str, dict[str, float]]] = {}

    # -- streaming machinery -------------------------------------------

    def _register(self, store: ColumnStore) -> None:
        """Merge one chunk's label/category registries into the globals."""
        for pt in store.pts:
            if pt not in self._pt_index:
                self._pt_index[pt] = len(self._pts)
                self._pts.append(pt)
        for target in store.targets:
            if target not in self._target_index:
                self._target_index[target] = len(self._targets)
                self._targets.append(target)
        categories, first = store.category_info()
        for pt, seen in categories.items():
            self._categories.setdefault(pt, set()).update(seen)
        for pt, category in first.items():
            self._first_category.setdefault(pt, category)

    def _chunk_stores(self) -> Iterator[ColumnStore]:
        """One full pass: per-chunk column stores, bookkeeping folded.

        The first complete pass also accumulates the value-independent
        aggregates (record count, per-PT status counts); later passes
        only pay for the reduction they serve.
        """
        scan = not self._scanned
        n = 0
        counts: dict[str, list[int]] = {}
        for chunk in self._chunks():
            store = ColumnStore(chunk)
            self._register(store)
            if scan:
                n += store.n
                for pt, chunk_counts in store.status_counts_by_pt().items():
                    merged = counts.get(pt)
                    if merged is None:
                        counts[pt] = list(chunk_counts)
                    else:
                        for i, c in enumerate(chunk_counts):
                            merged[i] += c
            yield store
        if scan:
            self.n = n
            self._status_counts = counts
            self._scanned = True

    def _ensure_scanned(self) -> None:
        if not self._scanned:
            for _ in self._chunk_stores():
                pass

    # -- the ResultSet reduction surface --------------------------------

    @property
    def pts(self) -> tuple[str, ...]:
        self._ensure_scanned()
        return tuple(self._pts)

    @property
    def targets(self) -> tuple[str, ...]:
        self._ensure_scanned()
        return tuple(self._targets)

    def grouped_values(self, value: str, by: str = "pt",
                       method: Optional[Method] = None,
                       sort: bool = False) -> GroupedValues:
        """Streaming :meth:`ColumnStore.grouped_values` equivalent.

        Chunk slices are concatenated per label (chunk order = record
        order), and with ``sort=True`` each complete group is sorted
        once at the end — sorting is exact, so the result is
        bit-identical to sorting per-group over the full in-memory
        column.
        """
        # Checked up front: an empty store streams no chunk whose
        # grouping would reject an unknown key.
        check_group_key(by)
        buckets: dict[str, list[float]] = {}
        if by == "method":
            # Fixed label set, present even for an empty store — the
            # in-memory path labels every method unconditionally.
            buckets = {m.value: [] for m in Method}
        for store in self._chunk_stores():
            grouped = store.grouped_values(value, by=by, method=method,
                                           sort=False)
            for label, values in grouped.items():
                bucket = buckets.get(label)
                if bucket is None:
                    bucket = buckets[label] = []
                bucket.extend(values)
        labels = tuple(buckets)
        flat: list[float] = []
        starts = [0]
        for label in labels:
            # Pop as we go: with sort=True each group's sorted copy
            # replaces its bucket instead of coexisting with it, so the
            # assembly never holds two copies of the full column.
            values = buckets.pop(label)
            flat.extend(backend.sort_values(values) if sort else values)
            starts.append(len(flat))
        return GroupedValues(labels=labels, values=flat,
                             starts=tuple(starts))

    def per_target_mean_table(self, value: str,
                              method: Optional[Method] = None,
                              ) -> dict[str, dict[str, float]]:
        """pt -> target -> mean, folded exactly across shards.

        Each (pt, target) group accumulates a
        :class:`~repro.analysis.backend.ExactSum` fed one chunk slice
        at a time; the final rounding equals one ``fsum`` over the
        whole group, so the table is bit-identical to
        :meth:`ColumnStore.per_target_mean_table`.
        """
        key = (value, method)
        cached = self._mean_tables.get(key)
        if cached is not None:
            return cached

        sums: dict[tuple[str, str], backend.ExactSum] = {}
        for store in self._chunk_stores():
            for pt, target, values in store.per_target_groups(value, method):
                acc = sums.get((pt, target))
                if acc is None:
                    acc = sums[(pt, target)] = backend.ExactSum()
                acc.add(values)
        table: dict[str, dict[str, float]] = {}
        for pt in self._pts:
            row: dict[str, float] = {}
            for target in self._targets:
                acc = sums.get((pt, target))
                if acc is not None:
                    row[target] = acc.mean()
            if row:
                table[pt] = row
        self._mean_tables[key] = table
        return table

    def pt_categories(self, strict: bool = True) -> dict[str, str]:
        """pt -> category, merged from every shard's category sets."""
        self._ensure_scanned()
        out: dict[str, str] = {}
        for pt in self._pts:
            seen = self._categories[pt]
            if len(seen) != 1 and strict:
                raise ValueError(
                    f"transport {pt!r} has inconsistent categories: "
                    f"{sorted(seen)}")
            out[pt] = self._first_category[pt]
        return out

    def status_fractions_by_pt(self) -> dict[str, dict[Status, float]]:
        """Per-PT status fractions from merged integer shard counts."""
        self._ensure_scanned()
        return {pt: status_fractions_from_counts(counts)
                for pt, counts in self._status_counts.items()}


class ShardedResultStore:
    """Append-only record store that spills to JSONL shards.

    Quacks like a :class:`~repro.measure.records.ResultSet` for the
    analysis layer — ``append``/``extend``, ``len``, iteration, and
    the full reduction surface (:meth:`values_by`,
    :meth:`per_target_mean_table`, :meth:`pt_categories`,
    :meth:`status_fractions_by_pt`) — while keeping at most
    ``chunk_size`` records in memory. Reductions go through a
    :class:`ChunkedColumnStore` over the shard files plus the live
    buffer, and are bit-identical to the in-memory path by
    construction.

    A store owns its directory: creating one over a directory that
    already holds shards raises (use :meth:`open` to re-attach to an
    existing export).
    """

    def __init__(self, directory: str | Path, *,
                 chunk_size: int = DEFAULT_CHUNK_SIZE,
                 _adopt_existing: bool = False) -> None:
        if chunk_size < 1:
            raise ConfigError("chunk_size must be >= 1")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        # Shard order is numeric, not lexicographic: the 5-digit name
        # padding overflows past 99999 shards and "shard-100000" sorts
        # before "shard-99999" as a string.
        existing = sorted(self.directory.glob(_SHARD_GLOB),
                          key=lambda p: int(p.stem.split("-", 1)[1]))
        if existing and not _adopt_existing:
            raise ConfigError(
                f"{self.directory} already contains shards; use "
                "ShardedResultStore.open() to read an existing store")
        self.chunk_size = chunk_size
        self._buffer: list[MeasurementRecord] = []
        self._shards: list[Path] = existing
        #: Next shard file number: one past the highest existing index,
        #: not the shard count — an adopted directory with a gap in its
        #: numbering must never overwrite the shard after the gap.
        self._next_shard_index = (
            int(existing[-1].stem.split("-", 1)[1]) + 1 if existing else 0)
        #: Records per shard; None until counted (adopted shards are
        #: only line-counted when a caller actually asks for len()).
        self._shard_counts: Optional[list[int]] = \
            None if existing else []
        self._version = 0
        self._columns: Optional[ChunkedColumnStore] = None
        self._columns_version = -1
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
        renamed to ``<name>.corrupt``, out of the shard glob — instead
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
        quarantined: list[Path] = []
        next_index = 0
        shards = sorted(directory.glob(_SHARD_GLOB),
                        key=lambda p: int(p.stem.split("-", 1)[1]))
        if shards:
            # Claim the numbering of *every* pre-quarantine shard: a
            # later spill must never mint the index of a shard that was
            # just renamed aside.
            next_index = int(shards[-1].stem.split("-", 1)[1]) + 1
        for path in shards:
            if not _shard_tail_valid(path):
                target = path.with_name(path.name + ".corrupt")
                path.replace(target)
                quarantined.append(target)
        if quarantined and shard_counts is not None:
            raise ConfigError(
                f"{len(quarantined)} shard(s) in {directory} are corrupt "
                f"({', '.join(p.name for p in quarantined)}) but "
                "shard_counts was supplied — the writer's bookkeeping "
                "no longer matches the directory")
        store = cls(directory, chunk_size=chunk_size, _adopt_existing=True)
        store.quarantined = tuple(quarantined)
        store._next_shard_index = max(store._next_shard_index, next_index)
        if shard_counts is not None:
            if len(shard_counts) != len(store._shards):
                raise ConfigError(
                    f"shard_counts has {len(shard_counts)} entries for "
                    f"{len(store._shards)} shard files")
            store._shard_counts = list(shard_counts)
        return store

    @staticmethod
    def has_shards(directory: str | Path) -> bool:
        """Whether a directory already holds shard files.

        The one shared definition of "occupied" for every pre-flight
        check (CLI export targets, the spool merge claim) — callers
        must not re-implement the shard glob, or a future format
        change would desynchronize their guards from the store's own.
        """
        directory = Path(directory)
        return directory.is_dir() and any(directory.glob(_SHARD_GLOB))

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
        path = self.directory / f"shard-{self._next_shard_index:05d}.jsonl"
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

    # -- the ResultSet reduction surface --------------------------------

    def columns(self) -> ChunkedColumnStore:
        """The cached chunked columnar view (rebuilt after mutation)."""
        if self._columns is None or self._columns_version != self._version:
            self._columns = ChunkedColumnStore(self.iter_chunks)
            self._columns_version = self._version
        return self._columns

    def pts(self) -> list[str]:
        return list(self.columns().pts)

    def targets(self) -> list[str]:
        return list(self.columns().targets)

    def values_by(self, value: str = "duration_s", *, by: str = "pt",
                  method: Optional[Method] = None,
                  sort: bool = False) -> GroupedValues:
        return self.columns().grouped_values(value, by=by, method=method,
                                             sort=sort)

    def per_target_mean_table(self, value: str = "duration_s",
                              method: Optional[Method] = None,
                              ) -> dict[str, dict[str, float]]:
        return self.columns().per_target_mean_table(value, method)

    def pt_categories(self, strict: bool = True) -> dict[str, str]:
        return self.columns().pt_categories(strict=strict)

    def status_fractions_by_pt(self) -> dict[str, dict[Status, float]]:
        return self.columns().status_fractions_by_pt()
