"""Measurement records, result sets and their one reduction engine.

Every individual download — whatever the transport, target, method or
vantage point — produces one :class:`MeasurementRecord`. A
:class:`ResultSet` is an ordered collection with the filtering,
grouping, and pairing operations the analysis layer needs (paired
t-tests require per-target alignment across transports, exactly like
the paper's appendix tables).

Every reduction over records runs through :class:`ChunkedColumnStore`,
which folds per-chunk extractions (:class:`ColumnStore`) into mergeable
aggregates. A ``ResultSet`` reduces as one chunk, a
:class:`~repro.measure.store.ShardedResultStore` as one chunk per
shard; :class:`ReducibleResults` gives both the same reduction surface.
"""

from __future__ import annotations

import abc
import enum
import statistics
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Optional, Sequence

from repro.web.types import Status


class Method(enum.Enum):
    """Access method (Table 1's measurement types)."""

    CURL = "curl"
    SELENIUM = "selenium"
    BROWSERTIME = "browsertime"


class TargetKind(enum.Enum):
    WEBSITE = "website"
    FILE = "file"


@dataclass(frozen=True)
class MeasurementRecord:
    """One download attempt."""

    pt: str
    category: str
    target: str
    kind: TargetKind
    method: Method
    client_city: str
    server_city: str
    medium: str
    duration_s: float
    status: Status
    bytes_expected: float
    bytes_received: float
    ttfb_s: Optional[float] = None
    speed_index_s: Optional[float] = None
    sim_time_s: float = 0.0
    repetition: int = 0
    meta: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status is Status.COMPLETE

    @property
    def fraction_downloaded(self) -> float:
        if self.bytes_expected <= 0:
            return 1.0
        return min(1.0, self.bytes_received / self.bytes_expected)


#: Stable small-int encodings for the enum columns.
_METHODS: tuple[Method, ...] = tuple(Method)
_METHOD_CODE = {m: i for i, m in enumerate(_METHODS)}
_STATUSES: tuple[Status, ...] = tuple(Status)
_STATUS_CODE = {s: i for i, s in enumerate(_STATUSES)}

#: The record fields a reduction can group by.
_GROUP_KEYS = ("pt", "target", "method")
#: The record fields a reduction can take values from: the float fields
#: of :class:`MeasurementRecord`.
_VALUE_FIELDS = ("duration_s", "ttfb_s", "speed_index_s",
                 "bytes_expected", "bytes_received", "sim_time_s")


def _check_value(value: str) -> None:
    """Raise ``ValueError`` for a value name no float field carries."""
    if value not in _VALUE_FIELDS:
        raise ValueError(f"cannot reduce {value!r}; "
                         f"known: {', '.join(_VALUE_FIELDS)}")


def _check_group_key(by: str) -> None:
    """Raise ``ValueError`` for an unknown ``by``."""
    if by not in _GROUP_KEYS:
        raise ValueError(f"cannot group by {by!r}; "
                         f"known: {', '.join(_GROUP_KEYS)}")


def record_to_row(r: MeasurementRecord) -> dict:
    """One record as a plain dict row (the serialisation wire format).

    Shared by :meth:`ResultSet.to_rows` and the JSONL shard writers in
    :mod:`repro.measure.io`, which serialise records one at a time
    without materializing a row list.
    """
    return {
        "pt": r.pt, "category": r.category, "target": r.target,
        "kind": r.kind.value, "method": r.method.value,
        "client": r.client_city, "server": r.server_city,
        "medium": r.medium, "duration_s": r.duration_s,
        "ttfb_s": r.ttfb_s, "speed_index_s": r.speed_index_s,
        "status": r.status.value,
        "bytes_expected": r.bytes_expected,
        "bytes_received": r.bytes_received,
        "repetition": r.repetition,
        "sim_time_s": r.sim_time_s,
        "meta": dict(r.meta),
    }


@dataclass(frozen=True)
class GroupedValues:
    """Flat metric values grouped contiguously, plus group slices.

    ``values`` holds every extracted value ordered by group (groups in
    label order, record order within a group); group i occupies
    ``values[starts[i]:starts[i + 1]]``. Produced by
    :meth:`ReducibleResults.values_by`.
    """

    labels: tuple[str, ...]
    values: list[float]
    starts: tuple[int, ...]

    def group(self, label: str) -> list[float]:
        i = self.labels.index(label)
        return self.values[self.starts[i]:self.starts[i + 1]]

    def items(self) -> Iterator[tuple[str, list[float]]]:
        for i, label in enumerate(self.labels):
            yield label, self.values[self.starts[i]:self.starts[i + 1]]


class ColumnStore:
    """One-pass columnar extraction of one chunk of records.

    Extracts group codes (pt, target, method, status) and per-PT
    category sets up front, and a value column when a reduction asks
    for one. It is the per-chunk half of :class:`ChunkedColumnStore`,
    which builds one per chunk and pass, and checks value names and
    group keys before it asks for them.
    """

    def __init__(self, records: Sequence[MeasurementRecord]) -> None:
        self.n = len(records)
        pts: list[str] = []
        pt_index: dict[str, int] = {}
        targets: list[str] = []
        target_index: dict[str, int] = {}
        pt_codes: list[int] = []
        target_codes: list[int] = []
        method_codes: list[int] = []
        status_codes: list[int] = []
        categories: dict[str, set[str]] = {}
        first_category: dict[str, str] = {}
        for r in records:
            pt_code = pt_index.get(r.pt)
            if pt_code is None:
                pt_code = pt_index[r.pt] = len(pts)
                pts.append(r.pt)
                categories[r.pt] = set()
                first_category[r.pt] = r.category
            target_code = target_index.get(r.target)
            if target_code is None:
                target_code = target_index[r.target] = len(targets)
                targets.append(r.target)
            pt_codes.append(pt_code)
            target_codes.append(target_code)
            method_codes.append(_METHOD_CODE[r.method])
            status_codes.append(_STATUS_CODE[r.status])
            categories[r.pt].add(r.category)
        self.pts = tuple(pts)
        self.targets = tuple(targets)
        self.pt_codes = pt_codes
        self.target_codes = target_codes
        self.method_codes = method_codes
        self.status_codes = status_codes
        #: pt -> every category its records carry / the first one seen.
        self.categories = categories
        self.first_category = first_category
        self._records = records

    # -- column access -------------------------------------------------

    def _masked_columns(self, value: str, method: Optional[Method],
                        base_codes: list[int],
                        ) -> tuple[list[int], list[float]]:
        """(masked codes, values) ready for a grouped reduction.

        Rows whose method mismatches the filter or whose metric is None
        get code -1 (excluded from every grouped reduction).
        """
        column = [getattr(r, value) for r in self._records]
        method_code = None if method is None else _METHOD_CODE[method]
        codes = [
            code if (method_code is None or m == method_code)
            and v is not None else -1
            for code, m, v in zip(base_codes, self.method_codes, column)]
        values = [0.0 if v is None else v for v in column]
        return codes, values

    # -- grouped slices ------------------------------------------------

    def grouped_values(self, value: str, by: str = "pt",
                       method: Optional[Method] = None) -> GroupedValues:
        """This chunk's values grouped by ``by``, record order kept."""
        from repro.analysis import backend

        if by == "pt":
            labels: tuple[str, ...] = self.pts
            base_codes = self.pt_codes
        elif by == "target":
            labels = self.targets
            base_codes = self.target_codes
        else:
            labels = tuple(m.value for m in _METHODS)
            base_codes = self.method_codes
        codes, values = self._masked_columns(value, method, base_codes)
        flat, starts = backend.group_flat(codes, values, len(labels))
        return GroupedValues(labels=labels, values=flat,
                             starts=tuple(starts))

    def per_target_groups(self, value: str, method: Optional[Method] = None,
                          ) -> Iterator[tuple[str, str, list[float]]]:
        """Yield (pt, target, values) for every non-empty (pt, target)
        group, in pt-then-target first-seen order."""
        from repro.analysis import backend

        n_targets = len(self.targets)
        codes, values = self._masked_columns(value, method, self.pt_codes)
        # Group (p, t) occupies flat[starts[p * n_targets + t]:...].
        combined = [code * n_targets + target if code >= 0 else -1
                    for code, target in zip(codes, self.target_codes)]
        flat, starts = backend.group_flat(combined, values,
                                          len(self.pts) * n_targets)
        for p, pt in enumerate(self.pts):
            base = p * n_targets
            for t, target in enumerate(self.targets):
                lo, hi = starts[base + t], starts[base + t + 1]
                if hi > lo:
                    yield pt, target, flat[lo:hi]

    def status_counts_by_pt(self) -> dict[str, list[int]]:
        """Per-PT record counts per status (``_STATUSES`` order).

        Integer counts are the mergeable form of the reliability
        reduction: the chunk fold sums them across chunks and divides
        once.
        """
        from repro.analysis import backend

        n_statuses = len(_STATUSES)
        combined = [p * n_statuses + s
                    for p, s in zip(self.pt_codes, self.status_codes)]
        counts = backend.group_counts(combined,
                                      len(self.pts) * n_statuses)
        return {pt: counts[p * n_statuses:(p + 1) * n_statuses]
                for p, pt in enumerate(self.pts)}


class ChunkedColumnStore:
    """The reduction engine: record chunks folded one at a time.

    ``chunks`` is a zero-argument callable returning a fresh iterable
    of record sequences. A :class:`ResultSet` is one chunk, the
    snapshot of its records; a
    :class:`~repro.measure.store.ShardedResultStore` is one chunk per
    shard file plus its live buffer. Each reduction streams the chunks
    once, extracting each with a :class:`ColumnStore` and folding
    mergeable aggregates — exact sums via
    :class:`repro.analysis.backend.ExactSum`, integer status counts,
    first-seen label registries — so no result depends on where the
    chunk boundaries fall. Labels (transports, targets) register in
    global first-seen order as chunks stream by.

    Memory: the fold-based reductions (:meth:`per_target_mean_table`,
    :meth:`status_fractions_by_pt`, :meth:`pt_categories`) hold one
    chunk of records plus O(groups) aggregates. :meth:`grouped_values`
    is different by contract — its return value *is* every included
    metric value, so it costs O(included records) floats (though never
    the record objects themselves, which is the dominant term a sharded
    store avoids).

    The other deliberate caveat: every reduction call is a full pass
    over the chunks (a disk re-read for file-backed stores). Mean
    tables memoize per (value, method).
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
        for pt, seen in store.categories.items():
            self._categories.setdefault(pt, set()).update(seen)
        for pt, category in store.first_category.items():
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

    # -- the reductions ------------------------------------------------

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
        """Flat metric values with group slices.

        ``by`` is ``"pt"``, ``"target"`` or ``"method"``; records whose
        metric is None (or whose method mismatches the filter) are
        skipped. Chunk slices are concatenated per label (chunk order =
        record order), and with ``sort=True`` each complete group is
        sorted once at the end (what ECDF construction wants).
        """
        from repro.analysis import backend

        # Checked up front: an empty store streams no chunk that would
        # trip over an unknown name.
        _check_value(value)
        _check_group_key(by)
        buckets: dict[str, list[float]] = {}
        if by == "method":
            # Fixed label set, present even for an empty store.
            buckets = {m.value: [] for m in Method}
        for store in self._chunk_stores():
            grouped = store.grouped_values(value, by=by, method=method)
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
        """pt -> target -> mean metric, for every transport at once.

        The paper accesses every website several times and averages per
        website before testing. Each (pt, target) group accumulates a
        :class:`~repro.analysis.backend.ExactSum` fed one chunk slice
        at a time, whose final rounding equals one ``fsum`` over the
        whole group. Memoized per (value, method) — one report pipeline
        asks for the same table from box stats, means, and both t-test
        reductions. Treat the returned nested dict as read-only.
        """
        from repro.analysis import backend

        _check_value(value)
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
        """pt -> category, derived from *all* of a transport's records.

        With ``strict=True`` (the default) a transport whose records
        disagree on its category raises ``ValueError`` — a corrupt or
        mis-merged result set would silently skew Table 10 otherwise —
        even when the conflicting records sit in different chunks.
        ``strict=False`` falls back to the first-seen category, for
        callers that only need labels and must not fail on transports
        they are not even comparing.
        """
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
        """Per-PT status fractions from merged integer chunk counts."""
        self._ensure_scanned()
        fractions: dict[str, dict[Status, float]] = {}
        for pt, counts in self._status_counts.items():
            # replint: allow[NUM01] -- integer status counts; exact under built-in sum
            total = sum(counts)
            fractions[pt] = {status: counts[s] / total
                             for s, status in enumerate(_STATUSES)}
        return fractions


class ReducibleResults(abc.ABC):
    """The reduction surface of a record container.

    :class:`ResultSet` and
    :class:`~repro.measure.store.ShardedResultStore` share it, so the
    analysis layer runs unchanged over either. A subclass names the
    chunks its records come in (:meth:`_chunk_source`) and bumps
    ``_version`` on every mutation; every reduction goes through the
    cached :meth:`columns` view.
    """

    def __init__(self) -> None:
        #: Monotonic mutation counter; ``columns()`` caches against it.
        self._version = 0
        self._columns: Optional[ChunkedColumnStore] = None
        self._columns_version = -1

    @abc.abstractmethod
    def _chunk_source(self,
                      ) -> Callable[[], Iterable[Sequence[MeasurementRecord]]]:
        """The chunk provider a newly built columnar view folds."""

    def columns(self) -> ChunkedColumnStore:
        """The cached columnar view (rebuilt after a mutation).

        Invalidation is by mutation version, not by length: a length
        check alone would serve a stale view after any equal-length
        change.
        """
        if self._columns is None or self._columns_version != self._version:
            self._columns = ChunkedColumnStore(self._chunk_source())
            self._columns_version = self._version
        return self._columns

    def pts(self) -> list[str]:
        """Distinct transport names, in first-seen order."""
        return list(self.columns().pts)

    def targets(self) -> list[str]:
        """Distinct target names, in first-seen order."""
        return list(self.columns().targets)

    def values_by(self, value: str = "duration_s", *, by: str = "pt",
                  method: Optional[Method] = None,
                  sort: bool = False) -> GroupedValues:
        """Flat metric values with group slices (see
        :meth:`ChunkedColumnStore.grouped_values`)."""
        return self.columns().grouped_values(value, by=by, method=method,
                                             sort=sort)

    def per_target_mean_table(self, value: str = "duration_s",
                              method: Optional[Method] = None,
                              ) -> dict[str, dict[str, float]]:
        """pt -> target -> mean metric for every transport in one pass."""
        return self.columns().per_target_mean_table(value, method)

    def pt_categories(self, strict: bool = True) -> dict[str, str]:
        """pt -> category (with ``strict``, raises on inconsistency)."""
        return self.columns().pt_categories(strict=strict)

    def status_fractions_by_pt(self) -> dict[str, dict[Status, float]]:
        """Per-PT complete/partial/failed fractions (Figure 8a)."""
        return self.columns().status_fractions_by_pt()


class ResultSet(ReducibleResults):
    """An ordered collection of measurement records.

    Mutate only through :meth:`append` / :meth:`extend` — they bump the
    version counter that keeps the cached columnar view honest. Direct
    mutation of the underlying record list (index assignment, slicing,
    ``del``) is unsupported: the columnar cache cannot observe it and
    will keep serving reductions over the old rows until the next
    tracked mutation.
    """

    def __init__(self, records: Iterable[MeasurementRecord] = ()) -> None:
        super().__init__()
        self._records: list[MeasurementRecord] = list(records)

    @property
    def records(self) -> list[MeasurementRecord]:
        """The record list (treat as read-only; see the class docs)."""
        return self._records

    # -- collection basics ---------------------------------------------

    def append(self, record: MeasurementRecord) -> None:
        self._records.append(record)
        self._version += 1

    def extend(self, other: "ResultSet | Iterable[MeasurementRecord]") -> None:
        if isinstance(other, ResultSet):
            self._records.extend(other._records)
        else:
            self._records.extend(other)
        self._version += 1

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[MeasurementRecord]:
        return iter(self.records)

    def __bool__(self) -> bool:
        return bool(self.records)

    def _chunk_source(self,
                      ) -> Callable[[], Iterable[Sequence[MeasurementRecord]]]:
        # One chunk, snapshotted now: a view retained across a mutation
        # keeps serving the records it was built over.
        chunks = (list(self._records),)
        return lambda: chunks

    # -- filtering -------------------------------------------------------

    def filter(self, *, pt: Optional[str] = None,
               method: Optional[Method] = None,
               kind: Optional[TargetKind] = None,
               status: Optional[Status] = None,
               target: Optional[str] = None,
               category: Optional[str] = None,
               predicate: Optional[Callable[[MeasurementRecord], bool]] = None,
               ) -> "ResultSet":
        """A new ResultSet with records matching every given criterion."""
        out = []
        for r in self.records:
            if pt is not None and r.pt != pt:
                continue
            if method is not None and r.method is not method:
                continue
            if kind is not None and r.kind is not kind:
                continue
            if status is not None and r.status is not status:
                continue
            if target is not None and r.target != target:
                continue
            if category is not None and r.category != category:
                continue
            if predicate is not None and not predicate(r):
                continue
            out.append(r)
        return ResultSet(out)

    # -- grouping --------------------------------------------------------

    def by_pt(self) -> dict[str, "ResultSet"]:
        groups: dict[str, ResultSet] = {}
        for r in self.records:
            groups.setdefault(r.pt, ResultSet()).append(r)
        return groups

    # -- values ------------------------------------------------------------

    def durations(self) -> list[float]:
        return [r.duration_s for r in self.records]

    def fractions_downloaded(self) -> list[float]:
        return [r.fraction_downloaded for r in self.records]

    def mean_duration(self) -> float:
        if not self.records:
            raise ValueError("empty result set")
        return statistics.fmean(self.durations())

    # -- reliability ---------------------------------------------------

    def status_fractions(self) -> dict[Status, float]:
        """Fraction of records per outcome (Figure 8a's bars)."""
        if not self.records:
            return {s: 0.0 for s in Status}
        n = len(self.records)
        return {s: sum(1 for r in self.records if r.status is s) / n
                for s in Status}

    # -- pairing (for paired t-tests) -----------------------------------

    def per_target_means(self, pt: str, value: str = "duration_s",
                         method: Optional[Method] = None) -> dict[str, float]:
        """target → mean metric for one transport.

        The paper accesses every website several times and averages per
        website before testing; this reproduces that reduction.
        """
        return dict(self.per_target_mean_table(value, method).get(pt, {}))

    def paired_values(self, pt_a: str, pt_b: str, value: str = "duration_s",
                      method: Optional[Method] = None,
                      ) -> tuple[list[float], list[float]]:
        """Target-aligned per-site means for two transports."""
        table = self.per_target_mean_table(value, method)
        means_a = table.get(pt_a, {})
        means_b = table.get(pt_b, {})
        common = [t for t in means_a if t in means_b]
        return ([means_a[t] for t in common], [means_b[t] for t in common])

    # -- export ------------------------------------------------------------

    def to_rows(self) -> list[dict]:
        """Plain-dict rows (stable keys) for serialisation/reporting."""
        return [record_to_row(r) for r in self.records]
