"""Measurement records and result sets.

Every individual download — whatever the transport, target, method or
vantage point — produces one :class:`MeasurementRecord`. A
:class:`ResultSet` is an ordered collection with the filtering,
grouping, and pairing operations the analysis layer needs (paired
t-tests require per-target alignment across transports, exactly like
the paper's appendix tables).
"""

from __future__ import annotations

import enum
import math
import statistics
from dataclasses import dataclass, field, replace
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

#: The record fields :meth:`ColumnStore.grouped_values` can group by.
_GROUP_KEYS = ("pt", "target", "method")


def check_group_key(by: str) -> None:
    """Raise the ``ValueError`` every store gives for an unknown ``by``."""
    if by not in _GROUP_KEYS:
        raise ValueError(f"cannot group by {by!r}; "
                         f"known: {', '.join(_GROUP_KEYS)}")


def status_fractions_from_counts(counts: Sequence[int],
                                 ) -> dict["Status", float]:
    """Status -> fraction from per-status integer counts.

    The one shared finalisation used by the in-memory and chunked
    stores: identical integer sums divided identically are bit-equal.
    """
    total = sum(counts)
    return {status: counts[s] / total
            for s, status in enumerate(_STATUSES)}


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
    :meth:`ResultSet.values_by` in a single pass over the records.
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
    """One-pass columnar view of a record list.

    Extracts group codes (pt, target, method, status) and, lazily, one
    value column per metric field, so the analysis reductions can be
    batched instead of re-filtering the record list per transport.
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
        # Snapshot the record list: a store retained across a mutation
        # must stay internally consistent (its code columns were built
        # from exactly these rows).
        records = list(records)
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
        self._categories = categories
        self._first_category = first_category
        self._records = records
        self._value_columns: dict[str, list[Optional[float]]] = {}
        self._mean_tables: dict[tuple, dict[str, dict[str, float]]] = {}

    # -- column access -------------------------------------------------

    def value_column(self, value: str) -> list[Optional[float]]:
        """Per-record metric values (None preserved), extracted once."""
        column = self._value_columns.get(value)
        if column is None:
            column = [getattr(r, value) for r in self._records]
            self._value_columns[value] = column
        return column

    def _masked_columns(self, value: str, method: Optional[Method],
                        base_codes: list[int],
                        ) -> tuple[list[int], list[float]]:
        """(masked codes, values) ready for a grouped reduction.

        Rows whose method mismatches the filter or whose metric is None
        get code -1 (excluded from every grouped reduction).
        """
        column = self.value_column(value)
        method_code = None if method is None else _METHOD_CODE[method]
        codes = [
            code if (method_code is None or m == method_code)
            and v is not None else -1
            for code, m, v in zip(base_codes, self.method_codes, column)]
        values = [0.0 if v is None else v for v in column]
        return codes, values

    # -- grouped reductions --------------------------------------------

    def grouped_values(self, value: str, by: str = "pt",
                       method: Optional[Method] = None,
                       sort: bool = False) -> GroupedValues:
        from repro.analysis import backend

        check_group_key(by)
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
        grouper = backend.group_sorted_flat if sort else backend.group_flat
        flat, starts = grouper(codes, values, len(labels))
        return GroupedValues(labels=labels, values=flat,
                             starts=tuple(starts))

    def _pair_grouped_flat(self, value: str, method: Optional[Method],
                           ) -> tuple[list[float], list[int]]:
        """(pt, target)-grouped flat values: group (p, t) occupies
        ``flat[starts[p * n_targets + t]:...]``."""
        from repro.analysis import backend

        n_targets = len(self.targets)
        codes, values = self._masked_columns(value, method, self.pt_codes)
        combined = [code * n_targets + target if code >= 0 else -1
                    for code, target in zip(codes, self.target_codes)]
        return backend.group_flat(combined, values,
                                  len(self.pts) * n_targets)

    def per_target_groups(self, value: str, method: Optional[Method] = None,
                          ) -> Iterator[tuple[str, str, list[float]]]:
        """Yield (pt, target, values) for every non-empty (pt, target)
        group, in pt-then-target first-seen order.

        The chunked column store folds these per-shard slices into
        mergeable exact sums; :meth:`per_target_mean_table` reduces them
        directly.
        """
        flat, starts = self._pair_grouped_flat(value, method)
        n_targets = len(self.targets)
        for p, pt in enumerate(self.pts):
            base = p * n_targets
            for t, target in enumerate(self.targets):
                lo, hi = starts[base + t], starts[base + t + 1]
                if hi > lo:
                    yield pt, target, flat[lo:hi]

    def per_target_mean_table(self, value: str,
                              method: Optional[Method] = None,
                              ) -> dict[str, dict[str, float]]:
        """pt -> target -> mean metric, grouped in one pass.

        The paper accesses every website several times and averages per
        website before testing; this computes that reduction for every
        transport at once (the per-pair re-filtering it replaces was
        O(pairs x records)) and memoizes it per (value, method) — one
        report pipeline asks for the same table from box stats, means,
        and both t-test reductions. Treat the returned nested dict as
        read-only.
        """
        key = (value, method)
        cached = self._mean_tables.get(key)
        if cached is not None:
            return cached

        table: dict[str, dict[str, float]] = {}
        for pt, target, values in self.per_target_groups(value, method):
            table.setdefault(pt, {})[target] = \
                math.fsum(values) / len(values)
        self._mean_tables[key] = table
        return table

    def pt_categories(self, strict: bool = True) -> dict[str, str]:
        """pt -> category, derived from *all* of a transport's records.

        With ``strict=True`` (the default) a transport whose records
        disagree on its category raises ``ValueError`` — a corrupt or
        mis-merged result set would silently skew Table 10 otherwise.
        ``strict=False`` falls back to the first-seen category, for
        callers that only need labels and must not fail on transports
        they are not even comparing.
        """
        out: dict[str, str] = {}
        for pt in self.pts:
            seen = self._categories[pt]
            if len(seen) != 1 and strict:
                raise ValueError(
                    f"transport {pt!r} has inconsistent categories: "
                    f"{sorted(seen)}")
            out[pt] = self._first_category[pt]
        return out

    def status_counts_by_pt(self) -> dict[str, list[int]]:
        """Per-PT record counts per status (``_STATUSES`` order).

        Integer counts are the mergeable form of the reliability
        reduction: the chunked column store sums them across shards and
        divides once, reproducing :meth:`status_fractions_by_pt`
        bitwise.
        """
        from repro.analysis import backend

        n_statuses = len(_STATUSES)
        combined = [p * n_statuses + s
                    for p, s in zip(self.pt_codes, self.status_codes)]
        counts = backend.group_counts(combined,
                                      len(self.pts) * n_statuses)
        return {pt: counts[p * n_statuses:(p + 1) * n_statuses]
                for p, pt in enumerate(self.pts)}

    def status_fractions_by_pt(self) -> dict[str, dict[Status, float]]:
        """Per-PT complete/partial/failed fractions in one grouped pass."""
        return {pt: status_fractions_from_counts(counts)
                for pt, counts in self.status_counts_by_pt().items()}

    def category_info(self) -> tuple[dict[str, set], dict[str, str]]:
        """(pt -> categories seen, pt -> first-seen category).

        Read-only views of the extraction pass's category bookkeeping;
        the chunked column store merges them across shards to reproduce
        :meth:`pt_categories` without re-reading records.
        """
        return self._categories, self._first_category


class ResultSet:
    """An ordered collection of measurement records.

    Mutate only through :meth:`append` / :meth:`extend` — they bump the
    version counter that keeps the cached columnar view honest. Direct
    mutation of the underlying record list (index assignment, slicing,
    ``del``) is unsupported: the columnar cache cannot observe it and
    will keep serving reductions over the old rows until the next
    tracked mutation.
    """

    def __init__(self, records: Iterable[MeasurementRecord] = ()) -> None:
        self._records: list[MeasurementRecord] = list(records)
        self._columns: Optional[ColumnStore] = None
        #: Monotonic mutation counter; ``columns()`` caches against it.
        self._version = 0
        self._columns_version = -1

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

    def pts(self) -> list[str]:
        """Distinct transport names, in first-seen order."""
        return list(self.columns().pts)

    def by_pt(self) -> dict[str, "ResultSet"]:
        groups: dict[str, ResultSet] = {}
        for r in self.records:
            groups.setdefault(r.pt, ResultSet()).append(r)
        return groups

    def targets(self) -> list[str]:
        """Distinct target names, in first-seen order."""
        return list(self.columns().targets)

    # -- values ------------------------------------------------------------

    def durations(self) -> list[float]:
        return [r.duration_s for r in self.records]

    def ttfbs(self) -> list[float]:
        return [r.ttfb_s for r in self.records if r.ttfb_s is not None]

    def speed_indices(self) -> list[float]:
        return [r.speed_index_s for r in self.records
                if r.speed_index_s is not None]

    def fractions_downloaded(self) -> list[float]:
        return [r.fraction_downloaded for r in self.records]

    def mean_duration(self) -> float:
        if not self.records:
            raise ValueError("empty result set")
        return statistics.fmean(self.durations())

    def median_duration(self) -> float:
        if not self.records:
            raise ValueError("empty result set")
        return statistics.median(self.durations())

    # -- reliability ---------------------------------------------------

    def status_fractions(self) -> dict[Status, float]:
        """Fraction of records per outcome (Figure 8a's bars)."""
        if not self.records:
            return {s: 0.0 for s in Status}
        n = len(self.records)
        return {s: sum(1 for r in self.records if r.status is s) / n
                for s in Status}

    # -- columnar extraction --------------------------------------------

    def columns(self) -> ColumnStore:
        """The cached columnar view (rebuilt when records were added).

        Invalidation is by mutation version, not by length: a length
        check alone would serve a stale store after any equal-length
        change. Every :meth:`append`/:meth:`extend` bumps the version;
        direct mutation of ``.records`` bypasses it and is unsupported
        (see the class docs).
        """
        if self._columns is None or self._columns_version != self._version:
            self._columns = ColumnStore(self._records)
            self._columns_version = self._version
        return self._columns

    def values_by(self, value: str = "duration_s", *, by: str = "pt",
                  method: Optional[Method] = None,
                  sort: bool = False) -> GroupedValues:
        """Flat metric values with group slices, extracted in one pass.

        ``by`` is ``"pt"``, ``"target"`` or ``"method"``; records whose
        metric is None (or whose method mismatches the filter) are
        skipped, as the per-group loops they replace did. With
        ``sort=True`` every group's slice comes back sorted ascending
        (one vectorized pass — what ECDF construction wants).
        """
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

    def relabel(self, **changes) -> "ResultSet":
        """Copy with fields overridden on every record (e.g. medium)."""
        return ResultSet(replace(r, **changes) for r in self.records)
