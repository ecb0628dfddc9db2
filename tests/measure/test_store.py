"""Streaming store tests: shard round-trips and streaming ≡ in-memory.

The contract under test is the tentpole's exactness argument: every
reduction the :class:`~repro.measure.store.ShardedResultStore` serves
must be *bit-identical* to the same reduction over an in-memory
:class:`~repro.measure.records.ResultSet` holding the same records —
for any chunk size (including the degenerate 1 and len+1 boundaries),
with ties, None-valued optional fields, and n=0/1 groups.
"""

import math
import os
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import backend
from repro.errors import ConfigError
from repro.measure.io import write_shard
from repro.measure.records import (
    ChunkedColumnStore,
    MeasurementRecord,
    Method,
    ResultSet,
    TargetKind,
)
from repro.measure.store import ShardedResultStore, remove_shards
from repro.web.types import Status

def rec(pt="tor", target="site0", duration=1.0, status=Status.COMPLETE,
        method=Method.CURL, ttfb=0.5, category="baseline",
        speed_index=None, meta=None):
    return MeasurementRecord(
        pt=pt, category=category, target=target, kind=TargetKind.WEBSITE,
        method=method, client_city="London", server_city="Frankfurt",
        medium="wired", duration_s=duration, status=status,
        bytes_expected=100.0, bytes_received=100.0, ttfb_s=ttfb,
        speed_index_s=speed_index, meta=meta or {})


def store_of(tmp_path, records, chunk_size):
    store = ShardedResultStore(tmp_path / f"store-{chunk_size}",
                               chunk_size=chunk_size)
    store.extend(records)
    return store


def assert_reductions_identical(store, rs):
    """Every surface the analysis layer uses, compared bitwise."""
    for value, method in (("duration_s", None), ("duration_s", Method.CURL),
                          ("ttfb_s", None), ("ttfb_s", Method.SELENIUM),
                          ("speed_index_s", None)):
        assert store.per_target_mean_table(value, method) == \
            rs.per_target_mean_table(value, method)
        for by in ("pt", "target", "method"):
            for sort in (False, True):
                assert store.values_by(value, by=by, method=method,
                                       sort=sort) == \
                    rs.values_by(value, by=by, method=method, sort=sort)
    assert store.status_fractions_by_pt() == rs.status_fractions_by_pt()
    assert store.pt_categories(strict=False) == rs.pt_categories(strict=False)
    assert store.pts() == rs.pts()
    assert store.targets() == rs.targets()
    assert len(store) == len(rs)


# ---------------------------------------------------------------------------
# shard mechanics
# ---------------------------------------------------------------------------


def test_store_spills_at_chunk_size(tmp_path):
    store = ShardedResultStore(tmp_path / "s", chunk_size=3)
    records = [rec(target=f"t{i}") for i in range(8)]
    store.extend(records)
    assert len(store.shard_paths) == 2      # 3 + 3 spilled, 2 buffered
    assert len(store) == 8
    store.flush()
    assert len(store.shard_paths) == 3
    assert list(store.iter_records()) == records
    assert store.to_result_set().records == records


def test_store_round_trips_every_field(tmp_path):
    records = [
        rec(meta={"k": "v", "n": 3}, ttfb=None, speed_index=1.25),
        rec(pt="meek", category="proxy layer", status=Status.PARTIAL,
            method=Method.SELENIUM, duration=7.5),
    ]
    store = store_of(tmp_path, records, chunk_size=1)
    assert list(store.iter_records()) == records


def test_store_open_rediscovers_shards(tmp_path):
    records = [rec(target=f"t{i}", duration=float(i)) for i in range(7)]
    store = store_of(tmp_path, records, chunk_size=2)
    store.flush()
    reopened = ShardedResultStore.open(tmp_path / "store-2")
    assert len(reopened) == 7
    assert list(reopened.iter_records()) == records


def test_store_refuses_to_clobber_existing_shards(tmp_path):
    store = store_of(tmp_path, [rec()], chunk_size=1)
    assert store.shard_paths
    with pytest.raises(ConfigError):
        ShardedResultStore(store.directory)


def test_store_rejects_bad_chunk_size(tmp_path):
    with pytest.raises(ConfigError):
        ShardedResultStore(tmp_path / "s", chunk_size=0)


def test_append_after_reduction_invalidates_columns(tmp_path):
    store = store_of(tmp_path, [rec(duration=1.0)], chunk_size=10)
    assert store.pts() == ["tor"]
    store.append(rec(pt="obfs4", category="fully encrypted"))
    assert store.pts() == ["tor", "obfs4"]
    assert len(store) == 2


# ---------------------------------------------------------------------------
# streaming ≡ in-memory, explicit cases
# ---------------------------------------------------------------------------


def _mixed_records():
    """Ties, None metrics, n=1 groups, one method-empty transport."""
    out = []
    for i in range(23):
        out.append(rec(pt="tor", target=f"t{i % 3}",
                       duration=1.0 if i % 4 else 2.5,   # heavy ties
                       ttfb=None if i % 5 == 0 else 0.25 * (i % 3),
                       status=Status.FAILED if i % 7 == 0
                       else Status.COMPLETE))
    for i in range(9):
        out.append(rec(pt="meek", category="proxy layer",
                       target=f"t{i % 2}", method=Method.SELENIUM,
                       duration=3.0 + 0.5 * i, speed_index=1.0 + i))
    out.append(rec(pt="lonely", category="mimicry", target="only",
                   duration=9.0, ttfb=None))               # n=1 group
    return out


@pytest.mark.parametrize("chunk_size", [1, 7, 24, 33, 34, 1000])
def test_streaming_matches_in_memory(tmp_path, chunk_size):
    records = _mixed_records()
    # chunk boundaries at 1 and len+1 are in the parametrize list
    # (len(records) == 33).
    assert len(records) == 33
    rs = ResultSet(records)
    store = store_of(tmp_path, records, chunk_size)
    assert_reductions_identical(store, rs)


def test_empty_store_matches_empty_result_set(tmp_path):
    store = ShardedResultStore(tmp_path / "s", chunk_size=4)
    rs = ResultSet()
    assert store.values_by("duration_s") == rs.values_by("duration_s")
    assert store.values_by("duration_s", by="method") == \
        rs.values_by("duration_s", by="method")
    assert store.per_target_mean_table() == rs.per_target_mean_table()
    assert store.status_fractions_by_pt() == rs.status_fractions_by_pt()
    assert store.pts() == [] and not store
    for side in (store, rs):
        with pytest.raises(ValueError, match="cannot group by 'bogus'"):
            side.values_by("duration_s", by="bogus")
        with pytest.raises(ValueError, match="cannot reduce 'bogus'"):
            side.values_by("bogus")
        with pytest.raises(ValueError, match="cannot reduce 'bogus'"):
            side.per_target_mean_table("bogus")


def test_pt_categories_strict_raises_across_shards(tmp_path):
    """Category inconsistency split across shard boundaries is caught."""
    records = [rec(category="baseline"), rec(category="mimicry")]
    store = store_of(tmp_path, records, chunk_size=1)   # one per shard
    with pytest.raises(ValueError):
        store.pt_categories()
    assert store.pt_categories(strict=False) == {"tor": "baseline"}


def test_chunked_column_store_over_plain_chunks():
    """ChunkedColumnStore works over any chunk provider, not just files."""
    records = _mixed_records()
    chunks = [records[:10], records[10:11], [], records[11:]]
    chunked = ChunkedColumnStore(lambda: iter(chunks))
    rs = ResultSet(records)
    assert chunked.per_target_mean_table("duration_s") == \
        rs.per_target_mean_table("duration_s")
    assert chunked.status_fractions_by_pt() == rs.status_fractions_by_pt()
    assert chunked.n == len(records)


# ---------------------------------------------------------------------------
# streaming ≡ in-memory, property-based
# ---------------------------------------------------------------------------

_names = st.sampled_from(["a", "b", "c", "d"])
_finite = st.floats(allow_nan=False, allow_infinity=False,
                    min_value=-1e9, max_value=1e9)
_opt = st.none() | st.floats(allow_nan=False, allow_infinity=False,
                             min_value=0.0, max_value=1e6)

_prop_records = st.builds(
    rec,
    pt=_names, target=_names, category=st.just("cat"),
    duration=_finite,
    method=st.sampled_from(list(Method)),
    status=st.sampled_from(list(Status)),
    ttfb=_opt, speed_index=_opt)


@given(records=st.lists(_prop_records, max_size=12),
       chunk_size=st.integers(1, 14))
@settings(max_examples=40, deadline=None)
def test_streaming_reductions_bit_identical_property(
        tmp_path_factory, records, chunk_size):
    rs = ResultSet(records)
    tmp = tmp_path_factory.mktemp("store")
    store = store_of(tmp, records, chunk_size)
    assert store.per_target_mean_table("duration_s") == \
        rs.per_target_mean_table("duration_s")
    assert store.values_by("duration_s", sort=True) == \
        rs.values_by("duration_s", sort=True)
    assert store.values_by("ttfb_s", by="target", method=Method.CURL) == \
        rs.values_by("ttfb_s", by="target", method=Method.CURL)
    if records:
        assert store.status_fractions_by_pt() == rs.status_fractions_by_pt()
    assert list(store.iter_records()) == records


@given(values=st.lists(st.floats(allow_nan=False, allow_infinity=False,
                                 min_value=-1e300, max_value=1e300),
                       max_size=40),
       cut=st.integers(0, 40))
@settings(max_examples=80, deadline=None)
def test_exact_sum_is_fsum_under_any_split(values, cut):
    """ExactSum's merge-safety: any chunking reproduces fsum bitwise."""
    cut = min(cut, len(values))
    acc = backend.ExactSum()
    acc.add(values[:cut])
    acc.add(values[cut:])
    assert acc.value == math.fsum(values)
    assert acc.count == len(values)
    if values:
        assert acc.mean() == math.fsum(values) / len(values)
    else:
        with pytest.raises(ValueError):
            acc.mean()


def test_open_orders_shards_numerically(tmp_path):
    """Lexicographic order breaks past the name padding; open() must not."""
    directory = tmp_path / "big"
    directory.mkdir()
    first = rec(target="first")
    second = rec(target="second")
    # shard-100000 sorts *before* shard-99999 as a string.
    write_shard([first], directory / "shard-99999.jsonl")
    write_shard([second], directory / "shard-100000.jsonl")
    store = ShardedResultStore.open(directory)
    assert [r.target for r in store.iter_records()] == ["first", "second"]
    assert len(store) == 2


def test_open_lists_the_directory_once(tmp_path, monkeypatch):
    """open() hands the shards it checked to the store instead of
    listing the directory a second time."""
    directory = tmp_path / "once"
    directory.mkdir()
    write_shard([rec(target="a")], directory / "shard-00000.jsonl")
    write_shard([rec(target="b")], directory / "shard-00001.jsonl")
    listings = []
    for name in ("listdir", "scandir"):
        def listing(path=".", _list=getattr(os, name)):
            if Path(path) == directory:
                listings.append(path)
            return _list(path)
        monkeypatch.setattr(os, name, listing)
    store = ShardedResultStore.open(directory)
    assert len(listings) == 1
    assert [r.target for r in store.iter_records()] == ["a", "b"]


def test_open_counts_lines_lazily(tmp_path):
    """open() must not pay a full dataset pass before len() is asked."""
    records = [rec(target=f"t{i}") for i in range(6)]
    store = store_of(tmp_path, records, chunk_size=2)
    store.flush()
    reopened = ShardedResultStore.open(tmp_path / "store-2")
    assert reopened._shard_counts is None          # nothing counted yet
    reopened.append(rec(target="tail"))            # mutation before count
    assert len(reopened) == 7                      # counted on demand
    assert reopened._shard_counts is not None


def test_spill_after_adopting_gapped_shards_never_overwrites(tmp_path):
    """Shard numbering continues past the highest existing index, so a
    pruned shard's gap can't cause a silent overwrite."""
    directory = tmp_path / "gap"
    directory.mkdir()
    write_shard([rec(target="keep0")], directory / "shard-00000.jsonl")
    write_shard([rec(target="keep2")], directory / "shard-00002.jsonl")
    store = ShardedResultStore.open(directory, chunk_size=1)
    store.append(rec(target="new"))
    assert (directory / "shard-00003.jsonl").exists()
    # The pre-existing shard after the gap is untouched.
    assert [r.target for r in store.iter_records()] == \
        ["keep0", "keep2", "new"]


# ---------------------------------------------------------------------------
# corrupt-shard quarantine (PR 6)
# ---------------------------------------------------------------------------


def test_open_quarantines_torn_trailing_shard(tmp_path):
    """A shard ending in a torn line is renamed aside, reported on
    store.quarantined, and the store carries on with intact shards."""
    directory = tmp_path / "dmg"
    directory.mkdir()
    write_shard([rec(target="good")], directory / "shard-00000.jsonl")
    write_shard([rec(target="doomed")], directory / "shard-00001.jsonl")
    torn = directory / "shard-00001.jsonl"
    torn.write_bytes(torn.read_bytes()[:-20])      # tear the tail
    store = ShardedResultStore.open(directory)
    assert [p.name for p in store.quarantined] == \
        ["shard-00001.jsonl.corrupt"]
    assert not torn.exists()
    assert (directory / "shard-00001.jsonl.corrupt").exists()
    assert [r.target for r in store.iter_records()] == ["good"]
    assert store.pts() == ["tor"]                  # reductions still work


def test_open_quarantines_unparseable_tail(tmp_path):
    directory = tmp_path / "dmg"
    directory.mkdir()
    path = directory / "shard-00000.jsonl"
    write_shard([rec(target="t")], path)
    with path.open("ab") as handle:
        handle.write(b'{"not": json}\n')
    store = ShardedResultStore.open(directory)
    assert len(store.quarantined) == 1
    assert len(store.shard_paths) == 0


def test_open_accepts_empty_shard(tmp_path):
    directory = tmp_path / "empty"
    directory.mkdir()
    (directory / "shard-00000.jsonl").write_bytes(b"")
    store = ShardedResultStore.open(directory)
    assert store.quarantined == ()
    assert len(store) == 0


def test_open_refuses_a_missing_directory(tmp_path):
    """A mistyped path must not read as an empty campaign, and opening
    it must not create the directory."""
    missing = tmp_path / "typo" / "does-not-exist"
    with pytest.raises(ConfigError, match="does-not-exist"):
        ShardedResultStore.open(missing)
    assert not (tmp_path / "typo").exists()


def test_open_with_shard_counts_and_corruption_is_an_error(tmp_path):
    """A writer that knows its counts wrote the shards now — damage
    means its bookkeeping is wrong, which must not degrade silently."""
    directory = tmp_path / "fresh"
    directory.mkdir()
    path = directory / "shard-00000.jsonl"
    write_shard([rec(target="t")], path)
    path.write_bytes(path.read_bytes()[:-5])
    with pytest.raises(ConfigError, match="corrupt"):
        ShardedResultStore.open(directory, shard_counts=[1])


def test_spill_after_quarantine_never_reuses_the_index(tmp_path):
    """The quarantined shard's number stays claimed: a later spill must
    not mint shard-00001 again while shard-00001.jsonl.corrupt exists."""
    directory = tmp_path / "reuse"
    directory.mkdir()
    write_shard([rec(target="a")], directory / "shard-00000.jsonl")
    torn = directory / "shard-00001.jsonl"
    write_shard([rec(target="b")], torn)
    torn.write_bytes(torn.read_bytes()[:-5])
    store = ShardedResultStore.open(directory, chunk_size=1)
    store.append(rec(target="c"))
    assert (directory / "shard-00002.jsonl").exists()
    assert [r.target for r in store.iter_records()] == ["a", "c"]


def test_remove_shards_takes_leftovers_and_nothing_else(tmp_path):
    """Shards and their .tmp/.corrupt leftovers go; other files stay."""
    directory = tmp_path / "merged"
    directory.mkdir()
    for name in ("shard-00000.jsonl", "shard-00001.jsonl.tmp",
                 "shard-00002.jsonl.corrupt", "journal.jsonl"):
        (directory / name).write_text("")
    remove_shards(directory)
    assert [p.name for p in directory.iterdir()] == ["journal.jsonl"]
    remove_shards(tmp_path / "missing")     # nothing to clear


def test_spill_is_atomic_no_tmp_left_behind(tmp_path):
    store = store_of(tmp_path, [rec(target=f"t{i}") for i in range(4)],
                     chunk_size=2)
    store.flush()
    names = {p.name for p in (tmp_path / "store-2").iterdir()}
    assert not any(n.endswith(".tmp") for n in names)
    assert names == {"shard-00000.jsonl", "shard-00001.jsonl"}
