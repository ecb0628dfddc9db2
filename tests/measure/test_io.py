"""Round-trip tests for result-set persistence."""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.measure.io import (
    merge,
    read_csv,
    read_json,
    rows_to_result_set,
    write_csv,
    write_json,
)
from repro.measure.records import MeasurementRecord, Method, ResultSet, TargetKind
from repro.web.types import Status


def sample_results() -> ResultSet:
    records = [
        MeasurementRecord(
            pt="tor", category="baseline", target="site0",
            kind=TargetKind.WEBSITE, method=Method.CURL,
            client_city="London", server_city="Frankfurt", medium="wired",
            duration_s=2.5, status=Status.COMPLETE,
            bytes_expected=1000.0, bytes_received=1000.0, ttfb_s=0.8,
            sim_time_s=17.25, repetition=1),
        MeasurementRecord(
            pt="meek", category="proxy layer", target="file-5mb",
            kind=TargetKind.FILE, method=Method.CURL,
            client_city="London", server_city="Frankfurt", medium="wired",
            duration_s=110.0, status=Status.PARTIAL,
            bytes_expected=5e6, bytes_received=2.5e6, ttfb_s=None,
            meta={"failure_reason": "timeout"}),
        MeasurementRecord(
            pt="obfs4", category="fully encrypted", target="site1",
            kind=TargetKind.WEBSITE, method=Method.BROWSERTIME,
            client_city="Bangalore", server_city="Singapore",
            medium="wireless", duration_s=14.0, status=Status.COMPLETE,
            bytes_expected=2e6, bytes_received=2e6, ttfb_s=1.5,
            speed_index_s=6.5),
    ]
    return ResultSet(records)


def _assert_equal(a: ResultSet, b: ResultSet):
    assert len(a) == len(b)
    for ra, rb in zip(a, b):
        # Full dataclass equality: every field must survive the trip,
        # including sim_time_s and meta.
        assert ra == rb


def test_csv_roundtrip(tmp_path):
    original = sample_results()
    path = write_csv(original, tmp_path / "results.csv")
    _assert_equal(original, read_csv(path))


def test_json_roundtrip(tmp_path):
    original = sample_results()
    path = write_json(original, tmp_path / "results.json", indent=2)
    _assert_equal(original, read_json(path))


def test_csv_header_stable(tmp_path):
    path = write_csv(sample_results(), tmp_path / "r.csv")
    header = path.read_text().splitlines()[0]
    assert header.startswith("pt,category,target,kind,method")


def test_merge_concatenates():
    merged = merge([sample_results(), sample_results()])
    assert len(merged) == 6
    assert merged.pts() == ["tor", "meek", "obfs4"]


def test_rows_roundtrip_is_exact():
    """to_rows -> rows_to_result_set is the parallel-worker wire format."""
    original = sample_results()
    rebuilt = rows_to_result_set(original.to_rows())
    assert rebuilt.records == original.records


def test_read_csv_tolerates_files_without_new_columns(tmp_path):
    """Files written before sim_time_s/meta existed still load."""
    legacy = tmp_path / "legacy.csv"
    legacy.write_text(
        "pt,category,target,kind,method,client,server,medium,duration_s,"
        "ttfb_s,speed_index_s,status,bytes_expected,bytes_received,"
        "repetition\n"
        "tor,baseline,site0,website,curl,London,Frankfurt,wired,2.5,"
        "0.8,,complete,1000.0,1000.0,1\n")
    loaded = read_csv(legacy)
    assert len(loaded) == 1
    record = loaded.records[0]
    assert record.sim_time_s == 0.0
    assert record.meta == {}
    assert record.duration_s == 2.5


_text = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",),
                           blacklist_characters="\r\x00"),
    min_size=1, max_size=12)
_finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
_opt_float = st.none() | st.floats(allow_nan=False, allow_infinity=False,
                                   min_value=0.0, max_value=1e6)
_meta = st.dictionaries(
    keys=_text,
    values=st.one_of(_text, st.integers(-10**9, 10**9), _finite),
    max_size=3)

_records = st.builds(
    MeasurementRecord,
    pt=_text, category=_text, target=_text,
    kind=st.sampled_from(list(TargetKind)),
    method=st.sampled_from(list(Method)),
    client_city=_text, server_city=_text, medium=_text,
    duration_s=_finite,
    status=st.sampled_from(list(Status)),
    bytes_expected=_finite, bytes_received=_finite,
    ttfb_s=_opt_float, speed_index_s=_opt_float,
    sim_time_s=_finite,
    repetition=st.integers(0, 10**6),
    meta=_meta)


@given(records=st.lists(_records, min_size=1, max_size=5))
@settings(max_examples=60, deadline=None)
def test_csv_roundtrip_reproduces_every_field(tmp_path_factory, records):
    original = ResultSet(records)
    path = tmp_path_factory.mktemp("io") / "prop.csv"
    reloaded = read_csv(write_csv(original, path))
    assert reloaded.records == original.records


@given(records=st.lists(_records, min_size=1, max_size=5))
@settings(max_examples=60, deadline=None)
def test_json_roundtrip_reproduces_every_field(tmp_path_factory, records):
    original = ResultSet(records)
    path = tmp_path_factory.mktemp("io") / "prop.json"
    reloaded = read_json(write_json(original, path))
    assert reloaded.records == original.records


def test_roundtrip_of_real_campaign(tmp_path):
    from repro.core import World, WorldConfig
    from repro.measure.campaign import CampaignRunner
    world = World(WorldConfig(seed=61, tranco_size=3, cbl_size=3))
    runner = CampaignRunner(world)
    results = runner.run_website_campaign(["tor", "dnstt"],
                                          world.tranco[:3], repetitions=1)
    reloaded = read_csv(write_csv(results, tmp_path / "campaign.csv"))
    _assert_equal(results, reloaded)
    # Loaded data supports the same analysis operations.
    assert reloaded.per_target_means("tor")
    assert reloaded.filter(pt="dnstt")


# ---------------------------------------------------------------------------
# streaming readers/writers (PR 5)
# ---------------------------------------------------------------------------


def test_iter_csv_streams_same_records_as_read_csv(tmp_path):
    from repro.measure.io import iter_csv

    original = sample_results()
    path = write_csv(original, tmp_path / "r.csv")
    streamed = list(iter_csv(path))
    assert streamed == read_csv(path).records == original.records


def test_write_csv_accepts_a_record_generator(tmp_path):
    original = sample_results()
    path = write_csv((r for r in original), tmp_path / "gen.csv")
    _assert_equal(original, read_csv(path))


def test_json_lines_roundtrip(tmp_path):
    from repro.measure.io import iter_json_lines, read_json_lines, write_json_lines

    original = sample_results()
    path = write_json_lines(original, tmp_path / "shard.jsonl")
    assert path.read_text().count("\n") == len(original)
    assert list(iter_json_lines(path)) == original.records
    _assert_equal(original, read_json_lines(path))


@given(records=st.lists(_records, min_size=1, max_size=5))
@settings(max_examples=60, deadline=None)
def test_json_lines_roundtrip_reproduces_every_field(tmp_path_factory,
                                                     records):
    from repro.measure.io import iter_json_lines, write_json_lines

    original = ResultSet(records)
    path = tmp_path_factory.mktemp("io") / "prop.jsonl"
    assert list(iter_json_lines(write_json_lines(original, path))) == \
        original.records


# ---------------------------------------------------------------------------
# unknown-column handling (PR 5 bugfix: no silent data loss)
# ---------------------------------------------------------------------------

_EXTRA_HEADER = (
    "pt,category,target,kind,method,client,server,medium,duration_s,"
    "ttfb_s,speed_index_s,status,bytes_expected,bytes_received,"
    "repetition,sim_time_s,meta,vantage\n"
    "tor,baseline,site0,website,curl,London,Frankfurt,wired,2.5,"
    "0.8,,complete,1000.0,1000.0,1,17.25,,probe-7\n")


def test_read_csv_folds_unknown_columns_into_meta(tmp_path):
    """A hand-edited or newer-format file must not lose fields silently."""
    path = tmp_path / "extra.csv"
    path.write_text(_EXTRA_HEADER)
    record = read_csv(path).records[0]
    assert record.meta == {"vantage": "probe-7"}
    assert record.duration_s == 2.5


def test_read_csv_strict_raises_on_unknown_columns(tmp_path):
    path = tmp_path / "extra.csv"
    path.write_text(_EXTRA_HEADER)
    with pytest.raises(ValueError, match="vantage"):
        read_csv(path, strict=True)


def test_unknown_column_does_not_clobber_explicit_meta(tmp_path):
    path = tmp_path / "extra.csv"
    path.write_text(
        "pt,category,target,kind,method,client,server,medium,duration_s,"
        "ttfb_s,speed_index_s,status,bytes_expected,bytes_received,"
        "repetition,sim_time_s,meta,vantage\n"
        "tor,baseline,site0,website,curl,London,Frankfurt,wired,2.5,"
        "0.8,,complete,1000.0,1000.0,1,17.25,\"{\"\"vantage\"\": \"\"real\"\"}\","
        "shadow\n")
    record = read_csv(path).records[0]
    # The explicit meta cell wins the key collision.
    assert record.meta == {"vantage": "real"}


def test_legacy_short_header_with_unknown_column(tmp_path):
    """Missing trailing columns and an unknown one, together."""
    path = tmp_path / "legacy-extra.csv"
    path.write_text(
        "pt,category,target,kind,method,client,server,medium,duration_s,"
        "ttfb_s,speed_index_s,status,bytes_expected,bytes_received,"
        "repetition,operator\n"
        "tor,baseline,site0,website,curl,London,Frankfurt,wired,2.5,"
        "0.8,,complete,1000.0,1000.0,1,alice\n")
    record = read_csv(path).records[0]
    assert record.sim_time_s == 0.0
    assert record.meta == {"operator": "alice"}


def test_rows_to_result_set_strict_flag():
    from repro.measure.io import rows_to_result_set as r2rs

    rows = sample_results().to_rows()
    rows[0]["mystery"] = 1
    assert r2rs(rows).records[0].meta == {"mystery": 1}
    with pytest.raises(ValueError, match="mystery"):
        r2rs(rows, strict=True)


def test_invalid_enum_value_raises_value_error():
    """Fast-path dict lookups still raise descriptive ValueError."""
    from repro.measure.io import rows_to_result_set as r2rs

    rows = sample_results().to_rows()
    rows[0]["status"] = "bogus"
    with pytest.raises(ValueError, match="bogus"):
        r2rs(rows)


def test_missing_enum_column_still_raises_key_error():
    """A row lacking 'status' entirely reports the absent column, not a
    bogus 'invalid enum value' message."""
    from repro.measure.io import _record_from_row

    rows = sample_results().to_rows()
    del rows[0]["status"]
    with pytest.raises(KeyError, match="status"):
        _record_from_row(rows[0])


def test_write_shard_is_atomic_and_digested(tmp_path):
    """write_shard bytes equal write_json_lines bytes, the digest
    matches the file, and no .tmp survives the rename."""
    import hashlib

    from repro.measure.io import file_digest, write_json_lines, write_shard

    results = sample_results()
    plain = tmp_path / "plain.jsonl"
    atomic = tmp_path / "atomic.jsonl"
    write_json_lines(results, plain)
    n_rows, digest = write_shard(results, atomic)
    assert atomic.read_bytes() == plain.read_bytes()
    assert n_rows == len(results)
    assert digest == hashlib.sha256(atomic.read_bytes()).hexdigest()
    assert digest == file_digest(atomic)
    assert not (tmp_path / "atomic.jsonl.tmp").exists()


def test_write_shard_replaces_torn_previous_content(tmp_path):
    """A retry's atomic write fully replaces whatever a killed attempt
    left at the final path."""
    from repro.measure.io import read_json_lines, write_shard

    path = tmp_path / "shard.jsonl"
    path.write_bytes(b'{"torn": ')
    write_shard(sample_results(), path)
    assert read_json_lines(path).records == sample_results().records


def test_row_lines_match_written_file(tmp_path):
    from repro.measure.io import row_lines, write_json_lines

    path = tmp_path / "x.jsonl"
    write_json_lines(sample_results(), path)
    assert "".join(row_lines(sample_results())) == path.read_text()


def test_atomic_shard_writer_publishes_only_on_commit(tmp_path):
    """Regression (replint IO01): the merge copier published shards
    with a bare open/close/rename and no fsync; AtomicShardWriter is
    the shared tmp+fsync+os.replace path it now uses."""
    from repro.measure.io import AtomicShardWriter

    target = tmp_path / "shard.jsonl"
    writer = AtomicShardWriter(target)
    writer.write('{"a": 1}\n')
    writer.write('{"b": 2}\n')
    assert not target.exists()  # nothing at the final path pre-commit
    writer.commit()
    assert target.read_text() == '{"a": 1}\n{"b": 2}\n'
    assert not target.with_name("shard.jsonl.tmp").exists()


def test_atomic_shard_writer_abort_leaves_no_artifact(tmp_path):
    from repro.measure.io import AtomicShardWriter

    target = tmp_path / "shard.jsonl"
    writer = AtomicShardWriter(target)
    writer.write("partial line with no newline")
    writer.abort()
    assert not target.exists()
    writer.abort()  # idempotent


class _RecordingOS:
    """``os`` for repro.measure.io that logs fsync/replace in order.

    Each event carries the inode it touched, so the test can tell that
    the fd fsynced is the very file the rename publishes.
    """

    def __init__(self):
        self.events = []

    def __getattr__(self, name):
        return getattr(os, name)

    def fsync(self, fd):
        self.events.append(("fsync", os.fstat(fd).st_ino))
        os.fsync(fd)

    def replace(self, src, dst):
        self.events.append(("replace", os.stat(src).st_ino))
        os.replace(src, dst)


def _publish_with_write_shard(path):
    from repro.measure.io import write_shard

    write_shard(sample_results(), path)


def _publish_with_atomic_writer(path):
    from repro.measure.io import AtomicShardWriter

    writer = AtomicShardWriter(path)
    writer.write('{"a": 1}\n')
    writer.commit()


@pytest.mark.parametrize("publish", [_publish_with_write_shard,
                                     _publish_with_atomic_writer])
def test_publishers_fsync_the_tmp_file_before_replacing_it(
        tmp_path, monkeypatch, publish):
    """The durability half of the crash contract, checked at run time.

    These two are the only rename sites in repro.measure (IO01 keeps
    every other writable open out of the layer): each must fsync the
    tmp file's fd, and only then os.replace that same file into place.
    """
    import repro.measure.io as measure_io

    recorder = _RecordingOS()
    monkeypatch.setattr(measure_io, "os", recorder)
    target = tmp_path / "shard.jsonl"
    publish(target)
    inode = os.stat(target).st_ino
    assert recorder.events == [("fsync", inode), ("replace", inode)]
