"""Unit tests for measurement records and result sets."""

import math

import pytest

from repro.measure.records import MeasurementRecord, Method, ResultSet, TargetKind
from repro.web.types import Status


def rec(pt="tor", target="site0", duration=1.0, status=Status.COMPLETE,
        method=Method.CURL, ttfb=0.5, expected=100.0, received=100.0,
        category="baseline", speed_index=None):
    return MeasurementRecord(
        pt=pt, category=category, target=target, kind=TargetKind.WEBSITE,
        method=method, client_city="London", server_city="Frankfurt",
        medium="wired", duration_s=duration, status=status,
        bytes_expected=expected, bytes_received=received, ttfb_s=ttfb,
        speed_index_s=speed_index)


def test_filtering_by_multiple_criteria():
    rs = ResultSet([
        rec(pt="tor", duration=1.0),
        rec(pt="obfs4", duration=2.0),
        rec(pt="obfs4", duration=3.0, method=Method.SELENIUM),
    ])
    assert len(rs.filter(pt="obfs4")) == 2
    assert len(rs.filter(pt="obfs4", method=Method.CURL)) == 1
    assert len(rs.filter(predicate=lambda r: r.duration_s > 1.5)) == 2


def test_pts_and_targets_preserve_order():
    rs = ResultSet([rec(pt="b", target="t2"), rec(pt="a", target="t1"),
                    rec(pt="b", target="t1")])
    assert rs.pts() == ["b", "a"]
    assert rs.targets() == ["t2", "t1"]


def test_mean_and_median():
    rs = ResultSet([rec(duration=1.0), rec(duration=2.0), rec(duration=9.0)])
    assert rs.mean_duration() == pytest.approx(4.0)
    with pytest.raises(ValueError):
        ResultSet().mean_duration()


def test_status_fractions_sum_to_one():
    rs = ResultSet([
        rec(status=Status.COMPLETE), rec(status=Status.COMPLETE),
        rec(status=Status.PARTIAL, received=40.0),
        rec(status=Status.FAILED, received=0.0),
    ])
    fractions = rs.status_fractions()
    assert fractions[Status.COMPLETE] == pytest.approx(0.5)
    assert fractions[Status.PARTIAL] == pytest.approx(0.25)
    assert sum(fractions.values()) == pytest.approx(1.0)


def test_fraction_downloaded():
    r = rec(status=Status.PARTIAL, expected=200.0, received=50.0)
    assert r.fraction_downloaded == pytest.approx(0.25)
    assert rec().fraction_downloaded == 1.0


def test_per_target_means_average_repetitions():
    rs = ResultSet([
        rec(pt="tor", target="a", duration=1.0),
        rec(pt="tor", target="a", duration=3.0),
        rec(pt="tor", target="b", duration=5.0),
    ])
    means = rs.per_target_means("tor")
    assert means == {"a": pytest.approx(2.0), "b": pytest.approx(5.0)}


def test_paired_values_align_common_targets():
    rs = ResultSet([
        rec(pt="tor", target="a", duration=1.0),
        rec(pt="tor", target="b", duration=2.0),
        rec(pt="obfs4", target="b", duration=4.0),
        rec(pt="obfs4", target="c", duration=9.0),
    ])
    xs, ys = rs.paired_values("tor", "obfs4")
    assert xs == [2.0]
    assert ys == [4.0]


def test_paired_values_respect_method_filter():
    rs = ResultSet([
        rec(pt="tor", target="a", duration=1.0, method=Method.CURL),
        rec(pt="tor", target="a", duration=10.0, method=Method.SELENIUM),
        rec(pt="obfs4", target="a", duration=2.0, method=Method.CURL),
        rec(pt="obfs4", target="a", duration=8.0, method=Method.SELENIUM),
    ])
    xs, ys = rs.paired_values("tor", "obfs4", method=Method.SELENIUM)
    assert xs == [10.0]
    assert ys == [8.0]


def test_to_rows_shape():
    rows = ResultSet([rec()]).to_rows()
    assert rows[0]["pt"] == "tor"
    assert rows[0]["status"] == "complete"
    assert set(rows[0]) >= {"duration_s", "ttfb_s", "method", "client"}


def test_extend_accepts_resultset_and_iterable():
    rs = ResultSet([rec()])
    rs.extend(ResultSet([rec(pt="a")]))
    rs.extend([rec(pt="b")])
    assert len(rs) == 3


# -- columnar extraction ----------------------------------------------


def test_values_by_pt_flat_and_slices():
    rs = ResultSet([
        rec(pt="tor", duration=1.0),
        rec(pt="obfs4", duration=2.0),
        rec(pt="tor", duration=3.0),
    ])
    grouped = rs.values_by("duration_s", by="pt")
    assert grouped.labels == ("tor", "obfs4")
    assert grouped.values == [1.0, 3.0, 2.0]
    assert grouped.starts == (0, 2, 3)
    assert grouped.group("tor") == [1.0, 3.0]
    assert dict(grouped.items()) == {"tor": [1.0, 3.0], "obfs4": [2.0]}


def test_values_by_respects_method_and_missing_values():
    rs = ResultSet([
        rec(pt="tor", ttfb=0.5, method=Method.CURL),
        rec(pt="tor", ttfb=None, method=Method.CURL),
        rec(pt="tor", ttfb=9.0, method=Method.SELENIUM),
    ])
    grouped = rs.values_by("ttfb_s", by="pt", method=Method.CURL)
    assert grouped.group("tor") == [0.5]
    by_method = rs.values_by("ttfb_s", by="method")
    assert by_method.group("curl") == [0.5]
    assert by_method.group("selenium") == [9.0]
    by_target = rs.values_by("duration_s", by="target")
    assert by_target.group("site0") == [1.0, 1.0, 1.0]
    with pytest.raises(ValueError):
        rs.values_by("duration_s", by="medium")
    with pytest.raises(ValueError, match="cannot reduce 'bogus'"):
        rs.values_by("bogus")
    with pytest.raises(ValueError, match="cannot reduce 'bogus'"):
        rs.per_target_mean_table("bogus")


def test_per_target_mean_table_matches_per_target_means():
    rs = ResultSet([
        rec(pt="tor", target="a", duration=1.0),
        rec(pt="tor", target="a", duration=3.0),
        rec(pt="tor", target="b", duration=5.0),
        rec(pt="obfs4", target="b", duration=2.0),
    ])
    table = rs.per_target_mean_table("duration_s")
    assert table == {"tor": {"a": 2.0, "b": 5.0}, "obfs4": {"b": 2.0}}
    assert table["tor"] == rs.per_target_means("tor")


def test_columns_cache_invalidated_on_append():
    rs = ResultSet([rec(pt="tor", duration=1.0)])
    assert rs.values_by("duration_s").group("tor") == [1.0]
    rs.append(rec(pt="tor", duration=5.0))
    assert rs.values_by("duration_s").group("tor") == [1.0, 5.0]
    rs.extend([rec(pt="obfs4", duration=2.0)])
    assert rs.values_by("duration_s").labels == ("tor", "obfs4")


def test_pt_categories_and_inconsistency():
    rs = ResultSet([rec(pt="tor"), rec(pt="dnstt", category="tunneling")])
    assert rs.pt_categories() == {"tor": "baseline", "dnstt": "tunneling"}
    rs.append(rec(pt="dnstt", category="mimicry"))
    with pytest.raises(ValueError, match="inconsistent"):
        rs.pt_categories()
    # Lenient mode falls back to the first-seen category.
    assert rs.pt_categories(strict=False)["dnstt"] == "tunneling"


def test_retained_columnstore_is_a_snapshot():
    """A store held across an append must stay internally consistent."""
    rs = ResultSet([rec(pt="tor", ttfb=0.5)])
    cols = rs.columns()
    rs.append(rec(pt="tor", ttfb=1.5))
    # The retained store reflects build time in every engine...
    assert cols.grouped_values("ttfb_s", by="pt").group("tor") == [0.5]
    # ...while the result set serves a rebuilt, current view.
    assert rs.values_by("ttfb_s").group("tor") == [0.5, 1.5]


def test_columnar_reductions_match_plain_definitions():
    """Batched ResultSet reductions equal per-group list comprehensions."""
    rs = ResultSet()
    for i in range(60):
        rs.append(rec(pt=f"pt{i % 4}", target=f"t{i % 7}",
                      duration=1.0 + (i * 7919 % 13) / 3.0,
                      ttfb=None if i % 5 == 0 else 0.1 * i,
                      method=Method.CURL if i % 2 else Method.SELENIUM))
    records = rs.records
    curl = [r for r in records if r.method is Method.CURL]
    table = rs.per_target_mean_table("duration_s", Method.CURL)
    for pt in rs.pts():
        for target in rs.targets():
            durations = [r.duration_s for r in curl
                         if r.pt == pt and r.target == target]
            if durations:
                assert table[pt][target] == \
                    math.fsum(durations) / len(durations)
            else:
                assert target not in table.get(pt, {})
    grouped = rs.values_by("ttfb_s", method=Method.CURL)
    for pt, values in grouped.items():
        assert values == [r.ttfb_s for r in curl
                          if r.pt == pt and r.ttfb_s is not None]
    assert rs.columns().status_fractions_by_pt() == {
        pt: rs.filter(pt=pt).status_fractions() for pt in rs.pts()}


# ---------------------------------------------------------------------------
# columnar-cache invalidation (PR 5 bugfix)
# ---------------------------------------------------------------------------


def test_columns_cache_reused_until_mutation():
    rs = ResultSet([rec()])
    store = rs.columns()
    assert rs.columns() is store          # no mutation: same store
    rs.append(rec(pt="obfs4", category="fully encrypted"))
    rebuilt = rs.columns()
    assert rebuilt is not store           # append invalidated the cache
    assert rebuilt.pts == ("tor", "obfs4")


def test_columns_cache_invalidated_by_every_tracked_mutation():
    """Version-counter invalidation: extend() rebuilds even when the
    cached store was built from an equal-length snapshot elsewhere."""
    rs = ResultSet([rec(pt="a", category="x"), rec(pt="b", category="y")])
    assert rs.columns().pts == ("a", "b")
    rs.extend([rec(pt="c", category="z")])
    assert rs.columns().pts == ("a", "b", "c")


def test_records_attribute_is_not_assignable():
    """Equal-length swaps of .records cannot bypass the cache anymore."""
    rs = ResultSet([rec()])
    with pytest.raises(AttributeError):
        rs.records = [rec(pt="obfs4", category="fully encrypted")]


def test_in_place_record_replacement_is_caught_at_next_mutation():
    """Direct .records mutation is unsupported (documented); the version
    counter still converges at the next tracked mutation instead of
    serving the stale store forever."""
    rs = ResultSet([rec(pt="a", category="x"), rec(pt="b", category="y")])
    assert rs.columns().pts == ("a", "b")
    rs.records[1] = rec(pt="z", category="y")   # unsupported equal-length swap
    rs.append(rec(pt="c", category="w"))
    assert rs.columns().pts == ("a", "z", "c")


def test_status_fractions_by_pt_delegate():
    rs = ResultSet([rec(status=Status.COMPLETE),
                    rec(status=Status.FAILED, received=0.0)])
    fractions = rs.status_fractions_by_pt()
    assert fractions["tor"][Status.COMPLETE] == pytest.approx(0.5)
    assert fractions["tor"][Status.FAILED] == pytest.approx(0.5)
