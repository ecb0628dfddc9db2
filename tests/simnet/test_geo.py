"""Unit tests for geography and latency primitives."""

from repro.simnet.geo import Cities, base_rtt, great_circle_km, one_way_delay


def test_distance_zero_for_same_city():
    assert great_circle_km(Cities.LONDON, Cities.LONDON) == 0.0


def test_distance_symmetric():
    d1 = great_circle_km(Cities.LONDON, Cities.SINGAPORE)
    d2 = great_circle_km(Cities.SINGAPORE, Cities.LONDON)
    assert abs(d1 - d2) < 1e-9


def test_known_distance_london_newyork():
    # Great-circle London-New York is about 5570 km.
    d = great_circle_km(Cities.LONDON, Cities.NEW_YORK)
    assert 5300 < d < 5800


def test_rtt_increases_with_distance():
    near = base_rtt(Cities.LONDON, Cities.FRANKFURT)
    far = base_rtt(Cities.LONDON, Cities.SINGAPORE)
    assert far > near > 0


def test_rtt_reasonable_magnitudes():
    # Transatlantic RTTs are tens of milliseconds; intra-Europe ~10-30ms.
    assert 0.04 < base_rtt(Cities.LONDON, Cities.NEW_YORK) < 0.15
    assert base_rtt(Cities.LONDON, Cities.FRANKFURT) < 0.04


def test_one_way_delay_has_processing_floor():
    assert one_way_delay(Cities.LONDON, Cities.LONDON) > 0


def test_relay_sites_weights_are_normalisable():
    sites = Cities.relay_sites()
    total = sum(w for _, w in sites)
    assert abs(total - 1.0) < 0.01
    regions = {c.region for c, _ in sites}
    assert regions == {"EU", "NA", "AS"}


def test_client_and_server_cities_match_paper():
    assert [c.name for c in Cities.client_cities()] == ["Bangalore", "London", "Toronto"]
    assert [c.name for c in Cities.server_cities()] == ["Singapore", "Frankfurt", "New York"]


def test_base_rtt_memo_is_bounded_and_exact():
    cities = [c for c, _ in Cities.relay_sites()] + Cities.client_cities()
    for a in cities:
        for b in cities:
            assert base_rtt(a, b) == 2.0 * one_way_delay(a, b)
    assert base_rtt.cache_info().maxsize is not None
