"""Unit tests for the transport registry."""

import pytest

from repro.errors import UnknownTransportError
from repro.pts.base import ArchSet, Category, PluggableTransport
from repro.pts.registry import (
    ALL_TRANSPORTS,
    EVALUATED_PTS,
    by_category,
    make_all,
    make_transport,
    transport_names,
)


def test_twelve_evaluated_pts():
    assert len(EVALUATED_PTS) == 12
    assert "tor" not in EVALUATED_PTS
    assert len(ALL_TRANSPORTS) == 13


def test_make_transport_roundtrip():
    for name in ALL_TRANSPORTS:
        pt = make_transport(name)
        assert isinstance(pt, PluggableTransport)
        assert pt.name == name


def test_unknown_transport_raises():
    with pytest.raises(UnknownTransportError):
        make_transport("nope")


def test_make_all_returns_fresh_instances():
    a = make_all(["obfs4"])["obfs4"]
    b = make_all(["obfs4"])["obfs4"]
    assert a is not b


def test_paper_taxonomy_membership():
    assert set(by_category(Category.PROXY_LAYER)) == {
        "meek", "snowflake", "conjure", "psiphon"}
    assert set(by_category(Category.TUNNELING)) == {
        "dnstt", "camoufler", "webtunnel"}
    assert set(by_category(Category.MIMICRY)) == {
        "cloak", "stegotorus", "marionette"}
    assert set(by_category(Category.FULLY_ENCRYPTED)) == {
        "obfs4", "shadowsocks"}


def test_architecture_sets_match_paper_section_4_1():
    set1 = {n for n in ALL_TRANSPORTS
            if make_transport(n).arch_set is ArchSet.SERVER_IS_GUARD}
    set2 = {n for n in ALL_TRANSPORTS
            if make_transport(n).arch_set is ArchSet.SEPARATE_PT_SERVER}
    set3 = {n for n in ALL_TRANSPORTS
            if make_transport(n).arch_set is ArchSet.PT_CLIENT_DIRECT}
    assert set1 == {"obfs4", "meek", "conjure", "webtunnel", "dnstt"}
    assert set2 == {"shadowsocks", "snowflake", "camoufler", "stegotorus", "psiphon"}
    assert set3 == {"marionette", "cloak"}


def test_selenium_support_flags():
    # The paper could not evaluate camoufler with selenium (Section 4.2).
    assert make_transport("camoufler").params.supports_browser is False
    assert all(make_transport(n).params.supports_browser
               for n in ALL_TRANSPORTS if n != "camoufler")


def test_self_hosting_constraints():
    # meek needs a CDN, conjure an ISP, snowflake a broker; psiphon runs
    # its own network (Table 2 / Appendix A.3).
    for name in ("meek", "conjure", "snowflake", "psiphon"):
        assert make_transport(name).can_self_host is False
    for name in ("obfs4", "webtunnel", "dnstt", "cloak"):
        assert make_transport(name).can_self_host is True


def test_meek_and_camoufler_fail_to_connect_sometimes():
    # Figure 8a: meek and camoufler fail outright in ~10% of attempts.
    for name in ("meek", "camoufler"):
        prob = make_transport(name).params.connect_failure_prob
        assert 0.03 < prob < 0.2, name
