"""Pluggable transports: the 12 evaluated PTs + vanilla-Tor baseline."""

from repro.pts.automaton import (
    AutomatonState,
    ProbabilisticAutomaton,
    marionette_http_automaton,
)
from repro.pts.base import (
    ArchSet,
    Category,
    Detour,
    PluggableTransport,
    PTParams,
    TorBackedChannel,
    TransportContext,
)
from repro.pts.camoufler import Camoufler
from repro.pts.catalog28 import (
    CATALOG,
    AdoptionGroup,
    PTCatalogEntry,
    entries,
    evaluated_names,
    summary_counts,
)
from repro.pts.cloak import Cloak
from repro.pts.conjure import Conjure
from repro.pts.dnstt import Dnstt
from repro.pts.marionette import Marionette
from repro.pts.meek import Meek
from repro.pts.obfs4 import Obfs4
from repro.pts.psiphon import Psiphon
from repro.pts.registry import (
    ALL_TRANSPORTS,
    EVALUATED_PTS,
    by_category,
    make_all,
    make_transport,
    transport_class,
    transport_names,
)
from repro.pts.shadowsocks import Shadowsocks
from repro.pts.snowflake import Snowflake
from repro.pts.stegotorus import Stegotorus
from repro.pts.vanilla import VanillaTor
from repro.pts.webtunnel import WebTunnel

__all__ = [
    "ALL_TRANSPORTS", "AdoptionGroup", "ArchSet", "AutomatonState", "CATALOG",
    "Camoufler", "Category", "Cloak", "Conjure", "Detour", "Dnstt",
    "EVALUATED_PTS", "Marionette", "Meek", "Obfs4",
    "PTCatalogEntry", "PTParams", "PluggableTransport",
    "ProbabilisticAutomaton", "Psiphon", "Shadowsocks", "Snowflake",
    "Stegotorus", "TorBackedChannel", "TransportContext", "VanillaTor",
    "WebTunnel", "by_category", "entries", "evaluated_names",
    "make_all", "make_transport", "marionette_http_automaton",
    "summary_counts", "transport_class", "transport_names",
]
