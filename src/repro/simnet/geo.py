"""Geography: measurement cities, relay sites, and propagation latency.

The paper measures from six cities (three client-side, three
server-side) spread over three continents (Section 4.5). We model
propagation delay from great-circle distance with a path-inflation
factor, the standard approximation for Internet paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

# Speed of light in fibre is roughly 2/3 c; real routes are longer than
# the geodesic, which the inflation factor absorbs.
_FIBRE_KM_PER_S = 200_000.0
_PATH_INFLATION = 1.8
_PER_HOP_PROCESSING_S = 0.002  # forwarding/queueing floor per direction


@dataclass(frozen=True)
class City:
    """A named location with WGS84 coordinates."""

    name: str
    lat: float
    lon: float
    region: str  # "EU" | "NA" | "AS"

    def __str__(self) -> str:
        return self.name


class Cities:
    """The measurement cities used in the paper plus common relay sites."""

    # Paper's client locations
    BANGALORE = City("Bangalore", 12.97, 77.59, "AS")
    LONDON = City("London", 51.51, -0.13, "EU")
    TORONTO = City("Toronto", 43.65, -79.38, "NA")
    # Paper's server locations
    SINGAPORE = City("Singapore", 1.35, 103.82, "AS")
    FRANKFURT = City("Frankfurt", 50.11, 8.68, "EU")
    NEW_YORK = City("New York", 40.71, -74.01, "NA")
    # Additional sites used for relay placement (Tor relays concentrate
    # in Europe and North America, cf. the paper's Section 4.5).
    AMSTERDAM = City("Amsterdam", 52.37, 4.90, "EU")
    PARIS = City("Paris", 48.86, 2.35, "EU")
    ZURICH = City("Zurich", 47.38, 8.54, "EU")
    STOCKHOLM = City("Stockholm", 59.33, 18.07, "EU")
    WARSAW = City("Warsaw", 52.23, 21.01, "EU")
    CHICAGO = City("Chicago", 41.88, -87.63, "NA")
    DALLAS = City("Dallas", 32.78, -96.80, "NA")
    SEATTLE = City("Seattle", 47.61, -122.33, "NA")
    TOKYO = City("Tokyo", 35.68, 139.69, "AS")
    MUMBAI = City("Mumbai", 19.08, 72.88, "AS")

    @classmethod
    def client_cities(cls) -> list[City]:
        """The three client vantage points of the paper's location study."""
        return [cls.BANGALORE, cls.LONDON, cls.TORONTO]

    @classmethod
    def server_cities(cls) -> list[City]:
        """The three server locations of the paper's location study."""
        return [cls.SINGAPORE, cls.FRANKFURT, cls.NEW_YORK]

    @classmethod
    def relay_sites(cls) -> list[tuple[City, float]]:
        """(city, weight) pairs for relay placement.

        Weighted so that roughly 60% of relays land in Europe, 30% in
        North America, and 10% in Asia, matching the geographic skew of
        the live Tor network that the paper cites to explain why clients
        in Bangalore observe higher access times.
        """
        return [
            (cls.FRANKFURT, 0.18), (cls.AMSTERDAM, 0.14), (cls.PARIS, 0.10),
            (cls.ZURICH, 0.07), (cls.STOCKHOLM, 0.06), (cls.WARSAW, 0.05),
            (cls.NEW_YORK, 0.10), (cls.CHICAGO, 0.07), (cls.DALLAS, 0.07),
            (cls.SEATTLE, 0.06), (cls.TOKYO, 0.05), (cls.SINGAPORE, 0.05),
        ]


class Medium(Enum):
    """Client access medium (Section 4.7 studies wired vs wireless)."""

    WIRED = "wired"
    WIRELESS = "wireless"


def great_circle_km(a: City, b: City) -> float:
    """Great-circle distance between two cities in kilometres."""
    if a == b:
        return 0.0
    phi1, phi2 = math.radians(a.lat), math.radians(b.lat)
    dphi = math.radians(b.lat - a.lat)
    dlam = math.radians(b.lon - a.lon)
    h = math.sin(dphi / 2) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlam / 2) ** 2
    return 2 * 6371.0 * math.asin(min(1.0, math.sqrt(h)))


def one_way_delay(a: City, b: City) -> float:
    """One-way propagation + processing delay in seconds."""
    km = great_circle_km(a, b) * _PATH_INFLATION
    return km / _FIBRE_KM_PER_S + _PER_HOP_PROCESSING_S


@lru_cache(maxsize=1024)
def base_rtt(a: City, b: City) -> float:
    """Round-trip time between two cities, before jitter.

    Memoized per city pair: every RTT sample and window estimate asks
    for it, over a few hundred pairs of fixed cities. The bound only
    matters to code that makes cities of its own.
    """
    return 2.0 * one_way_delay(a, b)
