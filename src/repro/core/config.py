"""World and experiment configuration."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigError
from repro.pts.registry import ALL_TRANSPORTS
from repro.simnet.geo import Cities, City, Medium
from repro.tor.consensus import ConsensusParams


@dataclass(frozen=True)
class WorldConfig:
    """Everything needed to build one deterministic measurement world."""

    seed: int = 1
    client_city: City = Cities.LONDON
    server_city: City = Cities.FRANKFURT  # self-hosted PT servers + file host
    medium: Medium = Medium.WIRED
    use_private_servers: bool = False     # Section 4.2.1's private-PT-server mode
    snowflake_surge: float = 0.0          # 0 = pre-Sept 2022, 1 = peak load
    transports: tuple[str, ...] = ALL_TRANSPORTS
    consensus: ConsensusParams = field(default_factory=ConsensusParams)
    tranco_size: int = 1000
    cbl_size: int = 1000

    def __post_init__(self) -> None:
        if not self.transports:
            raise ConfigError("at least one transport required")
        if self.tranco_size < 1 or self.cbl_size < 1:
            raise ConfigError("catalogs must be non-empty")


@dataclass(frozen=True)
class Scale:
    """How much of the paper's campaign to run.

    The paper's full campaign is 1.25M measurements over a year;
    experiments default to SMALL so every figure regenerates in seconds.
    """

    n_sites: int = 60          # websites per list (paper: 1000)
    site_repetitions: int = 2  # accesses per site (paper: 5)
    file_attempts: int = 10    # downloads per size (paper: 10-20)
    fixed_circuit_iterations: int = 40  # paper: 500

    @classmethod
    def tiny(cls) -> "Scale":
        """Unit-test scale."""
        return cls(n_sites=8, site_repetitions=1, file_attempts=3,
                   fixed_circuit_iterations=6)

    @classmethod
    def small(cls) -> "Scale":
        """Default experiment scale: seconds per figure."""
        return cls()

    @classmethod
    def paper(cls) -> "Scale":
        """The paper's parameters (slow: minutes per figure)."""
        return cls(n_sites=1000, site_repetitions=5, file_attempts=20,
                   fixed_circuit_iterations=500)
