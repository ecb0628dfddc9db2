"""Flow-level discrete-event network simulator (the bottom substrate).

Public surface:

* :class:`~repro.simnet.kernel.EventKernel` — deterministic event loop.
* :class:`~repro.simnet.network.FluidNetwork` — max-min fair flows.
* :class:`~repro.simnet.resource.Resource` — shared capacity.
* :mod:`~repro.simnet.session` — coroutine processes (Delay / Transfer /
  Parallel) with timeout and abort semantics.
* :mod:`~repro.simnet.geo`, :mod:`~repro.simnet.latency` — geography and
  RTT models for the paper's six measurement cities.
* :mod:`~repro.simnet.background` — background-load models (the
  first-hop-load mechanism of the paper's Section 4.2.1).
"""

from repro.simnet.background import (
    MANAGED_BRIDGE_LOAD,
    ORIGIN_SERVER_LOAD,
    PRIVATE_BRIDGE_LOAD,
    VOLUNTEER_GUARD_LOAD,
    VOLUNTEER_RELAY_LOAD,
    LoadModel,
    PoissonBackground,
)
from repro.simnet.fairshare import (
    FairShareAllocator,
    FlowClass,
    compute_fair_rates,
    compute_fair_rates_reference,
    effective_bottleneck_bps,
)
from repro.simnet.flow import Flow, FlowState
from repro.simnet.perfcounters import PerfCounters
from repro.simnet.geo import Cities, City, Medium, base_rtt, great_circle_km
from repro.simnet.kernel import Event, EventKernel
from repro.simnet.latency import LatencyModel
from repro.simnet.network import FluidNetwork
from repro.simnet.resource import Resource
from repro.simnet.rng import derive_seed, lognormal_factor, substream
from repro.simnet.session import (
    Delay,
    GetTime,
    Outcome,
    Parallel,
    ProcessHandle,
    Transfer,
    TransferResult,
    run_process,
    start_process,
)

__all__ = [
    "Cities", "City", "Delay", "Event", "EventKernel", "FairShareAllocator",
    "Flow", "FlowClass", "FlowState",
    "FluidNetwork", "GetTime", "LatencyModel", "LoadModel",
    "MANAGED_BRIDGE_LOAD", "Medium", "ORIGIN_SERVER_LOAD", "Outcome",
    "Parallel", "PerfCounters", "PoissonBackground", "PRIVATE_BRIDGE_LOAD",
    "ProcessHandle", "Resource", "Transfer", "TransferResult",
    "VOLUNTEER_GUARD_LOAD", "VOLUNTEER_RELAY_LOAD", "base_rtt",
    "compute_fair_rates", "compute_fair_rates_reference", "derive_seed",
    "effective_bottleneck_bps", "great_circle_km", "lognormal_factor",
    "run_process", "start_process", "substream",
]
