"""PTPerf reproduction package.

A faithful, simulator-backed reproduction of *"PTPerf: On the
Performance Evaluation of Tor Pluggable Transports"* (IMC 2023). See
``EXPERIMENTS.md`` for the paper-vs-measured comparison of every table
and figure, and ``docs/`` for the design of each subsystem.

Quickstart::

    from repro import PTPerf

    perf = PTPerf(seed=1)
    print(perf.website_access(["tor", "obfs4", "meek"], n_sites=20))
    result = perf.run("fig2a")
    print(result.comparison())
"""

from repro.core import (
    EXPERIMENTS,
    ExperimentResult,
    PTPerf,
    Scale,
    World,
    WorldConfig,
    list_experiments,
    run_experiment,
)

__version__ = "1.0.0"

__all__ = [
    "EXPERIMENTS", "ExperimentResult", "PTPerf", "Scale", "World",
    "WorldConfig", "__version__", "list_experiments", "run_experiment",
]
