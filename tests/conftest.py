"""Suite-wide fixtures."""

from __future__ import annotations

import pytest

from repro.core.config import Scale
from repro.core.experiments import run_experiment_seeds
from repro.simnet.fairshare import (
    FairShareAllocator,
    FlowClass,
    compute_fair_rates_reference,
)


def _reference_allocate(self: FairShareAllocator, counters=None,
                        ) -> list[FlowClass]:
    """Stand-in for :meth:`FairShareAllocator.allocate` backed by the
    from-scratch reference loop.

    Members of a class share one ``(path, weight)`` signature, so the
    reference loop gives them identical rates: any member's rate is the
    class rate.
    """
    if counters is None:
        counters = self.counters
    classes = list(self.classes())
    members = sorted((flow for cls in classes for flow in cls.members),
                     key=lambda flow: flow.fid)
    rates = compute_fair_rates_reference(members, counters=counters)
    for cls in classes:
        cls.rate = rates[next(iter(cls.members))]
    return classes


@pytest.fixture()
def reference_allocator(monkeypatch):
    """Route every allocation, network-owned ones included, through
    :func:`compute_fair_rates_reference` for the test's duration."""
    monkeypatch.setattr(FairShareAllocator, "allocate", _reference_allocate)


class TinySeedRuns(dict):
    """Experiment id -> its results at seeds 1-10, ``Scale.tiny()``.

    Each experiment fans out over two workers on first use and is kept
    for the session, so the paper-claims table and the registry smoke
    test share one run per experiment.
    """

    seeds = tuple(range(1, 11))
    scale = Scale.tiny()

    def __repr__(self) -> str:
        return f"TinySeedRuns(seeds={self.seeds}, experiments={sorted(self)})"

    def __missing__(self, experiment_id: str):
        runs = self[experiment_id] = run_experiment_seeds(
            experiment_id, self.seeds, scale=self.scale, workers=2)
        return runs


@pytest.fixture(scope="session")
def tiny_seed_runs() -> TinySeedRuns:
    return TinySeedRuns()
