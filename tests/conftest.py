"""Suite-wide fixtures."""

from __future__ import annotations

import pytest

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
