"""Speed index computation (the browsertime-based metric of Section 5.4).

The speed index is the integral over time of (1 − visual completeness):
pages that paint most of their above-the-fold content early score low
even if background resources keep loading. We model visual completeness
as the byte-weighted fraction of *visually relevant* content loaded —
the main document (first paint) plus above-the-fold subresources. The
paper's observation that the speed index is systematically lower than
the full page-load time falls out of this definition, since below-fold
resources extend the load time but not the visual integral.
"""

from __future__ import annotations

from repro.simnet.rng import left_sum
from repro.web.types import FetchResult, VisualEvent


def speed_index_s(events: list[VisualEvent], fallback_end_s: float) -> float:
    """Speed index in seconds from a fetch's visual event timeline.

    ``fallback_end_s`` is used when nothing visually relevant loaded
    (the page never painted): the index is then the whole duration.
    """
    visual = sorted((e for e in events if e.weight > 0), key=lambda e: e.time_s)
    if not visual:
        return fallback_end_s
    total_weight = left_sum(e.weight for e in visual)
    completeness = 0.0
    last_time = 0.0
    index = 0.0
    for event in visual:
        index += (event.time_s - last_time) * (1.0 - completeness)
        completeness += event.weight / total_weight
        last_time = event.time_s
    return index


def speed_index_of(result: FetchResult) -> float:
    """Speed index (seconds) of a browser fetch result."""
    return speed_index_s(result.visual_events, result.duration_s)
