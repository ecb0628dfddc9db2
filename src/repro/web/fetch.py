"""Fetchers: curl-style and browser-style website/file access.

These mirror the paper's three access methods:

* :func:`curl_fetch` — download only the default document, one stream
  (the paper's primary method, Section 4.2);
* :func:`browser_fetch` — selenium-style: default document, then the
  subresource tree with up to six parallel connections, page-load
  timeout, uBlock-style resource filtering hook (Section 4.2 and
  Appendix A.3);
* :func:`file_fetch` — bulk download of a hosted file (Section 4.3).

All are generator processes for :mod:`repro.simnet.session`; they catch
transfer aborts and timeouts, returning *partial* results with byte
counts, which is exactly what the reliability analysis (Section 4.6)
consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.errors import ChannelFailed, ProcessTimeout, TransferAborted
from repro.simnet.rng import left_sum
from repro.simnet.session import Delay, GetTime, Outcome, Parallel
from repro.web.page import FileSpec, PageSpec, SubresourceSpec
from repro.web.types import FetchResult, Status, TransportChannel, VisualEvent

#: Bytes of HTTP request headers sent upstream per request.
REQUEST_UPLOAD_BYTES = 650.0
#: Visual weight multiplier for the main document (first paint).
MAIN_DOC_VISUAL_WEIGHT = 2.0

#: The paper's timeouts (Appendix A.3).
PAGE_TIMEOUT_S = 120.0
FILE_TIMEOUT_S = 1200.0
EXTENDED_FILE_TIMEOUT_S = 7200.0


@dataclass(frozen=True)
class BrowserConfig:
    """Browser-automation knobs (selenium + chrome defaults)."""

    parallelism: int = 6
    wave_cpu_s: float = 0.30        # parse/execute between dependency waves
    per_resource_cpu_s: float = 0.035  # decode/layout per resource
    adblock: bool = True            # uBlock Origin was installed (A.3)
    adblock_skip_fraction: float = 0.12  # resources never requested


@dataclass
class _FetchContext:
    """Mutable per-fetch accounting shared with parallel children."""

    bytes_received: float = 0.0
    resources_fetched: int = 0
    events: list = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.events is None:
            self.events = []


def _partial_status(received: float, expected: float) -> Status:
    return Status.from_bytes(received, expected)


def curl_fetch(channel: TransportChannel, page: PageSpec) -> Iterator:
    """Download the default document only; returns a FetchResult."""
    start = yield GetTime()
    expected = page.main_size_bytes
    received = 0.0
    try:
        yield from channel.connect_process()
        connect_end = yield GetTime()
        req = yield from channel.request_process(REQUEST_UPLOAD_BYTES, expected)
        received = req.nbytes
        end = yield GetTime()
        return FetchResult(
            target=page.url, status=Status.COMPLETE, duration_s=end - start,
            ttfb_s=(connect_end - start) + req.ttfb_s,
            bytes_expected=expected, bytes_received=received,
            resources_total=0, resources_fetched=0)
    except (TransferAborted, ChannelFailed, ProcessTimeout) as exc:
        received += getattr(exc, "bytes_done", 0.0)
        end = yield GetTime()
        return FetchResult(
            target=page.url, status=_partial_status(received, expected),
            duration_s=end - start, ttfb_s=None,
            bytes_expected=expected, bytes_received=received,
            failure_reason=getattr(exc, "reason", type(exc).__name__))


def _subresource_fetch(channel: TransportChannel, resource: SubresourceSpec,
                       ctx: _FetchContext, start: float) -> Iterator:
    """One browser subresource request (a Parallel child)."""
    try:
        req = yield from channel.request_process(
            REQUEST_UPLOAD_BYTES, resource.size_bytes)
    except (TransferAborted, ChannelFailed) as exc:
        ctx.bytes_received += getattr(exc, "bytes_done", 0.0)
        return False
    except ProcessTimeout as exc:
        ctx.bytes_received += getattr(exc, "bytes_done", 0.0)
        raise
    now = yield GetTime()
    ctx.bytes_received += req.nbytes
    ctx.resources_fetched += 1
    ctx.events.append(VisualEvent(
        time_s=now - start,
        weight=resource.size_bytes if resource.above_fold else 0.0,
        above_fold=resource.above_fold))
    return True


def _chunks(items: list, size: int) -> Iterator[list]:
    for i in range(0, len(items), size):
        yield items[i:i + size]


def browser_fetch(channel: TransportChannel, page: PageSpec,
                  config: BrowserConfig | None = None) -> Iterator:
    """Selenium-style full page load; returns a FetchResult."""
    config = config or BrowserConfig()
    start = yield GetTime()
    ctx = _FetchContext()

    resources = list(page.resources)
    if config.adblock and resources:
        # uBlock keeps a deterministic slice of resources from loading.
        keep = max(0, int(round(len(resources) * (1 - config.adblock_skip_fraction))))
        resources = resources[:keep]
    expected = page.main_size_bytes + left_sum(r.size_bytes for r in resources)
    ttfb = None

    try:
        yield from channel.connect_process()
        connect_end = yield GetTime()
        req = yield from channel.request_process(
            REQUEST_UPLOAD_BYTES, page.main_size_bytes)
        ttfb = (connect_end - start) + req.ttfb_s
        ctx.bytes_received += req.nbytes
        now = yield GetTime()
        ctx.events.append(VisualEvent(
            time_s=now - start,
            weight=page.main_size_bytes * MAIN_DOC_VISUAL_WEIGHT,
            above_fold=True))

        parallelism = max(1, min(config.parallelism, channel.max_parallel_streams))
        max_depth = max((r.depth for r in resources), default=0)
        for depth in range(1, max_depth + 1):
            wave = [r for r in resources if r.depth == depth]
            if not wave:
                continue
            yield Delay(config.wave_cpu_s + config.per_resource_cpu_s * len(wave))
            for batch in _chunks(wave, parallelism):
                outcomes: list[Outcome] = yield Parallel([
                    _subresource_fetch(channel, r, ctx, start) for r in batch])
                for outcome in outcomes:
                    if isinstance(outcome.error, ProcessTimeout):
                        raise outcome.error
        end = yield GetTime()
        status = (Status.COMPLETE if ctx.resources_fetched == len(resources)
                  else _partial_status(ctx.bytes_received, expected))
        return FetchResult(
            target=page.url, status=status, duration_s=end - start,
            ttfb_s=ttfb, bytes_expected=expected,
            bytes_received=ctx.bytes_received,
            resources_total=len(resources),
            resources_fetched=ctx.resources_fetched,
            visual_events=ctx.events)
    except (TransferAborted, ChannelFailed, ProcessTimeout) as exc:
        ctx.bytes_received += getattr(exc, "bytes_done", 0.0)
        end = yield GetTime()
        return FetchResult(
            target=page.url,
            status=_partial_status(ctx.bytes_received, expected),
            duration_s=end - start, ttfb_s=ttfb, bytes_expected=expected,
            bytes_received=ctx.bytes_received,
            resources_total=len(resources),
            resources_fetched=ctx.resources_fetched,
            failure_reason=getattr(exc, "reason", type(exc).__name__),
            visual_events=ctx.events)


def file_fetch(channel: TransportChannel, file: FileSpec) -> Iterator:
    """Bulk download of one hosted file; returns a FetchResult."""
    start = yield GetTime()
    received = 0.0
    ttfb = None
    try:
        yield from channel.connect_process()
        connect_end = yield GetTime()
        req = yield from channel.request_process(
            REQUEST_UPLOAD_BYTES, file.size_bytes)
        received = req.nbytes
        ttfb = (connect_end - start) + req.ttfb_s
        end = yield GetTime()
        return FetchResult(
            target=file.name, status=Status.COMPLETE, duration_s=end - start,
            ttfb_s=ttfb, bytes_expected=file.size_bytes, bytes_received=received)
    except (TransferAborted, ChannelFailed, ProcessTimeout) as exc:
        received += getattr(exc, "bytes_done", 0.0)
        end = yield GetTime()
        return FetchResult(
            target=file.name, status=_partial_status(received, file.size_bytes),
            duration_s=end - start, ttfb_s=ttfb,
            bytes_expected=file.size_bytes, bytes_received=received,
            failure_reason=getattr(exc, "reason", type(exc).__name__))
