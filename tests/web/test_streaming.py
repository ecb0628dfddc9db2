"""Unit tests for the streaming workload (paper future work, A.4)."""

import pytest

from repro.simnet.session import run_process
from repro.units import kbit
from repro.web.streaming import (
    MediaSpec,
    playback_metrics,
    standard_audio,
    standard_video,
    stream_fetch,
)

from tests.web.conftest import FakeChannel


def test_media_spec_segmentation():
    media = MediaSpec("m", duration_s=10.0, bitrate_bps=1000.0,
                      segment_duration_s=4.0)
    assert media.n_segments == 3
    assert media.segment_bytes == 4000.0
    assert media.total_bytes == 10_000.0


def test_standard_media_shapes():
    audio = standard_audio()
    video = standard_video()
    assert audio.bitrate_bps == kbit(128)
    assert video.total_bytes > audio.total_bytes


# -- playback_metrics (pure function) ---------------------------------


def test_playback_starts_after_startup_buffer():
    startup, stalls, stall_time = playback_metrics(
        [1.0, 2.0, 3.0, 4.0], segment_duration_s=4.0, startup_segments=2)
    assert startup == 2.0
    assert stalls == 0
    assert stall_time == 0.0


def test_playback_never_starts_with_too_few_segments():
    startup, stalls, stall_time = playback_metrics(
        [1.0], segment_duration_s=4.0, startup_segments=2)
    assert startup is None


def test_stall_detected_when_segment_late():
    # Playback starts at t=2 with 2x4s buffered; segment 3 is needed at
    # t=10 but arrives at t=13 -> one 3s stall.
    startup, stalls, stall_time = playback_metrics(
        [1.0, 2.0, 13.0], segment_duration_s=4.0, startup_segments=2)
    assert startup == 2.0
    assert stalls == 1
    assert stall_time == pytest.approx(3.0)


def test_consecutive_late_segments_each_stall():
    # After the first stall the deadline resets to the late arrival.
    startup, stalls, stall_time = playback_metrics(
        [1.0, 2.0, 13.0, 20.0], segment_duration_s=4.0, startup_segments=2)
    # Segment 4 needed at 13+4=17, arrives 20 -> second stall of 3s.
    assert stalls == 2
    assert stall_time == pytest.approx(3.0 + 3.0)


def test_fast_delivery_never_stalls():
    times = [0.5 * (i + 1) for i in range(20)]
    _, stalls, stall_time = playback_metrics(times, 4.0, 2)
    assert stalls == 0
    assert stall_time == 0.0


# -- stream_fetch over channels ----------------------------------------


def test_stream_completes_on_fast_channel(sim):
    kernel, net = sim
    channel = FakeChannel(kernel, bandwidth_bps=1_000_000.0)
    media = MediaSpec("m", duration_s=20.0, bitrate_bps=10_000.0)
    result = run_process(kernel, net, stream_fetch(channel, media))
    assert result.completed
    assert result.segments_delivered == media.n_segments
    assert result.fraction_delivered == 1.0
    assert result.startup_delay_s is not None
    assert result.smooth


def test_stream_stalls_on_slow_channel(sim):
    kernel, net = sim
    # Bitrate 50 KB/s but channel only moves 30 KB/s: every segment is
    # late once the startup buffer drains.
    channel = FakeChannel(kernel, bandwidth_bps=30_000.0, request_rtt_s=0.1)
    media = MediaSpec("m", duration_s=60.0, bitrate_bps=50_000.0)
    result = run_process(kernel, net, stream_fetch(channel, media))
    assert result.completed
    assert result.stall_count > 0
    assert result.stall_ratio > 0.1
    assert not result.smooth


def test_stream_partial_on_channel_death(sim):
    kernel, net = sim
    channel = FakeChannel(kernel, bandwidth_bps=100_000.0,
                          fails_at=kernel.now + 10.0)
    media = MediaSpec("m", duration_s=120.0, bitrate_bps=50_000.0)
    result = run_process(kernel, net, stream_fetch(channel, media))
    assert not result.completed
    assert 0 < result.segments_delivered < media.n_segments
    assert result.failure_reason == "channel-failure"


def test_stream_failed_connect_delivers_nothing(sim):
    kernel, net = sim
    channel = FakeChannel(kernel, connect_error="refused")
    result = run_process(kernel, net,
                         stream_fetch(channel, standard_audio()))
    assert result.segments_delivered == 0
    assert result.fraction_delivered == 0.0
    assert result.startup_delay_s is None
    assert result.stall_ratio == 1.0


def test_stream_through_real_transports():
    from repro.core import World, WorldConfig
    world = World(WorldConfig(seed=31, tranco_size=2, cbl_size=2))
    audio = standard_audio()
    obfs4 = world.stream_media("obfs4", audio)
    assert obfs4.completed
    assert obfs4.smooth  # obfs4 streams audio without stalls

    camoufler = world.stream_media("camoufler", audio)
    # camoufler's IM relay adds seconds per segment: playback stalls.
    if camoufler.segments_delivered > 2:
        assert camoufler.stall_count > 0
        assert camoufler.stall_ratio > obfs4.stall_ratio


def test_audio_streaming_follows_bulk_download_findings():
    """The paper's bulk-download findings carry over to streaming:
    fully-encrypted, low-overhead PTs stream a 180 s audio clip
    smoothly, rate-capped or high-latency ones stall or die, and
    snowflake's proxy churn kills long sessions under load."""
    from repro.core import World, WorldConfig
    pts = ("tor", "obfs4", "cloak", "webtunnel", "dnstt", "camoufler",
           "marionette", "snowflake")
    world = World(WorldConfig(seed=2023, snowflake_surge=1.0, transports=pts,
                              tranco_size=2, cbl_size=2))
    audio = standard_audio()
    results = {pt: world.stream_media(pt, audio) for pt in pts}
    for pt in ("obfs4", "cloak", "webtunnel"):
        assert results[pt].smooth, pt
    for pt in ("camoufler", "marionette"):
        assert results[pt].stall_count > 0 or not results[pt].completed, pt
    assert not results["snowflake"].completed
