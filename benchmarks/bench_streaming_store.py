"""Out-of-core streaming store benchmark: bounded memory, exact results.

Synthesizes a beyond-paper-scale campaign (>= 1M measurement records by
default; override with ``STREAMING_BENCH_RECORDS``) and runs the
acceptance reductions — ``per_target_mean_table``, ``values_by``,
``status_fractions_by_pt`` — over two containers that share one
reduction engine, the ``ChunkedColumnStore`` fold:

* **in-memory** — every record materialized in a ``ResultSet``, which
  the fold reduces as one chunk;
* **streaming** — records appended straight into a
  ``ShardedResultStore`` (JSONL shards on disk), which the fold reduces
  shard by shard.

Asserts (a) the streaming path's peak ``tracemalloc`` memory is at most
25% of the in-memory path's, (b) every reduction is *bit-identical*
between one chunk and many shards, and (c)
``ParallelCampaign`` spool mode reproduces the in-memory merge
bit-identically at ``workers=1`` and ``workers=4``.
"""

from __future__ import annotations

import gc
import os
import random
import time
import tracemalloc
from array import array
from typing import Iterator

from repro.measure.records import (
    MeasurementRecord,
    Method,
    ResultSet,
    TargetKind,
)
from repro.measure.store import ShardedResultStore
from repro.web.types import Status

_SEED = 2023
_N_RECORDS = int(os.environ.get("STREAMING_BENCH_RECORDS", "1000000"))
#: Out-of-core means n >> chunk: cap the chunk so even a scaled-down
#: run (STREAMING_BENCH_RECORDS override) spreads over >= 40 shards.
#: (25k rather than 50k: at 1M records the chunk buffer is the largest
#: single retained allocation, and halving it buys the ratio assertion
#: comfortable margin on any hardware.)
_CHUNK_SIZE = min(25_000, max(1, _N_RECORDS // 40))
_N_TARGETS = 55

#: (pt, category, mean duration scale) — the paper's 12 PTs + baseline.
_PTS = (
    ("tor", "baseline", 2.3), ("obfs4", "fully encrypted", 2.4),
    ("shadowsocks", "fully encrypted", 2.9), ("conjure", "proxy layer", 2.5),
    ("snowflake", "proxy layer", 3.4), ("psiphon", "proxy layer", 3.1),
    ("meek", "proxy layer", 5.8), ("dnstt", "tunneling", 4.4),
    ("camoufler", "tunneling", 12.8), ("webtunnel", "tunneling", 3.2),
    ("cloak", "fully encrypted", 2.8), ("stegotorus", "mimicry", 6.2),
    ("marionette", "mimicry", 20.8),
)


def synthesize_stream(n_records: int) -> Iterator[MeasurementRecord]:
    """A deterministic record *generator* — never a list.

    Both paths consume the identical stream, so the memory comparison
    isolates what each path retains, not what it was fed.
    """
    rng = random.Random(_SEED)
    targets = [f"site{i:03d}" for i in range(_N_TARGETS)]
    for i in range(n_records):
        pt, category, scale = _PTS[i % len(_PTS)]
        method = Method.CURL if (i // len(_PTS)) % 2 == 0 \
            else Method.SELENIUM
        target = targets[(i // (2 * len(_PTS))) % _N_TARGETS]
        duration = scale * (4.0 if method is Method.SELENIUM else 1.0) * \
            rng.lognormvariate(0.0, 0.35)
        failed = rng.random() < 0.04
        yield MeasurementRecord(
            pt=pt, category=category, target=target,
            kind=TargetKind.WEBSITE, method=method,
            client_city="London", server_city="Frankfurt",
            medium="wired", duration_s=duration,
            status=Status.FAILED if failed else Status.COMPLETE,
            bytes_expected=1e6, bytes_received=0.0 if failed else 1e6,
            ttfb_s=None if failed else duration * 0.2,
            speed_index_s=duration * 0.7
            if method is Method.SELENIUM else None,
            repetition=i)


def _packed(grouped) -> tuple:
    """A GroupedValues packed into ``array('d')`` for retention.

    Equality on arrays is element-exact, so comparisons stay bitwise —
    but the packed form retains 8 bytes per value instead of a boxed
    float, so neither path's kept outputs (nor the already-measured
    path's, retained for the comparison) distort the peak of whatever
    runs after them.
    """
    return grouped.labels, array("d", grouped.values), grouped.starts


def run_reductions(results) -> dict:
    """The acceptance reductions, off either container.

    Three streaming passes for the chunked store (the mean table, and
    one per values_by call; status fractions and categories fold into
    the first pass's scan) — each compared bitwise against the
    in-memory path. Each values_by output is packed as soon as it is
    computed, so at most one boxed-float column is alive at a time.
    """
    out = {
        "mean_table_curl": results.per_target_mean_table(
            "duration_s", Method.CURL),
        "values_sorted": _packed(results.values_by("duration_s", by="pt",
                                                   sort=True)),
    }
    out["values_ttfb"] = _packed(results.values_by("ttfb_s", by="pt",
                                                   method=Method.CURL))
    out["status_fractions"] = results.status_fractions_by_pt()
    out["categories"] = results.pt_categories(strict=False)
    return out


def _peak_of(fn) -> tuple[float, float, object]:
    """(peak MiB, elapsed s, fn()) measured under tracemalloc."""
    gc.collect()
    tracemalloc.reset_peak()
    start = time.perf_counter()
    out = fn()
    elapsed = time.perf_counter() - start
    _, peak = tracemalloc.get_traced_memory()
    return peak / 2**20, elapsed, out


def test_bench_streaming_store_bounded_memory(tmp_path):
    n = _N_RECORDS
    assert n >= 1_000  # floor for a meaningful ratio; default is 1M

    tracemalloc.start()
    try:
        def in_memory():
            results = ResultSet(synthesize_stream(n))
            return run_reductions(results)

        mem_peak, mem_s, mem_out = _peak_of(in_memory)

        def streaming():
            store = ShardedResultStore(tmp_path / "stream",
                                       chunk_size=_CHUNK_SIZE)
            store.extend(synthesize_stream(n))
            store.flush()
            return store, run_reductions(store)

        stream_peak, stream_s, (store, stream_out) = _peak_of(streaming)
    finally:
        tracemalloc.stop()

    ratio = stream_peak / mem_peak
    print(f"\nstreaming store over {n} records "
          f"({len(_PTS)} PTs x {_N_TARGETS} targets, "
          f"chunk={_CHUNK_SIZE}, {len(store.shard_paths)} shards)")
    print(f"  in-memory path: peak {mem_peak:8.1f} MiB   {mem_s:6.1f}s")
    print(f"  streaming path: peak {stream_peak:8.1f} MiB   {stream_s:6.1f}s"
          f"   ({100 * ratio:.1f}% of in-memory)")

    # The tentpole contract: identical statistics in bounded memory.
    assert stream_out == mem_out, "streaming reductions diverged"
    assert ratio <= 0.25, (
        f"streaming peak is {100 * ratio:.1f}% of the in-memory peak "
        "(expected <= 25%)")


def test_bench_spool_merge_bit_identity(tmp_path):
    """Spool-mode ParallelCampaign ≡ in-memory merge at workers 1 and 4."""
    from repro.core.config import WorldConfig
    from repro.measure.ethics import PacingPolicy
    from repro.measure.parallel import (
        CampaignSpec,
        ParallelCampaign,
        matrix_cells,
    )
    from repro.simnet.geo import Cities

    fast = PacingPolicy(gap_between_accesses_s=0.5, batch_size=0)
    pts = ("tor", "obfs4", "meek")
    spec = CampaignSpec(
        seeds=(_SEED, _SEED + 1),
        base_config=WorldConfig(seed=_SEED, transports=pts,
                                tranco_size=12, cbl_size=2),
        pt_names=pts,
        cells=matrix_cells(Cities.client_cities()[:2],
                           Cities.server_cities()[:2]),
        n_sites=12, repetitions=2, pacing=fast)

    reference = ParallelCampaign(spec, workers=1).run()
    for workers in (1, 4):
        spooled = ParallelCampaign(
            spec, workers=workers,
            spool_dir=tmp_path / f"spool-w{workers}",
            chunk_size=500).run()
        merged = spooled.load_merged()
        assert merged.records == reference.merged.records, (
            f"spool merge diverged at workers={workers}")
        assert spooled.store.per_target_mean_table("duration_s") == \
            reference.merged.per_target_mean_table("duration_s")
        print(f"  spool workers={workers}: {len(merged)} records "
              f"bit-identical to the in-memory merge "
              f"({len(spooled.store.shard_paths)} merged shards)")
