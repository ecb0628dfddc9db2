"""Smoke test of the end-to-end benchmark harness, at tiny sizes.

The real workloads take seconds each; here every size is shrunk in
place so the whole file runs in a few seconds inside tier-1.
"""

from __future__ import annotations

import cProfile
import dataclasses
import json
import pstats
from pathlib import Path

import pytest

import bench
import layers
import repro
import workloads
from repro.core.config import Scale
from repro.core.world import World

PACKAGE_DIR = Path(repro.__file__).resolve().parent
SPEC = json.loads((bench.REPO_ROOT / "BENCHMARK.json").read_text())

#: Accesses one smoke pass makes, per workload.
SMOKE_ACCESSES = {"pipeline": 810, "curl_sites": 13 * 2 * 3,
                  "bulk_files": 13 * 5, "seed_fanout": 9 * 4 * 2}


@pytest.fixture
def smoke(monkeypatch, tmp_path):
    """Shrink every workload in place; the tiny pipeline takes its
    world seed as given, since its input is not drawn to size."""
    monkeypatch.setitem(workloads.WORKLOADS, "pipeline", dataclasses.replace(
        workloads.WORKLOADS["pipeline"], world_seed=lambda seed: seed))
    monkeypatch.setattr(workloads, "PIPELINE_SCALE", Scale(
        n_sites=4, site_repetitions=1, file_attempts=1,
        fixed_circuit_iterations=1))
    monkeypatch.setattr(workloads, "CURL_SITES_PER_LIST", 3)
    monkeypatch.setattr(workloads, "CURL_REPETITIONS", 1)
    monkeypatch.setattr(workloads, "BULK_ATTEMPTS", 1)
    monkeypatch.setattr(workloads, "FANOUT_SEEDS", 1)
    monkeypatch.setattr(workloads, "FANOUT_SITES", 2)
    monkeypatch.setattr(workloads, "FANOUT_REPETITIONS", 1)
    monkeypatch.setattr(workloads, "WORK_DIR", tmp_path)


def test_metric_names_and_units_match_benchmark_json():
    end_to_end = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert set(end_to_end) <= set(bench.END_TO_END)
    assert "setup_s" in end_to_end
    produced = (set(workloads.LAYER_TIMINGS) | set(workloads.PERF_METRICS)
                | set(layers.rollup({}, PACKAGE_DIR)) | {"trace_overhead"})
    assert set(per_layer) == produced
    for name, unit in {**end_to_end, **per_layer}.items():
        if name.endswith("_per_s"):
            assert unit == "1/s", name
        elif name.endswith("_s"):
            assert unit == "s", name
        elif "_ms_" in name:
            assert unit == "ms", name
        elif name.endswith((".calls", ".draws")):
            assert unit == "count", name
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_two_in_process_passes_give_the_same_digest(smoke, name):
    first, second = (workloads.run_pass(name, 1, import_s=0.0, trace=False)
                     for _ in range(2))
    assert first["digest"] == second["digest"]
    assert first["accesses"] == second["accesses"] == SMOKE_ACCESSES[name]
    assert first["access_failed"] == first["failed_units"] == 0
    assert first["setup_s"] > 0 and min(first["access_ms"]) > 0


def test_pipeline_inputs_are_drawn_to_one_size():
    seeds = [workloads.pipeline_world_seed(seed) for seed in (1, 2)]
    assert seeds[0] != seeds[1]
    assert workloads.pipeline_world_seed(1) == seeds[0]
    for world_seed in seeds:
        objects = workloads.pipeline_objects(world_seed)
        assert abs(objects / workloads.PIPELINE_OBJECTS - 1) <= 0.02


def test_pipeline_size_counts_the_pages_its_browser_loads_fetch(smoke,
                                                                monkeypatch):
    loaded = []
    fetch = World.fetch_page_browser

    def counting(world, pt_name, page, **kwargs):
        loaded.append(1 + len(page.resources))
        return fetch(world, pt_name, page, **kwargs)

    monkeypatch.setattr(World, "fetch_page_browser", counting)
    workloads.run_pipeline(7, workloads.Probe())
    assert sum(loaded) == workloads.pipeline_objects(7)


def test_layer_map_assigns_every_runtime_module_exactly_once():
    modules = [path.relative_to(PACKAGE_DIR).as_posix()
               for path in sorted(PACKAGE_DIR.rglob("*.py"))]
    runtime = [m for m in modules if not m.startswith("lint/")]
    assert len(runtime) > 50
    assert {m: layers.layers_of(m) for m in runtime
            if len(layers.layers_of(m)) != 1} == {}


def test_traced_smoke_run_leaves_little_self_time_in_other(smoke):
    probe = workloads.Probe()
    profiler = cProfile.Profile(builtins=False)
    with probe.installed():
        profiler.runcall(workloads.run_pipeline, 1, probe)
    metrics = layers.rollup(pstats.Stats(profiler).stats, PACKAGE_DIR)
    assert metrics["other.share"] < 0.02
    assert metrics["simnet.session.dispatch.calls"] > 0
    assert metrics["simnet.rng.draws"] > 0


def _pass(digest: str) -> dict:
    return {"digest": digest, "accesses": 10, "expected_accesses": 10,
            "units": 0, "access_failed": 0, "failed_units": 0}


def test_output_gate_names_a_digest_mismatch():
    pins = {"curl_sites": {"1": "aa"}}
    assert bench.check("curl_sites", 1, [_pass("aa")] * 2, pins)["correct"]
    wrong = bench.check("curl_sites", 1, [_pass("bb")], pins)
    assert not wrong["correct"] and wrong["digest_check"] == "mismatch"
    unpinned = bench.check("curl_sites", 2, [_pass("bb")], pins)
    assert unpinned["correct"] and unpinned["digest_check"] == "unchecked"
    assert not bench.check("curl_sites", 2, [_pass("aa"), _pass("bb")],
                           pins)["correct"]


def test_compare_verdicts_follow_the_bound_and_the_spread():
    def runs(*values):
        return bench.summarize(list(values))

    base = runs(10.0, 10.1, 10.2)
    assert bench.verdict(base, runs(12.0, 12.1, 12.2), "lower", 0.1) == "worse"
    assert bench.verdict(base, runs(8.0, 8.1, 8.2), "lower", 0.1) == "better"
    assert bench.verdict(base, runs(9.3, 9.4), "lower", 0.1) == "unchanged"
    assert bench.verdict(base, runs(9.0, 9.1), "higher", 0.1) == "worse"
    noisy = runs(5.0, 10.0, 15.0)
    assert bench.verdict(noisy, runs(12.0, 13.0), "lower", 0.1) == "unresolved"
    assert bench.verdict(noisy, runs(1.0, 2.0), "lower", 0.1) == "better"
