"""End-to-end benchmark of the paper pipeline and the campaign stack.

Run from the repository root::

    python3 benchmarks/e2e/bench.py --seed 1                  # all workloads, one pass
    python3 benchmarks/e2e/bench.py --workload pipeline --seed 3 --seconds 25
    python3 benchmarks/e2e/bench.py --seed 1 --repeat 5 --trace --out run.json
    python3 benchmarks/e2e/bench.py --compare base.json head.json

Every pass of a workload runs in a fresh interpreter on the same input,
so import and world set-up are paid, and timed, on every pass. A
workload runs ``--repeat`` passes, and keeps running passes while
another one fits in ``--seconds``. Because every pass makes the same
accesses, wall time and latency are built per access: each stretch of
wall time between two access ends, and each access's latency, is taken
at its fastest over the passes. On a shared host, bursts of contention
from other tenants slow a large and shifting share of any one pass;
an access's fastest time is its cost without them. The other metrics
report the median over passes.

``--trace`` adds one cProfile pass after each untraced pass and ends
with the per-layer metrics instead. Metric names, units, directions and
regression bounds come from ``BENCHMARK.json`` at the repository root;
the pinned output digests come from ``digests.json`` next to this file.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is
0 when every output was correct, 1 when a digest, access count or
failure check did not hold, and 2 when a pass crashed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parents[1]
WORKLOAD_NAMES = ("pipeline", "curl_sites", "bulk_files", "seed_fanout")
#: A pass that takes longer than this is killed and the run fails.
PASS_TIMEOUT_S = 150.0


# -- one pass, in a fresh interpreter -----------------------------------


def pass_main(name: str, seed: int, trace: bool) -> None:
    """Child side: import, run one pass, print its measurements."""
    started = time.perf_counter()
    sys.path.insert(0, str(REPO_ROOT / "src"))
    import workloads

    import_s = time.perf_counter() - started
    print(json.dumps(workloads.run_pass(name, seed, import_s=import_s,
                                        trace=trace)))


class PassFailed(RuntimeError):
    pass


def run_pass(name: str, seed: int, trace: bool) -> dict:
    """Parent side: run one pass in a new process group and parse it."""
    proc = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--pass", name,
         "--seed", str(seed), "--trace", str(int(trace))],
        cwd=REPO_ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise PassFailed(f"{name}: pass exceeded {PASS_TIMEOUT_S:g} s") from None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    if proc.returncode != 0 or not out.strip():
        raise PassFailed(f"{name}: pass exited with {proc.returncode}\n{err}")
    return json.loads(out.strip().splitlines()[-1])


def run_workload(name: str, seed: int, *, seconds: float, repeat: int,
                 trace: bool) -> tuple[list[dict], list[dict]]:
    """Untraced (and traced) passes until both stopping rules are met."""
    passes: list[dict] = []
    traced: list[dict] = []
    start = time.monotonic()
    while True:
        passes.append(run_pass(name, seed, trace=False))
        if trace:
            traced.append(run_pass(name, seed, trace=True))
        elapsed = time.monotonic() - start
        if len(passes) >= repeat and elapsed * (1 + 1 / len(passes)) > seconds:
            return passes, traced


# -- metrics --------------------------------------------------------------


def summarize(values: list[float], value: float | None = None) -> dict:
    """A reported value (the median unless given) and the quartiles of
    its readings, as ``statistics.quantiles`` gives them."""
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"value": median if value is None else value,
            "q1": q1, "q3": q3, "values": values}


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _fastest(passes: list[dict], key: str) -> list[float]:
    """Element-wise minimum over passes of one per-pass series."""
    return [min(column) for column in zip(*(p[key] for p in passes))]


def _wall(p: dict) -> float:
    return sum(p["segments_s"])


def _fastest_wall(passes: list[dict]) -> float:
    return sum(_fastest(passes, "segments_s"))


def _throughput(passes: list[dict]) -> float:
    setup = statistics.median(p["setup_s"] for p in passes)
    return passes[0]["accesses"] / (_fastest_wall(passes) - setup)


def _latency(q: float):
    return lambda passes: _percentile(_fastest(passes, "access_ms"), q)


def _from_fastest(estimate):
    """A metric built from per-access fastest times. Its readings are
    the metric recomputed without each pass in turn, since a single
    pass's reading would include the contention the estimate rejects."""
    def metric(passes: list[dict]) -> dict:
        subsets = ([passes[:i] + passes[i + 1:] for i in range(len(passes))]
                   if len(passes) > 1 else [passes])
        return summarize([estimate(s) for s in subsets], estimate(passes))
    return metric


def _per_pass(read):
    return lambda passes: summarize([read(p) for p in passes])


#: How each end-to-end metric is read off a run's untraced passes.
END_TO_END = {
    "wall_s": _from_fastest(_fastest_wall),
    "setup_s": _per_pass(lambda p: p["setup_s"]),
    "measurements_per_s": _from_fastest(_throughput),
    "access_ms_p50": _from_fastest(_latency(0.50)),
    "access_ms_p99": _from_fastest(_latency(0.99)),
    "peak_rss_mb": _per_pass(lambda p: p["peak_rss_mb"]),
    "error_rate": _per_pass(
        lambda p: (p["access_failed"] + p["failed_units"])
        / max(1, p["accesses"] + p["units"])),
}
#: Printed and written with ``--out`` but not in ``BENCHMARK.json``: the
#: error rate is 0 on every workload, and the pipeline's p99 is the load
#: time of its one or two heaviest pages, which differ between seeds
#: by more than any usable bound.
REPORTED_ONLY = {"access_ms_p99": "ms", "error_rate": "fraction"}


def layer_metrics(passes: list[dict], traced: list[dict]) -> dict:
    """Per-layer values: outside timings and counters come from the
    untraced passes, self times and call counts from the traced ones."""
    out = {}
    for key in traced[0]["layers"]:
        source = passes if key in passes[0]["layers"] else traced
        out[key] = summarize([p["layers"][key] for p in source])
    untraced = statistics.median(_wall(p) for p in passes)
    out["trace_overhead"] = summarize([_wall(t) / untraced for t in traced])
    return out


def check(name: str, seed: int, passes: list[dict], pins: dict) -> dict:
    """Output gate: digests agree, match the pin, counts and no failures."""
    digests = {p["digest"] for p in passes}
    digest = passes[0]["digest"]
    pinned = pins.get(name, {}).get(str(seed))
    problems = []
    if len(digests) > 1:
        problems.append(f"passes disagree on the output digest: {sorted(digests)}")
    if pinned is not None and digest != pinned:
        problems.append(f"digest {digest} differs from the pinned {pinned}")
    for p in passes:
        if p["accesses"] != p["expected_accesses"]:
            problems.append(f"{p['accesses']} accesses, expected "
                            f"{p['expected_accesses']}")
    attempted = sum(p["accesses"] + p["units"] for p in passes)
    failed = sum(p["access_failed"] + p["failed_units"] for p in passes)
    if failed:
        problems.append(f"{failed} of {attempted} operations failed")
    return {"digest": digest,
            "digest_check": ("unchecked" if pinned is None
                             else "pinned" if digest == pinned else "mismatch"),
            "correct": not problems, "problems": list(dict.fromkeys(problems)),
            "attempted": attempted, "failed": failed}


def report(name: str, seed: int, passes: list[dict], traced: list[dict],
           spec: dict, pins: dict) -> dict:
    doc = check(name, seed, passes + traced, pins)
    doc.update(passes=len(passes), traced_passes=len(traced),
               world_seed=passes[0]["world_seed"],
               accesses_per_pass=passes[0]["accesses"])
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    units.update(REPORTED_ONLY)
    doc["end_to_end"] = {metric: dict(END_TO_END[metric](passes), unit=unit)
                         for metric, unit in units.items()}
    if traced:
        layers = layer_metrics(passes, traced)
        doc["per_layer"] = {m["name"]: dict(layers[m["name"]], unit=m["unit"])
                            for m in spec["per_layer"]}
    return doc


def print_report(name: str, seed: int, doc: dict) -> None:
    print(f"== {name} (seed {seed}, world seed {doc['world_seed']}, "
          f"{doc['passes']} passes, {doc['accesses_per_pass']} accesses "
          f"per pass) ==")
    for section in ("end_to_end", "per_layer"):
        for metric, s in doc.get(section, {}).items():
            print(f"  {metric:42s} {s['value']:14.6g} {s['unit']:9s}"
                  f" q1 {s['q1']:.6g}  q3 {s['q3']:.6g}")
    where = {"pinned": "matches the pinned digest",
             "mismatch": "DOES NOT match the pinned digest",
             "unchecked": f"unchecked (no digest pinned for seed {seed})"}
    print(f"  output digest {doc['digest']} {where[doc['digest_check']]}")
    for problem in doc["problems"]:
        print(f"  INCORRECT {name}: {problem}")


# -- compare --------------------------------------------------------------


def verdict(base: dict, head: dict, better: str, bound: float) -> str:
    """better / worse / unchanged / unresolved for one metric.

    A metric whose spread over the base's readings (quartile distance
    over the reported value) exceeds its bound is unresolved, unless
    every head reading beats every base reading. Otherwise the head is
    worse or better when its value moved by more than the bound: one
    file per side cannot tell a smaller change from the host drifting
    between the two runs.
    """
    sign = 1.0 if better == "lower" else -1.0
    change = sign * (head["value"] - base["value"]) / base["value"]
    spread = (base["q3"] - base["q1"]) / base["value"]
    if spread > bound:
        worst_head = max(sign * v for v in head["values"])
        best_base = min(sign * v for v in base["values"])
        return "better" if worst_head < best_base else "unresolved"
    if abs(change) > bound:
        return "worse" if change > 0 else "better"
    return "unchanged"


def compare(base_path: str, head_path: str, spec: dict) -> int:
    base = json.loads(Path(base_path).read_text())["workloads"]
    head = json.loads(Path(head_path).read_text())["workloads"]
    worse = 0

    def cell(s: dict) -> str:
        return f"{s['value']:.5g} [{s['q1']:.5g}, {s['q3']:.5g}]"

    print(f"{'workload':12s} {'metric':19s} {'base [q1, q3]':>32s} "
          f"{'head [q1, q3]':>32s} {'bound':>6s}  verdict")
    for name in [w for w in base if w in head]:
        for m in spec["end_to_end"]:
            b = base[name]["end_to_end"][m["name"]]
            h = head[name]["end_to_end"][m["name"]]
            v = verdict(b, h, m["better"], m["bound"])
            worse += v == "worse"
            print(f"{name:12s} {m['name']:19s} {cell(b):>32s} {cell(h):>32s} "
                  f"{m['bound']:6.0%}  {v}")
    return 1 if worse else 0


# -- command line ---------------------------------------------------------


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", "--workloads", nargs="+",
                        choices=WORKLOAD_NAMES, default=list(WORKLOAD_NAMES))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="keep running passes while another fits")
    parser.add_argument("--repeat", type=int, default=1,
                        help="minimum passes per workload")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--out", help="write the full result document here")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "HEAD"))
    parser.add_argument("--pass", dest="pass_name", choices=WORKLOAD_NAMES,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    return args


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if args.pass_name:
        pass_main(args.pass_name, args.seed, bool(args.trace))
        return 0
    spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    if args.compare:
        return compare(*args.compare, spec)
    pins = json.loads((HERE / "digests.json").read_text())
    docs = {}
    try:
        for name in args.workload:
            passes, traced = run_workload(
                name, args.seed, seconds=args.seconds, repeat=args.repeat,
                trace=bool(args.trace))
            docs[name] = report(name, args.seed, passes, traced, spec, pins)
            print_report(name, args.seed, docs[name])
    except PassFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"seed": args.seed, "trace": bool(args.trace),
             "python": sys.version.split()[0], "cpus": os.cpu_count(),
             "workloads": docs}, indent=1) + "\n")
    section = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for name, doc in docs.items():
        prefix = f"{name}/" if len(docs) > 1 else ""
        for m in spec[section]:
            metrics[prefix + m["name"]] = {"value": doc[section][m["name"]]["value"],
                                           "unit": m["unit"]}
    correct = all(doc["correct"] for doc in docs.values())
    print(json.dumps({"correct": correct,
                      "attempted": sum(d["attempted"] for d in docs.values()),
                      "failed": sum(d["failed"] for d in docs.values()),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
