"""Command-line interface: ``python -m repro``.

Subcommands:

* ``list`` — show every reproducible table/figure;
* ``run <experiment-id> [...]`` — regenerate experiments and print the
  paper-vs-measured comparison; ``--seeds``/``--workers`` replicate
  each experiment over several seeds in parallel worker processes;
* ``compare <pt> [<pt> ...]`` — quick website-access comparison.

Examples::

    python -m repro list
    python -m repro run fig2a fig5 --seed 7 --scale small
    python -m repro run fig2a --seeds 1 2 3 4 --workers 4
    python -m repro run fig2a --out-dir exports --chunk-size 50000
    python -m repro run fig2a --seeds 1 2 3 4 --workers 4 \
        --out-dir exports --spool
    python -m repro run fig2a --seeds 1 2 3 4 --workers 4 \
        --out-dir exports --spool --retries 3 --unit-timeout 120 --resume
    python -m repro compare tor obfs4 meek --sites 30
"""

from __future__ import annotations

import argparse
import sys

from repro.core.config import Scale
from repro.errors import ConfigError, UnitsExhaustedError
from repro.core.experiments import (
    EXPERIMENTS,
    ExperimentResult,
    list_experiments,
    mean_seed_metrics,
    run_experiment_seeds,
)
from repro.core.ptperf import PTPerf
from repro.measure.store import DEFAULT_CHUNK_SIZE
from repro.pts.registry import transport_names

_SCALES = {"tiny": Scale.tiny, "small": Scale.small, "paper": Scale.paper}


def _cmd_list(_args: argparse.Namespace) -> int:
    width = max(len(d.experiment_id) for d in list_experiments())
    for definition in list_experiments():
        print(f"{definition.experiment_id:<{width}}  "
              f"[{definition.paper_ref:<12}]  {definition.title}")
    return 0


def _run_multi_seed(eid: str, seeds: list[int], workers: int,
                    scale: Scale, *, out_dir=None, spool_dir=None,
                    chunk_size: int = DEFAULT_CHUNK_SIZE,
                    retries=None, unit_timeout_s=None,
                    resume: bool = False) -> None:
    results = run_experiment_seeds(eid, seeds, scale=scale, workers=workers,
                                   spool_dir=spool_dir,
                                   chunk_size=chunk_size,
                                   retries=retries,
                                   unit_timeout_s=unit_timeout_s,
                                   resume=resume)
    for seed, result in zip(seeds, results):
        print(f"\n-- seed {seed} --")
        print(result.comparison())
    mean = ExperimentResult(
        experiment_id=eid, title=results[0].title, text="",
        metrics=mean_seed_metrics(results), paper=results[0].paper)
    print(f"\npaper vs mean over seeds {seeds} ({workers} worker(s)):")
    print(mean.comparison())
    if spool_dir is not None:
        print(f"spooled worker shards under {spool_dir}")
    elif out_dir is not None:
        # Without spooling, export each seed's records like the
        # single-seed path does — asking for --out-dir must never be a
        # silent no-op.
        for seed, result in zip(seeds, results):
            _export_results(result, out_dir, chunk_size, seed=seed)


def _spool_dir_of(out_dir, eid):
    """Where a spooled fan-out for one experiment lives (shared by the
    pre-flight guard and the run loop — never derive it twice)."""
    from pathlib import Path

    return Path(out_dir) / f"{eid}-spool"


def _export_dir_of(out_dir, eid, seed=None):
    """Where one experiment's (optionally per-seed) export lives."""
    from pathlib import Path

    suffix = "" if seed is None else f"-seed{seed}"
    return Path(out_dir) / f"{eid}{suffix}"


def _existing_export_dir(out_dir, experiments, seeds, spool,
                         resume=False):
    """The first prospective export directory that is unusable — it
    already holds shards, or two seeds would write it (duplicate seeds
    without spooling). None when every target is clean. A ``--resume``
    run *expects* its spool directory (merged shards included) to
    exist — the campaign rebuilds the merge from the journal — so
    spool candidates are exempt from the clobber guard then."""
    from repro.measure.parallel import MERGED_SUBDIR
    from repro.measure.store import ShardedResultStore

    candidates = []
    for eid in experiments:
        if seeds and spool:
            if resume:
                continue
            candidates.append(_spool_dir_of(out_dir, eid) / MERGED_SUBDIR)
        elif seeds:
            candidates.extend(_export_dir_of(out_dir, eid, seed)
                              for seed in seeds)
        else:
            candidates.append(_export_dir_of(out_dir, eid))
    seen = set()
    for directory in candidates:
        # Duplicate seeds map two exports onto one path: the second
        # would hit the clobber guard only after the whole simulation.
        if directory in seen or ShardedResultStore.has_shards(directory):
            return directory
        seen.add(directory)
    return None


def _export_results(result: ExperimentResult, out_dir, chunk_size: int,
                    seed=None) -> None:
    """Export one experiment's records as a sharded JSONL store."""
    from repro.measure.store import ShardedResultStore

    if result.results is None:
        print(f"[{result.experiment_id}] no result records to export")
        return
    directory = _export_dir_of(out_dir, result.experiment_id, seed)
    store = ShardedResultStore(directory, chunk_size=chunk_size)
    store.extend(result.results)
    store.flush()
    print(f"[{result.experiment_id}] wrote {len(store)} records in "
          f"{len(store.shard_paths)} shard(s) to {directory}")


def _cmd_run(args: argparse.Namespace) -> int:
    unknown = [eid for eid in args.experiments if eid not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}", file=sys.stderr)
        print(f"known: {', '.join(sorted(EXPERIMENTS))}", file=sys.stderr)
        return 2
    if args.workers < 1:
        print("--workers must be >= 1", file=sys.stderr)
        return 2
    if args.chunk_size < 1:
        print("--chunk-size must be >= 1", file=sys.stderr)
        return 2
    if args.spool and args.out_dir is None:
        print("--spool needs --out-dir (shards have to live somewhere)",
              file=sys.stderr)
        return 2
    if args.spool and not args.seeds:
        print("--spool applies to --seeds fan-outs", file=sys.stderr)
        return 2
    if args.retries < 0:
        print("--retries must be >= 0", file=sys.stderr)
        return 2
    if args.unit_timeout is not None and args.unit_timeout <= 0:
        print("--unit-timeout must be positive", file=sys.stderr)
        return 2
    if args.resume and not args.spool:
        print("--resume needs --spool: only spooled campaigns keep a "
              "durable unit journal to resume from", file=sys.stderr)
        return 2
    scale = _SCALES[args.scale]()
    perf = PTPerf(seed=args.seed, scale=scale)
    experiments = args.experiments or list(EXPERIMENTS)
    if args.out_dir is not None:
        # Fail on a reused export directory *before* simulating
        # anything — the spool path pre-claims its merged store for the
        # same reason.
        clash = _existing_export_dir(args.out_dir, experiments,
                                     args.seeds, args.spool,
                                     resume=args.resume)
        if clash is not None:
            print(f"{clash} already contains shards (or duplicate --seeds "
                  "target it twice); pick a fresh --out-dir or fix the "
                  "seed list", file=sys.stderr)
            return 2
    try:
        for eid in experiments:
            if args.seeds:
                header = (f"{eid}: {EXPERIMENTS[eid].title} "
                          f"({EXPERIMENTS[eid].paper_ref})")
                print(f"\n{header}\n{'=' * len(header)}")
                spool_dir = _spool_dir_of(args.out_dir, eid) \
                    if args.spool else None
                _run_multi_seed(eid, args.seeds, args.workers, scale,
                                out_dir=args.out_dir, spool_dir=spool_dir,
                                chunk_size=args.chunk_size,
                                retries=args.retries,
                                unit_timeout_s=args.unit_timeout,
                                resume=args.resume)
                continue
            result = perf.run(eid)
            header = f"{eid}: {result.title} ({EXPERIMENTS[eid].paper_ref})"
            print(f"\n{header}\n{'=' * len(header)}")
            print(result.text)
            print("\npaper vs measured:")
            print(result.comparison())
            if args.out_dir is not None:
                _export_results(result, args.out_dir, args.chunk_size)
    except UnitsExhaustedError as exc:
        # Strict fan-out with units past their retry budget: the spool
        # (if any) stays resumable — say so instead of a traceback.
        print(str(exc), file=sys.stderr)
        if args.spool:
            print("completed units are journaled; re-run with --resume "
                  "to retry only the failed ones", file=sys.stderr)
        return 1
    except ConfigError as exc:
        # E.g. --out-dir / --spool pointing at a directory that already
        # holds shards: a clean message, not a traceback.
        print(str(exc), file=sys.stderr)
        return 2
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    known = transport_names()
    unknown = [pt for pt in args.pts if pt not in known]
    if unknown:
        print(f"unknown transport(s): {', '.join(unknown)}", file=sys.stderr)
        print(f"known: {', '.join(known)}", file=sys.stderr)
        return 2
    for flag, value in (("--sites", args.sites),
                        ("--repetitions", args.repetitions)):
        if value < 1:
            print(f"{flag} must be >= 1", file=sys.stderr)
            return 2
    perf = PTPerf(seed=args.seed)
    means = perf.website_access(args.pts, n_sites=args.sites,
                                repetitions=args.repetitions)
    width = max(len(pt) for pt in means)
    for pt, mean in sorted(means.items(), key=lambda kv: kv[1]):
        print(f"{pt:<{width}}  {mean:6.2f}s")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="PTPerf reproduction: Tor pluggable-transport "
                    "performance over a deterministic simulator.")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list reproducible tables/figures")

    run = sub.add_parser("run", help="run experiments by id")
    run.add_argument("experiments", nargs="*",
                     help="experiment ids (default: all)")
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--scale", choices=sorted(_SCALES), default="small")
    run.add_argument("--seeds", type=int, nargs="+", default=None,
                     metavar="SEED",
                     help="replicate each experiment over these seeds "
                          "(overrides --seed) and report per-seed plus "
                          "mean-over-seeds comparisons")
    run.add_argument("--workers", type=int, default=1,
                     help="worker processes for --seeds fan-out "
                          "(1 = in-process, deterministic serial order)")
    run.add_argument("--out-dir", default=None, metavar="DIR",
                     help="export each experiment's records as a sharded "
                          "JSONL result store under DIR/<experiment-id>")
    run.add_argument("--chunk-size", type=int, default=DEFAULT_CHUNK_SIZE,
                     help="records per shard for --out-dir/--spool stores")
    run.add_argument("--spool", action="store_true",
                     help="with --seeds and --out-dir: workers spill their "
                          "records to shard files instead of shipping them "
                          "through the process pool (bounded-memory merge)")
    run.add_argument("--retries", type=int, default=2,
                     help="re-runs granted to a crashed/hung/failed work "
                          "unit before it is reported as exhausted "
                          "(default: 2)")
    run.add_argument("--unit-timeout", type=float, default=None,
                     metavar="SECONDS",
                     help="wall-clock ceiling per unit attempt; the worker "
                          "is killed and the unit retried (multi-worker "
                          "runs only)")
    run.add_argument("--resume", action="store_true",
                     help="with --spool: replay the spool's unit journal, "
                          "adopt intact shards, and re-run only missing "
                          "units (crash-safe continuation)")

    compare = sub.add_parser("compare", help="quick PT comparison")
    compare.add_argument("pts", nargs="+", help="transport names")
    compare.add_argument("--sites", type=int, default=20)
    compare.add_argument("--repetitions", type=int, default=2)
    compare.add_argument("--seed", type=int, default=1)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"list": _cmd_list, "run": _cmd_run, "compare": _cmd_compare}
    return handlers[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
