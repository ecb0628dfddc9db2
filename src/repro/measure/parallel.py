"""Parallel per-seed campaign execution, supervised and fault-tolerant.

Worlds are fully independent given a seed and a location, so a campaign
over N seeds and M location cells fans out as N*M self-contained work
units — the same fan-out/merge architecture OnionPerf uses for its
vantage points and the KIST evaluation uses for independent Shadow
experiments. A :class:`ParallelCampaign` expands a :class:`CampaignSpec`
into work units, runs them either in-process (``workers=1``, the
byte-deterministic, debuggable fallback) or across worker processes,
and merges the per-unit result sets into one
:class:`~repro.measure.records.ResultSet` with deterministic ordering:
sorted by seed, then cell, then record index.

Execution is *supervised*, not a blocking ``pool.map``: the
:class:`~repro.measure.supervise.Supervisor` dispatches one worker
process per unit attempt, detects crashed workers the instant their
result pipe closes, enforces a per-unit wall-clock timeout, retries
with exponential backoff under a bounded budget
(:class:`~repro.measure.supervise.RetryPolicy`), and replaces dead
workers with fresh processes. Units that exhaust their budget surface
as :class:`~repro.measure.supervise.FailedUnit` reports on the
:class:`CampaignOutcome` (or raise
:class:`~repro.errors.UnitsExhaustedError` under ``strict=True``).

In spool mode every completed unit is additionally recorded in a
durable, fsynced unit journal next to the spool shards
(:class:`~repro.measure.supervise.UnitJournal`); ``resume=True``
replays it, adopts intact shards (content-digest verified), re-runs
only the missing units, and produces a merged store bit-identical to
an uninterrupted run — units are key-disjoint and the merge order is
fixed, so *which process* ran a unit, and *when*, never shows in the
output. ``docs/fault-tolerance.md`` specifies the journal format and
the resume/degradation contracts; ``repro.measure.faults`` makes every
failure path deterministic enough for CI.

Workers ship their results back as plain rows through the
:mod:`repro.measure.io` layer (``ResultSet.to_rows`` on the worker
side, :func:`repro.measure.io.rows_to_result_set` on the parent side),
so the merge is only trustworthy because that round-trip preserves
every record field exactly. Each worker also returns its runner's
perf-counter summary; :meth:`CampaignOutcome.perf_summary` aggregates
them across units, together with the supervisor's retry/timeout/crash
counters.

Two kinds of spec are supported:

* **matrix mode** — a website campaign over a location matrix
  (client/server city cells, optional per-cell config overrides),
  replicated across seeds. ``repro.measure.locations.location_matrix``
  routes through this.
* **experiment mode** — a registered experiment id replicated across
  seeds. ``repro.core.experiments.run_experiment_seeds`` routes through
  this.
"""

from __future__ import annotations

import hashlib
import os
import signal
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Iterable, Optional

from repro.core.config import Scale, WorldConfig
from repro.core import world as world_mod
from repro.core.world import World
from repro.errors import ConfigError, UnitsExhaustedError
from repro.measure import faults as faults_mod
from repro.measure import io as measure_io
from repro.measure.campaign import CampaignRunner
from repro.measure.ethics import DEFAULT_PACING, PacingPolicy
from repro.measure.faults import FaultPlan
from repro.measure.records import Method, ResultSet
from repro.measure.store import (
    DEFAULT_CHUNK_SIZE,
    ShardedResultStore,
    remove_shards,
    shard_path,
)
from repro.measure.supervise import (
    JOURNAL_NAME,
    FailedUnit,
    RetryPolicy,
    Supervisor,
    SupervisorResult,
    UnitJob,
    UnitJournal,
    new_counters,
)
from repro.simnet.geo import City


@dataclass(frozen=True)
class CellSpec:
    """One location cell of a matrix campaign.

    ``overrides`` are extra :class:`WorldConfig` field replacements for
    this cell only (e.g. ``(("medium", Medium.WIRELESS),)``), applied on
    top of the spec's base config after the cities and seed.
    """

    client: City
    server: City
    overrides: tuple[tuple[str, object], ...] = ()

    @property
    def key(self) -> tuple[str, str]:
        return (self.client.name, self.server.name)


@dataclass(frozen=True)
class CampaignSpec:
    """A campaign to fan out: matrix mode or experiment mode."""

    seeds: tuple[int, ...]
    # -- matrix mode ----------------------------------------------------
    base_config: Optional[WorldConfig] = None
    pt_names: tuple[str, ...] = ()
    cells: tuple[CellSpec, ...] = ()
    n_sites: int = 30
    repetitions: int = 2
    method: Method = Method.CURL
    pacing: PacingPolicy = field(default_factory=lambda: DEFAULT_PACING)
    # -- experiment mode ------------------------------------------------
    experiment_id: Optional[str] = None
    scale: Optional[Scale] = None

    def __post_init__(self) -> None:
        if not self.seeds:
            raise ConfigError("campaign spec needs at least one seed")
        matrix = self.base_config is not None or self.cells
        if self.experiment_id is not None and matrix:
            raise ConfigError(
                "campaign spec is either an experiment id or a location "
                "matrix, not both")
        if self.experiment_id is None:
            if self.base_config is None or not self.cells:
                raise ConfigError(
                    "matrix campaign needs a base_config and cells")
            if not self.pt_names:
                raise ConfigError("matrix campaign needs transport names")

    @property
    def is_experiment(self) -> bool:
        return self.experiment_id is not None

    def fingerprint(self) -> str:
        """Stable digest binding a journal to one campaign shape.

        Every spec component is a frozen dataclass (or enum) of plain
        values, so ``repr`` is deterministic across processes for the
        same construction — sufficient to refuse resuming a journal
        against a different campaign.
        """
        return hashlib.sha256(repr(self).encode()).hexdigest()[:16]


@dataclass(frozen=True)
class WorkUnit:
    """One independent world to run: a (seed, cell) combination.

    ``cell_index`` is the cell's position in the spec (``-1`` for
    experiment units, which have no cells); together with the seed it
    fixes the unit's position in the deterministic merge order.
    """

    seed: int
    cell_index: int
    spec: CampaignSpec

    @property
    def cell(self) -> Optional[CellSpec]:
        if self.cell_index < 0:
            return None
        return self.spec.cells[self.cell_index]


def _execute_unit(unit: WorkUnit) -> tuple[ResultSet, dict, Optional[dict]]:
    """Run one work unit in this process: (results, perf, experiment)."""
    spec = unit.spec
    if spec.is_experiment:
        # Imported lazily: core.experiments imports measure.locations,
        # which imports this module.
        from repro.core.experiments import run_experiment

        result = run_experiment(spec.experiment_id, seed=unit.seed,
                                scale=spec.scale)
        # PR 2 follow-up: experiment-mode units report the simulation
        # perf counters of the worlds they built, like matrix cells do.
        return (result.results if result.results is not None else ResultSet(),
                result.perf,
                {"experiment_id": result.experiment_id,
                 "title": result.title, "text": result.text,
                 "metrics": result.metrics, "paper": result.paper})
    cell = unit.cell
    assert spec.base_config is not None and cell is not None, \
        "matrix unit without base_config/cell (CampaignSpec.__post_init__)"
    config = replace(spec.base_config, seed=unit.seed,
                     client_city=cell.client, server_city=cell.server,
                     **dict(cell.overrides))
    world = World(config)
    runner = CampaignRunner(world, pacing=spec.pacing)
    results = runner.run_website_campaign(
        spec.pt_names, world.tranco[:spec.n_sites],
        method=spec.method, repetitions=spec.repetitions)
    return results, runner.perf_summary(), None


def _run_unit(unit: WorkUnit, attempt: int = 0,
              in_child: bool = False) -> dict:
    """Execute one work unit and return its picklable payload.

    Results travel as plain ``to_rows()`` dicts — the measure.io wire
    format — never as live record objects, so the in-process and
    multiprocessing paths hand the parent byte-identical data.
    (``attempt``/``in_child`` complete the supervisor's runner
    contract; wire-mode units have no write phase to fault.)
    """
    if in_child:
        world_mod.reset_world_tracking()
    results, perf, experiment = _execute_unit(unit)
    return {"seed": unit.seed, "cell_index": unit.cell_index,
            "rows": results.to_rows(), "perf": perf,
            "experiment": experiment}


def _fault_partial_write(results: ResultSet, path: Path,
                         in_child: bool) -> None:
    """Injected torn write: half the shard bytes at the *final* path.

    Reproduces exactly what the legacy non-atomic writer left behind
    when a worker died mid-write — a truncated shard at the adoptable
    path — then kills the worker. The retry's atomic write replaces
    the damage; resume validation would never adopt it (no digest was
    ever journaled for this attempt).
    """
    data = "".join(measure_io.row_lines(results)).encode()
    # replint: allow[IO01] -- fault injector: the torn non-atomic write IS the fault under test
    with open(path, "wb") as handle:
        handle.write(data[:max(1, len(data) // 2)])
        handle.flush()
        os.fsync(handle.fileno())
    if in_child:
        os._exit(faults_mod.CRASH_EXIT)
    raise faults_mod.InjectedCrash(f"partial write to {path.name}")


def _run_unit_spooled(args: tuple, attempt: int = 0,
                      in_child: bool = False) -> dict:
    """Execute one work unit, spilling its records to a JSONL shard.

    The payload ships the shard *path* plus a sha256 content digest,
    not the rows — the parent never holds a unit's records; it
    verifies the digest on completion, streams the lines during the
    merge, and journals the digest for crash-safe resume. The shard
    is written atomically (tmp + fsync + rename), so a worker killed
    mid-write leaves nothing adoptable at the final path. The file
    name leads with the campaign-wide unit index: (seed, cell) alone
    is not unique when a seed repeats, and two workers writing one
    path would corrupt the shard.
    """
    unit, index, spool_dir, fault_plan = args
    if in_child:
        world_mod.reset_world_tracking()
    results, perf, experiment = _execute_unit(unit)
    path = Path(spool_dir) / (
        f"unit-{index:06d}-s{unit.seed}-c{unit.cell_index + 1}.jsonl")
    kind = (fault_plan.fault_for(index, attempt)
            if fault_plan is not None else None)
    if kind == faults_mod.PARTIAL_WRITE:
        _fault_partial_write(results, path, in_child)
    n_rows, digest = measure_io.write_shard(results, path)
    if kind == faults_mod.CORRUPT_SHARD:
        # Silent corruption *after* the digest was taken: the payload
        # claims a digest the on-disk bytes no longer match, which the
        # parent's verify hook must catch and retry.
        # replint: allow[IO01] -- fault injector: post-digest corruption of the shard IS the fault under test
        with path.open("a") as handle:
            handle.write('{"injected-corruption": tr\n')
    return {"seed": unit.seed, "cell_index": unit.cell_index,
            "shard": str(path), "n_rows": n_rows, "digest": digest,
            "perf": perf, "experiment": experiment}


def _verify_shard(job: UnitJob, payload: dict) -> Optional[str]:
    """Supervisor verify hook: prove the unit's shard bytes are intact."""
    try:
        actual = measure_io.file_digest(payload["shard"])
    except OSError as exc:
        return f"corrupt shard (unreadable: {exc})"
    if actual != payload["digest"]:
        return "corrupt shard (content digest mismatch)"
    return None


@dataclass(frozen=True)
class UnitResult:
    """One work unit's reconstructed output.

    In spool mode ``results`` is None and ``shard`` points at the
    worker's JSONL file; :meth:`load_results` reads it on demand, so
    inspecting one unit never loads the others.
    """

    seed: int
    cell: Optional[CellSpec]
    results: Optional[ResultSet]
    perf: dict[str, float]
    experiment: Optional[dict] = None
    shard: Optional[Path] = None

    def load_results(self) -> ResultSet:
        """This unit's records, loading the spool shard if needed."""
        if self.results is not None:
            return self.results
        if self.shard is None:
            return ResultSet()
        return ResultSet(measure_io.iter_json_lines(self.shard))

    def to_experiment_result(self, *, load_records: bool = True):
        """Rebuild the worker's ExperimentResult (experiment mode only).

        With ``load_records=False`` a spooled unit's records stay on
        disk (``results=None``) — callers fanning out many seeds in
        spool mode must not re-materialize every seed's record set at
        once, which would undo the bounded-memory point of spooling.
        """
        if self.experiment is None:
            raise ConfigError("not an experiment-mode unit")
        from repro.core.experiments import ExperimentResult

        if not load_records and self.results is None:
            results = None
        else:
            loaded = self.load_results()
            results = loaded if len(loaded) else None
        return ExperimentResult(
            experiment_id=self.experiment["experiment_id"],
            title=self.experiment["title"], text=self.experiment["text"],
            metrics=self.experiment["metrics"],
            paper=self.experiment["paper"],
            results=results,
            perf=dict(self.perf))


@dataclass
class CampaignOutcome:
    """Merged output of a parallel campaign.

    In spool mode ``merged`` is None — the merged records live in
    ``store`` (a :class:`~repro.measure.store.ShardedResultStore` whose
    shards hold the k-way-merged stream in the same deterministic
    (seed, cell, index) order) and :meth:`load_merged` materializes
    them only on request.

    ``failed`` lists units that exhausted their retry budget (empty on
    a fully successful run); their records are absent from the merge —
    the degradation contract is explicit absence, never partial or
    corrupt data. ``execution`` carries the supervisor's counters
    (retries, timeouts, crashes, resumed units, ...).
    """

    spec: CampaignSpec
    units: list[UnitResult]   # completed units, sorted by (seed, cell index)
    merged: Optional[ResultSet]  # unit results concatenated in that order
    workers: int
    store: Optional[ShardedResultStore] = None
    failed: list[FailedUnit] = field(default_factory=list)
    execution: dict[str, float] = field(default_factory=dict)

    def load_merged(self) -> ResultSet:
        """The merged result set, materializing the store if spooled."""
        if self.merged is not None:
            return self.merged
        if self.store is None:
            return ResultSet()
        return self.store.to_result_set()

    def perf_summary(self) -> dict[str, float]:
        """Perf counters summed across every unit's world.

        Counters are additive event/work totals; ``sim_time_s`` becomes
        the total simulated seconds across all worlds. ``units`` and
        ``workers`` describe the fan-out itself; the supervisor's
        execution counters (``unit_retries``, ``unit_timeouts``,
        ``worker_crashes``, ``resumed_units``, ``failed_units``, ...)
        ride along so fault-tolerance work is as observable as engine
        work.
        """
        total: dict[str, float] = {}
        for unit in self.units:
            for key, value in unit.perf.items():
                total[key] = total.get(key, 0.0) + float(value)
        total["units"] = float(len(self.units))
        total["workers"] = float(self.workers)
        for key, value in self.execution.items():
            total[key] = total.get(key, 0.0) + float(value)
        if total.get("classes_allocated"):
            # A ratio, not an additive counter: recompute it from the
            # summed totals instead of summing per-unit ratios.
            total["flows_per_class"] = (total["flows_allocated"]
                                        / total["classes_allocated"])
        return total


#: Subdirectory of a spool dir holding the merged store's shards. The
#: CLI pre-flight guard derives the same path — keep them in lockstep.
MERGED_SUBDIR = "merged"


class ParallelCampaign:
    """Fans a campaign spec across worker processes and merges results.

    ``workers=1`` runs every unit in the parent process (no worker
    processes), which keeps results byte-deterministic with the
    multiprocessing path — both serialize through the same rows wire
    format — while remaining steppable under a debugger.

    With ``spool_dir`` set, workers write their records to JSONL shards
    and ship only the paths; the parent replaces the in-memory payload
    merge with a streaming k-way merge by (seed, cell, index) into a
    :class:`~repro.measure.store.ShardedResultStore`, so campaign
    memory is bounded by one unit (worker side) plus one chunk (parent
    side) regardless of campaign size. The merge order is identical to
    the in-memory sort, so both modes produce the same record stream
    bit for bit.

    Fault tolerance: ``retry`` configures per-unit timeouts and the
    bounded retry budget; ``strict`` chooses between FailedUnit reports
    (False, the default) and :class:`~repro.errors.UnitsExhaustedError`
    (True); ``resume`` (spool mode only) replays the unit journal and
    re-runs only missing units; ``fault_plan`` injects deterministic
    faults (defaults to the ``REPRO_FAULT_PLAN`` env hook, so CI can
    fault an unmodified campaign).
    """

    def __init__(self, spec: CampaignSpec, *, workers: int = 1,
                 spool_dir: Optional[str | Path] = None,
                 chunk_size: int = DEFAULT_CHUNK_SIZE,
                 retry: Optional[RetryPolicy] = None,
                 strict: bool = False,
                 resume: bool = False,
                 fault_plan: Optional[FaultPlan] = None) -> None:
        if workers < 1:
            raise ConfigError("workers must be >= 1")
        if chunk_size < 1:
            raise ConfigError("chunk_size must be >= 1")
        if resume and spool_dir is None:
            raise ConfigError(
                "resume needs a spool_dir: only spooled campaigns keep a "
                "durable unit journal to resume from")
        self.spec = spec
        self.workers = workers
        self.spool_dir = None if spool_dir is None else Path(spool_dir)
        self.chunk_size = chunk_size
        self.retry = retry or RetryPolicy()
        self.strict = strict
        self.resume = resume
        self.fault_plan = (fault_plan if fault_plan is not None
                           else FaultPlan.from_env())

    def work_units(self) -> list[WorkUnit]:
        """Expand the spec into independent (seed, cell) work units."""
        spec = self.spec
        if spec.is_experiment:
            return [WorkUnit(seed=seed, cell_index=-1, spec=spec)
                    for seed in spec.seeds]
        return [WorkUnit(seed=seed, cell_index=index, spec=spec)
                for seed in spec.seeds
                for index in range(len(spec.cells))]

    def run(self) -> CampaignOutcome:
        units = self.work_units()
        if self.spool_dir is not None:
            return self._run_spooled(units)
        jobs = [UnitJob(unit_index=index, seed=unit.seed,
                        cell_index=unit.cell_index, args=unit)
                for index, unit in enumerate(units)]
        supervised = Supervisor(
            _run_unit, jobs, workers=self.workers, policy=self.retry,
            fault_plan=self.fault_plan).run()
        self._check_strict(supervised)
        ordered = _ordered_payloads(supervised.payloads)
        results = [
            UnitResult(
                seed=payload["seed"],
                cell=(self.spec.cells[payload["cell_index"]]
                      if payload["cell_index"] >= 0 else None),
                results=measure_io.rows_to_result_set(payload["rows"]),
                perf=payload["perf"],
                experiment=payload["experiment"])
            for payload in ordered
        ]
        merged = measure_io.merge(unit.load_results() for unit in results)
        return CampaignOutcome(spec=self.spec, units=results, merged=merged,
                               workers=self.workers,
                               failed=supervised.failures,
                               execution=dict(supervised.counters))

    def _run_spooled(self, units: list[WorkUnit]) -> CampaignOutcome:
        """Spool mode: workers write shards, the parent streams a merge.

        Every completed unit is journaled durably before the next
        completion is processed, so a parent killed at any instant —
        SIGKILL included — resumes by replaying the journal, adopting
        digest-verified shards, and re-running only missing units.
        """
        spool_dir = self.spool_dir
        assert spool_dir is not None  # run() dispatches here only when set
        spool_dir.mkdir(parents=True, exist_ok=True)
        merged_dir = spool_dir / MERGED_SUBDIR
        journal = UnitJournal(spool_dir / JOURNAL_NAME,
                              fingerprint=self.spec.fingerprint(),
                              n_units=len(units))
        adopted: dict[int, dict] = {}
        if self.resume:
            adopted = {
                unit: _absolute_shard(entry["payload"], spool_dir)
                for unit, entry in
                journal.replay(validate=_shard_adoptable(spool_dir)).items()
            }
            # The merged store is derived data — always rebuilt from the
            # unit shards, so a kill mid-merge can never poison a resume.
            remove_shards(merged_dir)
        else:
            # Claim the spool directory *before* running anything: a
            # reused one must fail here, not after hours of simulation.
            if journal.exists():
                raise ConfigError(
                    f"{journal.path} already exists; pass resume=True to "
                    "continue that campaign, or pick a fresh spool_dir")
            if ShardedResultStore.has_shards(merged_dir):
                raise ConfigError(
                    f"{merged_dir} already contains shards; use "
                    "ShardedResultStore.open() to read an existing store")
        merged_dir.mkdir(parents=True, exist_ok=True)

        jobs = [UnitJob(unit_index=index, seed=unit.seed,
                        cell_index=unit.cell_index,
                        args=(unit, index, str(spool_dir), self.fault_plan))
                for index, unit in enumerate(units)
                if index not in adopted]
        journaled = 0

        def on_success(job: UnitJob, payload: dict, attempts: int) -> None:
            nonlocal journaled
            journal.record(job.unit_index, attempts,
                           _relative_shard(payload, spool_dir))
            journaled += 1
            plan = self.fault_plan
            if plan is not None and plan.kill_parent_after == journaled:
                # Deterministic stand-in for `kill -9` mid-campaign:
                # the entry above is already fsynced, so resume sees
                # exactly `journaled` completed units.
                os.kill(os.getpid(), signal.SIGKILL)

        if jobs:
            journal.open()
            try:
                supervised = Supervisor(
                    _run_unit_spooled, jobs, workers=self.workers,
                    policy=self.retry, fault_plan=self.fault_plan,
                    verify=_verify_shard, on_success=on_success).run()
            finally:
                journal.close()
        else:
            supervised = SupervisorResult(payloads={}, failures=[],
                                          counters=new_counters())
        # Strict failures raise only *after* the journal is closed:
        # completed units are already durable, so even a strict abort
        # leaves a resumable spool.
        self._check_strict(supervised)

        payloads = dict(adopted)
        payloads.update(supervised.payloads)
        ordered = _ordered_payloads(payloads)
        store = ShardedResultStore.open(
            merged_dir, chunk_size=self.chunk_size,
            shard_counts=self._roll_lines(merged_dir, ordered))

        results = [
            UnitResult(
                seed=payload["seed"],
                cell=(self.spec.cells[payload["cell_index"]]
                      if payload["cell_index"] >= 0 else None),
                results=None,
                perf=payload["perf"],
                experiment=payload["experiment"],
                shard=Path(payload["shard"]))
            for payload in ordered
        ]
        execution = dict(supervised.counters)
        execution["resumed_units"] = float(len(adopted))
        return CampaignOutcome(spec=self.spec, units=results, merged=None,
                               workers=self.workers, store=store,
                               failed=supervised.failures,
                               execution=execution)

    def _check_strict(self, supervised: SupervisorResult) -> None:
        if self.strict and supervised.failures:
            raise UnitsExhaustedError(supervised.failures)

    def _roll_lines(self, merged_dir: Path,
                    payloads: list[dict]) -> list[int]:
        """Copy unit-shard lines into chunk_size-line merged shards.

        The streaming merge by (seed, cell, index): every record of a
        unit shares that unit's (seed, cell) key and in-unit indices
        ascend, so unit streams never interleave — concatenating the
        key-sorted runs IS the k-way merge, emitting exactly the
        in-memory sorted order while holding one open shard and one
        pending line at a time (a heap-based merge would pin one open
        file per unit and trip the fd limit on large fan-outs). Unit
        shard lines are already byte-identical to merged shard lines
        (both are ``row_lines`` output), so the merge copies raw lines
        into chunk-rolled shards — no JSON decode / record
        construction / re-encode per record. Each merged shard lands
        atomically (tmp + fsync + rename, via
        :class:`repro.measure.io.AtomicShardWriter`), so a kill — or a
        power loss — mid-merge leaves no truncated shard for a later
        ``open()`` to trip over.

        Returns the per-shard line counts, in shard order.
        """
        counts: list[int] = []
        writer: Optional[measure_io.AtomicShardWriter] = None
        try:
            for payload in payloads:
                with open(payload["shard"]) as unit:
                    for line in unit:
                        if not line.strip():
                            continue
                        if writer is None or counts[-1] == self.chunk_size:
                            if writer is not None:
                                writer.commit()
                            writer = measure_io.AtomicShardWriter(
                                shard_path(merged_dir, len(counts)))
                            counts.append(0)
                        writer.write(line)
                        counts[-1] += 1
            if writer is not None:
                writer.commit()
                writer = None
        finally:
            if writer is not None:
                writer.abort()
        return counts


def _ordered_payloads(payloads: dict[int, dict]) -> list[dict]:
    """Deterministic merge order regardless of completion order:
    seed, then cell, then submission (unit) index — the exact order the
    historical stable sort produced, duplicate seeds included."""
    return [payloads[index] for index in sorted(
        payloads,
        key=lambda i: (payloads[i]["seed"], payloads[i]["cell_index"], i))]


def _relative_shard(payload: dict, spool_dir: Path) -> dict:
    """Journal form of a payload: shard as a name relative to the spool
    dir, so a moved/renamed spool directory still resumes."""
    entry = dict(payload)
    entry["shard"] = Path(payload["shard"]).name
    return entry


def _absolute_shard(payload: dict, spool_dir: Path) -> dict:
    entry = dict(payload)
    entry["shard"] = str(spool_dir / payload["shard"])
    return entry


def _shard_adoptable(spool_dir: Path) -> Callable[[dict], Optional[str]]:
    """Journal validator: adopt a unit only if its shard bytes still
    match the journaled digest; quarantine anything that doesn't."""

    def validate(entry: dict) -> Optional[str]:
        payload = entry.get("payload", {})
        shard = spool_dir / payload.get("shard", "")
        if not shard.is_file():
            return "missing shard"
        try:
            actual = measure_io.file_digest(shard)
        except OSError as exc:
            return f"unreadable shard: {exc}"
        if actual != payload.get("digest"):
            shard.replace(shard.with_name(shard.name + ".corrupt"))
            return "digest mismatch (quarantined)"
        return None

    return validate


def matrix_cells(clients: Iterable[City], servers: Iterable[City],
                 overrides: Optional[dict[tuple[str, str], dict]] = None,
                 ) -> tuple[CellSpec, ...]:
    """Row-major client x server cells, with optional per-cell overrides
    keyed by ``(client_name, server_name)``."""
    overrides = overrides or {}
    return tuple(
        CellSpec(client=client, server=server,
                 overrides=tuple(sorted(
                     overrides.get((client.name, server.name), {}).items())))
        for client in clients for server in servers)
