"""Run-time witness: outputs depend on the seed alone.

The witness runs one pass in two fresh interpreters at once, under
``PYTHONHASHSEED`` 0 and 1. The pass is ``test_golden``'s
``output_digest`` for every experiment at ``Scale.tiny()``, seed 1, plus
a small spooled matrix campaign: its shards are merged, the store is
reopened and run through the six ``repro.analysis.aggregate``
reductions. It fails when

* an ambient source (a clock, the module-level ``random`` generator,
  OS entropy, the environment, ``uuid1``/``uuid4``, ``secrets``) is
  called while a function of a DET01-zone module is on the stack, or
* the two interpreters' digests differ: hash order reached an output.

Before ``repro`` is imported, each interpreter wraps the sources with
an :class:`AmbientTrap`. The zones and the clock and ``random`` name
lists are DET01's own, read from ``repro/lint/rules.py``. A call is
charged to the innermost zone function on the stack. It is charged to
none when a module-level frame (import-time code) or a frame of an
exempt module (``repro.simnet.perfcounters``) comes first.

Run as a script, this file is one interpreter of the witness::

    PYTHONPATH=src python tests/golden/test_witness.py SPOOL_DIR
"""

from __future__ import annotations

import collections
import hashlib
import importlib.util
import json
import os
import random
import secrets
import subprocess
import sys
import time
import uuid
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"
HASH_SEEDS = (0, 1)

#: DET03's sources beyond DET01's clock and ``random`` lists.
_OS_SOURCES = ("urandom", "getrandom", "getenv")
_UUID_SOURCES = ("uuid1", "uuid4")
_SECRETS_SOURCES = ("choice", "randbelow", "randbits", "token_bytes",
                    "token_hex", "token_urlsafe")
_ENVIRON_READS = ("__getitem__", "__iter__")


def det01_rules():
    """``repro.lint.rules``, without importing ``repro`` when it is not.

    Importing the package imports the whole runtime, and a source bound
    then (``from time import perf_counter``) would escape the trap. So a
    fresh interpreter loads ``policy.py`` and ``rules.py`` from their
    files, under their own names.
    """
    rules = sys.modules.get("repro.lint.rules")
    if rules is None:
        for name in ("policy", "rules"):
            spec = importlib.util.spec_from_file_location(
                f"repro.lint.{name}", SRC / "repro" / "lint" / f"{name}.py")
            rules = importlib.util.module_from_spec(spec)
            sys.modules[spec.name] = rules
            spec.loader.exec_module(rules)
    return rules


def ambient_sources(rules) -> list[tuple[object, str, str]]:
    """``(owner, attribute, label)`` of every source the trap wraps."""
    found = [(time, name, f"time.{name}()")
             for name in sorted(rules._WALL_CLOCK_TIME)]
    found += [(random, name, f"random.{name}()")
              for name in sorted(rules._RANDOM_FNS)]
    found += [(os, name, f"os.{name}()")
              for name in _OS_SOURCES if hasattr(os, name)]
    found += [(type(os.environ), name, "os.environ read")
              for name in _ENVIRON_READS]
    found += [(uuid, name, f"uuid.{name}()") for name in _UUID_SOURCES]
    found += [(secrets, name, f"secrets.{name}()")
              for name in _SECRETS_SOURCES]
    return found


class AmbientTrap:
    """Counts ambient-source calls charged to zone functions."""

    def __init__(self, rules) -> None:
        self.policy = rules.WallClockRule.policy
        self.exempt = rules.RulePolicy(zones=self.policy.exempt)
        self.sources = ambient_sources(rules)
        #: (source label, zone function) -> calls charged to it.
        self.hits: collections.Counter[tuple[str, str]] = \
            collections.Counter()

    def install(self, patch=setattr) -> None:
        """Wrap every source in place; ``patch`` is ``setattr``-like."""
        for owner, name, label in self.sources:
            patch(owner, name, self._wrap(getattr(owner, name), label))

    def _wrap(self, source, label: str):
        def trapped(*args, **kwargs):
            caller = self.zone_caller(sys._getframe(1))
            if caller is not None:
                self.hits[label, caller] += 1
            return source(*args, **kwargs)
        return trapped

    def zone_caller(self, frame) -> str | None:
        """The zone function a call from ``frame`` is charged to."""
        while frame is not None:
            module = frame.f_globals.get("__name__", "")
            if frame.f_code.co_name == "<module>" or \
                    self.exempt.applies_to(module):
                return None
            if self.policy.applies_to(module):
                return f"{module}.{frame.f_code.co_qualname}"
            frame = frame.f_back
        return None


# ---------------------------------------------------------------------------
# one interpreter of the witness
# ---------------------------------------------------------------------------

def spooled_digest(spool: Path) -> str:
    """Run the spooled campaign, reopen its store, digest rows and
    reductions.

    The reductions are digested by ``repr``: it shows dict insertion
    order and exact floats, and every reduction is made of dataclasses,
    enums and builtins, so no object address gets in.
    """
    from repro.analysis.aggregate import (
        box_by_pt,
        category_ttests,
        ecdf_by_pt,
        mean_by_pt,
        reliability_by_pt,
        ttest_matrix,
    )
    from repro.core.config import WorldConfig
    from repro.measure.ethics import PacingPolicy
    from repro.measure.parallel import (
        MERGED_SUBDIR,
        CampaignSpec,
        ParallelCampaign,
        matrix_cells,
    )
    from repro.measure.records import record_to_row
    from repro.measure.store import ShardedResultStore
    from repro.simnet.geo import Cities

    pts = ("tor", "obfs4", "meek", "snowflake")
    spec = CampaignSpec(
        seeds=(1, 2),
        base_config=WorldConfig(seed=1, transports=pts, tranco_size=3,
                                cbl_size=2),
        pt_names=pts,
        cells=matrix_cells([Cities.LONDON, Cities.TORONTO],
                           [Cities.FRANKFURT]),
        n_sites=3, repetitions=2,
        pacing=PacingPolicy(gap_between_accesses_s=0.5, batch_size=0))
    ParallelCampaign(spec, workers=1, spool_dir=spool, chunk_size=16).run()
    store = ShardedResultStore.open(spool / MERGED_SUBDIR)
    h = hashlib.sha256()
    for record in store.iter_records():
        h.update(json.dumps(record_to_row(record), sort_keys=True).encode())
    reductions = [box_by_pt(store), mean_by_pt(store), ttest_matrix(store),
                  ecdf_by_pt(store), reliability_by_pt(store),
                  category_ttests(store)]
    h.update(repr(reductions).encode())
    return h.hexdigest()


def witness_pass(spool: Path) -> dict:
    """Trap the sources, then import ``repro`` and run the pass."""
    trap = AmbientTrap(det01_rules())
    trap.install()
    from test_golden import output_digest

    from repro.core.experiments import EXPERIMENTS
    digests = {eid: output_digest(eid) for eid in sorted(EXPERIMENTS)}
    digests["spooled campaign"] = spooled_digest(spool)
    hits = {f"{label} in {caller}": n
            for (label, caller), n in trap.hits.items()}
    return {"hits": hits, "digests": digests}


# ---------------------------------------------------------------------------
# the witness
# ---------------------------------------------------------------------------

def _child_env(hash_seed: int) -> dict[str, str]:
    path = [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path),
                PYTHONHASHSEED=str(hash_seed))


def test_two_hash_seeds_agree_and_no_zone_function_reads_ambient_state(
        tmp_path):
    children = {
        seed: subprocess.Popen(
            [sys.executable, __file__, str(tmp_path / f"spool{seed}")],
            env=_child_env(seed), stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True)
        for seed in HASH_SEEDS}
    reports = {}
    try:
        for seed, child in children.items():
            out, err = child.communicate(timeout=600)
            assert child.returncode == 0, \
                f"PYTHONHASHSEED={seed}: witness pass failed\n{err}"
            reports[seed] = json.loads(out.splitlines()[-1])
    finally:
        for child in children.values():
            if child.poll() is None:
                child.kill()
                child.wait()

    for seed, report in reports.items():
        worst = sorted(report["hits"].items(), key=lambda kv: -kv[1])[:10]
        assert not worst, (
            f"PYTHONHASHSEED={seed}: zone functions read ambient state "
            f"({sum(report['hits'].values())} calls); most frequent:\n"
            + "\n".join(f"  {count} x {hit}" for hit, count in worst))
    first, second = (reports[seed]["digests"] for seed in HASH_SEEDS)
    assert first.keys() == second.keys()
    differ = [name for name in first if first[name] != second[name]]
    assert not differ, (
        f"outputs differ between PYTHONHASHSEED {HASH_SEEDS[0]} and "
        f"{HASH_SEEDS[1]}: {', '.join(differ)}")


# ---------------------------------------------------------------------------
# the trap itself
# ---------------------------------------------------------------------------

_LEAF = """\
CALLED = []


def call(calls):
    for owner, name, args in calls:
        getattr(owner, name)(*args)
        CALLED.append(name)
"""

#: Zone functions; ``reach`` gets to the leaf through a function-local
#: import.
_ZONE = """\
def reach(calls):
    from trap_leaf import call
    call(calls)


def reach_import_time():
    import trap_import_time


def reach_exempt(exempt, calls):
    exempt.read(calls)
"""

_EXEMPT = """\
def read(calls):
    from trap_leaf import call
    call(calls)
"""

_IMPORT_TIME = """\
import trap_leaf
trap_leaf.call(trap_leaf.CALLS)
"""


def _module(name: str, source: str, **names):
    """A module named ``name`` (say, inside a zone), run from source."""
    module = type(sys)(name)
    module.__dict__.update(names)
    exec(compile(source, f"<{name}>", "exec"), module.__dict__)
    return module


@pytest.fixture()
def trapped(monkeypatch, tmp_path):
    """A trap over stubbed sources, and the calls that reach each one.

    Function sources are stubbed before they are wrapped, so a call
    draws nothing and needs no arguments. The environment is read for
    real.
    """
    import repro.lint.rules
    trap = AmbientTrap(repro.lint.rules)
    monkeypatch.setenv("TRAP_PROBE", "1")
    calls = []
    for owner, name, _ in trap.sources:
        if owner is type(os.environ):
            calls.append((owner, name, (os.environ, "TRAP_PROBE")
                          if name == "__getitem__" else (os.environ,)))
        else:
            monkeypatch.setattr(owner, name, lambda *args, **kwargs: None)
            calls.append((owner, name, ()))
    for name, source in (("trap_leaf", _LEAF),
                         ("trap_import_time", _IMPORT_TIME)):
        (tmp_path / f"{name}.py").write_text(source)
    monkeypatch.syspath_prepend(str(tmp_path))
    trap.install(monkeypatch.setattr)
    yield trap, calls
    for name in ("trap_leaf", "trap_import_time"):
        sys.modules.pop(name, None)


def test_trap_records_each_source_a_zone_function_reaches(trapped):
    trap, calls = trapped
    labels = {label for *_, label in trap.sources}
    for zone in trap.policy.zones:
        trap.hits.clear()
        _module(f"{zone}.trap_probe", _ZONE).reach(calls)
        assert sum(trap.hits.values()) == len(calls)
        assert {label for label, _ in trap.hits} == labels
        assert {caller for _, caller in trap.hits} == \
            {f"{zone}.trap_probe.reach"}


def test_trap_ignores_calls_at_import_time(trapped):
    trap, calls = trapped
    import trap_leaf
    trap_leaf.CALLS = calls
    zone = trap.policy.zones[0]
    # A zone module's own body, then the body of a module that a zone
    # function imports.
    _module(f"{zone}.trap_probe", "from trap_leaf import call\n"
            "call(CALLS)\n", CALLS=calls)
    _module(f"{zone}.trap_probe", _ZONE).reach_import_time()
    assert len(trap_leaf.CALLED) == 2 * len(calls)
    assert trap.hits == {}


def test_trap_ignores_the_exempt_module(trapped):
    trap, calls = trapped
    zone_probe = _module(f"{trap.policy.zones[0]}.trap_probe", _ZONE)
    for exempt in trap.policy.exempt:
        zone_probe.reach_exempt(_module(exempt, _EXEMPT), calls)
    import trap_leaf
    assert len(trap_leaf.CALLED) == len(trap.policy.exempt) * len(calls)
    assert trap.hits == {}


if __name__ == "__main__":
    print(json.dumps(witness_pass(Path(sys.argv[1]))))
