"""Golden outputs: every experiment's records, metrics and text, pinned.

For each registered experiment at ``Scale.tiny()`` and seed 1, the
sha256 over its canonical output must match ``digests.json``:

* one ``record_to_row`` JSON line per record of ``result.results``
  (when the experiment keeps its records);
* the ``metrics`` dict as canonical JSON;
* the rendered ``text``.

A refactor that is meant to leave behaviour unchanged must leave every
digest unchanged. There is deliberately no regeneration switch: an
intended behaviour change edits ``digests.json`` by hand, using the new
digest the failure message prints.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.core.config import Scale
from repro.core.experiments import EXPERIMENTS, run_experiment
from repro.measure.records import record_to_row

SEED = 1
DIGESTS = json.loads((Path(__file__).parent / "digests.json").read_text())


def _line(value: object) -> bytes:
    return (json.dumps(value, sort_keys=True) + "\n").encode()


def output_digest(experiment_id: str) -> str:
    result = run_experiment(experiment_id, seed=SEED, scale=Scale.tiny())
    h = hashlib.sha256()
    if result.results is not None:
        for record in result.results:
            h.update(_line(record_to_row(record)))
    h.update(_line(result.metrics))
    h.update(result.text.encode())
    return h.hexdigest()


def test_every_experiment_is_pinned():
    assert sorted(DIGESTS) == sorted(EXPERIMENTS)


@pytest.mark.parametrize("experiment_id", sorted(EXPERIMENTS))
def test_output_digest_unchanged(experiment_id):
    digest = output_digest(experiment_id)
    assert digest == DIGESTS[experiment_id], (
        f"{experiment_id}: output changed at Scale.tiny(), seed {SEED}; "
        f"new digest {digest}")
