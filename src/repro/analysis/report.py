"""EXPERIMENTS.md generation: paper-vs-measured for every artefact.

Running :func:`generate_experiments_md` executes every registered
experiment and renders a Markdown report with, per table/figure: the
paper's reference values, our measured values, the ratio, and the
regenerated rows. ``python -m repro run`` prints the same content to
the terminal; this module persists it.
"""

from __future__ import annotations

from pathlib import Path

from repro.core.config import Scale
from repro.core.experiments import EXPERIMENTS, run_experiment

_HEADER = """\
# EXPERIMENTS — paper vs measured

Generated by `repro.analysis.report.generate_experiments_md` (seed={seed},
scale: {n_sites} sites x {reps} accesses, {attempts} file attempts,
{iters} fixed-circuit iterations). The statistical reductions are
exactly rounded, so the tables do not depend on summation order (see
`docs/analysis-backend.md`).

The substrate is a deterministic flow-level simulator, not the authors'
testbed, so absolute numbers are not expected to match; the *shape* is:
orderings, significant-difference signs, reliability splits, and
rough factors. `ratio` is measured/paper where both sides are
magnitudes; boolean shape checks are 1.0 = holds.

Every experiment below can be regenerated with
`python -m repro run <id>`. Its claims about the paper are the `<id>.*`
rows of `tests/calibration/test_paper_claims.py`, checked at seeds 1-10.
"""


def render_markdown(seed: int = 2023, scale: Scale | None = None) -> str:
    """Run every experiment and render the full Markdown report."""
    scale = scale or Scale(n_sites=40, site_repetitions=2, file_attempts=8,
                           fixed_circuit_iterations=30)
    parts = [_HEADER.format(seed=seed, n_sites=scale.n_sites,
                            reps=scale.site_repetitions,
                            attempts=scale.file_attempts,
                            iters=scale.fixed_circuit_iterations)]
    for eid, definition in EXPERIMENTS.items():
        result = run_experiment(eid, seed=seed, scale=scale)
        parts.append(f"\n## {definition.paper_ref} — {definition.title}\n")
        parts.append(f"Experiment id: `{eid}` · claims: "
                     f"`{eid}.*` in `tests/calibration/test_paper_claims.py`\n")
        parts.append("\n### Paper vs measured\n")
        parts.append("```\n" + result.comparison() + "\n```\n")
        parts.append("\n### Regenerated output\n")
        parts.append("```\n" + result.text + "\n```\n")
    return "".join(parts)


def generate_experiments_md(path: str | Path = "EXPERIMENTS.md", *,
                            seed: int = 2023,
                            scale: Scale | None = None) -> Path:
    """Write the report to ``path`` and return it."""
    path = Path(path)
    path.write_text(render_markdown(seed=seed, scale=scale))
    return path
