"""EXC01 — the teardown protocol: no swallowed interrupts.

A handler in a supervisor/teardown zone that catches
``BaseException``/``KeyboardInterrupt`` must re-raise or hard-exit, or
Ctrl-C stops tearing a campaign down deterministically. The
file-handle half of the protocol (fsync before rename, no leaked
handles or processes) is checked at run time in
``tests/measure/test_io.py`` and ``tests/measure/test_supervise.py``.
"""

import textwrap
from pathlib import Path

from repro.lint import Policy, lint_source
from repro.lint.rules import SwallowedInterruptRule


def _exc01(source: str, module: str = "repro.measure.supervise"):
    path = Path("/x/src") / Path(*module.split(".")).with_suffix(".py")
    diagnostics = lint_source(textwrap.dedent(source), path, Policy(),
                              rules=[SwallowedInterruptRule()])
    return [d for d in diagnostics if d.rule == "EXC01"]


def test_exc01_swallowed_base_exception_in_zone():
    findings = _exc01("""\
        def drain(queue):
            try:
                queue.flush()
            except BaseException:
                pass
    """)
    assert len(findings) == 1
    assert "BaseException swallows KeyboardInterrupt" in findings[0].message
    assert findings[0].line == 4


def test_exc01_bare_except_in_zone():
    findings = _exc01("""\
        def drain(queue):
            try:
                queue.flush()
            except:
                return None
    """)
    assert len(findings) == 1
    assert "bare except" in findings[0].message


def test_exc01_reraise_is_clean():
    assert _exc01("""\
        def drain(queue, workers):
            try:
                queue.flush()
            except KeyboardInterrupt:
                for worker in workers:
                    worker.kill()
                raise
    """) == []


def test_exc01_hard_exit_in_worker_is_clean():
    assert _exc01("""\
        import os

        def child(task):
            try:
                task()
            except BaseException:
                os._exit(1)
    """) == []


def test_exc01_specific_exceptions_are_fine():
    assert _exc01("""\
        def drain(queue):
            try:
                queue.flush()
            except (OSError, ValueError):
                return None
    """) == []


def test_exc01_outside_supervisor_zones_is_ignored():
    assert _exc01("""\
        def drain(queue):
            try:
                queue.flush()
            except BaseException:
                pass
    """, module="repro.analysis.plots") == []
