"""DET03/DET04 — transitive determinism analysis over the call graph.

Fixtures follow the shape the rules exist for: the ambient source (or
the set-returning producer) sits two call hops below the zone entry
point, out of reach of the one-module-deep DET01/DET02.
"""

import ast
import textwrap
from pathlib import Path

from repro.lint.callgraph import CallGraph
from repro.lint.taint import EscapedOrderRule, TransitiveAmbientRule


def _graph(tmp_path: Path, files: dict[str, str]) -> CallGraph:
    modules = []
    for module, source in files.items():
        path = tmp_path / (module.replace(".", "/") + ".py")
        path.parent.mkdir(parents=True, exist_ok=True)
        text = textwrap.dedent(source)
        path.write_text(text)
        modules.append((module, path, ast.parse(text)))
    return CallGraph.build(modules)


def _det03(graph):
    return list(TransitiveAmbientRule().check_project(graph))


def _det04(graph):
    return list(EscapedOrderRule().check_project(graph))


# -- DET03 ---------------------------------------------------------------


_TWO_HOP_CLOCK = {
    "repro.util.clock": """\
        import time

        def read_clock():
            return time.time()
    """,
    "repro.util.mid": """\
        from repro.util.clock import read_clock

        def stamp():
            return read_clock()
    """,
    "repro.simnet.engine": """\
        from repro.util.mid import stamp

        def step():
            return stamp()
    """,
}


def test_det03_reports_two_hop_chain_with_source_location(tmp_path):
    findings = _det03(_graph(tmp_path, _TWO_HOP_CLOCK))
    assert len(findings) == 1
    module, finding = findings[0]
    assert module == "repro.simnet.engine"
    assert finding.line == 4  # the stamp() call inside step()
    assert "'step' transitively reaches time.time()" in finding.message
    assert "via step -> stamp -> read_clock" in finding.message
    assert "(repro.util.clock:4)" in finding.message


def test_det03_ignores_chains_outside_the_zone(tmp_path):
    files = dict(_TWO_HOP_CLOCK)
    files["repro.measure.driver"] = files.pop("repro.simnet.engine")
    findings = _det03(_graph(tmp_path, files))
    assert findings == []  # repro.measure may read the wall clock


def test_det03_exempt_module_does_not_seed(tmp_path):
    files = dict(_TWO_HOP_CLOCK)
    source = files.pop("repro.util.clock")
    files["repro.simnet.perfcounters"] = source
    files["repro.util.mid"] = files["repro.util.mid"].replace(
        "repro.util.clock", "repro.simnet.perfcounters")
    findings = _det03(_graph(tmp_path, files))
    assert findings == []  # sanctioned host-time reads don't poison


def test_det03_reports_only_the_frontier(tmp_path):
    """A zone caller of a reported zone function is not re-reported."""
    files = dict(_TWO_HOP_CLOCK)
    files["repro.simnet.outer"] = """\
        from repro.simnet.engine import step

        def advance():
            return step()
    """
    findings = _det03(_graph(tmp_path, files))
    assert [module for module, _ in findings] == ["repro.simnet.engine"]


def test_det03_seeds_from_import_alias_and_environ(tmp_path):
    graph = _graph(tmp_path, {
        "repro.util.env": """\
            from time import time as now
            import os

            def tick():
                return now()

            def setting(key):
                return os.environ[key]
        """,
        "repro.simnet.user": """\
            from repro.util.env import setting, tick

            def step():
                return tick() + len(setting("HOME"))
        """,
    })
    findings = _det03(graph)
    assert len(findings) == 1  # one frontier finding per function
    _, finding = findings[0]
    assert "time.time()" in finding.message


def test_det03_clean_when_randomness_is_injected(tmp_path):
    graph = _graph(tmp_path, {
        "repro.simnet.seeded": """\
            def jitter(rng):
                return rng.random()

            def step(rng):
                return jitter(rng)
        """,
    })
    assert _det03(_graph(tmp_path, {})) == []
    assert _det03(graph) == []  # rng is a parameter, not ambient


# -- DET04 ---------------------------------------------------------------


_TWO_HOP_SET = {
    "repro.util.collect": """\
        def gather(items):
            return set(items)
    """,
    "repro.util.fwd": """\
        from repro.util.collect import gather

        def pass_through(items):
            return gather(items)
    """,
}


def test_det04_set_return_reaching_join_two_hops_away(tmp_path):
    files = dict(_TWO_HOP_SET)
    files["repro.measure.report"] = """\
        from repro.util.fwd import pass_through

        def render(items):
            return ",".join(pass_through(items))
    """
    findings = _det04(_graph(tmp_path, files))
    assert len(findings) == 1
    module, finding = findings[0]
    assert module == "repro.measure.report"
    assert "a set returned by 'gather'" in finding.message
    assert "reaches join() in hash order" in finding.message
    assert "via render -> pass_through -> gather" in finding.message
    assert "(repro.util.collect:2" in finding.message


def test_det04_materialized_list_of_set_is_hash_ordered(tmp_path):
    files = dict(_TWO_HOP_SET)
    files["repro.util.fwd"] = """\
        from repro.util.collect import gather

        def pass_through(items):
            return list(gather(items))
    """
    files["repro.measure.report"] = """\
        from repro.util.fwd import pass_through

        def render(items, out):
            for item in pass_through(items):
                out.append(item)
    """
    findings = _det04(_graph(tmp_path, files))
    assert len(findings) == 1
    _, finding = findings[0]
    assert "a hash-ordered sequence returned by" in finding.message
    assert "drives an order-sensitive loop" in finding.message


def test_det04_sorted_consumption_is_clean(tmp_path):
    files = dict(_TWO_HOP_SET)
    files["repro.measure.report"] = """\
        from repro.util.fwd import pass_through

        def render(items):
            return ",".join(sorted(pass_through(items)))
    """
    assert _det04(_graph(tmp_path, files)) == []


def test_det04_forwarding_return_is_not_consumption(tmp_path):
    files = dict(_TWO_HOP_SET)
    files["repro.measure.report"] = """\
        from repro.util.fwd import pass_through

        def relay(items):
            return pass_through(items)
    """
    assert _det04(_graph(tmp_path, files)) == []


def test_det04_tracks_variable_bindings(tmp_path):
    files = dict(_TWO_HOP_SET)
    files["repro.measure.report"] = """\
        from repro.util.fwd import pass_through

        def render(items, out):
            pending = pass_through(items)
            for item in pending:
                out.write(item)
    """
    findings = _det04(_graph(tmp_path, files))
    assert len(findings) == 1
    _, finding = findings[0]
    assert finding.line == 5  # the loop, where the order is consumed


def test_det04_order_free_aggregation_is_clean(tmp_path):
    files = dict(_TWO_HOP_SET)
    files["repro.measure.report"] = """\
        from repro.util.fwd import pass_through

        def count(items):
            return len(pass_through(items))
    """
    assert _det04(_graph(tmp_path, files)) == []
