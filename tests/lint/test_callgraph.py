"""Call-graph resolver: imports, re-exports, methods, fallbacks.

These pin the resolution rules the interprocedural analyses stand on.
The unresolved-call cases matter as much as the resolved ones — the
resolver must *never* guess at dynamic dispatch (guessing would turn
the whole-program rules into false-positive machines) and must never
crash on it either, only count it for ``--stats``.
"""

import ast
import textwrap
from pathlib import Path

from repro.lint.callgraph import CallGraph


def _graph(tmp_path: Path, files: dict[str, str]) -> CallGraph:
    """Build a graph from ``{dotted_module: source}``."""
    modules = []
    for module, source in files.items():
        path = tmp_path / (module.replace(".", "/") + ".py")
        path.parent.mkdir(parents=True, exist_ok=True)
        text = textwrap.dedent(source)
        path.write_text(text)
        modules.append((module, path, ast.parse(text)))
    return CallGraph.build(modules)


def _sites(graph: CallGraph, qname: str) -> dict[str, str]:
    """raw call text -> resolved callee (or its kind when unresolved)."""
    return {site.raw: site.callee or site.kind
            for site in graph.functions[qname].calls}


# -- import and alias resolution ----------------------------------------


def test_plain_module_import_resolves(tmp_path):
    graph = _graph(tmp_path, {
        "pkg.util": "def helper():\n    return 1\n",
        "pkg.main": ("import pkg\n\n"
                     "def go():\n    return pkg.util.helper()\n"),
    })
    assert _sites(graph, "pkg.main.go") == \
        {"pkg.util.helper": "pkg.util.helper"}


def test_import_module_as_alias_resolves(tmp_path):
    graph = _graph(tmp_path, {
        "pkg.util": "def helper():\n    return 1\n",
        "pkg.main": ("import pkg.util as u\n\n"
                     "def go():\n    return u.helper()\n"),
    })
    assert _sites(graph, "pkg.main.go") == {"u.helper": "pkg.util.helper"}


def test_from_import_function_with_alias_resolves(tmp_path):
    graph = _graph(tmp_path, {
        "pkg.util": "def helper():\n    return 1\n",
        "pkg.main": ("from pkg.util import helper as h\n\n"
                     "def go():\n    return h()\n"),
    })
    assert _sites(graph, "pkg.main.go") == {"h": "pkg.util.helper"}


def test_from_import_module_with_alias_resolves(tmp_path):
    graph = _graph(tmp_path, {
        "pkg.util": "def helper():\n    return 1\n",
        "pkg.main": ("from pkg import util as mio\n\n"
                     "def go():\n    return mio.helper()\n"),
    })
    assert _sites(graph, "pkg.main.go") == {"mio.helper": "pkg.util.helper"}


def test_relative_import_resolves(tmp_path):
    graph = _graph(tmp_path, {
        "pkg.util": "def helper():\n    return 1\n",
        "pkg.main": ("from . import util\n\n"
                     "def go():\n    return util.helper()\n"),
    })
    assert _sites(graph, "pkg.main.go") == {"util.helper": "pkg.util.helper"}


def test_reexport_through_init_resolves(tmp_path):
    """``from pkg import helper`` where pkg/__init__ re-exports it."""
    graph = _graph(tmp_path, {
        "pkg.impl": "def helper():\n    return 1\n",
        "pkg": "from pkg.impl import helper\n",
        "consumer": ("from pkg import helper\n\n"
                     "def go():\n    return helper()\n"),
    })
    assert _sites(graph, "consumer.go") == {"helper": "pkg.impl.helper"}


def test_toplevel_assignment_alias_resolves(tmp_path):
    """A ``name = other`` re-export alias follows to the definition."""
    graph = _graph(tmp_path, {
        "pkg.impl": "def helper():\n    return 1\n",
        "pkg.api": ("from pkg.impl import helper\n"
                    "public_helper = helper\n"),
        "consumer": ("from pkg.api import public_helper\n\n"
                     "def go():\n    return public_helper()\n"),
    })
    assert _sites(graph, "consumer.go") == \
        {"public_helper": "pkg.impl.helper"}


def test_alias_cycle_does_not_loop(tmp_path):
    graph = _graph(tmp_path, {
        "pkg.a": "from pkg.b import thing\n\ndef go():\n    return thing()\n",
        "pkg.b": "from pkg.a import thing\n",
    })
    # Unresolvable, but bounded: never resolved to a project function,
    # never recursed forever (the import chain classifies as foreign).
    (site,) = graph.functions["pkg.a.go"].calls
    assert site.callee is None


# -- method resolution --------------------------------------------------


def test_method_on_annotated_parameter_resolves(tmp_path):
    graph = _graph(tmp_path, {
        "pkg.writer": ("class Writer:\n"
                       "    def flush(self):\n"
                       "        pass\n"),
        "pkg.main": ("from pkg.writer import Writer\n\n"
                     "def go(w: Writer):\n    w.flush()\n"),
    })
    assert _sites(graph, "pkg.main.go") == \
        {"w.flush": "pkg.writer.Writer.flush"}


def test_method_on_annotated_local_resolves(tmp_path):
    graph = _graph(tmp_path, {
        "pkg.writer": ("class Writer:\n"
                       "    def flush(self):\n"
                       "        pass\n"),
        "pkg.main": ("from pkg.writer import Writer\n\n"
                     "def go(factory):\n"
                     "    w: Writer = factory()\n"
                     "    w.flush()\n"),
    })
    sites = _sites(graph, "pkg.main.go")
    assert sites["w.flush"] == "pkg.writer.Writer.flush"


def test_method_via_constructor_assignment_resolves(tmp_path):
    graph = _graph(tmp_path, {
        "pkg.writer": ("class Writer:\n"
                       "    def __init__(self):\n"
                       "        pass\n"
                       "    def flush(self):\n"
                       "        pass\n"),
        "pkg.main": ("from pkg.writer import Writer\n\n"
                     "def go():\n"
                     "    w = Writer()\n"
                     "    w.flush()\n"),
    })
    sites = _sites(graph, "pkg.main.go")
    assert sites["Writer"] == "pkg.writer.Writer.__init__"
    assert sites["w.flush"] == "pkg.writer.Writer.flush"


def test_self_method_and_inherited_method_resolve(tmp_path):
    graph = _graph(tmp_path, {
        "pkg.base": ("class Base:\n"
                     "    def shared(self):\n"
                     "        pass\n"),
        "pkg.child": ("from pkg.base import Base\n\n"
                      "class Child(Base):\n"
                      "    def go(self):\n"
                      "        self.shared()\n"),
    })
    assert _sites(graph, "pkg.child.Child.go") == \
        {"self.shared": "pkg.base.Base.shared"}


def test_nested_function_call_resolves(tmp_path):
    graph = _graph(tmp_path, {
        "pkg.main": ("def outer():\n"
                     "    def inner():\n"
                     "        return 1\n"
                     "    return inner()\n"),
    })
    assert _sites(graph, "pkg.main.outer") == \
        {"inner": "pkg.main.outer.inner"}


# -- conservative fallbacks ---------------------------------------------


def test_dynamic_dispatch_is_unresolved_not_guessed(tmp_path):
    graph = _graph(tmp_path, {
        "pkg.main": ("def go(callback, items):\n"
                     "    callback()\n"
                     "    items[0].flush()\n"
                     "    (lambda: 1)()\n"),
    })
    sites = _sites(graph, "pkg.main.go")
    assert sites == {"callback": "unresolved", "?.flush": "unresolved",
                     "<dynamic>": "unresolved"}
    assert graph.functions["pkg.main.go"].unresolved_calls == 3


def test_foreign_and_builtin_calls_are_external(tmp_path):
    graph = _graph(tmp_path, {
        "pkg.main": ("import json\n\n"
                     "def go(data):\n"
                     "    print(json.dumps(data))\n"),
    })
    assert _sites(graph, "pkg.main.go") == \
        {"print": "external", "json.dumps": "external"}


def test_unresolved_calls_are_countable_via_stats(tmp_path):
    graph = _graph(tmp_path, {
        "pkg.util": "def helper():\n    return 1\n",
        "pkg.main": ("from pkg.util import helper\n"
                     "import json\n\n"
                     "def go(callback):\n"
                     "    helper()\n"
                     "    json.dumps({})\n"
                     "    callback()\n"),
    })
    stats = graph.stats()
    assert (stats.resolved_calls, stats.external_calls,
            stats.unresolved_calls) == (1, 1, 1)
    assert stats.call_sites == 3
    assert "1 unresolved" in stats.format()


def test_duplicate_module_names_keep_first(tmp_path):
    first = tmp_path / "a.py"
    first.write_text("def f():\n    return 1\n")
    second = tmp_path / "b.py"
    second.write_text("def g():\n    return 2\n")
    tree_a = ast.parse(first.read_text())
    tree_b = ast.parse(second.read_text())
    graph = CallGraph.build([("dup", first, tree_a),
                             ("dup", second, tree_b)])
    assert graph.modules["dup"].path == first
    assert "dup.f" in graph.functions and "dup.g" not in graph.functions


# -- import closure and deferred call collection ------------------------
