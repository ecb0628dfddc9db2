"""Transitive determinism analysis over the call graph (DET03/DET04).

DET01/DET02 are one-module-deep: they catch ``time.time()`` *written
in* a simnet file and a set iterated *in* a measure file. These rules
close the interprocedural gap:

* **DET03** — a function in a determinism zone transitively reaches an
  ambient-nondeterminism source (wall clock, module-level ``random``,
  ``os.urandom``, environment reads) through any chain of project
  calls. Taint seeds at the source call, propagates callee→caller
  along the call graph, and the diagnostic prints the full call chain
  plus the source's location. Sources inside a zone's *exempt* modules
  (e.g. ``repro.simnet.perfcounters``, which measures host time by
  design) do not seed, so sanctioned ambient reads do not poison their
  callers.
* **DET04** — unordered iteration order escapes a function's *return
  value* into an ordering-sensitive zone: a helper (anywhere) returns
  a set, or a list/tuple materialized from one, possibly forwarded
  through further returns; a zone function consumes that value in an
  order-sensitive way (iterates it with an order-sensitive body, feeds
  it to ``list``/``sum``/``join``/..., unpacks it). DET02 cannot see
  this — the consumer's module never mentions a set.

Both rules anchor their diagnostic in the *zone* function (the code
that must uphold the invariant), at the call or consumption site, so
an inline ``# replint: allow[...]`` lands where a reviewer will read
it. To keep one root cause from fanning into one finding per caller,
DET03 reports only the frontier: a zone function whose tainted callee
is *not* itself a reported zone function.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterator, Optional

from repro.lint.callgraph import CallGraph, FunctionInfo, _walk_function_body
from repro.lint.policy import RulePolicy, _in_prefixes
from repro.lint.rules import (
    Finding,
    ProjectRule,
    _dotted,
    _loop_body_order_sensitive,
    _ORDER_FREE_CALLS,
    _ORDER_SENSITIVE_CALLS,
    _RANDOM_FNS,
    _SetInference,
    _WALL_CLOCK_DT,
    _WALL_CLOCK_TIME,
)

# ---------------------------------------------------------------------------
# ambient-source detection
# ---------------------------------------------------------------------------

#: os-level entropy / environment reads (beyond DET01's clock+random).
_OS_ENTROPY = frozenset({"urandom", "getrandom"})
_UUID_AMBIENT = frozenset({"uuid1", "uuid4"})


@dataclass(frozen=True)
class SourceHit:
    """One ambient call inside a function body."""

    line: int
    desc: str            # e.g. "time.time()", "os.environ read"


def _module_ambient_aliases(tree: ast.Module) -> dict[str, str]:
    """from-imported ambient names -> canonical dotted description."""
    ambient: dict[str, str] = {}
    pools = (("time", _WALL_CLOCK_TIME), ("random", _RANDOM_FNS),
             ("os", _OS_ENTROPY), ("uuid", _UUID_AMBIENT))
    for node in ast.walk(tree):
        if not (isinstance(node, ast.ImportFrom) and node.level == 0):
            continue
        for origin, pool in pools:
            if node.module != origin:
                continue
            for alias in node.names:
                if alias.name in pool:
                    bound = alias.asname or alias.name
                    ambient[bound] = f"{origin}.{alias.name}"
        if node.module == "os":
            for alias in node.names:
                if alias.name == "getenv":
                    ambient[alias.asname or "getenv"] = "os.getenv"
                elif alias.name == "environ":
                    # ``from os import environ`` — reads via the bound
                    # name are caught by the subscript scan below.
                    ambient[f"@env:{alias.asname or 'environ'}"] = \
                        "os.environ"
    return ambient


def ambient_sources(fn: FunctionInfo,
                    aliases: dict[str, str]) -> list[SourceHit]:
    """Every ambient-nondeterminism read in one function body."""
    env_names = {name[5:] for name in aliases if name.startswith("@env:")}
    hits: list[SourceHit] = []
    for node in _walk_function_body(fn.node):
        if isinstance(node, ast.Subscript) and \
                isinstance(node.ctx, ast.Load):
            owner = _dotted(node.value)
            if owner in ("os.environ", *env_names):
                hits.append(SourceHit(node.lineno, "os.environ read"))
            continue
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name):
            if func.id in aliases and not func.id.startswith("@env:"):
                hits.append(SourceHit(node.lineno,
                                      f"{aliases[func.id]}()"))
            continue
        if not isinstance(func, ast.Attribute):
            continue
        owner = _dotted(func.value)
        if owner is None:
            continue
        root = owner.split(".")[-1]
        attr = func.attr
        if root == "time" and attr in _WALL_CLOCK_TIME:
            hits.append(SourceHit(node.lineno, f"time.{attr}()"))
        elif root in ("datetime", "date") and attr in _WALL_CLOCK_DT:
            hits.append(SourceHit(node.lineno, f"{owner}.{attr}()"))
        elif root == "random" and attr in _RANDOM_FNS:
            hits.append(SourceHit(node.lineno, f"random.{attr}()"))
        elif root == "os" and attr in _OS_ENTROPY:
            hits.append(SourceHit(node.lineno, f"os.{attr}()"))
        elif root == "os" and attr == "getenv":
            hits.append(SourceHit(node.lineno, "os.getenv()"))
        elif owner in ("os.environ", *env_names) and \
                attr in ("get", "items", "keys", "values", "copy"):
            hits.append(SourceHit(node.lineno, "os.environ read"))
        elif root == "secrets":
            hits.append(SourceHit(node.lineno, f"secrets.{attr}()"))
        elif root == "uuid" and attr in _UUID_AMBIENT:
            hits.append(SourceHit(node.lineno, f"uuid.{attr}()"))
    return hits


def _short(qname: str, module: str) -> str:
    """Function name without its module prefix, for chain rendering."""
    if qname.startswith(module + "."):
        return qname[len(module) + 1:]
    return qname.rsplit(".", 1)[-1]


# ---------------------------------------------------------------------------
# DET03 — transitive ambient taint
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Taint:
    depth: int
    #: Call site inside this function that reaches the taint.
    line: int
    col: int
    callee: Optional[str]        # next hop (None at the source itself)
    source_qname: str
    source_desc: str
    source_line: int


class TransitiveAmbientRule(ProjectRule):
    rule_id = "DET03"
    summary = ("zone function transitively reaches an ambient "
               "wall-clock/random/entropy/env source")
    policy = RulePolicy(
        zones=("repro.simnet", "repro.tor", "repro.analysis"),
        exempt=("repro.simnet.perfcounters",))

    def check_project(self, graph: CallGraph) -> Iterator[tuple[str, Finding]]:
        taints = self._propagate(graph)
        candidates = {
            qname: taint for qname, taint in taints.items()
            if taint.depth >= 1
            and self.policy.applies_to(graph.functions[qname].module)}
        for qname in sorted(candidates):
            taint = candidates[qname]
            # Frontier only: if the next hop is itself a reported zone
            # function, the finding there covers this chain's tail.
            if taint.callee in candidates:
                continue
            fn = graph.functions[qname]
            chain = self._chain(taints, qname)
            source_fn = graph.functions[chain[-1]]
            rendered = " -> ".join(
                _short(link, graph.functions[link].module)
                for link in chain)
            message = (
                f"'{_short(qname, fn.module)}' transitively reaches "
                f"{taint.source_desc} via {rendered} "
                f"({source_fn.module}:{taint.source_line}) — inject "
                "simulated time / a seeded random.Random instead of "
                "ambient state")
            yield fn.module, Finding(taint.line, taint.line, taint.col,
                                     message)

    # -- analysis -------------------------------------------------------

    def _propagate(self, graph: CallGraph) -> dict[str, _Taint]:
        aliases = {name: _module_ambient_aliases(info.tree)
                   for name, info in graph.modules.items()}
        taints: dict[str, _Taint] = {}
        for qname in sorted(graph.functions):
            fn = graph.functions[qname]
            if _in_prefixes(fn.module, self.policy.exempt):
                continue  # sanctioned ambient reads do not seed
            hits = ambient_sources(fn, aliases[fn.module])
            if hits:
                first = min(hits, key=lambda h: h.line)
                taints[qname] = _Taint(
                    depth=0, line=first.line, col=0, callee=None,
                    source_qname=qname, source_desc=first.desc,
                    source_line=first.line)
        reverse: dict[str, list[tuple[str, int, int]]] = {}
        for qname in sorted(graph.functions):
            for site in graph.functions[qname].calls:
                if site.callee is not None:
                    reverse.setdefault(site.callee, []).append(
                        (qname, site.line, site.col))
        frontier = sorted(taints)
        while frontier:
            next_frontier: dict[str, _Taint] = {}
            for callee_qname in frontier:
                callee_taint = taints[callee_qname]
                for caller, line, col in reverse.get(callee_qname, ()):
                    if caller in taints:
                        continue
                    candidate = _Taint(
                        depth=callee_taint.depth + 1, line=line, col=col,
                        callee=callee_qname,
                        source_qname=callee_taint.source_qname,
                        source_desc=callee_taint.source_desc,
                        source_line=callee_taint.source_line)
                    held = next_frontier.get(caller)
                    if held is None or (candidate.line, candidate.col,
                                        candidate.callee or "") < \
                            (held.line, held.col, held.callee or ""):
                        next_frontier[caller] = candidate
            taints.update(next_frontier)
            frontier = sorted(next_frontier)
        return taints

    @staticmethod
    def _chain(taints: dict[str, _Taint], qname: str) -> list[str]:
        chain = [qname]
        current = taints[qname]
        while current.callee is not None:
            chain.append(current.callee)
            current = taints[current.callee]
        return chain


# ---------------------------------------------------------------------------
# DET04 — unordered iteration escaping through return values
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _UnorderedReturn:
    #: "set" (the value *is* a set) or "seq" (a list/tuple frozen in
    #: hash order).
    kind: str
    #: Function whose return statement materializes the hash order.
    origin_qname: str
    origin_line: int
    desc: str
    #: Return-forwarding chain from this function down to the origin.
    chain: tuple[str, ...]


class EscapedOrderRule(ProjectRule):
    rule_id = "DET04"
    summary = ("unordered iteration order escapes a return value into "
               "an ordering-sensitive zone")
    policy = RulePolicy(
        zones=("repro.simnet", "repro.tor", "repro.analysis",
               "repro.measure"))

    _FIX = (" — sort in the producer (sorted(...) with a deterministic "
            "key) or before consuming")

    def check_project(self, graph: CallGraph) -> Iterator[tuple[str, Finding]]:
        returns = self._return_summaries(graph)
        findings: list[tuple[str, Finding]] = []
        for qname in sorted(graph.functions):
            fn = graph.functions[qname]
            if not self.policy.applies_to(fn.module):
                continue
            findings.extend(
                (fn.module, finding)
                for finding in self._check_consumers(graph, fn, returns))
        yield from findings

    # -- producer side: which functions return hash-ordered values -------

    def _return_summaries(self, graph: CallGraph,
                          ) -> dict[str, _UnorderedReturn]:
        inference = {name: _SetInference(info.tree)
                     for name, info in graph.modules.items()}
        summaries: dict[str, _UnorderedReturn] = {}
        for qname in sorted(graph.functions):
            fn = graph.functions[qname]
            direct = self._direct_summary(fn, inference[fn.module])
            if direct is not None:
                summaries[qname] = direct
        # Fixpoint over ``return g(...)`` forwarding (and ``return
        # list(g(...))`` materialization of a set-returning g).
        changed = True
        while changed:
            changed = False
            for qname in sorted(graph.functions):
                if qname in summaries:
                    continue
                fn = graph.functions[qname]
                forwarded = self._forwarded_summary(graph, fn, summaries)
                if forwarded is not None:
                    summaries[qname] = forwarded
                    changed = True
        return summaries

    def _direct_summary(self, fn: FunctionInfo,
                        inference: _SetInference,
                        ) -> Optional[_UnorderedReturn]:
        for node in _walk_function_body(fn.node):
            if not isinstance(node, ast.Return) or node.value is None:
                continue
            value = node.value
            if inference.is_setlike(value, fn.node):
                return _UnorderedReturn(
                    kind="set", origin_qname=fn.qname,
                    origin_line=node.lineno, desc="a set",
                    chain=(fn.qname,))
            materialized = self._materializes_set(value, fn, inference)
            if materialized is not None:
                return _UnorderedReturn(
                    kind="seq", origin_qname=fn.qname,
                    origin_line=node.lineno, desc=materialized,
                    chain=(fn.qname,))
        return None

    @staticmethod
    def _materializes_set(value: ast.expr, fn: FunctionInfo,
                          inference: _SetInference) -> Optional[str]:
        """A list/tuple frozen in set hash order, described, or None."""
        if isinstance(value, ast.Call) and \
                isinstance(value.func, ast.Name) and \
                value.func.id in ("list", "tuple", "iter") and \
                value.args and \
                inference.is_setlike(value.args[0], fn.node):
            return f"{value.func.id}(<set>)"
        if isinstance(value, (ast.ListComp, ast.GeneratorExp)) and \
                inference.is_setlike(value.generators[0].iter, fn.node):
            return "a comprehension over a set"
        return None

    def _forwarded_summary(self, graph: CallGraph, fn: FunctionInfo,
                           summaries: dict[str, _UnorderedReturn],
                           ) -> Optional[_UnorderedReturn]:
        callee_of = {id(site.node): site.callee for site in fn.calls
                     if site.callee is not None}
        for node in _walk_function_body(fn.node):
            if not isinstance(node, ast.Return) or node.value is None:
                continue
            value = node.value
            target: Optional[str] = None
            kind_override: Optional[str] = None
            if isinstance(value, ast.Call):
                target = callee_of.get(id(value))
                if target is None and isinstance(value.func, ast.Name) \
                        and value.func.id in ("list", "tuple") \
                        and value.args and \
                        isinstance(value.args[0], ast.Call):
                    inner = callee_of.get(id(value.args[0]))
                    if inner is not None and inner in summaries and \
                            summaries[inner].kind == "set":
                        target = inner
                        kind_override = "seq"
            if target is None or target not in summaries:
                continue
            base = summaries[target]
            return _UnorderedReturn(
                kind=kind_override or base.kind,
                origin_qname=base.origin_qname,
                origin_line=base.origin_line, desc=base.desc,
                chain=(fn.qname,) + base.chain)
        return None

    # -- consumer side: zone functions using those values -----------------

    def _check_consumers(self, graph: CallGraph, fn: FunctionInfo,
                         returns: dict[str, _UnorderedReturn],
                         ) -> Iterator[Finding]:
        unordered_calls: dict[int, _UnorderedReturn] = {}
        for site in fn.calls:
            if site.callee is not None and site.callee in returns:
                info = returns[site.callee]
                unordered_calls[id(site.node)] = _UnorderedReturn(
                    kind=info.kind, origin_qname=info.origin_qname,
                    origin_line=info.origin_line, desc=info.desc,
                    chain=(fn.qname,) + info.chain)
        if not unordered_calls:
            return
        unordered_vars: dict[str, _UnorderedReturn] = {}
        absolved: set[int] = set()

        def tracked(node: ast.expr) -> Optional[_UnorderedReturn]:
            if isinstance(node, ast.Call):
                return unordered_calls.get(id(node))
            if isinstance(node, ast.Name):
                return unordered_vars.get(node.id)
            return None

        def emit(node: ast.AST, info: _UnorderedReturn,
                 how: str) -> Finding:
            origin_fn = graph.functions[info.origin_qname]
            rendered = " -> ".join(
                _short(link, graph.functions[link].module)
                for link in info.chain)
            value = ("a set" if info.kind == "set"
                     else "a hash-ordered sequence")
            return Finding(
                node.lineno,
                getattr(node, "end_lineno", None) or node.lineno,
                node.col_offset,
                f"{value} returned by "
                f"'{_short(info.origin_qname, origin_fn.module)}' "
                f"({origin_fn.module}:{info.origin_line}, {info.desc}) "
                f"{how} via {rendered}" + self._FIX)

        # Forward pass in source order: record variable bindings before
        # their uses, judge consumers as they appear.
        for node in _walk_function_body(fn.node):
            if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                    and isinstance(node.targets[0], ast.Name):
                info = tracked(node.value)
                if info is not None:
                    unordered_vars[node.targets[0].id] = info
                    absolved.add(id(node.value))
                elif node.targets[0].id in unordered_vars:
                    del unordered_vars[node.targets[0].id]
            elif isinstance(node, ast.Return) and node.value is not None:
                info = tracked(node.value)
                if info is not None:
                    absolved.add(id(node.value))  # forwarded, not consumed
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                info = tracked(node.iter)
                if info is not None:
                    absolved.add(id(node.iter))
                    target = (node.target.id
                              if isinstance(node.target, ast.Name)
                              else None)
                    if _loop_body_order_sensitive(node.body, target):
                        yield emit(node.iter, info,
                                   "drives an order-sensitive loop")
            elif isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else (
                    func.id if isinstance(func, ast.Name) else None)
                for arg in node.args:
                    inner = arg
                    if isinstance(arg, (ast.GeneratorExp, ast.ListComp)):
                        inner = arg.generators[0].iter
                    info = tracked(inner)
                    if info is None:
                        continue
                    absolved.add(id(inner))
                    if name is not None and name in _ORDER_FREE_CALLS:
                        continue
                    if name is not None and name in _ORDER_SENSITIVE_CALLS:
                        yield emit(arg, info,
                                   f"reaches {name}() in hash order")
            elif isinstance(node, (ast.ListComp, ast.GeneratorExp)):
                info = tracked(node.generators[0].iter)
                if info is not None and \
                        id(node.generators[0].iter) not in absolved:
                    absolved.add(id(node.generators[0].iter))
                    yield emit(node, info,
                               "is materialized by a comprehension")
            elif isinstance(node, ast.YieldFrom):
                info = tracked(node.value)
                if info is not None:
                    absolved.add(id(node.value))
                    yield emit(node, info, "is yielded in hash order")
            elif isinstance(node, ast.Starred):
                info = tracked(node.value)
                if info is not None:
                    absolved.add(id(node.value))
                    yield emit(node, info, "is unpacked in hash order")
