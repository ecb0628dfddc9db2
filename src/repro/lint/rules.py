"""The per-file replint rules.

Each rule is a pure function of one parsed module; each guards an
invariant the reproduction's guarantees rest on (the rationale, with
links to the docs that state each invariant, is in
``docs/static-analysis.md``). A rule's zones are a constant on the
rule itself:

* **DET01** — no ambient wall-clock or module-level ``random`` calls
  inside the deterministic core. All randomness flows through an
  injected seeded ``random.Random``; all time is simulated.
* **DET02** — no iteration over ``set``/``frozenset`` values feeding
  ordering-sensitive output. Set iteration order depends on element
  hashes (object ids for plain classes), which vary run to run.
* **NUM01** — no bare ``sum()``/float-accumulator loops in reduction
  paths; exactly-rounded accumulation (``backend.fsum``,
  ``ExactSum``, ``statistics.fmean``) is order-free and bit-stable.
* **IO01** — no raw writable ``open()`` of artifacts in the measure
  layer outside the atomic tmp+fsync+``os.replace`` helpers.
* **MP01** — no module-level mutable state mutated from function
  scope in code that supervised worker processes execute; a forked
  worker inherits a silently diverging copy.
* **EXC01** — no handler in supervisor/teardown zones that catches
  ``BaseException``/``KeyboardInterrupt`` without re-raising or
  hard-exiting; Ctrl-C must tear a campaign down deterministically.
* **UNIT03** — no bare conversion literal (``* 1000``, ``/ 8``,
  ``* 125_000``) applied to a name whose suffix declares a unit
  (``_s``, ``_ms``, ``_bytes``, ``_bits``, ``_bps``); conversions go
  through the named :mod:`repro.units` helpers.

Rules are syntactic and deliberately conservative: they flag the
*pattern*, and a human either fixes the code or writes an inline
``# replint: allow[RULE] -- justification`` (see
:mod:`repro.lint.suppress`). Known order-free constructs —
``sorted(...)``, membership tests, ``len``/``min``/``max``/``any``/
``all``, ``fsum``/``fmean``, per-key writes ``d[k] = f(k)`` keyed by
the loop variable, and ``sum(1 for ...)`` integer counting — are
recognized and never flagged.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterator, Optional

from repro.lint.policy import RulePolicy


@dataclass(frozen=True)
class Finding:
    """One rule hit inside a module, before suppression filtering."""

    line: int
    end_line: int
    col: int
    message: str


@dataclass(frozen=True)
class ModuleContext:
    """Everything a rule sees: one parsed module."""

    module: str
    tree: ast.Module
    lines: tuple[str, ...]


def _span(node: ast.stmt | ast.expr) -> tuple[int, int, int]:
    end = getattr(node, "end_lineno", None) or node.lineno
    return node.lineno, end, node.col_offset


def _dotted(node: ast.expr) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


class Rule:
    """Base: id, one-line summary, zones, and a checker."""

    rule_id: str = ""
    summary: str = ""
    policy: RulePolicy = RulePolicy(zones=())

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        raise NotImplementedError


class ProjectRule:
    """Base for whole-program rules that see the call graph.

    ``check_project`` yields ``(module_name, finding)`` pairs — the
    engine maps the module back to its file for display and applies
    that file's inline suppressions, exactly as for per-file rules.
    Interprocedural rules consult their zones *during* analysis (an
    exempt module must not seed taint), so filtering findings by zone
    is the rule's job, not the engine's.
    """

    rule_id: str = ""
    summary: str = ""
    policy: RulePolicy = RulePolicy(zones=())

    def check_project(self, graph) -> Iterator[tuple[str, Finding]]:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# DET01 — ambient wall clock / module-level randomness
# ---------------------------------------------------------------------------

_WALL_CLOCK_TIME = frozenset({
    "time", "time_ns", "perf_counter", "perf_counter_ns", "monotonic",
    "monotonic_ns", "process_time", "process_time_ns", "localtime",
    "gmtime", "ctime",
})
_WALL_CLOCK_DT = frozenset({"now", "utcnow", "today"})
#: Module-level sampling functions of the ``random`` module (the
#: shared, implicitly seeded global generator). ``random.Random`` —
#: the injectable class — is deliberately absent.
_RANDOM_FNS = frozenset({
    "random", "randint", "randrange", "getrandbits", "randbytes",
    "choice", "choices", "shuffle", "sample", "uniform", "triangular",
    "betavariate", "expovariate", "gammavariate", "gauss",
    "lognormvariate", "normalvariate", "vonmisesvariate",
    "paretovariate", "weibullvariate", "seed",
})


class WallClockRule(Rule):
    rule_id = "DET01"
    summary = ("wall-clock or module-level random call in a "
               "deterministic zone")
    policy = RulePolicy(
        zones=("repro.simnet", "repro.tor", "repro.analysis"),
        exempt=("repro.simnet.perfcounters",))

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        # Names imported straight off the ambient modules
        # (``from time import perf_counter``) are violations at the
        # call site under whatever alias they were bound to.
        ambient: dict[str, str] = {}
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom) and node.level == 0:
                if node.module == "time":
                    pool, origin = _WALL_CLOCK_TIME, "time"
                elif node.module == "random":
                    pool, origin = _RANDOM_FNS, "random"
                else:
                    continue
                for alias in node.names:
                    if alias.name in pool:
                        bound = alias.asname or alias.name
                        ambient[bound] = f"{origin}.{alias.name}"
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            line, end, col = _span(node)
            if isinstance(func, ast.Name) and func.id in ambient:
                yield Finding(line, end, col,
                              f"call to {ambient[func.id]}() — inject "
                              "simulated time / a seeded random.Random "
                              "instead of ambient state")
                continue
            if not isinstance(func, ast.Attribute):
                continue
            owner = _dotted(func.value)
            if owner is None:
                continue
            root = owner.split(".")[-1]
            if root == "time" and func.attr in _WALL_CLOCK_TIME:
                yield Finding(line, end, col,
                              f"wall-clock call time.{func.attr}() — "
                              "simulation results must be functions of "
                              "the seed, not the host clock")
            elif root in ("datetime", "date") and \
                    func.attr in _WALL_CLOCK_DT:
                yield Finding(line, end, col,
                              f"wall-clock call {owner}.{func.attr}() — "
                              "simulation results must be functions of "
                              "the seed, not the host clock")
            elif owner == "random" and func.attr in _RANDOM_FNS:
                yield Finding(line, end, col,
                              f"module-level random.{func.attr}() uses "
                              "the shared global generator — all "
                              "randomness must flow through an injected "
                              "seeded random.Random")


# ---------------------------------------------------------------------------
# DET02 — unordered set iteration feeding ordering-sensitive output
# ---------------------------------------------------------------------------

_SET_CTORS = frozenset({"set", "frozenset"})
_SET_METHODS = frozenset({
    "union", "intersection", "difference", "symmetric_difference",
})
#: Consumers for which element order cannot affect the result.
_ORDER_FREE_CALLS = frozenset({
    "sorted", "set", "frozenset", "len", "min", "max", "any", "all",
    "fsum", "fmean", "isdisjoint", "bool",
})
#: Consumers that materialize or emit elements in iteration order.
_ORDER_SENSITIVE_CALLS = frozenset({
    "list", "tuple", "enumerate", "iter", "join", "extend", "sum",
    "reversed", "heapify", "writelines", "chain",
})
_MUTATOR_SINKS = frozenset({
    "append", "extend", "write", "writelines", "heappush", "add_rows",
})


def _annotation_is_set(annotation: Optional[ast.expr]) -> bool:
    if annotation is None:
        return False
    node = annotation
    if isinstance(node, ast.Subscript):
        node = node.value
    name = _dotted(node)
    if name is None:
        return False
    return name.split(".")[-1] in ("set", "frozenset", "Set",
                                   "FrozenSet", "AbstractSet", "MutableSet")


class _SetInference:
    """Per-module syntactic inference of set-typed expressions."""

    def __init__(self, tree: ast.Module) -> None:
        # Attribute names annotated/assigned set-typed anywhere in the
        # file (``self._flows: set[Flow] = set()``). Coarse: the name
        # matches across classes, which is the safe direction.
        self.set_attrs: set[str] = set()
        # Name -> set-typed, per scope node (module / function).
        self.scope_names: dict[ast.AST, set[str]] = {}
        self._collect(tree)

    def _collect(self, tree: ast.Module) -> None:
        for scope, node in _walk_scoped(tree):
            if isinstance(node, ast.AnnAssign) and \
                    _annotation_is_set(node.annotation):
                target = node.target
                if isinstance(target, ast.Attribute):
                    self.set_attrs.add(target.attr)
                elif isinstance(target, ast.Name):
                    self._mark(scope, target.id)
            elif isinstance(node, ast.Assign):
                if self.is_setlike(node.value, scope):
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            self._mark(scope, target.id)
                        elif isinstance(target, ast.Attribute):
                            self.set_attrs.add(target.attr)
            elif isinstance(node, (ast.FunctionDef,
                                   ast.AsyncFunctionDef)):
                args = node.args
                for arg in (*args.posonlyargs, *args.args,
                            *args.kwonlyargs):
                    if _annotation_is_set(arg.annotation):
                        self._mark(node, arg.arg)

    def _mark(self, scope: ast.AST, name: str) -> None:
        self.scope_names.setdefault(scope, set()).add(name)

    def is_setlike(self, node: ast.expr, scope: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in _SET_CTORS:
                return True
            if isinstance(func, ast.Attribute) and \
                    func.attr in _SET_METHODS and \
                    self.is_setlike(func.value, scope):
                return True
            return False
        if isinstance(node, ast.BinOp) and isinstance(
                node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)):
            if isinstance(node.op, ast.Sub):
                return self.is_setlike(node.left, scope)
            return (self.is_setlike(node.left, scope)
                    or self.is_setlike(node.right, scope))
        if isinstance(node, ast.Name):
            return node.id in self.scope_names.get(scope, ())
        if isinstance(node, ast.Attribute):
            return node.attr in self.set_attrs
        if isinstance(node, ast.IfExp):
            return (self.is_setlike(node.body, scope)
                    or self.is_setlike(node.orelse, scope))
        return False


def _walk_scoped(tree: ast.Module) -> Iterator[tuple[ast.AST, ast.AST]]:
    """Yield ``(enclosing_scope, node)`` for every node in the module."""
    def visit(node: ast.AST, scope: ast.AST) -> Iterator[
            tuple[ast.AST, ast.AST]]:
        for child in ast.iter_child_nodes(node):
            yield scope, child
            child_scope = child if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef,
                        ast.Lambda)) else scope
            yield from visit(child, child_scope)
    yield from visit(tree, tree)


def _loop_body_order_sensitive(body: list[ast.stmt],
                               loop_target: Optional[str]) -> bool:
    """Whether a ``for`` body makes iteration order observable.

    Order-free bodies — pure per-key writes ``d[k] = f(k)`` keyed by
    the loop variable, ``seen.add(x)``, membership tests, integer
    ``n += 1`` counting — are tolerated; accumulation (``x += v``,
    read-modify-write subscripts), sequence building, yields, writes,
    conditional assignment (first/last-match-wins), and non-constant
    returns are not.
    """
    for stmt in body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.AugAssign):
                if not (isinstance(node.value, ast.Constant)
                        and isinstance(node.value.value, int)):
                    return True
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Subscript):
                        key = target.slice
                        if not (isinstance(key, ast.Name)
                                and key.id == loop_target):
                            return True
                    elif isinstance(target, ast.Name):
                        names = {n.id for n in ast.walk(node.value)
                                 if isinstance(n, ast.Name)}
                        if target.id in names:
                            return True  # x = x + v accumulation
            elif isinstance(node, (ast.Yield, ast.YieldFrom)):
                return True
            elif isinstance(node, ast.Return):
                if node.value is not None and not isinstance(
                        node.value, ast.Constant):
                    return True
            elif isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Attribute) and \
                        func.attr in _MUTATOR_SINKS:
                    return True
            elif isinstance(node, ast.If):
                # Conditional plain-name assignment under the loop:
                # last (or first) match wins — an order-dependent
                # selection (the manual-min pattern).
                for sub in ast.walk(node):
                    if isinstance(sub, ast.Assign) and any(
                            isinstance(t, ast.Name)
                            for t in sub.targets):
                        return True
    return False


class SetIterationRule(Rule):
    rule_id = "DET02"
    summary = ("iteration over an unordered set feeds "
               "ordering-sensitive output")
    policy = RulePolicy(
        zones=("repro.simnet", "repro.tor", "repro.analysis",
               "repro.measure"))

    _FIX = (" — iterate sorted(...) with a deterministic key, or use "
            "an insertion-ordered dict-as-set")

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        inference = _SetInference(ctx.tree)
        consumed: set[int] = set()  # genexp ids judged via their call

        # Pass 1: calls — order-free consumers absolve their argument
        # (including a generator over a set); sensitive ones flag it.
        for scope, node in _walk_scoped(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else (
                func.id if isinstance(func, ast.Name) else None)
            if name is None:
                continue
            for arg in node.args:
                inner = arg
                if isinstance(arg, (ast.GeneratorExp, ast.ListComp)):
                    consumed.add(id(arg))
                    inner = arg.generators[0].iter
                    if not inference.is_setlike(inner, scope):
                        continue
                elif not inference.is_setlike(arg, scope):
                    continue
                if name in _ORDER_FREE_CALLS:
                    continue
                line, end, col = _span(arg)
                if name in _ORDER_SENSITIVE_CALLS:
                    yield Finding(
                        line, end, col,
                        f"set contents reach {name}() in hash order"
                        + self._FIX)
                elif isinstance(arg, (ast.GeneratorExp, ast.ListComp)):
                    yield Finding(
                        line, end, col,
                        f"comprehension over a set feeds {name}() in "
                        "hash order" + self._FIX)

        # Pass 2: for-loops, comprehensions, yield-from, unpacking.
        for scope, node in _walk_scoped(ctx.tree):
            if isinstance(node, ast.For) and \
                    inference.is_setlike(node.iter, scope):
                target = (node.target.id
                          if isinstance(node.target, ast.Name) else None)
                if _loop_body_order_sensitive(node.body, target):
                    line, end, col = _span(node.iter)
                    yield Finding(
                        line, node.lineno, col,
                        "for-loop over a set with an order-sensitive "
                        "body" + self._FIX)
            elif isinstance(node, ast.ListComp):
                if inference.is_setlike(node.generators[0].iter, scope):
                    line, end, col = _span(node)
                    yield Finding(line, end, col,
                                  "list built from a set in hash order"
                                  + self._FIX)
            elif isinstance(node, ast.GeneratorExp) and \
                    id(node) not in consumed:
                if inference.is_setlike(node.generators[0].iter, scope):
                    line, end, col = _span(node)
                    yield Finding(line, end, col,
                                  "generator over a set escapes to an "
                                  "unknown consumer" + self._FIX)
            elif isinstance(node, ast.YieldFrom) and \
                    inference.is_setlike(node.value, scope):
                line, end, col = _span(node)
                yield Finding(line, end, col,
                              "yield from a set emits hash order"
                              + self._FIX)
            elif isinstance(node, ast.Starred) and \
                    inference.is_setlike(node.value, scope):
                line, end, col = _span(node)
                yield Finding(line, end, col,
                              "unpacking a set materializes hash order"
                              + self._FIX)


# ---------------------------------------------------------------------------
# NUM01 — bare float accumulation in reduction paths
# ---------------------------------------------------------------------------


class FloatAccumulationRule(Rule):
    rule_id = "NUM01"
    summary = ("bare float accumulation in a reduction path (use "
               "backend.fsum / ExactSum / statistics.fmean)")
    policy = RulePolicy(
        zones=("repro.analysis", "repro.measure.records",
               "repro.measure.store", "repro.measure.locations",
               "repro.measure.surge"),
        # backend *implements* the exactly-rounded primitives.
        exempt=("repro.analysis.backend",))

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for scope, node in _walk_scoped(ctx.tree):
            if isinstance(node, ast.Call) and \
                    isinstance(node.func, ast.Name) and \
                    node.func.id == "sum":
                if self._is_integer_count(node):
                    continue
                line, end, col = _span(node)
                yield Finding(
                    line, end, col,
                    "bare sum() is neither exactly rounded nor "
                    "order-free for floats — use backend.fsum / "
                    "ExactSum (or suppress for provably integer sums)")
        # The classic accumulator: ``total = 0.0`` then ``total += v``
        # in the same scope.
        float_zero: dict[ast.AST, set[str]] = {}
        for scope, node in _walk_scoped(ctx.tree):
            if isinstance(node, ast.Assign) and \
                    isinstance(node.value, ast.Constant) and \
                    isinstance(node.value.value, float):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        float_zero.setdefault(scope, set()).add(target.id)
        for scope, node in _walk_scoped(ctx.tree):
            if isinstance(node, ast.AugAssign) and \
                    isinstance(node.op, ast.Add) and \
                    isinstance(node.target, ast.Name) and \
                    node.target.id in float_zero.get(scope, ()):
                line, end, col = _span(node)
                yield Finding(
                    line, end, col,
                    f"float accumulator '{node.target.id} += ...' "
                    "loses bits order-dependently — route through "
                    "backend.fsum / ExactSum")

    @staticmethod
    def _is_integer_count(node: ast.Call) -> bool:
        """``sum(1 for ...)`` — integer counting, exact and order-free."""
        if not node.args:
            return False
        arg = node.args[0]
        if isinstance(arg, (ast.GeneratorExp, ast.ListComp)):
            elt = arg.elt
            return isinstance(elt, ast.Constant) and \
                isinstance(elt.value, int) and \
                not isinstance(elt.value, bool)
        return False


# ---------------------------------------------------------------------------
# IO01 — raw writable open() outside the atomic helpers
# ---------------------------------------------------------------------------

_WRITE_MODE_CHARS = frozenset("wax+")


def _mode_argument(node: ast.Call, *, skip_first: bool) -> Optional[str]:
    """The mode string of an ``open``-like call, if statically known."""
    args = node.args[1:] if skip_first else node.args
    candidates: list[ast.expr] = list(args[:1])
    candidates.extend(kw.value for kw in node.keywords
                      if kw.arg == "mode")
    for arg in candidates:
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            return arg.value
    return None


class RawWriteRule(Rule):
    rule_id = "IO01"
    summary = ("raw writable open() of an artifact outside the atomic "
               "write helpers")
    policy = RulePolicy(
        zones=("repro.measure",),
        # measure.io *is* the sanctioned writer surface (write_shard,
        # AtomicShardWriter).
        exempt=("repro.measure.io",))

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            mode: Optional[str] = None
            what = ""
            if isinstance(func, ast.Name) and func.id == "open":
                mode = _mode_argument(node, skip_first=True)
                what = "open"
            elif isinstance(func, ast.Attribute) and func.attr == "open":
                mode = _mode_argument(node, skip_first=False)
                what = ".open"
            elif isinstance(func, ast.Attribute) and \
                    func.attr in ("write_text", "write_bytes"):
                line, end, col = _span(node)
                yield Finding(
                    line, end, col,
                    f".{func.attr}() is not atomic — a kill mid-write "
                    "leaves a torn artifact; use measure.io's "
                    "tmp+fsync+os.replace helpers")
                continue
            else:
                continue
            if mode is not None and _WRITE_MODE_CHARS & set(mode):
                line, end, col = _span(node)
                yield Finding(
                    line, end, col,
                    f"raw {what}(..., {mode!r}) — result artifacts "
                    "must go through the atomic write helpers "
                    "(measure.io.write_shard / AtomicShardWriter)")


# ---------------------------------------------------------------------------
# MP01 — module-level mutable state touched from function scope
# ---------------------------------------------------------------------------

_MUTABLE_CTORS = frozenset({
    "list", "dict", "set", "bytearray", "deque", "defaultdict",
    "Counter", "OrderedDict", "count",
})
_MUTATING_METHODS = frozenset({
    "append", "extend", "insert", "add", "update", "setdefault",
    "pop", "popitem", "popleft", "appendleft", "remove", "discard",
    "clear", "sort", "reverse",
})


class ForkStateRule(Rule):
    rule_id = "MP01"
    summary = ("module-level mutable state mutated from function scope "
               "— forked supervised workers inherit a diverging copy")
    policy = RulePolicy(
        zones=("repro.measure", "repro.core.world"))

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        mutable: dict[str, ast.stmt] = {}
        bindings: dict[str, ast.stmt] = {}
        for stmt in ctx.tree.body:
            names: list[str] = []
            value: Optional[ast.expr] = None
            if isinstance(stmt, ast.Assign):
                names = [t.id for t in stmt.targets
                         if isinstance(t, ast.Name)]
                value = stmt.value
            elif isinstance(stmt, ast.AnnAssign) and \
                    isinstance(stmt.target, ast.Name):
                names = [stmt.target.id]
                value = stmt.value
            for name in names:
                bindings[name] = stmt
                if value is not None and self._is_mutable_init(value):
                    mutable[name] = stmt
        if not bindings:
            return

        for func in (n for n in ast.walk(ctx.tree)
                     if isinstance(n, (ast.FunctionDef,
                                       ast.AsyncFunctionDef))):
            local = self._local_names(func)
            for node in ast.walk(func):
                if isinstance(node, ast.Global):
                    for name in node.names:
                        if name in bindings:
                            anchor = bindings[name]
                            yield Finding(
                                anchor.lineno, anchor.lineno,
                                anchor.col_offset,
                                f"module-level '{name}' is rebound via "
                                f"'global' in {func.name}() (line "
                                f"{node.lineno}); a forked worker "
                                "inherits and then shadows the parent's "
                                "value — reset it in the worker entry "
                                "or hold the state in an object")
                elif isinstance(node, ast.Call) and \
                        isinstance(node.func, ast.Attribute) and \
                        node.func.attr in _MUTATING_METHODS and \
                        isinstance(node.func.value, ast.Name):
                    name = node.func.value.id
                    if name in mutable and name not in local:
                        anchor = mutable[name]
                        yield Finding(
                            anchor.lineno, anchor.lineno,
                            anchor.col_offset,
                            f"module-level mutable '{name}' is mutated "
                            f"by {func.name}() (line {node.lineno}, "
                            f".{node.func.attr}); fork-inherited copies "
                            "diverge silently in supervised workers")
                elif isinstance(node, (ast.Assign, ast.AugAssign)):
                    targets = (node.targets
                               if isinstance(node, ast.Assign)
                               else [node.target])
                    for target in targets:
                        if isinstance(target, ast.Subscript) and \
                                isinstance(target.value, ast.Name):
                            name = target.value.id
                            if name in mutable and name not in local:
                                anchor = mutable[name]
                                yield Finding(
                                    anchor.lineno, anchor.lineno,
                                    anchor.col_offset,
                                    f"module-level mutable '{name}' is "
                                    f"written by {func.name}() (line "
                                    f"{node.lineno}); fork-inherited "
                                    "copies diverge silently in "
                                    "supervised workers")

    @staticmethod
    def _is_mutable_init(value: ast.expr) -> bool:
        if isinstance(value, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                              ast.DictComp, ast.SetComp)):
            return True
        if isinstance(value, ast.Call):
            name = _dotted(value.func)
            return name is not None and \
                name.split(".")[-1] in _MUTABLE_CTORS
        return False

    @staticmethod
    def _local_names(func: ast.AST) -> frozenset[str]:
        names: set[str] = set()
        for node in ast.walk(func):
            if isinstance(node, ast.Assign):
                names.update(t.id for t in node.targets
                             if isinstance(t, ast.Name))
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)) and \
                    isinstance(node.target, ast.Name):
                names.add(node.target.id)
            elif isinstance(node, (ast.FunctionDef,
                                   ast.AsyncFunctionDef)):
                args = node.args
                names.update(a.arg for a in (*args.posonlyargs,
                                             *args.args,
                                             *args.kwonlyargs))
                if args.vararg:
                    names.add(args.vararg.arg)
                if args.kwarg:
                    names.add(args.kwarg.arg)
            elif isinstance(node, ast.Global):
                names.difference_update(node.names)
        return frozenset(names)


# ---------------------------------------------------------------------------
# EXC01 — swallowed BaseException in supervisor/teardown zones
# ---------------------------------------------------------------------------

_SWALLOW_NAMES = frozenset({"BaseException", "KeyboardInterrupt"})


class SwallowedInterruptRule(Rule):
    rule_id = "EXC01"
    summary = ("handler swallows BaseException/KeyboardInterrupt "
               "without re-raising — breaks deterministic teardown")
    policy = RulePolicy(
        zones=("repro.measure.supervise", "repro.measure.parallel",
               "repro.measure.campaign"))

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Try):
                continue
            for handler in node.handlers:
                if not self._catches_interrupt(handler) or \
                        self._terminates(handler):
                    continue
                caught = ("bare except" if handler.type is None
                          else _dotted(handler.type) or "except")
                yield Finding(
                    handler.lineno, handler.lineno, handler.col_offset,
                    f"{caught} swallows KeyboardInterrupt in a "
                    "supervisor/teardown zone — Ctrl-C must tear the "
                    "campaign down deterministically; re-raise (or "
                    "os._exit in a worker) after cleanup")

    @staticmethod
    def _catches_interrupt(handler: ast.ExceptHandler) -> bool:
        if handler.type is None:
            return True
        types = (handler.type.elts
                 if isinstance(handler.type, ast.Tuple)
                 else [handler.type])
        for entry in types:
            name = _dotted(entry)
            if name is not None and \
                    name.split(".")[-1] in _SWALLOW_NAMES:
                return True
        return False

    @staticmethod
    def _terminates(handler: ast.ExceptHandler) -> bool:
        """Handler re-raises or hard-exits on some path."""
        for node in ast.walk(handler):
            if isinstance(node, ast.Raise):
                return True
            if isinstance(node, ast.Call):
                dotted = _dotted(node.func)
                if dotted is not None and dotted.split(".")[-1] in \
                        ("_exit", "exit", "abort", "kill"):
                    return True
        return False


# ---------------------------------------------------------------------------
# UNIT03 — bare conversion literals on unit-suffixed names
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Dim:
    """A dimension: a kind and (for physical kinds) its unit."""

    kind: str
    unit: str = ""

    @property
    def physical(self) -> bool:
        """Whether UNIT03 checks conversions applied to this dimension."""
        return self.kind in ("time", "data", "rate")

    def label(self) -> str:
        return f"{self.kind}[{self.unit}]" if self.unit else self.kind


TIME_S = Dim("time", "s")
TIME_MS = Dim("time", "ms")
BYTES = Dim("data", "bytes")
BITS = Dim("data", "bits")
BYTES_PER_S = Dim("rate", "bytes/s")
COUNT = Dim("count")


#: Name suffix -> the dimension it declares. Rates are bytes per
#: second, the repo convention (see repro/units.py).
_SUFFIXES = {
    "s": TIME_S, "sec": TIME_S, "secs": TIME_S, "seconds": TIME_S,
    "ms": TIME_MS, "millis": TIME_MS, "milliseconds": TIME_MS,
    "bytes": BYTES, "bits": BITS,
    "bps": BYTES_PER_S,
    "count": COUNT, "counts": COUNT,
}


def parse_suffix(name: str) -> Optional[tuple[Dim, str]]:
    """``(dimension, matched_suffix)`` a name's suffix declares, or None.

    ``_per_s`` names are intensities (``hazard_per_s``), not times, and
    ``from_bytes``-style constructor names do not hold bytes — both
    return None.
    """
    parts = name.lower().split("_")
    if len(parts) < 2 or parts[-2] in ("per", "from"):
        return None
    dim = _SUFFIXES.get(parts[-1])
    return (dim, parts[-1]) if dim is not None else None


def suffix_dim(name: str) -> Optional[Dim]:
    hit = parse_suffix(name)
    return hit[0] if hit is not None else None


#: Literal factors that smell like unit conversions.
_CONV_VALUES = frozenset({
    1000, 1000000, 1000000000,          # s<->ms/us/ns, SI data prefixes
    0.001, 0.000001,
    8,                                   # bytes <-> bits
    125, 125000, 125000000,              # bits/s -> bytes/s prefixes
    1024, 1048576, 1073741824,           # binary prefixes (repo is SI)
})


def _operand_name(node: ast.expr) -> Optional[str]:
    """The name a Name / Attribute / constant-key Subscript carries."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Subscript) and \
            isinstance(node.slice, ast.Constant) and \
            isinstance(node.slice.value, str):
        return node.slice.value
    return None


def _conversion_hint(dim: Dim, value: float, is_div: bool) -> str:
    if dim == TIME_S and not is_div and value == 1000:
        return "use repro.units.seconds_to_ms"
    if dim == TIME_MS and ((is_div and value == 1000) or
                           (not is_div and value == 0.001)):
        return "use repro.units.ms_to_seconds"
    if dim == BITS and is_div and value == 8:
        return "use repro.units.bits"
    if value in (125, 125000, 125000000):
        return "use repro.units.kbit/mbit/gbit"
    if value in (1000000, 1000000000) and dim.kind == "data":
        return "use repro.units.MB/GB or mbytes"
    return "spell the conversion through a repro.units helper"


class MagicConversionRule(Rule):
    rule_id = "UNIT03"
    summary = ("bare magic-number unit conversion where a repro.units "
               "helper exists")
    # repro.units is no zone: it *implements* the conversions.
    policy = RulePolicy(
        zones=("repro.simnet", "repro.tor", "repro.analysis",
               "repro.measure", "repro.web", "repro.pts", "repro.core",
               "benchmarks"))

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.BinOp) or not isinstance(
                    node.op, (ast.Mult, ast.Div, ast.FloorDiv)):
                continue
            is_div = not isinstance(node.op, ast.Mult)
            # A literal divided *by* a name is not a conversion of it.
            pairs = [(node.right, node.left)]
            if not is_div:
                pairs.append((node.left, node.right))
            for literal, operand in pairs:
                if not (isinstance(literal, ast.Constant)
                        and isinstance(literal.value, (int, float))
                        and not isinstance(literal.value, bool)
                        and literal.value in _CONV_VALUES):
                    continue
                name = _operand_name(operand)
                dim = suffix_dim(name) if name is not None else None
                if dim is None or not dim.physical:
                    continue
                op = "/" if is_div else "*"
                hint = _conversion_hint(dim, literal.value, is_div)
                line, end, col = _span(node)
                yield Finding(
                    line, end, col,
                    f"bare conversion '{op} {literal.value!r}' applied "
                    f"to {dim.label()} ('{name}') — {hint}")
                break


#: The per-file rules, in reporting order. SUP01 (malformed
#: suppressions) is emitted by the engine during suppression parsing.
RULES: tuple[Rule, ...] = (
    WallClockRule(),
    SetIterationRule(),
    FloatAccumulationRule(),
    RawWriteRule(),
    ForkStateRule(),
    SwallowedInterruptRule(),
    MagicConversionRule(),
)

SUP01 = "SUP01"
SUP01_SUMMARY = "malformed or unjustified replint suppression comment"
