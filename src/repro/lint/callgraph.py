"""Project-wide symbol table and call graph for interprocedural rules.

The per-file rules in :mod:`repro.lint.rules` see one module at a
time, so a violation hidden one call away — a helper that reads
``time.time()`` three frames below a simnet entry point, a helper that
returns a set to a zone function that iterates it — sails straight
past them. This module gives the interprocedural rules
(:mod:`repro.lint.taint`) the structure they need:

* a **symbol table** per module: ``import``/``from``-import bindings
  with alias tracking, top-level functions, classes with their methods
  and (project-resolvable) bases, and top-level ``x = y`` re-export
  aliases — so ``from repro.measure import io as mio; mio.write_shard``
  resolves through the ``__init__`` re-export chain to the defining
  module;
* a **call graph**: every call site inside every function body, each
  classified as *resolved* (a project function/method, by qualified
  name), *external* (a builtin or a non-project import — ``json.dumps``
  is not "unresolved", it is known-foreign), or *unresolved* (dynamic
  dispatch the resolver cannot type: calls of locals, methods on
  unknown objects). Unresolved calls are counted per function and
  globally (``--stats``), never guessed at — the conservative
  direction for every rule built on top.

Method calls resolve through ``self``/``cls``, through locals whose
class is statically known (``x: Foo``, ``x = Foo(...)``, parameter
annotations), and through ``self.attr`` when the class annotates or
assigns the attribute's type in ``__init__``. Inheritance is walked
left-to-right over project-resolvable bases only.

Qualified names are dotted: ``repro.measure.io.write_shard`` for a
function, ``repro.measure.io.AtomicShardWriter.commit`` for a method,
``pkg.mod.outer.inner`` for a nested function.
"""

from __future__ import annotations

import ast
import builtins
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Optional, Sequence

_BUILTIN_NAMES = frozenset(dir(builtins))

#: Alias-chain / recursion bound: re-exports deeper than this are
#: treated as unresolved rather than looping.
_MAX_DEPTH = 16


@dataclass(frozen=True)
class CallSite:
    """One call expression inside a function body."""

    line: int
    col: int
    #: Qualified name of the resolved project callee, else None.
    callee: Optional[str]
    #: Source-ish rendering of what was called (``helper``,
    #: ``self.flush``, ``json.dumps``) for diagnostics.
    raw: str
    #: "resolved" | "external" | "unresolved"
    kind: str
    #: The AST call node (rules inspect arguments).
    node: ast.Call = field(compare=False, hash=False)


@dataclass
class FunctionInfo:
    """One function or method definition in the project."""

    qname: str
    module: str
    name: str
    node: ast.FunctionDef | ast.AsyncFunctionDef
    #: Qualified name of the owning class for methods, else None.
    cls: Optional[str]
    calls: list[CallSite] = field(default_factory=list)
    unresolved_calls: int = 0

    @property
    def line(self) -> int:
        return self.node.lineno


@dataclass
class ClassInfo:
    """One class definition: methods, bases, known attribute types."""

    qname: str
    module: str
    node: ast.ClassDef
    methods: dict[str, str] = field(default_factory=dict)
    #: Base expressions as dotted strings (resolved in a second pass).
    base_names: tuple[str, ...] = ()
    resolved_bases: tuple[str, ...] = ()
    #: ``self.<attr>`` -> class qname, from annotations / ctor calls.
    attr_types: dict[str, str] = field(default_factory=dict)


@dataclass
class ModuleInfo:
    """Per-module symbol table."""

    name: str
    path: Path
    tree: ast.Module
    #: Local binding -> dotted import target ("a.b" for ``import a.b
    #: as x``; "a.b.c" for ``from a.b import c as x``; "a" for
    #: ``import a.b`` which binds the top name).
    imports: dict[str, str] = field(default_factory=dict)
    #: Top-level function name -> qname.
    defs: dict[str, str] = field(default_factory=dict)
    #: Top-level class name -> class qname.
    classes: dict[str, str] = field(default_factory=dict)
    #: Top-level ``x = <dotted>`` aliases (re-exports) -> dotted rhs.
    aliases: dict[str, str] = field(default_factory=dict)
    #: ``from m import *`` targets, in order.
    star_imports: tuple[str, ...] = ()


@dataclass(frozen=True)
class CallGraphStats:
    """``--stats`` counters for one build."""

    modules: int
    functions: int
    classes: int
    call_sites: int
    resolved_calls: int
    external_calls: int
    unresolved_calls: int

    def format(self) -> str:
        return (f"callgraph: {self.modules} modules, "
                f"{self.functions} functions, {self.classes} classes, "
                f"{self.call_sites} call sites "
                f"({self.resolved_calls} resolved, "
                f"{self.external_calls} external, "
                f"{self.unresolved_calls} unresolved)")


def _dotted(node: ast.expr) -> Optional[str]:
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


class CallGraph:
    """The built graph; construct via :meth:`build`."""

    def __init__(self) -> None:
        self.modules: dict[str, ModuleInfo] = {}
        #: module name -> file path (display/suppression lookup).
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, ClassInfo] = {}

    # -- construction ---------------------------------------------------

    @classmethod
    def build(cls, modules: Sequence[tuple[str, Path, ast.Module]],
              ) -> "CallGraph":
        """Build the graph from ``(module_name, path, parsed_tree)``.

        Duplicate module names keep the first occurrence (the walk
        order is deterministic, so so is the graph).
        """
        graph = cls()
        for name, path, tree in modules:
            if name in graph.modules:
                continue
            graph.modules[name] = ModuleInfo(name=name, path=path,
                                             tree=tree)
        for info in graph.modules.values():
            graph._index_module(info)
        for class_info in graph.classes.values():
            graph._resolve_bases(class_info)
        for info in graph.modules.values():
            graph._collect_calls(info)
        return graph

    def _index_module(self, info: ModuleInfo) -> None:
        stars: list[str] = []
        for stmt in info.tree.body:
            if isinstance(stmt, ast.Import):
                for alias in stmt.names:
                    if alias.asname:
                        info.imports[alias.asname] = alias.name
                    else:
                        info.imports[alias.name.split(".")[0]] = \
                            alias.name.split(".")[0]
            elif isinstance(stmt, ast.ImportFrom):
                base = self._from_base(info.name, stmt)
                if base is None:
                    continue
                for alias in stmt.names:
                    if alias.name == "*":
                        stars.append(base)
                        continue
                    bound = alias.asname or alias.name
                    info.imports[bound] = f"{base}.{alias.name}"
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qname = f"{info.name}.{stmt.name}"
                info.defs[stmt.name] = qname
                self._index_function(info, stmt, qname, cls_qname=None)
            elif isinstance(stmt, ast.ClassDef):
                self._index_class(info, stmt)
            elif isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 \
                    and isinstance(stmt.targets[0], ast.Name):
                rhs = _dotted(stmt.value)
                if rhs is not None:
                    info.aliases[stmt.targets[0].id] = rhs
        info.star_imports = tuple(stars)

    @staticmethod
    def _from_base(module: str, stmt: ast.ImportFrom) -> Optional[str]:
        """Absolute module a ``from ... import`` pulls from."""
        if stmt.level == 0:
            return stmt.module
        # Relative import: climb from the importing module. A module
        # file's package is its dotted prefix; ``level`` strips one
        # component per dot (``from . import x`` in pkg.mod -> pkg).
        parts = module.split(".")
        if stmt.level > len(parts):
            return None
        base_parts = parts[:len(parts) - stmt.level]
        if stmt.module:
            base_parts.append(stmt.module)
        return ".".join(base_parts) if base_parts else None

    def _index_class(self, info: ModuleInfo, stmt: ast.ClassDef) -> None:
        qname = f"{info.name}.{stmt.name}"
        info.classes[stmt.name] = qname
        bases = tuple(b for b in (_dotted(base) for base in stmt.bases)
                      if b is not None)
        class_info = ClassInfo(qname=qname, module=info.name, node=stmt,
                               base_names=bases)
        self.classes[qname] = class_info
        for item in stmt.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                method_qname = f"{qname}.{item.name}"
                class_info.methods[item.name] = method_qname
                self._index_function(info, item, method_qname,
                                     cls_qname=qname)
        # Attribute types: annotations and ctor assignments anywhere in
        # the class body's methods (``self.x: Foo`` / ``self.x = Foo()``).
        for node in ast.walk(stmt):
            target: Optional[ast.expr] = None
            type_name: Optional[str] = None
            if isinstance(node, ast.AnnAssign) and \
                    isinstance(node.target, ast.Attribute):
                target = node.target
                type_name = _annotation_class_name(node.annotation)
            elif isinstance(node, ast.Assign) and len(node.targets) == 1 \
                    and isinstance(node.targets[0], ast.Attribute) and \
                    isinstance(node.value, ast.Call):
                target = node.targets[0]
                type_name = _dotted(node.value.func)
            if target is None or type_name is None:
                continue
            owner = target.value
            if isinstance(owner, ast.Name) and owner.id == "self":
                class_info.attr_types.setdefault(target.attr, type_name)

    def _index_function(self, info: ModuleInfo,
                        node: ast.FunctionDef | ast.AsyncFunctionDef,
                        qname: str, cls_qname: Optional[str]) -> None:
        self.functions[qname] = FunctionInfo(
            qname=qname, module=info.name, name=node.name, node=node,
            cls=cls_qname)
        for item in node.body:
            for child in ast.walk(item):
                if isinstance(child, (ast.FunctionDef,
                                      ast.AsyncFunctionDef)) and \
                        self._is_direct_child_def(node, child):
                    self._index_function(info, child,
                                         f"{qname}.{child.name}",
                                         cls_qname=None)

    @staticmethod
    def _is_direct_child_def(parent: ast.AST, candidate: ast.AST) -> bool:
        """Whether ``candidate`` is nested directly under ``parent``
        (not inside a deeper function/class)."""
        for node in ast.walk(parent):
            if node is candidate:
                continue
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)) and node is not parent:
                if any(c is candidate for c in ast.walk(node)):
                    return False
        return True

    def _resolve_bases(self, class_info: ClassInfo) -> None:
        resolved = []
        for base in class_info.base_names:
            target = self.resolve(class_info.module, base)
            if target is not None and target in self.classes:
                resolved.append(target)
        class_info.resolved_bases = tuple(resolved)

    def _module_prefix(self, dotted: str) -> Optional[str]:
        """Longest prefix of ``dotted`` that names a project module."""
        parts = dotted.split(".")
        for cut in range(len(parts), 0, -1):
            candidate = ".".join(parts[:cut])
            if candidate in self.modules:
                return candidate
        return None

    # -- symbol resolution ----------------------------------------------

    def resolve(self, module: str, dotted: str,
                _depth: int = 0) -> Optional[str]:
        """Resolve a dotted name used in ``module`` to a project qname.

        Returns the qualified name of a function, method, class, or
        module — or None when the name is foreign or dynamic. Alias
        chains (re-exports through ``__init__``) are followed to a
        bounded depth.
        """
        if _depth > _MAX_DEPTH:
            return None
        info = self.modules.get(module)
        if info is None:
            return None
        head, _, rest = dotted.partition(".")
        if head in info.defs:
            return info.defs[head] if not rest else None
        if head in info.classes:
            class_qname = info.classes[head]
            if not rest:
                return class_qname
            if "." in rest:
                return None
            return self.lookup_method(class_qname, rest)
        if head in info.aliases:
            target = info.aliases[head]
            return self.resolve(module, target + ("." + rest if rest else ""),
                                _depth + 1)
        if head in info.imports:
            full = info.imports[head] + ("." + rest if rest else "")
            return self._resolve_absolute(full, _depth + 1)
        for star in info.star_imports:
            hit = self.resolve(star, dotted, _depth + 1)
            if hit is not None:
                return hit
        return None

    def _resolve_absolute(self, dotted: str, depth: int) -> Optional[str]:
        """Resolve an absolute dotted path against project modules."""
        if dotted in self.modules:
            return dotted
        prefix = self._module_prefix(dotted)
        if prefix is None:
            return None
        rest = dotted[len(prefix) + 1:]
        return self.resolve(prefix, rest, depth)

    def lookup_method(self, class_qname: str, name: str,
                      _seen: Optional[set[str]] = None) -> Optional[str]:
        """Find ``name`` on a class or its project-resolvable bases."""
        seen = _seen if _seen is not None else set()
        if class_qname in seen:
            return None
        seen.add(class_qname)
        class_info = self.classes.get(class_qname)
        if class_info is None:
            return None
        if name in class_info.methods:
            return class_info.methods[name]
        for base in class_info.resolved_bases:
            hit = self.lookup_method(base, name, seen)
            if hit is not None:
                return hit
        return None

    # -- call collection ------------------------------------------------

    def _collect_calls(self, info: ModuleInfo) -> None:
        for fn in [f for f in self.functions.values()
                   if f.module == info.name]:
            local_types, local_names = self._local_bindings(info, fn)
            for node in _walk_function_body(fn.node):
                if isinstance(node, ast.Call):
                    site = self._classify_call(info, fn, node,
                                               local_types, local_names)
                    fn.calls.append(site)
                    if site.kind == "unresolved":
                        fn.unresolved_calls += 1

    def _local_bindings(self, info: ModuleInfo, fn: FunctionInfo,
                        ) -> tuple[dict[str, str], set[str]]:
        """(local var -> class qname) and the set of all local names."""
        types: dict[str, str] = {}
        names: set[str] = set()
        args = fn.node.args
        for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
            names.add(arg.arg)
            type_name = _annotation_class_name(arg.annotation)
            if type_name is not None:
                target = self.resolve(info.name, type_name)
                if target is not None and target in self.classes:
                    types[arg.arg] = target
        if args.vararg:
            names.add(args.vararg.arg)
        if args.kwarg:
            names.add(args.kwarg.arg)
        if fn.cls is not None and (args.posonlyargs or args.args):
            first = (args.posonlyargs or args.args)[0].arg
            types[first] = fn.cls
        for node in _walk_function_body(fn.node):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
                        hit = self._value_class(info, node.value)
                        if hit is not None:
                            types.setdefault(target.id, hit)
                        elif target.id in types:
                            del types[target.id]  # rebound: unknown now
            elif isinstance(node, ast.AnnAssign) and \
                    isinstance(node.target, ast.Name):
                names.add(node.target.id)
                type_name = _annotation_class_name(node.annotation)
                if type_name is not None:
                    target_cls = self.resolve(info.name, type_name)
                    if target_cls is not None and target_cls in self.classes:
                        types[node.target.id] = target_cls
            elif isinstance(node, (ast.For, ast.AsyncFor)) and \
                    isinstance(node.target, ast.Name):
                names.add(node.target.id)
            elif isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    if isinstance(item.optional_vars, ast.Name):
                        names.add(item.optional_vars.id)
                        if isinstance(item.context_expr, ast.Call):
                            hit = self._value_class(info, item.context_expr)
                            if hit is not None:
                                types.setdefault(item.optional_vars.id, hit)
        return types, names

    def _value_class(self, info: ModuleInfo,
                     value: ast.expr) -> Optional[str]:
        """Class qname a value expression constructs, if known."""
        if not isinstance(value, ast.Call):
            return None
        dotted = _dotted(value.func)
        if dotted is None:
            return None
        target = self.resolve(info.name, dotted)
        if target is not None and target in self.classes:
            return target
        return None

    def _classify_call(self, info: ModuleInfo, fn: FunctionInfo,
                       node: ast.Call, local_types: dict[str, str],
                       local_names: set[str]) -> CallSite:
        func = node.func
        line, col = node.lineno, node.col_offset
        if isinstance(func, ast.Name):
            name = func.id
            # Nested function defined in this (or an enclosing) scope.
            scope_hit = self._scope_function(fn.qname, name)
            if scope_hit is not None:
                return CallSite(line, col, scope_hit, name, "resolved",
                                node)
            if name in local_names and name not in info.defs \
                    and name not in info.classes:
                return CallSite(line, col, None, name, "unresolved", node)
            target = self.resolve(info.name, name)
            if target is not None:
                return self._site_for_target(node, line, col, name, target)
            if name in _BUILTIN_NAMES:
                return CallSite(line, col, None, name, "external", node)
            if name in info.imports:
                return CallSite(line, col, None, name, "external", node)
            return CallSite(line, col, None, name, "unresolved", node)
        if isinstance(func, ast.Attribute):
            dotted = _dotted(func)
            if dotted is None:
                # Method on a computed receiver (f().m(), a[i].m(), ...).
                return CallSite(line, col, None, f"?.{func.attr}",
                                "unresolved", node)
            head, _, _rest = dotted.partition(".")
            # Method call through a typed local (incl. self/cls).
            if head in local_types:
                parts = dotted.split(".")
                cls_qname = local_types[head]
                if len(parts) == 2:
                    hit = self.lookup_method(cls_qname, parts[1])
                    if hit is not None:
                        return CallSite(line, col, hit, dotted,
                                        "resolved", node)
                    return CallSite(line, col, None, dotted,
                                    "unresolved", node)
                if len(parts) == 3:
                    # self.attr.method() via known attribute types.
                    class_info = self.classes.get(cls_qname)
                    attr_type = None
                    if class_info is not None:
                        type_name = class_info.attr_types.get(parts[1])
                        if type_name is not None:
                            attr_type = self.resolve(class_info.module,
                                                     type_name)
                    if attr_type is not None and attr_type in self.classes:
                        hit = self.lookup_method(attr_type, parts[2])
                        if hit is not None:
                            return CallSite(line, col, hit, dotted,
                                            "resolved", node)
                    return CallSite(line, col, None, dotted,
                                    "unresolved", node)
                return CallSite(line, col, None, dotted, "unresolved",
                                node)
            if head in local_names and head not in info.imports \
                    and head not in info.defs and head not in info.classes \
                    and head not in info.aliases:
                return CallSite(line, col, None, dotted, "unresolved",
                                node)
            target = self.resolve(info.name, dotted)
            if target is not None:
                return self._site_for_target(node, line, col, dotted,
                                             target)
            if head in info.imports or head in _BUILTIN_NAMES:
                # Foreign module or attribute chain on a builtin.
                return CallSite(line, col, None, dotted, "external", node)
            return CallSite(line, col, None, dotted, "unresolved", node)
        return CallSite(line, col, None, "<dynamic>", "unresolved", node)

    def _site_for_target(self, node: ast.Call, line: int, col: int,
                         raw: str, target: str) -> CallSite:
        if target in self.functions:
            return CallSite(line, col, target, raw, "resolved", node)
        if target in self.classes:
            ctor = self.lookup_method(target, "__init__")
            if ctor is not None:
                return CallSite(line, col, ctor, raw, "resolved", node)
            # A project class without a ctor: nothing user-defined runs.
            return CallSite(line, col, None, raw, "external", node)
        if target in self.modules:
            # Calling a module object — dynamic beyond us.
            return CallSite(line, col, None, raw, "unresolved", node)
        return CallSite(line, col, None, raw, "unresolved", node)

    def _scope_function(self, caller_qname: str,
                        name: str) -> Optional[str]:
        """A function named ``name`` nested in the caller's scope chain."""
        parts = caller_qname.split(".")
        for cut in range(len(parts), 0, -1):
            candidate = ".".join(parts[:cut] + [name])
            if candidate in self.functions:
                owner = ".".join(parts[:cut])
                if owner in self.functions or owner == caller_qname:
                    return candidate
        return None

    # -- queries ---------------------------------------------------------

    def stats(self) -> CallGraphStats:
        call_sites = resolved = external = unresolved = 0
        for fn in self.functions.values():
            call_sites += len(fn.calls)
            for site in fn.calls:
                if site.kind == "resolved":
                    resolved += 1
                elif site.kind == "external":
                    external += 1
                else:
                    unresolved += 1
        return CallGraphStats(
            modules=len(self.modules), functions=len(self.functions),
            classes=len(self.classes), call_sites=call_sites,
            resolved_calls=resolved, external_calls=external,
            unresolved_calls=unresolved)


def _annotation_class_name(annotation: Optional[ast.expr],
                           ) -> Optional[str]:
    """The dotted class name an annotation denotes, if plain.

    ``Foo`` and ``mod.Foo`` resolve; ``Optional[Foo]`` unwraps one
    level; string annotations parse if they are dotted names;
    subscripted containers (``list[Foo]``) do not denote the variable's
    own class and return None.
    """
    if annotation is None:
        return None
    node = annotation
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            node = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return None
    if isinstance(node, ast.Subscript):
        base = _dotted(node.value)
        if base is not None and base.split(".")[-1] == "Optional":
            return _annotation_class_name(node.slice)
        return None
    return _dotted(node)


def _walk_function_body(fn: ast.FunctionDef | ast.AsyncFunctionDef,
                        ) -> Iterator[ast.AST]:
    """Every node in a function's body, excluding nested def bodies.

    Nested ``def``/``class`` statements themselves are not yielded —
    their calls belong to the nested function's own entry.
    """
    stack: list[ast.AST] = list(reversed(fn.body))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            continue
        yield node
        stack.extend(reversed(list(ast.iter_child_nodes(node))))
