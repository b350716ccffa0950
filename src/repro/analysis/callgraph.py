"""Project-wide symbol table and call graph for whole-program analysis.

nexuslint's original rules are per-file and syntactic; the async-hazard
rules (:mod:`repro.analysis.asynclint`) need to know what a call *means*:
whether ``await self._http.serve(...)`` lands on a coroutine, whether a
helper transitively reaches ``time.sleep``, which method a ``self.x()``
dispatch lands in.  This module builds that picture without importing
any analyzed code:

- every module is parsed once and contributes its functions, classes
  (with base-class layout) and import bindings to a symbol table;
- call sites are resolved interprocedurally: bare names through the
  lexical scope chain and imports, ``self.x()`` through the class layout
  (walking project-local bases), ``mod.fn()`` through import aliases
  (including relative and function-local imports, which this codebase
  uses pervasively to break cycles), plus one level of constructor-typed
  bindings: ``self._http = HttpServer(...)`` makes ``self._http.serve()``
  resolve to ``HttpServer.serve``, and likewise for locals
  (``server = NexusServer(cfg); server.start()``);
- unresolvable calls keep their raw dotted text and terminal name, so
  heuristic rules can still reason about them.

The graph is deliberately an under-approximation: an edge is recorded
only when the target is provably a project symbol.  That is the right
bias for lint rules, which must not hallucinate hazards across dynamic
dispatch they cannot see.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Container, Iterable, Sequence

__all__ = [
    "CallSite",
    "FunctionNode",
    "ClassInfo",
    "ModuleInfo",
    "CallGraph",
    "build_call_graph",
    "build_call_graph_from_paths",
    "dotted_name",
    "module_name_for",
    "terminal_name",
]

#: recursion guard for base-class walks (layout cycles are user error).
_MRO_DEPTH_CAP = 16


def module_name_for(path: Path, root: Path | None = None) -> str:
    """Dotted module name for a source file.

    Walks up through ``__init__.py``-bearing package directories (the
    normal case for the installed ``repro`` package).  For bare trees
    with no package markers (lint fixtures), falls back to the path
    relative to ``root`` so ``serving/mod.py`` and ``core/mod.py`` get
    distinct names.
    """
    resolved = path.resolve()
    packages: list[str] = []
    parent = resolved.parent
    while (parent / "__init__.py").exists():
        packages.append(parent.name)
        parent = parent.parent
    if packages:
        parts = list(reversed(packages))
        if resolved.stem != "__init__":
            parts.append(resolved.stem)
        return ".".join(parts)
    if root is not None:
        try:
            rel = resolved.relative_to(Path(root).resolve())
        except ValueError:
            pass
        else:
            parts = list(rel.parts[:-1])
            if rel.stem != "__init__":
                parts.append(rel.stem)
            if parts:
                return ".".join(parts)
    return resolved.stem


@dataclass
class CallSite:
    """One call expression, with whatever resolution succeeded."""

    raw: str | None        #: dotted source text (``"self.deploy"``), if any
    terminal: str | None   #: rightmost identifier (``"deploy"``)
    lineno: int
    col: int
    awaited: bool          #: the call is directly under an ``await``
    discarded: bool        #: the value is dropped (bare expression stmt)
    resolved: str | None = None   #: project function qualname, if resolved
    external: str | None = None   #: canonical external name (``time.sleep``)


@dataclass
class FunctionNode:
    """One function/method/nested def in the project."""

    qualname: str
    module: str
    path: str
    rel_path: Path
    name: str
    lineno: int
    col: int
    is_async: bool
    class_qualname: str | None
    node: ast.FunctionDef | ast.AsyncFunctionDef
    calls: list[CallSite] = field(default_factory=list)
    #: directly nested defs: name -> qualname (lexical scope chain).
    local_defs: dict[str, str] = field(default_factory=dict)
    #: constructor-typed locals: name -> raw class ref (resolved later).
    local_types: dict[str, str] = field(default_factory=dict)
    parent: str | None = None  #: enclosing function qualname, if nested


@dataclass
class ClassInfo:
    """One class: methods, raw base refs, constructor-typed attributes."""

    qualname: str
    module: str
    name: str
    bases: list[str] = field(default_factory=list)
    methods: dict[str, str] = field(default_factory=dict)
    #: ``self.attr = ClassName(...)`` bindings: attr -> raw class ref.
    attr_types: dict[str, str] = field(default_factory=dict)
    #: attr_types after resolution: attr -> class qualname.
    resolved_attr_types: dict[str, str] = field(default_factory=dict)


@dataclass
class ModuleInfo:
    """One module's top-level symbol table."""

    name: str
    path: str
    is_package: bool
    #: local binding -> canonical dotted target (import table; bindings
    #: from function-local imports are merged in deliberately).
    imports: dict[str, str] = field(default_factory=dict)
    functions: dict[str, str] = field(default_factory=dict)
    classes: dict[str, str] = field(default_factory=dict)


class CallGraph:
    """The resolved whole-program call graph."""

    def __init__(self) -> None:
        self.modules: dict[str, ModuleInfo] = {}
        self.functions: dict[str, FunctionNode] = {}
        self.classes: dict[str, ClassInfo] = {}

    # ---------------------------------------------------------- queries

    def resolved_callees(self, qualname: str) -> list[str]:
        """Project functions this function calls (resolved edges only)."""
        fn = self.functions.get(qualname)
        if fn is None:
            return []
        seen: set[str] = set()
        out: list[str] = []
        for site in fn.calls:
            if site.resolved is not None and site.resolved not in seen:
                seen.add(site.resolved)
                out.append(site.resolved)
        return out

    def lookup_method(
        self, class_qualname: str, name: str, _depth: int = 0
    ) -> str | None:
        """Resolve a method through the class and its project bases."""
        if _depth > _MRO_DEPTH_CAP:
            return None
        ci = self.classes.get(class_qualname)
        if ci is None:
            return None
        hit = ci.methods.get(name)
        if hit is not None:
            return hit
        for base_raw in ci.bases:
            base_q = self._resolve_class_ref(ci.module, base_raw)
            if base_q is not None:
                hit = self.lookup_method(base_q, name, _depth + 1)
                if hit is not None:
                    return hit
        return None

    def attr_type(self, class_qualname: str, attr: str) -> str | None:
        """The constructor-typed class of ``self.<attr>``, walking bases."""
        seen: set[str] = set()
        q: str | None = class_qualname
        while q is not None and q not in seen:
            seen.add(q)
            ci = self.classes.get(q)
            if ci is None:
                return None
            hit = ci.resolved_attr_types.get(attr)
            if hit is not None:
                return hit
            q = None
            for base_raw in ci.bases:
                base_q = self._resolve_class_ref(ci.module, base_raw)
                if base_q is not None:
                    q = base_q
                    break
        return None

    # ------------------------------------------------------- resolution

    def _resolve_class_ref(self, module_name: str, raw: str) -> str | None:
        """A raw class reference (``Base``, ``mod.Base``) -> qualname."""
        mod = self.modules.get(module_name)
        if mod is None:
            return None
        parts = raw.split(".")
        if len(parts) == 1:
            hit = mod.classes.get(parts[0])
            if hit is not None:
                return hit
            canonical = mod.imports.get(parts[0])
        else:
            head = mod.imports.get(parts[0])
            canonical = (
                head + "." + ".".join(parts[1:]) if head is not None else None
            )
        if canonical is None:
            return None
        kind, target = self._canonical_lookup(canonical)
        return target if kind == "class" else None

    def _canonical_lookup(
        self, dotted: str
    ) -> tuple[str | None, str | None]:
        """Map a canonical dotted name onto a project symbol.

        Returns ``("func", qualname)``, ``("class", qualname)``, or
        ``(None, None)`` when no project module prefix matches.
        """
        parts = dotted.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            mod = self.modules.get(".".join(parts[:cut]))
            if mod is None:
                continue
            rest = parts[cut:]
            if len(rest) == 1:
                fn = mod.functions.get(rest[0])
                if fn is not None:
                    return "func", fn
                cls = mod.classes.get(rest[0])
                if cls is not None:
                    return "class", cls
            elif len(rest) == 2:
                cls = mod.classes.get(rest[0])
                if cls is not None:
                    hit = self.lookup_method(cls, rest[1])
                    if hit is not None:
                        return "func", hit
            return None, None
        return None, None

    def _resolve_site(self, fn: FunctionNode, site: CallSite) -> None:
        raw = site.raw
        if raw is None:
            return
        parts = raw.split(".")
        # self.m() / cls.m() dispatch through the class layout.
        if parts[0] in ("self", "cls") and fn.class_qualname is not None:
            if len(parts) == 2:
                site.resolved = self.lookup_method(fn.class_qualname, parts[1])
            elif len(parts) == 3:
                owner = self.attr_type(fn.class_qualname, parts[1])
                if owner is not None:
                    site.resolved = self.lookup_method(owner, parts[2])
            return
        mod = self.modules.get(fn.module)
        if mod is None:
            return
        if len(parts) == 1:
            name = parts[0]
            # Lexical scope chain: nested defs of this and enclosing fns.
            walk: FunctionNode | None = fn
            while walk is not None:
                hit = walk.local_defs.get(name)
                if hit is not None:
                    site.resolved = hit
                    return
                walk = (
                    self.functions.get(walk.parent)
                    if walk.parent is not None else None
                )
            hit = mod.functions.get(name)
            if hit is not None:
                site.resolved = hit
                return
            cls = mod.classes.get(name)
            if cls is not None:  # constructor: propagate through __init__
                site.resolved = self.lookup_method(cls, "__init__")
                return
            canonical = mod.imports.get(name)
            if canonical is None:
                site.external = name  # builtin (open, print, ...)
                return
            self._bind_canonical(site, canonical)
            return
        # Constructor-typed local: server = NexusServer(...); server.m().
        if len(parts) == 2:
            walk = fn
            while walk is not None:
                owner_raw = walk.local_types.get(parts[0])
                if owner_raw is not None:
                    owner = self._resolve_class_ref(fn.module, owner_raw)
                    if owner is not None:
                        site.resolved = self.lookup_method(owner, parts[1])
                    return
                walk = (
                    self.functions.get(walk.parent)
                    if walk.parent is not None else None
                )
        # ClassName.method(...) on a module-local class.
        if len(parts) == 2 and parts[0] in mod.classes:
            site.resolved = self.lookup_method(mod.classes[parts[0]], parts[1])
            return
        head = mod.imports.get(parts[0])
        if head is None:
            return  # parameter / unknown object: raw + terminal only
        self._bind_canonical(site, head + "." + ".".join(parts[1:]))

    def _bind_canonical(self, site: CallSite, canonical: str) -> None:
        kind, target = self._canonical_lookup(canonical)
        if kind == "func":
            site.resolved = target
        elif kind == "class":
            assert target is not None
            site.resolved = self.lookup_method(target, "__init__")
        else:
            site.external = canonical


# ------------------------------------------------------------ collection


def dotted_name(node: ast.expr) -> str | None:
    """``a.b.c`` (names/attributes only) -> ``"a.b.c"``; None otherwise."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def terminal_name(node: ast.expr) -> str | None:
    """The rightmost identifier of a name/attribute/call expression."""
    if isinstance(node, ast.Call):
        return terminal_name(node.func)
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _script_relative(
    module_name: str, name: str, known: Container[str] | None
) -> str:
    """Absolute import ``name`` as seen from a bare-tree module: in
    ``core/srv.py``, ``util`` is the sibling ``core.util`` unless the
    tree has a top-level ``util``.  ``known``: the tree's module names and
    their dotted prefixes (``None`` in a package)."""
    if known is None:
        return name
    prefix = module_name.rpartition(".")[0]
    top = name.split(".", 1)[0]
    if not prefix or top in known or f"{prefix}.{top}" not in known:
        return name
    return f"{prefix}.{name}"


def _collect_imports(
    module: ModuleInfo, tree: ast.Module, known: Container[str] | None,
) -> None:
    """Merge every import binding in the file (any scope) into one table.

    Function-local imports are how this codebase breaks package cycles,
    so scoping the table per-function would blind the resolver exactly
    where it matters; cross-scope collisions of the same name bound to
    different modules are vanishingly rare in practice.
    """
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname is not None:
                    module.imports[alias.asname] = _script_relative(
                        module.name, alias.name, known
                    )
                else:
                    top = alias.name.split(".", 1)[0]
                    module.imports.setdefault(
                        top, _script_relative(module.name, top, known)
                    )
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                base = _script_relative(module.name, node.module or "", known)
            else:
                parts = module.name.split(".")
                if not module.is_package:
                    parts = parts[:-1]
                if node.level > 1:
                    parts = parts[:len(parts) - (node.level - 1)]
                base = ".".join(parts)
                if node.module:
                    base = f"{base}.{node.module}" if base else node.module
            for alias in node.names:
                if alias.name == "*":
                    continue
                target = f"{base}.{alias.name}" if base else alias.name
                module.imports[alias.asname or alias.name] = target


_CTOR_NAME_OK = str.isidentifier


def _ctor_class_ref(value: ast.expr) -> str | None:
    """``ClassName(...)`` / ``mod.ClassName(...)`` -> raw class ref.

    Only conventionally-capitalized terminals count as constructors, so
    ``x = helper()`` never poisons the local type table.
    """
    if not isinstance(value, ast.Call):
        return None
    raw = dotted_name(value.func)
    if raw is None:
        return None
    terminal = raw.rsplit(".", 1)[-1]
    if not terminal[:1].isupper():
        return None
    return raw


class _FunctionWalker:
    """Extract call sites + typed locals from one function body.

    Nested def/class subtrees are skipped — they are collected as their
    own graph nodes.
    """

    def __init__(self, fn: FunctionNode) -> None:
        self.fn = fn

    def walk_body(self, body: Sequence[ast.stmt]) -> None:
        for stmt in body:
            self._stmt(stmt)

    def _stmt(self, node: ast.stmt) -> None:
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            return
        if isinstance(node, ast.Assign):
            ref = _ctor_class_ref(node.value)
            if ref is not None:
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        self.fn.local_types[target.id] = ref
        if isinstance(node, ast.Expr):
            self._expr(node.value, discarded=True)
            return
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.stmt):
                self._stmt(child)
            elif isinstance(child, ast.expr):
                self._expr(child, discarded=False)
            elif isinstance(
                child, (ast.excepthandler, ast.withitem, ast.keyword)
            ):
                for sub in ast.iter_child_nodes(child):
                    if isinstance(sub, ast.stmt):
                        self._stmt(sub)
                    elif isinstance(sub, ast.expr):
                        self._expr(sub, discarded=False)

    def _expr(self, node: ast.expr, discarded: bool,
              awaited: bool = False) -> None:
        if isinstance(node, ast.Await):
            self._expr(node.value, discarded=False, awaited=True)
            return
        if isinstance(node, (ast.Lambda,)):
            return  # deferred body: calls do not happen here
        if isinstance(node, ast.Call):
            raw = dotted_name(node.func)
            self.fn.calls.append(CallSite(
                raw=raw,
                terminal=terminal_name(node.func),
                lineno=node.lineno,
                col=node.col_offset + 1,
                awaited=awaited,
                discarded=discarded,
            ))
            # Arguments and nested func expressions evaluate normally.
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.expr):
                    self._expr(child, discarded=False)
                elif isinstance(child, ast.keyword):
                    self._expr(child.value, discarded=False)
            return
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self._expr(child, discarded=False)
            elif isinstance(child, ast.comprehension):
                self._expr(child.iter, discarded=False)
                for cond in child.ifs:
                    self._expr(cond, discarded=False)


def _collect_scope(
    graph: CallGraph,
    module: ModuleInfo,
    body: Sequence[ast.stmt],
    path: str,
    rel_path: Path,
    qual_prefix: str,
    class_info: ClassInfo | None,
    parent_fn: FunctionNode | None,
) -> None:
    for stmt in body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qualname = f"{qual_prefix}.{stmt.name}"
            fn = FunctionNode(
                qualname=qualname,
                module=module.name,
                path=path,
                rel_path=rel_path,
                name=stmt.name,
                lineno=stmt.lineno,
                col=stmt.col_offset + 1,
                is_async=isinstance(stmt, ast.AsyncFunctionDef),
                class_qualname=(
                    class_info.qualname if class_info is not None else None
                ),
                node=stmt,
                parent=parent_fn.qualname if parent_fn is not None else None,
            )
            graph.functions[qualname] = fn
            if class_info is not None:
                class_info.methods[stmt.name] = qualname
                _collect_attr_types(class_info, stmt)
            elif parent_fn is not None:
                parent_fn.local_defs[stmt.name] = qualname
            else:
                module.functions[stmt.name] = qualname
            _FunctionWalker(fn).walk_body(stmt.body)
            _collect_scope(
                graph, module, stmt.body, path, rel_path,
                qual_prefix=qualname, class_info=None, parent_fn=fn,
            )
        elif isinstance(stmt, ast.ClassDef):
            qualname = f"{qual_prefix}.{stmt.name}"
            ci = ClassInfo(
                qualname=qualname,
                module=module.name,
                name=stmt.name,
                bases=[
                    ref for ref in
                    (dotted_name(base) for base in stmt.bases)
                    if ref is not None
                ],
            )
            graph.classes[qualname] = ci
            if class_info is None and parent_fn is None:
                module.classes[stmt.name] = qualname
            _collect_scope(
                graph, module, stmt.body, path, rel_path,
                qual_prefix=qualname, class_info=ci, parent_fn=None,
            )
        elif isinstance(stmt, (ast.If, ast.Try, ast.With, ast.For,
                               ast.While)):
            # Conditional/guarded defs still belong to this scope.
            for sub_body in (
                getattr(stmt, "body", []),
                getattr(stmt, "orelse", []),
                getattr(stmt, "finalbody", []),
            ):
                _collect_scope(
                    graph, module, sub_body, path, rel_path,
                    qual_prefix=qual_prefix, class_info=class_info,
                    parent_fn=parent_fn,
                )
            for handler in getattr(stmt, "handlers", []):
                _collect_scope(
                    graph, module, handler.body, path, rel_path,
                    qual_prefix=qual_prefix, class_info=class_info,
                    parent_fn=parent_fn,
                )


def _collect_attr_types(
    class_info: ClassInfo, method: ast.FunctionDef | ast.AsyncFunctionDef
) -> None:
    """Record ``self.attr = ClassName(...)`` constructor bindings."""
    for node in ast.walk(method):
        if not isinstance(node, ast.Assign):
            continue
        ref = _ctor_class_ref(node.value)
        if ref is None:
            continue
        for target in node.targets:
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                class_info.attr_types.setdefault(target.attr, ref)


# --------------------------------------------------------------- building


def build_call_graph(
    units: Iterable[tuple[Path, Path, str, ast.Module]],
) -> CallGraph:
    """Build the graph from pre-parsed ``(path, rel_path, module, tree)``
    units (the lint driver parses each file exactly once and shares the
    trees between the syntactic and whole-program passes)."""
    graph = CallGraph()
    collected: list[tuple[ModuleInfo, ast.Module, Path, Path]] = []
    for path, rel_path, module_name, tree in units:
        module = ModuleInfo(
            name=module_name,
            path=str(path),
            is_package=path.name == "__init__.py",
        )
        graph.modules[module_name] = module
        collected.append((module, tree, path, rel_path))
    known = {
        ".".join(parts[:i])
        for parts in (name.split(".") for name in graph.modules)
        for i in range(1, len(parts) + 1)
    }
    for module, tree, path, rel_path in collected:
        bare = not (path.parent / "__init__.py").exists()
        _collect_imports(module, tree, known if bare else None)
        _collect_scope(
            graph, module, tree.body, str(path), rel_path,
            qual_prefix=module.name, class_info=None, parent_fn=None,
        )
    # Resolution passes: attribute types first (method resolution of
    # ``self.attr.m()`` depends on them), then every call site.
    for ci in graph.classes.values():
        for attr, raw in ci.attr_types.items():
            owner = graph._resolve_class_ref(ci.module, raw)
            if owner is not None:
                ci.resolved_attr_types[attr] = owner
    for fn in graph.functions.values():
        for site in fn.calls:
            graph._resolve_site(fn, site)
    return graph


def build_call_graph_from_paths(
    paths: Sequence[Path], root: Path | None = None,
) -> CallGraph:
    """Convenience builder: parse ``.py`` files under ``paths`` and build
    the graph (tests and ad-hoc callers; the lint driver shares parses)."""
    units = []
    for target in paths:
        target_root = root if root is not None else (
            target if target.is_dir() else target.parent
        )
        files = (
            sorted(target.rglob("*.py")) if target.is_dir() else [target]
        )
        for file in files:
            source = file.read_text(encoding="utf-8")
            tree = ast.parse(source, filename=str(file))
            try:
                rel = file.relative_to(target_root)
            except ValueError:
                rel = Path(file.name)
            units.append(
                (file, rel, module_name_for(file, root=target_root), tree)
            )
    return build_call_graph(units)
