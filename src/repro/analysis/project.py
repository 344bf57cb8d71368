"""Project graph: imports, symbols, def-use origins, and calls.

Where a file rule sees one parsed file at a time, :func:`build_project`
turns every parsed file of a lint run into a :class:`ProjectGraph`, the
view the whole-program rules under
:mod:`repro.analysis.rules.crossmodule` check:

* **Module identity** is the *module path* (``repro/parallel/worker.py``),
  derived from the file path or overridden by a ``# repro-module:``
  marker — the same identity the file rules see, so fixture mini-projects
  can impersonate real modules. Imports resolve against the dotted form
  of that identity (``repro.parallel.worker``), which is how multi-file
  fixtures import each other through canonical ``repro.*`` paths.
* **Symbols**: top-level functions, classes (with methods and a
  ``self.*`` attribute-origin table harvested from method bodies), and
  import bindings. Module-level statements form a ``<module>`` pseudo
  function so script-style code is analyzed too.
* **Def-use**: a flow-insensitive intraprocedural environment mapping
  local names to :class:`Origin` values (constructor calls, parameters,
  attribute chains, set displays, ...). Deliberately last-write-wins
  and branch-blind — good enough for lint, documented as such.
* **Calls**: every call site is resolved through imports, ``self.*``
  methods (including single-level inheritance walks), module-level
  defs, and locally-typed objects, to a :class:`Callee` that is either
  a project ``(module, qualname)`` or an external dotted name. Call
  sites record whether they sit lexically inside a
  ``with *.read_view():`` block (the pin-discipline primitive).
* **One origin resolver**: :meth:`ProjectGraph.resolve` follows an
  origin to the values it can take — through ``self.*`` and typed
  attributes, conditional operands and project helpers' return values
  — and every rule asks its question of those leaves
  (:meth:`ProjectGraph.class_of` is the typed view of the same walk).

Known approximations (also documented in ARCHITECTURE.md): no
flow-sensitivity, nested ``def`` bodies are attributed to their
enclosing function, attribute calls on objects of unknown type are
unresolved (they create no call edge), and dynamic dispatch is resolved
by the static class of the receiver only.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.analysis.rules import FileContext, dotted_name

#: How many resolution steps an origin walk takes before giving up.
MAX_DEPTH = 6

#: ``(module path, class name)`` of a project class.
ClassKey = Tuple[str, str]


def dotted_for(module_path: str) -> str:
    """Dotted import name of a module path (``a/b/c.py`` -> ``a.b.c``)."""
    stem = module_path[:-3] if module_path.endswith(".py") else module_path
    if stem.endswith("/__init__"):
        stem = stem[: -len("/__init__")]
    return stem.replace("/", ".")


@dataclass(frozen=True)
class Callee:
    """Resolution of one call site.

    ``kind == "project"``: ``module`` is a module path and ``qualname``
    a function, class (constructor), or ``Class.method`` in it.
    ``kind == "external"``: ``dotted`` is the full dotted name
    (``numpy.random.default_rng``, ``hash``).
    """

    kind: str
    module: str = ""
    qualname: str = ""
    dotted: str = ""


@dataclass
class CallSite:
    """One call expression inside a function body."""

    node: ast.Call
    callee: Optional[Callee]
    #: Lexically inside a ``with <expr>.read_view():`` block.
    pinned: bool


@dataclass
class Origin:
    """Abstract value of an expression under the def-use approximation.

    ``kind`` is one of call, param (``node`` is its annotation), const,
    name, attr, selfattr, sub, set, tuple, binop, elt or unknown.
    """

    kind: str
    callee: Optional[Callee] = None
    node: Optional[ast.AST] = None
    name: str = ""
    attr: str = ""
    base: Optional["Origin"] = None
    items: Tuple["Origin", ...] = ()


@dataclass
class FunctionInfo:
    """One function, method, or the ``<module>`` pseudo-function."""

    module_path: str
    qualname: str
    name: str
    class_name: Optional[str]
    node: Union[ast.FunctionDef, ast.AsyncFunctionDef, ast.Module]

    @property
    def key(self) -> Tuple[str, str]:
        return (self.module_path, self.qualname)

    def params(self) -> List[ast.arg]:
        """Parameters in declaration order (none for ``<module>``)."""
        if isinstance(self.node, ast.Module):
            return []
        args = self.node.args
        return [
            *args.posonlyargs,
            *args.args,
            *([args.vararg] if args.vararg else []),
            *args.kwonlyargs,
            *([args.kwarg] if args.kwarg else []),
        ]


@dataclass
class ClassInfo:
    """One top-level class: methods, bases, ``self.*`` attribute origins."""

    module_path: str
    name: str
    node: ast.ClassDef
    bases: List[str] = field(default_factory=list)
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)
    #: ``self.<attr>`` -> (assigning method, Origin of the last value);
    #: None until first asked for.
    attrs: Optional[Dict[str, Tuple[FunctionInfo, Origin]]] = None


@dataclass
class ModuleInfo(FileContext):
    """One parsed module of the project."""

    #: Local name -> dotted import target (``np`` -> ``numpy``).
    imports: Dict[str, str] = field(default_factory=dict)
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    classes: Dict[str, ClassInfo] = field(default_factory=dict)

    @property
    def dotted(self) -> str:
        return dotted_for(self.module_path)


def _harvest_imports(
    tree: ast.Module, module_dotted: str, is_package: bool
) -> Dict[str, str]:
    """Map each locally-bound name to its dotted import target."""
    bindings: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname is not None:
                    bindings[alias.asname] = alias.name
                else:
                    head = alias.name.split(".")[0]
                    bindings[head] = head
        elif isinstance(node, ast.ImportFrom):
            prefix = ""
            if node.level > 0:
                base = module_dotted.split(".") if module_dotted else []
                drop = node.level - (1 if is_package else 0)
                prefix = ".".join(base[: len(base) - drop] if drop else base)
            source = ".".join(part for part in (prefix, node.module or "") if part)
            for alias in node.names:
                if alias.name != "*":
                    target = f"{source}.{alias.name}" if source else alias.name
                    bindings[alias.asname or alias.name] = target
    return bindings


def _module_info(ctx: FileContext) -> ModuleInfo:
    """Symbol tables of one already-parsed file."""
    module_path = ctx.module_path
    is_package = module_path.endswith("/__init__.py") or module_path == "__init__.py"
    minfo = ModuleInfo(
        ctx.path,
        module_path,
        ctx.tree,
        ctx.lines,
        imports=_harvest_imports(ctx.tree, dotted_for(module_path), is_package),
    )

    def _add(node: ast.stmt, class_name: Optional[str] = None) -> FunctionInfo:
        assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        qualname = f"{class_name}.{node.name}" if class_name else node.name
        info = FunctionInfo(module_path, qualname, node.name, class_name, node)
        minfo.functions[qualname] = info
        return info

    for stmt in ctx.tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            _add(stmt)
        elif isinstance(stmt, ast.ClassDef):
            cinfo = ClassInfo(module_path, stmt.name, stmt)
            cinfo.bases = [d for d in map(dotted_name, stmt.bases) if d is not None]
            for item in stmt.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    cinfo.methods[item.name] = _add(item, stmt.name)
            minfo.classes[stmt.name] = cinfo
    minfo.functions["<module>"] = FunctionInfo(
        module_path, "<module>", "<module>", None, ctx.tree
    )
    return minfo


def _stmt_blocks(stmt: ast.stmt) -> List[List[ast.stmt]]:
    blocks: List[List[ast.stmt]] = []
    for attr in ("body", "orelse", "finalbody"):
        block = getattr(stmt, attr, None)
        if isinstance(block, list) and block and isinstance(block[0], ast.stmt):
            blocks.append(block)
    blocks.extend(handler.body for handler in getattr(stmt, "handlers", None) or ())
    return blocks


def _is_read_view(expr: ast.expr) -> bool:
    return (
        isinstance(expr, ast.Call)
        and isinstance(expr.func, ast.Attribute)
        and expr.func.attr == "read_view"
    )


def _walk_body(
    stmts: Sequence[ast.stmt], pinned: bool, skip_defs: bool
) -> Iterator[Tuple[ast.stmt, bool]]:
    """Yield ``(statement, pinned)`` in source order.

    Nested ``def`` bodies are included (attributed to the enclosing
    function — the closure approximation) unless ``skip_defs``, which
    the ``<module>`` pseudo-function sets for its top level; class
    bodies are never entered.
    """
    for stmt in stmts:
        if isinstance(stmt, ast.ClassDef):
            continue
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if not skip_defs:
                yield from _walk_body(stmt.body, pinned, False)
            continue
        yield (stmt, pinned)
        inner = pinned or (
            isinstance(stmt, (ast.With, ast.AsyncWith))
            and any(_is_read_view(item.context_expr) for item in stmt.items)
        )
        for block in _stmt_blocks(stmt):
            yield from _walk_body(block, inner, False)


def stmt_expressions(stmt: ast.AST) -> Iterator[ast.AST]:
    """All nodes in ``stmt``'s own expression fields.

    Nested statement blocks are excluded — :func:`_walk_body` yields
    those statements separately, so walking them here would visit each
    nested expression twice (and under the wrong pinned flag).
    """
    for name, value in ast.iter_fields(stmt):
        if name in ("body", "orelse", "finalbody", "handlers"):
            continue
        for item in value if isinstance(value, list) else [value]:
            if isinstance(item, ast.AST):
                yield from ast.walk(item)


def _is_set_annotation(annotation: Optional[ast.AST]) -> bool:
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        dotted: Optional[str] = annotation.value.split("[", 1)[0].strip()
    elif isinstance(annotation, ast.Subscript):
        dotted = dotted_name(annotation.value)
    else:
        dotted = dotted_name(annotation) if annotation is not None else None
    return dotted is not None and dotted.split(".")[-1] in (
        "Set", "set", "FrozenSet", "frozenset"
    )


class ProjectGraph:
    """The whole-program view consumed by cross-module rules."""

    def __init__(self, modules: Dict[str, ModuleInfo]) -> None:
        self.modules = modules
        self._dotted_index: Dict[str, str] = {
            minfo.dotted: module_path for module_path, minfo in modules.items()
        }
        self._env_cache: Dict[Tuple[str, str], Dict[str, Origin]] = {}
        self._calls_cache: Dict[Tuple[str, str], List[CallSite]] = {}

    # ----------------------------------------------------------- iteration
    def functions(self) -> Iterator[FunctionInfo]:
        for module_path in sorted(self.modules):
            minfo = self.modules[module_path]
            for qualname in sorted(minfo.functions):
                yield minfo.functions[qualname]

    def function(self, module_path: str, qualname: str) -> Optional[FunctionInfo]:
        """Look up a function, walking base classes for methods."""
        minfo = self.modules.get(module_path)
        if minfo is None:
            return None
        found = minfo.functions.get(qualname)
        if found is None and "." in qualname:
            class_name, method = qualname.split(".", 1)
            found = self.resolve_method(minfo, class_name, method)
        return found

    def class_info(self, module_path: str, name: str) -> Optional[ClassInfo]:
        minfo = self.modules.get(module_path)
        return minfo.classes.get(name) if minfo is not None else None

    def statements_of(self, func: FunctionInfo) -> List[Tuple[ast.stmt, bool]]:
        """Function-body statements with their pinned flags."""
        body = func.node.body
        return list(_walk_body(body, False, isinstance(func.node, ast.Module)))

    def returns_of(self, func: FunctionInfo) -> List[ast.expr]:
        """Return-value expressions of ``func`` (nested defs excluded)."""
        if isinstance(func.node, ast.Module):
            return []
        out: List[ast.expr] = []

        def _scan(stmts: Sequence[ast.stmt]) -> None:
            for stmt in stmts:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if isinstance(stmt, ast.ClassDef):
                    continue
                if isinstance(stmt, ast.Return) and stmt.value is not None:
                    out.append(stmt.value)
                for block in _stmt_blocks(stmt):
                    _scan(block)

        _scan(func.node.body)
        return out

    # ------------------------------------------------------ call resolution
    def resolve_dotted(self, dotted: str) -> Optional[Callee]:
        """Resolve a fully-expanded dotted name to a callee."""
        parts = dotted.split(".")
        for length in range(len(parts), 0, -1):
            module_path = self._dotted_index.get(".".join(parts[:length]))
            if module_path is None:
                continue
            rest = parts[length:]
            if not rest:
                return Callee("module", module=module_path)
            if len(rest) <= 2:
                return Callee("project", module=module_path, qualname=".".join(rest))
            return None
        return Callee("external", dotted=dotted)

    def resolve_method(
        self, minfo: ModuleInfo, class_name: str, method: str
    ) -> Optional[FunctionInfo]:
        """Find ``method`` on ``class_name``, walking project bases."""
        seen: Set[Tuple[str, str]] = set()
        todo: List[Tuple[ModuleInfo, str]] = [(minfo, class_name)]
        while todo:
            owner, name = todo.pop()
            cinfo = owner.classes.get(name)
            if cinfo is None or (owner.module_path, name) in seen:
                continue
            seen.add((owner.module_path, name))
            if method in cinfo.methods:
                return cinfo.methods[method]
            for base in reversed(cinfo.bases):
                callee = self._resolve_name_in(owner, base)
                if callee is not None and callee.module in self.modules:
                    todo.append((self.modules[callee.module], callee.qualname))
        return None

    def _resolve_name_in(self, minfo: ModuleInfo, dotted: str) -> Optional[Callee]:
        """Resolve a dotted name as seen from inside ``minfo``."""
        parts = dotted.split(".")
        target = minfo.imports.get(parts[0])
        if target is not None:
            return self.resolve_dotted(".".join([target] + parts[1:]))
        if parts[0] in minfo.classes or parts[0] in minfo.functions:
            if len(parts) > 2:
                return None
            return Callee("project", module=minfo.module_path, qualname=dotted)
        return Callee("external", dotted=dotted)

    def _method_callee(self, cls: Optional[ClassKey], method: str) -> Optional[Callee]:
        found: Optional[FunctionInfo] = None
        if cls is not None and cls[0] in self.modules:
            found = self.resolve_method(self.modules[cls[0]], cls[1], method)
        if found is None:
            return None
        return Callee("project", module=found.module_path, qualname=found.qualname)

    def resolve_call(self, func: FunctionInfo, call: ast.Call) -> Optional[Callee]:
        """Best-effort resolution of one call site."""
        minfo = self.modules[func.module_path]
        dotted = dotted_name(call.func)
        if dotted is None:
            return None
        parts = dotted.split(".")
        if parts[0] == "self" and func.class_name is not None:
            if len(parts) != 2:
                return None
            return self._method_callee((func.module_path, func.class_name), parts[1])
        if parts[0] in minfo.imports or parts[0] in minfo.classes or (
            parts[0] in minfo.functions and len(parts) == 1
        ):
            return self._resolve_name_in(minfo, dotted)
        if len(parts) == 1:
            return Callee("external", dotted=dotted)
        if len(parts) == 2:
            # Locally-typed receiver: x = ClassName(...); x.method()
            origin = self.env_of(func).get(parts[0])
            if origin is not None:
                return self._method_callee(self.constructed(origin), parts[1])
        return None

    def calls_of(self, func: FunctionInfo) -> List[CallSite]:
        """All call sites in ``func`` (nested defs inlined), resolved."""
        cached = self._calls_cache.get(func.key)
        if cached is None:
            cached = self._calls_cache[func.key] = [
                CallSite(node, self.resolve_call(func, node), pinned)
                for stmt, pinned in self.statements_of(func)
                for node in stmt_expressions(stmt)
                if isinstance(node, ast.Call)
            ]
        return cached

    def target_of(self, callee: Optional[Callee]) -> Optional[FunctionInfo]:
        """The project function a call runs: the function or method
        itself, or a class's ``__init__``."""
        if callee is None or callee.kind != "project":
            return None
        qualname = callee.qualname
        if self.class_info(callee.module, qualname) is not None:
            qualname += ".__init__"
        target = self.function(callee.module, qualname)
        if target is None or isinstance(target.node, ast.Module):
            return None
        return target

    # --------------------------------------------------------- def-use env
    def env_of(self, func: FunctionInfo) -> Dict[str, Origin]:
        """Flow-insensitive name -> Origin map for ``func``'s body."""
        cached = self._env_cache.get(func.key)
        if cached is not None:
            return cached
        env: Dict[str, Origin] = {}
        self._env_cache[func.key] = env  # placed first: cycle guard
        for stmt, _pinned in self.statements_of(func):
            targets, value = self._assignment(stmt, func)
            for target in targets:
                assert value is not None
                self._bind(target, value, env)
            if isinstance(stmt, (ast.For, ast.AsyncFor)):
                iterated = self.origin_of(stmt.iter, func)
                self._bind(stmt.target, Origin("elt", base=iterated), env)
            elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                for item in stmt.items:
                    if item.optional_vars is not None:
                        value = self.origin_of(item.context_expr, func)
                        self._bind(item.optional_vars, value, env)
        return env

    def _bind(self, target: ast.expr, value: Origin, env: Dict[str, Origin]) -> None:
        if isinstance(target, ast.Name):
            env[target.id] = value
        elif isinstance(target, (ast.Tuple, ast.List)):
            for index, elt in enumerate(target.elts):
                if value.kind == "tuple" and index < len(value.items):
                    self._bind(elt, value.items[index], env)
                else:
                    self._bind(elt, Origin("elt", base=value), env)

    def origin_of(self, expr: ast.expr, func: FunctionInfo) -> Origin:
        """Abstract value of ``expr`` in ``func``'s environment."""
        if isinstance(expr, ast.Name):
            bound = self.env_of(func).get(expr.id)
            if bound is not None:
                return bound
            for param in func.params():
                if param.arg == expr.id:
                    if _is_set_annotation(param.annotation):
                        return Origin("set", node=expr)
                    return Origin("param", name=expr.id, node=param.annotation)
            return Origin("name", name=expr.id, node=expr)
        if isinstance(expr, ast.Constant):
            return Origin("const", node=expr)
        if isinstance(expr, ast.Call):
            callee = self.resolve_call(func, expr)
            if callee is not None and callee.dotted in ("set", "frozenset"):
                return Origin("set", node=expr)
            return Origin("call", callee=callee, node=expr)
        if isinstance(expr, ast.Attribute):
            if isinstance(expr.value, ast.Name) and expr.value.id == "self":
                return Origin("selfattr", attr=expr.attr, node=expr)
            base = self.origin_of(expr.value, func)
            return Origin("attr", base=base, attr=expr.attr, node=expr)
        if isinstance(expr, ast.Subscript):
            return Origin("sub", base=self.origin_of(expr.value, func), node=expr)
        if isinstance(expr, (ast.Set, ast.SetComp)):
            return Origin("set", node=expr)
        if isinstance(expr, (ast.Tuple, ast.List, ast.ListComp, ast.GeneratorExp)):
            elts = getattr(expr, "elts", ())
            items = tuple(self.origin_of(elt, func) for elt in elts)
            return Origin("tuple", items=items, node=expr)
        if isinstance(expr, (ast.BinOp, ast.IfExp)):
            if isinstance(expr, ast.BinOp):
                pair = (expr.left, expr.right)
            else:
                pair = (expr.body, expr.orelse)
            items = tuple(self.origin_of(side, func) for side in pair)
            return Origin("binop", items=items, node=expr)
        if isinstance(expr, ast.Starred):
            return self.origin_of(expr.value, func)
        return Origin("unknown", node=expr)

    # ------------------------------------------------------ origin resolver
    def resolve(
        self,
        func: FunctionInfo,
        origin: Origin,
        derived: bool = False,
        depth: int = MAX_DEPTH,
    ) -> Iterator[Tuple[FunctionInfo, Origin]]:
        """The leaf origins ``origin`` can evaluate to, each with the
        function whose environment it lives in.

        Looks through ``self.X`` and ``obj.X`` on an object of known
        project class (to what the class assigns), both operands of a
        binary or conditional expression, and project helper calls (to
        their return values). With ``derived`` it also looks through
        values computed from others — attribute, subscript and element
        bases, tuple items — the view a taint question asks (a seed
        taken from ``hash(x) % n`` is as ambient as ``hash`` itself).
        """
        if depth <= 0:
            return
        kind, depth = origin.kind, depth - 1
        assigned: Optional[Tuple[FunctionInfo, Origin]] = None
        if kind == "selfattr" and func.class_name is not None:
            assigned = self._attr((func.module_path, func.class_name), origin.attr)
        elif kind == "attr" and not derived and origin.base is not None:
            assigned = self._attr(self.class_of(func, origin.base, depth), origin.attr)
        if assigned is not None:
            yield from self.resolve(*assigned, derived, depth)
        elif kind == "binop" or (derived and kind == "tuple"):
            for item in origin.items:
                yield from self.resolve(func, item, derived, depth)
        elif derived and kind in ("attr", "sub", "elt") and origin.base is not None:
            yield from self.resolve(func, origin.base, derived, depth)
        elif (
            kind == "call"
            and self.constructed(origin) is None
            and (target := self.target_of(origin.callee)) is not None
        ):
            for ret in self.returns_of(target):
                value = self.origin_of(ret, target)
                yield from self.resolve(target, value, derived, depth)
        else:
            yield func, origin

    def class_of(
        self, func: FunctionInfo, origin: Origin, depth: int = MAX_DEPTH
    ) -> Optional[ClassKey]:
        """The project class ``origin`` is an instance of, if known: a
        constructor call, an annotated parameter, or ``self``."""
        for where, leaf in self.resolve(func, origin, depth=depth):
            found = self.constructed(leaf)
            if leaf.kind == "param" and leaf.name == "self" and where.class_name:
                found = (where.module_path, where.class_name)
            elif leaf.kind == "param" and isinstance(leaf.node, ast.expr):
                minfo = self.modules[where.module_path]
                found = self.annotated_class(minfo, leaf.node)
            if found is not None:
                return found
        return None

    def constructed(self, origin: Origin) -> Optional[ClassKey]:
        """``(module, Class)`` if ``origin`` is a project constructor call."""
        return self._class_key(origin.callee) if origin.kind == "call" else None

    def _class_key(self, callee: Optional[Callee]) -> Optional[ClassKey]:
        if callee is None or callee.kind != "project":
            return None
        if self.class_info(callee.module, callee.qualname) is None:
            return None
        return (callee.module, callee.qualname)

    def annotated_class(
        self, minfo: ModuleInfo, annotation: ast.expr
    ) -> Optional[ClassKey]:
        """Resolve a type annotation (``C`` or ``"C"``; a subscript by
        its base) to a project class."""
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            try:
                annotation = ast.parse(annotation.value, mode="eval").body
            except SyntaxError:
                return None
        if isinstance(annotation, ast.Subscript):
            return self.annotated_class(minfo, annotation.value)
        dotted = dotted_name(annotation)
        return self._class_key(self._resolve_name_in(minfo, dotted) if dotted else None)

    def _assignment(
        self, stmt: ast.stmt, func: FunctionInfo
    ) -> Tuple[List[ast.expr], Optional[Origin]]:
        """(targets, Origin of the value) of an assignment statement."""
        if isinstance(stmt, ast.Assign):
            return list(stmt.targets), self.origin_of(stmt.value, func)
        if isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            if _is_set_annotation(stmt.annotation):
                return [stmt.target], Origin("set", node=stmt.value)
            return [stmt.target], self.origin_of(stmt.value, func)
        return [], None

    def _attr(
        self, cls: Optional[ClassKey], attr: str
    ) -> Optional[Tuple[FunctionInfo, Origin]]:
        """(assigning method, Origin) of ``self.<attr>`` in class ``cls``."""
        cinfo = self.class_info(*cls) if cls is not None else None
        if cinfo is None:
            return None
        if cinfo.attrs is None:
            cinfo.attrs = {}
            for method in cinfo.methods.values():
                for stmt, _pinned in self.statements_of(method):
                    if not any(_is_self_attr(t) for t in assignment_targets(stmt)):
                        continue
                    targets, value = self._assignment(stmt, method)
                    for target in targets:
                        if _is_self_attr(target) and value is not None:
                            assert isinstance(target, ast.Attribute)
                            cinfo.attrs[target.attr] = (method, value)
        return cinfo.attrs.get(attr)


def assignment_targets(stmt: ast.stmt) -> List[ast.expr]:
    """Assignment targets of ``stmt`` (augmented assignments included)."""
    if isinstance(stmt, ast.Assign):
        return list(stmt.targets)
    if isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
        return [stmt.target]
    return []


def _is_self_attr(target: ast.expr) -> bool:
    return (
        isinstance(target, ast.Attribute)
        and isinstance(target.value, ast.Name)
        and target.value.id == "self"
    )


def build_project(contexts: Iterable[FileContext]) -> ProjectGraph:
    """Build a project graph over already-parsed files.

    When two files claim one module path the later one wins.
    """
    return ProjectGraph({ctx.module_path: _module_info(ctx) for ctx in contexts})
