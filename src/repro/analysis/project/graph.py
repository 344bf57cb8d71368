"""Project graph: imports, symbols, def-use origins, and calls.

One :func:`build_project` call turns a set of parsed source files into
a :class:`ProjectGraph`:

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

from repro.analysis.rules import (
    FileContext,
    derive_module_path,
    dotted_name,
    resolve_module_path,
)

#: Builtins that matter to rules (resolved as external callees).
_KNOWN_BUILTINS = frozenset(
    {"set", "frozenset", "dict", "sorted", "list", "tuple", "hash", "id"}
)


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
    """Abstract value of an expression under the def-use approximation."""

    kind: str  # call|param|const|attr|selfattr|sub|set|tuple|binop|elt|unknown
    callee: Optional[Callee] = None
    node: Optional[ast.AST] = None
    name: str = ""
    attr: str = ""
    base: Optional["Origin"] = None
    items: Tuple["Origin", ...] = ()
    value: object = None


UNKNOWN = Origin("unknown")


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

    def param_names(self) -> List[str]:
        if isinstance(self.node, ast.Module):
            return []
        args = self.node.args
        names = [a.arg for a in args.posonlyargs + args.args]
        if args.vararg is not None:
            names.append(args.vararg.arg)
        names.extend(a.arg for a in args.kwonlyargs)
        if args.kwarg is not None:
            names.append(args.kwarg.arg)
        return names


@dataclass
class ClassInfo:
    """One top-level class: methods, bases, ``self.*`` attribute origins."""

    module_path: str
    name: str
    node: ast.ClassDef
    bases: List[str] = field(default_factory=list)
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)
    #: ``self.<attr>`` -> Origin of the (last) value assigned to it.
    attr_origins: Dict[str, Origin] = field(default_factory=dict)
    #: Class-body constant flags (``__counter_class__ = True`` etc.).
    class_constants: Dict[str, object] = field(default_factory=dict)


@dataclass
class ModuleInfo:
    """One parsed module of the project."""

    path: str
    module_path: str
    dotted: str
    tree: ast.Module
    lines: List[str]
    #: Local name -> dotted import target (``np`` -> ``numpy``).
    imports: Dict[str, str] = field(default_factory=dict)
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    classes: Dict[str, ClassInfo] = field(default_factory=dict)

    def snippet(self, line: int) -> str:
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1].strip()
        return ""


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
                    bindings[alias.name.split(".")[0]] = alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            base_parts = module_dotted.split(".") if module_dotted else []
            if node.level > 0:
                if not is_package:
                    base_parts = base_parts[:-1]
                if node.level > 1:
                    base_parts = base_parts[: len(base_parts) - (node.level - 1)]
                prefix = ".".join(base_parts)
            else:
                prefix = ""
            module = node.module or ""
            if prefix and module:
                source_module = f"{prefix}.{module}"
            else:
                source_module = prefix or module
            for alias in node.names:
                if alias.name == "*":
                    continue
                bound = alias.asname or alias.name
                target = (
                    f"{source_module}.{alias.name}" if source_module else alias.name
                )
                bindings[bound] = target
    return bindings


def _function_info(
    module_path: str,
    node: Union[ast.FunctionDef, ast.AsyncFunctionDef],
    class_name: Optional[str] = None,
) -> FunctionInfo:
    qualname = f"{class_name}.{node.name}" if class_name else node.name
    return FunctionInfo(
        module_path=module_path,
        qualname=qualname,
        name=node.name,
        class_name=class_name,
        node=node,
    )


def _module_info(ctx: FileContext) -> ModuleInfo:
    """Symbol tables of one already-parsed file."""
    module_path, tree = ctx.module_path, ctx.tree
    dotted = dotted_for(module_path)
    is_package = module_path.endswith("/__init__.py") or module_path == "__init__.py"
    minfo = ModuleInfo(
        path=ctx.path,
        module_path=module_path,
        dotted=dotted,
        tree=tree,
        lines=ctx.lines,
        imports=_harvest_imports(tree, dotted, is_package),
    )
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            info = _function_info(module_path, stmt)
            minfo.functions[info.qualname] = info
        elif isinstance(stmt, ast.ClassDef):
            cinfo = ClassInfo(module_path=module_path, name=stmt.name, node=stmt)
            for base in stmt.bases:
                base_dotted = dotted_name(base)
                if base_dotted is not None:
                    cinfo.bases.append(base_dotted)
            for item in stmt.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    info = _function_info(module_path, item, stmt.name)
                    cinfo.methods[item.name] = info
                    minfo.functions[info.qualname] = info
                elif isinstance(item, ast.Assign) and len(item.targets) == 1:
                    target = item.targets[0]
                    if isinstance(target, ast.Name) and isinstance(
                        item.value, ast.Constant
                    ):
                        cinfo.class_constants[target.id] = item.value.value
            minfo.classes[stmt.name] = cinfo
    pseudo = FunctionInfo(
        module_path=module_path,
        qualname="<module>",
        name="<module>",
        class_name=None,
        node=tree,
    )
    minfo.functions["<module>"] = pseudo
    return minfo


class _BodyWalker:
    """Walks a function body without crossing into methods of nested
    classes or module-level defs; nested ``def`` bodies are *included*
    (attributed to the enclosing function — closure approximation)."""

    def __init__(self, skip_defs_at_top: bool) -> None:
        self.skip_defs_at_top = skip_defs_at_top

    def walk(self, node: ast.AST) -> Iterator[Tuple[ast.AST, bool]]:
        """Yield ``(node, pinned)`` pairs in source order."""
        body: Sequence[ast.stmt]
        if isinstance(node, ast.Module):
            body = node.body
        else:
            body = node.body  # type: ignore[attr-defined]
        yield from self._walk_stmts(body, False, top=True)

    def _walk_stmts(
        self, stmts: Sequence[ast.stmt], pinned: bool, top: bool = False
    ) -> Iterator[Tuple[ast.AST, bool]]:
        for stmt in stmts:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if top and self.skip_defs_at_top:
                    continue
                if isinstance(stmt, ast.ClassDef):
                    continue
                yield from self._walk_stmts(stmt.body, pinned)
                continue
            yield (stmt, pinned)
            child_pinned = pinned
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                if any(_is_read_view(item.context_expr) for item in stmt.items):
                    child_pinned = True
            for block in _stmt_blocks(stmt):
                yield from self._walk_stmts(block, child_pinned)


def stmt_expressions(stmt: ast.AST) -> Iterator[ast.AST]:
    """All nodes in ``stmt``'s own expression fields.

    Nested statement blocks (``body``/``orelse``/``finalbody``/except
    handlers) are excluded — :class:`_BodyWalker` yields those
    statements separately, so walking them here would visit each
    nested expression twice (and under the wrong pinned flag).
    """
    for field, value in ast.iter_fields(stmt):
        if field in ("body", "orelse", "finalbody", "handlers"):
            continue
        if isinstance(value, ast.AST):
            yield from ast.walk(value)
        elif isinstance(value, list):
            for item in value:
                if isinstance(item, ast.AST):
                    yield from ast.walk(item)


def _stmt_blocks(stmt: ast.stmt) -> List[List[ast.stmt]]:
    blocks: List[List[ast.stmt]] = []
    for attr in ("body", "orelse", "finalbody"):
        block = getattr(stmt, attr, None)
        if isinstance(block, list) and block and isinstance(block[0], ast.stmt):
            blocks.append(block)
    handlers = getattr(stmt, "handlers", None)
    if handlers:
        for handler in handlers:
            blocks.append(handler.body)
    return blocks


def _is_read_view(expr: ast.expr) -> bool:
    return (
        isinstance(expr, ast.Call)
        and isinstance(expr.func, ast.Attribute)
        and expr.func.attr == "read_view"
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
        if found is not None:
            return found
        if "." in qualname:
            class_name, method = qualname.split(".", 1)
            resolved = self.resolve_method(minfo, class_name, method)
            if resolved is not None:
                return resolved
        return None

    def class_info(self, module_path: str, name: str) -> Optional[ClassInfo]:
        minfo = self.modules.get(module_path)
        return minfo.classes.get(name) if minfo is not None else None

    def is_class(self, module_path: str, name: str) -> bool:
        return self.class_info(module_path, name) is not None

    # ------------------------------------------------------ call resolution
    def resolve_dotted(self, dotted: str) -> Optional[Callee]:
        """Resolve a fully-expanded dotted name to a callee."""
        parts = dotted.split(".")
        for length in range(len(parts), 0, -1):
            prefix = ".".join(parts[:length])
            module_path = self._dotted_index.get(prefix)
            if module_path is None:
                continue
            rest = parts[length:]
            if not rest:
                return Callee("module", module=module_path)
            if len(rest) <= 2:
                return Callee(
                    "project", module=module_path, qualname=".".join(rest)
                )
            return None
        return Callee("external", dotted=dotted)

    def resolve_method(
        self, minfo: ModuleInfo, class_name: str, method: str
    ) -> Optional[FunctionInfo]:
        """Find ``method`` on ``class_name``, walking project bases."""
        seen: Set[Tuple[str, str]] = set()

        def _search(owner: ModuleInfo, name: str) -> Optional[FunctionInfo]:
            if (owner.module_path, name) in seen:
                return None
            seen.add((owner.module_path, name))
            cinfo = owner.classes.get(name)
            if cinfo is None:
                return None
            if method in cinfo.methods:
                return cinfo.methods[method]
            for base_dotted in cinfo.bases:
                callee = self._resolve_name_in(owner, base_dotted)
                if (
                    callee is not None
                    and callee.kind == "project"
                    and "." not in callee.qualname
                ):
                    base_module = self.modules.get(callee.module)
                    if base_module is not None:
                        found = _search(base_module, callee.qualname)
                        if found is not None:
                            return found
            return None

        return _search(minfo, class_name)

    def _resolve_name_in(self, minfo: ModuleInfo, dotted: str) -> Optional[Callee]:
        """Resolve a dotted name as seen from inside ``minfo``."""
        parts = dotted.split(".")
        head = parts[0]
        target = minfo.imports.get(head)
        if target is not None:
            return self.resolve_dotted(".".join([target] + parts[1:]))
        if head in minfo.classes or head in minfo.functions:
            if len(parts) <= 2:
                return Callee(
                    "project", module=minfo.module_path, qualname=dotted
                )
            return None
        if head in _KNOWN_BUILTINS or len(parts) > 1:
            return Callee("external", dotted=dotted)
        return Callee("external", dotted=dotted)

    def resolve_call(
        self, func: FunctionInfo, call: ast.Call
    ) -> Optional[Callee]:
        """Best-effort resolution of one call site."""
        minfo = self.modules[func.module_path]
        dotted = dotted_name(call.func)
        if dotted is None:
            return None
        parts = dotted.split(".")
        if parts[0] == "self" and func.class_name is not None:
            if len(parts) == 2:
                method = self.resolve_method(minfo, func.class_name, parts[1])
                if method is not None:
                    return Callee(
                        "project",
                        module=method.module_path,
                        qualname=method.qualname,
                    )
            return None
        if parts[0] in minfo.imports or parts[0] in minfo.classes or (
            parts[0] in minfo.functions and len(parts) == 1
        ):
            return self._resolve_name_in(minfo, dotted)
        # Locally-typed receiver: x = ClassName(...); x.method()
        if len(parts) == 2:
            env = self.env_of(func)
            origin = env.get(parts[0])
            if (
                origin is not None
                and origin.kind == "call"
                and origin.callee is not None
                and origin.callee.kind == "project"
                and "." not in origin.callee.qualname
                and self.is_class(origin.callee.module, origin.callee.qualname)
            ):
                method = self.resolve_method(
                    self.modules[origin.callee.module],
                    origin.callee.qualname,
                    parts[1],
                )
                if method is not None:
                    return Callee(
                        "project",
                        module=method.module_path,
                        qualname=method.qualname,
                    )
            return None
        if len(parts) == 1:
            return Callee("external", dotted=dotted)
        return None

    def calls_of(self, func: FunctionInfo) -> List[CallSite]:
        """All call sites in ``func`` (nested defs inlined), resolved."""
        cached = self._calls_cache.get(func.key)
        if cached is not None:
            return cached
        walker = _BodyWalker(skip_defs_at_top=isinstance(func.node, ast.Module))
        sites: List[CallSite] = []
        for stmt, pinned in walker.walk(func.node):
            for node in stmt_expressions(stmt):
                if isinstance(node, ast.Call):
                    sites.append(
                        CallSite(
                            node=node,
                            callee=self.resolve_call(func, node),
                            pinned=pinned,
                        )
                    )
        self._calls_cache[func.key] = sites
        return sites

    def statements_of(self, func: FunctionInfo) -> List[Tuple[ast.AST, bool]]:
        """Function-body statements with their pinned flags."""
        walker = _BodyWalker(skip_defs_at_top=isinstance(func.node, ast.Module))
        return list(walker.walk(func.node))

    def returns_of(self, func: FunctionInfo) -> List[ast.expr]:
        """Return-value expressions of ``func`` (nested defs excluded)."""
        if isinstance(func.node, ast.Module):
            return []
        out: List[ast.expr] = []

        def _scan(stmts: Sequence[ast.stmt]) -> None:
            for stmt in stmts:
                if isinstance(
                    stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                ):
                    continue
                if isinstance(stmt, ast.Return) and stmt.value is not None:
                    out.append(stmt.value)
                for block in _stmt_blocks(stmt):
                    _scan(block)

        _scan(func.node.body)
        return out

    # --------------------------------------------------------- def-use env
    def env_of(self, func: FunctionInfo) -> Dict[str, Origin]:
        """Flow-insensitive name -> Origin map for ``func``'s body."""
        cached = self._env_cache.get(func.key)
        if cached is not None:
            return cached
        env: Dict[str, Origin] = {}
        self._env_cache[func.key] = env  # placed first: cycle guard
        params = set(func.param_names())
        walker = _BodyWalker(skip_defs_at_top=isinstance(func.node, ast.Module))
        for stmt, _pinned in walker.walk(func.node):
            if isinstance(stmt, ast.Assign):
                value = self.origin_of(stmt.value, func, env, params)
                for target in stmt.targets:
                    self._bind(target, value, env)
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                value = self.origin_of(stmt.value, func, env, params)
                if annotation_is_set(stmt.annotation):
                    value = Origin("set", node=stmt.value)
                self._bind(stmt.target, value, env)
            elif isinstance(stmt, (ast.For, ast.AsyncFor)):
                iter_origin = self.origin_of(stmt.iter, func, env, params)
                self._bind(stmt.target, Origin("elt", base=iter_origin), env)
            elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                for item in stmt.items:
                    if item.optional_vars is not None:
                        value = self.origin_of(
                            item.context_expr, func, env, params
                        )
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

    def origin_of(
        self,
        expr: ast.expr,
        func: FunctionInfo,
        env: Optional[Dict[str, Origin]] = None,
        params: Optional[Set[str]] = None,
    ) -> Origin:
        """Abstract value of ``expr`` in ``func``'s environment."""
        if env is None:
            env = self.env_of(func)
        if params is None:
            params = set(func.param_names())
        if isinstance(expr, ast.Name):
            bound = env.get(expr.id)
            if bound is not None:
                return bound
            if expr.id in params:
                return Origin("param", name=expr.id)
            return Origin("name", name=expr.id, node=expr)
        if isinstance(expr, ast.Constant):
            return Origin("const", value=expr.value, node=expr)
        if isinstance(expr, ast.Call):
            return Origin(
                "call", callee=self.resolve_call(func, expr), node=expr
            )
        if isinstance(expr, ast.Attribute):
            if isinstance(expr.value, ast.Name) and expr.value.id == "self":
                return Origin("selfattr", attr=expr.attr, node=expr)
            return Origin(
                "attr",
                base=self.origin_of(expr.value, func, env, params),
                attr=expr.attr,
                node=expr,
            )
        if isinstance(expr, ast.Subscript):
            return Origin(
                "sub",
                base=self.origin_of(expr.value, func, env, params),
                node=expr,
            )
        if isinstance(expr, (ast.Set, ast.SetComp)):
            return Origin("set", node=expr)
        if isinstance(expr, (ast.Tuple, ast.List)):
            return Origin(
                "tuple",
                items=tuple(
                    self.origin_of(elt, func, env, params) for elt in expr.elts
                ),
                node=expr,
            )
        if isinstance(expr, ast.BinOp):
            return Origin(
                "binop",
                items=(
                    self.origin_of(expr.left, func, env, params),
                    self.origin_of(expr.right, func, env, params),
                ),
                node=expr,
            )
        if isinstance(expr, (ast.ListComp, ast.GeneratorExp)):
            return Origin("tuple", node=expr)
        if isinstance(expr, ast.IfExp):
            return Origin(
                "binop",
                items=(
                    self.origin_of(expr.body, func, env, params),
                    self.origin_of(expr.orelse, func, env, params),
                ),
                node=expr,
            )
        if isinstance(expr, ast.Starred):
            return self.origin_of(expr.value, func, env, params)
        return Origin("unknown", node=expr)

    # ------------------------------------------------------- class helpers
    def self_attr_origin(self, func: FunctionInfo, attr: str) -> Origin:
        """Origin of ``self.<attr>`` inside a method of ``func``'s class."""
        if func.class_name is None:
            return UNKNOWN
        minfo = self.modules[func.module_path]
        cinfo = minfo.classes.get(func.class_name)
        if cinfo is None:
            return UNKNOWN
        if not cinfo.attr_origins:
            self._harvest_attr_origins(cinfo)
        return cinfo.attr_origins.get(attr, UNKNOWN)

    def _harvest_attr_origins(self, cinfo: ClassInfo) -> None:
        """Collect ``self.X = <expr>`` origins from all methods."""
        cinfo.attr_origins["__harvested__"] = UNKNOWN
        for method in cinfo.methods.values():
            env = self.env_of(method)
            params = set(method.param_names())
            walker = _BodyWalker(skip_defs_at_top=False)
            for stmt, _pinned in walker.walk(method.node):
                targets: List[ast.expr] = []
                value: Optional[ast.expr] = None
                annotation: Optional[ast.expr] = None
                if isinstance(stmt, ast.Assign):
                    targets = list(stmt.targets)
                    value = stmt.value
                elif isinstance(stmt, ast.AnnAssign):
                    targets = [stmt.target]
                    value = stmt.value
                    annotation = stmt.annotation
                for target in targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        if annotation is not None and annotation_is_set(annotation):
                            cinfo.attr_origins[target.attr] = Origin("set")
                        elif value is not None:
                            cinfo.attr_origins[target.attr] = self.origin_of(
                                value, method, env, params
                            )

    def resolve_annotation(
        self, minfo: ModuleInfo, annotation: Optional[ast.expr]
    ) -> Optional[Tuple[str, str]]:
        """Resolve a type annotation to a project ``(module, Class)``."""
        if annotation is None:
            return None
        if isinstance(annotation, ast.Constant) and isinstance(
            annotation.value, str
        ):
            try:
                annotation = ast.parse(annotation.value, mode="eval").body
            except SyntaxError:
                return None
        dotted = dotted_name(annotation)
        if dotted is None:
            if isinstance(annotation, ast.Subscript):
                return self.resolve_annotation(minfo, annotation.value)
            return None
        callee = self._resolve_name_in(minfo, dotted)
        if (
            callee is not None
            and callee.kind == "project"
            and "." not in callee.qualname
            and self.is_class(callee.module, callee.qualname)
        ):
            return (callee.module, callee.qualname)
        return None


def annotation_is_set(annotation: ast.expr) -> bool:
    dotted = dotted_name(annotation)
    if dotted is None and isinstance(annotation, ast.Subscript):
        dotted = dotted_name(annotation.value)
    if dotted is None and isinstance(annotation, ast.Constant) and isinstance(
        annotation.value, str
    ):
        dotted = annotation.value.split("[", 1)[0].strip()
    if dotted is None:
        return False
    return dotted.split(".")[-1] in ("Set", "set", "FrozenSet", "frozenset")


def build_project(contexts: Iterable[FileContext]) -> ProjectGraph:
    """Build a project graph over already-parsed files.

    When two files claim one module path the later one wins.
    """
    return ProjectGraph(
        {ctx.module_path: _module_info(ctx) for ctx in contexts}
    )


def build_project_from_sources(sources: Dict[str, str]) -> ProjectGraph:
    """Build a project graph from ``{file path: source text}``.

    Files that fail to parse are skipped (the engine reports them as
    ``parse-error`` findings).
    """
    contexts: List[FileContext] = []
    for path in sorted(sources):
        source = sources[path]
        try:
            tree = ast.parse(source)
        except SyntaxError:
            continue
        module_path = resolve_module_path(source, derive_module_path(path))
        contexts.append(
            FileContext(path, module_path, tree, source.splitlines())
        )
    return build_project(contexts)
