"""AST-based code analyzers guarding the repo's behavioural invariants.

Four analyzers, stdlib :mod:`ast` only (no third-party dependencies):

Determinism lint
================
``code.set-order-escape`` (error)
    Iteration order of a ``set``/``frozenset`` escapes into an ordered
    artifact: ``list(s)``/``tuple(s)``, ``sep.join(s)``, a list
    comprehension over a set, or a loop over a set that appends to a list
    (that is never subsequently sorted) or ``yield``\\ s.  Set iteration
    order depends on insertion history and -- for strings -- on the
    per-process hash seed, so such an escape breaks the repo's
    worker-count-independence and byte-identical-records guarantees the
    moment the artifact reaches a report, a JSON record, or a cache key.
    Wrapping the iteration in ``sorted(...)`` (or consuming it with an
    order-insensitive reducer: ``sum``/``min``/``max``/``len``/``any``/
    ``all``/``set``/``frozenset``) is the fix and silences the check.
``code.set-pop`` (error)
    Zero-argument ``.pop()`` on a set: which element comes out is
    arbitrary.  (``list.pop()`` is positional and fine.)

Fork-safety lint
================
``code.fork-unsafe`` (error)
    A lock or asyncio primitive is statically reachable from a fork-pool
    worker entry point.  With the ``fork`` start method a child inherits a
    snapshot of the parent's locks and event loops: a lock held by another
    parent thread at fork time deadlocks the child forever, and an
    inherited event loop must never be touched from the child.  Entry
    points are found automatically (``Process(target=...)``,
    ``pool.submit(f, ...)``, ``pool.map(f, ...)``,
    ``initializer=...``) or declared with a ``# fork-entry`` comment on
    the ``def`` line (for entries passed indirectly, e.g. through a
    ``functools.partial`` the analyzer cannot see).  Reachability follows
    direct calls, ``from``-imports within the analyzed file set,
    ``module.function`` references, ``ClassName(...)`` constructors and
    ``self.method()`` calls; dynamic dispatch is out of scope by design --
    keep worker code boring.

Hot-loop lint
=============
``code.hot-loop-attr`` / ``code.hot-loop-alloc`` / ``code.hot-loop-try``
    (error) A loop marked ``# hot-loop`` (comment on the ``for``/``while``
    line or the line above) must stay object-free, the discipline that
    bought the flat-arena solver its propagation throughput: no ``self.*``
    access (hoist to locals before the loop), no data-attribute lookups
    (method calls on locals, e.g. ``trail.append(...)``, are allowed --
    bound-method dispatch is unavoidable), no list/dict/set displays,
    comprehensions, f-strings, lambdas or calls to
    ``list``/``dict``/``set``/``frozenset``/``sorted``, and no
    ``try``/``except`` (zero-cost only until it isn't).  Constant-size
    tuple displays are permitted (CPython free-lists them; heap entries
    need them), as are ``range``/``len``/``enumerate`` and slice reads
    (the arena's deliberate one-C-level-copy idiom).  A statement line
    marked ``# hot-loop: cold`` is exempt (rare rescale branches).

Unused-import lint
==================
``code.unused-import`` (error)
    A module-level import binds a name the module never reads (in code,
    in a string annotation, or in ``__all__``).  Dead imports make a
    module look coupled to code it does not use and cost import time.
    ``__init__.py`` files (their imports are re-exports) and
    ``from __future__`` imports are skipped.

Suppressions
============
Any finding can be waived on its line with ``# lint: ok(<check-id>)``
(comma-separated ids, or no parenthesis to waive every check on the line).
Use sparingly and leave a reason nearby; the CLI counts suppressions.
"""

from __future__ import annotations

import ast
import os
import re
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.findings import LintReport

__all__ = [
    "CHECK_SET_ORDER",
    "CHECK_SET_POP",
    "CHECK_FORK_UNSAFE",
    "CHECK_HOT_ATTR",
    "CHECK_HOT_ALLOC",
    "CHECK_HOT_TRY",
    "CHECK_UNUSED_IMPORT",
    "lint_file",
    "lint_files",
    "lint_fork_safety",
]

CHECK_SET_ORDER = "code.set-order-escape"
CHECK_SET_POP = "code.set-pop"
CHECK_FORK_UNSAFE = "code.fork-unsafe"
CHECK_HOT_ATTR = "code.hot-loop-attr"
CHECK_HOT_ALLOC = "code.hot-loop-alloc"
CHECK_HOT_TRY = "code.hot-loop-try"
CHECK_UNUSED_IMPORT = "code.unused-import"

#: Builtins whose result does not depend on the argument's iteration order.
_ORDER_INSENSITIVE = {
    "sorted", "sum", "min", "max", "len", "any", "all", "set", "frozenset",
}
#: Type names (bare or subscripted) that annotate a set-valued name.
_SET_ANNOTATIONS = {
    "set", "frozenset", "Set", "FrozenSet", "AbstractSet", "MutableSet",
}
#: Set methods returning another set.
_SET_RETURNING_METHODS = {
    "union", "intersection", "difference", "symmetric_difference", "copy",
}
#: Allocation-free builtins allowed inside hot loops.
_HOT_ALLOWED_CALLS = {"range", "len", "enumerate", "abs", "id"}
#: Calls that allocate containers (flagged inside hot loops).
_HOT_ALLOC_CALLS = {
    "list", "dict", "set", "frozenset", "sorted", "tuple", "bytearray",
    "deque", "defaultdict",
}
#: threading primitives whose construction inside a fork worker is unsafe.
_THREADING_PRIMITIVES = {
    "Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore",
    "Barrier", "Event",
}

_SUPPRESS_RE = re.compile(r"#\s*lint:\s*ok(?:\(([^)]*)\))?")
_HOT_RE = re.compile(r"#\s*hot-loop\s*(?:$|[^:])")
_COLD_RE = re.compile(r"#\s*hot-loop:\s*cold\b")
_FORK_ENTRY_RE = re.compile(r"#\s*fork-entry\b")


# ----------------------------------------------------------------------
# Shared per-file context
# ----------------------------------------------------------------------
class _FileContext:
    """One parsed source file plus its comment-derived line markers."""

    def __init__(self, path: str, text: str) -> None:
        self.path = path
        self.text = text
        self.tree = ast.parse(text, filename=path)
        self.lines = text.splitlines()
        #: line number -> set of suppressed check ids (empty set = all).
        self.suppressed: Dict[int, Set[str]] = {}
        self.hot_marker_lines: Set[int] = set()
        self.cold_lines: Set[int] = set()
        self.fork_entry_lines: Set[int] = set()
        for lineno, line in enumerate(self.lines, start=1):
            if "#" not in line:
                continue
            match = _SUPPRESS_RE.search(line)
            if match:
                ids = match.group(1)
                self.suppressed[lineno] = (
                    {part.strip() for part in ids.split(",") if part.strip()}
                    if ids
                    else set()
                )
            if _COLD_RE.search(line):
                self.cold_lines.add(lineno)
            elif _HOT_RE.search(line):
                self.hot_marker_lines.add(lineno)
            if _FORK_ENTRY_RE.search(line):
                self.fork_entry_lines.add(lineno)

    def is_suppressed(self, check: str, lineno: int) -> bool:
        ids = self.suppressed.get(lineno)
        return ids is not None and (not ids or check in ids)

    def add(
        self, report: LintReport, check: str, lineno: int, message: str
    ) -> None:
        if not self.is_suppressed(check, lineno):
            report.add(check, f"{self.path}:{lineno}", message)


# ----------------------------------------------------------------------
# Determinism lint
# ----------------------------------------------------------------------
def _annotation_is_set(annotation: Optional[ast.expr]) -> bool:
    node = annotation
    if isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Attribute):
        return node.attr in _SET_ANNOTATIONS
    return isinstance(node, ast.Name) and node.id in _SET_ANNOTATIONS


class _SetTracker:
    """Which local names are set-valued in one scope (flow-insensitive).

    A name counts as a set iff it has at least one set-producing binding
    and *no* binding that is visibly something else -- conservative in the
    false-positive direction: one non-set rebinding (``x = sorted(x)``)
    drops the name.
    """

    def __init__(self, scope: ast.AST) -> None:
        annotated: Set[str] = set()
        hard_disqualified: Set[str] = set()

        if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
            arguments = scope.args
            for arg in (
                list(arguments.posonlyargs)
                + list(arguments.args)
                + list(arguments.kwonlyargs)
            ):
                if _annotation_is_set(arg.annotation):
                    annotated.add(arg.arg)

        bindings: List[Tuple[str, Optional[ast.expr], bool]] = []
        for node in _scope_walk(scope):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        bindings.append((target.id, node.value, False))
                    else:
                        for name_node in ast.walk(target):
                            if isinstance(name_node, ast.Name):
                                bindings.append((name_node.id, None, False))
            elif isinstance(node, ast.AnnAssign):
                if isinstance(node.target, ast.Name):
                    if _annotation_is_set(node.annotation):
                        annotated.add(node.target.id)
                    elif node.annotation is not None:
                        hard_disqualified.add(node.target.id)
            elif isinstance(node, ast.AugAssign):
                if isinstance(node.target, ast.Name):
                    bindings.append((node.target.id, None, True))
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                for name_node in ast.walk(node.target):
                    if isinstance(name_node, ast.Name):
                        hard_disqualified.add(name_node.id)
            elif isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    if isinstance(item.optional_vars, ast.Name):
                        hard_disqualified.add(item.optional_vars.id)

        # Iterate to a fixpoint (recomputing the verdicts each round) so a
        # chain like ``a = set(); b = a | c`` resolves regardless of how
        # the first round's empty environment judged it, while one visibly
        # non-set rebinding (``s = sorted(s)``) still disqualifies.
        env: Set[str] = set()
        for _ in range(len(bindings) + 2):
            candidates = set(annotated)
            disqualified = set(hard_disqualified)
            for name, value, is_aug in bindings:
                if value is None:
                    if not is_aug:  # tuple unpacking etc: unknown
                        disqualified.add(name)
                    continue
                if _is_set_expr(value, env):
                    candidates.add(name)
                else:
                    disqualified.add(name)
            new_env = candidates - disqualified
            if new_env == env:
                break
            env = new_env
        self.names = env


def _scope_walk(scope: ast.AST) -> Iterable[ast.AST]:
    """Walk *scope* without descending into nested function/class scopes."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)
        ):
            continue
        stack.extend(ast.iter_child_nodes(node))


def _is_set_expr(node: ast.expr, set_names: Set[str]) -> bool:
    """Syntactic judgement: does *node* evaluate to a set/frozenset?"""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Name):
        return node.id in set_names
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
            return True
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _SET_RETURNING_METHODS
            and _is_set_expr(func.value, set_names)
        ):
            return True
        return False
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)
    ):
        return _is_set_expr(node.left, set_names) or _is_set_expr(
            node.right, set_names
        )
    return False


def _first_generator_iter(node: ast.expr) -> Optional[ast.expr]:
    if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
        return node.generators[0].iter
    return None


class _DeterminismVisitor(ast.NodeVisitor):
    """Flag set-iteration order escaping into ordered artifacts."""

    def __init__(self, context: _FileContext, report: LintReport) -> None:
        self.context = context
        self.report = report
        self._scopes: List[_SetTracker] = [_SetTracker(context.tree)]
        self._sanitized = 0

    # -- scope management ----------------------------------------------
    def _set_names(self) -> Set[str]:
        return self._scopes[-1].names

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._scopes.append(_SetTracker(node))
        self.generic_visit(node)
        self._scopes.pop()

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    # -- sinks -----------------------------------------------------------
    def _unordered(self, node: ast.expr) -> bool:
        return _is_set_expr(node, self._set_names())

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        sanitizing = (
            isinstance(func, ast.Name) and func.id in _ORDER_INSENSITIVE
        )
        if not sanitizing and self._sanitized == 0 and node.args:
            if isinstance(func, ast.Name) and func.id in ("list", "tuple"):
                if self._unordered(node.args[0]):
                    self.context.add(
                        self.report,
                        CHECK_SET_ORDER,
                        node.lineno,
                        f"{func.id}() materializes set iteration order; "
                        "wrap the set in sorted(...)",
                    )
            elif isinstance(func, ast.Attribute) and func.attr == "join":
                arg = node.args[0]
                inner = _first_generator_iter(arg)
                if self._unordered(arg) or (
                    inner is not None and self._unordered(inner)
                ):
                    self.context.add(
                        self.report,
                        CHECK_SET_ORDER,
                        node.lineno,
                        "join() over set iteration order; sort first",
                    )
        if (
            self._sanitized == 0
            and isinstance(func, ast.Attribute)
            and func.attr == "pop"
            and not node.args
            and isinstance(func.value, ast.Name)
            and func.value.id in self._set_names()
        ):
            self.context.add(
                self.report,
                CHECK_SET_POP,
                node.lineno,
                f"set.pop() on {func.value.id!r} removes an arbitrary "
                "element",
            )
        if sanitizing:
            self._sanitized += 1
            self.generic_visit(node)
            self._sanitized -= 1
        else:
            self.generic_visit(node)

    def visit_ListComp(self, node: ast.ListComp) -> None:
        if self._sanitized == 0 and self._unordered(node.generators[0].iter):
            self.context.add(
                self.report,
                CHECK_SET_ORDER,
                node.lineno,
                "list comprehension materializes set iteration order; "
                "iterate sorted(...)",
            )
        self.generic_visit(node)

    def visit_For(self, node: ast.For) -> None:
        if self._sanitized == 0 and self._unordered(node.iter):
            sink = self._ordered_sink_in(node.body)
            if sink is not None:
                self.context.add(
                    self.report,
                    CHECK_SET_ORDER,
                    node.lineno,
                    f"loop over a set {sink}; iterate sorted(...) or make "
                    "the consumer order-insensitive",
                )
        self.generic_visit(node)

    def _ordered_sink_in(self, body: Sequence[ast.stmt]) -> Optional[str]:
        """Does this loop body leak iteration order into an ordered value?"""
        sorted_names = self._names_sorted_in_scope()
        for stmt in body:
            for node in ast.walk(stmt):
                if isinstance(node, (ast.Yield, ast.YieldFrom)):
                    return "yields in iteration order"
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("append", "extend", "insert")
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id not in sorted_names
                ):
                    return (
                        f"appends to {node.func.value.id!r} in iteration "
                        "order (never sorted afterwards)"
                    )
        return None

    def _names_sorted_in_scope(self) -> Set[str]:
        """Names that get sorted somewhere in the file (see lint_file)."""
        return self._sorted_names_cache

    # populated by lint_file before visiting
    _sorted_names_cache: Set[str] = set()


def _collect_sorted_names(scope: ast.AST) -> Set[str]:
    """Names ``X`` with ``X.sort()`` or ``sorted(X ...)`` in *scope*."""
    names: Set[str] = set()
    for node in _scope_walk(scope):
        if isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr == "sort"
                and isinstance(func.value, ast.Name)
            ):
                names.add(func.value.id)
            elif (
                isinstance(func, ast.Name)
                and func.id == "sorted"
                and node.args
                and isinstance(node.args[0], ast.Name)
            ):
                names.add(node.args[0].id)
    return names


# ----------------------------------------------------------------------
# Hot-loop lint
# ----------------------------------------------------------------------
class _HotLoopChecker:
    def __init__(self, context: _FileContext, report: LintReport) -> None:
        self.context = context
        self.report = report

    def run(self) -> None:
        if not self.context.hot_marker_lines:
            return
        for node in ast.walk(self.context.tree):
            if isinstance(node, (ast.For, ast.While)) and (
                node.lineno in self.context.hot_marker_lines
                or node.lineno - 1 in self.context.hot_marker_lines
            ):
                for stmt in node.body + getattr(node, "orelse", []):
                    self._check_stmt(stmt)

    # ------------------------------------------------------------------
    def _is_cold(self, node: ast.stmt) -> bool:
        return node.lineno in self.context.cold_lines

    def _check_stmt(self, stmt: ast.stmt) -> None:
        if self._is_cold(stmt):
            return
        if isinstance(stmt, ast.Try):
            self.context.add(
                self.report,
                CHECK_HOT_TRY,
                stmt.lineno,
                "try/except inside a hot loop; hoist it outside the marked "
                "region",
            )
            return
        if isinstance(
            stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            self.context.add(
                self.report,
                CHECK_HOT_ALLOC,
                stmt.lineno,
                "definition inside a hot loop allocates per iteration",
            )
            return
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.stmt):
                self._check_stmt(child)
            elif isinstance(child, ast.expr):
                self._check_expr(child, call_func=False)
            elif isinstance(child, (ast.withitem, ast.excepthandler)):
                for sub in ast.iter_child_nodes(child):
                    if isinstance(sub, ast.stmt):
                        self._check_stmt(sub)
                    elif isinstance(sub, ast.expr):
                        self._check_expr(sub, call_func=False)

    def _check_expr(self, node: ast.expr, *, call_func: bool) -> None:
        if isinstance(node, ast.Attribute):
            if isinstance(node.value, ast.Name) and node.value.id == "self":
                self.context.add(
                    self.report,
                    CHECK_HOT_ATTR,
                    node.lineno,
                    f"self.{node.attr} inside a hot loop; hoist to a local "
                    "before the loop",
                )
            elif not call_func:
                self.context.add(
                    self.report,
                    CHECK_HOT_ATTR,
                    node.lineno,
                    f"attribute lookup .{node.attr} inside a hot loop; "
                    "hoist to a local before the loop",
                )
            self._check_expr(node.value, call_func=False)
            return
        if isinstance(node, (ast.List, ast.Dict, ast.Set)):
            if not isinstance(getattr(node, "ctx", ast.Load()), ast.Store):
                self.context.add(
                    self.report,
                    CHECK_HOT_ALLOC,
                    node.lineno,
                    "container display allocates inside a hot loop",
                )
        elif isinstance(
            node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
        ):
            self.context.add(
                self.report,
                CHECK_HOT_ALLOC,
                node.lineno,
                "comprehension allocates inside a hot loop",
            )
        elif isinstance(node, (ast.JoinedStr, ast.Lambda)):
            self.context.add(
                self.report,
                CHECK_HOT_ALLOC,
                node.lineno,
                "f-string/lambda allocates inside a hot loop",
            )
        elif isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in _HOT_ALLOC_CALLS:
                self.context.add(
                    self.report,
                    CHECK_HOT_ALLOC,
                    node.lineno,
                    f"{func.id}() allocates inside a hot loop",
                )
            self._check_expr(func, call_func=True)
            for arg in node.args:
                self._check_expr(arg, call_func=False)
            for keyword in node.keywords:
                self._check_expr(keyword.value, call_func=False)
            return
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self._check_expr(child, call_func=False)
            elif isinstance(child, ast.comprehension):
                self._check_expr(child.iter, call_func=False)
                for condition in child.ifs:
                    self._check_expr(condition, call_func=False)


# ----------------------------------------------------------------------
# Unused-import lint
# ----------------------------------------------------------------------
def _quoted_names(annotation: Optional[ast.expr]) -> Iterable[str]:
    """Names read inside the string constants of an annotation."""
    if annotation is None:
        return
    for node in ast.walk(annotation):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                quoted = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            for inner in ast.walk(quoted):
                if isinstance(inner, ast.Name):
                    yield inner.id


def _names_read(tree: ast.Module) -> Set[str]:
    """Every name the module reads, including string annotations and the
    entries of ``__all__``."""
    read: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            read.update(_quoted_names(node.annotation))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            read.update(_quoted_names(node.returns))
        elif isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
                read.update(
                    item.value
                    for item in ast.walk(node.value)
                    if isinstance(item, ast.Constant) and isinstance(item.value, str)
                )
    return read


def _check_unused_imports(context: _FileContext, report: LintReport) -> None:
    """Flag module-level imports whose bound name the module never reads."""
    if os.path.basename(context.path) == "__init__.py":
        return
    read = _names_read(context.tree)
    unread: List[Tuple[int, str]] = []
    for node in _scope_walk(context.tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if alias.name != "*" and bound not in read:
                unread.append((getattr(alias, "lineno", node.lineno), bound))
    for lineno, bound in sorted(unread):
        context.add(
            report,
            CHECK_UNUSED_IMPORT,
            lineno,
            f"{bound!r} is imported but never used",
        )


# ----------------------------------------------------------------------
# Per-file entry points
# ----------------------------------------------------------------------
def lint_file(path: str, *, text: Optional[str] = None) -> LintReport:
    """Determinism, hot-loop and unused-import lint over one source file."""
    if text is None:
        with open(path, "r", encoding="utf-8") as stream:
            text = stream.read()
    report = LintReport(subject=path)
    try:
        context = _FileContext(path, text)
    except SyntaxError as exc:
        report.add("code.syntax", f"{path}:{exc.lineno}", str(exc.msg))
        return report

    visitor = _DeterminismVisitor(context, report)
    # Pre-compute, per scope, the names that get sorted -- the visitor
    # treats appends to them as sanitized.
    scopes = [context.tree] + [
        node
        for node in ast.walk(context.tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    sorted_names: Set[str] = set()
    for scope in scopes:
        sorted_names |= _collect_sorted_names(scope)
    visitor._sorted_names_cache = sorted_names
    visitor.visit(context.tree)

    _HotLoopChecker(context, report).run()
    _check_unused_imports(context, report)
    return report


def lint_files(paths: Sequence[str]) -> LintReport:
    """:func:`lint_file` over many files, one merged report."""
    merged = LintReport(subject="code")
    for path in paths:
        merged.extend(lint_file(path))
    return merged


# ----------------------------------------------------------------------
# Fork-safety lint
# ----------------------------------------------------------------------
class _ModuleInfo:
    def __init__(self, path: str, context: _FileContext) -> None:
        self.path = path
        self.context = context
        self.module_name = _module_name_of(path)
        self.functions: Dict[str, ast.AST] = {}
        self.classes: Dict[str, Dict[str, ast.AST]] = {}
        self.imports: Dict[str, str] = {}
        self.from_imports: Dict[str, Tuple[str, str]] = {}
        for node in ast.iter_child_nodes(context.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.functions[node.name] = node
            elif isinstance(node, ast.ClassDef):
                methods: Dict[str, ast.AST] = {}
                for sub in ast.iter_child_nodes(node):
                    if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        methods[sub.name] = sub
                self.classes[node.name] = methods
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    self.imports[alias.asname or alias.name.split(".")[0]] = (
                        alias.name
                    )
            elif isinstance(node, ast.ImportFrom) and node.module:
                for alias in node.names:
                    self.from_imports[alias.asname or alias.name] = (
                        node.module,
                        alias.name,
                    )


def _module_name_of(path: str) -> str:
    normalized = path.replace("\\", "/")
    marker = "src/repro/"
    index = normalized.rfind(marker)
    if index >= 0:
        dotted = normalized[index + len("src/") :]
        dotted = dotted[: -3] if dotted.endswith(".py") else dotted
        return dotted.rstrip("/").replace("/", ".").removesuffix(".__init__")
    stem = normalized.rsplit("/", 1)[-1]
    return stem[:-3] if stem.endswith(".py") else stem


def _detect_entries(info: _ModuleInfo) -> List[Tuple[str, ast.AST]]:
    """Fork-pool entry points defined in this module."""
    entries: List[Tuple[str, ast.AST]] = []
    referenced: Set[str] = set()
    for node in ast.walk(info.context.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in (
            "submit", "map", "apply_async",
        ):
            if node.args and isinstance(node.args[0], ast.Name):
                referenced.add(node.args[0].id)
        for keyword in node.keywords:
            if keyword.arg in ("target", "initializer") and isinstance(
                keyword.value, ast.Name
            ):
                referenced.add(keyword.value.id)
    for name in sorted(referenced):
        node = info.functions.get(name)
        if node is not None:
            entries.append((name, node))
    for name, node in info.functions.items():
        if (
            node.lineno in info.context.fork_entry_lines
            or node.lineno - 1 in info.context.fork_entry_lines
        ) and all(existing is not node for _, existing in entries):
            entries.append((name, node))
    return entries


def lint_fork_safety(
    paths: Sequence[str], *, texts: Optional[Dict[str, str]] = None
) -> LintReport:
    """Fork-safety lint over a file set (see module docstring)."""
    report = LintReport(subject="fork-safety")
    modules: List[_ModuleInfo] = []
    for path in paths:
        if texts is not None and path in texts:
            text = texts[path]
        else:
            with open(path, "r", encoding="utf-8") as stream:
                text = stream.read()
        try:
            modules.append(_ModuleInfo(path, _FileContext(path, text)))
        except SyntaxError as exc:
            report.add("code.syntax", f"{path}:{exc.lineno}", str(exc.msg))
    by_name: Dict[str, _ModuleInfo] = {}
    for info in modules:
        by_name[info.module_name] = info
        by_name.setdefault(info.module_name.rsplit(".", 1)[-1], info)

    # Seed the worklist with every detected entry point.
    worklist: List[Tuple[_ModuleInfo, str, ast.AST, str]] = []
    seen: Set[Tuple[str, str]] = set()
    for info in modules:
        for name, node in _detect_entries(info):
            key = (info.module_name, name)
            if key not in seen:
                seen.add(key)
                worklist.append((info, name, node, name))

    while worklist:
        info, qualname, node, entry = worklist.pop()
        _scan_worker_function(info, node, entry, report)
        for callee_info, callee_qualname, callee_node in _callees_of(
            info, qualname, node, by_name
        ):
            key = (callee_info.module_name, callee_qualname)
            if key not in seen:
                seen.add(key)
                worklist.append((callee_info, callee_qualname, callee_node, entry))
    return report


def _callees_of(
    info: _ModuleInfo,
    qualname: str,
    node: ast.AST,
    by_name: Dict[str, _ModuleInfo],
) -> List[Tuple[_ModuleInfo, str, ast.AST]]:
    """Resolvable static call edges out of one function."""
    enclosing_class = qualname.split(".", 1)[0] if "." in qualname else None
    callees: List[Tuple[_ModuleInfo, str, ast.AST]] = []

    def resolve_name(name: str) -> None:
        if name in info.functions:
            callees.append((info, name, info.functions[name]))
            return
        if name in info.classes:
            init = info.classes[name].get("__init__")
            if init is not None:
                callees.append((info, f"{name}.__init__", init))
            return
        imported = info.from_imports.get(name)
        if imported is not None:
            module_name, attr = imported
            target = by_name.get(module_name) or by_name.get(
                module_name.rsplit(".", 1)[-1]
            )
            if target is not None:
                if attr in target.functions:
                    callees.append((target, attr, target.functions[attr]))
                elif attr in target.classes:
                    init = target.classes[attr].get("__init__")
                    if init is not None:
                        callees.append(
                            (target, f"{attr}.__init__", init)
                        )

    for sub in ast.walk(node):
        if not isinstance(sub, ast.Call):
            continue
        func = sub.func
        if isinstance(func, ast.Name):
            resolve_name(func.id)
        elif isinstance(func, ast.Attribute) and isinstance(
            func.value, ast.Name
        ):
            owner = func.value.id
            if owner == "self" and enclosing_class is not None:
                methods = info.classes.get(enclosing_class, {})
                method = methods.get(func.attr)
                if method is not None:
                    callees.append(
                        (info, f"{enclosing_class}.{func.attr}", method)
                    )
                continue
            if owner in info.classes:
                method = info.classes[owner].get(func.attr)
                if method is not None:
                    callees.append((info, f"{owner}.{func.attr}", method))
                continue
            imported_class = info.from_imports.get(owner)
            if imported_class is not None:
                module_name, attr = imported_class
                target = by_name.get(module_name) or by_name.get(
                    module_name.rsplit(".", 1)[-1]
                )
                if target is not None and attr in target.classes:
                    method = target.classes[attr].get(func.attr)
                    if method is not None:
                        callees.append(
                            (target, f"{attr}.{func.attr}", method)
                        )
                continue
            module_alias = info.imports.get(owner)
            if module_alias is not None:
                target = by_name.get(module_alias) or by_name.get(
                    module_alias.rsplit(".", 1)[-1]
                )
                if target is not None and func.attr in target.functions:
                    callees.append(
                        (target, func.attr, target.functions[func.attr])
                    )
    return callees


def _scan_worker_function(
    info: _ModuleInfo, node: ast.AST, entry: str, report: LintReport
) -> None:
    """Flag lock/asyncio usage inside one fork-reachable function."""
    context = info.context

    def flag(lineno: int, what: str) -> None:
        context.add(
            report,
            CHECK_FORK_UNSAFE,
            lineno,
            f"{what} is reachable from fork-pool entry point {entry!r}; "
            "locks/event loops inherited across fork() deadlock or misfire "
            "in the child",
        )

    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name):
            owner_module = info.imports.get(sub.value.id)
            if owner_module == "asyncio":
                flag(sub.lineno, f"asyncio.{sub.attr}")
            elif (
                owner_module == "threading"
                and sub.attr in _THREADING_PRIMITIVES
            ):
                flag(sub.lineno, f"threading.{sub.attr}")
        elif isinstance(sub, ast.Name):
            imported = info.from_imports.get(sub.id)
            if imported is None:
                continue
            module_name, attr = imported
            if module_name == "asyncio" or module_name.startswith("asyncio."):
                flag(sub.lineno, f"asyncio.{attr}")
            elif module_name == "threading" and attr in _THREADING_PRIMITIVES:
                flag(sub.lineno, f"threading.{attr}")
