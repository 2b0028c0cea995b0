"""Structural lint over elaborated :class:`~repro.rtl.design.Design` netlists.

Every check here is purely structural -- no simulation, no solving, no
unrolling.  The linter walks a netlist's expression graphs once, keeps
the walks on it, and derives everything else from per-root support sets,
so a check against a property walks only the property.

Check catalog
=============

``netlist.comb-cycle`` (error)
    The expression graph contains a cycle.  The public expression API only
    builds DAGs, but a cycle can be forged (``object.__setattr__``) or
    produced by a buggy transform -- and bit-blasting and the unroller
    walk the graph expecting a DAG and would hang or overflow (hashing
    cuts the back edge instead).  When a cycle is
    found, support-based checks are skipped (their answers would be
    meaningless) and the report carries this error alone.
``netlist.bad-width`` (error)
    An input or state element declares a non-positive width.
``netlist.reset-out-of-range`` (error)
    A state element's reset value is not representable in its width.
``netlist.multiply-driven`` (error)
    One name is declared both as a primary input and a state element, or
    twice as a state element -- two drivers for one net.
``netlist.dangling-driver`` (error)
    A next-state expression is registered under a name that is not a state
    element (a driver without a net).
``netlist.no-next-state`` (error)
    A state element has no next-state expression (a floating register).
``netlist.width-mismatch`` (error)
    A state element's next-state expression has a different width.
``netlist.undriven`` (error)
    An expression references a signal that is neither an input nor a state
    element (a floating net).
``netlist.dead-input`` (warning)
    A primary input no expression ever reads.
``netlist.dead-state`` (warning)
    A state element nothing but its own next-state function ever reads --
    a dead cone that only burns solver variables.

QED-readiness (run when the design carries ``qed.``-prefixed signals, i.e.
it is the composition produced by :class:`repro.qed.harness.SymbolicQED`):

``netlist.qed-isolation`` (error)
    A QED-module state element's next-state cone reads core (non-QED)
    signals.  The QED instruction duplicator must be independent of the
    design under test -- it observes only its own queue/count state and its
    own instruction-stream inputs, and drives the core through the declared
    injection wiring alone.  A duplicate transform that peeked at core
    state could mask exactly the bugs it exists to expose.
``netlist.qed-injection-unreachable`` (error)
    The property cone, closed under sequential state dependencies and
    assumption coupling, never reaches a QED instruction input -- the
    focus-set opcodes the environment constrains cannot influence the
    property window, so the check would trivially pass.  The closure mirrors
    the engine's cone-of-influence assumption deferral: an assumption whose
    support intersects the reached set couples everything else it mentions
    (that is how ``qed.instr`` reaches the core: through the
    ``qed_wiring_instruction`` equality).

Bug-library sanity (:func:`lint_bug_library`):

``netlist.buglib-undeclared-diff`` (error)
    A buggy version's netlist differs from its clean base (same feature
    configuration, no bugs injected) on a signal none of its declared bugs
    claims to touch (see :attr:`repro.uarch.bugs.Bug.signals`).
``netlist.buglib-no-diff`` (error)
    A version declares a bug whose injection changed nothing -- the seeded
    defect is silently absent, so campaign detection results for it would
    measure noise.
"""

from __future__ import annotations

from dataclasses import replace
from fnmatch import fnmatchcase
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    TypeVar,
)

from repro.analysis.findings import WARNING, DesignLintError, LintReport
from repro.expr.bitvec import BV, BVVar
from repro.rtl.design import Design

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.isa.arch import ArchParams
    from repro.uarch.versions import DesignVersion

__all__ = [
    "CHECK_COMB_CYCLE",
    "CHECK_BAD_WIDTH",
    "CHECK_RESET_RANGE",
    "CHECK_MULTIPLY_DRIVEN",
    "CHECK_DANGLING_DRIVER",
    "CHECK_NO_NEXT_STATE",
    "CHECK_WIDTH_MISMATCH",
    "CHECK_UNDRIVEN",
    "CHECK_DEAD_INPUT",
    "CHECK_DEAD_STATE",
    "CHECK_QED_ISOLATION",
    "CHECK_QED_INJECTION",
    "CHECK_BUGLIB_UNDECLARED",
    "CHECK_BUGLIB_NO_DIFF",
    "QED_PREFIX",
    "check_design",
    "check_version_design",
    "clear_version_lint_memo",
    "expression_digest",
    "lint_bug_library",
    "lint_design",
    "lint_version_design",
]

CHECK_COMB_CYCLE = "netlist.comb-cycle"
CHECK_BAD_WIDTH = "netlist.bad-width"
CHECK_RESET_RANGE = "netlist.reset-out-of-range"
CHECK_MULTIPLY_DRIVEN = "netlist.multiply-driven"
CHECK_DANGLING_DRIVER = "netlist.dangling-driver"
CHECK_NO_NEXT_STATE = "netlist.no-next-state"
CHECK_WIDTH_MISMATCH = "netlist.width-mismatch"
CHECK_UNDRIVEN = "netlist.undriven"
CHECK_DEAD_INPUT = "netlist.dead-input"
CHECK_DEAD_STATE = "netlist.dead-state"
CHECK_QED_ISOLATION = "netlist.qed-isolation"
CHECK_QED_INJECTION = "netlist.qed-injection-unreachable"
CHECK_BUGLIB_UNDECLARED = "netlist.buglib-undeclared-diff"
CHECK_BUGLIB_NO_DIFF = "netlist.buglib-no-diff"

#: Signal-name prefix of the QED module added by the harness; its presence
#: switches the QED-readiness checks on.
QED_PREFIX = "qed."


# ----------------------------------------------------------------------
# Graph primitives (all cycle-safe: they terminate on forged cyclic graphs)
# ----------------------------------------------------------------------
def _find_cycle(roots: Iterable[Tuple[str, BV]]) -> Optional[Tuple[str, str]]:
    """Search the shared expression graph for a cycle.

    Returns ``(root_name, node_op)`` of the first back edge found, or
    ``None``.  Iterative DFS with grey (on stack) / black (finished)
    colouring over node identity; shared sub-DAGs are visited once.
    """
    finished: Set[int] = set()
    for root_name, root in roots:
        if id(root) in finished:
            continue
        on_stack: Set[int] = set()
        # Stack of (node, child_iterator); entering a node greys it.
        stack: List[Tuple[BV, Iterable[BV]]] = [(root, iter(root.children))]
        on_stack.add(id(root))
        while stack:
            node, children = stack[-1]
            child = next(children, None)
            if child is None:
                stack.pop()
                on_stack.discard(id(node))
                finished.add(id(node))
                continue
            if id(child) in on_stack:
                return root_name, child.op
            if id(child) not in finished:
                stack.append((child, iter(child.children)))
                on_stack.add(id(child))
    return None


_T = TypeVar("_T")


def _post_order(
    expr: BV, memo: Dict[int, _T], step: Callable[[BV, Dict[int, _T]], _T]
) -> _T:
    """Fold *expr*'s graph into *memo* (node id -> value), children first.

    ``step(node, memo)`` runs once for every node not yet in *memo*, after
    the children it reaches; callers share one memo between the roots of a
    design, so logic shared between roots is folded once.  A forged
    cycle's back edge is cut: that child is missing from *memo* when its
    parent's step runs, and the walk terminates.
    """
    cached = memo.get(id(expr))
    if cached is not None:
        return cached
    grey: Set[int] = set()
    stack: List[Tuple[BV, bool]] = [(expr, False)]
    while stack:
        node, expanded = stack.pop()
        if id(node) in memo:
            continue
        if not expanded:
            if id(node) in grey:
                continue  # cycle back edge; terminate regardless
            grey.add(id(node))
            stack.append((node, True))
            stack.extend(
                (child, False)
                for child in node.children
                if id(child) not in memo
            )
            continue
        memo[id(node)] = step(node, memo)
    return memo[id(expr)]


def _support_step(node: BV, memo: Dict[int, FrozenSet[str]]) -> FrozenSet[str]:
    if isinstance(node, BVVar):
        return frozenset((node.name,))
    support: Set[str] = set()
    for child in node.children:
        support |= memo.get(id(child), frozenset())
    return frozenset(support)


def _support_of(expr: BV, memo: Dict[int, FrozenSet[str]]) -> FrozenSet[str]:
    """Variable support of *expr*, memoized per node across calls."""
    return _post_order(expr, memo, _support_step)


def expression_digest(expr: BV, memo: Optional[Dict[int, str]] = None) -> str:
    """Canonical structural digest of one expression (cycle-safe).

    Two expressions digest equal iff they are structurally identical; used
    by :func:`lint_bug_library` to diff per-signal logic between a buggy
    version and its clean base.  A node's digest hashes its operator,
    width and parameters with its children's digests (a cut back edge
    reads ``-``), so one *memo* (node id -> digest) shared between the
    roots of a design hashes each node once, and a signal's digest is its
    root's.
    """
    import hashlib

    def step(node: BV, digests: Dict[int, str]) -> str:
        parts = [
            ",".join(digests.get(id(child), "-") for child in item)
            if isinstance(item, tuple)
            else str(item)
            for item in node._key()
        ]
        return hashlib.sha256("|".join(parts).encode()).hexdigest()

    return _post_order(expr, {} if memo is None else memo, step)


# ----------------------------------------------------------------------
# The design linter
# ----------------------------------------------------------------------
def lint_design(design: Design, *, prop: Optional[BV] = None) -> LintReport:
    """Run every structural check over *design*; never raises.

    ``prop`` is the 1-bit safety-property expression the engine will check
    (when known): it extends liveness analysis (a state element only the
    property reads is not dead) and enables the QED injection-reachability
    check.  The design's own walks (cycle search, per-root support) and
    its property-free report are found once and kept on it
    (``Design.lint_memo``), so a call with ``prop`` walks only the
    property.  The core's ``hist_*`` monitoring block gives seeded bugs
    their trigger context, so clean versions never read parts of it: it
    skips the dead-state warning.
    """
    if design.lint_memo is None:
        roots: List[Tuple[str, BV]] = (
            [(f"next({n})", e) for n, e in design.next_state.items()]
            + [(f"output {n}", e) for n, e in design.outputs.items()]
            + [(f"assume {n}", e) for n, e in design.assumptions.items()]
        )
        cycle = _find_cycle(roots)
        memo: Dict[int, FrozenSet[str]] = {}
        support = {} if cycle else {n: _support_of(e, memo) for n, e in roots}
        design.lint_memo = (cycle, support, _lint(design, cycle, support, None))
    cycle, support, report = design.lint_memo
    return report if prop is None else _lint(design, cycle, support, prop)


def _lint(
    design: Design,
    cycle: Optional[Tuple[str, str]],
    root_support: Dict[str, FrozenSet[str]],
    prop: Optional[BV],
) -> LintReport:
    report = LintReport(subject=design.name or "<design>")
    state_names = [element.name for element in design.state]
    known = set(design.inputs) | set(state_names)

    # -- declarations ---------------------------------------------------
    for input_name, width in design.inputs.items():
        if width <= 0:
            report.add(
                CHECK_BAD_WIDTH,
                input_name,
                f"input declares non-positive width {width}",
            )
    seen_state: Set[str] = set()
    for element in design.state:
        if element.width <= 0:
            report.add(
                CHECK_BAD_WIDTH,
                element.name,
                f"state element declares non-positive width {element.width}",
            )
        elif not 0 <= element.reset < (1 << element.width):
            report.add(
                CHECK_RESET_RANGE,
                element.name,
                f"reset value {element.reset} does not fit in "
                f"{element.width} bit(s)",
            )
        if element.name in seen_state:
            report.add(
                CHECK_MULTIPLY_DRIVEN,
                element.name,
                "state element declared twice",
            )
        seen_state.add(element.name)
        if element.name in design.inputs:
            report.add(
                CHECK_MULTIPLY_DRIVEN,
                element.name,
                "name declared both as primary input and state element",
            )
    for driver_name in design.next_state:
        if driver_name not in seen_state:
            report.add(
                CHECK_DANGLING_DRIVER,
                driver_name,
                "next-state expression for a name that is not a state element",
            )

    # -- cycle check ----------------------------------------------------
    if cycle is None and prop is not None:
        cycle = _find_cycle([("property", prop)])
    if cycle is not None:
        root_name, node_op = cycle
        report.add(
            CHECK_COMB_CYCLE,
            root_name,
            f"combinational cycle through a {node_op!r} node; "
            "support-based checks skipped (the graph is not a DAG)",
        )
        return report

    # -- support-based checks -------------------------------------------
    support = dict(root_support)
    # A property may read the design's *output* nets by name; the engine
    # substitutes the output expression there, so fold each referenced
    # output's own cone into the property support instead of flagging the
    # output name as an undriven net.
    if prop is not None:
        support["property"] = _support_of(prop, {})
        output_reads = {
            name for name in support["property"] if name in design.outputs
        }
        if output_reads:
            expanded = set(support["property"]) - output_reads
            for output_name in output_reads:
                expanded |= support[f"output {output_name}"]
            support["property"] = frozenset(expanded)
    used: Set[str] = set()
    for names in support.values():
        used |= names
    undriven = used - known
    for name in sorted(undriven):
        report.add(
            CHECK_UNDRIVEN,
            name,
            "referenced by expressions but neither an input nor a state "
            "element",
        )

    for element in design.state:
        expr = design.next_state.get(element.name)
        if expr is None:
            report.add(
                CHECK_NO_NEXT_STATE,
                element.name,
                "state element has no next-state expression",
            )
        elif expr.width != element.width:
            report.add(
                CHECK_WIDTH_MISMATCH,
                element.name,
                f"state element is {element.width} bit(s) wide but its "
                f"next-state expression is {expr.width}",
            )

    for input_name in design.inputs:
        if input_name not in used:
            report.add(
                CHECK_DEAD_INPUT,
                input_name,
                "primary input is never read",
                severity=WARNING,
            )
    # A state element is live when something *other than its own
    # next-state function* reads it: another element's next-state, an
    # output, an assumption, or the property.
    read_elsewhere: Set[str] = set()
    for name, names in support.items():
        for element_name in state_names:
            if name == f"next({element_name})":
                read_elsewhere |= names - {element_name}
                break
        else:
            read_elsewhere |= names
    for element in design.state:
        if element.name not in read_elsewhere and not element.name.startswith(
            "hist_"
        ):
            report.add(
                CHECK_DEAD_STATE,
                element.name,
                "state element feeds nothing but its own next-state cone",
                severity=WARNING,
            )

    # -- QED readiness --------------------------------------------------
    if any(name.startswith(QED_PREFIX) for name in known):
        _lint_qed_readiness(design, report, support, prop=prop)
    return report


def _lint_qed_readiness(
    design: Design,
    report: LintReport,
    support: Dict[str, FrozenSet[str]],
    *,
    prop: Optional[BV],
) -> None:
    """The two QED-composition checks (see module docstring)."""
    # Isolation: the QED module observes nothing of the core.
    for element in design.state:
        if not element.name.startswith(QED_PREFIX):
            continue
        cone = support.get(f"next({element.name})", frozenset())
        foreign = {name for name in cone if not name.startswith(QED_PREFIX)}
        if foreign:
            report.add(
                CHECK_QED_ISOLATION,
                element.name,
                "QED-module state must not observe core signals, but its "
                "next-state cone reads: " + ", ".join(sorted(foreign)),
            )

    # Injection reachability: the property cone, closed under state
    # dependencies and assumption coupling, must include a QED input.
    if prop is None:
        return
    qed_inputs = {
        name for name in design.inputs if name.startswith(QED_PREFIX)
    }
    if not qed_inputs:
        report.add(
            CHECK_QED_INJECTION,
            "inputs",
            f"design carries {QED_PREFIX}* state but no {QED_PREFIX}* "
            "primary input to inject instructions through",
        )
        return
    assumption_support = [
        support[f"assume {name}"] for name in design.assumptions
    ]
    reached = set(support["property"])
    changed = True
    while changed:
        changed = False
        for element_name in sorted(reached):
            cone = support.get(f"next({element_name})")
            if cone is not None and not cone <= reached:
                reached |= cone
                changed = True
        for names in assumption_support:
            if names & reached and not names <= reached:
                reached |= names
                changed = True
    if not qed_inputs & reached:
        report.add(
            CHECK_QED_INJECTION,
            "property",
            "no QED instruction input reaches the property cone (closed "
            "under state dependencies and assumption coupling) -- the "
            "focus-set constraints cannot influence the check",
        )


def check_design(design: Design, *, prop: Optional[BV] = None) -> None:
    """Fail-fast precheck: raise :class:`DesignLintError` on any error."""
    report = lint_design(design, prop=prop)
    if not report.ok:
        raise DesignLintError(report)


# ----------------------------------------------------------------------
# Version-level lint (the campaign/serving precheck)
# ----------------------------------------------------------------------
def lint_version_design(
    version: "DesignVersion", arch: Optional["ArchParams"] = None
) -> LintReport:
    """Lint the elaborated netlist of one design version.

    This is the netlist's own report (:func:`lint_design` without a
    property).  :func:`repro.uarch.core.build_core` shares one netlist per
    configuration and process, so a campaign that checks the same version
    under four QED features builds and lints it once, and every call
    returns the same report until :func:`clear_version_lint_memo`.
    """
    from repro.isa.arch import TINY_PROFILE
    from repro.uarch.designs import build_design

    return lint_design(
        build_design(version, arch=arch if arch is not None else TINY_PROFILE)
    )


def check_version_design(
    version: "DesignVersion", arch: Optional["ArchParams"] = None
) -> None:
    """Raise :class:`DesignLintError` when a version's netlist fails lint."""
    report = lint_version_design(version, arch)
    if not report.ok:
        raise DesignLintError(report)


def clear_version_lint_memo() -> None:
    """Drop the process's shared core netlists, and with them their lint
    reports: the next build elaborates and lints afresh (test isolation
    hook; tests that monkeypatch :func:`repro.uarch.designs.build_design`
    call it)."""
    from repro.uarch.core import build_core

    build_core.cache_clear()


# ----------------------------------------------------------------------
# Bug-library sanity
# ----------------------------------------------------------------------
def _signal_digests(design: Design) -> Dict[str, str]:
    """Per-signal structural digests (next-state, outputs, assumptions).

    One memo serves the whole design, so logic shared between signals is
    hashed once.
    """
    memo: Dict[int, str] = {}
    digests: Dict[str, str] = {}
    for section, exprs in (
        ("next", design.next_state),
        ("output", design.outputs),
        ("assume", design.assumptions),
    ):
        for name, expr in exprs.items():
            digests[f"{section}:{name}"] = expression_digest(expr, memo)
    for element in design.state:
        digests[f"state:{element.name}"] = (
            f"{element.width}:{element.reset}"
        )
    for input_name, width in design.inputs.items():
        digests[f"input:{input_name}"] = str(width)
    return digests


def _design_diff(buggy: Design, clean: Design) -> List[str]:
    """Signals whose declaration or logic differs between two designs."""
    left = _signal_digests(buggy)
    right = _signal_digests(clean)
    return sorted(
        key
        for key in set(left) | set(right)
        if left.get(key) != right.get(key)
    )


def lint_bug_library(
    versions: Optional[Sequence["DesignVersion"]] = None,
    arch: Optional["ArchParams"] = None,
) -> LintReport:
    """Check that every version's netlist diff matches its declared bugs.

    For each buggy version the clean base is the *same* feature
    configuration with no bugs injected -- so the diff isolates exactly the
    bug injections, not the version-to-version feature changes.  Every
    differing signal must match a pattern some present bug declares
    (:attr:`repro.uarch.bugs.Bug.signals`), and every declared bug must
    actually change something.
    """
    from repro.uarch.bugs import bug_by_id
    from repro.uarch.core import build_core
    from repro.uarch.designs import build_design, config_for_version
    from repro.uarch.versions import ALL_VERSIONS

    from repro.isa.arch import TINY_PROFILE

    resolved_arch = arch if arch is not None else TINY_PROFILE
    selected = list(versions) if versions is not None else list(ALL_VERSIONS)
    report = LintReport(subject="bug-library")
    for version in selected:
        if not version.bugs:
            continue
        config = config_for_version(version, arch=resolved_arch)
        buggy = build_design(version, arch=resolved_arch)
        clean = build_core(replace(config, bugs=frozenset()))
        diff = _design_diff(buggy, clean)
        declared: Dict[str, Tuple[str, ...]] = {
            bug_id: bug_by_id(bug_id).signals
            for bug_id in sorted(version.bugs)
        }
        patterns = [
            pattern
            for signal_patterns in declared.values()
            for pattern in signal_patterns
        ]
        undeclared = [
            signal
            for signal in diff
            if not any(
                fnmatchcase(signal.split(":", 1)[1], pattern)
                for pattern in patterns
            )
        ]
        if undeclared:
            report.add(
                CHECK_BUGLIB_UNDECLARED,
                version.name,
                "netlist differs from the clean base on signals no "
                "declared bug touches: " + ", ".join(undeclared),
            )
        for bug_id, signal_patterns in declared.items():
            if not signal_patterns:
                report.add(
                    CHECK_BUGLIB_NO_DIFF,
                    f"{version.name}:{bug_id}",
                    "bug declares no touched signals; the diff cannot be "
                    "attributed",
                )
                continue
            hit = any(
                fnmatchcase(signal.split(":", 1)[1], pattern)
                for signal in diff
                for pattern in signal_patterns
            )
            if not hit:
                report.add(
                    CHECK_BUGLIB_NO_DIFF,
                    f"{version.name}:{bug_id}",
                    "declared bug changed nothing in this version's "
                    "netlist (injection silently absent?)",
                )
    return report
