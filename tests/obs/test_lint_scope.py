"""Static-lint regression coverage for the instrumented code paths.

The observability layer records from inside forked workers, so the whole
``repro.obs`` package sits in the fork-safety lint scope; and the solver
instrumentation must never touch a ``# hot-loop`` region -- both enforced
here so a future edit cannot silently regress them.
"""

import ast
import glob
import inspect
import os
import re

import pytest

from repro.analysis.code_lint import lint_file, lint_fork_safety

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _src(*parts):
    return os.path.join(REPO_ROOT, "src", "repro", *parts)


#: Names of the cube-pool extras that went: the solver personalities,
#: cross-cube clause sharing and blocked-clause elimination.
REMOVED_POOL_NAMES = (
    "DIVERSE_CONFIGS",
    "PortfolioConfig",
    "enable_blocked",
    "reconstruct_blocked",
    "BlockedRecord",
    "enable_clause_export",
    "drain_exported",
    "share_clauses",
    "SHARE_MAX_LBD",
    "SHARE_QUEUE_SIZE",
    "qed_clauses_shared",
)


class TestHotLoopStaysClean:
    def test_instrumented_solver_passes_hot_loop_lint(self):
        # The CDCL solver carries observer events on its cold branches
        # (restart, DB reduce, deadline polls); its ``# hot-loop`` regions
        # (_propagate, _lit_redundant) must stay allocation- and call-free.
        report = lint_file(_src("sat", "solver.py"))
        assert report.ok, [f.message for f in report.errors]

    def test_instrumented_engine_and_scheduler_pass(self):
        for path in (_src("bmc", "engine.py"), _src("dist", "scheduler.py")):
            report = lint_file(path)
            assert report.ok, (path, [f.message for f in report.errors])


class TestOneClock:
    def test_no_perf_counter_in_src(self):
        # Every duration is read off the span that measures it; a second
        # clock (``time.perf_counter``) would time the same work twice.
        pattern = os.path.join(REPO_ROOT, "src", "repro", "**", "*.py")
        paths = sorted(glob.glob(pattern, recursive=True))
        assert paths, "src/repro not found"
        offenders = []
        for path in paths:
            with open(path, "r", encoding="utf-8") as stream:
                if "perf_counter" in stream.read():
                    offenders.append(os.path.relpath(path, REPO_ROOT))
        assert offenders == []


class TestOneDispatchPath:
    def test_eval_imports_no_process_pool(self):
        # Campaign jobs run on the job queue's leases; a pool of the eval
        # package's own would be a second dispatch path without them.
        paths = sorted(glob.glob(_src("eval", "*.py")))
        assert paths, "eval package not found"
        offenders = []
        for path in paths:
            with open(path, "r", encoding="utf-8") as stream:
                tree = ast.parse(stream.read(), filename=path)
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module or ""]
                else:
                    continue
                offenders.extend(
                    (os.path.basename(path), name)
                    for name in names
                    if name.split(".")[0] in ("multiprocessing", "concurrent")
                )
        assert offenders == []


class TestOneSplitPath:
    def test_dist_forks_in_one_place(self):
        # Cube-and-conquer is the one way to split a proof: its pool worker
        # is the package's only fork entry and only process it starts.
        entries, spawns = [], []
        for path in sorted(glob.glob(_src("dist", "*.py"))):
            name = os.path.basename(path)
            with open(path, "r", encoding="utf-8") as stream:
                for line in stream:
                    if "# fork-entry" in line:
                        entries.append((name, line.strip()))
                    if ".Process(" in line:
                        spawns.append(name)
        assert entries == [("scheduler.py", "def _pool_worker(  # fork-entry")]
        assert spawns == ["scheduler.py"]

    def test_dist_exports_no_second_solve_entry(self):
        # WorkScheduler.solve is the one way in; a module-level solve
        # function next to it would be a second split path (the removed
        # portfolio race was one).
        import repro.dist

        assert [n for n in repro.dist.__all__ if "solve" in n.lower()] == []

    def test_every_cube_runs_the_one_plain_solver(self):
        # No per-worker solver personalities: the solver takes no heuristic
        # settings, and the package builds it in one place, which both the
        # inline cube loop and every pool worker call.
        from repro.sat.solver import CDCLSolver

        assert list(inspect.signature(CDCLSolver).parameters) == ["cnf"]
        builds = []
        for path in sorted(glob.glob(_src("dist", "*.py"))):
            with open(path, "r", encoding="utf-8") as stream:
                builds.extend(
                    os.path.basename(path)
                    for line in stream
                    if "CDCLSolver(" in line
                )
        assert builds == ["scheduler.py"]

    @pytest.mark.parametrize("name", REMOVED_POOL_NAMES)
    def test_removed_pool_extra_stays_gone(self, name):
        # Every UNSAT answer must rest on one plain solver's own proof per
        # cube.  The one use left is a literal key of a removed setting,
        # which old config dicts may still carry.
        word = re.compile(rf"\b{name}\b")
        hits = []
        for top in ("src", "scripts", "examples"):
            pattern = os.path.join(REPO_ROOT, top, "**", "*.py")
            for path in sorted(glob.glob(pattern, recursive=True)):
                with open(path, "r", encoding="utf-8") as stream:
                    hits.extend(
                        f"{os.path.relpath(path, REPO_ROOT)}:{number}"
                        for number, line in enumerate(stream, 1)
                        if word.search(line.replace(f'"{name}":', ""))
                    )
        assert hits == []


class TestObsInForkScope:
    def test_obs_package_passes_fork_safety_lint(self):
        paths = sorted(glob.glob(_src("obs", "*.py")))
        assert paths, "obs package not found"
        report = lint_fork_safety(paths)
        assert report.ok, [f.message for f in report.errors]

    def test_lint_script_includes_obs_in_fork_globs(self):
        script = os.path.join(REPO_ROOT, "scripts", "lint_repro.py")
        with open(script, "r", encoding="utf-8") as stream:
            text = stream.read()
        assert "src/repro/obs/*.py" in text
