"""Static-lint regression coverage for the instrumented code paths.

The observability layer records from inside forked workers, so the whole
``repro.obs`` package sits in the fork-safety lint scope; and the solver
instrumentation must never touch a ``# hot-loop`` region -- both enforced
here so a future edit cannot silently regress them.
"""

import ast
import glob
import os

from repro.analysis.code_lint import lint_file, lint_fork_safety

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _src(*parts):
    return os.path.join(REPO_ROOT, "src", "repro", *parts)


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
