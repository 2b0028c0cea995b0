"""Layer-2 AST analyzers: a tripping and a clean fixture per check,
plus regressions pinning the real sources clean under their own rules."""

import glob
import textwrap

from repro.analysis.code_lint import (
    CHECK_FORK_UNSAFE,
    CHECK_HOT_ALLOC,
    CHECK_HOT_ATTR,
    CHECK_HOT_TRY,
    CHECK_SET_ORDER,
    CHECK_SET_POP,
    lint_file,
    lint_fork_safety,
)


def _lint(source: str):
    return lint_file("fixture.py", text=textwrap.dedent(source))


def _fork(source: str):
    source = textwrap.dedent(source)
    return lint_fork_safety(["fixture.py"], texts={"fixture.py": source})


class TestDeterminism:
    def test_list_of_set_trips(self):
        report = _lint(
            """
            def names(items):
                seen = {i.name for i in items}
                return list(seen)
            """
        )
        assert report.by_check(CHECK_SET_ORDER)

    def test_sorted_set_clean(self):
        report = _lint(
            """
            def names(items):
                seen = {i.name for i in items}
                return sorted(seen)
            """
        )
        assert report.ok

    def test_join_over_set_trips(self):
        report = _lint(
            """
            def render(s: set) -> str:
                return ", ".join(s)
            """
        )
        assert report.by_check(CHECK_SET_ORDER)

    def test_join_over_genexp_on_set_trips(self):
        report = _lint(
            """
            def render(s: set) -> str:
                return ", ".join(str(x) for x in s)
            """
        )
        assert report.by_check(CHECK_SET_ORDER)

    def test_loop_append_trips(self):
        report = _lint(
            """
            def collect(tags):
                out = []
                active = set(tags)
                for t in active:
                    out.append(t)
                return out
            """
        )
        assert report.by_check(CHECK_SET_ORDER)

    def test_loop_append_sorted_afterwards_clean(self):
        report = _lint(
            """
            def collect(tags):
                out = []
                active = set(tags)
                for t in active:
                    out.append(t)
                out.sort()
                return out
            """
        )
        assert report.ok

    def test_order_insensitive_reducers_clean(self):
        report = _lint(
            """
            def stats(s: frozenset):
                return sum(s), min(s), max(s), len(s), any(s), all(s)
            """
        )
        assert report.ok

    def test_set_operations_tracked_through_binops(self):
        report = _lint(
            """
            def merge(a, b):
                left = set(a)
                right = set(b)
                both = left | right
                return list(both)
            """
        )
        assert report.by_check(CHECK_SET_ORDER)

    def test_rebinding_to_sorted_clears_setness(self):
        report = _lint(
            """
            def canonical(x):
                s = set(x)
                s = sorted(s)
                return list(s)
            """
        )
        assert report.ok

    def test_set_pop_trips(self):
        report = _lint(
            """
            def take():
                pending = {1, 2, 3}
                return pending.pop()
            """
        )
        assert report.by_check(CHECK_SET_POP)

    def test_list_pop_clean(self):
        report = _lint(
            """
            def take(stack):
                stack = [1, 2, 3]
                return stack.pop()
            """
        )
        assert report.ok

    def test_suppression_comment(self):
        report = _lint(
            """
            def names(items):
                seen = {i.name for i in items}
                return list(seen)  # lint: ok(code.set-order-escape)
            """
        )
        assert report.ok


class TestHotLoop:
    def test_self_attribute_trips(self):
        report = _lint(
            """
            class S:
                def run(self):
                    i = 0
                    # hot-loop
                    while i < 10:
                        i += self.step
                    return i
            """
        )
        assert report.by_check(CHECK_HOT_ATTR)

    def test_allocation_trips(self):
        report = _lint(
            """
            def run(n):
                i = 0
                # hot-loop
                while i < n:
                    xs = [i]
                    i += 1
                return i
            """
        )
        assert report.by_check(CHECK_HOT_ALLOC)

    def test_try_trips(self):
        report = _lint(
            """
            def run(n):
                i = 0
                # hot-loop
                while i < n:
                    try:
                        i += 1
                    except ValueError:
                        break
                return i
            """
        )
        assert report.by_check(CHECK_HOT_TRY)

    def test_disciplined_loop_clean(self):
        # The idioms the flat-arena solver actually uses: method calls on
        # hoisted locals, constant tuples, slice reads, enumerate/range.
        report = _lint(
            """
            def run(arena, trail, heap):
                n = len(arena)
                i = 0
                # hot-loop
                while i < n:
                    lit = arena[i]
                    trail.append(lit)
                    heap.append((-lit, i))
                    block = arena[i : i + 4]
                    for j, b in enumerate(block):
                        i += 1
                return i
            """
        )
        assert report.ok, report.render()

    def test_cold_line_exempt(self):
        report = _lint(
            """
            def run(n):
                i = 0
                # hot-loop
                while i < n:
                    if i == 0:  # hot-loop: cold
                        rebuilt = [x for x in range(n)]
                    i += 1
                return i
            """
        )
        assert report.ok

    def test_unmarked_loop_not_checked(self):
        report = _lint(
            """
            def run(n):
                out = []
                while n:
                    out.append([n])
                    n -= 1
                return out
            """
        )
        assert report.ok

    def test_solver_hot_loops_stay_clean(self):
        # Regression: the marked loops in the flat-arena CDCL solver obey
        # their own discipline.  If this fails, either the solver grew an
        # allocation/attribute into a hot path (fix the solver) or the
        # discipline legitimately changed (update the analyzer's rules).
        report = lint_file("src/repro/sat/solver.py")
        assert report.ok, report.render()
        with open("src/repro/sat/solver.py", encoding="utf-8") as stream:
            assert stream.read().count("# hot-loop") >= 2

    def test_whole_tree_clean(self):
        # The repo-wide gate the CI lint job enforces, as a tier-1 test.
        paths = sorted(glob.glob("src/repro/**/*.py", recursive=True))
        assert paths
        for path in paths:
            report = lint_file(path)
            assert report.ok, report.render()


class TestForkSafety:
    def test_lock_in_worker_trips(self):
        report = _fork(
            """
            import threading
            from concurrent.futures import ProcessPoolExecutor

            def worker(x):
                lock = threading.Lock()
                return x

            def main(jobs):
                with ProcessPoolExecutor() as pool:
                    pool.map(worker, jobs)
            """
        )
        findings = report.by_check(CHECK_FORK_UNSAFE)
        assert findings and "worker" in findings[0].message

    def test_lock_reached_through_helper_trips(self):
        report = _fork(
            """
            import threading
            from concurrent.futures import ProcessPoolExecutor

            def helper():
                return threading.RLock()

            def worker(x):
                return helper()

            def main(jobs):
                with ProcessPoolExecutor() as pool:
                    pool.submit(worker, jobs)
            """
        )
        assert report.by_check(CHECK_FORK_UNSAFE)

    def test_asyncio_in_marked_entry_trips(self):
        report = _fork(
            """
            import asyncio

            def execute(spec):  # fork-entry
                return asyncio.new_event_loop()
            """
        )
        assert report.by_check(CHECK_FORK_UNSAFE)

    def test_parent_side_lock_clean(self):
        # Locks in the parent (the code *launching* the pool) are fine.
        report = _fork(
            """
            import threading
            from concurrent.futures import ProcessPoolExecutor

            def worker(x):
                return x * 2

            def main(jobs):
                lock = threading.Lock()
                with ProcessPoolExecutor() as pool:
                    pool.map(worker, jobs)
            """
        )
        assert report.ok

    def test_multiprocessing_primitives_clean(self):
        # multiprocessing Events/Queues are fork-aware by design; only
        # threading/asyncio primitives are flagged.
        report = _fork(
            """
            import multiprocessing
            from multiprocessing import Process

            def worker(stop, queue):
                while not stop.is_set():
                    queue.put(1)

            def main():
                stop = multiprocessing.Event()
                queue = multiprocessing.Queue()
                Process(target=worker, args=(stop, queue)).start()
            """
        )
        assert report.ok

    def test_real_worker_tree_stays_clean(self):
        # Regression over the real fork surfaces: the scheduler's cube
        # workers, the fleet solver child and the queue's job entry, and
        # the campaign job (detect_bug) those solver children run.
        paths = (
            sorted(glob.glob("src/repro/dist/*.py"))
            + sorted(glob.glob("src/repro/serve/*.py"))
            + ["src/repro/eval/campaign.py"]
        )
        report = lint_fork_safety(paths)
        assert report.ok, report.render()
