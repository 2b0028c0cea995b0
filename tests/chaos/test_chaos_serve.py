"""Chaos scenarios through the full HTTP serving stack.

Client-side connection faults must be absorbed by the idempotent retry
loop (POST /jobs is content-addressed, so a replay coalesces instead of
double-running), and a SIGTERM-style drain must persist queued work that
a restarted server resumes -- the operator-visible contract of
``scripts/serve_qed.py``.
"""

import os
import time

import pytest

from repro import faults
from repro.serve import LocalServer, ServeClient, ServeError
from repro.serve.queue import _selftest_entry

from chaos_helpers import make_spec as spec


def _server(tmp_path, **kwargs):
    kwargs.setdefault("cache_dir", str(tmp_path / "cache"))
    kwargs.setdefault("entry", _selftest_entry)
    return LocalServer(**kwargs)


class TestClientRetry:
    """Scenario: the TCP connection resets mid-request; the retry wins."""

    def test_connection_reset_is_retried_transparently(self, tmp_path):
        injector = faults.FaultInjector(
            [
                faults.FaultSpec(
                    site="serve.client.request", action="reset", at=1, count=1
                )
            ],
            seed=23,
        )
        faults.install(injector)
        with _server(tmp_path) as url:
            client = ServeClient(url, retry_backoff=0.01)
            view = client.submit(spec=spec("__echo__", tag="reset-once"))
            final = client.wait_done(view.job_id, timeout=10)
        assert final.state == "done"
        assert final.record["qed_definitive"] is True
        # The fault really fired: the first attempt died on the wire.
        assert ("serve.client.request", "reset", 1) in injector.fired

    def test_reset_storm_exhausts_retries_with_clear_error(self, tmp_path):
        faults.install(
            faults.FaultInjector(
                [
                    faults.FaultSpec(
                        site="serve.client.request",
                        action="reset",
                        at=1,
                        count=0,
                    )
                ],
                seed=23,
            )
        )
        with _server(tmp_path) as url:
            client = ServeClient(url, retries=2, retry_backoff=0.01)
            with pytest.raises(ServeError) as excinfo:
                client.submit(spec=spec("__echo__", tag="reset-storm"))
        # A transport-level failure, not a fabricated HTTP status.
        assert excinfo.value.status is None


class TestDrainResume:
    """Scenario: SIGTERM drain persists queued work; a restart resumes it."""

    def test_drain_persists_and_restart_completes_the_job(self, tmp_path):
        state_path = str(tmp_path / "queue_state.json")
        cache_dir = str(tmp_path / "cache")

        first = LocalServer(
            cache_dir=cache_dir,
            entry=_selftest_entry,
            state_path=state_path,
        )
        url = first.start()
        try:
            client = ServeClient(url, retry_backoff=0.01)
            assert client.healthy()

            blocker = client.submit(spec=spec("__sleep:0.3__"))
            deadline = time.monotonic() + 10.0
            while client.job(blocker.job_id).state == "queued":
                assert time.monotonic() < deadline, "blocker never started"
                time.sleep(0.01)
            survivor = client.submit(
                spec=spec("__echo__", tag="survivor"), deadline_seconds=60.0
            )

            state = first.drain()
            [item] = state["queued"]
            assert item["spec"]["config"]["tag"] == "survivor"

            # Draining: readiness trips and new work is refused with 503.
            assert not client.healthy()
            with pytest.raises(ServeError) as excinfo:
                client.submit(spec=spec("__echo__", tag="late"))
            assert excinfo.value.status == 503

            assert os.path.exists(state_path)
            # The blocker finished cleanly before the snapshot was cut.
            assert client.job(blocker.job_id).state == "done"
        finally:
            first.stop()

        second = LocalServer(
            cache_dir=cache_dir,
            entry=_selftest_entry,
            state_path=state_path,
        )
        url = second.start()
        try:
            # The snapshot was consumed on resubmission...
            assert not os.path.exists(state_path)
            client = ServeClient(url, retry_backoff=0.01)
            # ...and the survivor runs to completion on the restarted server.
            deadline = time.monotonic() + 10.0
            record = None
            while record is None and time.monotonic() < deadline:
                record = client.result(survivor.cache_key)
                if record is None:
                    time.sleep(0.02)
            assert record is not None, "restored job never completed"
            assert record["record"]["qed_definitive"] is True
            assert client.healthy()
        finally:
            second.stop()
