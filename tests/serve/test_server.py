"""HTTP front end: protocol robustness, long-poll streaming, restarts.

The servers here run the deterministic selftest entry on threads, so every
test is sub-second; real solver execution is covered by
``test_campaign_equivalence.py``.
"""

import json
import socket

import pytest

from repro.serve import LocalServer, ServeClient, ServeError
from repro.serve.queue import _selftest_entry
from serve_helpers import make_spec as spec


@pytest.fixture()
def server(tmp_path):
    with LocalServer(
        cache_dir=str(tmp_path), entry=_selftest_entry, use_processes=False
    ) as url:
        yield ServeClient(url)


def _raw_exchange(client: ServeClient, payload: bytes) -> bytes:
    with socket.create_connection((client.host, client.port), timeout=5) as sock:
        sock.sendall(payload)
        sock.shutdown(socket.SHUT_WR)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    return b"".join(chunks)


class TestProtocolRobustness:
    """Hostile input gets a 4xx on its own connection; the server lives."""

    def test_garbage_request_line(self, server):
        response = _raw_exchange(server, b"THIS IS NOT HTTP\r\n\r\n")
        assert response.startswith(b"HTTP/1.1 400")
        assert server.healthy()

    def test_binary_noise(self, server):
        response = _raw_exchange(server, b"\x00\xff\xfe\x01\r\n\r\n")
        assert response.startswith(b"HTTP/1.1 400")
        assert server.healthy()

    def test_malformed_header(self, server):
        response = _raw_exchange(
            server, b"GET /stats HTTP/1.1\r\nno-colon-here\r\n\r\n"
        )
        assert response.startswith(b"HTTP/1.1 400")
        assert server.healthy()

    def test_invalid_json_body(self, server):
        body = b"{not json"
        request = (
            b"POST /jobs HTTP/1.1\r\nContent-Length: "
            + str(len(body)).encode()
            + b"\r\n\r\n"
            + body
        )
        response = _raw_exchange(server, request)
        assert response.startswith(b"HTTP/1.1 400")
        assert server.healthy()

    def test_oversized_body_rejected(self, server):
        request = b"POST /jobs HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n"
        response = _raw_exchange(server, request)
        assert response.startswith(b"HTTP/1.1 400")
        assert server.healthy()

    def test_unknown_route_and_method(self, server):
        with pytest.raises(ServeError) as excinfo:
            server._request("GET", "/no/such/route")
        assert excinfo.value.status == 404
        with pytest.raises(ServeError) as excinfo:
            server._request("DELETE", "/jobs")  # jobs wants POST or GET
        assert excinfo.value.status == 405
        assert server.healthy()

    def test_non_object_spec_is_a_client_error(self, server):
        for bad_spec in ("abc", [], 7):
            with pytest.raises(ServeError) as excinfo:
                server._request("POST", "/jobs", {"spec": bad_spec})
            assert excinfo.value.status == 400
        assert server.healthy()

    def test_submit_without_spec_or_bug(self, server):
        with pytest.raises(ServeError) as excinfo:
            server._request("POST", "/jobs", {"nothing": True})
        assert excinfo.value.status == 400
        # ...and with an unknown bug id:
        with pytest.raises(ServeError) as excinfo:
            server._request("POST", "/jobs", {"bug_id": "no_such_bug"})
        assert excinfo.value.status == 400
        assert server.healthy()

    def test_removed_split_strategy_is_refused(self, server):
        # SplitConfig has one split now; a job asking for another one must
        # be refused, not silently run as the one there is.
        split = {"workers": 1, "strategy": "window"}
        for body in (
            {"bug_id": "wrport_collision", "config": {"split": split}},
            {"spec": spec("__echo__", split=split).canonical_dict()},
        ):
            with pytest.raises(ServeError, match="strategy") as excinfo:
                server._request("POST", "/jobs", body)
            assert excinfo.value.status == 400
        assert server.jobs() == []
        assert server.stats()["queue"]["jobs_submitted"] == 0
        assert server.healthy()


class TestJobsOverHttp:
    def test_submit_poll_result_roundtrip(self, server):
        view = server.submit(spec=spec("__echo__", tag="http"))
        final = server.wait_done(view.job_id, timeout=10)
        assert final.state == "done"
        assert final.record["detected_by"] == {"eddiv": True}
        # The per-bound progress event streamed through the long-poll view.
        full = server.job(view.job_id)
        assert full.progress_total == 1
        # Content-addressed lookup serves the same record.
        cached = server.result(final.cache_key)
        assert cached is not None
        assert cached["record"]["detected_by"] == {"eddiv": True}
        assert server.result("0" * 64) is None

    def test_long_poll_streams_progress_increments(self, server):
        view = server.submit(spec=spec("__sleep:0.2__"))
        events = []
        final = server.wait_done(
            view.job_id, timeout=10, on_progress=events.append
        )
        assert final.state == "done"
        assert [e.get("verdict") for e in events] == ["unsat"]

    def test_duplicate_submissions_coalesce_over_http(self, server):
        one = server.submit(spec=spec("__sleep:0.4__"))
        two = server.submit(spec=spec("__sleep:0.4__"))
        assert two.job_id == one.job_id
        assert two.coalesced == 1
        final = server.wait_done(one.job_id, timeout=10)
        assert final.state == "done"
        stats = server.stats()["queue"]
        assert stats["executed"] == 1 and stats["coalesced"] == 1

    def test_cancel_endpoint(self, server):
        blocker = server.submit(spec=spec("__sleep:0.4__"))
        victim = server.submit(spec=spec("__echo__", tag="victim"))
        assert server.cancel(victim.job_id) is True
        view = server.job(victim.job_id)
        assert view.state == "cancelled"
        server.wait_done(blocker.job_id, timeout=10)

    def test_unknown_job_404(self, server):
        with pytest.raises(ServeError) as excinfo:
            server.job("job-999999")
        assert excinfo.value.status == 404

    def test_stats_shape(self, server):
        payload = server.stats()
        assert set(payload) == {"queue", "cache", "http"}
        from repro.eval.report import serving_statistics

        summary = serving_statistics(payload)
        assert summary["jobs_submitted"] == payload["queue"]["jobs_submitted"]
        assert 0.0 <= summary["cache_hit_rate"] <= 1.0


class TestRestartPersistence:
    def test_cache_survives_server_restart(self, tmp_path):
        directory = str(tmp_path)
        with LocalServer(
            cache_dir=directory, entry=_selftest_entry, use_processes=False
        ) as url:
            client = ServeClient(url)
            cold = client.submit(spec=spec("__echo__", tag="restart"))
            final = client.wait_done(cold.job_id, timeout=10)
            assert final.state == "done" and not final.cache_hit

        # A brand-new server process-equivalent over the same cache dir.
        with LocalServer(
            cache_dir=directory, entry=_selftest_entry, use_processes=False
        ) as url:
            client = ServeClient(url)
            warm = client.submit(spec=spec("__echo__", tag="restart"))
            assert warm.cache_hit and warm.state == "done"
            assert warm.record["served_from_cache"] is True
            assert client.stats()["queue"]["executed"] == 0
