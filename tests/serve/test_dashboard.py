"""The terminal dashboard (``scripts/dashboard_qed.py``) against a live server."""

import os
import socket
import sys

import pytest

from repro.serve import LocalServer, ServeClient
from repro.serve.queue import _selftest_entry

from serve_helpers import make_spec as spec

REPO_ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)
sys.path.insert(0, os.path.join(REPO_ROOT, "scripts"))
import dashboard_qed  # noqa: E402


def test_frame_shows_the_cache_hit_and_miss_on_both_lines(tmp_path):
    with LocalServer(cache_dir=str(tmp_path), entry=_selftest_entry) as url:
        client = ServeClient(url)
        cold = client.submit(spec=spec())
        assert client.wait_done(cold.job_id, timeout=10).state == "done"
        assert client.submit(spec=spec()).cache_hit
        lines, reachable = dashboard_qed.render_frame(
            url[len("http://"):], job_ids=[], timeout=5.0
        )
    assert reachable
    (jobs,) = [line for line in lines if line.startswith("jobs      :")]
    (metrics,) = [line for line in lines if line.startswith("metrics   :")]
    # The /stats line and the /metrics line count the same two events.
    assert "2 submitted / 1 cache hits" in jobs
    assert "qed_cache 1 hit / 1 miss" in metrics


def test_once_renders_the_followed_job_and_exits_0(tmp_path, capsys):
    with LocalServer(cache_dir=str(tmp_path), entry=_selftest_entry) as url:
        client = ServeClient(url)
        job = client.submit(spec=spec())
        assert client.wait_done(job.job_id, timeout=10).state == "done"
        status = dashboard_qed.main(
            ["--server", url[len("http://"):], "--once", "--job", job.job_id]
        )
    assert status == 0
    lines = capsys.readouterr().out.splitlines()
    assert "jobs (1 tracked):" in lines
    # The followed job's row closes the frame, with the bound of the
    # selftest's one heartbeat.
    row = lines[-1]
    assert row.split()[:3] == [job.job_id, "done", "T.v1/__echo__"]
    assert "bound 1/4" in row


def test_once_exits_1_when_the_server_is_unreachable(capsys):
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        base = f"127.0.0.1:{sock.getsockname()[1]}"
    assert dashboard_qed.main(["--server", base, "--once"]) == 1
    assert f"server http://{base} unreachable" in capsys.readouterr().out


def test_eta_sums_the_remaining_bounds_at_the_observed_growth():
    # Costs double per bound, so bounds 4 and 5 cost 8 s and 16 s.
    curve = [(1, 1.0), (2, 2.0), (3, 4.0)]
    assert dashboard_qed.eta_from_bound_curve(curve, 5) == pytest.approx(24.0)


def test_eta_clamps_the_growth_ratio():
    # A 100x jump is clamped to ETA_RATIO_MAX; a shrinking cost to 1.0.
    assert dashboard_qed.eta_from_bound_curve(
        [(1, 1.0), (2, 100.0)], 3
    ) == pytest.approx(100.0 * dashboard_qed.ETA_RATIO_MAX)
    assert dashboard_qed.eta_from_bound_curve(
        [(1, 4.0), (2, 1.0)], 4
    ) == pytest.approx(2.0)


def test_eta_needs_two_positive_bounds_and_bounds_left():
    assert dashboard_qed.eta_from_bound_curve([(1, 1.0)], 5) is None
    assert dashboard_qed.eta_from_bound_curve([(1, 0.0), (2, 1.0)], 5) is None
    assert dashboard_qed.eta_from_bound_curve([(1, 1.0), (2, 2.0)], 2) is None


def test_counts_and_durations_are_abbreviated():
    assert dashboard_qed._fmt_count(999) == "999"
    assert dashboard_qed._fmt_count(1234567) == "1.23M"
    assert dashboard_qed._fmt_count(2.5e9) == "2.50G"
    assert dashboard_qed._fmt_seconds(42.0) == "42.0s"
    assert dashboard_qed._fmt_seconds(90.0) == "1.5m"
    assert dashboard_qed._fmt_seconds(5400.0) == "1.5h"
