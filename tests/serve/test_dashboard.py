"""The terminal dashboard (``scripts/dashboard_qed.py``) against a live server."""

import os
import sys

from repro.serve import LocalServer, ServeClient
from repro.serve.queue import _selftest_entry

from serve_helpers import make_spec as spec

REPO_ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)
sys.path.insert(0, os.path.join(REPO_ROOT, "scripts"))
import dashboard_qed  # noqa: E402


def test_frame_shows_the_cache_hit_and_miss_on_both_lines(tmp_path):
    with LocalServer(
        cache_dir=str(tmp_path), entry=_selftest_entry, use_processes=False
    ) as url:
        client = ServeClient(url)
        cold = client.submit(spec=spec())
        assert client.wait_done(cold.job_id, timeout=10).state == "done"
        assert client.submit(spec=spec()).cache_hit
        lines, reachable = dashboard_qed.render_frame(
            url[len("http://"):], job_ids=[], history_path="", timeout=5.0
        )
    assert reachable
    (jobs,) = [line for line in lines if line.startswith("jobs      :")]
    (metrics,) = [line for line in lines if line.startswith("metrics   :")]
    # The /stats line and the /metrics line count the same two events.
    assert "2 submitted / 1 cache hits" in jobs
    assert "qed_cache 1 hit / 1 miss" in metrics
