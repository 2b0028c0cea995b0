"""Observability fixtures: no collector or counters leak between tests."""

import pytest

from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace


@pytest.fixture(autouse=True)
def _clean_obs():
    obs_trace.set_enabled(True)
    yield
    obs_trace.clear()
    obs_trace.set_enabled(True)
    obs_metrics.reset_process_metrics()
