"""Design lint is wired fail-fast into every solve entry point.

A design with a forged combinational cycle would *hang* structural
hashing, unrolling and bit-blasting (all walk the expression graph
expecting a DAG), so each entry point must reject it with a structured
:class:`DesignLintError` report before any of that machinery runs:

* :class:`repro.bmc.engine.BoundedModelChecker` -- at construction,
* :func:`repro.eval.campaign.detect_bug` -- before the harness is built,
* ``POST /jobs`` on the server -- a 400 response carrying the report,
  instead of a queued job.
"""

import http.client
import json

import pytest

from repro.analysis.findings import DesignLintError
from repro.analysis.netlist_lint import (
    CHECK_COMB_CYCLE,
    clear_version_lint_memo,
)
from repro.bmc.engine import BMCProblem, BoundedModelChecker
from repro.bmc.property import SafetyProperty
from repro.expr import BVConst, BVVar
from repro.rtl.design import Design, StateElement


def _cyclic_design() -> Design:
    """A counter whose next-state expression contains a forged cycle."""
    var = BVVar("count", 4)
    node = var + BVConst(4, 1)
    object.__setattr__(node, "children", (node, node.children[1]))
    return Design(
        name="cyclic",
        inputs={},
        state=[StateElement("count", 4, 0)],
        next_state={"count": node},
        outputs={},
        assumptions={},
    )


@pytest.fixture()
def cyclic_build_design(monkeypatch):
    """Make every version build the cyclic design; reset the lint memo."""
    from repro.uarch import designs as designs_module

    def build_cyclic(version, *args, **kwargs):
        return _cyclic_design()

    monkeypatch.setattr(designs_module, "build_design", build_cyclic)
    clear_version_lint_memo()
    yield
    clear_version_lint_memo()


class TestEngineRejection:
    def test_checker_construction_raises(self):
        problem = BMCProblem(
            design=_cyclic_design(),
            prop=SafetyProperty("p", BVVar("count", 4).ne(BVConst(4, 3))),
            max_bound=4,
        )
        with pytest.raises(DesignLintError) as excinfo:
            BoundedModelChecker(problem)
        assert excinfo.value.report.by_check(CHECK_COMB_CYCLE)


class TestCampaignRejection:
    def test_detect_bug_raises_before_harness(self, cyclic_build_design):
        from repro.eval.campaign import detect_bug

        with pytest.raises(DesignLintError) as excinfo:
            detect_bug("wrport_collision")
        assert excinfo.value.report.by_check(CHECK_COMB_CYCLE)


class TestServeRejection:
    def test_submit_returns_400_with_report(
        self, cyclic_build_design, tmp_path
    ):
        from repro.serve.queue import _selftest_entry
        from repro.serve.server import LocalServer

        with LocalServer(
            cache_dir=str(tmp_path),
            entry=_selftest_entry,
        ) as url:
            host, port = url.removeprefix("http://").split(":")
            connection = http.client.HTTPConnection(host, int(port), timeout=30)
            try:
                connection.request(
                    "POST",
                    "/jobs",
                    body=json.dumps({"bug_id": "wrport_collision"}),
                    headers={"Content-Type": "application/json"},
                )
                response = connection.getresponse()
                payload = json.loads(response.read())
            finally:
                connection.close()
        assert response.status == 400
        assert "lint" in payload, payload
        assert payload["lint"]["ok"] is False
        assert any(
            finding["check"] == CHECK_COMB_CYCLE
            for finding in payload["lint"]["findings"]
        )


class TestMemoization:
    def test_version_lint_memoized_per_arch(self):
        from repro.analysis.netlist_lint import lint_version_design
        from repro.uarch.versions import ALL_VERSIONS

        clear_version_lint_memo()
        version = ALL_VERSIONS[0]
        first = lint_version_design(version)
        assert lint_version_design(version) is first
        clear_version_lint_memo()
        assert lint_version_design(version) is not first
