"""The span-tree renderer (``scripts/trace_qed.py``) on a real BMC run."""

import io
import json
import os
import sys

from repro.bmc import SafetyProperty
from repro.bmc.engine import check_property
from repro.expr import BVConst, BVVar, mux
from repro.obs import trace as obs_trace
from repro.obs.trace import ObsCollector
from repro.rtl import Circuit, elaborate

REPO_ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)
sys.path.insert(0, os.path.join(REPO_ROOT, "scripts"))
import trace_qed  # noqa: E402

BOUND = 3


def _counter_run_trace():
    """A dense bound-3 run on a 4-bit counter, traced into a view dict."""
    circuit = Circuit("counter")
    enable = circuit.input("enable", 1)
    count = circuit.register("count", 4, reset=0)
    count.next = mux(enable, count.q + BVConst(4, 1), count.q)
    circuit.output("value", count.q)
    collector = obs_trace.install(ObsCollector("t-counter"))
    prop = SafetyProperty("never9", BVVar("count", 4).ne(BVConst(4, 9)))
    result = check_property(elaborate(circuit), prop, max_bound=BOUND)
    view = {
        "trace_id": "t-counter",
        "spans": list(collector.spans),
        "events": list(collector.events),
    }
    return result, view


def test_tree_nests_one_bmc_bound_span_per_bound_under_bmc_run():
    result, view = _counter_run_trace()
    assert len(result.per_bound_stats) == BOUND
    out = io.StringIO()
    trace_qed.render_tree(view, out=out)
    lines = out.getvalue().splitlines()
    assert lines[0].startswith("trace t-counter")

    def depth(line):
        # Duration column, two spaces, then two spaces per tree level.
        name_part = line[line.index("s  ") + 3:]
        return len(name_part) - len(name_part.lstrip(" "))

    (run,) = [line for line in lines if " bmc.run " in line]
    bounds = [line for line in lines if " bmc.bound " in line]
    # Each bound's span carries its verdict, the per-bound record a
    # served job's trace shows.
    assert [b[b.index("["):] for b in bounds] == [
        f"[bound={k}, verdict=unsat]" for k in range(1, BOUND + 1)
    ]
    assert all(depth(b) == depth(run) + 2 for b in bounds)


def test_flight_record_loads_and_tables_self_time_per_span_name(tmp_path):
    _, view = _counter_run_trace()
    path = tmp_path / "flight.json"
    path.write_text(json.dumps({"trace": view}))
    loaded = trace_qed.load_trace(str(path))
    assert loaded["trace_id"] == "t-counter"
    assert len(loaded["spans"]) == len(view["spans"])
    out = io.StringIO()
    trace_qed.render_self_time(loaded, 50, out=out)
    rows = out.getvalue().splitlines()
    (row,) = [line for line in rows if line.startswith("bmc.bound ")]
    assert int(row.split()[1]) == BOUND
