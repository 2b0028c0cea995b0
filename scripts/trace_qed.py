"""Render a job trace: span tree with timings + "where did the time go".

Takes a trace JSON view -- a file written by the flight recorder or dumped
from ``GET /jobs/<id>/trace``, or fetched live from a running server --
and prints:

* the span tree, indented by parenthood, each span with its wall-clock
  duration, recorder (queue-side ``q.*`` ids vs pid-prefixed worker ids)
  and attributes;
* a top-N self-time table (:func:`repro.obs.sum_self_seconds`): per span
  name, call count, total seconds and *self* seconds (total minus direct
  children), which is the decomposition that answers "where did the time
  go" for a served job;
* a span-event summary (restarts, DB reductions, deadline polls, retries,
  fault firings) grouped by event name.

A direct detection's tree is ``detect_bug`` > ``detect.lint``,
``detect.qed``; under ``detect.qed`` sit ``qed.build`` (the design build:
core, QED module, elaboration) and ``bmc.run`` (the bound loop plus the
counterexample replay), which holds one ``bmc.bound`` per bound >
``bmc.encode``, ``bmc.encode_window``, ``bmc.coi``, ``sat.preprocess``,
``bmc.solve``.  Every ``*_seconds`` field of a result is read off one of
these spans, so the durations printed here are the numbers it reports.

Usage::

    PYTHONPATH=src python scripts/trace_qed.py trace.json
    PYTHONPATH=src python scripts/trace_qed.py flight-job-000003.json
    PYTHONPATH=src python scripts/trace_qed.py --url http://127.0.0.1:8123 \\
        --job job-000000
    PYTHONPATH=src python scripts/trace_qed.py trace.json --top 5 --events
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional

from repro.obs import sum_self_seconds

#: Spans whose parent is missing from the view render at the root; a
#: duration under this (seconds) is shown in milliseconds.
_MS_THRESHOLD = 0.9995


def load_trace(path: str) -> Dict[str, object]:
    """Read a trace view from *path*; unwraps flight-recorder artifacts."""
    with open(path, "r", encoding="utf-8") as stream:
        data = json.load(stream)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: expected a JSON object")
    if "trace" in data and isinstance(data["trace"], dict):
        data = data["trace"]  # flight record (or /jobs/<id>/trace payload)
    if "spans" not in data:
        raise ValueError(f"{path}: no 'spans' -- not a trace view")
    return data


def fetch_trace(url: str, job_id: str) -> Dict[str, object]:
    """Fetch ``GET /jobs/<id>/trace`` from a live server."""
    from repro.serve.client import ServeClient

    return ServeClient(url).trace(job_id)


def _duration(span: Dict[str, object]) -> Optional[float]:
    start, end = span.get("start"), span.get("end")
    if isinstance(start, (int, float)) and isinstance(end, (int, float)):
        return float(end) - float(start)
    return None


def _fmt_seconds(seconds: Optional[float]) -> str:
    if seconds is None:
        return "   (open)"
    if seconds < _MS_THRESHOLD:
        return f"{seconds * 1000.0:7.1f}ms"
    return f"{seconds:8.2f}s"


def _fmt_attrs(span: Dict[str, object]) -> str:
    attrs = span.get("attrs")
    if not isinstance(attrs, dict) or not attrs:
        return ""
    inner = ", ".join(f"{k}={attrs[k]}" for k in sorted(attrs))
    return f"  [{inner}]"


def render_tree(trace: Dict[str, object], out=sys.stdout) -> None:
    """Print the span tree, children indented under parents."""
    spans = [s for s in trace.get("spans", ()) if isinstance(s, dict)]
    by_id = {s.get("span_id"): s for s in spans}
    children: Dict[object, List[Dict[str, object]]] = {}
    roots: List[Dict[str, object]] = []
    for span in spans:
        parent = span.get("parent_id")
        if parent is not None and parent in by_id:
            children.setdefault(parent, []).append(span)
        else:
            roots.append(span)

    def start_key(span: Dict[str, object]) -> float:
        start = span.get("start")
        return float(start) if isinstance(start, (int, float)) else 0.0

    def walk(span: Dict[str, object], depth: int) -> None:
        origin = str(span.get("span_id", "")).split(".")[0]
        where = "queue" if origin == "q" else f"pid:{origin}"
        out.write(
            f"{_fmt_seconds(_duration(span))}  {'  ' * depth}"
            f"{span.get('name')}  ({where}){_fmt_attrs(span)}\n"
        )
        for child in sorted(children.get(span.get("span_id"), ()), key=start_key):
            walk(child, depth + 1)

    out.write(f"trace {trace.get('trace_id')}")
    if trace.get("job_id"):
        out.write(f"  job {trace['job_id']}")
    if trace.get("state"):
        out.write(f"  state={trace['state']}")
    out.write(f"  ({len(spans)} spans)\n")
    for root in sorted(roots, key=start_key):
        walk(root, 1)


def render_self_time(
    trace: Dict[str, object], top: int, out=sys.stdout
) -> None:
    """Print the top-*top* span names by self seconds."""
    spans = [s for s in trace.get("spans", ()) if isinstance(s, dict)]
    table = sum_self_seconds(spans)
    rows = sorted(table.items(), key=lambda item: -item[1][2])[: max(0, top)]
    if not rows:
        out.write("\n(no closed spans)\n")
        return
    out.write(f"\nwhere did the time go (top {len(rows)} by self time):\n")
    out.write(f"{'span':<24}{'count':>7}{'total':>12}{'self':>12}\n")
    for name, (count, total, own) in rows:
        out.write(
            f"{name:<24}{int(count):>7}{total:>11.3f}s{own:>11.3f}s\n"
        )


def render_events(trace: Dict[str, object], out=sys.stdout) -> None:
    """Print span events grouped by name (count + a sample)."""
    events = [e for e in trace.get("events", ()) if isinstance(e, dict)]
    if not events:
        out.write("\n(no span events)\n")
        return
    grouped: Dict[str, List[Dict[str, object]]] = {}
    for entry in events:
        grouped.setdefault(str(entry.get("name")), []).append(entry)
    out.write(f"\nspan events ({len(events)} total):\n")
    for name in sorted(grouped):
        sample = grouped[name][-1].get("attrs") or {}
        out.write(f"  {name:<28}x{len(grouped[name]):<5} last={sample}\n")
    dropped = trace.get("dropped_events")
    if isinstance(dropped, int) and dropped:
        out.write(f"  ({dropped} events dropped by the bounded rings)\n")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "path", nargs="?", help="trace JSON (or flight-recorder artifact)"
    )
    parser.add_argument("--url", help="live server base URL (with --job)")
    parser.add_argument("--job", help="job id to fetch from --url")
    parser.add_argument(
        "--top", type=int, default=10, help="rows in the self-time table"
    )
    parser.add_argument(
        "--events", action="store_true", help="also print the event summary"
    )
    args = parser.parse_args(argv)

    if args.url or args.job:
        if not (args.url and args.job):
            parser.error("--url and --job go together")
        trace = fetch_trace(args.url, args.job)
    elif args.path:
        trace = load_trace(args.path)
    else:
        parser.error("pass a trace JSON path, or --url + --job")

    render_tree(trace)
    render_self_time(trace, args.top)
    if args.events:
        render_events(trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
