"""Run the verification server in a process of its own, as
``scripts/serve_qed.py serve`` runs it: one local pool worker, admission
control off.  The benchmark's ``serve`` workload starts it::

    python3 perfbench/serve_launcher.py --cache-dir DIR --url-file FILE \\
        --report FILE [--trace]

The server's URL is written to ``--url-file`` once it accepts connections.
On SIGTERM the server stops, its pool worker is reaped, and ``--report``
receives the peak RSS of this process and of its largest child.  With
``--trace`` the serve layer's server-side functions are timed for the
whole run -- the only place the benchmark wraps anything in the server --
and their tallies go into the report too.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import resource
import signal
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Server-side public functions of the serve layer.
SERVER_TARGETS = [
    ("repro.serve.queue", "JobQueue.submit", "serve.queue_submit", None),
    ("repro.serve.cache", "ResultCache.get", "serve.cache_get", None),
    ("repro.serve.cache", "ResultCache.put", "serve.cache_put", None),
]


def _write_atomically(path: str, text: str) -> None:
    partial = path + ".tmp"
    with open(partial, "w", encoding="utf-8") as stream:
        stream.write(text)
    os.replace(partial, path)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run the benchmark's server.")
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--url-file", required=True)
    parser.add_argument("--report", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]
    from perfbench.tracer import Tracer
    from repro.serve import LocalServer

    stop = threading.Event()
    signal.signal(signal.SIGTERM, lambda signum, frame: stop.set())
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install(SERVER_TARGETS)
    server = LocalServer(cache_dir=args.cache_dir, workers=1)
    try:
        _write_atomically(args.url_file, server.start())
        while not stop.wait(timeout=0.1):
            pass
    finally:
        server.stop()
        # The pool worker exits once the stopped queue shuts its executor
        # down; it inherited the SIGTERM handler, so only a kill forces it.
        for child in multiprocessing.active_children():
            child.join(timeout=10.0)
            if child.is_alive():
                child.kill()
                child.join()
    report = {
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "children_maxrss_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        "tracer": None if tracer is None else tracer.to_json_dict(),
    }
    _write_atomically(args.report, json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
