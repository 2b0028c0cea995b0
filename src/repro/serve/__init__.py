"""Verification-as-a-service over the Symbolic QED campaign machinery.

The paper's industrial flow is a *service*: engineers launch per-block
Symbolic QED runs against design versions all day, and most queries repeat
-- same version, same focus set, same bound.  This package turns the
repository's campaign jobs into exactly that service: an async job queue
with a content-addressed result cache behind a small stdlib HTTP API, so
the second ask of any query is a cache lookup instead of a solve.

Architecture
============

::

    client / CLI (repro.serve.client, scripts/serve_qed.py)
        |  POST /jobs {bug_id | spec, deadline_seconds?}
        |  GET /jobs/<id>?wait= (long-poll: state changes)
        |  GET /jobs/<id>/telemetry (heartbeats; per-bound progress),
        |      /jobs/<id>/trace (spans), /metrics + /stats (one registry)
        |  [transport error -> retry w/ capped, seed-jittered exponential
        v   backoff; safe: submissions are content-addressed / idempotent]
    +------------------ QEDServer (repro.serve.server) ------------------+
    |  stdlib asyncio HTTP: parse -> route; malformed input => 4xx on    |
    |  that connection only, the accept loop never dies                  |
    |  admission control: bounded queue depth + per-client token bucket  |
    |  (X-Client-Id) => 429 + Retry-After instead of unbounded backlog   |
    |  GET /healthz: ready iff >= 1 live worker (local or remote), cache |
    |  log writable and not draining -- 503 + the signals otherwise      |
    |  SIGTERM -> drain(): leased solves finish, queued specs persist    |
    |  to queue_state.json, restored on the next start                   |
    +---------------------------+----------------------------------------+
                                v
    +------------------ JobQueue (repro.serve.queue) ---------------------+
    |  JobSpec.resolved().cache_key()   (repro.serve.keys: canonical      |
    |      version+fingerprint+mode+focus+bound+knobs -> SHA-256;         |
    |      deadlines/retries are NOT keyed -- submission, not semantics)  |
    |    |-- cache hit  -> DONE immediately (served_from_cache=True)      |
    |    |-- identical in-flight spec -> coalesce (N waiters, one solve)  |
    |    |-- quarantined spec (kept killing its solver) -> fail fast,     |
    |    |       force=True clears                                        |
    |    '-- else: priority heap; wakes idle workers' lease requests      |
    |  one pop (fleet_lease_pop), one success path (_finish_success ->    |
    |  cache put), one requeue path (fleet_requeue: retry w/ capped       |
    |  backoff, then quarantine; drain-safe), one fail path; deadline     |
    |  expiry => honest non-definitive UNKNOWN                            |
    +---------------------------+-----------------------------------------+
                                v  every solve is a lease
    +--- dispatch: FleetCoordinator + FleetWorker (repro.serve.fleet) ----+
    |  verbs: register -> lease (waits <= 1 heartbeat for work) ->        |
    |  heartbeat (renews the lease, ships the entry's ObsBatches) ->      |
    |  complete {lease_id, fence, events, result | crashed | error}       |
    |    local workers (workers=N): threads of the server calling the     |
    |        verbs in-process on the loop (no HTTP, no JSON)              |
    |    remote workers (serve_qed.py worker): the same verbs over        |
    |        POST /fleet/* (servers started with --fleet)                 |
    |    each worker: one persistent solver child (forked at its first    |
    |        lease, reused; killed on revocation/stop, re-forked after    |
    |        it dies) runs detect_bug(...) with the remaining deadline    |
    |        budget; events, then the outcome, come back over a pipe      |
    |  lease / fence state machine (per job):                             |
    |    grant: fence += 1, lease ACTIVE, expires = now + TTL             |
    |    heartbeat: expires = now + TTL (healthy slow solves never        |
    |        expire); a revoked lease answers "revoked" -> the worker     |
    |        kills its solver                                             |
    |    expiry / crash report / dead worker: lease removed => token      |
    |        invalid, job back through fleet_requeue (reassignment        |
    |        counted)                                                     |
    |    commit: accepted iff lease still ACTIVE and body.fence ==        |
    |        current epoch -- a paused-then-resumed zombie's late         |
    |        commit is fence-rejected, never double-applied; a commit's   |
    |        events land before its outcome                               |
    |  failure detection: live -> suspect (2 missed beats) -> dead (4);   |
    |  any request from the worker (a waiting lease too) revives it       |
    +---------------------------+-----------------------------------------+
                                v  (commits: the queue's one success path)
    +------------------ ResultCache (repro.serve.cache) ------------------+
    |  tier 1: in-memory LRU     tier 2: append-only JSON-lines log       |
    |  keys embed the design fingerprint (content, not version name)      |
    |  monotone upgrades: UNKNOWN-at-budget/-deadline may become          |
    |  definitive, never the reverse -- including across restarts (log    |
    |  replay); torn tails are healed at the next append                  |
    |      |  GET /cache/log?since=<offset> (raw byte ranges)             |
    |      v                                                              |
    |  CacheFollower (repro.serve.fleet): byte-mirrors the append-only    |
    |  log onto a standby, which replays it and serves warm hits after    |
    |  primary loss (torn tails skipped, healed on the next sync)         |
    +----------------------------------------------------------------------+

Deployment shapes: :class:`~repro.serve.server.LocalServer` runs the whole
stack on a background thread in-process (tests, quickstart, CLI spawn
mode); ``scripts/serve_qed.py serve`` runs it standalone, and
``scripts/serve_qed.py worker --server URL`` joins its fleet from another
host.  A direct campaign (:func:`repro.eval.campaign.run_campaign`) runs
the same :class:`~repro.serve.queue.JobQueue` and local workers in
process, without HTTP, with the result cache as its resume log.  The invariant that matters: a definitive verdict is byte-identical
whether the solve ran on a local or a remote worker, or survived any
schedule of solver kills, partitions and zombie commits -- fault
tolerance changes *when* the answer arrives, never *what* it is.
Exercised by the seeded chaos harness (:mod:`repro.faults` driving
``tests/chaos``, including the network-boundary sites) and
``scripts/loadgen_qed.py`` for the admission path.
"""

from repro.serve.cache import CacheEntry, ResultCache
from repro.serve.client import (
    JobView,
    ServeClient,
    ServeError,
    run_campaign_via_server,
)
from repro.serve.fleet import (
    AdmissionController,
    CacheFollower,
    FleetCoordinator,
    FleetWorker,
)
from repro.serve.keys import JobSpec
from repro.serve.queue import (
    Job,
    JobQueue,
    JobState,
    QueueDraining,
    QueueFull,
    execute_job_spec,
)
from repro.serve.server import LocalServer, QEDServer

__all__ = [
    "AdmissionController",
    "CacheEntry",
    "CacheFollower",
    "FleetCoordinator",
    "FleetWorker",
    "Job",
    "JobQueue",
    "JobSpec",
    "JobState",
    "JobView",
    "LocalServer",
    "QEDServer",
    "QueueDraining",
    "QueueFull",
    "ResultCache",
    "ServeClient",
    "ServeError",
    "execute_job_spec",
    "run_campaign_via_server",
]
