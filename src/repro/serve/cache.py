"""Two-tier content-addressed result store for served verification jobs.

Tier 1 is a bounded in-memory LRU (the hot set); tier 2 is an append-only
JSON-lines log under the cache directory (the complete set).  Every ``put``
appends one line; ``get`` hits memory first and falls back to a byte-offset
index into the log, so a restart costs one sequential scan to rebuild the
index and nothing more.

Keys come from :meth:`repro.serve.keys.JobSpec.cache_key` and embed the
design *fingerprint*, so an RTL change never returns a stale verdict -- the
old entries are simply unreachable.  :meth:`ResultCache.invalidate_fingerprint`
additionally drops them eagerly (e.g. when a design family is retired).

Upgrade semantics are **monotone**: a result whose QED verdict was
non-definitive (its conflict budget expired before a violation was found)
may be *replaced* by a definitive verdict for the same key, never the
reverse.  The log replay applies the same rule, so persistence cannot
resurrect a weaker answer.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro import faults

#: Bump when the entry layout changes; old log lines are skipped on replay.
ENTRY_FORMAT = 1

DEFAULT_CACHE_DIR = ".repro_cache"
_LOG_NAME = "results.jsonl"


@dataclass
class CacheEntry:
    """One cached job result."""

    key: str
    fingerprint: str
    #: ``True`` when the verdict cannot be improved by re-running (a found
    #: violation, or a full no-violation proof with no budget expiry).
    definitive: bool
    #: Full :func:`repro.eval.campaign.record_to_json_dict` payload.
    record: Dict[str, object]
    #: Canonical spec dict, kept for ``GET /results/<key>`` transparency.
    spec: Dict[str, object] = field(default_factory=dict)
    created_at: float = 0.0
    hits: int = 0

    def to_json_dict(self) -> Dict[str, object]:
        return {
            "format": ENTRY_FORMAT,
            "key": self.key,
            "fingerprint": self.fingerprint,
            "definitive": self.definitive,
            "record": self.record,
            "spec": self.spec,
            "created_at": self.created_at,
        }

    @classmethod
    def from_json_dict(cls, data: Dict[str, object]) -> "CacheEntry":
        return cls(
            key=str(data["key"]),
            fingerprint=str(data.get("fingerprint", "")),
            definitive=bool(data.get("definitive", True)),
            record=dict(data.get("record") or {}),
            spec=dict(data.get("spec") or {}),
            created_at=float(data.get("created_at", 0.0)),
        )


class ResultCache:
    """In-memory LRU over an append-only JSON-lines persistence log.

    Thread-safe (one lock around both tiers): the job queue touches it from
    the event loop while the CLI and tests may read it from other threads.
    ``directory=None`` disables persistence (pure in-memory cache).
    """

    def __init__(
        self,
        directory: Optional[str] = DEFAULT_CACHE_DIR,
        *,
        memory_limit: int = 256,
    ) -> None:
        if memory_limit < 1:
            raise ValueError("memory_limit must be at least 1")
        self.directory = directory
        self.memory_limit = memory_limit
        self._lock = threading.Lock()
        self._memory: "OrderedDict[str, CacheEntry]" = OrderedDict()
        #: Byte offset of each key's *newest admitted* log line.
        self._disk_offsets: Dict[str, int] = {}
        #: Definitive flags mirrored for every known key (memory or disk),
        #: so monotonicity checks never need a disk read.
        self._definitive: Dict[str, bool] = {}
        #: Fingerprint per known key, so invalidation never reads the log.
        self._fingerprints: Dict[str, str] = {}
        self.hits = 0
        self.misses = 0
        self.puts = 0
        self.upgrades = 0
        self.downgrades_rejected = 0
        if self.directory is not None:
            os.makedirs(self.directory, exist_ok=True)
            self._replay_log()

    # ------------------------------------------------------------------
    @property
    def log_path(self) -> Optional[str]:
        if self.directory is None:
            return None
        return os.path.join(self.directory, _LOG_NAME)

    def _replay_log(self) -> None:
        """Rebuild the key index from the log (restart path).

        Later lines win subject to the monotone-upgrade rule, mirroring the
        in-process admission logic -- so a crash between an UNKNOWN write
        and its definitive upgrade replays to the strongest surviving line.
        """
        path = self.log_path
        if path is None or not os.path.exists(path):
            return
        with open(path, "rb") as stream:
            offset = 0
            for raw in stream:
                line = raw.decode("utf-8", errors="replace").strip()
                if line:
                    try:
                        data = json.loads(line)
                    except json.JSONDecodeError:
                        data = None  # torn tail write; skip
                    if isinstance(data, dict) and data.get("format") == ENTRY_FORMAT:
                        if data.get("tombstone"):
                            self._drop_fingerprint(str(data["tombstone"]))
                        elif data.get("key"):
                            key = str(data["key"])
                            definitive = bool(data.get("definitive", True))
                            if not (
                                self._definitive.get(key, False)
                                and not definitive
                            ):
                                self._disk_offsets[key] = offset
                                self._definitive[key] = definitive
                                self._fingerprints[key] = str(
                                    data.get("fingerprint", "")
                                )
                offset += len(raw)

    def _read_disk(self, key: str) -> Optional[CacheEntry]:
        path = self.log_path
        offset = self._disk_offsets.get(key)
        if path is None or offset is None:
            return None
        try:
            with open(path, "rb") as stream:
                stream.seek(offset)
                data = json.loads(stream.readline().decode("utf-8"))
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            return None
        entry = CacheEntry.from_json_dict(data)
        return entry if entry.key == key else None

    def _append_raw(self, data: Dict[str, object]) -> Optional[int]:
        path = self.log_path
        if path is None:
            return None
        line = json.dumps(data, sort_keys=True) + "\n"
        # Chaos-harness write site: a seeded torn_write truncates the
        # payload mid-line (exactly what a crash between ``write`` and the
        # page hitting disk produces) and a seeded duplicate appends the
        # line twice -- the replay path must shrug both off.
        payload = faults.mangle_write("serve.cache.append", line.encode("utf-8"))
        mode = "r+b" if os.path.exists(path) else "wb"
        with open(path, mode) as stream:
            stream.seek(0, os.SEEK_END)
            offset = stream.tell()
            if offset:
                # Heal a torn tail before appending: a previous crash mid-
                # write can leave a line without its newline, and gluing
                # this entry onto it would lose *both* on replay.  One
                # seek+read per append buys crash-safety for the whole log.
                stream.seek(offset - 1)
                if stream.read(1) != b"\n":
                    stream.write(b"\n")
                    offset += 1
            stream.write(payload)
            # Durable before anyone is answered from it: a host crash must
            # not lose a verdict the queue already reported, nor a resumed
            # campaign's finished jobs.
            stream.flush()
            os.fsync(stream.fileno())
        return offset

    def _append_log(self, entry: CacheEntry) -> None:
        offset = self._append_raw(entry.to_json_dict())
        if offset is not None:
            self._disk_offsets[entry.key] = offset

    def _remember(self, entry: CacheEntry) -> None:
        self._memory[entry.key] = entry
        self._memory.move_to_end(entry.key)
        while len(self._memory) > self.memory_limit:
            self._memory.popitem(last=False)  # evict LRU; disk still has it

    # ------------------------------------------------------------------
    def get(
        self, key: str, *, fingerprint: Optional[str] = None
    ) -> Optional[CacheEntry]:
        """Look *key* up (memory, then disk).

        ``fingerprint`` is a defense-in-depth check: the fingerprint is
        already part of the key, but a caller that knows the current design
        content can assert the entry matches it.
        """
        with self._lock:
            entry = self._memory.get(key)
            if entry is not None:
                self._memory.move_to_end(key)
            else:
                entry = self._read_disk(key)
                if entry is not None:
                    self._remember(entry)
            if entry is None or (
                fingerprint is not None and entry.fingerprint != fingerprint
            ):
                self.misses += 1
                return None
            entry.hits += 1
            self.hits += 1
            return entry

    def put(
        self,
        key: str,
        record: Dict[str, object],
        *,
        fingerprint: str,
        definitive: bool,
        spec: Optional[Dict[str, object]] = None,
    ) -> CacheEntry:
        """Admit a result, honouring monotone upgrade semantics.

        Returns the entry now stored under *key* -- the new one, or the
        existing definitive entry when the new result would be a downgrade
        (UNKNOWN-at-budget never replaces a definitive verdict).
        """
        with self._lock:
            if self._definitive.get(key, False) and not definitive:
                self.downgrades_rejected += 1
                existing = self._memory.get(key) or self._read_disk(key)
                if existing is not None:
                    return existing
                # Index said definitive but the log line is unreadable --
                # fall through and store the fresh result instead.
            if key in self._definitive and definitive and not self._definitive[key]:
                self.upgrades += 1
            entry = CacheEntry(
                key=key,
                fingerprint=fingerprint,
                definitive=definitive,
                record=dict(record),
                spec=dict(spec or {}),
                created_at=time.time(),
            )
            self._definitive[key] = definitive
            self._fingerprints[key] = fingerprint
            self._remember(entry)
            self._append_log(entry)
            self.puts += 1
            return entry

    # ------------------------------------------------------------------
    def _drop_fingerprint(self, fingerprint: str) -> int:
        """Index-only removal of every key recorded under *fingerprint*."""
        stale = [
            key
            for key, known in self._fingerprints.items()
            if known == fingerprint
        ]
        for key in stale:
            self._memory.pop(key, None)
            self._disk_offsets.pop(key, None)
            self._definitive.pop(key, None)
            del self._fingerprints[key]
        return len(stale)

    def invalidate_fingerprint(self, fingerprint: str) -> int:
        """Drop every entry recorded under *fingerprint* -- durably.

        Key-embedding already guarantees such entries can never answer a
        request for the *current* design content; this retires the old
        entries outright.  A tombstone line is appended to the log so the
        drop survives restarts (log replay applies tombstones in order:
        entries appended after one are admitted again).  Returns the
        number of entries dropped.
        """
        with self._lock:
            dropped = self._drop_fingerprint(fingerprint)
            self._append_raw(
                {"format": ENTRY_FORMAT, "tombstone": fingerprint}
            )
            return dropped

    def read_log(
        self, since: int = 0, max_bytes: int = 1 << 20
    ) -> "Tuple[bytes, int]":
        """Raw byte range of the persistence log, for replication.

        Returns ``(chunk, size)``: up to *max_bytes* bytes starting at
        offset *since* (clamped to the current end), plus the log's total
        size.  The log is append-only *in bytes* -- even torn-tail healing
        only appends -- so a follower that copies successive ranges builds
        a byte-identical mirror whose replay (torn tails and all) matches
        the primary's.  ``GET /cache/log?since=N`` serves this.
        """
        path = self.log_path
        if path is None:
            raise ValueError("cache has no persistence log (directory=None)")
        if since < 0 or max_bytes < 1:
            raise ValueError("since must be >= 0 and max_bytes >= 1")
        with self._lock:
            try:
                with open(path, "rb") as stream:
                    stream.seek(0, os.SEEK_END)
                    size = stream.tell()
                    stream.seek(min(since, size))
                    chunk = stream.read(max_bytes)
            except FileNotFoundError:
                return b"", 0
        return chunk, size

    def writable(self) -> bool:
        """Whether the persistence log can currently be appended to.

        The ``GET /healthz`` readiness probe reports this: a cache whose
        log directory lost write permission (full disk remount, volume
        detach) silently degrades every solve to non-persisted, which an
        operator wants surfaced *before* jobs start failing.  An
        in-memory cache (``directory=None``) is always "writable".
        """
        if self.directory is None:
            return True
        path = self.log_path
        assert path is not None
        probe = path if os.path.exists(path) else self.directory
        return os.access(probe, os.W_OK)

    def __len__(self) -> int:
        with self._lock:
            return len(self._definitive)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._definitive

    def stats_dict(self) -> Dict[str, object]:
        """Counters for ``GET /stats`` and
        :func:`repro.eval.report.serving_statistics`."""
        with self._lock:
            return {
                "entries": len(self._definitive),
                "entries_in_memory": len(self._memory),
                "memory_limit": self.memory_limit,
                "persistent": self.directory is not None,
                "hits": self.hits,
                "misses": self.misses,
                "puts": self.puts,
                "upgrades": self.upgrades,
                "downgrades_rejected": self.downgrades_rejected,
            }
