"""Two-tier result cache: LRU + persistence + monotone upgrade semantics."""

import json
import os

import pytest

from repro.serve.cache import ResultCache

FP = "f" * 64


def record(bug_id="b", **extra):
    data = {"bug_id": bug_id, "detected_by": {"eddiv": True}}
    data.update(extra)
    return data


class TestBasics:
    def test_put_get_and_counters(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        assert cache.get("k1") is None
        cache.put("k1", record(), fingerprint=FP, definitive=True)
        entry = cache.get("k1")
        assert entry is not None and entry.record["bug_id"] == "b"
        assert cache.hits == 1 and cache.misses == 1 and cache.puts == 1
        assert "k1" in cache and len(cache) == 1

    def test_fingerprint_check_on_get(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cache.put("k1", record(), fingerprint=FP, definitive=True)
        assert cache.get("k1", fingerprint="0" * 64) is None
        assert cache.get("k1", fingerprint=FP) is not None

    def test_memory_only_mode(self):
        cache = ResultCache(None)
        cache.put("k1", record(), fingerprint=FP, definitive=True)
        assert cache.get("k1") is not None
        assert cache.log_path is None


class TestPersistence:
    def test_survives_restart(self, tmp_path):
        directory = str(tmp_path)
        first = ResultCache(directory)
        first.put("k1", record("x"), fingerprint=FP, definitive=True)
        first.put("k2", record("y"), fingerprint=FP, definitive=False)

        reborn = ResultCache(directory)
        assert reborn.get("k1").record["bug_id"] == "x"
        entry = reborn.get("k2")
        assert entry.record["bug_id"] == "y" and not entry.definitive
        assert len(reborn) == 2

    def test_lru_eviction_falls_back_to_disk(self, tmp_path):
        cache = ResultCache(str(tmp_path), memory_limit=2)
        for index in range(3):
            cache.put(
                f"k{index}", record(f"b{index}"), fingerprint=FP, definitive=True
            )
        assert len(cache._memory) == 2  # k0 evicted from the hot tier
        entry = cache.get("k0")  # ...but still served from the log
        assert entry is not None and entry.record["bug_id"] == "b0"

    def test_every_append_is_fsynced(self, tmp_path, monkeypatch):
        """A put and a tombstone each reach the disk before returning: a
        host crash must not lose a verdict the server already answered."""
        cache = ResultCache(str(tmp_path))
        synced = []
        monkeypatch.setattr(os, "fsync", synced.append)
        cache.put("k1", record(), fingerprint=FP, definitive=True)
        assert len(synced) == 1
        cache.invalidate_fingerprint(FP)
        assert len(synced) == 2

    def test_torn_tail_line_is_skipped(self, tmp_path):
        directory = str(tmp_path)
        cache = ResultCache(directory)
        cache.put("k1", record(), fingerprint=FP, definitive=True)
        with open(cache.log_path, "ab") as stream:
            stream.write(b'{"format": 1, "key": "k2", "trunc')  # crash mid-write
        reborn = ResultCache(directory)
        assert reborn.get("k1") is not None
        assert reborn.get("k2") is None


class TestMonotoneUpgrade:
    def test_unknown_upgrades_to_definitive(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cache.put("k", record(state="unknown"), fingerprint=FP, definitive=False)
        cache.put("k", record(state="proved"), fingerprint=FP, definitive=True)
        entry = cache.get("k")
        assert entry.definitive and entry.record["state"] == "proved"
        assert cache.upgrades == 1

    def test_definitive_never_downgrades(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cache.put("k", record(state="proved"), fingerprint=FP, definitive=True)
        kept = cache.put(
            "k", record(state="unknown"), fingerprint=FP, definitive=False
        )
        assert kept.definitive and kept.record["state"] == "proved"
        entry = cache.get("k")
        assert entry.definitive and entry.record["state"] == "proved"
        assert cache.downgrades_rejected == 1

    def test_replay_applies_the_same_rule(self, tmp_path):
        """A hand-written log with a late downgrade line must replay to the
        definitive entry (persistence cannot resurrect a weaker answer)."""
        directory = str(tmp_path)
        cache = ResultCache(directory)
        cache.put("k", record(state="proved"), fingerprint=FP, definitive=True)
        weaker = {
            "format": 1,
            "key": "k",
            "fingerprint": FP,
            "definitive": False,
            "record": record(state="unknown"),
            "spec": {},
            "created_at": 0.0,
        }
        with open(cache.log_path, "a", encoding="utf-8") as stream:
            stream.write(json.dumps(weaker) + "\n")
        reborn = ResultCache(directory)
        entry = reborn.get("k")
        assert entry.definitive and entry.record["state"] == "proved"


class TestInvalidation:
    def test_invalidate_fingerprint(self, tmp_path):
        cache = ResultCache(str(tmp_path), memory_limit=1)
        other = "0" * 64
        cache.put("k1", record(), fingerprint=FP, definitive=True)
        cache.put("k2", record(), fingerprint=other, definitive=True)
        cache.put("k3", record(), fingerprint=FP, definitive=True)
        dropped = cache.invalidate_fingerprint(FP)
        assert dropped == 2
        assert cache.get("k1") is None and cache.get("k3") is None
        assert cache.get("k2") is not None

    def test_invalidation_survives_restart(self, tmp_path):
        """The tombstone line must keep invalidated entries dead on replay,
        while entries written after it come back."""
        directory = str(tmp_path)
        cache = ResultCache(directory)
        cache.put("old", record("stale"), fingerprint=FP, definitive=True)
        assert cache.invalidate_fingerprint(FP) == 1
        cache.put("new", record("fresh"), fingerprint=FP, definitive=True)

        reborn = ResultCache(directory)
        assert reborn.get("old") is None
        assert reborn.get("new").record["bug_id"] == "fresh"
        assert len(reborn) == 1

    def test_memory_limit_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError):
            ResultCache(str(tmp_path), memory_limit=0)

    def test_creates_cache_directory(self, tmp_path):
        directory = os.path.join(str(tmp_path), "nested", "cache")
        ResultCache(directory)
        assert os.path.isdir(directory)
