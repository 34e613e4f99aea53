"""ScheduleStore behaviour: round trips, sharding, recovery, quarantine.

Everything here runs without fault injection — the seeded chaos sweep
lives in ``test_crash_consistency.py``.  These tests hand-craft each
on-disk damage pattern instead, so every recovery path is pinned
independently of the fault machinery.
"""

import json

import numpy as np
import pytest

from repro.core.schedule_cache import ScheduleCache, schedule_key
from repro.store import ScheduleStore, StoreError, encode_schedule

KEY_A = "00" * 32
KEY_B = "ff" * 32


@pytest.fixture()
def schedule(corpus):
    return corpus[("hdagg", "poisson2d")][0]


@pytest.fixture()
def store(tmp_path):
    return ScheduleStore(tmp_path / "store", durable=False)


class TestRoundTrip:
    def test_put_get_bit_identical(self, store, corpus):
        for i, ((sname, mname), (schedule, _)) in enumerate(sorted(corpus.items())):
            key = f"{i:064x}"
            store.put(key, schedule)
            back = store.get(key)
            assert back is not None, (sname, mname)
            assert encode_schedule(back) == encode_schedule(schedule)

    def test_persists_across_reopen(self, tmp_path, schedule):
        root = tmp_path / "store"
        ScheduleStore(root, durable=False).put(KEY_A, schedule)
        back = ScheduleStore(root).get(KEY_A)
        assert back is not None
        assert encode_schedule(back) == encode_schedule(schedule)

    def test_absent_key_is_a_miss(self, store):
        assert store.get(KEY_A) is None
        assert store.stats.misses == 1
        assert KEY_A not in store

    def test_real_schedule_keys_round_trip(self, store, corpus):
        schedule, g = corpus[("hdagg", "banded")]
        key = schedule_key(g, kernel="sptrsv", algorithm="hdagg", p=4)
        store.put(key, schedule)
        assert store.get(key) is not None
        assert key in store and store.keys() == [key]

    def test_stats_and_hit_rate(self, store, schedule):
        store.put(KEY_A, schedule)
        store.get(KEY_A)
        store.get(KEY_B)
        s = store.stats
        assert (s.hits, s.misses, s.writes) == (1, 1, 1)
        assert s.hit_rate == 0.5


class TestLayout:
    def test_shard_mapping_is_stable_and_in_range(self, store):
        for key in (KEY_A, KEY_B, "0123abcd" + "00" * 28):
            assert 0 <= store.shard_of(key) < store.n_shards
            assert store.shard_of(key) == store.shard_of(key)

    def test_non_hex_key_rejected(self, store):
        with pytest.raises(StoreError, match="hex digest"):
            store.shard_of("not a digest")

    def test_existing_shard_count_is_authoritative(self, tmp_path, schedule):
        root = tmp_path / "store"
        ScheduleStore(root, n_shards=4, durable=False).put(KEY_B, schedule)
        reopened = ScheduleStore(root, n_shards=32)
        assert reopened.n_shards == 4
        assert reopened.get(KEY_B) is not None

    def test_records_live_under_their_shard(self, tmp_path, schedule):
        root = tmp_path / "store"
        st = ScheduleStore(root, durable=False)
        st.put(KEY_B, schedule)
        shard = st.shard_of(KEY_B)
        assert (root / "shards" / f"{shard:02x}" / f"{KEY_B}.sched").exists()

    def test_format_mismatch_rejected(self, tmp_path):
        root = tmp_path / "store"
        ScheduleStore(root, durable=False)
        (root / "store.json").write_text(json.dumps({"format": 99, "n_shards": 4}))
        with pytest.raises(StoreError, match="format"):
            ScheduleStore(root)

    def test_open_is_lazy(self, tmp_path, schedule):
        """Opening reads only store.json; shard manifests load per touch."""
        root = tmp_path / "store"
        st = ScheduleStore(root, durable=False)
        st.put(KEY_A, schedule)
        reopened = ScheduleStore(root)
        assert reopened._manifests == {}
        reopened.get(KEY_A)
        assert list(reopened._manifests) == [reopened.shard_of(KEY_A)]


class TestRecovery:
    def test_bit_flip_on_disk_quarantines(self, tmp_path, schedule):
        root = tmp_path / "store"
        st = ScheduleStore(root, durable=False)
        st.put(KEY_A, schedule)
        path = root / "shards" / f"{st.shard_of(KEY_A):02x}" / f"{KEY_A}.sched"
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0x40
        path.write_bytes(bytes(blob))
        fresh = ScheduleStore(root)
        assert fresh.get(KEY_A) is None
        assert fresh.stats.quarantined == 1
        assert "CRC" in fresh.events[0].reason
        assert not path.exists()  # moved aside, not served, not deleted
        assert list((root / "quarantine").glob(f"{KEY_A}.*")), "no audit trail"
        assert fresh.get(KEY_A) is None  # and stays a plain miss afterwards

    def test_truncated_record_quarantines(self, tmp_path, schedule):
        root = tmp_path / "store"
        st = ScheduleStore(root, durable=False)
        st.put(KEY_A, schedule)
        path = root / "shards" / f"{st.shard_of(KEY_A):02x}" / f"{KEY_A}.sched"
        path.write_bytes(path.read_bytes()[:10])
        fresh = ScheduleStore(root)
        assert fresh.get(KEY_A) is None
        assert fresh.events and "size mismatch" in fresh.events[0].reason

    def test_stale_manifest_is_repaired_by_probe(self, tmp_path, schedule):
        """Crash between record rename and manifest write: the record is
        on disk, the index missed it.  A read must find and re-index it."""
        root = tmp_path / "store"
        st = ScheduleStore(root, durable=False)
        st.put(KEY_A, schedule)
        shard_dir = root / "shards" / f"{st.shard_of(KEY_A):02x}"
        manifest = json.loads((shard_dir / "manifest.json").read_text())
        del manifest["records"][KEY_A]
        (shard_dir / "manifest.json").write_text(json.dumps(manifest))
        fresh = ScheduleStore(root)
        assert fresh.get(KEY_A) is not None
        assert fresh.stats.manifest_repairs == 1
        # the repair was persisted: a third open hits the manifest directly
        third = ScheduleStore(root)
        assert third.get(KEY_A) is not None
        assert third.stats.manifest_repairs == 0

    def test_corrupt_manifest_is_rebuilt_from_directory(self, tmp_path, schedule):
        root = tmp_path / "store"
        st = ScheduleStore(root, durable=False)
        st.put(KEY_A, schedule)
        shard_dir = root / "shards" / f"{st.shard_of(KEY_A):02x}"
        (shard_dir / "manifest.json").write_text('{"format": 1, "recor')  # torn
        fresh = ScheduleStore(root)
        assert fresh.get(KEY_A) is not None  # codec CRC still guards the blob
        assert fresh.stats.manifest_repairs >= 1

    def test_manifest_entry_without_record_is_dropped(self, tmp_path, schedule):
        root = tmp_path / "store"
        st = ScheduleStore(root, durable=False)
        st.put(KEY_A, schedule)
        path = root / "shards" / f"{st.shard_of(KEY_A):02x}" / f"{KEY_A}.sched"
        path.unlink()
        fresh = ScheduleStore(root)
        assert fresh.get(KEY_A) is None
        assert KEY_A not in fresh  # the dangling index entry is gone

    def test_quarantine_key_is_idempotent(self, store, schedule):
        store.put(KEY_A, schedule)
        assert store.quarantine_key(KEY_A, "caller-side safety failure")
        assert store.get(KEY_A) is None
        assert not store.quarantine_key(KEY_A, "again")
        assert store.stats.quarantined == 1

    def test_audit_sweeps_good_and_bad(self, tmp_path, corpus):
        root = tmp_path / "store"
        st = ScheduleStore(root, durable=False)
        schedules = [corpus[("hdagg", m)][0] for m in ("poisson2d", "banded", "random")]
        keys = [f"{i:064x}" for i in range(3)]
        for key, s in zip(keys, schedules):
            st.put(key, s)
        bad = root / "shards" / f"{st.shard_of(keys[1]):02x}" / f"{keys[1]}.sched"
        bad.write_bytes(b"\x00" + bad.read_bytes()[1:])
        report = ScheduleStore(root).audit()
        assert report.scanned == 3
        assert report.ok == 2
        assert [q.key for q in report.quarantined] == [keys[1]]


class TestCacheIntegration:
    """The write-through / read-through contract of ScheduleCache(store=...)."""

    def test_put_writes_through_and_miss_promotes(self, tmp_path, corpus):
        schedule, g = corpus[("hdagg", "random")]
        key = schedule_key(g, kernel="sptrsv", algorithm="hdagg", p=4)
        root = tmp_path / "store"
        ScheduleCache(store=ScheduleStore(root, durable=False)).put(key, schedule)
        # a different process (fresh cache, fresh store handle) sees it:
        # get() reads memory only, acquire() falls through to the store
        cache = ScheduleCache(max_entries=4, store=ScheduleStore(root))
        assert cache.get(key) is None
        got, source = cache.acquire(key, "family", g, np.ones(g.n), p=4)
        assert source == "store"
        assert encode_schedule(got) == encode_schedule(schedule)
        assert len(cache) == 1  # promoted into memory
        assert cache.acquire(key, "family", g, np.ones(g.n), p=4) == (got, "hit")

    def test_store_write_failure_never_fails_put(self, corpus):
        schedule, g = corpus[("hdagg", "random")]

        class ExplodingStore:
            def put(self, key, s):
                raise OSError("disk on fire")

            def get(self, key):
                return None

        cache = ScheduleCache(store=ExplodingStore())
        cache.put("00" * 32, schedule)  # must not raise
        assert cache.get("00" * 32) is not None


class TestEviction:
    def _fill(self, store, corpus, n):
        schedules = [s for (s, _) in corpus.values()][:1] * n
        keys = [f"{i:064x}" for i in range(n)]
        for key, sched in zip(keys, schedules):
            store.put(key, sched)
        return keys

    def test_unbounded_store_never_evicts(self, store, corpus):
        self._fill(store, corpus, 6)
        assert store.stats.evictions == 0
        assert len(store) == 6

    def test_over_budget_put_evicts_down_to_budget(self, tmp_path, schedule):
        probe = ScheduleStore(tmp_path / "probe", durable=False)
        probe.put("aa" * 32, schedule)
        record = probe.total_bytes()
        store = ScheduleStore(
            tmp_path / "store", durable=False, max_bytes=3 * record
        )
        keys = self._fill(store, {("a", "b"): (schedule, None)}, 5)
        assert store.total_bytes() <= store.max_bytes
        assert store.stats.evictions == 2
        assert len(store) == 3
        # evicted records are clean deletes, not quarantines
        assert store.stats.quarantined == 0
        assert store.events == []
        for key in keys:
            got = store.get(key)
            assert got is None or got is not None  # never raises

    def test_hot_records_survive_cold_ones_go(self, tmp_path, schedule):
        probe = ScheduleStore(tmp_path / "probe", durable=False)
        probe.put("aa" * 32, schedule)
        record = probe.total_bytes()
        store = ScheduleStore(
            tmp_path / "store", durable=False, max_bytes=int(2.5 * record)
        )
        hot, cold = "00" * 32, "11" * 32
        store.put(hot, schedule)
        store.put(cold, schedule)
        for _ in range(3):
            assert store.get(hot) is not None
        store.put("22" * 32, schedule)  # over budget: the cold key goes
        assert store.get(hot) is not None
        assert cold not in store
        assert store.stats.evictions == 1

    def test_eviction_is_deterministic_without_access_history(self, tmp_path, schedule):
        def run():
            store = ScheduleStore(
                tmp_path / f"store{len(list(tmp_path.iterdir()))}",
                durable=False, max_bytes=1,
            )
            for i in range(4):
                store.put(f"{i:064x}", schedule)
            return store.keys()

        assert run() == run()

    def test_protected_key_survives_even_alone_over_budget(self, tmp_path, schedule):
        store = ScheduleStore(tmp_path / "store", durable=False, max_bytes=1)
        store.put("aa" * 32, schedule)
        # the freshly written record is never its own victim
        assert store.get("aa" * 32) is not None
        assert store.stats.evictions == 0

    def test_audit_reports_the_eviction_counter(self, tmp_path, schedule):
        store = ScheduleStore(tmp_path / "store", durable=False, max_bytes=1)
        store.put("aa" * 32, schedule)
        store.put("bb" * 32, schedule)
        report = store.audit()
        assert report.evictions == store.stats.evictions == 1
        assert report.as_dict()["evictions"] == 1

    def test_eviction_survives_reopen(self, tmp_path, schedule):
        root = tmp_path / "store"
        store = ScheduleStore(root, durable=False, max_bytes=1)
        store.put("aa" * 32, schedule)
        store.put("bb" * 32, schedule)
        survivors = store.keys()
        back = ScheduleStore(root, durable=False)
        assert back.keys() == survivors
        assert back.audit().quarantined == []

    def test_bad_budget_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            ScheduleStore(tmp_path / "store", durable=False, max_bytes=0)

    def test_eviction_metrics_are_in_the_catalog(self, tmp_path, schedule):
        from repro.observability import observed
        from repro.observability.telemetry import catalog_violations

        with observed() as (_, registry):
            store = ScheduleStore(tmp_path / "store", durable=False, max_bytes=1)
            store.put("aa" * 32, schedule)
            store.put("bb" * 32, schedule)
        assert registry.counter("store.evictions").value == 1
        assert registry.gauge("store.occupancy_bytes").value == store.total_bytes()
        assert catalog_violations(registry.names()) == []
