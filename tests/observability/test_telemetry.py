"""The closed metric catalog: its static shape and the runtime drift check."""

from repro.core import ScheduleCache
from repro.observability import observed
from repro.observability.telemetry import catalog_violations, metric_catalog
from repro.store import ScheduleStore
from repro.suite import Harness
from repro.suite.matrices import SUITE


class TestCatalog:
    def test_catalog_is_closed_and_typed(self):
        catalog = metric_catalog()
        assert len(catalog) > 30
        assert set(catalog.values()) <= {"counter", "gauge", "histogram"}
        # spot-check one name per subsystem
        for name in (
            "store.evictions",
            "store.quarantine_count",
            "schedule_cache.evictions",
            "schedule_cache.store_hits",
            "inspector.runs.hdagg",
            "resilience.faults_fired.store.bit_flip",
        ):
            assert name in catalog, name
        assert not any(name.startswith("service.") for name in catalog)

    def test_violations_flag_undeclared_names_only(self):
        names = ["schedule_cache.hits", "store.hits", "inspector.runs.hdagg"]
        assert catalog_violations(names) == []
        assert catalog_violations(["made.up.metric"]) == ["made.up.metric"]
        # perflab.* is not a declared family
        assert catalog_violations(["perflab.adhoc.median_seconds"]) == [
            "perflab.adhoc.median_seconds"
        ]

    def test_registered_names_stay_in_the_catalog(self, tmp_path):
        """The runtime half of L009: every name an observed run registers,
        including the ones passed through helpers, is declared."""
        harness = Harness(machines=["laptop4"], kernels=["sptrsv"],
                          algorithms=["hdagg", "wavefront"])
        spec = SUITE[0]
        with observed() as (_, registry):
            for _ in range(2):
                # a fresh cache on the same store: the second run hits the store
                harness.schedule_cache = ScheduleCache(
                    store=ScheduleStore(tmp_path / "store", durable=False)
                )
                records = harness.run_suite([spec])
        assert all(r.schedule_cached for r in records)
        names = registry.names()
        assert catalog_violations(names) == []
        assert any(n.startswith("schedule_cache.") for n in names)
        assert "schedule_cache.store_hits" in names
        assert any(n.startswith("store.") for n in names)
