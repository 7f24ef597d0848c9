"""Tests for the two-level (RAM/SSD) hierarchical extension (paper §5)."""

import numpy as np
import pytest

from repro.core import OptLabelConfig, TieredLFOCache, TieredLFOOnline
from repro.gbdt import GBDTParams
from repro.resilience import FaultPlan, FaultSpec, use_fault_plan
from repro.trace import Request, SyntheticConfig, generate_trace


def _drive(cache, trace):
    for request in trace:
        cache.on_request(request)


@pytest.fixture(scope="module")
def tier_trace():
    return generate_trace(
        SyntheticConfig(
            n_requests=6000, n_objects=800, alpha=1.1,
            size_median=30, size_sigma=1.0, size_max=500,
            locality=0.3, seed=21,
        )
    )


class TestTieredLFOCache:
    def test_tier_sizes_validated(self):
        with pytest.raises(ValueError):
            TieredLFOCache(ram_size=0, ssd_size=10)
        with pytest.raises(ValueError):
            TieredLFOCache(ram_size=10, ssd_size=0)

    def test_cold_start_places_in_ram_first(self):
        cache = TieredLFOCache(ram_size=100, ssd_size=100, n_gaps=4)
        cache.on_request(Request(0, 1, 50))
        assert cache.tier_of(1) == "ram"

    def test_ram_pressure_demotes_to_ssd(self):
        cache = TieredLFOCache(ram_size=100, ssd_size=200, n_gaps=4)
        cache.on_request(Request(0, 1, 60))
        cache.on_request(Request(1, 2, 60))  # RAM full: 1 demotes
        assert cache.tier_of(2) == "ram"
        assert cache.tier_of(1) == "ssd"

    def test_ssd_pressure_evicts(self):
        cache = TieredLFOCache(ram_size=50, ssd_size=50, n_gaps=4)
        for i, obj in enumerate(range(10)):
            cache.on_request(Request(float(i), obj, 40))
        # Only one object per tier fits.
        resident = [o for o in range(10) if cache.contains(o)]
        assert len(resident) <= 2

    def test_capacity_invariants(self, tier_trace):
        cache = TieredLFOCache(ram_size=800, ssd_size=2400, n_gaps=8)
        for request in tier_trace:
            cache.on_request(request)
            assert cache.ram.used <= cache.ram.size
            assert cache.ssd.used <= cache.ssd.size
            assert cache.free_bytes >= 0

    def test_hits_attributed_per_tier(self):
        cache = TieredLFOCache(ram_size=100, ssd_size=100, n_gaps=4)
        cache.on_request(Request(0, 1, 50))
        cache.on_request(Request(1, 1, 50))  # RAM hit
        assert cache.stats.ram_hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.ohr == pytest.approx(0.5)
        assert cache.stats.bhr == pytest.approx(0.5)

    def test_ssd_hit_promotes_hot_object(self):
        cache = TieredLFOCache(ram_size=100, ssd_size=200, n_gaps=4)
        cache.on_request(Request(0, 1, 60))
        cache.on_request(Request(1, 2, 60))  # 1 demoted to SSD
        assert cache.tier_of(1) == "ssd"
        cache.on_request(Request(2, 1, 60))  # SSD hit; promotes (no model)
        assert cache.stats.ssd_hits == 1
        assert cache.tier_of(1) == "ram"

    def test_reset(self, tier_trace):
        cache = TieredLFOCache(ram_size=500, ssd_size=1000, n_gaps=4)
        _drive(cache, tier_trace[:500])
        cache.reset()
        assert cache.ram.used == 0
        assert cache.ssd.used == 0
        assert cache.stats.requests == 0

    def test_ram_share_of_hits_metric(self):
        cache = TieredLFOCache(ram_size=100, ssd_size=100, n_gaps=4)
        cache.on_request(Request(0, 1, 50))
        cache.on_request(Request(1, 1, 50))
        assert cache.stats.ram_share_of_hits == 1.0


class TestTieredLFOOnline:
    def test_a_released_job_installs_at_the_next_request(self, tier_trace):
        """The loop polls its trainer before each decision: a job a
        ``trainer.submit`` hang parked at the first window's close goes
        live on the first request after its release, not at the next
        window's close."""
        requests = list(tier_trace)
        online = TieredLFOOnline(
            ram_size=tier_trace.footprint() // 20,
            ssd_size=tier_trace.footprint() // 7,
            window=500, ram_horizon=100,
            gbdt_params=GBDTParams(num_iterations=5), n_gaps=8,
        )
        plan = FaultPlan([FaultSpec(site="trainer.submit", kind="hang",
                                    at=(0,))])
        with use_fault_plan(plan):
            for request in requests[:700]:
                online.on_request(request)
            online.trainer.executor.release_hung()
            assert online.cache.admission_model is None
            online.on_request(requests[700])
        assert online.cache.admission_model is not None
        assert online.n_retrains == 1

    def test_trains_both_models(self, tier_trace):
        online = TieredLFOOnline(
            ram_size=tier_trace.footprint() // 20,
            ssd_size=tier_trace.footprint() // 7,
            window=2000,
            ram_horizon=200,
            gbdt_params=GBDTParams(num_iterations=10),
            label_config=OptLabelConfig(mode="segmented", segment_length=500),
            n_gaps=8,
        )
        for request in tier_trace:
            online.on_request(request)
        assert online.n_retrains >= 2
        assert online.cache.admission_model is not None
        assert online.cache.placement_model is not None

    def test_hit_ratio_reasonable(self, tier_trace):
        online = TieredLFOOnline(
            ram_size=tier_trace.footprint() // 20,
            ssd_size=tier_trace.footprint() // 7,
            window=2000,
            gbdt_params=GBDTParams(num_iterations=10),
            label_config=OptLabelConfig(mode="segmented", segment_length=500),
            n_gaps=8,
        )
        for request in tier_trace:
            online.on_request(request)
        assert online.stats.ohr > 0.2
        # The placement model concentrates hits in RAM even though RAM is
        # the smaller tier.
        assert online.stats.ram_share_of_hits > 0.3
