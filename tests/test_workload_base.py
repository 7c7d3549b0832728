"""Unit tests for AddressMap, MiscTraffic, and the workload registry."""

import pytest

from repro.errors import ConfigurationError
from repro.trace.events import TraceBuilder
from repro.util.rng import make_rng
from repro.workloads import get_workload, workload_names
from repro.workloads.base import AddressMap, MiscTraffic


class TestAddressMap:
    def test_alignment(self):
        layout = AddressMap(base=0x1000, alignment=64)
        a = layout.allocate("a", 100)
        b = layout.allocate("b", 10)
        assert a % 64 == 0
        assert b % 64 == 0
        assert b >= a + 100

    def test_no_overlap(self):
        layout = AddressMap()
        regions = [layout.allocate(f"r{i}", 1000 + i) for i in range(10)]
        for i in range(9):
            base, size = layout.region(f"r{i}")
            next_base, _ = layout.region(f"r{i + 1}")
            assert base + size <= next_base
        assert regions == sorted(regions)

    def test_duplicate_name_rejected(self):
        layout = AddressMap()
        layout.allocate("a", 16)
        with pytest.raises(ConfigurationError):
            layout.allocate("a", 16)

    def test_zero_size_rejected(self):
        with pytest.raises(ConfigurationError):
            AddressMap().allocate("a", 0)

    def test_non_power_of_two_alignment_rejected(self):
        with pytest.raises(ConfigurationError):
            AddressMap(alignment=48)

    def test_regions_mapping(self):
        layout = AddressMap()
        layout.allocate("a", 32)
        assert "a" in layout.regions
        assert layout.regions["a"][1] == 32


class TestMiscTraffic:
    def make(self, footprint=4096, write_fraction=0.25):
        builder = TraceBuilder("m")
        misc = MiscTraffic(
            builder,
            make_rng(1),
            base=0x10000,
            footprint=footprint,
            write_fraction=write_fraction,
        )
        return builder, misc

    def test_accesses_stay_in_region(self):
        builder, misc = self.make(footprint=4096)
        for _ in range(500):
            misc.access()
        trace = builder.build()
        assert trace.addresses.min() >= 0x10000
        assert trace.addresses.max() < 0x10000 + 4096

    def test_zipf_concentration(self):
        builder, misc = self.make(footprint=65536)
        for _ in range(2000):
            misc.access()
        trace = builder.build()
        counts = {}
        for address in trace.addresses:
            counts[int(address)] = counts.get(int(address), 0) + 1
        top = sorted(counts.values(), reverse=True)[:10]
        # The ten hottest slots carry a disproportionate share.
        assert sum(top) > 0.2 * 2000

    def test_write_fraction_respected(self):
        builder, misc = self.make(write_fraction=0.5)
        for _ in range(2000):
            misc.access()
        trace = builder.build()
        writes = int((trace.kinds == 1).sum())
        assert 0.4 < writes / 2000 < 0.6

    def test_bad_footprint_rejected(self):
        builder = TraceBuilder("m")
        with pytest.raises(ConfigurationError):
            MiscTraffic(builder, make_rng(1), 0, footprint=4)

    def test_bad_write_fraction_rejected(self):
        builder = TraceBuilder("m")
        with pytest.raises(ConfigurationError):
            MiscTraffic(builder, make_rng(1), 0, 4096, write_fraction=1.5)


class TestRegistry:
    def test_known_workloads(self):
        assert set(workload_names()) >= {"compress", "li", "vocoder", "synthetic"}

    def test_get_workload(self):
        workload = get_workload("vocoder", scale=0.5, seed=3)
        assert workload.name == "vocoder"
        assert workload.scale == 0.5
        assert workload.seed == 3

    def test_unknown_name_raises(self):
        with pytest.raises(ConfigurationError):
            get_workload("quake")

    def test_bad_scale_rejected(self):
        with pytest.raises(ConfigurationError):
            get_workload("vocoder", scale=0.0)


class TestHintsFor:
    def test_keeps_hints_for_structures_in_the_trace(self):
        workload = get_workload("compress", scale=0.05, seed=1)
        trace = workload.trace()
        assert workload.hints_for(trace) == dict(workload.pattern_hints)

    def test_drops_hints_for_absent_structures(self):
        workload = get_workload("compress", scale=0.02, seed=28)
        hints = workload.hints_for(workload.trace())
        assert "globals" not in hints
        assert set(hints) == set(workload.pattern_hints) - {"globals"}
