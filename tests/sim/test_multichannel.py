"""Multi-channel memory systems (the paper's stated future work)."""

import pytest

from repro.check import RunChecker
from repro.controller.address_map import AddressMap
from repro.sim.config import SystemConfig
from repro.sim.system import CmpSystem
from repro.workloads.spec2000 import profile
from repro.workloads.synthetic import BenchmarkProfile

HEAVY = BenchmarkProfile("heavy", 32, 1.0, 60, 0.9, 2, 1 << 18, 0.0, 0.3)


class TestChannelAddressing:
    def test_consecutive_lines_interleave(self):
        amap = AddressMap(num_channels=2)
        channels = [amap.channel_of(i * 64) for i in range(8)]
        assert channels == [0, 1, 0, 1, 0, 1, 0, 1]

    def test_single_channel_always_zero(self):
        amap = AddressMap(num_channels=1)
        assert amap.channel_of(0xDEADBEC0) == 0

    def test_decode_strips_channel_bits(self):
        two = AddressMap(num_channels=2)
        # Lines 0 and 1 are the same coordinates on different channels.
        assert two.decode(0) == two.decode(64)
        assert two.channel_of(0) != two.channel_of(64)

    def test_encode_round_trip_with_channel(self):
        amap = AddressMap(num_channels=4)
        address = amap.encode(0, 3, 17, 5, channel=2)
        assert amap.channel_of(address) == 2
        assert amap.decode(address) == (0, 3, 17, 5)

    def test_rejects_bad_channel(self):
        amap = AddressMap(num_channels=2)
        with pytest.raises(ValueError):
            amap.encode(0, 0, 0, 0, channel=2)
        with pytest.raises(ValueError):
            AddressMap(num_channels=3)


class TestMultiChannelSystem:
    def test_builds_one_controller_per_channel(self):
        config = SystemConfig(num_cores=2, num_channels=2, policy="FQ-VFTF")
        system = CmpSystem(config, [HEAVY, HEAVY])
        assert len(system.controllers) == 2
        assert len(system.drams) == 2
        assert system.controller is system.controllers[0]

    def test_traffic_reaches_both_channels(self):
        config = SystemConfig(num_cores=1, num_channels=2)
        system = CmpSystem(config, [HEAVY])
        system.run(8000, warmup=0)
        for dram in system.drams:
            assert dram.channel.cas_count > 0

    def test_throughput_scales_with_channels(self):
        def total_cas(nch):
            config = SystemConfig(num_cores=2, num_channels=nch, seed=3)
            system = CmpSystem(config, [HEAVY, profile("art")])
            system.run(15_000, warmup=4_000)
            return sum(d.channel.cas_count for d in system.drams)

        one, two = total_cas(1), total_cas(2)
        assert two > 1.4 * one

    def test_utilization_normalized_to_total_peak(self):
        config = SystemConfig(num_cores=2, num_channels=2, seed=3)
        system = CmpSystem(config, [HEAVY, profile("art")])
        result = system.run(15_000, warmup=4_000)
        assert result.data_bus_utilization <= 1.0

    def test_fq_vtms_per_channel(self):
        config = SystemConfig(num_cores=2, num_channels=2, policy="FQ-VFTF")
        system = CmpSystem(config, [HEAVY, HEAVY])
        system.run(8_000, warmup=0)
        assert all(c.vtms is not None for c in system.controllers)
        assert system.controllers[0].vtms is not system.controllers[1].vtms

    def test_determinism_with_channels(self):
        def run_once():
            config = SystemConfig(num_cores=2, num_channels=2, seed=9)
            system = CmpSystem(config, [HEAVY, profile("vpr")])
            result = system.run(8_000, warmup=2_000)
            return tuple(t.instructions for t in result.threads)

        assert run_once() == run_once()

    def test_checker_routes_each_channel_to_its_own_ledgers(self):
        checker = RunChecker()
        config = SystemConfig(num_cores=2, num_channels=2, policy="FQ-VFTF")
        system = CmpSystem(config, [HEAVY, profile("art")], probes=[checker])
        system.run(8_000, warmup=0)  # a cross-channel mix-up raises
        for protocol, invariants, controller in zip(
            checker.protocols, checker.invariants, system.controllers
        ):
            issued = sum(controller.stats.commands_issued.values())
            assert issued > 0
            assert protocol.commands_checked == issued
            assert invariants.accepted == sum(controller.stats.requests_accepted)
