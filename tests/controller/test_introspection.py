"""Controller introspection: issued commands (via a probe) and
latency histograms."""

import pytest

from repro.controller.address_map import AddressMap
from repro.controller.controller import ControllerStats, MemoryController
from repro.controller.request import MemoryRequest, RequestKind
from repro.core.policies import get_policy
from repro.dram.commands import CommandType
from repro.dram.dram_system import DramSystem
from repro.dram.timing import DDR2Timing

from .command_log import log_commands

AMAP = AddressMap()


def make_controller():
    timing = DDR2Timing()
    dram = DramSystem(timing, enable_refresh=False)
    controller = MemoryController(dram, AMAP, 2, policy=get_policy("FR-FCFS"))
    return controller, timing


def run_request(controller, bank=0, row=5, cycles=600):
    request = MemoryRequest(
        thread_id=0, kind=RequestKind.READ,
        address=AMAP.encode(0, bank, row, 0), arrival_time=0,
    )
    assert controller.try_enqueue(request)
    for now in range(cycles):
        controller.tick(now)
    return request


class TestCommandLog:
    def test_disabled_by_default(self):
        controller, _ = make_controller()
        run_request(controller)
        assert controller.probe is None

    def test_golden_closed_page_read_sequence(self):
        controller, timing = make_controller()
        log = log_commands(controller)
        run_request(controller)
        kinds = [entry.kind for entry in log.commands]
        assert kinds == [
            CommandType.ACTIVATE,
            CommandType.READ,
            CommandType.PRECHARGE,  # closed-page auto-precharge
        ]
        act, read, pre = log.commands
        assert act.cycle == 0
        assert read.cycle == timing.t_rcd
        assert pre.cycle >= timing.t_ras
        assert act.thread == 0 and read.thread == 0

    def test_row_hit_sequence_has_single_activate(self):
        controller, timing = make_controller()
        log = log_commands(controller)
        for column in range(3):
            request = MemoryRequest(
                thread_id=0, kind=RequestKind.READ,
                address=AMAP.encode(0, 0, 5, column), arrival_time=0,
            )
            controller.try_enqueue(request)
        for now in range(800):
            controller.tick(now)
        kinds = [e.kind for e in log.commands]
        assert kinds.count(CommandType.ACTIVATE) == 1
        assert kinds.count(CommandType.READ) == 3
        assert kinds.count(CommandType.PRECHARGE) == 1


class TestLatencyHistogram:
    def test_unloaded_read_lands_in_second_bucket(self):
        controller, timing = make_controller()
        run_request(controller)
        histogram = controller.stats.latency_histogram[0]
        # 140-cycle DRAM access → first bucket (<=128)? 140 > 128, so
        # the 256 bucket.
        assert histogram[1] == 1
        assert sum(histogram) == 1

    def test_percentile_of_empty_is_zero(self):
        stats = ControllerStats(1)
        assert stats.latency_percentile(0, 0.95) == 0

    def test_percentile_finds_bucket(self):
        stats = ControllerStats(1)
        for _ in range(9):
            stats.record_latency(0, 100)
        stats.record_latency(0, 3000)
        assert stats.latency_percentile(0, 0.5) == 128
        assert stats.latency_percentile(0, 1.0) == 4096

    def test_overflow_bucket(self):
        stats = ControllerStats(1)
        stats.record_latency(0, 100_000)
        assert stats.latency_histogram[0][-1] == 1
        assert stats.latency_percentile(0, 1.0) == 8192

    def test_rejects_bad_fraction(self):
        stats = ControllerStats(1)
        with pytest.raises(ValueError):
            stats.latency_percentile(0, 0.0)
