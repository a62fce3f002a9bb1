"""Watermark write draining at the controller level."""

import pytest

from repro.controller.address_map import AddressMap
from repro.controller.controller import MemoryController
from repro.controller.request import MemoryRequest, RequestKind
from repro.core.policies import get_policy
from repro.dram.commands import CommandType
from repro.dram.dram_system import DramSystem
from repro.dram.timing import DDR2Timing

from .command_log import log_commands

AMAP = AddressMap()


def make_controller(write_drain="watermark", write_entries=8):
    dram = DramSystem(DDR2Timing(), enable_refresh=False)
    controller = MemoryController(
        dram, AMAP, 1, policy=get_policy("FR-FCFS"),
        write_entries_per_thread=write_entries, write_drain=write_drain,
    )
    return controller


def req(kind, bank, row, column=0):
    return MemoryRequest(
        thread_id=0, kind=kind, address=AMAP.encode(0, bank, row, column),
        arrival_time=0,
    )


class TestValidation:
    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            make_controller(write_drain="eager")

    def test_fcfs_mode_never_gates(self):
        controller = make_controller(write_drain="fcfs")
        controller.try_enqueue(req(RequestKind.WRITE, 0, 1))
        controller.try_enqueue(req(RequestKind.READ, 1, 1))
        for now in range(400):
            controller.tick(now)
        assert controller.stats.write_count[0] == 1


class TestGating:
    def test_writes_held_while_reads_pending_below_watermark(self):
        controller = make_controller()
        log = log_commands(controller)
        # Two writes (below the high watermark of 6) and a stream of
        # reads: the reads must all issue before any write.
        for column in range(2):
            controller.try_enqueue(req(RequestKind.WRITE, 0, 9, column))
        for column in range(4):
            controller.try_enqueue(req(RequestKind.READ, 1, 5, column))
        for now in range(3_000):
            controller.tick(now)
        kinds = [e.kind for e in log.commands]
        first_write = kinds.index(CommandType.WRITE)
        assert kinds[:first_write].count(CommandType.READ) == 4

    def test_writes_drain_when_no_reads(self):
        controller = make_controller()
        controller.try_enqueue(req(RequestKind.WRITE, 0, 9))
        for now in range(600):
            controller.tick(now)
        assert controller.stats.write_count[0] == 1

    def test_high_watermark_triggers_drain_despite_reads(self):
        controller = make_controller(write_entries=8)
        # Fill writes past the 75% watermark (6 of 8)...
        for column in range(7):
            controller.try_enqueue(req(RequestKind.WRITE, 0, 9, column))
        # ...with reads continuously present.
        for column in range(4):
            controller.try_enqueue(req(RequestKind.READ, 1, 5, column))
        for now in range(8_000):
            controller.tick(now)
        assert controller.stats.write_count[0] == 7

    def test_all_requests_complete_eventually(self):
        controller = make_controller()
        requests = [req(RequestKind.WRITE, b % 8, 3, b % 32) for b in range(5)]
        requests += [req(RequestKind.READ, b % 8, 4, b % 32) for b in range(5)]
        for request in requests:
            assert controller.try_enqueue(request)
        for now in range(20_000):
            controller.tick(now)
        assert all(r.done for r in requests)
        assert controller.buffers.total_occupancy() == 0
