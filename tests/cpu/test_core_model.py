"""Out-of-order core model: retirement, MLP, MSHR limits, back-pressure."""

import itertools

import pytest

from repro.controller.request import MemoryRequest
from repro.cpu.cache import CacheConfig
from repro.cpu.core_model import CoreConfig, OooCore
from repro.cpu.hierarchy import CacheHierarchy
from repro.cpu.prefetch import PrefetchConfig
from repro.cpu.trace import TraceRecord

TINY_L1 = CacheConfig(size_bytes=2 * 64 * 2, assoc=2, latency=2)
TINY_L2 = CacheConfig(size_bytes=8 * 64 * 2, assoc=2, latency=12)


class MemoryStub:
    """Collects submitted requests; fills are delivered manually."""

    def __init__(self, accept=True):
        self.requests = []
        self.accept = accept

    def __call__(self, request: MemoryRequest) -> bool:
        if not self.accept:
            return False
        self.requests.append(request)
        return True


def make_core(records, memory=None, no_prefetch=True, **config_kwargs):
    memory = memory or MemoryStub()
    if no_prefetch:
        config_kwargs.setdefault("prefetch", PrefetchConfig(enabled=False))
    config = CoreConfig(**config_kwargs)
    hierarchy = CacheHierarchy(l1i=TINY_L1, l1d=TINY_L1, l2=TINY_L2)
    core = OooCore(
        0, config, iter(records), hierarchy, memory, itertools.count().__next__
    )
    return core, memory


def loads(addresses, gap=0, dep=0):
    return [TraceRecord(gap, False, a, dep) for a in addresses]


def run(core, cycles, start=0):
    for now in range(start, start + cycles):
        core.tick(now)
    return start + cycles


class TestPureCompute:
    def test_retires_at_full_width_with_no_memory_ops(self):
        # One far-future record so the frontier is far away.
        core, _ = make_core([TraceRecord(100_000, False, 0x40)], retire_width=4)
        run(core, 100)
        assert core.stats.instructions == pytest.approx(400)
        assert core.stats.ipc == pytest.approx(4.0)

    def test_finished_when_trace_exhausted(self):
        core, memory = make_core(loads([0x40]))
        run(core, 5)
        core.on_fill(0x40 >> 6, 5)
        run(core, 5, start=5)
        assert core.finished


class TestMemoryMisses:
    def test_miss_submitted_to_memory(self):
        core, memory = make_core(loads([0x4000]))
        run(core, 2)
        assert len(memory.requests) == 1
        assert memory.requests[0].address == 0x4000

    def test_head_miss_blocks_retirement(self):
        core, memory = make_core(loads([0x4000], gap=2))
        run(core, 50)
        # Retirement stops at the load's position (2 instructions in).
        assert core.stats.instructions <= 3

    def test_fill_unblocks_retirement(self):
        core, memory = make_core(
            loads([0x4000]) + [TraceRecord(100_000, False, 0x8000)]
        )
        run(core, 10)
        blocked = core.stats.instructions
        core.on_fill(0x4000 >> 6, 10)
        run(core, 10, start=10)
        assert core.stats.instructions > blocked + 30

    def test_independent_misses_overlap(self):
        addresses = [0x4000 + i * 0x1000 for i in range(8)]
        core, memory = make_core(loads(addresses), issue_ports=8)
        run(core, 3)
        assert len(memory.requests) == 8  # memory-level parallelism

    def test_dependent_misses_serialize(self):
        addresses = [0x4000 + i * 0x1000 for i in range(8)]
        core, memory = make_core(loads(addresses, dep=1), issue_ports=8)
        run(core, 20)
        assert len(memory.requests) == 1
        core.on_fill(memory.requests[0].address >> 6, 20)
        run(core, 5, start=20)
        assert len(memory.requests) == 2

    def test_mshr_limit_bounds_outstanding(self):
        addresses = [0x4000 + i * 0x1000 for i in range(20)]
        core, memory = make_core(
            loads(addresses), mshrs=4, issue_ports=8, lsq_size=32
        )
        run(core, 20)
        assert len(memory.requests) == 4
        assert core.stats.mshr_stall_cycles > 0

    def test_same_line_misses_merge(self):
        core, memory = make_core(loads([0x4000, 0x4008, 0x4010]), issue_ports=4)
        run(core, 5)
        assert len(memory.requests) == 1  # one line, merged in MSHR


class TestNackBackPressure:
    def test_nack_retries_until_accepted(self):
        memory = MemoryStub(accept=False)
        core, _ = make_core(loads([0x4000]), memory=memory)
        run(core, 5)
        assert memory.requests == []
        assert core.stats.nacks > 0
        memory.accept = True
        run(core, 5, start=5)
        assert len(memory.requests) == 1


class TestCacheHits:
    def test_l2_hit_completes_locally(self):
        # dep=1 keeps the second access waiting until the first's fill,
        # so it probes the L2 after the line is resident.
        core, memory = make_core(loads([0x4000, 0x4000], dep=1))
        run(core, 3)
        core.on_fill(0x4000 >> 6, 3)
        run(core, 20, start=3)
        assert len(memory.requests) == 1  # second access hits in L2
        assert core.stats.l2_hits >= 1


class TestWritebacks:
    def test_dirty_eviction_reaches_memory(self):
        # Store to a line, then stream same-set lines through the tiny
        # L2 to force the dirty eviction out as a writeback.
        store = [TraceRecord(0, True, 0x0)]
        evictors = loads([i * 16 * 64 for i in range(1, 4)])
        core, memory = make_core(store + evictors, issue_ports=4)
        now = 0
        for _ in range(30):
            core.tick(now)
            for request in list(memory.requests):
                if request.is_read and not request.done:
                    request.completed_at = now
                    core.on_fill(request.address >> 6, now)
            now += 1
        writes = [r for r in memory.requests if r.is_write]
        assert len(writes) == 1
        assert writes[0].address == 0x0


class TestSleepFastPath:
    def test_core_sleeps_when_fully_blocked(self):
        core, memory = make_core(loads([0x4000], gap=0))
        run(core, 10)
        assert core.asleep
        core.on_fill(0x4000 >> 6, 10)
        assert not core.asleep

    def test_sleep_skip_accounts_cycles(self):
        core, memory = make_core(loads([0x4000]))
        run(core, 5)
        before = core.stats.cycles
        core.sleep_skip(100)
        assert core.stats.cycles == before + 100


class TestQuiescenceAndSkip:
    def test_quiescent_during_pure_compute(self):
        core, _ = make_core([TraceRecord(100_000, False, 0x40)])
        run(core, 3)
        assert core.quiescent()

    def test_next_event_accounts_for_retire_rate(self):
        core, _ = make_core([TraceRecord(100_000, False, 0x40)], retire_width=4)
        run(core, 1)
        event = core.next_event_time(1)
        # Must fetch when retired + rob >= 100_000; ~(100_000-128)/4.
        assert event == pytest.approx(1 + (100_000 - 128 - 4) / 4, abs=3)

    def test_skip_to_bulk_retires(self):
        core, _ = make_core([TraceRecord(100_000, False, 0x40)], retire_width=4)
        run(core, 1)
        core.skip_to(1, 1001)
        assert core.stats.cycles == 1001
        assert core.stats.instructions == pytest.approx(4 * 1001, rel=0.01)

    def test_skip_never_overshoots_frontier(self):
        core, _ = make_core([TraceRecord(100, False, 0x40)])
        run(core, 1)
        core.skip_to(1, 10_000)
        assert core.stats.instructions <= 101


class TestMicroarchitecturalSensitivity:
    """Resource sizes must move performance the way architecture says."""

    def _misses_overlapped(self, rob_size, n=16, gap=6):
        addresses = [0x4000 + i * 0x1000 for i in range(n)]
        core, memory = make_core(
            loads(addresses, gap=gap), rob_size=rob_size, issue_ports=8,
            lsq_size=32,
        )
        run(core, 30)
        return len(memory.requests)

    def test_bigger_rob_exposes_more_mlp(self):
        # With 6-instruction gaps, a 16-entry ROB window covers ~2
        # loads while 128 covers all of them.
        small = self._misses_overlapped(rob_size=16)
        large = self._misses_overlapped(rob_size=128)
        assert large > small

    def test_wider_retire_reaches_loads_faster(self):
        def cycles_until_first_request(width):
            core, memory = make_core(
                loads([0x4000], gap=400), retire_width=width
            )
            for now in range(2000):
                core.tick(now)
                if memory.requests:
                    return now
            raise AssertionError("no request issued")

        assert cycles_until_first_request(8.0) < cycles_until_first_request(1.0)


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rob_size": 0},
            {"retire_width": 0},
            {"issue_ports": 0},
            {"mshrs": 0},
            {"lsq_size": -1},
        ],
    )
    def test_rejects_bad_config(self, kwargs):
        with pytest.raises(ValueError):
            CoreConfig(**kwargs)
