"""Core + prefetcher integration: coverage, budgets, fill handling."""

import itertools

from repro.controller.request import MemoryRequest
from repro.cpu.cache import CacheConfig
from repro.cpu.core_model import CoreConfig, OooCore
from repro.cpu.hierarchy import CacheHierarchy
from repro.cpu.prefetch import PrefetchConfig
from repro.cpu.trace import TraceRecord

TINY_L1 = CacheConfig(size_bytes=2 * 64 * 2, assoc=2, latency=2)
BIG_L2 = CacheConfig(size_bytes=64 * 1024, assoc=8, latency=12)


class Memory:
    def __init__(self):
        self.requests = []

    def __call__(self, request: MemoryRequest) -> bool:
        self.requests.append(request)
        return True


def sequential_loads(n, gap=30):
    return [TraceRecord(gap, False, i * 64, 0) for i in range(n)]


def make_core(records, prefetch=None):
    memory = Memory()
    config = CoreConfig(prefetch=prefetch or PrefetchConfig())
    hierarchy = CacheHierarchy(l1i=TINY_L1, l1d=TINY_L1, l2=BIG_L2)
    core = OooCore(
        0, config, iter(records), hierarchy, memory, itertools.count().__next__
    )
    return core, memory


def run_with_fills(core, memory, cycles, fill_latency=50):
    fills = []  # (time, line)
    issued = set()
    for now in range(cycles):
        for request in memory.requests:
            if request.is_read and request.seq not in issued:
                issued.add(request.seq)
                fills.append((now + fill_latency, request.address >> 6))
        for when, line in list(fills):
            if when <= now:
                core.on_fill(line, now)
                fills.remove((when, line))
        core.tick(now)


class TestStreamCoverage:
    def test_prefetches_issued_for_sequential_stream(self):
        core, memory = make_core(sequential_loads(200))
        run_with_fills(core, memory, 600)
        prefetches = [r for r in memory.requests if r.prefetch]
        assert len(prefetches) > 10

    def test_coverage_turns_demands_into_hits(self):
        core, memory = make_core(sequential_loads(200))
        run_with_fills(core, memory, 3000)
        # After the stream ramps, most demand accesses hit prefetched
        # lines in the L2.
        assert core.stats.l2_hits > core.stats.memory_reads

    def test_disabled_prefetcher_all_demand(self):
        core, memory = make_core(
            sequential_loads(100), prefetch=PrefetchConfig(enabled=False)
        )
        run_with_fills(core, memory, 2000)
        assert all(not r.prefetch for r in memory.requests)

    def test_prefetch_budget_respected(self):
        config = PrefetchConfig(budget=4)
        core, memory = make_core(sequential_loads(300), prefetch=config)
        outstanding_max = 0
        issued = set()
        fills = []
        for now in range(800):
            for request in memory.requests:
                if request.is_read and request.seq not in issued:
                    issued.add(request.seq)
                    fills.append((now + 60, request.address >> 6))
            for when, line in list(fills):
                if when <= now:
                    core.on_fill(line, now)
                    fills.remove((when, line))
            core.tick(now)
            outstanding_max = max(outstanding_max, len(core._prefetch_lines))
        assert 0 < outstanding_max <= 4


class TestDemandMerge:
    def test_demand_merging_into_prefetch_counts_useful(self):
        core, memory = make_core(sequential_loads(200, gap=5))
        run_with_fills(core, memory, 1500, fill_latency=300)
        # With slow fills, demands catch up to in-flight prefetches.
        assert core.prefetcher.useful > 0

    def test_pure_random_stream_no_prefetch(self):
        import random

        rng = random.Random(1)
        records = [
            TraceRecord(30, False, rng.randrange(1 << 22) * 64, 0)
            for _ in range(200)
        ]
        core, memory = make_core(records)
        run_with_fills(core, memory, 2000)
        prefetches = [r for r in memory.requests if r.prefetch]
        assert len(prefetches) < 10
