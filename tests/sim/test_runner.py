"""Run helpers: memoization, baselines, normalized-IPC plumbing."""

import pytest

from repro.sim import cache
from repro.sim.runner import (
    clear_solo_cache,
    coscheduled_pair,
    default_warmup,
    memo_get,
    memo_put,
    run_group,
    run_solo,
    run_workload,
)
from repro.workloads.spec2000 import profile

CYCLES = 6_000


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_solo_cache()
    yield
    clear_solo_cache()


class TestRunSolo:
    def test_memoized(self):
        a = run_solo(profile("gzip"), cycles=CYCLES)
        b = run_solo(profile("gzip"), cycles=CYCLES)
        assert a is b  # same cached object

    def test_scale_changes_result(self):
        a = run_solo(profile("gzip"), cycles=CYCLES)
        b = run_solo(profile("gzip"), scale=2.0, cycles=CYCLES)
        assert a is not b
        assert a.threads[0].ipc >= b.threads[0].ipc

    def test_single_thread(self):
        result = run_solo(profile("gzip"), cycles=CYCLES)
        assert len(result.threads) == 1
        assert result.threads[0].name == "gzip"


class TestRunWorkloadAndGroup:
    def test_policy_applied(self):
        result = run_workload(
            [profile("gzip"), profile("gap")], "FQ-VFTF", cycles=CYCLES
        )
        assert result.policy == "FQ-VFTF"
        assert len(result.threads) == 2

    def test_group_memoized(self):
        a = run_group([profile("gzip"), profile("gap")], "FR-FCFS", cycles=CYCLES)
        b = run_group([profile("gzip"), profile("gap")], "FR-FCFS", cycles=CYCLES)
        assert a is b

    def test_group_distinguishes_policy(self):
        a = run_group([profile("gzip"), profile("gap")], "FR-FCFS", cycles=CYCLES)
        b = run_group([profile("gzip"), profile("gap")], "FQ-VFTF", cycles=CYCLES)
        assert a is not b


class TestCoscheduledPair:
    def test_returns_normalized_ipcs(self):
        result, n_subject, n_background = coscheduled_pair(
            profile("gzip"), profile("gap"), "FQ-VFTF", cycles=CYCLES
        )
        assert n_subject > 0
        assert n_background > 0
        assert result.threads[0].name == "gzip"


class TestWarmup:
    def test_default_warmup_fraction(self):
        assert default_warmup(1000) == 250


class TestMemoLru:
    def test_default_cap_is_generous(self):
        assert cache.MEMO_CAP >= 1024

    def test_eviction_drops_least_recently_used(self, monkeypatch):
        monkeypatch.setattr(cache, "MEMO_CAP", 2)
        a = run_solo(profile("gzip"), cycles=CYCLES)
        b = run_solo(profile("gap"), cycles=CYCLES)
        # Touch gzip so gap becomes the LRU entry, then insert a third.
        assert run_solo(profile("gzip"), cycles=CYCLES) is a
        c = run_solo(profile("vpr"), cycles=CYCLES)
        assert len(cache._memo) == 2
        assert run_solo(profile("gzip"), cycles=CYCLES) is a
        assert run_solo(profile("vpr"), cycles=CYCLES) is c
        # gap was evicted: a fresh run returns an equal but new object.
        b2 = run_solo(profile("gap"), cycles=CYCLES)
        assert b2 is not b
        assert b2 == b

    def test_memo_put_respects_cap(self, monkeypatch):
        monkeypatch.setattr(cache, "MEMO_CAP", 1)
        run_solo(profile("gzip"), cycles=CYCLES)
        run_solo(profile("gap"), cycles=CYCLES)
        assert len(cache._memo) == 1
        memo_put(object(), object())
        assert len(cache._memo) == 1

    def test_memo_get_refreshes_recency(self, monkeypatch):
        monkeypatch.setattr(cache, "MEMO_CAP", 2)
        a = run_solo(profile("gzip"), cycles=CYCLES)
        run_solo(profile("gap"), cycles=CYCLES)
        spec = next(iter(cache._memo))  # gzip's spec (insertion order)
        assert memo_get(spec) is a
        run_solo(profile("vpr"), cycles=CYCLES)
        # gzip survived the eviction because memo_get refreshed it.
        assert memo_get(spec) is a
