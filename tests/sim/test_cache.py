"""The result lookup path: fingerprints, round-trips, memo → store."""

import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from repro.serve.store import ResultStore
from repro.sim import parallel
from repro.sim.cache import (
    ResultCache,
    configure_cache,
    fingerprint,
    result_from_json,
    result_to_json,
)
from repro.sim.config import SystemConfig
from repro.sim.parallel import RunSpec, execute_spec, group_spec, run_many
from repro.sim.runner import clear_solo_cache, run_group
from repro.workloads.spec2000 import profile

CYCLES = 4_000
WARMUP = 1_000
SRC = Path(__file__).resolve().parents[2] / "src"


@pytest.fixture
def disk_cache(tmp_path):
    """Route the process-wide lookup path at a private store for one test."""
    cache = configure_cache(cache_dir=tmp_path / "cache")
    clear_solo_cache()
    yield cache
    clear_solo_cache()
    configure_cache()  # back to environment-driven resolution


@pytest.fixture
def no_simulation(monkeypatch):
    """Make any further simulation fail: what follows must be a hit."""

    def refuse(spec):
        raise AssertionError(f"{spec} was simulated, not served")

    def arm():
        monkeypatch.setattr(parallel, "execute_spec", refuse)

    return arm


def _manifest_path(store, spec):
    return store.runs_dir / f"run-{spec.fingerprint()[:16]}.json"


def _edit_manifest(store, spec, edit):
    path = _manifest_path(store, spec)
    payload = json.loads(path.read_text())
    edit(payload)
    path.write_text(json.dumps(payload))


def _config(**overrides):
    defaults = dict(num_cores=2, policy="FQ-VFTF", seed=0)
    defaults.update(overrides)
    return SystemConfig(**defaults)


class TestFingerprint:
    def test_deterministic(self):
        profiles = [profile("vpr"), profile("art")]
        a = fingerprint(_config(), profiles, CYCLES, WARMUP, 0)
        b = fingerprint(_config(), profiles, CYCLES, WARMUP, 0)
        assert a == b

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(cycles=CYCLES + 1),
            dict(warmup=WARMUP + 1),
            dict(seed=7),
        ],
    )
    def test_window_and_seed_are_significant(self, kwargs):
        profiles = [profile("vpr")]
        base = dict(cycles=CYCLES, warmup=WARMUP, seed=0)
        a = fingerprint(_config(), profiles, **base)
        b = fingerprint(_config(), profiles, **{**base, **kwargs})
        assert a != b

    def test_config_is_significant(self):
        profiles = [profile("vpr"), profile("art")]
        a = fingerprint(_config(), profiles, CYCLES, WARMUP, 0)
        b = fingerprint(_config(policy="FR-FCFS"), profiles, CYCLES, WARMUP, 0)
        assert a != b

    def test_profile_content_is_significant(self):
        a = fingerprint(_config(), [profile("vpr")], CYCLES, WARMUP, 0)
        b = fingerprint(_config(), [profile("gzip")], CYCLES, WARMUP, 0)
        assert a != b

    def test_code_salt_is_significant(self, monkeypatch):
        profiles = [profile("vpr")]
        monkeypatch.setenv("REPRO_CACHE_SALT", "one")
        a = fingerprint(_config(), profiles, CYCLES, WARMUP, 0)
        monkeypatch.setenv("REPRO_CACHE_SALT", "two")
        b = fingerprint(_config(), profiles, CYCLES, WARMUP, 0)
        assert a != b


class TestJsonRoundTrip:
    def test_exact(self):
        spec = group_spec(("gzip", "gap"), "FQ-VFTF", CYCLES, WARMUP, 0)
        result = execute_spec(spec)
        # Through real serialized text, not just the dict form.
        payload = json.loads(json.dumps(result_to_json(result)))
        restored = result_from_json(payload)
        assert restored == result
        assert restored is not result


class TestResultCache:
    @pytest.fixture(autouse=True)
    def _empty_memo(self):
        clear_solo_cache()
        yield
        clear_solo_cache()

    def test_miss_returns_none(self, tmp_path):
        cache = ResultCache(ResultStore(tmp_path))
        assert cache.get(group_spec(("gzip",), "FR-FCFS", CYCLES, WARMUP, 0)) is None

    def test_put_then_get(self, tmp_path):
        spec = group_spec(("gzip",), "FR-FCFS", CYCLES, WARMUP, 0)
        result = execute_spec(spec)
        cache = ResultCache(ResultStore(tmp_path))
        cache.put(spec, result)
        assert cache.get(spec) is result  # the memo
        clear_solo_cache()
        loaded = ResultCache(ResultStore(tmp_path)).get(spec)
        assert loaded == result
        assert loaded is not result
        # The manifest and its index line are the only result files.
        files = sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*"))
        assert files == ["index.jsonl", "runs", _manifest_path(cache.store, spec)
                         .relative_to(tmp_path).as_posix()]

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        spec = group_spec(("gzip",), "FR-FCFS", CYCLES, WARMUP, 0)
        cache = ResultCache(ResultStore(tmp_path))
        cache.put(spec, execute_spec(spec))
        clear_solo_cache()
        _manifest_path(cache.store, spec).write_text("{not json")
        assert cache.get(spec) is None

    def test_without_a_store_only_the_memo_serves(self, tmp_path):
        spec = group_spec(("gzip",), "FR-FCFS", CYCLES, WARMUP, 0)
        result = execute_spec(spec)
        cache = ResultCache()
        assert cache.key(spec) is None
        cache.put(spec, result)
        assert cache.get(spec) is result
        clear_solo_cache()
        assert cache.get(spec) is None

    def test_store_opened_earlier_sees_a_later_record(self, tmp_path):
        spec = group_spec(("gzip",), "FR-FCFS", CYCLES, WARMUP, 0)
        result = execute_spec(spec)
        early = ResultStore(tmp_path)
        ResultStore(tmp_path).record(spec, result)
        loaded = early.get_result(spec)
        assert result_to_json(loaded) == result_to_json(result)
        # Found by name, then indexed here: recording it again is a no-op.
        assert len(early) == 1
        lines = early.index_path.read_text().splitlines()
        early.record(spec, result)
        assert early.index_path.read_text().splitlines() == lines

    def test_manifest_of_another_fingerprint_is_a_miss(self, tmp_path):
        spec = group_spec(("gzip",), "FR-FCFS", CYCLES, WARMUP, 0)
        store = ResultStore(tmp_path)
        store.record(spec, execute_spec(spec))
        key = spec.fingerprint()
        # Same 16-digit file name, different full fingerprint.
        other = key[:16] + ("0" if key[16] != "0" else "1") + key[17:]

        def retag(payload):
            payload["fingerprint"] = other

        _edit_manifest(store, spec, retag)
        assert ResultStore(tmp_path).get_result(spec) is None
        assert store.get_result(spec, other) is not None


class TestTransparency:
    def test_disk_hit_is_bit_identical_to_fresh_run(self, disk_cache, no_simulation):
        profiles = [profile("vpr"), profile("art")]
        fresh = run_group(profiles, "FQ-VFTF", cycles=CYCLES, warmup=WARMUP)
        assert len(disk_cache.store) == 1
        # Drop the in-process memo so the next call must load from disk.
        clear_solo_cache()
        no_simulation()
        cached = run_group(profiles, "FQ-VFTF", cycles=CYCLES, warmup=WARMUP)
        assert cached is not fresh
        assert cached == fresh


class TestExtrasRoundTrip:
    """SimResult.extras must survive every cache path (engine counters
    ride in it; see docs/INTERNALS.md §5)."""

    def test_extras_survive_serialized_text(self):
        spec = group_spec(("gzip", "gap"), "FQ-VFTF", CYCLES, WARMUP, 0)
        result = execute_spec(spec)
        assert result.extras, "event-engine runs must report engine counters"
        payload = json.loads(json.dumps(result_to_json(result)))
        assert result_from_json(payload).extras == result.extras

    def test_extras_survive_disk_hit_via_run_many(self, disk_cache, no_simulation):
        spec = group_spec(("vpr", "art"), "FQ-VFTF", CYCLES, WARMUP, 0)
        fresh = run_many([spec], jobs=1)[spec]
        assert fresh.extras
        # Drop the memo so the second batch must load from disk.
        clear_solo_cache()
        no_simulation()
        cached = run_many([spec], jobs=1)[spec]
        assert cached is not fresh
        assert cached.extras == fresh.extras

    def test_payload_without_extras_is_a_cache_miss(self, tmp_path):
        spec = group_spec(("gzip",), "FR-FCFS", CYCLES, WARMUP, 0)
        store = ResultStore(tmp_path)
        store.record(spec, execute_spec(spec))

        def drop_extras(payload):
            del payload["result"]["payload"]["extras"]

        _edit_manifest(store, spec, drop_extras)
        # A legacy/hand-edited entry without extras must re-simulate,
        # not serve a result whose counters were silently defaulted.
        assert ResultStore(tmp_path).get_result(spec) is None


class TestRunManyWriteBack:
    SPECS = (
        group_spec(("vpr", "art"), "FR-FCFS", 600, 150, 0),
        group_spec(("gzip", "gap"), "FR-FCFS", 600, 150, 0),
        group_spec(("vpr", "art"), "FQ-VFTF", 600, 150, 0),
    )

    @pytest.fixture(autouse=True)
    def _private(self, disk_cache):
        return disk_cache

    def test_every_returned_spec_reaches_the_store(self, tmp_path):
        first, second, third = self.SPECS
        run_many([first], jobs=1)  # a memo hit below
        store = ResultStore(tmp_path / "store")
        recorded = []
        record = store.record

        def watched(spec, result, *args, **kwargs):
            recorded.append((spec, kwargs.get("source")))
            return record(spec, result, *args, **kwargs)

        store.record = watched  # on the instance, as observers do
        results = run_many([first, second, third, second], jobs=1, store=store)
        assert list(results) == [first, second, third]
        assert recorded == [(first, "cache"), (second, "fresh"), (third, "fresh")]
        # The caller's store replaces the process-wide one for this call.
        assert len(store) == 3
        assert len(configure_cache(cache_dir=tmp_path / "cache").store) == 1

    def test_fingerprint_computed_once_per_spec_per_call(self, tmp_path, monkeypatch):
        calls = Counter()
        original = RunSpec.fingerprint

        def counting(spec):
            calls[spec] += 1
            return original(spec)

        monkeypatch.setattr(RunSpec, "fingerprint", counting)
        # Per-run obs manifests name themselves by fingerprint too.
        monkeypatch.delenv("REPRO_OBS_MANIFEST", raising=False)
        store = ResultStore(tmp_path / "store")
        run_many(self.SPECS, jobs=1, store=store)  # cold: simulate, record
        assert sorted(calls.values()) == [1, 1, 1]
        calls.clear()
        clear_solo_cache()
        run_many(self.SPECS, jobs=1, store=store)  # warm: store hits
        assert sorted(calls.values()) == [1, 1, 1]
        calls.clear()
        run_many(self.SPECS, jobs=1, store=store)  # memo hits
        assert sorted(calls.values()) == [1, 1, 1]


_RECORD_SCRIPT = """
import sys
from repro.serve.store import ResultStore
from repro.sim.cache import configure_cache
from repro.sim.parallel import group_spec, run_many
from repro.sim.runner import clear_solo_cache

root, history = sys.argv[1], sys.argv[2] == "1"
configure_cache(cache_dir=root + "/cache")
spec = group_spec(("vpr", "art"), "FR-FCFS", 600, 150, 0)
if history:
    run_many([group_spec(("gzip", "gap"), "FR-FCFS", 600, 150, 0), spec])
    clear_solo_cache()
run_many([spec], store=ResultStore(root + "/store"))
"""


def test_manifest_metrics_do_not_depend_on_process_history(tmp_path):
    """The same run, recorded by a fresh process and by one that looked
    up other runs first, gets the same metrics."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    metrics = []
    for history in ("0", "1"):
        root = tmp_path / f"history{history}"
        subprocess.run(
            [sys.executable, "-c", _RECORD_SCRIPT, str(root), history],
            check=True, env=env, timeout=300,
        )
        (manifest,) = (root / "store" / "runs").glob("run-*.json")
        metrics.append(json.loads(manifest.read_text())["metrics"])
    assert metrics[0] == metrics[1]
