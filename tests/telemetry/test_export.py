"""Exporters: Perfetto schema validation and interval-dump round-trips."""

import json

import pytest

from repro.telemetry.driver import run_traced
from repro.telemetry.export import (
    BANK_PID,
    THREAD_PID,
    load_intervals,
    perfetto_trace,
    validate_trace,
    write_intervals_csv,
    write_intervals_jsonl,
    write_trace,
)
from repro.telemetry.sampler import INTERVAL_COLUMNS
from repro.workloads.spec2000 import profile


@pytest.fixture(scope="module")
def traced():
    return run_traced(
        [profile("vpr"), profile("art")],
        "FQ-VFTF",
        cycles=4_000,
        warmup=1_000,
        sample_period=1_000,
        with_targets=False,
    )


class TestPerfettoSchema:
    def test_real_trace_validates_clean(self, traced):
        trace = perfetto_trace(traced.telemetry, fair_shares=[0.4, 0.6])
        problems = validate_trace(trace)
        assert problems == [], "\n".join(problems)

    def test_trace_structure(self, traced):
        trace = perfetto_trace(traced.telemetry, fair_shares=[0.4, 0.6])
        events = trace["traceEvents"]
        phases = {e["ph"] for e in events}
        assert phases == {"M", "X", "C"}
        # Thread metadata names every simulated thread.
        thread_meta = [
            e["args"]["name"]
            for e in events
            if e["ph"] == "M"
            and e["name"] == "thread_name"
            and e["pid"] == THREAD_PID
        ]
        assert thread_meta == ["T0 vpr", "T1 art"]
        # Bank tracks exist and carry DRAM command slices.
        bank_slices = [
            e for e in events if e["ph"] == "X" and e["pid"] == BANK_PID
        ]
        assert bank_slices
        assert all(e["dur"] > 0 for e in bank_slices)
        # Counters include the fair-share target series.
        counter_names = {e["name"] for e in events if e["ph"] == "C"}
        assert "T0 fair_share_target" in counter_names
        assert "T1 bus_share" in counter_names
        assert trace["otherData"]["time_unit"] == "dram_cycles"
        assert "lifecycles_dropped" in trace["otherData"]["truncation"]

    def test_write_trace_is_loadable_json(self, traced, tmp_path):
        trace = perfetto_trace(traced.telemetry)
        path = tmp_path / "trace.json"
        write_trace(path, trace)
        loaded = json.loads(path.read_text())
        assert loaded["traceEvents"] == trace["traceEvents"]

    def test_validator_catches_corruption(self, traced):
        trace = perfetto_trace(traced.telemetry)
        good = trace["traceEvents"]
        cases = [
            ({"traceEvents": "nope"}, "traceEvents"),
            ({"traceEvents": good + [{"ph": "B", "name": "x"}]}, "ph"),
            (
                {"traceEvents": good + [{"ph": "X", "name": "x", "pid": 0,
                                         "tid": 0, "ts": 5, "dur": 0}]},
                "dur",
            ),
            (
                {"traceEvents": good + [{"ph": "X", "name": "x", "pid": 0,
                                         "tid": 0, "ts": -1, "dur": 2}]},
                "ts",
            ),
            (
                {"traceEvents": good + [{"ph": "C", "name": "x", "pid": 0,
                                         "tid": 0, "ts": 5}]},
                "args",
            ),
            (
                {"traceEvents": good + [{"ph": "M", "name": "oddball",
                                         "pid": 0, "tid": 0, "args": {}}]},
                "metadata",
            ),
        ]
        for corrupted, needle in cases:
            problems = validate_trace(corrupted)
            assert problems, f"expected a problem mentioning {needle!r}"
            assert any(needle in p for p in problems), problems


class TestIntervalDumps:
    def test_csv_round_trip(self, traced, tmp_path):
        samples = traced.telemetry.samples()
        path = tmp_path / "intervals.csv"
        write_intervals_csv(path, samples, num_threads=2)
        rows = load_intervals(path)
        assert len(rows) == len(samples) * 2
        assert set(rows[0]) == set(INTERVAL_COLUMNS)
        assert rows[0]["cycle"] == samples[0].cycle
        assert rows[1]["thread"] == 1.0
        assert rows[0]["bus_utilization"] == samples[0].bus_utilization[0]

    def test_jsonl_round_trip_matches_csv(self, traced, tmp_path):
        samples = traced.telemetry.samples()
        csv_path = tmp_path / "intervals.csv"
        jsonl_path = tmp_path / "intervals.jsonl"
        write_intervals_csv(csv_path, samples, num_threads=2)
        write_intervals_jsonl(jsonl_path, samples, num_threads=2)
        assert load_intervals(csv_path) == load_intervals(jsonl_path)


def test_repeated_traced_runs_export_identical_documents():
    """A run's Perfetto document depends on that run alone.

    Request ``seq`` numbers appear in the export (the ``seq`` arg and
    the priority-key fields), so they must restart with every system
    rather than continue from whatever earlier runs in the process
    numbered.
    """

    def document():
        run = run_traced(
            [profile("vpr"), profile("art")],
            "FQ-VFTF",
            cycles=3_000,
            warmup=500,
            sample_period=1_000,
            with_targets=False,
        )
        return json.dumps(perfetto_trace(run.telemetry), sort_keys=True)

    assert document() == document()
