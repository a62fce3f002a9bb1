"""``repro-fqms sweep``: end-to-end batch runs and manifest backfill."""

import json
import os

import pytest

from repro.obs.sweepcli import _parse_mixes, main
from repro.sim import runner
from repro.sim.cache import configure_cache


@pytest.fixture(autouse=True)
def _isolated_caches(tmp_path, monkeypatch):
    """Each test gets a private result store and a clean memo/env.

    The cache goes through ``REPRO_CACHE_DIR`` (not ``configure_cache``)
    because ``sweep`` itself reconfigures the cache from the environment
    on every invocation.
    """
    monkeypatch.delenv("REPRO_OBS", raising=False)
    monkeypatch.delenv("REPRO_OBS_MANIFEST", raising=False)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    runner.clear_solo_cache()
    configure_cache()  # pick up the isolated REPRO_CACHE_DIR
    yield
    # ``sweep --obs/--manifest-dir`` export these into os.environ itself
    # (so pool workers inherit them); monkeypatch restores only what it
    # set, so drop them here or every later test runs instrumented.
    os.environ.pop("REPRO_OBS", None)
    os.environ.pop("REPRO_OBS_MANIFEST", None)
    runner.clear_solo_cache()
    configure_cache()  # back to env-resolved default


class TestParsing:
    def test_mixes_split_on_commas(self):
        assert _parse_mixes(["vpr,art", "crafty"]) == [["vpr", "art"], ["crafty"]]

    def test_empty_mix_rejected(self):
        with pytest.raises(SystemExit):
            _parse_mixes([","])

    def test_bad_jobs_exits_two(self):
        assert main(["--jobs", "0"]) == 2

    def test_unknown_policy_exits_two(self, capsys):
        assert main(["--policies", "NOT-A-POLICY"]) == 2
        assert "NOT-A-POLICY" in capsys.readouterr().out


class TestEndToEnd:
    ARGS = ["--workload", "vpr,art", "--cycles", "2000", "--seed", "0"]

    def test_single_job_sweep_prints_summary(self, capsys):
        code = main(self.ARGS + ["--policies", "FR-FCFS,FQ-VFTF"])
        assert code == 0
        out = capsys.readouterr().out
        assert "vpr+art" in out
        assert "FQ-VFTF" in out and "FR-FCFS" in out

    def test_progress_dashboard_final_snapshot_off_tty(self, capsys):
        code = main(self.ARGS + ["--policies", "FQ-VFTF", "--progress"])
        assert code == 0
        out = capsys.readouterr().out
        assert "fleet: 1/1 runs finished" in out
        assert "vpr+art:FQ-VFTF@s0" in out

    def test_manifests_written_and_backfilled(self, tmp_path, capsys):
        out_dir = tmp_path / "manifests"
        # First sweep simulates fresh and writes worker-side manifests.
        assert main(
            self.ARGS
            + ["--policies", "FQ-VFTF", "--obs", "--manifest-dir", str(out_dir)]
        ) == 0
        files = sorted(out_dir.glob("run-*.json"))
        assert len(files) == 1
        fresh = json.loads(files[0].read_text())
        assert fresh["kind"] == "run"
        assert fresh["labels"]["run.source"] == "fresh"
        assert any(name.startswith("engine.") for name in fresh["metrics"])

        # Second sweep is fully cache-served; the fingerprint-named
        # manifest already exists, so the fresh record is left intact.
        capsys.readouterr()
        assert main(
            self.ARGS
            + ["--policies", "FQ-VFTF", "--obs", "--manifest-dir", str(out_dir)]
        ) == 0
        again = json.loads(files[0].read_text())
        assert again["labels"]["run.source"] == "fresh"

    def test_cache_miss_backfills_as_cache_source(self, tmp_path):
        out_dir = tmp_path / "manifests"
        # Warm the cache without a manifest dir...
        assert main(self.ARGS + ["--policies", "FR-FCFS"]) == 0
        # ...then sweep again with one: the run is cache-served, so the
        # parent backfills its manifest with run.source = cache.
        assert main(
            self.ARGS + ["--policies", "FR-FCFS", "--manifest-dir", str(out_dir)]
        ) == 0
        files = sorted(out_dir.glob("run-*.json"))
        assert len(files) == 1
        payload = json.loads(files[0].read_text())
        assert payload["labels"]["run.source"] == "cache"
