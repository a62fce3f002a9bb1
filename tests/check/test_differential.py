"""Differential harness: checkers observe but never steer, and the
``REPRO_CHECK`` environment switch behaves."""

import pytest

from repro.check import CHECK_ENV_VAR, RunChecker, checks_enabled
from repro.check.harness import DEFAULT_POLICIES, differential_report, run_checked_pair
from repro.sim.config import SystemConfig
from repro.sim.system import CmpSystem
from repro.workloads.spec2000 import profile

CYCLES = 12_000


class TestBitIdentical:
    @pytest.mark.parametrize("policy", DEFAULT_POLICIES)
    def test_checked_run_matches_unchecked(self, policy):
        plain, checked, counters = run_checked_pair(policy, CYCLES)
        assert checked == plain
        assert counters["commands_checked"] > 0
        assert counters["requests_completed"] > 0

    def test_report_covers_every_policy(self):
        report = differential_report(CYCLES)
        for policy in DEFAULT_POLICIES:
            assert policy in report
        assert "all policies clean" in report


class TestEnvironmentSwitch:
    @pytest.mark.parametrize("value", ["1", "true", "yes", "on"])
    def test_enabling_values(self, monkeypatch, value):
        monkeypatch.setenv(CHECK_ENV_VAR, value)
        assert checks_enabled()

    @pytest.mark.parametrize("value", ["", "0", "false", "FALSE", "  "])
    def test_disabling_values(self, monkeypatch, value):
        monkeypatch.setenv(CHECK_ENV_VAR, value)
        assert not checks_enabled()

    def test_unset_means_disabled(self, monkeypatch):
        monkeypatch.delenv(CHECK_ENV_VAR, raising=False)
        assert not checks_enabled()

    def test_system_attaches_checkers_from_environment(self, monkeypatch):
        monkeypatch.setenv(CHECK_ENV_VAR, "1")
        system = CmpSystem(
            SystemConfig(policy="FQ-VFTF", num_cores=2, seed=0),
            [profile("vpr"), profile("art")],
        )
        (checker,) = system.probes
        assert isinstance(checker, RunChecker)
        assert len(checker.invariants) == len(system.controllers)

    def test_explicit_argument_overrides_environment(self, monkeypatch):
        monkeypatch.setenv(CHECK_ENV_VAR, "1")
        system = CmpSystem(
            SystemConfig(policy="FQ-VFTF", num_cores=2, seed=0),
            [profile("vpr"), profile("art")],
            probes=(),
        )
        assert system.probes == ()
        assert system.probe is None
