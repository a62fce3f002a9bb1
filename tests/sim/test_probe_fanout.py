"""The probe bus fans out without cross-talk.

With the checker, telemetry and obs probes all attached to one run,
the run's result must be bit-identical to a bare run, and each probe
must report exactly what it reports when attached alone: stacking
observers may neither steer the simulation nor leak one probe's
events into another's output.
"""

import dataclasses
import itertools

import pytest

from repro.check import CHECK_ENV_VAR, RunChecker
from repro.controller import request as request_module
from repro.obs import OBS_ENV_VAR, RunObs
from repro.probe import NEVER, Probe, ProbeFanout, probe_bus
from repro.sim.config import SystemConfig
from repro.sim.system import CmpSystem, comparable_result, env_probes
from repro.telemetry import RunTelemetry
from repro.telemetry.export import perfetto_trace
from repro.workloads.spec2000 import profile

WORKLOAD = ("vpr", "art")
CYCLES = 6_000
WARMUP = 1_500

#: Obs metrics that describe how the event engine stepped, not what the
#: run computed: telemetry's sample deadlines force one extra stepped
#: cycle per boundary, so these move by design when telemetry rides
#: along (the ``engine_*`` extras ``comparable_result`` strips, under
#: their registry names).  The per-cycle engine steps every cycle, so
#: there they must match too.
EVENT_STEPPING = {
    "engine.steps",
    "engine.cycles_skipped",
    "engine.skip_ratio",
    "engine.event_target_calls",
    "engine.sparse_tick_fraction",
}


def _run(monkeypatch, policy, engine, probes):
    # Request ``seq`` numbers (exported in traces and priority keys)
    # come from a process-wide counter; number each run from zero, as
    # a fresh process would, so runs compare like for like.
    monkeypatch.setattr(request_module, "_sequence", itertools.count())
    config = SystemConfig(
        num_cores=len(WORKLOAD), policy=policy, seed=0, engine=engine
    )
    system = CmpSystem(config, [profile(n) for n in WORKLOAD], probes=probes)
    return system.run(CYCLES, warmup=WARMUP)


def _telemetry_output(telemetry):
    return (
        [dataclasses.asdict(s) for s in telemetry.samples()],
        telemetry.summary(),
        perfetto_trace(telemetry),
    )


def _obs_output(obs, engine):
    skip = EVENT_STEPPING if engine == "event" else set()
    return {
        name: value
        for name, value in obs.metrics().items()
        if not name.startswith("phase.") and name not in skip
    }


@pytest.mark.parametrize("engine", ["event", "cycle"])
@pytest.mark.parametrize("policy", ["FQ-VFTF", "BLISS"])
def test_fanout_matches_bare_run_and_each_probe_alone(monkeypatch, policy, engine):
    bare = _run(monkeypatch, policy, engine, ())

    checker, telemetry, obs = RunChecker(), RunTelemetry(), RunObs()
    stacked = _run(monkeypatch, policy, engine, [checker, telemetry, obs])
    assert dataclasses.asdict(comparable_result(stacked)) == dataclasses.asdict(
        comparable_result(bare)
    )

    lone_checker = RunChecker()
    _run(monkeypatch, policy, engine, [lone_checker])
    assert checker.summary() == lone_checker.summary()
    assert checker.summary()["commands_checked"] > 0

    lone_telemetry = RunTelemetry()
    _run(monkeypatch, policy, engine, [lone_telemetry])
    assert _telemetry_output(telemetry) == _telemetry_output(lone_telemetry)
    assert telemetry.summary()["samples"] > 0

    lone_obs = RunObs()
    _run(monkeypatch, policy, engine, [lone_obs])
    assert _obs_output(obs, engine) == _obs_output(lone_obs, engine)
    assert obs.metrics()["legality.queries"] > 0


class TestBus:
    def test_bus_shape_follows_probe_count(self):
        assert probe_bus([]) is None
        probe = Probe()
        assert probe_bus([probe]) is probe
        fanout = probe_bus([Probe(), Probe()])
        assert isinstance(fanout, ProbeFanout)

    def test_fanout_deadline_is_earliest_member_deadline(self):
        telemetry = RunTelemetry(sample_period=700)
        fanout = ProbeFanout([Probe(), telemetry])
        assert Probe().next_sample == NEVER
        assert fanout.next_sample == 700

    def test_environment_resolves_checker_then_obs(self, monkeypatch):
        monkeypatch.setenv(CHECK_ENV_VAR, "1")
        monkeypatch.setenv(OBS_ENV_VAR, "1")
        probes = env_probes()
        assert [type(p) for p in probes] == [RunChecker, RunObs]
        system = CmpSystem(
            SystemConfig(num_cores=2, policy="FQ-VFTF", seed=0),
            [profile(n) for n in WORKLOAD],
        )
        assert isinstance(system.probe, ProbeFanout)
        assert system.phases is not None
        for controller in system.controllers:
            assert controller.probe is system.probe
            assert controller.channel_scheduler.probe is system.probe
        for core in system.cores:
            assert core.probe is system.probe
