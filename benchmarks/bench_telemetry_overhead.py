"""Observability overhead: probes must be free when off.

Times the vpr+art pair under FQ-VFTF four ways:

* ``baseline`` — no probe at all (``probes=()``), the shape every
  figure sweep and cached run takes;
* ``default`` — probes resolved from the environment with
  ``REPRO_CHECK`` and ``REPRO_OBS`` unset, i.e. the ``probe is None``
  fast path that guards every hook site (and the ``phases is None``
  fast path of the engine loops, guarded the same way);
* ``traced`` — a :class:`~repro.telemetry.RunTelemetry` probe attached
  (full lifecycle tracing + interval sampling);
* ``obs`` — a :class:`~repro.obs.RunObs` probe attached (metrics
  registry plus event-loop phase timing), the shape
  ``repro-fqms sweep --obs`` runs take.

The CI tripwire asserts the *default* path stays within
``DISABLED_SPEED_FLOOR`` of the explicit baseline: the probe bus's
disabled cost is a handful of ``is None`` checks per cycle, so a miss
here means a hook landed outside its guard.  The traced and obs runs
have no speed floor (they do real work) but must produce bit-identical
``SimResult`` s — the overhead budget is meaningless if observation
perturbs the run it observes.

Rates land in ``BENCH_telemetry.json`` at the repository root, written
through the shared manifest envelope (:mod:`repro.obs.manifest`).
"""

import dataclasses
from pathlib import Path
from time import perf_counter

from conftest import once

from repro import env
from repro.check import CHECK_ENV_VAR
from repro.obs import OBS_ENV_VAR, RunObs
from repro.obs.manifest import write_bench_record
from repro.sim.config import SystemConfig
from repro.sim.runner import default_warmup
from repro.sim.system import CmpSystem, comparable_result
from repro.telemetry import RunTelemetry
from repro.telemetry.driver import run_traced
from repro.telemetry.export import perfetto_trace, validate_trace
from repro.workloads.spec2000 import profile as lookup_profile

POLICY = "FQ-VFTF"
WORKLOAD = ("vpr", "art")
ROUNDS = 3

#: The env-resolved disabled path must stay within this fraction of the
#: explicit ``probes=()`` baseline.  Tightened from 0.90 when the obs
#: guards joined the per-cycle path: the disabled cost of every probe
#: site together is a handful of ``is None`` checks, and holding the
#: floor at 95% keeps "cheap guard creep" from hiding inside runner
#: noise.
DISABLED_SPEED_FLOOR = 0.95

RESULT_PATH = Path(__file__).resolve().parents[1] / "BENCH_telemetry.json"


#: Probe set per mode, built fresh for every round; ``None`` defers
#: to the environment.
MODES = {
    "baseline": lambda: (),
    "default": lambda: None,
    "traced": lambda: [RunTelemetry()],
    "obs": lambda: [RunObs()],
}


def _rate(cycles: int, make_probes):
    """Best-of-N cyc/s for one observation mode; returns (rate, last result)."""
    profiles = [lookup_profile(name) for name in WORKLOAD]
    config = SystemConfig(num_cores=len(profiles), policy=POLICY)
    warmup = default_warmup(cycles)
    simulated = cycles + warmup
    best = 0.0
    result = None
    for _ in range(ROUNDS):
        start = perf_counter()
        system = CmpSystem(config, profiles, probes=make_probes())
        result = system.run(cycles, warmup=warmup)
        elapsed = perf_counter() - start
        best = max(best, simulated / elapsed)
    return best, result


def _measure_all(cycles: int):
    for name in (CHECK_ENV_VAR, OBS_ENV_VAR):
        assert not env.raw(name), (
            f"unset {name} before benchmarking: the 'default' mode "
            "must measure the env-resolved disabled path"
        )
    rates = {}
    results = {}
    for mode, make_probes in MODES.items():
        rates[mode], results[mode] = _rate(cycles, make_probes)
    return rates, results


def test_telemetry_overhead(benchmark, cycles):
    rates, results = once(benchmark, lambda: _measure_all(cycles))
    print()
    for mode, rate in rates.items():
        relative = rate / rates["baseline"]
        print(f"  {mode:9s} {rate:12,.0f} cyc/s  ({relative:.2f}x baseline)")

    write_bench_record(
        RESULT_PATH,
        "telemetry_overhead",
        {
            "measurement_cycles": cycles,
            "warmup_cycles": default_warmup(cycles),
            "rounds": ROUNDS,
            "workload": "+".join(WORKLOAD),
            "policy": POLICY,
            "cycles_per_second": {
                mode: round(rate, 1) for mode, rate in rates.items()
            },
            "traced_relative": round(rates["traced"] / rates["baseline"], 4),
            "obs_relative": round(rates["obs"] / rates["baseline"], 4),
        },
        strict_gate=env.truthy("REPRO_BENCH_STRICT"),
    )

    # Tripwire 1: the disabled path is genuinely zero-cost (guards only).
    floor = DISABLED_SPEED_FLOOR * rates["baseline"]
    assert rates["default"] >= floor, (
        f"env-disabled observability fell below {DISABLED_SPEED_FLOOR:.0%} of "
        f"the explicit probes=() baseline: {rates['default']:,.0f} vs "
        f"{rates['baseline']:,.0f} cyc/s — a probe hook is likely "
        "running outside its `is None` guard"
    )

    # Tripwire 2: tracing observes without perturbing.
    assert dataclasses.asdict(comparable_result(results["traced"])) == (
        dataclasses.asdict(comparable_result(results["baseline"]))
    ), "traced run diverged from the untraced baseline"

    # Tripwire 2b: the obs registry observes without perturbing.
    assert dataclasses.asdict(comparable_result(results["obs"])) == (
        dataclasses.asdict(comparable_result(results["baseline"]))
    ), "obs-instrumented run diverged from the uninstrumented baseline"

    # Tripwire 3: the enabled run yields a valid Perfetto document.
    run = run_traced(
        [lookup_profile(name) for name in WORKLOAD],
        POLICY,
        cycles=cycles,
        warmup=default_warmup(cycles),
        with_targets=False,
    )
    problems = validate_trace(perfetto_trace(run.telemetry))
    assert problems == [], "\n".join(problems)
