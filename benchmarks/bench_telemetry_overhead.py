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

The modes run round-robin inside each of ``ROUNDS`` rounds (the
starting mode rotates per round), so a host speed spell hits every
mode of a round alike.  The CI tripwire asserts the median over rounds
of each round's ``default/baseline`` rate ratio stays within
``DISABLED_SPEED_FLOOR``: the probe bus's disabled cost is a handful
of ``is None`` checks per cycle, so a miss here means a hook landed
outside its guard.  The traced and obs runs
have no speed floor (they do real work) but must produce bit-identical
``SimResult`` s — the overhead budget is meaningless if observation
perturbs the run it observes.

Rates land in ``BENCH_telemetry.json`` at the repository root, written
through the shared manifest envelope (:mod:`repro.obs.manifest`).
"""

import dataclasses
import statistics
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
ROUNDS = 5

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


def _measure_all(cycles: int):
    """Per-round cyc/s of every mode, and each mode's last result."""
    for name in (CHECK_ENV_VAR, OBS_ENV_VAR):
        assert not env.raw(name), (
            f"unset {name} before benchmarking: the 'default' mode "
            "must measure the env-resolved disabled path"
        )
    profiles = [lookup_profile(name) for name in WORKLOAD]
    config = SystemConfig(num_cores=len(profiles), policy=POLICY)
    warmup = default_warmup(cycles)
    simulated = cycles + warmup
    modes = list(MODES)
    rounds = []
    results = {}
    for index in range(ROUNDS):
        rates = {}
        start_at = index % len(modes)
        for mode in modes[start_at:] + modes[:start_at]:
            start = perf_counter()
            system = CmpSystem(config, profiles, probes=MODES[mode]())
            results[mode] = system.run(cycles, warmup=warmup)
            rates[mode] = simulated / (perf_counter() - start)
        rounds.append(rates)
    return rounds, results


def _median_ratio(rounds, mode: str) -> float:
    """Median over rounds of ``mode``'s rate relative to that round's baseline."""
    return statistics.median(r[mode] / r["baseline"] for r in rounds)


def test_telemetry_overhead(benchmark, cycles):
    rounds, results = once(benchmark, lambda: _measure_all(cycles))
    rates = {mode: statistics.median(r[mode] for r in rounds) for mode in MODES}
    relative = {mode: _median_ratio(rounds, mode) for mode in MODES}
    print()
    for mode, rate in rates.items():
        print(
            f"  {mode:9s} {rate:12,.0f} cyc/s  "
            f"({relative[mode]:.2f}x baseline, median of {ROUNDS} rounds)"
        )

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
            "default_relative": round(relative["default"], 4),
            "traced_relative": round(relative["traced"], 4),
            "obs_relative": round(relative["obs"], 4),
        },
        strict_gate=env.truthy("REPRO_BENCH_STRICT"),
    )

    # Tripwire 1: the disabled path is genuinely zero-cost (guards only).
    assert relative["default"] >= DISABLED_SPEED_FLOOR, (
        f"env-disabled observability fell below {DISABLED_SPEED_FLOOR:.0%} of "
        f"the explicit probes=() baseline: median round ratio "
        f"{relative['default']:.3f} — a probe hook is likely "
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
