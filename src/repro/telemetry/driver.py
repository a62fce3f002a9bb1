"""Traced-run driver: build, run, and package one observed simulation.

``repro-fqms trace`` and ``repro-fqms report`` go through
:func:`run_traced`, which is the telemetry counterpart of
:func:`repro.sim.runner.run_workload`: same configuration surface, but
the system is built with a :class:`RunTelemetry` probe and the caller
gets that probe (and the per-thread fair-share bandwidth targets,
derived the same way Figure 9 derives them: solo runs waterfilled
through :func:`repro.stats.fair_share_targets`) back alongside the
:class:`~repro.sim.system.SimResult`.

Traced runs are deliberately uncached: results are bit-identical to
untraced runs, so anything cacheable is already served by the normal
runner; what this driver adds is the run's *dynamics*, which exist
only while the system object does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..core.shares import equal_shares
from ..sim.config import SystemConfig
from ..sim.runner import DEFAULT_CYCLES, default_warmup, run_solo
from ..sim.system import CmpSystem, SimResult, env_probes
from ..stats.metrics import fair_share_targets
from ..workloads.spec2000 import profile as lookup_profile
from . import DEFAULT_SAMPLE_PERIOD, RunTelemetry


@dataclass
class TracedRun:
    """Everything a traced simulation produced."""

    result: SimResult
    telemetry: RunTelemetry
    #: Per-thread fair-share data-bus targets (waterfilled solo
    #: demands), or None when solo baselines were unavailable.
    fair_shares: Optional[List[float]]
    thread_names: List[str]


def resolve_profiles(names: Sequence[str]):
    """Benchmark profiles for ``names`` (raises KeyError on unknown)."""
    return [lookup_profile(name) for name in names]


def run_traced(
    profiles: Sequence,
    policy: str,
    cycles: int = DEFAULT_CYCLES,
    warmup: Optional[int] = None,
    shares: Optional[List[float]] = None,
    seed: int = 0,
    inversion_bound: Optional[int] = None,
    engine: Optional[str] = None,
    sample_period: Optional[int] = None,
    with_targets: bool = True,
) -> TracedRun:
    """Run ``profiles`` under ``policy`` with telemetry attached.

    ``sample_period`` overrides the interval-sampler period (cycles);
    ``with_targets=False`` skips the solo baseline runs (e.g. for
    unregistered synthetic profiles or pure export use).
    """
    kwargs = {} if engine is None else {"engine": engine}
    config = SystemConfig(
        num_cores=len(profiles),
        policy=policy,
        shares=shares,
        seed=seed,
        inversion_bound=inversion_bound,
        **kwargs,
    )
    telemetry = RunTelemetry(
        DEFAULT_SAMPLE_PERIOD if sample_period is None else sample_period
    )
    # The environment's probes (REPRO_CHECK, REPRO_OBS) ride along.
    system = CmpSystem(config, profiles, probes=[*env_probes(), telemetry])
    if warmup is None:
        warmup = default_warmup(cycles)
    result = system.run(cycles, warmup=warmup)
    targets: Optional[List[float]] = None
    if with_targets:
        targets = compute_fair_shares(
            profiles, shares, cycles=cycles, warmup=warmup, seed=seed
        )
    return TracedRun(
        result=result,
        telemetry=telemetry,
        fair_shares=targets,
        thread_names=[p.name for p in profiles],
    )


def compute_fair_shares(
    profiles: Sequence,
    shares: Optional[Sequence[float]] = None,
    cycles: int = DEFAULT_CYCLES,
    warmup: Optional[int] = None,
    seed: int = 0,
) -> Optional[List[float]]:
    """Waterfilled per-thread bandwidth targets from solo demands.

    Returns None when any solo baseline fails (unregistered profile),
    so callers can degrade to target-free reporting.
    """
    if shares is None:
        shares = equal_shares(len(profiles))
    demands: List[float] = []
    for p in profiles:
        try:
            solo = run_solo(p, cycles=cycles, warmup=warmup, seed=seed)
        except Exception:
            return None
        demands.append(solo.threads[0].bus_utilization)
    return fair_share_targets(demands, list(shares))
