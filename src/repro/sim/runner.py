"""High-level run helpers: solo runs, co-scheduled runs, baselines.

The paper's experiments repeatedly need (a) each benchmark run alone
on a private memory system — possibly time-scaled — and (b) the same
benchmark co-scheduled under each scheduling policy.  Both resolve
through the lookup path of :mod:`repro.sim.cache`: the per-process
memo (same object back, as the figure drivers expect) in front of the
process-wide result store, so repeated figure regenerations and
``pytest benchmarks/`` invocations stop re-simulating the world.
Batch sweeps go through :func:`repro.sim.parallel.run_many`, which
fans misses out across cores and seeds the same memo.

Run lengths default to a statistically stable but laptop-friendly
window; set ``REPRO_SIM_CYCLES`` to lengthen every run proportionally
for a higher-fidelity regeneration.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from .. import env
from ..core.shares import equal_shares
from ..obs import attached_obs, manifest_dir
from ..policy import BASELINE_POLICY
from ..workloads.spec2000 import profile as lookup_profile
from ..workloads.synthetic import BenchmarkProfile
from . import cache as result_cache
from .config import SystemConfig
from .cache import memo_get, memo_put  # noqa: F401  (re-exported)
from .parallel import group_spec, solo_spec
from .system import CmpSystem, SimResult

#: Default measurement window in cycles (override via REPRO_SIM_CYCLES).
DEFAULT_CYCLES = int(env.text("REPRO_SIM_CYCLES", "60000"))
#: Warmup fraction applied before the measurement window opens.
WARMUP_FRACTION = 0.25


def default_warmup(cycles: int) -> int:
    """Warmup cycles preceding a measurement window of ``cycles``."""
    return int(cycles * WARMUP_FRACTION)


def clear_solo_cache() -> None:
    """Drop memoized runs (tests that vary global state use this).

    Clears the in-process memo only; the result store is content-keyed
    (config + profile content + code salt) so it never needs flushing
    for correctness.
    """
    result_cache.memo_clear()


def run_workload(
    profiles: Sequence[BenchmarkProfile],
    policy: str,
    cycles: int = DEFAULT_CYCLES,
    warmup: Optional[int] = None,
    shares: Optional[List[float]] = None,
    seed: int = 0,
    inversion_bound: Optional[int] = None,
    engine: Optional[str] = None,
) -> SimResult:
    """Co-schedule ``profiles`` (one per core) under ``policy`` (uncached).

    ``engine`` overrides the simulation engine ("event" or "cycle");
    None defers to ``REPRO_ENGINE`` / the event default.  The system
    carries the environment's probes (:func:`~repro.sim.system.env_probes`);
    use :func:`repro.telemetry.driver.run_traced` for a traced run.
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
    system = CmpSystem(config, profiles)
    if warmup is None:
        warmup = default_warmup(cycles)
    result = system.run(cycles, warmup=warmup)
    out_dir = manifest_dir()
    if out_dir:
        # Same best-effort per-run manifest the batch workers emit.
        from ..obs.manifest import emit_run_manifest

        try:
            emit_run_manifest(
                out_dir,
                fingerprint=result_cache.fingerprint(
                    config, list(profiles), cycles, warmup, seed
                ),
                policy=config.policy,
                workload=[p.name for p in profiles],
                cycles=cycles,
                warmup=warmup,
                seed=seed,
                result=result,
                source="fresh",
                obs=attached_obs(system),
            )
        except OSError:
            pass
    return result


def _registered(profile: BenchmarkProfile) -> bool:
    """True when ``profile`` is exactly the registered profile of its name."""
    try:
        return lookup_profile(profile.name) == profile
    except KeyError:
        return False


def run_solo(
    profile: BenchmarkProfile,
    scale: float = 1.0,
    cycles: int = DEFAULT_CYCLES,
    warmup: Optional[int] = None,
    seed: int = 0,
) -> SimResult:
    """Run one benchmark alone on a (possibly time-scaled) private system.

    ``scale`` > 1 slows the memory system down, e.g. ``scale=2`` is the
    paper's two-processor QoS baseline (a private memory system at half
    frequency, i.e. 1/φ with φ = ½).  Resolved through the memo and the
    result store for registered profiles.
    """
    if warmup is None:
        warmup = default_warmup(cycles)
    if not _registered(profile):
        config = SystemConfig(num_cores=1, policy=BASELINE_POLICY, seed=seed)
        if scale != 1.0:
            config = config.scaled_baseline(scale)
        return CmpSystem(config, [profile]).run(cycles, warmup=warmup)
    return result_cache.active_cache().fetch(
        solo_spec(profile.name, scale, cycles, warmup, seed)
    )


def run_group(
    profiles: Sequence[BenchmarkProfile],
    policy: str,
    cycles: int = DEFAULT_CYCLES,
    warmup: Optional[int] = None,
    seed: int = 0,
) -> SimResult:
    """Memoized co-scheduled run of named benchmark profiles.

    Figures 5, 6, and 7 share the same two-processor runs and Figures 8
    and 9 share the four-processor runs; the memo avoids re-simulating.
    Profiles not registered in :mod:`repro.workloads.spec2000` fall
    back to a direct (uncached) simulation.
    """
    if warmup is None:
        warmup = default_warmup(cycles)
    if not all(_registered(p) for p in profiles):
        return run_workload(profiles, policy, cycles=cycles, warmup=warmup, seed=seed)
    names = tuple(p.name for p in profiles)
    return result_cache.active_cache().fetch(
        group_spec(names, policy, cycles, warmup, seed)
    )


def coscheduled_pair(
    subject: BenchmarkProfile,
    background: BenchmarkProfile,
    policy: str,
    cycles: int = DEFAULT_CYCLES,
    warmup: Optional[int] = None,
    seed: int = 0,
) -> Tuple[SimResult, float, float]:
    """Run subject+background on a 2-CPU CMP; return (result, nIPC_s, nIPC_b).

    Normalized IPC is measured against each benchmark running alone on
    the paper's baseline: a private memory system time-scaled by 1/φ = 2.
    The co-run goes through the memoized :func:`run_group`, so pair
    figures reuse runs the group cache already holds.
    """
    result = run_group(
        [subject, background], policy, cycles=cycles, warmup=warmup, seed=seed
    )
    base_s = run_solo(subject, scale=2.0, cycles=cycles, warmup=warmup, seed=seed)
    base_b = run_solo(background, scale=2.0, cycles=cycles, warmup=warmup, seed=seed)
    n_subject = result.threads[0].ipc / base_s.threads[0].ipc
    n_background = result.threads[1].ipc / base_b.threads[0].ipc
    return result, n_subject, n_background


def equal_share_list(num_threads: int) -> List[float]:
    """Convenience re-export for experiment drivers."""
    return equal_shares(num_threads)
