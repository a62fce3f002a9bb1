"""Engine observability: metrics registry, manifests, fleet streaming.

``repro.obs`` watches the *simulator itself* the way ``repro.telemetry``
watches the simulated requests: wake-index churn, legality-kernel
traffic, policy-key memo effectiveness, event-loop phase times, and
``run_many`` fleet state.  Like the checker and telemetry layers,
:class:`RunObs` is a :class:`~repro.probe.Probe` and a pure observer —
attaching it never changes a single result bit (the differential tests
in ``tests/obs/`` pin obs-on against obs-off across both engines and
every headline policy) — and its disabled cost is a handful of
``x is None`` guards.  Its bus hooks are the no-op defaults: the hot
counters are bound into components at ``attach`` instead, and
``finalize`` harvests them.

Layout:

* :mod:`repro.obs.registry` — the metrics registry plus the
  ``__slots__`` counter structs hot loops bump behind guards.
* :mod:`repro.obs.phases` — the event-loop phase timer; the single
  module in the tree allowed to read the wall clock (DET008).
* :mod:`repro.obs.engine` — harvests engine counters into canonical
  dotted metric names and owns the legacy ``engine_*`` extras block.
* :mod:`repro.obs.manifest` — the schema-validated run/bench/profile
  manifest records and the one shared writer.
* :mod:`repro.obs.fleet` — worker heartbeats over a multiprocessing
  queue and the live terminal fleet dashboard.
* :mod:`repro.obs.perfcli` / :mod:`repro.obs.sweepcli` — the
  ``repro-fqms perf`` and ``repro-fqms sweep`` subcommands.

Knobs (all semantics-free, all declared in :mod:`repro.env`):
``REPRO_OBS=1`` attaches the registry and the phase timer to every
freshly simulated run; ``REPRO_OBS_MANIFEST=DIR`` makes runner/parallel
write one manifest per executed run into ``DIR``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from .. import env
from ..probe import Probe
from .registry import KernelCounters, KeyCacheCounters, MetricsRegistry
from .phases import ENGINE_PHASES, PhaseTimer

if TYPE_CHECKING:  # pragma: no cover - types only (avoids import cycle)
    from ..controller.bank_scheduler import BankScheduler
    from ..sim.system import CmpSystem

OBS_ENV_VAR = "REPRO_OBS"
OBS_MANIFEST_ENV_VAR = "REPRO_OBS_MANIFEST"


def obs_enabled() -> bool:
    """``REPRO_OBS`` as a flag (same convention as REPRO_CHECK).

    Read at system construction so the parallel engine's worker
    processes inherit the choice through the environment.
    """
    return env.flag(OBS_ENV_VAR)


def manifest_dir() -> Optional[str]:
    """``REPRO_OBS_MANIFEST``: directory for per-run manifests, or None."""
    value = env.raw(OBS_MANIFEST_ENV_VAR)
    return value if value else None


def attached_obs(system: "CmpSystem") -> Optional["RunObs"]:
    """The :class:`RunObs` among ``system.probes``, or None."""
    for probe in system.probes:
        if isinstance(probe, RunObs):
            return probe
    return None


class RunObs(Probe):
    """One run's observability state: registry + hot counter structs.

    A probe whose bus hooks stay no-ops: :meth:`attach` binds counter
    structs (and the phase timer) into the instrumented components,
    which bump plain attributes; :meth:`finalize` harvests everything
    into :attr:`registry` once after the run.
    """

    def __init__(self) -> None:
        self.registry = MetricsRegistry()
        self.legality = KernelCounters()
        self.keys = KeyCacheCounters()
        self.phases = PhaseTimer()
        self._finalized = False

    # -- attachment --------------------------------------------------------

    def attach(self, system: "CmpSystem") -> None:
        """Wire this instance into ``system``'s hot components.

        The phase timer goes on the system's engine loops, kernel
        counters on every channel's legality kernel, key counters on
        every bank scheduler.  Memoizing schedulers get a
        counting ``_request_key`` plus ``obs_keys`` for the inlined
        memo in the mixed-kind loop; non-memoizing ones get a counting
        ``_key_of`` only (their keys are rebuilt every pass, so the
        split is ``uncached`` rather than hit/miss).  All rebinding happens here,
        at attach time — a run without obs keeps the original bound
        methods and pays nothing.
        """
        system.phases = self.phases
        for dram in system.drams:
            dram.kernel.counters = self.legality
        for controller in system.controllers:
            for scheduler in controller.bank_schedulers:
                self._attach_scheduler(scheduler)

    def _attach_scheduler(self, scheduler: "BankScheduler") -> None:
        counters = self.keys
        inner = scheduler._key_of
        if scheduler.policy.memoize_keys:
            scheduler.obs_keys = counters
            def counting_request_key(request, _inner=inner, _c=counters):
                key = request.key_cache
                if key is None:
                    key = _inner(request)
                    request.key_cache = key
                    _c.misses += 1
                else:
                    _c.hits += 1
                return key

            scheduler._request_key = counting_request_key  # type: ignore[method-assign]
        else:
            def counting_key_of(request, _inner=inner, _c=counters):
                _c.uncached += 1
                return _inner(request)

            # Non-memoizing construction aliased _request_key to the raw
            # key function; keep the alias pointing at the counter.
            scheduler._key_of = counting_key_of  # type: ignore[method-assign]
            scheduler._request_key = counting_key_of  # type: ignore[method-assign]

    # -- finalize ----------------------------------------------------------

    def finalize(self, system: "CmpSystem") -> None:
        """Harvest engine/component counters into the registry (idempotent)."""
        if self._finalized:
            return
        self._finalized = True
        from . import engine as obs_engine

        obs_engine.harvest(system, self)

    def metrics(self):
        """Convenience: the registry's numeric metrics table."""
        return self.registry.metrics()


__all__ = [
    "ENGINE_PHASES",
    "KernelCounters",
    "KeyCacheCounters",
    "MetricsRegistry",
    "OBS_ENV_VAR",
    "OBS_MANIFEST_ENV_VAR",
    "PhaseTimer",
    "RunObs",
    "attached_obs",
    "manifest_dir",
    "obs_enabled",
]
