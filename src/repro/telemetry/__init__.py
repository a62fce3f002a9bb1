"""repro.telemetry — zero-cost-when-disabled run observability.

Three layers over one :class:`RunTelemetry` probe per system:

* :mod:`repro.telemetry.lifecycle` — per-request milestone tracing
  (core submit → interface-queue accept → VTMS stamp → RAS/CAS issue →
  data return → core retire-unblock) into bounded per-thread rings.
* :mod:`repro.telemetry.sampler` — fixed-period interval metrics
  (per-thread bandwidth, queue occupancy, row-hit rate, VFT lag,
  priority inversions) whose deadline is the probe's ``next_sample``,
  so the event engine's bulk skips land exactly on sample boundaries.
* :mod:`repro.telemetry.export` / :mod:`repro.telemetry.report` —
  Chrome/Perfetto ``trace_event`` JSON, CSV/JSONL interval dumps, and
  the ``repro-fqms report`` textual dashboard.

Tracing is explicit: :func:`repro.telemetry.driver.run_traced` (behind
``repro-fqms trace`` and ``repro-fqms report``) passes a
``RunTelemetry`` in ``CmpSystem(..., probes=...)`` and hands the probe
back with the result.  Traced and untraced runs are bit-identical
because every hook only observes, never steers; a run without the
probe pays one ``probe is None`` test per hook site (~0% overhead,
enforced by ``benchmarks/bench_telemetry_overhead``).

All timestamps are simulated cycles — wall-clock or RNG use inside
this package is a DET006 determinism-lint error.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Tuple

from ..probe import Probe
from .lifecycle import (
    DEFAULT_RING_CAPACITY,
    BankCommandLog,
    LifecycleTracer,
    RequestLifecycle,
)
from .sampler import DEFAULT_SAMPLE_PERIOD, IntervalSample, IntervalSampler

if TYPE_CHECKING:  # pragma: no cover - types only (avoids import cycle)
    from ..controller.bank_scheduler import BankScheduler, CandidateCommand
    from ..controller.request import MemoryRequest
    from ..sim.system import CmpSystem

__all__ = [
    "BankCommandLog",
    "DEFAULT_RING_CAPACITY",
    "DEFAULT_SAMPLE_PERIOD",
    "IntervalSample",
    "IntervalSampler",
    "LifecycleTracer",
    "RequestLifecycle",
    "RunTelemetry",
]

#: Command durations drawn on the Perfetto bank tracks, by kind name;
#: resolved against the run's DDR2 timing at record time.
_COMMAND_SPANS = {
    "ACTIVATE": "t_rcd",
    "PRECHARGE": "t_rp",
    "READ": "burst",
    "WRITE": "burst",
}


class RunTelemetry(Probe):
    """Observability state for one :class:`~repro.sim.system.CmpSystem`.

    A probe on the system's bus: the system calls each hook from its
    own station.  Every hook is a pure observer: it reads simulator
    state and writes only telemetry-owned buffers, which is what keeps
    traced runs bit-identical to untraced runs.
    """

    def __init__(self, sample_period: int = DEFAULT_SAMPLE_PERIOD):
        self.sampler = IntervalSampler(self, sample_period)
        self.bank_log = BankCommandLog()

    def attach(self, system: "CmpSystem") -> None:
        self.system = system
        num_threads = system.config.num_cores
        self.tracer = LifecycleTracer(num_threads)
        #: Per-thread monotonic counters (the sampler takes deltas).
        self.first_commands: List[int] = [0] * num_threads
        self.row_hits: List[int] = [0] * num_threads
        self.inversions: List[int] = [0] * num_threads
        #: Channel-arbitration contention counters.
        self.arbitration_rounds = 0
        self.contended_arbitrations = 0
        #: What the scheduling policy's priority-key components mean,
        #: in comparison order — labels exported trace viewers show
        #: next to per-request keys ("virtual_finish_time" vs
        #: "blacklisted" vs "neg_slowdown", ...).
        self.policy_name: str = system.controller.policy.name
        self.policy_key_fields: Tuple[str, ...] = tuple(
            system.controller.policy.key_field_names()
        )

    # -- engine integration ------------------------------------------------

    @property
    def next_sample(self) -> int:  # type: ignore[override]
        """Next sampling deadline; folded into the event target."""
        return self.sampler.next_sample

    def on_sample(self, now: int) -> None:
        self.sampler.maybe_sample(now)

    def finalize(self, system: "CmpSystem") -> None:
        """Flush the trailing partial interval at end of run."""
        self.sampler.finalize(system.now)

    # -- core-side hooks ---------------------------------------------------

    def on_core_submit(self, request: "MemoryRequest", line: int, now: int) -> None:
        """An accepted submit left the core (lifecycle station 1)."""
        self.tracer.on_submit(request, line, now)

    def on_core_fill(self, thread: int, line: int, now: int) -> None:
        """A fill reached its core (terminal station for reads)."""
        self.tracer.on_fill(thread, line, now)

    # -- controller-side hooks ---------------------------------------------

    def on_accept(self, request: "MemoryRequest", now: int) -> None:
        """The controller admitted a request (station 2, VTMS arrival)."""
        self.tracer.on_accept(request, now)

    def on_complete(self, request: "MemoryRequest", now: int) -> None:
        """The request's data finished on the bus (station 5)."""
        self.tracer.on_complete(request, now)

    # -- scheduler-side hooks ----------------------------------------------

    def on_command(
        self, scheduler: "BankScheduler", cand: "CandidateCommand", now: int
    ) -> None:
        """A command issued from one bank queue (stations 3 and 4).

        Called *before* :meth:`BankScheduler.on_issue` mutates queue or
        row state, so the inversion check sees exactly the queue the
        selection saw.  Key recomputation goes through the
        policy directly (not the per-request memo) so tracing leaves
        the scheduler's caches byte-for-byte untouched.
        """
        request = cand.request
        timing = scheduler.dram.timing
        kind_name = cand.kind.name
        duration = getattr(timing, _COMMAND_SPANS.get(kind_name, "burst"))
        channel = request.channel if request is not None else 0
        self.bank_log.record(
            channel,
            cand.rank,
            cand.bank,
            now,
            kind_name,
            cand.row,
            cand.charge_thread,
            duration,
        )
        if request is None:
            return  # auto-precharge: no request lifecycle to annotate
        inverted = False
        if len(scheduler.queue) > 1:
            policy_key = scheduler.policy.request_key
            key = policy_key(request)
            for other in scheduler.queue:
                if other is not request and policy_key(other) < key:
                    inverted = True
                    break
        thread = request.thread_id
        tracer = self.tracer
        record = tracer._open.get(request.seq)
        first = record is not None and record.first_command_cycle is None
        tracer.on_command(request, kind_name, cand.kind.is_cas, inverted, now)
        if first:
            self.first_commands[thread] += 1
            if record.row_outcome == "hit":
                self.row_hits[thread] += 1
        if inverted:
            self.inversions[thread] += 1
        if cand.kind.is_cas:
            # Recompute the ordering tuple (cand.key may be a packed
            # int); called before any issue mutation, so it matches the
            # key the selection compared.
            tracer.on_command_key(
                request, scheduler.policy.request_key(request)
            )

    def on_arbitration(self, now: int, ready_candidates: int) -> None:
        """The channel scheduler issued with ``ready_candidates`` ready."""
        self.arbitration_rounds += 1
        if ready_candidates > 1:
            self.contended_arbitrations += 1

    # -- reporting ---------------------------------------------------------

    def samples(self) -> List[IntervalSample]:
        return self.sampler.samples

    def lifecycles(self, thread: int) -> List[RequestLifecycle]:
        """Retained completed lifecycles for one thread, oldest first."""
        return list(self.tracer.completed[thread])

    def summary(self) -> Dict[str, int]:
        """Counters proving the tracer saw traffic, plus truncation."""
        totals = dict(self.tracer.summary())
        totals["bank_events_dropped"] = self.bank_log.dropped
        totals["samples"] = len(self.sampler.samples)
        totals["inversions"] = sum(self.inversions)
        totals["arbitration_rounds"] = self.arbitration_rounds
        totals["contended_arbitrations"] = self.contended_arbitrations
        return totals

    def thread_names(self) -> List[str]:
        return [p.name for p in self.system.profiles]
