"""The probe bus: one instrumentation interface for every observer.

A :class:`Probe` watches one :class:`~repro.sim.system.CmpSystem` run.
The system calls :meth:`Probe.attach` once after it is built, the
``on_*`` hooks from its event sites (one ``probe is not None`` guard
each), :meth:`Probe.on_sample` at the top of the cycle that reaches
:attr:`Probe.next_sample` (a deadline the event engine never skips
across), and :meth:`Probe.finalize` after the measured window.  Hooks
are pure readers, so probed runs are bit-identical to bare runs.  The
checker, telemetry and obs layers are probes; docs/INTERNALS.md §8
describes the lifecycle.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - types only (avoids import cycles)
    from .controller.bank_scheduler import BankScheduler, CandidateCommand
    from .controller.controller import MemoryController
    from .controller.request import MemoryRequest
    from .sim.system import CmpSystem

#: The ``next_sample`` of a probe that never samples: later than any
#: reachable cycle, so the event engine's targeting never clamps to it.
NEVER = 1 << 62


class Probe:
    """An observer of one run; every hook is a no-op until overridden."""

    #: Next cycle at which :meth:`on_sample` must run.
    next_sample: int = NEVER

    def attach(self, system: "CmpSystem") -> None:
        """Bind to ``system`` once, after it is fully built."""

    def on_accept(self, request: "MemoryRequest", now: int) -> None:
        """A controller admitted ``request`` (buffer reserved, decoded)."""

    def on_command(
        self, scheduler: "BankScheduler", cand: "CandidateCommand", now: int
    ) -> None:
        """``cand`` issued to the DRAM from ``scheduler``'s bank.

        Called after the device state changed and *before* the bank
        scheduler updates its queue and row bookkeeping, so the queue
        reads exactly as the selection that chose ``cand`` saw it.
        """

    def on_refresh(self, controller: "MemoryController", now: int) -> None:
        """``controller`` started an all-bank refresh."""

    def on_complete(self, request: "MemoryRequest", now: int) -> None:
        """``request``'s data finished on the bus; its buffer is released."""

    def on_arbitration(self, now: int, ready_candidates: int) -> None:
        """A channel scheduler chose among ``ready_candidates`` ready banks."""

    def on_core_submit(self, request: "MemoryRequest", line: int, now: int) -> None:
        """A core's submit of ``request`` (for ``line``) was accepted."""

    def on_core_fill(self, thread: int, line: int, now: int) -> None:
        """A fill for ``line`` reached core ``thread``."""

    def on_sample(self, now: int) -> None:
        """``now`` reached :attr:`next_sample`; sample and move it on."""

    def finalize(self, system: "CmpSystem") -> None:
        """End of a measured run: flush, harvest, check balances."""


class ProbeFanout(Probe):
    """Forwards every hook to several probes, in attach order."""

    def __init__(self, probes: Sequence[Probe]):
        self.probes: Tuple[Probe, ...] = tuple(probes)

    @property
    def next_sample(self) -> int:  # type: ignore[override]
        return min(probe.next_sample for probe in self.probes)

    def attach(self, system: "CmpSystem") -> None:
        for probe in self.probes:
            probe.attach(system)

    def on_accept(self, request, now):
        for probe in self.probes:
            probe.on_accept(request, now)

    def on_command(self, scheduler, cand, now):
        for probe in self.probes:
            probe.on_command(scheduler, cand, now)

    def on_refresh(self, controller, now):
        for probe in self.probes:
            probe.on_refresh(controller, now)

    def on_complete(self, request, now):
        for probe in self.probes:
            probe.on_complete(request, now)

    def on_arbitration(self, now, ready_candidates):
        for probe in self.probes:
            probe.on_arbitration(now, ready_candidates)

    def on_core_submit(self, request, line, now):
        for probe in self.probes:
            probe.on_core_submit(request, line, now)

    def on_core_fill(self, thread, line, now):
        for probe in self.probes:
            probe.on_core_fill(thread, line, now)

    def on_sample(self, now):
        # Each probe keeps its own deadline: only the due ones sample.
        for probe in self.probes:
            if probe.next_sample <= now:
                probe.on_sample(now)

    def finalize(self, system):
        for probe in self.probes:
            probe.finalize(system)


def probe_bus(probes: Sequence[Probe]) -> Optional[Probe]:
    """The one object the hook sites call: None, the probe, or a fan-out."""
    if not probes:
        return None
    if len(probes) == 1:
        return probes[0]
    return ProbeFanout(probes)
