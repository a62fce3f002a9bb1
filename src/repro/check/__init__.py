"""repro.check — independent runtime cross-checks of the simulator.

Three layers, all deliberately re-implemented rather than shared with
the code they check:

* :mod:`repro.check.protocol` — a DDR2 protocol sanitizer that
  validates every issued command against its own timing ledger.
* :mod:`repro.check.invariants` — a scheduler invariant checker for
  the fair-queuing properties (VFT monotonicity, virtual-clock
  monotonicity, bounded priority inversion, request conservation).
* ``tools/lint_determinism.py`` — a static determinism lint run in CI
  (not imported here; it is a standalone script).

The first two run together as one :class:`RunChecker` probe
(:mod:`repro.probe`).  Checks are opt-in: pass ``--check`` on the CLI,
set ``REPRO_CHECK=1``, or pass ``probes=[RunChecker()]`` to
:class:`~repro.sim.system.CmpSystem`.  The environment variable is
the propagation mechanism — worker processes of the parallel
experiment engine inherit it, so checked runs stay checked across a
process pool.  When a check fails the run dies immediately with a
:class:`CheckError` subclass carrying the offending event.

Checked and unchecked runs must be bit-identical: the checkers only
observe, never steer, and ``REPRO_CHECK`` is deliberately *not* part of
:class:`~repro.sim.config.SystemConfig` (so result-cache fingerprints
do not fork on it).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict

from .. import env
from ..probe import Probe
from .invariants import InvariantViolation, SchedulerInvariantChecker
from .protocol import CheckError, DramProtocolSanitizer, ProtocolViolation

if TYPE_CHECKING:  # pragma: no cover - types only
    from ..controller.bank_scheduler import BankScheduler, CandidateCommand
    from ..controller.controller import MemoryController
    from ..controller.request import MemoryRequest
    from ..sim.system import CmpSystem

__all__ = [
    "CheckError",
    "DramProtocolSanitizer",
    "InvariantViolation",
    "ProtocolViolation",
    "RunChecker",
    "SchedulerInvariantChecker",
    "checks_enabled",
]

#: Environment switch for the runtime checkers.
CHECK_ENV_VAR = "REPRO_CHECK"


def checks_enabled() -> bool:
    """True when runtime checking is requested via the environment.

    Any value other than the empty string, ``"0"``, or ``"false"``
    (case-insensitive) enables checking.
    """
    return env.flag(CHECK_ENV_VAR)


class RunChecker(Probe):
    """The checker probe: a protocol sanitizer and an invariant checker
    per channel, with every hook routed to the channel it happened on.

    All hooks raise a :class:`CheckError` subclass on the first
    violation.
    """

    def attach(self, system: "CmpSystem") -> None:
        controllers = system.controllers
        #: Per-channel layers, indexed like ``system.controllers``.
        self.protocols = [
            DramProtocolSanitizer(
                c.dram.timing, num_ranks=c.dram.num_ranks, num_banks=c.dram.num_banks
            )
            for c in controllers
        ]
        self.invariants = [SchedulerInvariantChecker(c) for c in controllers]
        #: Channel of each device, for hooks that carry no request.
        self._channel_of = {c.dram: i for i, c in enumerate(controllers)}

    def on_accept(self, request: "MemoryRequest", now: int) -> None:
        self.invariants[request.channel].on_accept(request, now)

    def on_command(
        self, scheduler: "BankScheduler", cand: "CandidateCommand", now: int
    ) -> None:
        channel = self._channel_of[scheduler.dram]
        self.protocols[channel].on_command(
            cand.kind, cand.rank, cand.bank, cand.row, now
        )
        self.invariants[channel].on_command(cand, now)

    def on_refresh(self, controller: "MemoryController", now: int) -> None:
        channel = self._channel_of[controller.dram]
        self.protocols[channel].on_refresh(now)
        self.invariants[channel].on_refresh(now)

    def on_complete(self, request: "MemoryRequest", now: int) -> None:
        self.invariants[request.channel].on_complete(request, now)

    def finalize(self, system: "CmpSystem") -> None:
        """End-of-run invariants (request conservation balance)."""
        for invariants in self.invariants:
            invariants.finalize(system.now)

    def summary(self) -> Dict[str, int]:
        """Counters proving the checkers saw traffic, summed over channels."""
        protocols, invariants = self.protocols, self.invariants
        return {
            "commands_checked": sum(p.commands_checked for p in protocols),
            "refreshes_checked": sum(p.refreshes_checked for p in protocols),
            "requests_accepted": sum(i.accepted for i in invariants),
            "requests_retired": sum(i.retired for i in invariants),
            "requests_completed": sum(i.completed for i in invariants),
        }
