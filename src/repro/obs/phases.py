"""Event-loop phase timing: the one wall-clock module in the tree.

The engine's phase breakdown (targeting / delivery / scheduling /
dispatch) needs real elapsed time, which is exactly what the
determinism contract bans everywhere else: DET002 flags wall-clock
*calls* in simulation logic and DET008 bans ``time`` imports anywhere
under ``src/repro/obs/``.  This module is the single registered
exception — the import below carries the one reasoned suppression —
and it keeps the hazard contained by construction:

* Timings are **write-only** with respect to the simulation: nothing
  in ``repro.sim`` ever reads a :class:`PhaseTimer`; totals flow only
  into manifests and reports after the run ends.  Results stay
  bit-identical with phase timing on or off (the differential tests in
  ``tests/obs/`` pin this).
* The engine calls :meth:`PhaseTimer.begin`/:meth:`PhaseTimer.end`
  through ``phases is not None`` guards; only a run with a
  :class:`~repro.obs.RunObs` probe attached arms the timer, so any
  other run never reaches this module at all.
"""

from __future__ import annotations

from time import perf_counter  # lint: allow(DET008, the registered harness wall-clock: phase timings are write-only observability outputs, never simulation inputs)

from typing import Dict, Optional

#: Canonical engine phases, in the order the loop visits them.
ENGINE_PHASES = ("targeting", "delivery", "scheduling", "dispatch")


class PhaseTimer:
    """Accumulates wall seconds per named engine phase.

    ``begin(name)`` closes the currently open phase (crediting its
    elapsed time) and opens ``name``; ``end()`` closes without opening
    another.  One ``perf_counter`` read per transition, no allocation.
    """

    __slots__ = ("_totals", "_current", "_started")

    def __init__(self) -> None:
        self._totals: Dict[str, float] = {}
        self._current: Optional[str] = None
        self._started = 0.0

    def begin(self, phase: str) -> None:
        stamp = perf_counter()
        current = self._current
        if current is not None:
            totals = self._totals
            totals[current] = totals.get(current, 0.0) + (stamp - self._started)
        self._current = phase
        self._started = stamp

    def end(self) -> None:
        current = self._current
        if current is not None:
            stamp = perf_counter()
            totals = self._totals
            totals[current] = totals.get(current, 0.0) + (stamp - self._started)
            self._current = None

    def totals(self) -> Dict[str, float]:
        """Name-sorted seconds per phase (open phase excluded until end)."""
        return {name: self._totals[name] for name in sorted(self._totals)}

    def total_seconds(self) -> float:
        return sum(self._totals.values())

