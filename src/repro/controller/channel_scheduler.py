"""Channel scheduler: arbitration across banks' candidate commands.

The channel scheduler scans the banks' nominated commands each cycle
and issues the ready command with the highest priority (paper §2.2).
It uses the same priority levels as the bank schedulers: CAS commands
before RAS commands, then the policy's ordering key.  Channel-level
timing (address bus, data bus, t_ccd, t_wtr, t_rrd) has already been
folded into each candidate's readiness by the DRAM model.

To keep the scan cheap, the scheduler caches a per-bank lower bound on
the next cycle that bank could nominate a *ready* command
(:meth:`BankScheduler.cacheable_wake`) and skips banks whose bound has
not elapsed.  Skipping is sound because issues elsewhere only push
DRAM timing later, and every event that could pull a bound earlier —
an arrival for the bank, an issue on the bank, a refresh, a
write-drain eligibility flip, any VTMS register change — invalidates
the cache via :meth:`invalidate` / :meth:`invalidate_all`.  Selection
is therefore bit-identical to scanning every bank: skipped banks could
only have contributed non-ready candidates, which the scan discards
anyway.

Arbitration reuses the bank schedulers' packed-key penalty encoding: a
candidate's channel sort is its packed key plus the CAS penalty for
RAS commands (zero under ``key_over_cas`` policies, whose key ranks
first), so picking the winner is one int compare per nominated
candidate.  Sleep bounds batch through the
legality kernel: each pollable bank contributes its O(1) kind mask and
one vectorized horizon query replaces the per-bank earliest-issue
walks (banks in FQ special states fall back to the scalar bound).
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from ..probe import Probe
from .bank_scheduler import BankScheduler, CandidateCommand, IDLE_BOUND


class ChannelScheduler:
    """Selects one ready command per cycle from the bank schedulers."""

    def __init__(self, bank_schedulers: Iterable[BankScheduler]):
        self.bank_schedulers = list(bank_schedulers)
        self._index = {
            (s.rank, s.bank): i for i, s in enumerate(self.bank_schedulers)
        }
        #: Per-bank wake bound; None = must poll (never computed, just
        #: invalidated, or the bank is in a state where no bound may be
        #: cached).
        self._bounds: List[Optional[int]] = [None] * len(self.bank_schedulers)
        #: All bank schedulers share one policy, so one CAS penalty
        #: covers every candidate (zero for key-over-CAS policies such
        #: as BLISS, which rank the key first).
        self._cas_pen = (
            self.bank_schedulers[0]._cas_pen if self.bank_schedulers else 0
        )
        #: Batched sleep-bound plumbing: flat bank indices into the
        #: legality kernel, parallel to ``bank_schedulers``.
        self._kernel = (
            self.bank_schedulers[0].dram.kernel
            if self.bank_schedulers
            else None
        )
        self._flats = [s.vtms_bank_index for s in self.bank_schedulers]
        #: The system's probe bus (repro.probe); None in normal runs,
        #: so arbitration accounting costs one attribute test.
        self.probe: Optional[Probe] = None

    def invalidate(self, rank: int, bank: int) -> None:
        """Drop the cached bound for one bank (its state changed)."""
        self._bounds[self._index[(rank, bank)]] = None

    def invalidate_all(self) -> None:
        """Drop every cached bound (refresh, drain flip, VTMS change)."""
        bounds = self._bounds
        for i in range(len(bounds)):
            bounds[i] = None

    def select(
        self, now: int, draining_for_refresh: bool = False
    ) -> Optional[CandidateCommand]:
        """The highest-priority ready candidate at cycle ``now``, if any."""
        best: Optional[CandidateCommand] = None
        best_sort = 0
        bounds = self._bounds
        cas_pen = self._cas_pen
        ready_seen = 0
        for i, scheduler in enumerate(self.bank_schedulers):
            bound = bounds[i]
            if bound is None:
                # Pre-candidate gate: one legality-kernel query proves
                # most just-invalidated banks have nothing ready, so
                # the full candidate selection never runs for them.
                bound = scheduler.poll_bound(now)
                bounds[i] = bound
            if bound > now:
                continue
            cand = scheduler.candidate(now, draining_for_refresh)
            if cand is None or not cand.ready:
                bounds[i] = scheduler.cacheable_wake(now)
                continue
            # Exact ready count: skipped banks can only have held
            # non-ready candidates (see the skip-soundness note in the
            # module docstring).
            ready_seen += 1
            sort = cand.key if cand.kind.is_cas else cas_pen + cand.key
            if best is None or sort < best_sort:
                best, best_sort = cand, sort
        if self.probe is not None and best is not None:
            self.probe.on_arbitration(now, ready_seen)
        return best

    def min_wake(self, now: int) -> Optional[int]:
        """Earliest cached (or computed) wake bound across all banks.

        Used by the controller's sleep logic right after a fruitless
        :meth:`select`, when every pollable bank's bound is fresh.  A
        cached bound can only be conservative (early), which at worst
        wakes the controller for a no-op scan.

        Banks without a cached bound are answered in one batched
        legality-kernel horizon query over their kind masks; only banks
        in FQ special states (mode switches, committed nominations)
        compute their bound scalar.  Per-bank clamping to ``now + 1``
        commutes with the min, so the batch is exact.
        """
        wake: Optional[int] = None
        bounds = self._bounds
        batch_flats: List[int] = []
        batch_masks: List[int] = []
        flats = self._flats
        for i, scheduler in enumerate(self.bank_schedulers):
            bound = bounds[i]
            if bound is None:
                mask = scheduler.wake_mask()
                if mask is None:
                    bound = scheduler.earliest_possible_issue(now)
                    if bound is None:
                        continue
                elif mask == 0:
                    continue
                else:
                    batch_flats.append(flats[i])
                    batch_masks.append(mask)
                    continue
            elif bound >= IDLE_BOUND:
                continue
            if wake is None or bound < wake:
                wake = bound
        if batch_flats:
            horizon = self._kernel.horizon(batch_flats, batch_masks)
            if horizon is not None:
                if horizon <= now:
                    horizon = now + 1
                if wake is None or horizon < wake:
                    wake = horizon
        return wake
