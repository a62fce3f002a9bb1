"""The memory controller: buffers, schedulers, VTMS, statistics.

Ties together the paper's Figure 2 (transaction/write buffers, bank
schedulers, channel scheduler) and Figure 3 (per-thread VTMS registers
and finish-time logic).  The controller accepts cache-line requests
from the cores, NACKs a thread whose buffer partition is full, runs
one scheduling decision per cycle, and reports completed reads back to
the system.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..core.policies import FR_FCFS
from ..core.shares import equal_shares, validate_shares
from ..policy.base import SchedulingPolicy
from ..probe import Probe
from ..core.vtms import VtmsState
from ..dram.commands import CommandType
from ..dram.dram_system import DramSystem
from .address_map import AddressMap
from .bank_scheduler import BankScheduler, CandidateCommand
from .buffers import PartitionedBuffers
from .channel_scheduler import ChannelScheduler
from .request import MemoryRequest


class ControllerStats:
    """Raw counters the metrics layer turns into paper numbers."""

    #: Power-of-two read-latency bucket boundaries (cycles).
    LATENCY_BUCKETS = (128, 256, 512, 1024, 2048, 4096)

    def __init__(self, num_threads: int):
        self.read_latency_sum = [0] * num_threads
        self.read_count = [0] * num_threads
        self.prefetch_count = [0] * num_threads
        self.write_count = [0] * num_threads
        self.cas_cycles = [0] * num_threads
        self.requests_accepted = [0] * num_threads
        self.requests_nacked = [0] * num_threads
        self.commands_issued: Dict[CommandType, int] = {k: 0 for k in CommandType}
        #: Per-thread histogram: bucket i counts latencies <= bound i,
        #: with one trailing overflow bucket.
        self.latency_histogram = [
            [0] * (len(self.LATENCY_BUCKETS) + 1) for _ in range(num_threads)
        ]

    def mean_read_latency(self, thread_id: int) -> float:
        if self.read_count[thread_id] == 0:
            return 0.0
        return self.read_latency_sum[thread_id] / self.read_count[thread_id]

    def record_latency(self, thread_id: int, latency: int) -> None:
        for i, bound in enumerate(self.LATENCY_BUCKETS):
            if latency <= bound:
                self.latency_histogram[thread_id][i] += 1
                return
        self.latency_histogram[thread_id][-1] += 1

    def latency_percentile(self, thread_id: int, fraction: float) -> int:
        """Upper bound of the bucket containing the given percentile.

        Returns the overflow marker (last bucket bound doubled) when the
        percentile lies beyond the tracked range.
        """
        if not 0.0 < fraction <= 1.0:
            raise ValueError(f"fraction must be in (0, 1], got {fraction}")
        histogram = self.latency_histogram[thread_id]
        total = sum(histogram)
        if total == 0:
            return 0
        needed = fraction * total
        seen = 0
        for i, count in enumerate(histogram):
            seen += count
            if seen >= needed:
                if i < len(self.LATENCY_BUCKETS):
                    return self.LATENCY_BUCKETS[i]
                return self.LATENCY_BUCKETS[-1] * 2
        return self.LATENCY_BUCKETS[-1] * 2


class MemoryController:
    """A multi-thread DDR2 memory controller with pluggable scheduling."""

    def __init__(
        self,
        dram: DramSystem,
        address_map: AddressMap,
        num_threads: int,
        policy: SchedulingPolicy = FR_FCFS,
        shares: Optional[Sequence[float]] = None,
        read_entries_per_thread: int = 16,
        write_entries_per_thread: int = 8,
        row_policy: str = "closed",
        write_drain: str = "fcfs",
    ):
        if write_drain not in ("fcfs", "watermark"):
            raise ValueError(
                f"write_drain must be 'fcfs' or 'watermark', got {write_drain!r}"
            )
        self.dram = dram
        self.address_map = address_map
        self.num_threads = num_threads
        self.policy = policy
        self.buffers = PartitionedBuffers(
            num_threads, read_entries_per_thread, write_entries_per_thread
        )
        if shares is None:
            shares = equal_shares(num_threads)
        self.shares = validate_shares(shares)
        self.vtms: Optional[VtmsState] = None
        if policy.uses_vtms:
            # One VTMS bank register per (rank, bank) pair.
            self.vtms = VtmsState(
                self.shares, dram.num_banks * dram.num_ranks, dram.timing
            )
        bound = policy.inversion_bound
        if bound is None:
            bound = dram.timing.t_ras
        self.bank_schedulers: List[BankScheduler] = [
            BankScheduler(
                rank, bank.index, dram, policy, self.vtms, bound,
                row_policy=row_policy,
            )
            for rank, bank in dram.iter_banks()
        ]
        self._scheduler_index = {
            (s.rank, s.bank): s for s in self.bank_schedulers
        }
        self.channel_scheduler = ChannelScheduler(self.bank_schedulers)
        self.stats = ControllerStats(num_threads)
        #: Min-heap of (completion_time, seq, request) for in-flight data.
        self._in_flight: List[Tuple[int, int, MemoryRequest]] = []
        #: Scheduling sleep: no command can become ready before this
        #: cycle unless a new request arrives (which resets it).
        self._sleep_until = 0
        #: Write-drain policy: "fcfs" schedules writes like reads (the
        #: paper's behaviour); "watermark" holds writebacks until the
        #: write buffers fill past a high watermark (or no reads are
        #: pending), then drains them in a burst to the low watermark —
        #: trading write latency for fewer bus turnarounds.
        self.write_drain = write_drain
        total_write_capacity = write_entries_per_thread * num_threads
        self._drain_high = max(1, int(total_write_capacity * 0.75))
        self._drain_low = max(0, int(total_write_capacity * 0.25))
        self._drain_active = False
        #: Pending (queued but not CAS-issued) requests per thread, for
        #: Ra_i maintenance and occupancy queries.
        self._pending: List[Set[MemoryRequest]] = [set() for _ in range(num_threads)]
        #: Total size of the _pending sets, kept in lockstep so the
        #: busy/has-work probes are O(1).
        self._pending_total = 0
        #: FQ policies cache wake bounds that read VTMS registers, so
        #: every register mutation (all flow through try_enqueue and
        #: _issue) must drop every cached bound, not just the touched
        #: bank's.
        self._fq_invalidate = policy.fq_bank_rule and self.vtms is not None
        #: Stateful policies (BLISS, MISE, ...) get lifecycle hooks;
        #: None for the stateless paper policies, so the hook sites
        #: below cost one attribute test each.
        self._policy_hooks: Optional[SchedulingPolicy] = (
            policy if policy.has_hooks else None
        )
        #: The system's probe bus (repro.probe); None in normal runs,
        #: so each hook site below costs one attribute test per event.
        self.probe: Optional[Probe] = None
        self.now = 0

    # -- request entry ---------------------------------------------------

    def try_enqueue(self, request: MemoryRequest) -> bool:
        """Accept ``request`` at the current cycle, or NACK (return False).

        On acceptance the request is decoded to SDRAM coordinates and
        placed in its bank scheduler's queue.
        """
        if not self.buffers.reserve(request):
            self.stats.requests_nacked[request.thread_id] += 1
            return False
        request.arrival_time = self.now
        request.rank, request.bank, request.row, request.column = (
            self.address_map.decode(request.address)
        )
        if self.vtms is not None:
            request.virtual_arrival = self.vtms.clock
        else:
            request.virtual_arrival = float(self.now)
        if self.vtms is not None and self.policy.arrival_accounting:
            # §3.2 solution 1: fix the finish-time now from an assumed
            # average bank service; no per-command updates later.
            flat_bank = request.rank * self.dram.num_banks + request.bank
            request.virtual_finish_time = self.vtms[
                request.thread_id
            ].on_request_arrival(
                flat_bank,
                request.virtual_arrival,
                self.dram.timing.service_closed,
            )
        self._scheduler_index[(request.rank, request.bank)].add(request)
        if self._fq_invalidate:
            # The arrival may move VTMS registers (oldest-arrival reset,
            # arrival accounting), which every bank's wake bound reads.
            self.channel_scheduler.invalidate_all()
        else:
            self.channel_scheduler.invalidate(request.rank, request.bank)
        self._pending[request.thread_id].add(request)
        self._pending_total += 1
        self._refresh_oldest_arrival(request.thread_id)
        self.stats.requests_accepted[request.thread_id] += 1
        self._sleep_until = 0
        if self.probe is not None:
            self.probe.on_accept(request, self.now)
        if self._policy_hooks is not None:
            self._policy_hooks.on_arrival(request, self.now)
        return True

    def _refresh_oldest_arrival(self, thread_id: int) -> None:
        if self.vtms is None:
            return
        pending = self._pending[thread_id]
        oldest = min((r.virtual_arrival for r in pending), default=None)
        self.vtms.set_oldest_arrival(thread_id, oldest)

    # -- occupancy queries (used by cores for back-pressure) -----------------

    def pending_requests(self, thread_id: int) -> int:
        return len(self._pending[thread_id])

    def has_work(self) -> bool:
        """True when any request is queued or data is in flight."""
        return bool(self._in_flight) or self._pending_total > 0

    # -- per-cycle scheduling --------------------------------------------------

    def tick(self, now: int) -> List[MemoryRequest]:
        """Run one controller cycle; return reads whose data completed."""
        self.now = now
        if self._policy_hooks is not None:
            # No-op except at the boundaries the policy publishes via
            # next_event_time, which keeps the event engine
            # bit-identical (skipped cycles are provably no-ops).
            self._policy_hooks.on_cycle(now)
        completed = self._pop_completed(now)
        in_refresh = self.dram.in_refresh(now)

        if not in_refresh:
            draining = self.dram.refresh_due(now)
            if draining and self.dram.try_start_refresh(now):
                # Nothing can issue until the refresh completes, and the
                # start cycle itself counts as a refresh cycle.
                self._sleep_until = self.dram.refresh_end or now
                in_refresh = True
                # Refresh resets every bank (rows closed, t_rfc timing),
                # so cached wake bounds no longer describe anything.
                self.channel_scheduler.invalidate_all()
                if self.probe is not None:
                    self.probe.on_refresh(self, now)
            else:
                if self._update_write_drain():
                    # Eligibility flipped: previously computed sleep and
                    # wake bounds no longer describe the candidate set.
                    self._sleep_until = 0
                    self.channel_scheduler.invalidate_all()
                if now >= self._sleep_until:
                    cand = self.channel_scheduler.select(
                        now, draining_for_refresh=draining
                    )
                    if cand is not None:
                        self._issue(cand, now)
                        self._sleep_until = 0
                    else:
                        self._sleep_until = self._compute_sleep(now)

        if self.vtms is not None:
            self.vtms.tick(in_refresh=in_refresh)
        return completed

    def _update_write_drain(self) -> bool:
        """Refresh the write-drain gate; True when eligibility flipped."""
        if self.write_drain == "fcfs":
            return False
        writes = self.buffers.total_writes()
        reads = self.buffers.total_reads()
        if self._drain_active:
            if writes <= self._drain_low:
                self._drain_active = False
        elif writes >= self._drain_high:
            self._drain_active = True
        eligible = self._drain_active or reads == 0
        if eligible == self.bank_schedulers[0].writes_eligible:
            return False
        for scheduler in self.bank_schedulers:
            scheduler.writes_eligible = eligible
        return True

    def _compute_sleep(self, now: int) -> int:
        """First future cycle a command could become ready (no arrivals)."""
        wake = self.channel_scheduler.min_wake(now)
        if wake is None:
            # No queued work at all: sleep until something arrives
            # (arrival resets the sleep) or a refresh falls due.
            wake = now + self.dram.timing.t_refi
        if self.dram.enable_refresh and self.dram.next_refresh_due is not None:
            wake = min(wake, max(now + 1, self.dram.next_refresh_due))
        return wake

    def _issue(self, cand: CandidateCommand, now: int) -> None:
        self.dram.issue(cand.kind, cand.rank, cand.bank, cand.row, now)
        self.stats.commands_issued[cand.kind] += 1
        scheduler = self._scheduler_index[(cand.rank, cand.bank)]
        if self.probe is not None:
            # Before on_issue mutates the bank queue or row state, so
            # probes see the queue exactly as the selection did.
            self.probe.on_command(scheduler, cand, now)
        scheduler.on_issue(cand, now)
        if self._policy_hooks is not None:
            self._policy_hooks.on_issue(cand, now)
        if self._fq_invalidate:
            # The issue moves VTMS registers (service accounting below,
            # oldest-arrival refresh on CAS); see _fq_invalidate.
            self.channel_scheduler.invalidate_all()
        else:
            self.channel_scheduler.invalidate(cand.rank, cand.bank)

        if (
            self.vtms is not None
            and cand.charge_thread is not None
            and not self.policy.arrival_accounting
        ):
            flat_bank = cand.rank * self.dram.num_banks + cand.bank
            self.vtms[cand.charge_thread].on_command_issued(
                cand.kind, flat_bank, cand.charge_arrival
            )

        request = cand.request
        if request is not None and cand.kind.is_cas:
            request.cas_issued_at = now
            if cand.kind is CommandType.READ:
                done = self.dram.read_data_available(now)
                if request.prefetch:
                    self.stats.prefetch_count[request.thread_id] += 1
                else:
                    self.stats.read_count[request.thread_id] += 1
            else:
                done = self.dram.write_data_done(now)
                self.stats.write_count[request.thread_id] += 1
            self.stats.cas_cycles[request.thread_id] += self.dram.timing.burst
            request.completed_at = done
            heapq.heappush(self._in_flight, (done, request.seq, request))
            pending = self._pending[request.thread_id]
            before = len(pending)
            pending.discard(request)
            self._pending_total -= before - len(pending)
            self._refresh_oldest_arrival(request.thread_id)

    def _pop_completed(self, now: int) -> List[MemoryRequest]:
        completed: List[MemoryRequest] = []
        while self._in_flight and self._in_flight[0][0] <= now:
            _, _, request = heapq.heappop(self._in_flight)
            self.buffers.release(request)
            if self.probe is not None:
                self.probe.on_complete(request, now)
            if self._policy_hooks is not None:
                self._policy_hooks.on_complete(request, now)
            if request.is_read:
                if not request.prefetch:
                    latency = request.latency()
                    self.stats.read_latency_sum[request.thread_id] += latency
                    self.stats.record_latency(request.thread_id, latency)
                completed.append(request)
        return completed

    # -- event-driven engine support ---------------------------------------------

    def next_event_time(self, now: int) -> Optional[int]:
        """Earliest cycle ≥ ``now`` at which this controller's tick could
        do real work — complete in-flight data, start or finish a
        refresh, or issue a command — assuming no new request is
        accepted first (an acceptance happens only at a stepped cycle
        and resets ``_sleep_until``).

        A conservative answer (too early) is always safe: the engine
        just steps a no-op cycle.  ``None`` means fully idle: nothing
        queued, nothing in flight, refresh disabled.
        """
        candidates: List[int] = []
        if self._in_flight:
            candidates.append(self._in_flight[0][0])
        refresh_end = self.dram.refresh_end
        if refresh_end is not None and refresh_end > now:
            # Mid-refresh: scheduling is blacked out until it completes
            # (data already in flight still drains via the bound above).
            candidates.append(refresh_end)
        elif self.dram.refresh_due(now):
            # Refresh pending: the drain — precharging open banks, then
            # the REF command once every bank is idle — is a
            # cycle-by-cycle negotiation, so step through it.  Bounded
            # by t_rp plus in-flight CAS completions, so it is short.
            candidates.append(now)
        else:
            busy = self._pending_total > 0 or self.dram.open_banks > 0
            if busy:
                # The scheduling sleep (set by the last tick) bounds
                # when a command could next become ready.
                candidates.append(max(now, self._sleep_until))
            if self.dram.enable_refresh and self.dram.next_refresh_due is not None:
                candidates.append(max(now, self.dram.next_refresh_due))
        if self._policy_hooks is not None:
            # Always fold the policy's boundary in — even when the
            # controller is otherwise idle — so epoch/interval ticks
            # (blacklist clears, slowdown snapshots) are stepped at
            # exactly the cycle the per-cycle engine would run them.
            wake = self._policy_hooks.next_event_time(now)
            if wake is not None:
                candidates.append(max(now, wake))
        if not candidates:
            return None
        return min(candidates)

    def skip_cycles(self, now: int, target: int) -> None:
        """Fast-forward over the no-op cycles ``[now, target)``.

        Only legal when :meth:`next_event_time` proved no tick in the
        span does real work.  The FQ real clock advances by the skipped
        span minus any overlap with an in-progress refresh (the clock
        freezes during refresh).  ``self.now`` lands on ``target - 1``
        — exactly where ``tick(target - 1)`` would have left it — so a
        request delivered at cycle ``target`` (delivery precedes the
        tick) stamps the same arrival time under both engines.
        """
        if target <= now:
            return
        if self.vtms is not None:
            skipped = target - now
            refresh_end = self.dram.refresh_end
            if refresh_end is not None and refresh_end > now:
                skipped -= min(refresh_end, target) - now
            self.vtms.clock += skipped
        self.now = target - 1

    def skip_interface_nacks(self, thread_id: int, cycles: int) -> None:
        """Account ``cycles`` of per-cycle head-of-queue retry NACKs.

        The system retries each non-empty interface queue's head once
        per cycle; over a skipped span in which the head would have
        been rejected throughout, that is one buffer NACK and one
        controller NACK per cycle.
        """
        if cycles <= 0:
            return
        self.stats.requests_nacked[thread_id] += cycles
        self.buffers.nack_count[thread_id] += cycles

    # -- reporting ----------------------------------------------------------------

    def data_bus_utilization(self, cycles: int) -> float:
        return self.dram.channel.utilization(cycles)

    def thread_bus_utilization(self, thread_id: int, cycles: int) -> float:
        if cycles <= 0:
            return 0.0
        return self.stats.cas_cycles[thread_id] / cycles

    def bank_utilization(self, cycles: int) -> float:
        """Mean fraction of time banks spend between activate and precharge."""
        if cycles <= 0:
            return 0.0
        total = sum(
            bank.busy_cycles_at(self.now) for _, bank in self.dram.iter_banks()
        )
        return total / (cycles * self.dram.num_banks * self.dram.num_ranks)
