"""The fair job scheduler: the paper's queuing discipline, dogfooded.

The simulated memory controller orders requests by per-thread virtual
finish times (:mod:`repro.core.vtms`); this module applies the same
start-time/finish-time fair queuing to the experiment service's own
job queue.  Each *tenant* (a submitting user or driver) holds a
configurable share φ; each job costs its simulated-cycle count; and
the scheduler dispatches the globally smallest virtual finish tag:

* ``start_tag = max(virtual_time, tenant.last_finish_tag)`` — a tenant
  idle past the virtual clock re-anchors to *now* instead of burning
  banked credit (the same idle-thread re-anchoring the paper's
  scheduler does), while a backlogged tenant queues behind its own
  last job.
* ``finish_tag = start_tag + cost / φ`` — a φ=4 tenant's tags advance
  a quarter as fast, so it drains four jobs per competitor job.
* Dispatch pops the minimum ``(finish_tag, seqno)`` — the integer
  sequence number is the deterministic tie-breaker (no float equality
  anywhere near the ordering, same discipline as the VTMS keys).

The module is deliberately wall-clock-free and async-free: virtual
time advances on job *costs*, so the dispatch sequence is a pure
function of (submission order, shares, costs) and the unit tests
verify weighted interleavings exactly, without sleeping.  Host-time
accounting (busy seconds, turnaround) is *recorded* here but measured
by the service through :mod:`repro.serve.clock`.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Tuple

from ..sim.parallel import RunSpec


class Job:
    """One schedulable run: a spec plus its fair-queuing tags.

    Lifecycle state mirrors the fleet dashboard vocabulary
    (:data:`repro.obs.fleet.RUN_STATES`): ``queued`` → ``running`` →
    ``done``/``cached``/``error``/``lost``, with ``retried`` as the
    transient crash-resubmission state.  ``attempts`` counts executions
    started; the retry budget in :class:`~repro.sim.retry.RetryPolicy`
    bounds it.
    """

    __slots__ = (
        "job_id", "tenant", "spec", "cost", "start_tag", "finish_tag",
        "attempts", "state", "submitted_s", "started_s", "busy_s",
        "error",
    )

    def __init__(
        self, job_id: int, tenant: str, spec: RunSpec, cost: float
    ):
        self.job_id = job_id
        self.tenant = tenant
        self.spec = spec
        self.cost = float(cost)
        self.start_tag = 0.0
        self.finish_tag = 0.0
        self.attempts = 0
        self.state = "queued"
        #: Host-time stamps (service-measured, via serve.clock); used
        #: only for metrics, never for scheduling or results.
        self.submitted_s = 0.0
        self.started_s = 0.0
        self.busy_s = 0.0
        self.error: Optional[str] = None


class TenantAccount:
    """Per-tenant share and service accounting."""

    __slots__ = (
        "name", "weight", "last_finish_tag", "submitted", "finished",
        "busy_s", "turnaround_s", "queued",
    )

    def __init__(self, name: str, weight: float = 1.0):
        if weight <= 0:
            raise ValueError(f"tenant share must be positive, got {weight}")
        self.name = name
        self.weight = float(weight)
        self.last_finish_tag = 0.0
        self.submitted = 0
        self.finished = 0
        self.busy_s = 0.0
        self.turnaround_s = 0.0
        self.queued = 0

    @property
    def slowdown(self) -> float:
        """MISE-style tenant slowdown: turnaround over pure service time.

        1.0 means the tenant's jobs never waited behind anyone; k means
        its jobs spent k× their own execution time in the system.
        """
        if self.busy_s <= 0.0:
            return 1.0
        return max(1.0, self.turnaround_s / self.busy_s)


class FairJobQueue:
    """SFQ over jobs: submit with tags, pop the minimum finish tag."""

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, Job]] = []
        self._virtual = 0.0
        self._seq = 0
        self.tenants: Dict[str, TenantAccount] = {}

    # -- tenants -----------------------------------------------------------

    def tenant(self, name: str, weight: Optional[float] = None) -> TenantAccount:
        """The account for ``name``, created (or re-weighted) on demand."""
        account = self.tenants.get(name)
        if account is None:
            account = TenantAccount(name, weight if weight is not None else 1.0)
            self.tenants[name] = account
        elif weight is not None:
            if weight <= 0:
                raise ValueError(f"tenant share must be positive, got {weight}")
            account.weight = float(weight)
        return account

    # -- scheduling --------------------------------------------------------

    @property
    def virtual_time(self) -> float:
        return self._virtual

    def __len__(self) -> int:
        return len(self._heap)

    def submit(self, tenant: str, spec: RunSpec, cost: float) -> Job:
        """Tag and enqueue one job for ``tenant``."""
        account = self.tenant(tenant)
        self._seq += 1
        job = Job(self._seq, tenant, spec, cost)
        job.start_tag = max(self._virtual, account.last_finish_tag)
        job.finish_tag = job.start_tag + job.cost / account.weight
        account.last_finish_tag = job.finish_tag
        account.submitted += 1
        account.queued += 1
        heapq.heappush(self._heap, (job.finish_tag, job.job_id, job))
        return job

    def requeue(self, job: Job) -> None:
        """Put a crash-orphaned job back, keeping its original tags.

        The tenant already paid for this service interval when the job
        was first tagged; re-tagging at the current virtual time would
        double-charge a tenant for a *service-side* fault.  Keeping the
        tags also sends the retried job to the front of its tenant's
        backlog, bounding the extra delay a crash inflicts.
        """
        self.tenant(job.tenant).queued += 1
        heapq.heappush(self._heap, (job.finish_tag, job.job_id, job))

    def pop(self) -> Optional[Job]:
        """Dispatch the job with the globally smallest finish tag."""
        if not self._heap:
            return None
        _, _, job = heapq.heappop(self._heap)
        # SFQ virtual clock: v(t) is the start tag of the job in
        # service — monotone, and what makes idle tenants re-anchor.
        self._virtual = max(self._virtual, job.start_tag)
        self.tenant(job.tenant).queued -= 1
        return job

    # -- accounting --------------------------------------------------------

    def charge(self, job: Job, busy_s: float, turnaround_s: float) -> None:
        """Credit one finished job's measured host-time usage."""
        account = self.tenant(job.tenant)
        account.finished += 1
        account.busy_s += busy_s
        account.turnaround_s += turnaround_s

    def fairness(self) -> Dict[str, float]:
        """Headline fairness metrics over tenants that ran anything.

        ``unfairness`` is the paper's metric shape — max over min
        tenant slowdown (1.0 = perfectly fair); ``max_slowdown`` is
        the MISE-style headline.  Share-normalized busy-second ratios
        let the dogfood test check worker-time shares against φ.
        """
        active = [t for t in self.tenants.values() if t.busy_s > 0.0]
        if not active:
            return {"max_slowdown": 1.0, "unfairness": 1.0}
        slowdowns = [t.slowdown for t in active]
        metrics = {
            "max_slowdown": max(slowdowns),
            "unfairness": max(slowdowns) / min(slowdowns),
        }
        total_busy = sum(t.busy_s for t in active)
        total_weight = sum(t.weight for t in active)
        for account in active:
            fair_share = account.weight / total_weight
            observed = account.busy_s / total_busy
            metrics[f"tenant.{account.name}.busy_share"] = observed
            metrics[f"tenant.{account.name}.fair_share"] = fair_share
            metrics[f"tenant.{account.name}.slowdown"] = account.slowdown
        return metrics
