"""Bank selection vs a brute-force tuple reference, for every policy.

``BankScheduler.candidate`` compares packed-int keys with penalty bits
and takes shortcuts from its queue-shape counters.  The reference
below is the plain specification it must agree with: over the visible
requests (writes hidden while the write drain holds them back), pick
the min of ``(not ready, not is_cas, request_key)`` — without the CAS
level under ``key_over_cas`` — with readiness taken from the
object-walking legality reference model, the §3.3 commit to the
min-key request once the bank has been active for the inversion bound,
and the closed-page auto-precharge when the open row has no visible
work.  Random queue, open-row, write-drain and DRAM timing states are
generated per example from a drawn seed.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.controller.address_map import AddressMap
from repro.controller.bank_scheduler import BankScheduler
from repro.controller.request import MemoryRequest, RequestKind
from repro.core.vtms import VtmsState
from repro.dram.commands import CommandType
from repro.dram.dram_system import DramSystem
from repro.dram.timing import DDR2Timing
from repro.policy import PolicyContext, registered_names, resolve
from repro.policy.base import SchedulingPolicy

from ..dram.legality_reference import earliest_issue_reference

NUM_THREADS = 4
RANK, BANK = 0, 0
ROWS = (3, 5, 9)
KINDS = (
    CommandType.ACTIVATE,
    CommandType.PRECHARGE,
    CommandType.READ,
    CommandType.WRITE,
)
_AMAP = AddressMap()


def _ready(dram, kind, now):
    earliest = earliest_issue_reference(dram, kind, RANK, BANK)
    return earliest is not None and earliest <= now


def _kind(open_row, request):
    if open_row is None:
        return CommandType.ACTIVATE
    if request.row == open_row:
        return CommandType.READ if request.is_read else CommandType.WRITE
    return CommandType.PRECHARGE


def reference_candidate(scheduler, now, draining):
    """The (request, kind, ready) ``candidate`` must nominate, or None."""
    policy = scheduler.policy
    dram = scheduler.dram
    if policy.uses_vtms and not policy.arrival_accounting:
        scheduler._refresh_finish_times()
    bank = dram.bank(RANK, BANK)
    open_row = bank.open_row
    visible = [
        r for r in scheduler.queue if scheduler.writes_eligible or r.is_read
    ]
    if open_row is None:
        if not visible or draining:
            return None
    elif not visible:
        if scheduler.row_policy == "closed" or draining:
            pre = CommandType.PRECHARGE
            return None, pre, _ready(dram, pre, now)
        return None
    elif (
        policy.fq_bank_rule
        and now - bank.last_activate >= scheduler.inversion_bound
    ):
        chosen = min(visible, key=policy.request_key)
        kind = _kind(open_row, chosen)
        return chosen, kind, _ready(dram, kind, now)

    def sort(request):
        kind = _kind(open_row, request)
        ready = _ready(dram, kind, now)
        if policy.key_over_cas:
            return (not ready, policy.request_key(request))
        return (not ready, not kind.is_cas, policy.request_key(request))

    chosen = min(visible, key=sort)
    kind = _kind(open_row, chosen)
    return chosen, kind, _ready(dram, kind, now)


def _nominated(cand):
    if cand is None:
        return None
    return cand.request, cand.kind, cand.ready


def _make_policy(name, timing):
    return resolve(name)(PolicyContext(num_threads=NUM_THREADS, timing=timing))


def _perturb_policy_state(policy, rng):
    """Move the mutable state stateful policies' keys read."""
    if hasattr(policy, "blacklisted"):
        for thread in range(NUM_THREADS):
            policy.blacklisted[thread] = rng.random() < 0.5
            policy._last_served[thread] = rng.randrange(64)
    if hasattr(policy, "estimator"):
        for thread in range(NUM_THREADS):
            policy.estimator.observe(thread, rng.randrange(1, 10_000))
        policy.on_cycle(policy._next_epoch)


def _random_walk(dram, rng, cycles):
    """Issue random legal commands on every bank of the channel."""
    for now in range(cycles):
        if rng.random() < 0.5:
            continue
        legal = []
        for bank in range(dram.num_banks):
            for kind in KINDS:
                earliest = earliest_issue_reference(dram, kind, RANK, bank)
                if earliest is not None and earliest <= now:
                    legal.append((kind, bank))
        if legal:
            kind, bank = rng.choice(legal)
            row = dram.bank(RANK, bank).open_row
            if row is None:
                row = rng.choice(ROWS)
            dram.issue(kind, RANK, bank, row, now)


def _request(rng, seq, now, open_row):
    rows = ROWS + ((open_row,) * 2 if open_row is not None else ())
    row = rng.choice(rows)
    arrival = rng.randrange(now + 1)
    kind = RequestKind.READ if rng.random() < 0.7 else RequestKind.WRITE
    request = MemoryRequest(
        thread_id=rng.randrange(NUM_THREADS),
        kind=kind,
        address=_AMAP.encode(RANK, BANK, row, seq % 64),
        arrival_time=arrival,
        seq=seq,
    )
    request.rank, request.bank, request.row, request.column = _AMAP.decode(
        request.address
    )
    request.virtual_arrival = float(arrival)
    return request


def _build(name, rng, row_policy):
    timing = DDR2Timing()
    dram = DramSystem(timing, enable_refresh=False)
    policy = _make_policy(name, timing)
    vtms = None
    if policy.uses_vtms:
        vtms = VtmsState([1.0 / NUM_THREADS] * NUM_THREADS, dram.num_banks, timing)
        for _ in range(rng.randrange(12)):
            vtms[rng.randrange(NUM_THREADS)].on_command_issued(
                rng.choice(KINDS), rng.randrange(dram.num_banks),
                arrival=float(rng.randrange(200)),
            )
    bound = policy.inversion_bound
    scheduler = BankScheduler(
        RANK, BANK, dram, policy, vtms,
        inversion_bound=timing.t_ras if bound is None else bound,
        row_policy=row_policy,
    )
    return dram, policy, scheduler


@pytest.mark.parametrize("name", registered_names())
@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    walk=st.integers(0, 120),
    slack=st.integers(0, 40),
    queued=st.integers(0, 8),
    writes_eligible=st.booleans(),
    row_policy=st.sampled_from(["closed", "open"]),
    draining=st.booleans(),
)
def test_candidate_matches_tuple_reference(
    name, seed, walk, slack, queued, writes_eligible, row_policy, draining
):
    rng = random.Random(seed)
    dram, policy, scheduler = _build(name, rng, row_policy)
    _random_walk(dram, rng, walk)
    now = walk + slack
    open_row = dram.bank(RANK, BANK).open_row
    for i in range(queued):
        scheduler.add(_request(rng, i + 1, now, open_row))
    scheduler.writes_eligible = writes_eligible
    _perturb_policy_state(policy, rng)
    want = reference_candidate(scheduler, now, draining)
    assert _nominated(scheduler.candidate(now, draining)) == want
    # A second pass after stateful policies' keys moved: memoized keys
    # must not go stale, recomputed ones must be recomputed.
    _perturb_policy_state(policy, rng)
    want = reference_candidate(scheduler, now, draining)
    assert _nominated(scheduler.candidate(now, draining)) == want


@pytest.mark.parametrize("name", registered_names())
def test_auto_precharge_matches_reference(name):
    """Open row, only held-back writes queued: close the row."""
    rng = random.Random(1)
    dram, _, scheduler = _build(name, rng, "closed")
    dram.issue(CommandType.ACTIVATE, RANK, BANK, 5, 0)
    scheduler.add(MemoryRequest(
        thread_id=0, kind=RequestKind.WRITE,
        address=_AMAP.encode(RANK, BANK, 5, 0), arrival_time=0, seq=1,
        row=5,
    ))
    scheduler.writes_eligible = False
    now = dram.timing.t_ras
    cand = scheduler.candidate(now)
    assert cand.request is None and cand.kind is CommandType.PRECHARGE
    assert _nominated(cand) == reference_candidate(scheduler, now, False)


@pytest.mark.parametrize("offset", [-1, 0, 1])
@pytest.mark.parametrize("name", registered_names())
def test_fq_commit_matches_reference(name, offset):
    """Either side of the inversion bound: the §3.3 commit case.

    Thread 0 streams row hits and has consumed far more than its
    share, so thread 1's conflict holds the earliest virtual finish
    time: first-ready picks a hit, the committed bank the conflict.
    """
    rng = random.Random(2)
    dram, policy, scheduler = _build(name, rng, "closed")
    dram.issue(CommandType.ACTIVATE, RANK, BANK, 5, 0)
    if scheduler.vtms is not None:
        for _ in range(50):
            scheduler.vtms[0].on_command_issued(CommandType.READ, BANK, arrival=0.0)
    hits = []
    for seq in range(1, 4):
        hit = MemoryRequest(
            thread_id=0, kind=RequestKind.READ,
            address=_AMAP.encode(RANK, BANK, 5, seq),
            arrival_time=seq, seq=seq, row=5,
        )
        hits.append(hit)
        scheduler.add(hit)
    conflict = MemoryRequest(
        thread_id=1, kind=RequestKind.READ,
        address=_AMAP.encode(RANK, BANK, 9, 0),
        arrival_time=4, seq=4, row=9,
    )
    scheduler.add(conflict)
    now = scheduler.inversion_bound + offset
    want = reference_candidate(scheduler, now, False)
    assert _nominated(scheduler.candidate(now)) == want
    if policy.fq_bank_rule and not policy.arrival_accounting:
        assert want[0] is (conflict if offset >= 0 else hits[0])


def test_layoutless_policy_is_rejected():
    """A policy without a packed key layout cannot be scheduled."""

    class TupleOnly(SchedulingPolicy):
        name = "TUPLE-ONLY"

        def request_key(self, request):
            return (request.arrival_time, request.seq)

    dram = DramSystem(DDR2Timing(), enable_refresh=False)
    with pytest.raises(ValueError, match="key layout"):
        BankScheduler(RANK, BANK, dram, TupleOnly(), None, inversion_bound=0)
