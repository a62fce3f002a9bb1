"""SchedulerInvariantChecker: clean runs pass, broken invariants fire."""

import pytest

from repro.check import InvariantViolation, RunChecker
from repro.controller.bank_scheduler import CandidateCommand
from repro.controller.request import MemoryRequest, RequestKind
from repro.dram.commands import CommandType
from repro.sim.config import SystemConfig
from repro.sim.system import CmpSystem
from repro.workloads.spec2000 import profile


def checked_system(policy, cores=2):
    config = SystemConfig(policy=policy, num_cores=cores, seed=0)
    profiles = [profile(name) for name in ("vpr", "art")[:cores]]
    return CmpSystem(config, profiles, probes=[RunChecker()])


def invariants(system):
    """The invariant checker of ``system``'s first channel."""
    return system.probe.invariants[0]


def make_request(thread_id=0, bank=0, seq=None, vft=0.0, arrival=0):
    request = MemoryRequest(
        thread_id=thread_id,
        kind=RequestKind.READ,
        address=0,
        arrival_time=arrival,
        bank=bank,
        virtual_finish_time=vft,
    )
    if seq is not None:
        request.seq = seq
    return request


def cas_for(request, now=0):
    return CandidateCommand(
        kind=CommandType.READ,
        rank=request.rank,
        bank=request.bank,
        row=request.row,
        ready=True,
        key=(0,),
        request=request,
        charge_thread=request.thread_id,
        charge_arrival=float(request.arrival_time),
    )


class TestCleanRuns:
    @pytest.mark.parametrize("policy", ["FR-FCFS", "FR-VFTF", "FQ-VFTF"])
    def test_real_run_satisfies_all_invariants(self, policy):
        system = checked_system(policy)
        system.run(30_000)  # run() calls finalize(); any violation raises
        counters = system.probe.summary()
        assert counters["commands_checked"] > 0
        assert counters["requests_accepted"] > 0
        assert counters["requests_completed"] > 0
        assert counters["requests_completed"] <= counters["requests_retired"]

    def test_inversion_check_active_only_under_fq_bank_rule(self):
        fq = invariants(checked_system("FQ-VFTF"))
        frfcfs = invariants(checked_system("FR-FCFS"))
        assert fq.check_inversion
        assert not frfcfs.check_inversion

    def test_inversion_bound_defaults_to_tras(self):
        system = checked_system("FQ-VFTF")
        checker = invariants(system)
        assert checker.inversion_bound == system.controller.dram.timing.t_ras


class TestConservation:
    def test_duplicate_accept(self):
        inv = invariants(checked_system("FQ-VFTF"))
        request = make_request()
        inv.on_accept(request, 100)
        with pytest.raises(InvariantViolation) as info:
            inv.on_accept(request, 101)
        assert info.value.invariant == "conservation"

    def test_cas_for_request_never_accepted(self):
        inv = invariants(checked_system("FQ-VFTF"))
        with pytest.raises(InvariantViolation) as info:
            inv.on_command(cas_for(make_request()), 100)
        assert info.value.invariant == "conservation"

    def test_spurious_completion(self):
        inv = invariants(checked_system("FQ-VFTF"))
        request = make_request()
        request.completed_at = 90
        with pytest.raises(InvariantViolation) as info:
            inv.on_complete(request, 100)
        assert info.value.invariant == "conservation"

    def test_delivery_before_data_transfer(self):
        inv = invariants(checked_system("FQ-VFTF"))
        request = make_request()
        inv.on_accept(request, 10)
        inv.on_command(cas_for(request), 20)
        request.completed_at = 300  # data lands after the delivery cycle
        with pytest.raises(InvariantViolation) as info:
            inv.on_complete(request, 200)
        assert info.value.invariant == "conservation"

    def test_finalize_catches_unbalanced_ledger(self):
        inv = invariants(checked_system("FQ-VFTF"))
        inv.accepted = 5  # claim traffic the event stream never showed
        with pytest.raises(InvariantViolation) as info:
            inv.finalize(1000)
        assert info.value.invariant == "conservation"


class TestMonotonicity:
    def test_vft_register_decrease(self):
        system = checked_system("FQ-VFTF")
        system.run(30_000)
        inv = invariants(system)
        thread = system.controller.vtms[0]
        assert thread.bank_finish[0] > 0.0  # the run produced traffic
        thread.bank_finish[0] -= 1.0
        with pytest.raises(InvariantViolation) as info:
            inv._check_vft_registers(0, system.now)
        assert info.value.invariant == "vft-monotone"

    def test_channel_register_decrease(self):
        system = checked_system("FQ-VFTF")
        system.run(30_000)
        inv = invariants(system)
        thread = system.controller.vtms[0]
        assert thread.channel_finish > 0.0
        thread.channel_finish -= 1.0
        with pytest.raises(InvariantViolation) as info:
            inv._check_vft_registers(0, system.now)
        assert info.value.invariant == "vft-monotone"

    def test_virtual_clock_backwards(self):
        system = checked_system("FQ-VFTF")
        system.run(30_000)
        inv = invariants(system)
        assert inv._clock_shadow > 0.0
        # The live clock may have advanced past the last observation, so
        # rewind it below the checker's shadow to model a backwards step.
        system.controller.vtms.clock = inv._clock_shadow - 1.0
        with pytest.raises(InvariantViolation) as info:
            inv._check_clocks(system.now)
        assert info.value.invariant == "virtual-clock"


class TestBoundedInversion:
    def test_committed_bank_must_serve_earliest_vft(self):
        inv = invariants(checked_system("FQ-VFTF"))
        urgent = make_request(thread_id=0, vft=10.0, arrival=0)
        laggard = make_request(thread_id=1, vft=50.0, arrival=1)
        inv.on_accept(urgent, 10)
        inv.on_accept(laggard, 11)
        view = inv.banks[(0, 0)]
        view.open = True
        view.last_activate = 100
        now = 100 + inv.inversion_bound  # the bank is committed
        with pytest.raises(InvariantViolation) as info:
            inv.on_command(cas_for(laggard), now)
        assert info.value.invariant == "bounded-inversion"

    def test_before_the_bound_any_order_is_legal(self):
        inv = invariants(checked_system("FQ-VFTF"))
        urgent = make_request(thread_id=0, vft=10.0, arrival=0)
        laggard = make_request(thread_id=1, vft=50.0, arrival=1)
        inv.on_accept(urgent, 10)
        inv.on_accept(laggard, 11)
        view = inv.banks[(0, 0)]
        view.open = True
        view.last_activate = 100
        inv.on_command(cas_for(laggard), 100 + inv.inversion_bound - 1)
        assert inv.retired == 1

    def test_committed_bank_serving_earliest_is_legal(self):
        inv = invariants(checked_system("FQ-VFTF"))
        urgent = make_request(thread_id=0, vft=10.0, arrival=0)
        laggard = make_request(thread_id=1, vft=50.0, arrival=1)
        inv.on_accept(urgent, 10)
        inv.on_accept(laggard, 11)
        view = inv.banks[(0, 0)]
        view.open = True
        view.last_activate = 100
        inv.on_command(cas_for(urgent), 100 + inv.inversion_bound)
        assert inv.retired == 1
