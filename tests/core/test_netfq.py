"""Network fair queuing substrate: Equations 1–2, GPS bounds, fairness."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from .netfq import (
    Discipline,
    GpsServer,
    Packet,
    PacketFairQueue,
    flow_service,
)


def backlogged_packets(num_flows, per_flow, length=1.0):
    """All flows permanently backlogged from t=0."""
    packets = []
    for k in range(per_flow):
        for flow in range(num_flows):
            packets.append(Packet(flow=flow, length=length, arrival=0.0))
    return packets


class TestPacketValidation:
    def test_rejects_nonpositive_length(self):
        with pytest.raises(ValueError):
            Packet(0, 0.0, 0.0)

    def test_rejects_negative_arrival(self):
        with pytest.raises(ValueError):
            Packet(0, 1.0, -1.0)


class TestQueueValidation:
    def test_rejects_oversubscription(self):
        with pytest.raises(ValueError):
            PacketFairQueue([0.7, 0.7])

    def test_rejects_unknown_flow(self):
        queue = PacketFairQueue([0.5, 0.5])
        with pytest.raises(ValueError):
            queue.schedule([Packet(5, 1.0, 0.0)])


class TestEqualShares:
    def test_backlogged_flows_alternate(self):
        queue = PacketFairQueue([0.5, 0.5])
        served = queue.schedule(backlogged_packets(2, 4))
        flows = [p.flow for p, _, _ in served]
        # Perfect interleaving under equal shares.
        for a, b in zip(flows, flows[1:]):
            assert a != b

    def test_service_split_evenly(self):
        queue = PacketFairQueue([0.5, 0.5])
        served = queue.schedule(backlogged_packets(2, 8))
        totals = flow_service(served, horizon=8.0)
        assert totals[0] == pytest.approx(totals[1], abs=1.0)


class TestWeightedShares:
    def test_service_proportional_to_shares(self):
        queue = PacketFairQueue([0.75, 0.25])
        served = queue.schedule(backlogged_packets(2, 16))
        totals = flow_service(served, horizon=16.0)
        assert totals[0] / totals[1] == pytest.approx(3.0, rel=0.25)

    def test_idle_share_reclaimed(self):
        # Flow 1 sends nothing: flow 0 gets the whole link.
        queue = PacketFairQueue([0.5, 0.5])
        packets = [Packet(0, 1.0, 0.0) for _ in range(4)]
        served = queue.schedule(packets)
        assert served[-1][2] == pytest.approx(4.0)


class TestDisciplines:
    def test_all_disciplines_work_conserving(self):
        for discipline in Discipline:
            queue = PacketFairQueue([0.5, 0.5], discipline=discipline)
            served = queue.schedule(backlogged_packets(2, 4))
            # Link never idles while work remains: end of service k is
            # start of service k+1.
            for (_, _, end), (_, start, _) in zip(served, served[1:]):
                assert start == pytest.approx(end)

    def test_wf2q_eligibility_bounds_lead(self):
        # Flow 0 floods with small packets whose finish tags all beat
        # flow 1's long packet, but WF²Q+ eligibility stops flow 0 from
        # running arbitrarily far ahead of its fluid share: flow 1's
        # packet is served before the flood completes.
        queue = PacketFairQueue([0.5, 0.5], discipline=Discipline.WF2Q)
        flood = [Packet(0, 1.0, 0.0) for _ in range(8)]
        lone = [Packet(1, 4.0, 0.0)]
        served = queue.schedule(flood + lone)
        order = [p.flow for p, _, _ in served]
        assert order.index(1) < len(order) - 1

    def test_wf2q_proportional_service(self):
        queue = PacketFairQueue([0.75, 0.25], discipline=Discipline.WF2Q)
        served = queue.schedule(backlogged_packets(2, 16))
        totals = flow_service(served, horizon=16.0)
        assert totals[0] / totals[1] == pytest.approx(3.0, rel=0.3)

    def test_vftf_prefers_small_packets_of_equal_start(self):
        queue = PacketFairQueue([0.5, 0.5])
        packets = [Packet(0, 4.0, 0.0), Packet(1, 1.0, 0.0)]
        served = queue.schedule(packets)
        assert served[0][0].flow == 1  # smaller virtual finish first


class TestGpsReference:
    def test_single_flow_serves_sequentially(self):
        gps = GpsServer([1.0])
        packets = [Packet(0, 2.0, 0.0), Packet(0, 3.0, 0.0)]
        assert gps.finish_times(packets) == pytest.approx([2.0, 5.0])

    def test_two_equal_backlogged_flows_halve_rate(self):
        gps = GpsServer([0.5, 0.5])
        packets = [Packet(0, 1.0, 0.0), Packet(1, 1.0, 0.0)]
        # Both drain at rate 1/2 → both finish at t=2.
        assert gps.finish_times(packets) == pytest.approx([2.0, 2.0])

    def test_idle_arrival_starts_immediately(self):
        gps = GpsServer([0.5, 0.5])
        packets = [Packet(0, 1.0, 5.0)]
        assert gps.finish_times(packets) == pytest.approx([6.0])

    @given(
        lengths=st.lists(st.floats(0.1, 4.0), min_size=2, max_size=12),
    )
    @settings(max_examples=30, deadline=None)
    def test_wfq_finishes_within_one_max_packet_of_gps(self, lengths):
        """The classic WFQ bound: packetized finish time exceeds the
        GPS finish time by at most one maximum packet length."""
        packets = [
            Packet(flow=i % 2, length=length, arrival=0.0)
            for i, length in enumerate(lengths)
        ]
        gps = GpsServer([0.5, 0.5]).finish_times(packets)
        queue = PacketFairQueue([0.5, 0.5])
        served = queue.schedule(packets)
        finish_by_packet = {id(p): end for p, _, end in served}
        max_len = max(lengths)
        for packet, gps_finish in zip(packets, gps):
            assert finish_by_packet[id(packet)] <= gps_finish + max_len + 1e-6
