"""Network fair queuing — the paper's Section 2.3 background, executable.

The FQ memory scheduler derives from packet fair-queuing theory.  This
module implements that substrate directly:

* :class:`GpsServer` — the idealized *generalized processor sharing*
  fluid server: during any interval, every backlogged flow is served
  simultaneously in proportion to its share.
* :class:`PacketFairQueue` — a packetized approximation using the
  virtual start/finish times of Equations 1 and 2::

      S_i^k = max(a_i^k, F_i^{k-1})
      F_i^k = S_i^k + L_i^k / φ_i

  with either earliest-virtual-finish-time-first (WFQ-style) or
  earliest-virtual-start-time-first service order.

It lives with the tests because nothing in the simulator runs it: it
is the GPS reference that fairness checks compare against, and a
property-testing target in its own right — the classic fair-queuing
bounds (per-flow service within one maximum packet of GPS, throughput
proportional to shares) are asserted in ``test_netfq.py``.
"""

from __future__ import annotations

import enum
import itertools
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Sequence, Tuple


@dataclass(frozen=True)
class Packet:
    """One unit of work for a flow.

    Attributes:
        flow: Flow index.
        length: Service requirement in units of link capacity·time.
        arrival: Arrival time at the server.
    """

    flow: int
    length: float
    arrival: float

    def __post_init__(self) -> None:
        if self.length <= 0:
            raise ValueError(f"packet length must be positive, got {self.length}")
        if self.arrival < 0:
            raise ValueError(f"arrival must be >= 0, got {self.arrival}")


class Discipline(enum.Enum):
    """Packet service orders from the fair-queuing literature.

    The paper's §2.3 discusses prioritizing by virtual finish time
    (WFQ-style, the memory scheduler's choice) or by virtual start
    time (VirtualClock-style).  WF²Q+ (Bennett & Zhang, the paper's
    reference [1]) additionally restricts service to *eligible*
    packets — those whose GPS service has already begun — which bounds
    how far any flow can run ahead of its fluid share.
    """

    VIRTUAL_FINISH_TIME = "vftf"
    VIRTUAL_START_TIME = "vstf"
    WF2Q = "wf2q"


class GpsServer:
    """Idealized fluid GPS server (Parekh & Gallager).

    Serves all backlogged flows simultaneously in proportion to their
    shares; used as the fairness reference for the packetized queue.
    """

    def __init__(self, shares: Sequence[float]):
        if not shares or any(s <= 0 for s in shares):
            raise ValueError("shares must be positive and non-empty")
        self.shares = list(shares)

    def finish_times(self, packets: Sequence[Packet]) -> List[float]:
        """Fluid completion time of each packet (in input order).

        Simulates the fluid system event by event: between events, each
        backlogged flow drains at rate share/(sum of backlogged shares).
        """
        remaining: List[float] = [0.0] * len(self.shares)
        order = sorted(range(len(packets)), key=lambda i: packets[i].arrival)
        finish = [0.0] * len(packets)
        pending = [(packets[i].arrival, i) for i in order]
        now = 0.0
        idx = 0
        # Map (flow → FIFO of packet indices) with fluid service.
        fifo: Dict[int, Deque[int]] = {f: deque() for f in range(len(self.shares))}

        def backlogged() -> List[int]:
            return [f for f in range(len(self.shares)) if fifo[f]]

        while idx < len(pending) or backlogged():
            active = backlogged()
            next_arrival = pending[idx][0] if idx < len(pending) else None
            if not active:
                now = next_arrival
            else:
                total_share = sum(self.shares[f] for f in active)
                # Time until the head packet of some flow drains.
                drain = min(
                    remaining[f] * total_share / self.shares[f] for f in active
                )
                if next_arrival is not None and next_arrival < now + drain:
                    elapsed = next_arrival - now
                    for f in active:
                        remaining[f] -= elapsed * self.shares[f] / total_share
                    now = next_arrival
                else:
                    for f in active:
                        remaining[f] -= drain * self.shares[f] / total_share
                    now += drain
                    for f in active:
                        if fifo[f] and remaining[f] <= 1e-12:
                            done = fifo[f].popleft()
                            finish[done] = now
                            remaining[f] = (
                                packets[fifo[f][0]].length if fifo[f] else 0.0
                            )
                    continue
            while idx < len(pending) and pending[idx][0] <= now + 1e-12:
                _, i = pending[idx]
                flow = packets[i].flow
                fifo[flow].append(i)
                if len(fifo[flow]) == 1:
                    remaining[flow] = packets[i].length
                idx += 1
        return finish


class PacketFairQueue:
    """Packetized fair queue over a unit-capacity link (Equations 1–2)."""

    def __init__(
        self,
        shares: Sequence[float],
        discipline: Discipline = Discipline.VIRTUAL_FINISH_TIME,
    ):
        if not shares or any(s <= 0 for s in shares):
            raise ValueError("shares must be positive and non-empty")
        if sum(shares) > 1.0 + 1e-9:
            raise ValueError("shares must sum to at most one")
        self.shares = list(shares)
        self.discipline = discipline
        #: F_i^{k-1} per flow.
        self._last_finish = [0.0] * len(shares)
        self._seq = itertools.count()

    def schedule(self, packets: Sequence[Packet]) -> List[Tuple[Packet, float, float]]:
        """Serve ``packets``; returns (packet, start_service, end_service).

        Uses a real clock (like the memory scheduler): virtual times
        equal arrival times stamped on the wall clock, so flows that
        consumed excess service in the past are penalized.
        """
        for packet in packets:
            if not 0 <= packet.flow < len(self.shares):
                raise ValueError(f"unknown flow {packet.flow}")
        # Tag each packet with its virtual start/finish time on arrival.
        tagged: List[Tuple[float, float, int, Packet]] = []
        for packet in sorted(packets, key=lambda p: (p.arrival, next(self._seq))):
            share = self.shares[packet.flow]
            start = max(packet.arrival, self._last_finish[packet.flow])
            finish = start + packet.length / share
            self._last_finish[packet.flow] = finish
            tagged.append((start, finish, next(self._seq), packet))

        if self.discipline is Discipline.VIRTUAL_START_TIME:
            def key(entry):
                return (entry[0], entry[2])
        else:  # VFTF and WF2Q both order by virtual finish time.
            def key(entry):
                return (entry[1], entry[2])

        # Non-preemptive service: repeatedly pick, among arrived
        # packets, the one with the smallest key.  Under WF²Q+ only
        # *eligible* packets (virtual start <= system virtual time) may
        # be chosen; the virtual time advances with delivered work and
        # jumps to the earliest start tag when nothing is eligible.
        now = 0.0
        virtual_time = 0.0
        waiting = list(tagged)
        served: List[Tuple[Packet, float, float]] = []
        while waiting:
            arrived = [e for e in waiting if e[3].arrival <= now + 1e-12]
            if not arrived:
                now = min(e[3].arrival for e in waiting)
                continue
            if self.discipline is Discipline.WF2Q:
                virtual_time = max(virtual_time, min(e[0] for e in arrived))
                candidates = [e for e in arrived if e[0] <= virtual_time + 1e-12]
            else:
                candidates = arrived
            chosen = min(candidates, key=key)
            waiting.remove(chosen)
            start_service = max(now, chosen[3].arrival)
            end_service = start_service + chosen[3].length
            served.append((chosen[3], start_service, end_service))
            now = end_service
            virtual_time += chosen[3].length
        return served

    def reset(self) -> None:
        """Forget all per-flow history."""
        self._last_finish = [0.0] * len(self.shares)


def flow_service(
    served: Sequence[Tuple[Packet, float, float]], horizon: float
) -> Dict[int, float]:
    """Total service each flow received up to ``horizon``."""
    totals: Dict[int, float] = {}
    for packet, start, end in served:
        got = max(0.0, min(end, horizon) - min(start, horizon))
        totals[packet.flow] = totals.get(packet.flow, 0.0) + got
    return totals
