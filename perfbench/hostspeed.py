"""Fixed reference work: how fast this host runs Python right now.

    python3 perfbench/hostspeed.py

Prints the seconds the work took, interpreter start excluded.  The host
is a few cores of a shared machine whose speed drifts by 15-25% over
seconds to minutes, more than the benchmark's bounds.  ``run.py`` runs
this probe before and after every sample and scales the sample's host
times by ``REFERENCE_S`` over the mean of the two probes, so a sample
taken while the host is slow is not read as a slower program.

The work is the benchmark's own and must never change: it is what makes
runs of different commits comparable.  Like the simulator's hot loop it
is pure-Python attribute access, dict updates and heap operations over
an object graph larger than the CPU caches, so it slows when they do.
"""

from __future__ import annotations

import heapq
import time

#: Objects in the graph: tens of MB, like a long simulation's state.
NODES = 200_000
STEPS = 400_000


class Node:
    __slots__ = ("value", "link")

    def __init__(self, value: int):
        self.value = value
        self.link = None


def work() -> int:
    nodes = [Node(i) for i in range(NODES)]
    for i, node in enumerate(nodes):
        node.link = nodes[(i * 7919 + 13) % NODES]
    counts = {}
    heap = []
    node = nodes[0]
    total = 0
    for step in range(STEPS):
        node = node.link
        node.value = (node.value * 31 + step) & 0xFFFFF
        key = node.value & 4095
        counts[key] = counts.get(key, 0) + 1
        heapq.heappush(heap, (node.value, step))
        if len(heap) > 256:
            total += heapq.heappop(heap)[0]
    return total + len(counts)


def main() -> None:
    start = time.perf_counter()
    work()
    print(time.perf_counter() - start)


if __name__ == "__main__":
    main()
