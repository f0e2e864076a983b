"""A fixed pure-Python job that measures how fast the host runs right now.

The machines this benchmark runs on are shared: the same simulation cell
can take 2.0 s in one minute and 3.5 s a few minutes later, with no
change in the code.  Medians inside a run remove short stalls, not such
slow drift.  So each run also times this job before every repetition,
and the end-to-end times are reported at a nominal host speed::

    speed = NOMINAL_S / median(reference times of the run)
    reported = measured * speed ** ELASTICITY

How much a workload's host time follows the job's differs by workload:
over runs spanning a drift, the fitted elasticity was about 0.95 on
``fattree_perm`` and 0.55 on ``websearch_openloop``.  Recomputing twelve
sets of ten runs of the three single-process workloads with exponents
0, 0.5, 0.75 and 1, the worst spread of any end-to-end time was 0.27,
0.20, 0.19 and 0.24: full correction over-corrects some workloads, none
leaves every median exposed to the drift (the unscaled ``fattree_perm``
median ranged from 2.4 s to 3.4 s between sets), and 0.75 did best.

The job runs in one process, so it stands only for workloads that
simulate in one; every workload of the benchmark does.

The job belongs to the benchmark, not to the program: it never changes
with the program, so a faster program still reads faster.  It mixes the
interpreter work the simulator does — method calls on slotted objects,
a binary heap of tuples, dict stores, integer arithmetic.
"""

from __future__ import annotations

import heapq
import time

#: The job's host time on the machine the benchmark was tuned on, in a
#: quiet period; the scale to which end-to-end times are normalized.
NOMINAL_S = 0.15
#: The share of the host-speed correction applied (see the module doc).
ELASTICITY = 0.75


class _Node:
    __slots__ = ("index", "count", "peers")

    def __init__(self, index: int) -> None:
        self.index = index
        self.count = 0
        self.peers: list = []

    def hop(self, heap: list, now: float, hops: int) -> None:
        self.count += 1
        if hops > 0:
            peer = self.peers[(self.count + hops) % len(self.peers)]
            heapq.heappush(heap, (now + 1e-6 * (1 + self.count % 5), peer.index, hops - 1, peer))


def reference_s() -> float:
    """Host seconds one run of the fixed job takes now."""
    started = time.perf_counter()
    total = 0
    for i in range(600_000):
        total += i * i % 7
    nodes = [_Node(i) for i in range(256)]
    for i, node in enumerate(nodes):
        node.peers = [nodes[(i * 7 + k) % 256] for k in range(1, 9)]
    heap = [(i * 1e-7, i, 2500, nodes[i]) for i in range(40)]
    heapq.heapify(heap)
    table = {}
    fired = 0
    while heap:
        now, _, hops, node = heapq.heappop(heap)
        node.hop(heap, now, hops)
        fired += 1
        if fired % 16 == 0:
            table[(fired % 997, hops)] = node.index
    if total < 0 or len(table) == 0:
        raise AssertionError("reference job computed nothing")
    return time.perf_counter() - started


__all__ = ["NOMINAL_S", "reference_s"]
