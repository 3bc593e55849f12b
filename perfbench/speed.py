"""Host speed reference for the benchmark's timings.

On a shared virtual machine the same call runs up to 1.9 times slower for
stretches of several seconds, and both wall and CPU time follow.  So the
benchmark times a fixed calibration kernel between solver calls and scales
each measured time to a reference speed:

    scaled = measured * REFERENCE_S / kernel time around the call

The kernel is benchmark code, a max-degree greedy deletion on a fixed sparse
graph in the same pure-Python style as the solver (set and dict operations,
small function calls), so it does not change when the solver does: a solver
that gets slower still reads slower, while a host that gets slower reads the
same.  REFERENCE_S is what the kernel takes on a 2-vCPU virtual machine
(CPython 3.11) in its fast stretches, so scaled times read as seconds on that
machine at that speed.
"""
from __future__ import annotations

import random
import time

REFERENCE_S = 0.0002
KERNEL_REPEATS = 3     # a sample is the fastest of this many kernel runs


def _graph(n=60, edge_prob=0.1, seed=20250101):
    rng = random.Random(seed)
    adj = [set() for _ in range(n)]
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < edge_prob:
                adj[u].add(v)
                adj[v].add(u)
    return adj


_ADJ = _graph()


def kernel(adj=_ADJ):
    """Delete a vertex of maximum remaining degree until none is left."""
    alive = set(range(len(adj)))
    degree = {v: len(adj[v]) for v in alive}
    total = 0
    while alive:
        v = max(alive, key=degree.__getitem__)
        alive.discard(v)
        for u in adj[v] & alive:
            degree[u] -= 1
        total += degree[v]
    return total


def sample():
    """The kernel's time now: the fastest of KERNEL_REPEATS runs, in s."""
    best = float("inf")
    for _ in range(KERNEL_REPEATS):
        start = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - start)
    return best


def scale(measured, before, after):
    """`measured` seconds at the reference speed, given kernel samples taken
    just before and just after the measured interval."""
    return measured * REFERENCE_S * 2 / (before + after)
