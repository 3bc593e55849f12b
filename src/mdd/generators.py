"""Deterministic instance generators: pairing-model regular graphs, G(n,p)
random graphs, and random set systems meeting the reduction preconditions.
"""
from __future__ import annotations

import numbers
import random

from .errors import InputError, PreconditionError
from .graph import Graph, is_int
from .reductions import SetSystem

#: Samples drawn before a generator gives up with PreconditionError.
_MAX_ATTEMPTS = 5000

#: Smallest degree for which generate_random_regular skips the pairing
#: model: an attempt yields a simple graph with probability about
#: exp(-(k^2 - 1)/4), 1.6e-4 at k = 6, so its attempts are nearly all wasted.
_STEGER_WORMALD_MIN_DEGREE = 6


def generate_random_regular(n: int, k: int, seed: int) -> Graph:
    """Random simple k-regular graph via the pairing model.

    Shuffles n*k half-edge stubs and pairs them consecutively; restarts on a
    self-loop or parallel edge.  After _MAX_ATTEMPTS restarts, and from the
    start for k >= _STEGER_WORMALD_MIN_DEGREE, it runs Steger and Wormald's
    algorithm instead, drawing from the same generator.  Deterministic per
    seed.  An n or k that is not an int (a bool or a float among them)
    raises InputError, and sizes that admit no k-regular graph (n < 1,
    k < 0, k >= n or n*k odd) raise PreconditionError.
    """
    if not (is_int(n) and is_int(k)):
        raise InputError("n and k must be integers")
    if n < 1 or k < 0 or k >= n or (n * k) % 2 != 0:
        raise PreconditionError(
            f"no {k}-regular graph on {n} vertices (need 0 <= k < n, n*k even)")
    rng = random.Random(seed)
    stubs = [v for v in range(n) for _ in range(k)]
    for _ in range(_MAX_ATTEMPTS if k < _STEGER_WORMALD_MIN_DEGREE else 0):
        rng.shuffle(stubs)
        seen = set()
        pairs = iter(stubs)
        for u, v in zip(pairs, pairs):
            # One int per pair: it hashes faster than a (u, v) tuple.
            key = u * n + v if u < v else v * n + u
            if u == v or key in seen:
                break
            seen.add(key)
        else:
            pairs = iter(stubs)
            return _graph(n, sorted((u, v) if u < v else (v, u)
                                    for u, v in zip(pairs, pairs)))
    for _ in range(_MAX_ATTEMPTS):
        edges = _steger_wormald(n, k, rng)
        if edges is not None:
            return _graph(n, sorted(edges))
    raise PreconditionError(
        f"failed to produce a simple {k}-regular graph on {n} vertices")


def _graph(n: int, edges: list) -> Graph:
    """The graph on n vertices with `edges`, pairs (u, v) with u < v < n,
    sorted and distinct, built without Graph(n, edges)'s per-edge checks.
    Each neighbour set gets its members in the order Graph(n, edges) adds
    them, so it iterates in the same order as the checked graph's."""
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return Graph._unchecked([frozenset(s) for s in adj])


def _steger_wormald(n: int, k: int, rng: random.Random):
    """One run of Steger and Wormald, "Generating random regular graphs
    quickly" (1999): join two uniformly random free stubs whenever they lie
    on distinct non-adjacent vertices, until no stub is free (returns the
    edge set) or no free pair can be joined (returns None)."""
    free = [v for v in range(n) for _ in range(k)]
    adj = [set() for _ in range(n)]
    while free:
        i, j = rng.randrange(len(free)), rng.randrange(len(free))
        u, v = free[i], free[j]
        if u == v or v in adj[u]:
            ends = set(free)
            if all(b == a or b in adj[a] for a in ends for b in ends):
                return None
            continue
        for index in sorted((i, j), reverse=True):
            free[index] = free[-1]
            free.pop()
        adj[u].add(v)
        adj[v].add(u)
    return {(u, v) for u in range(n) for v in adj[u] if u < v}


def generate_random_cubic(n: int, seed: int) -> Graph:
    return generate_random_regular(n, 3, seed)


def generate_gnp(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi G(n, p), deterministic per seed.  An n that is not an
    int >= 0, or a p that is a bool or not a real number in [0, 1], raises
    InputError."""
    if (not is_int(n, 0) or isinstance(p, bool)
            or not isinstance(p, numbers.Real) or not 0 <= p <= 1):
        raise InputError("need an integer n >= 0 and a number p in [0, 1]")
    rng = random.Random(seed)
    # Pairs are drawn in (u, v) order, u < v, so the list comes out sorted.
    return _graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                      if rng.random() < p])


def generate_random_setsystem(r: int, t: int, seed: int) -> SetSystem:
    """Random set system with r elements and t sets satisfying the
    preconditions of both bipartite constructions: r <= t, every element
    missing from at least one set, every set missing at least one element.
    An r or t that is not an int (a bool or a float among them) raises
    InputError, and sizes outside 2 <= r <= t raise PreconditionError.
    """
    if not (is_int(r) and is_int(t)):
        raise InputError("r and t must be integers")
    if r < 2 or t < 2 or r > t:
        # r = 1 would force every (non-empty) set to contain the element,
        # violating the occurrence bound.
        raise PreconditionError("need 2 <= r <= t")
    rng = random.Random(seed)
    for _ in range(_MAX_ATTEMPTS):
        family = [frozenset(rng.sample(range(r), rng.randint(1, r - 1)))
                  for _ in range(t)]
        union = set().union(*family)
        if union != set(range(r)):
            continue
        occ = [sum(1 for f in family if x in f) for x in range(r)]
        if max(occ) <= t - 1:
            return SetSystem(r, tuple(family))
    raise PreconditionError(
        f"failed to sample a valid set system with r={r}, t={t}")
