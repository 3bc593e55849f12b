"""The package's search-tree oracle against the subset enumeration in
reference_exact.py: the identical DeletionSet, or the same MDDError type,
in both weight modes and for both objectives, on G(n, q) and random regular
graphs with unit weights, weights 1-9 and weights that include
UNDELETABLE.  The search gives the same outcome on an instance and on its
`dualize`, at every budget, because it builds the same tree on both.
`kregular_min_exact` gives the same set as the enumeration
on random regular graphs.  The reference k-regular witness is checked on
small graphs.

Each comparison gives both sides a budget equal to the number of subsets
the enumeration checks, so the search must also never visit more nodes
than there are subsets: its branches part the supersets of a node, so no
set is visited twice.

Derandomized, so every run checks the same examples; a failure is shrunk
to a small counterexample.
"""
import sys

from hypothesis import given, settings, strategies as st

from mdd import (Graph, Instance, MDDError, Objective, OracleConfig,
                 UNDELETABLE, WeightMode, brute_force_optimum, dualize,
                 generate_gnp, generate_random_regular, is_feasible,
                 kregular_min_exact)

import reference_exact
from testkit import complete, complete_bipartite

EXAMPLES = settings(derandomize=True, max_examples=500, deadline=None)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except MDDError as exc:
        return type(exc)


def _deletable(inst):
    return [v for v in range(inst.graph.n)
            if v != inst.p and inst.weight(v) != UNDELETABLE]


def _regular(draw, max_n):
    k = draw(st.integers(1, 6))
    n = draw(st.integers(k + 1, max_n))
    n += n * k % 2
    return generate_random_regular(n, k, draw(st.integers(0, 10**6)))


@st.composite
def graphs(draw):
    if draw(st.booleans()):
        return generate_gnp(draw(st.integers(1, 12)),
                            draw(st.sampled_from([0.1, 0.2, 0.3, 0.5, 0.7, 0.9])),
                            draw(st.integers(0, 10**6)))
    return _regular(draw, 12)


@st.composite
def instances(draw):
    g = draw(graphs())
    weights = draw(st.sampled_from(["unit", "integer", "undeletable"]))
    if weights == "unit":
        weights = None
    elif weights == "integer":
        weights = draw(st.lists(st.integers(1, 9), min_size=g.n, max_size=g.n))
    else:
        weights = draw(st.lists(st.one_of(st.integers(1, 9), st.just(UNDELETABLE)),
                                min_size=g.n, max_size=g.n))
    return Instance(g, draw(st.integers(0, g.n - 1)), weights,
                    draw(st.sampled_from(list(Objective))))


@EXAMPLES
@given(instances(), st.sampled_from(list(WeightMode)))
def test_oracle_matches_subset_enumeration(inst, mode):
    cfg = OracleConfig(weight_mode=mode, budget=2 ** len(_deletable(inst)))
    assert (_outcome(brute_force_optimum, inst, cfg)
            == _outcome(reference_exact._enumerate, inst, cfg))


@EXAMPLES
@given(instances())
def test_oracle_is_self_dual(inst):
    # The Min fixing set of a violator on G is its Max fixing set on the
    # complement, so even the budget edge falls on the same node.
    dual = dualize(inst)
    for mode in WeightMode:
        for budget in (2 ** i for i in range(len(_deletable(inst)) + 1)):
            cfg = OracleConfig(weight_mode=mode, budget=budget)
            assert (_outcome(brute_force_optimum, inst, cfg)
                    == _outcome(brute_force_optimum, dual, cfg))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.data())
def test_kregular_min_exact_matches_subset_enumeration(data):
    g = _regular(data.draw, 14)
    inst = Instance(g, data.draw(st.integers(0, g.n - 1)))
    assert kregular_min_exact(inst) == reference_exact._enumerate(
        inst, OracleConfig(budget=sys.maxsize))


def test_witness_c5():
    inst = Instance(Graph.cycle(5), 0)
    w = reference_exact.kregular_feasible_witness(inst)
    assert w.vertices == frozenset({1, 4})
    assert is_feasible(inst, w)


def test_witness_k33_hits_bound():
    g = complete_bipartite(3, 3)
    inst = Instance(g, 0)
    w = reference_exact.kregular_feasible_witness(inst)
    # N(p) plus the two twins on p's own side: 2k-1 = 5 vertices
    assert w.vertices == frozenset({1, 2, 3, 4, 5})
    assert w.size == 5
    assert is_feasible(inst, w)


def test_witness_k4():
    inst = Instance(complete(4), 0)
    w = reference_exact.kregular_feasible_witness(inst)
    assert w.vertices == frozenset({1, 2, 3})
