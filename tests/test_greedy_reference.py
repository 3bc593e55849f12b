"""The package's greedy subroutines against the reference in
reference_greedy.py: identical vertex sets, or InfeasibleError on both
sides (with the same message where no ids are renumbered), on G(n, q) and
random regular graphs with EXEMPT, negative and small caps, weights that
include UNDELETABLE, forbidden sets and removed sets (each greedy on G with
a removed set equals the reference on the induced subgraph of the other
vertices).
EXEMPT is the reference's sentinel; the package caps that vertex at its own
degree, which must change nothing.
The log n branching algorithm gives the same trace as the reference branch
loop, which builds an induced subgraph per branch, and the cubic
algorithm's final-degree-2 candidates equal the reference ones, which run
the greedy on the induced subgraph G*.

Derandomized, so every run checks the same examples; a failure is shrunk
to a small counterexample.
"""
import pytest
from hypothesis import given, settings, strategies as st

from mdd import (FDepProblem, InapplicableError, InfeasibleError,
                 Instance, MDDError, Objective, UNDELETABLE, build_gstar,
                 dissociation_delete, dominating_set_approx, dualize,
                 f_dependent_delete, generate_gnp, generate_random_cubic,
                 generate_random_regular, mdd_max_cubic_trace,
                 mdd_max_logn_trace)

import reference_greedy
from reference_greedy import EXEMPT, CapProblem

EXAMPLES = settings(derandomize=True, max_examples=400, deadline=None)

WEIGHTS = st.sampled_from([1, 1, 2, 3, 5, UNDELETABLE])
CAPS = st.sampled_from([EXEMPT, -1, 0, 1, 2, 3])


@st.composite
def graphs(draw):
    seed = draw(st.integers(0, 10**6))
    if draw(st.booleans()):
        n = draw(st.integers(1, 25))
        return generate_gnp(n, draw(st.sampled_from([0.1, 0.2, 0.3, 0.5, 0.8])),
                            seed)
    k = draw(st.integers(1, 4))
    n = draw(st.integers(k + 1, 24))
    n += n * k % 2
    return generate_random_regular(n, k, seed)


def _package_caps(g, caps):
    return tuple(g.degree(v) if c is EXEMPT else c for v, c in enumerate(caps))


def _outcome(fn, *args, message=False):
    """fn's result, or the type of the MDDError it raises, with the error's
    text too if `message` (for calls whose ids are not renumbered)."""
    try:
        return fn(*args)
    except MDDError as exc:
        return (type(exc), str(exc)) if message else type(exc)


@EXAMPLES
@given(st.data())
def test_f_dependent_delete_matches_reference(data):
    g = data.draw(graphs())
    caps = tuple(data.draw(st.lists(CAPS, min_size=g.n, max_size=g.n)))
    weights = tuple(data.draw(st.lists(WEIGHTS, min_size=g.n, max_size=g.n)))
    assert (_outcome(f_dependent_delete,
                     FDepProblem(g, _package_caps(g, caps), weights),
                     message=True)
            == _outcome(reference_greedy.f_dependent_delete,
                        CapProblem(g, caps, weights), message=True))


@EXAMPLES
@given(st.data())
def test_dominating_set_approx_matches_reference(data):
    g = data.draw(graphs())
    weights = tuple(data.draw(st.lists(WEIGHTS, min_size=g.n, max_size=g.n)))
    forbidden = data.draw(st.sets(st.integers(0, g.n - 1), max_size=g.n // 3))
    # The package forbids a pick only through an UNDELETABLE weight.
    forbidding = tuple(UNDELETABLE if v in forbidden else w
                       for v, w in enumerate(weights))
    assert (_outcome(dominating_set_approx, g, forbidding, message=True)
            == _outcome(reference_greedy.dominating_set_approx, g, forbidden,
                        weights, message=True))


@EXAMPLES
@given(st.data())
def test_removed_set_matches_reference_on_induced_subgraph(data):
    g = data.draw(graphs())
    removed = data.draw(st.frozensets(st.integers(0, g.n - 1),
                                      max_size=g.n // 2))
    caps = tuple(data.draw(st.lists(CAPS, min_size=g.n, max_size=g.n)))
    weights = tuple(data.draw(st.lists(WEIGHTS, min_size=g.n, max_size=g.n)))
    sub, remap = g.induced_subgraph(v for v in range(g.n) if v not in removed)
    expected = _outcome(reference_greedy.f_dependent_delete, CapProblem(
        sub, tuple(caps[v] for v in remap), tuple(weights[v] for v in remap)))
    if expected is not InfeasibleError:
        expected = frozenset(remap[i] for i in expected)
    prob = FDepProblem(g, _package_caps(g, caps), weights)
    assert _outcome(f_dependent_delete, prob, removed) == expected


@EXAMPLES
@given(st.data())
def test_removed_set_dominating_matches_reference_on_induced_subgraph(data):
    g = data.draw(graphs())
    removed = data.draw(st.frozensets(st.integers(0, g.n - 1),
                                      max_size=g.n // 2))
    weights = tuple(data.draw(st.lists(WEIGHTS, min_size=g.n, max_size=g.n)))
    sub, remap = g.induced_subgraph(v for v in range(g.n) if v not in removed)
    expected = _outcome(reference_greedy.dominating_set_approx, sub, (),
                        tuple(weights[v] for v in remap))
    if expected is not InfeasibleError:
        expected = frozenset(remap[i] for i in expected)
    assert _outcome(dominating_set_approx, g, weights, removed) == expected


@st.composite
def max_instances(draw):
    """Max instances, weighted or not, with UNDELETABLE weights, and the
    duals of Min instances."""
    n = draw(st.integers(1, 14))
    g = generate_gnp(n, draw(st.sampled_from([0.2, 0.3, 0.5, 0.7])),
                     draw(st.integers(0, 10**6)))
    weights = draw(st.one_of(
        st.none(), st.lists(WEIGHTS, min_size=n, max_size=n)))
    inst = Instance(g, draw(st.integers(0, n - 1)), weights,
                    draw(st.sampled_from([Objective.MAX, Objective.MIN])))
    return inst if inst.objective is Objective.MAX else dualize(inst)


@EXAMPLES
@given(max_instances())
def test_logn_trace_matches_reference_branch_step(inst):
    assert (_outcome(mdd_max_logn_trace, inst)
            == _outcome(reference_greedy.logn_trace, inst, None))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.integers(2, 20), st.integers(0, 10**6))
def test_cubic_dissociation_candidates_match_reference(half, seed):
    g = generate_random_cubic(2 * half, seed)
    for p in range(g.n):
        inst = Instance(g, p, None, Objective.MAX)
        expected = []
        for x in sorted(g.adj[p]):
            reference = reference_greedy.dissociation_candidate(inst, x)
            if reference is None:
                with pytest.raises(InapplicableError):
                    build_gstar(inst, x)
                continue
            fixed = build_gstar(inst, x)
            removed = fixed | g.closed_neighborhood(p)
            assert fixed | dissociation_delete(g, removed=removed) == reference
            expected.append(reference)
        trace = mdd_max_cubic_trace(inst)
        assert [size for label, size in trace.candidate_sizes
                if label == "dissociation"] == [len(c) for c in expected]
        if trace.case == "dissociation":
            assert trace.solution.vertices in expected
