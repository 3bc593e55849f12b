"""The package's greedy subroutines against the reference in
reference_greedy.py: identical vertex sets, or InfeasibleError on both
sides (with the same message where no ids are renumbered), on G(n, q) and
random regular graphs with EXEMPT, negative and small caps, weights that
include UNDELETABLE, forbidden sets and removed sets (each greedy on G with
a removed set equals the reference on the induced subgraph of the other
vertices).  One problem reused for many removed sets, in any order,
gives what a fresh problem gives, and the log n loop's unchecked problem
for each caps is the checked problem built with them, views included.  A
problem builds each view on first read and keeps it.  Weights include
large coprime ones, so gain/weight ratios are compared exactly far beyond
small weights.
EXEMPT is the reference's sentinel; the package caps that vertex at its own
degree, which must change nothing.
The log n loop's feasibility step says exactly whether the greedy returns,
and its lower bound never exceeds the greedy's weight or, on small graphs,
the optimum; a bound equal to a weight does not exceed it, and the
knapsack bound prunes a pinned case that pricing every vertex at the best
ratio does not.  Both steps answer the same for a removed set as a
frozenset and as the sorted tuple the loop passes.
A greedy given a budget returns its set, or None exactly when that set
weighs more than the budget.
The log n branching algorithm gives the same trace as the reference branch
loop, which builds an induced subgraph per branch, also on G(40-60, 0.1)
instances where the bound prunes branches and budgeted greedy calls stop
early, and on pinned instances where a branch ties the best weight and
wins on size or sorted tuple.  The cubic
algorithm's final-degree-2 candidates that run equal the reference ones,
which run the greedy on the induced subgraph G*, and a branch stops (by
the counting bound or on its budget) exactly where its reference
candidate is larger than the best before it; the cubic
solution and case are those of a reference that runs every candidate to
the end.

Derandomized, so every run checks the same examples; a failure is shrunk
to a small counterexample.
"""
import copy
import dataclasses
import functools
import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from mdd import (FDepProblem, InfeasibleError,
                 Instance, MDDError, PreconditionError, Objective, UNDELETABLE, approx, build_L,
                 cubic,
                 build_gstar, Graph, dissociation_delete,
                 dominating_set_approx, dualize, f_dependent_delete,
                 generate_gnp, generate_random_cubic, generate_random_regular,
                 mdd_max_cubic_trace, mdd_max_logn_trace, subroutines)
from mdd.subroutines import (_outweighs, _returns, _scale,
                             _unchecked_problem)

import bruteforce
import reference_greedy
from reference_greedy import EXEMPT, CapProblem
from testkit import star

EXAMPLES = settings(derandomize=True, max_examples=400, deadline=None)

WEIGHTS = st.sampled_from([1, 1, 2, 3, 5, 999_999_937, 10**9 + 7, 2**61 - 1,
                           UNDELETABLE])
CAPS = st.sampled_from([EXEMPT, -1, 0, 1, 2, 3])


@st.composite
def graphs(draw, max_n=25):
    seed = draw(st.integers(0, 10**6))
    if draw(st.booleans()):
        n = draw(st.integers(1, max_n))
        return generate_gnp(n, draw(st.sampled_from([0.1, 0.2, 0.3, 0.5, 0.8])),
                            seed)
    k = draw(st.integers(1, 4))
    n = draw(st.integers(k + 1, max_n - 1))
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


VIEWS = ("_start", "_crowded", "_sums")


def _state(prob):
    """vars(prob) with every view built, so state comparisons also compare
    the views that are built on first read."""
    for view in VIEWS:
        getattr(prob, view)
    return vars(prob)


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


def _reference_without(g, caps, weights, removed):
    """The reference greedy on G - removed, mapped back to G's ids."""
    sub, remap = g.induced_subgraph(v for v in range(g.n) if v not in removed)
    expected = _outcome(reference_greedy.f_dependent_delete, CapProblem(
        sub, tuple(caps[v] for v in remap), tuple(weights[v] for v in remap)))
    if expected is not InfeasibleError:
        expected = frozenset(remap[i] for i in expected)
    return expected


@EXAMPLES
@given(st.data())
def test_removed_set_matches_reference_on_induced_subgraph(data):
    g = data.draw(graphs())
    removed = data.draw(st.frozensets(st.integers(0, g.n - 1),
                                      max_size=g.n // 2))
    caps = tuple(data.draw(st.lists(CAPS, min_size=g.n, max_size=g.n)))
    weights = tuple(data.draw(st.lists(WEIGHTS, min_size=g.n, max_size=g.n)))
    prob = FDepProblem(g, _package_caps(g, caps), weights)
    assert (_outcome(f_dependent_delete, prob, removed)
            == _reference_without(g, caps, weights, removed))


@EXAMPLES
@given(st.data())
def test_budgeted_greedy_returns_none_exactly_above_the_budget(data):
    """With a budget the greedy returns the set it returns without one, or
    None exactly when that set weighs more than the budget: at the set's
    weight, one either side of it, and a random budget.  Where the greedy
    raises InfeasibleError, a budgeted call raises it too or returns
    None."""
    g = data.draw(graphs())
    removed = data.draw(st.frozensets(st.integers(0, g.n - 1),
                                      max_size=g.n // 2))
    caps = tuple(data.draw(st.lists(CAPS, min_size=g.n, max_size=g.n)))
    weights = tuple(data.draw(st.lists(WEIGHTS, min_size=g.n, max_size=g.n)))
    prob = FDepProblem(g, _package_caps(g, caps), weights)
    unbudgeted = _outcome(f_dependent_delete, prob, removed, message=True)
    if isinstance(unbudgeted, frozenset):
        weight = _weight(prob, unbudgeted)
        budgets = [weight - 1, weight, weight + 1,
                   data.draw(st.integers(-2, 2 * weight + 2))]
    else:
        budgets = [data.draw(st.integers(-2, 2**62))]
    for budget in budgets:
        got = _outcome(functools.partial(f_dependent_delete, budget=budget),
                       prob, removed, message=True)
        if isinstance(unbudgeted, frozenset):
            assert got == (None if weight > budget else unbudgeted)
        else:
            assert got in (None, unbudgeted)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.data())
def test_reused_problem_matches_fresh_problem_and_reference(data):
    """One problem serves many removed sets, each twice, the second pass in
    a shuffled order: every call equals a fresh problem's call and the
    reference on G - removed, and no call changes the problem's state."""
    g = data.draw(graphs())
    caps = tuple(data.draw(st.lists(CAPS, min_size=g.n, max_size=g.n)))
    weights = tuple(data.draw(st.lists(WEIGHTS, min_size=g.n, max_size=g.n)))
    removed_sets = data.draw(st.lists(
        st.frozensets(st.integers(0, g.n - 1), max_size=g.n // 2),
        min_size=1, max_size=6))
    order = removed_sets + data.draw(st.permutations(removed_sets))
    prob = FDepProblem(g, _package_caps(g, caps), weights)
    state = copy.deepcopy(_state(prob))
    for removed in order:
        fresh = FDepProblem(g, _package_caps(g, caps), weights)
        got = _outcome(f_dependent_delete, prob, removed, message=True)
        assert got == _outcome(f_dependent_delete, fresh, removed, message=True)
        assert (_outcome(f_dependent_delete, prob, removed)
                == _reference_without(g, caps, weights, removed))
        assert vars(prob) == state


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.data())
def test_recapped_problem_is_the_fresh_problem(data):
    """The log n loop builds one problem per size, unchecked, from one
    scale of the weights: each equals, start state included, the checked
    problem with its caps, and building the next leaves the problems built
    before it as they were."""
    g = data.draw(graphs())
    old, new = (tuple(data.draw(st.lists(st.integers(-1, 4), min_size=g.n,
                                         max_size=g.n))) for _ in range(2))
    weights = tuple(data.draw(st.lists(WEIGHTS, min_size=g.n, max_size=g.n)))
    checked = FDepProblem(g, old, weights)
    scale = _scale(weights)
    prob = _unchecked_problem(g, old, weights, scale)
    assert prob == checked
    assert _state(prob) == _state(checked)
    recapped = _unchecked_problem(g, new, weights, scale)
    assert recapped == FDepProblem(g, new, weights)
    assert _state(recapped) == _state(FDepProblem(g, new, weights))
    assert vars(prob) == _state(FDepProblem(g, old, weights))
    assert vars(checked) == _state(FDepProblem(g, old, weights))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.data())
def test_unit_weight_problems_are_the_checked_problems(data):
    """Without weights, FDepProblem.uniform and dominating_set_approx build
    their problem unchecked: both give what explicit unit weights, checked,
    give, start state included."""
    g = data.draw(graphs())
    f = data.draw(st.integers(-1, 4))
    unit = (1,) * g.n
    assert _state(FDepProblem.uniform(g, f)) == _state(
        FDepProblem.uniform(g, f, unit))
    removed = data.draw(st.sets(st.integers(0, g.n - 1)))
    assert (dominating_set_approx(g, removed=removed)
            == dominating_set_approx(g, unit, removed))


@pytest.mark.parametrize("build", [
    FDepProblem,
    lambda g, cap, weights: _unchecked_problem(g, cap, weights,
                                               _scale(weights)),
], ids=["checked", "unchecked"])
def test_views_are_built_on_first_read_and_kept(build):
    """A new problem holds no view.  _returns builds only _crowded, so a
    log n size whose branches all fail it builds no heap; _outweighs and
    f_dependent_delete build the start state once, and later calls reuse
    the same objects."""
    # Center 0 is undeletable and over its cap 0 by 3; leaves 1-3 weigh
    # 1, 2 and 3.
    g = star(3)
    prob = build(g, (0, 5, 5, 5), (UNDELETABLE, 1, 2, 3))
    assert not set(VIEWS) & set(vars(prob))
    assert _returns(prob, (1,))
    assert set(VIEWS) & set(vars(prob)) == {"_crowded"}
    crowded = prob._crowded
    assert not _outweighs(prob, (1,), 5)
    assert _outweighs(prob, (1,), 2)
    start, sums = vars(prob)["_start"], vars(prob)["_sums"]
    assert f_dependent_delete(prob, {1}) == {2, 3}
    assert f_dependent_delete(prob) == {1, 2, 3}
    assert _returns(prob, (2,))
    for view, built in zip(VIEWS, (start, crowded, sums)):
        assert vars(prob)[view] is built

    fresh = build(g, (0, 5, 5, 5), (UNDELETABLE, 1, 2, 3))
    assert f_dependent_delete(fresh, {1}) == {2, 3}
    start = vars(fresh)["_start"]
    assert not _outweighs(fresh, (1,), 5)
    assert vars(fresh)["_start"] is start


def test_problem_identity_is_graph_cap_and_weights():
    caps = (1, 0, 2, 1, 0, 1, 2, 1)
    weights = (1, 2, UNDELETABLE, 3, 2**61 - 1, 1, 5, 1)
    used = FDepProblem(generate_gnp(8, 0.5, 3), caps, weights)
    f_dependent_delete(used, {0, 5})
    fresh = FDepProblem(generate_gnp(8, 0.5, 3), caps, weights)
    assert [f.name for f in dataclasses.fields(FDepProblem)] == [
        "graph", "cap", "weights"]
    assert used == fresh and hash(used) == hash(fresh)
    assert repr(used) == repr(fresh) == (
        f"FDepProblem(graph={used.graph!r}, cap={caps!r}, weights={weights!r})")
    assert used != FDepProblem(used.graph, (0,) + caps[1:], weights)


def _tie_problem(a, b, scale, n=5):
    """a has gain 2 at weight 2 * scale, b gain 1 at weight scale: equal
    ratios.  Undeletable c (over by 1) is adjacent to a and b, undeletable
    d (over by 1) to a and to e (weight 3 * scale).  Picking a first fixes
    both, so the result is {a}; picking b first leaves d over, and then a
    (ratio 1/2) beats e (1/3), so the result is {a, b}.  c, d and e are the
    three least other ids; any further vertex is isolated, with cap 0."""
    c, d, e = [v for v in range(n) if v not in (a, b)][:3]
    cap, weights = [0] * n, [1] * n
    for v, k, w in ((a, 2, 2 * scale), (b, 1, scale), (c, 1, UNDELETABLE),
                    (d, 1, UNDELETABLE), (e, 1, 3 * scale)):
        cap[v], weights[v] = k, w
    return FDepProblem(Graph(n, [(a, c), (a, d), (b, c), (e, d)]),
                       tuple(cap), tuple(weights))


@pytest.mark.parametrize("scale", [1, 999_999_937, 2**61 - 1])
@pytest.mark.parametrize("a, b, expected", [(0, 1, {0}), (1, 0, {0, 1})])
def test_equal_ratios_at_different_weights_go_to_lower_id(a, b, expected,
                                                          scale):
    prob = _tie_problem(a, b, scale)
    assert f_dependent_delete(prob) == expected
    assert reference_greedy.f_dependent_delete(prob) == expected


@pytest.mark.parametrize("scale", [1, 999_999_937, 2**61 - 1])
@pytest.mark.parametrize("n", [5, 8])
def test_equal_ratios_at_the_top_of_the_id_range_go_to_lower_id(n, scale):
    # A heap key carries its id as key % n, so the largest ids sit right
    # below the next gain * scale step: a tie with n - 1 must still go to
    # the lower id, also against id 0 at the other end of the range.
    for a, b in ((n - 1, n - 2), (n - 2, n - 1), (n - 1, 0), (0, n - 1)):
        prob = _tie_problem(a, b, scale, n)
        expected = {a} if a < b else {a, b}
        assert f_dependent_delete(prob) == expected
        assert reference_greedy.f_dependent_delete(prob) == expected
        heap_order = [key % n for key in prob._start[-1]]
        assert heap_order[:2] == sorted((a, b)) and len(heap_order) == 3


def _refusal(v):
    """The greedy's one refusal, naming v as the vertex left over its cap."""
    return (InfeasibleError, f"vertex {v} stays over its cap: every vertex "
            "that could bring it under is undeletable")


def test_infeasible_when_every_helpful_vertex_is_removed_or_undeletable():
    # Center 0 of a 3-leaf star is over its cap by 3 and only leaf 1 is
    # deletable: picked, or removed (its start-state heap entry goes stale),
    # it lowers the excess by 1, and no helpful vertex is left.
    g = star(3)
    prob = FDepProblem(g, (0, 5, 5, 5), (UNDELETABLE, 1, UNDELETABLE,
                                         UNDELETABLE))
    error = _refusal(0)
    assert _outcome(f_dependent_delete, prob, message=True) == error
    assert _outcome(f_dependent_delete, prob, {1}, message=True) == error
    assert _outcome(reference_greedy.f_dependent_delete, prob,
                    message=True) == error
    sub, _ = g.induced_subgraph([0, 2, 3])
    assert _outcome(reference_greedy.f_dependent_delete, CapProblem(
        sub, (0, 5, 5), (UNDELETABLE,) * 3), message=True) == error


@pytest.mark.parametrize("n", [0, 1])
def test_empty_and_single_vertex_problems(n):
    # The greedy reads an id back from its heap key as key % n, so it must
    # never do so on n = 0, where the heap is always empty.  On one vertex,
    # cap -1 makes it over by 1 and cap 0 or more leaves it free.
    g = Graph(n, [])
    for f in (-1, 0, 1):
        for weights in ((1,) * n, (UNDELETABLE,) * n):
            prob = FDepProblem.uniform(g, f, weights)
            expected = _outcome(reference_greedy.f_dependent_delete, prob,
                                message=True)
            assert _outcome(f_dependent_delete, prob, message=True) == expected
            assert f_dependent_delete(prob, range(n)) == frozenset()
            if weights == (1,) * n:
                assert _state(prob) == _state(FDepProblem.uniform(g, f))
            if not _returns(prob, ()):
                assert expected == _refusal(0)
                continue
            for budget in (-1, 0, 1):
                over = _weight(prob, expected) > budget
                assert _outweighs(prob, (), budget) == over
                assert f_dependent_delete(prob, budget=budget) == (
                    None if over else expected)
            assert not _outweighs(prob, range(n), 0)
    for weights in (None, (1,) * n, (UNDELETABLE,) * n):
        assert (_outcome(dominating_set_approx, g, weights, message=True)
                == _outcome(reference_greedy.dominating_set_approx, g, (),
                            weights, message=True))
        assert dominating_set_approx(g, weights, range(n)) == frozenset()


def _settle_problem(data, g):
    """A problem on g with caps -1..4 and weights that include UNDELETABLE
    and 2**61 - 1, and 1-6 removed sets for it."""
    caps = tuple(data.draw(st.lists(st.integers(-1, 4), min_size=g.n,
                                    max_size=g.n)))
    weights = tuple(data.draw(st.lists(WEIGHTS, min_size=g.n, max_size=g.n)))
    removed_sets = data.draw(st.lists(
        st.frozensets(st.integers(0, g.n - 1), max_size=g.n // 2),
        min_size=1, max_size=6))
    return FDepProblem(g, caps, weights), removed_sets


def _weight(prob, vertices):
    return sum(prob.weights[v] for v in vertices)


@EXAMPLES
@given(st.data())
def test_feasibility_test_says_whether_the_greedy_returns(data):
    """One problem per graph, several removed sets: the test passes exactly
    when f_dependent_delete returns, on G(n, q) and regular graphs, cubic
    ones among them.  A refusal names the least UNDELETABLE vertex outside
    `removed` with more UNDELETABLE neighbors outside `removed` than its
    cap."""
    g = data.draw(st.one_of(graphs(), st.builds(
        generate_random_cubic, st.integers(2, 12).map(lambda h: 2 * h),
        st.integers(0, 10**6))))
    prob, removed_sets = _settle_problem(data, g)
    for removed in removed_sets:
        outcome = _outcome(f_dependent_delete, prob, removed, message=True)
        returns = isinstance(outcome, frozenset)
        assert _returns(prob, removed) == returns
        assert _returns(prob, tuple(sorted(removed))) == returns
        if not returns:
            undeletable = {v for v, w in enumerate(prob.weights)
                           if w == UNDELETABLE and v not in removed}
            assert outcome == _refusal(min(
                v for v in undeletable
                if len(g.adj[v] & undeletable) > prob.cap[v]))


@EXAMPLES
@given(st.data())
def test_bound_never_exceeds_the_greedy_weight(data):
    g = data.draw(graphs())
    prob, removed_sets = _settle_problem(data, g)
    for removed in removed_sets:
        deleted = _outcome(f_dependent_delete, prob, removed)
        if deleted is not InfeasibleError:
            for form in (removed, tuple(sorted(removed))):
                assert not _outweighs(prob, form, _weight(prob, deleted))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.data())
def test_bound_never_exceeds_the_optimum_on_small_graphs(data):
    """On n <= 10, against the brute-force optimum of the degree-cap
    problem on G - removed."""
    g = data.draw(graphs(max_n=10))
    prob, removed_sets = _settle_problem(data, g)
    for removed in removed_sets:
        sub, remap = g.induced_subgraph(v for v in range(g.n)
                                        if v not in removed)
        best = bruteforce.min_fdep_weight(CapProblem(
            sub, tuple(prob.cap[v] for v in remap),
            tuple(prob.weights[v] for v in remap)))
        for form in (removed, tuple(sorted(removed))):
            assert _outweighs(prob, form, -1)
            if best is not None:
                assert not _outweighs(prob, form, best)


@pytest.mark.parametrize("cap, weights, bound", [
    # Center 0 is over its cap 0 by 2 and each leaf clears 1 at weight 3.
    (0, (UNDELETABLE, 3, 3), 6),
    # Center 0 is over its cap 1 by 1; lcm 6, and leaf 1 clears it at 2.
    (1, (UNDELETABLE, 2, 3), 2),
])
def test_bound_equal_to_the_best_weight_does_not_exceed_it(cap, weights,
                                                          bound):
    prob = FDepProblem(star(2), (cap, 5, 5), weights)
    assert _weight(prob, f_dependent_delete(prob)) == bound
    assert not _outweighs(prob, (), bound)
    assert _outweighs(prob, (), bound - 1)


def test_bound_prices_each_vertex_at_its_own_ratio():
    """Center 0 is over its cap 1 by 3.  Leaf 1 clears 1 at weight 1, the
    other leaves 1 each at weight 3.  Pricing all 3 at the best ratio gives
    a bound of 3, which does not exceed a budget of 6; the knapsack takes
    leaf 1 and then 2 at weight 3 each, so its bound 7 does."""
    prob = FDepProblem(star(4), (1, 5, 5, 5, 5),
                       (UNDELETABLE, 1, 3, 3, 3))
    assert _weight(prob, f_dependent_delete(prob)) == 7
    assert _outweighs(prob, (), 6)
    assert not _outweighs(prob, (), 7)


def _pruning_instances():
    """G(40-60, 0.1) Max instances with |L| >= 5, p the first such vertex,
    with unit weights, weights 1-5, and weights 1-5 with one member of L
    and one other vertex UNDELETABLE."""
    for seed in range(6):
        n = 40 + 7 * seed % 21
        g = generate_gnp(n, 0.1, seed)
        p, members = next(
            (p, members) for p in range(n)
            for members in [build_L(Instance(g, p, None, Objective.MAX)).members]
            if len(members) >= 5)
        rng = random.Random(seed)
        yield Instance(g, p, None, Objective.MAX)
        weights = [rng.randint(1, 5) for _ in range(n)]
        yield Instance(g, p, weights, Objective.MAX)
        others = [v for v in range(n) if v != p and v not in members]
        for v in (rng.choice(members), rng.choice(others)):
            weights[v] = UNDELETABLE
        yield Instance(g, p, weights, Objective.MAX)


def test_pruned_logn_trace_matches_reference_branch_step(monkeypatch):
    """Where the bound prunes and the budget stops the greedy: the trace is
    the reference's, which runs the greedy to the end on every branch, and
    on some instance the greedy runs on fewer branches than are feasible.
    Over all the instances the greedy runs 262 times of 789 feasible
    branches (356 with a bound that prices every vertex at the best start
    ratio), and 244 of those runs stop early, over the budget."""
    calls = []
    stopped = []

    def counting(prob, removed=(), *, budget=None):
        calls.append(removed)
        deleted = f_dependent_delete(prob, removed, budget=budget)
        if deleted is None:
            stopped.append(removed)
        return deleted

    monkeypatch.setattr(approx, "f_dependent_delete", counting)
    pruned = feasible = 0
    for inst in _pruning_instances():
        before = len(calls)
        trace = _outcome(mdd_max_logn_trace, inst)
        assert trace == _outcome(reference_greedy.logn_trace, inst, None)
        if not isinstance(trace, type):
            feasible += trace.branches_feasible
            pruned += len(calls) - before < trace.branches_feasible
    assert pruned
    assert (len(calls), feasible, len(stopped)) == (262, 789, 244)


def test_logn_checks_ids_only_where_the_greedy_runs(monkeypatch):
    """The settling steps take K unchecked, so each branch's ids are
    checked once, by f_dependent_delete, and only where the greedy runs."""
    check = subroutines._ids
    checks = []
    calls = []

    def counting_check(bound, vertices, what="vertex"):
        checks.append(vertices)
        return check(bound, vertices, what)

    def counting_delete(prob, removed=(), *, budget=None):
        calls.append(removed)
        return f_dependent_delete(prob, removed, budget=budget)

    monkeypatch.setattr(subroutines, "_ids", counting_check)
    monkeypatch.setattr(approx, "f_dependent_delete", counting_delete)
    for inst in _pruning_instances():
        checks.clear()
        calls.clear()
        trace = _outcome(mdd_max_logn_trace, inst)
        assert calls and len(checks) == len(calls)
        if not isinstance(trace, type):
            assert len(calls) < trace.branches_total


@pytest.mark.parametrize("n, q, seed, p, weights, solution, chosen_k", [
    # Unit weights: K = (0,) gives {0, 1}, which ties K = ()'s {1, 3} on
    # weight and size and wins on the sorted tuple.
    (6, 0.5, 79698, 5, None, (0, 1), (0,)),
    # K = (4,) gives {4, 5}, weight 9, which ties K = ()'s {0, 3, 5} on
    # weight and wins on size.
    (7, 0.5, 501900, 1, (4, 1, 4, 1, 5, 4, 5), (4, 5), (4,)),
])
def test_branch_that_ties_the_best_weight_still_runs(n, q, seed, p, weights,
                                                     solution, chosen_k):
    """The greedy's budget is the best weight less w(K), and a branch stops
    only when its set must weigh more: a branch whose set weighs exactly
    the best runs to the end and can win."""
    inst = Instance(generate_gnp(n, q, seed), p, weights, Objective.MAX)
    g = inst.graph
    incumbent = reference_greedy.branch_candidate(inst, set(), g.adj[p],
                                                  g.degree(p))
    assert inst.weight_of(incumbent) == inst.weight_of(solution)
    trace = mdd_max_logn_trace(inst)
    assert (trace.solution.vertices, trace.chosen_k) == (frozenset(solution),
                                                         chosen_k)
    assert trace == reference_greedy.logn_trace(inst, None)


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
    """Each final-degree-2 branch that runs the greedy gives the reference
    candidate, and a branch is stopped exactly when its reference candidate
    is larger than the smallest candidate before it (the full one, n - 1,
    to begin with), whether the counting bound settles it before the greedy
    or the greedy stops on its budget.  A branch with fixed set F and
    R = F | N[p] calls the greedy exactly when 2n - 5|R| <= 5(best - |F|)."""
    g = generate_random_cubic(2 * half, seed)
    calls = []

    def recording(prob, removed=(), *, budget=None):
        deleted = f_dependent_delete(prob, removed, budget=budget)
        if budget is not None:
            calls.append((frozenset(removed), deleted))
        return deleted

    for p in range(g.n):
        inst = Instance(g, p, None, Objective.MAX)
        branches = []  # (fixed, removed, reference candidate) per applicable x
        for x in sorted(g.adj[p]):
            reference = reference_greedy.dissociation_candidate(inst, x)
            if reference is None:
                y, z = sorted(g.adj[p] - {x})
                with pytest.raises(PreconditionError, match=(
                        f"^surviving neighbors {y} and {z} are adjacent; "
                        f"branch at x={x} does not apply$")):
                    build_gstar(inst, x)
                continue
            fixed = build_gstar(inst, x)
            removed = fixed | g.closed_neighborhood(p)
            assert fixed | dissociation_delete(g, removed=removed) == reference
            branches.append((fixed, removed, reference))
        calls.clear()
        with mock.patch.object(cubic, "f_dependent_delete", recording):
            trace = mdd_max_cubic_trace(inst)
        # The greedy calls come in branch order, one per branch that the
        # bound passes; a branch with no call was settled by the bound.
        best = min([g.n - 1] + [size for label, size in trace.candidate_sizes
                                if label == "domination"])
        ran, stopped = [], 0
        for fixed, removed, reference in branches:
            called = bool(calls) and calls[0][0] == removed
            assert called == (2 * g.n - 5 * len(removed)
                              <= 5 * (best - len(fixed)))
            if called:
                t = calls.pop(0)[1]
                assert (t is None) == (len(reference) > best)
                if t is not None:
                    ran.append(reference)
            else:
                t = None
                assert len(reference) > best
            stopped += t is None
            best = min(best, len(reference))
        assert calls == []
        listed = [size for label, size in trace.candidate_sizes
                  if label == "dissociation"]
        assert listed == [len(c) for c in ran]
        assert trace.stopped == stopped
        if trace.case == "dissociation":
            assert trace.solution.vertices in ran


def _cubic_corpus():
    """Every (graph, p) pair of generate_random_cubic(n, seed) for even n
    8-18 and seeds 0-24 (1,950 pairs), and p = 0, 40, ..., 160 on n = 200
    at seeds 0-2."""
    for n in range(8, 19, 2):
        for seed in range(25):
            g = generate_random_cubic(n, seed)
            yield from (Instance(g, p, None, Objective.MAX)
                        for p in range(n))
    for seed in range(3):
        g = generate_random_cubic(200, seed)
        yield from (Instance(g, p, None, Objective.MAX)
                    for p in range(0, 200, 40))


def test_budgeted_cubic_matches_every_branch_run_to_the_end():
    """The budget stops final-degree-2 branches, and the solution and case
    are those of the reference, which runs every candidate to the end."""
    stopped = 0
    for inst in _cubic_corpus():
        trace = mdd_max_cubic_trace(inst)
        assert ((trace.case, trace.solution.vertices)
                == reference_greedy.cubic_choice(inst))
        stopped += trace.stopped
    assert stopped
