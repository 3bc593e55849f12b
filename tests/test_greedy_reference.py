"""The package's greedy subroutines against the reference in
reference_greedy.py: identical vertex sets, or InfeasibleError on both
sides, on G(n, q) and random regular graphs with EXEMPT, negative and small
caps, weights that include UNDELETABLE, and forbidden sets.

Derandomized, so every run checks the same examples; a failure is shrunk
to a small counterexample.
"""
from hypothesis import given, settings, strategies as st

from mdd import (EXEMPT, FDepProblem, InfeasibleError, UNDELETABLE,
                 dominating_set_approx, f_dependent_delete, generate_gnp,
                 generate_random_regular)

import reference_greedy

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


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except InfeasibleError:
        return InfeasibleError


@EXAMPLES
@given(st.data())
def test_f_dependent_delete_matches_reference(data):
    g = data.draw(graphs())
    caps = tuple(data.draw(st.lists(CAPS, min_size=g.n, max_size=g.n)))
    weights = tuple(data.draw(st.lists(WEIGHTS, min_size=g.n, max_size=g.n)))
    prob = FDepProblem(g, caps, weights)
    assert (_outcome(f_dependent_delete, prob)
            == _outcome(reference_greedy.f_dependent_delete, prob))


@EXAMPLES
@given(st.data())
def test_dominating_set_approx_matches_reference(data):
    g = data.draw(graphs())
    weights = tuple(data.draw(st.lists(WEIGHTS, min_size=g.n, max_size=g.n)))
    forbidden = data.draw(st.sets(st.integers(0, g.n - 1), max_size=g.n // 3))
    assert (_outcome(dominating_set_approx, g, forbidden, weights)
            == _outcome(reference_greedy.dominating_set_approx, g, forbidden,
                        weights))
