"""The package's constructions and its two solution maps against the eight
kind-bound mappers in reference_reductions.py.

Both sides build the same instance with the same roles from small graphs,
cubic graphs and set systems.  `project_solution` gives the same outcome as
the reference backward mapper on every subset of V \\ {p}, on {p} and on an
out-of-range vertex; `lift_solution` gives the same outcome as the
reference forward mapper on every subset of the source's ids, alone and
with -1 or the first id past the end added.  An outcome is the value
returned, or the exception type and message.

Derandomized, so every run checks the same examples; a failure is shrunk
to a small counterexample.
"""
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from mdd import (Graph, ReductionArtifact, SetSystem, generate_gnp,
                 generate_random_cubic, lift_solution,
                 mindom_cubic_to_mddmax_cubic, mindom_to_mddmin,
                 project_solution, setcover_to_mddmax_bip,
                 setcover_to_mddmin_bip)
from mdd.fileio import serialize_instance

import reference_reductions as ref

EXAMPLES = settings(derandomize=True, max_examples=60, deadline=None)

#: kind -> (package builder, reference builder, reference forward map,
#: reference backward map).
KINDS = {
    "mddmin": (mindom_to_mddmin, ref.mindom_to_mddmin,
               ref.domset_to_mddmin_solution, ref.mddmin_solution_to_domset),
    "mddmin-bip": (setcover_to_mddmin_bip, ref.setcover_to_mddmin_bip,
                   ref.cover_to_mddmin_bip_solution,
                   ref.mddmin_bip_solution_to_cover),
    "mddmax-bip": (setcover_to_mddmax_bip, ref.setcover_to_mddmax_bip,
                   ref.cover_to_mddmax_bip_solution,
                   ref.mddmax_bip_solution_to_cover),
    "cubic": (mindom_cubic_to_mddmax_cubic, ref.mindom_cubic_to_mddmax_cubic,
              ref.domset_to_mddmax_cubic_solution,
              ref.mddmax_cubic_solution_to_domset),
}


def _outcome(fn, *args):
    try:
        value = fn(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return type(value), value


@st.composite
def set_systems(draw, max_r, max_t):
    r = draw(st.integers(1, max_r))
    t = draw(st.integers(1, max_t))
    # SetSystem refuses an empty set.
    family = [set(draw(st.sets(st.integers(0, r - 1), min_size=1,
                               max_size=r)))
              for _ in range(t)]
    for x in range(r):  # cover the universe
        if not any(x in f for f in family):
            family[draw(st.integers(0, t - 1))].add(x)
    return SetSystem(r, family)


@st.composite
def sources(draw, kind):
    seed = draw(st.integers(0, 10**6))
    if kind == "mddmin":
        source = generate_gnp(draw(st.integers(1, 4)),
                              draw(st.sampled_from([0.0, 0.3, 0.6, 1.0])), seed)
    elif kind == "cubic":
        source = (generate_random_cubic(draw(st.sampled_from([4, 6, 8])), seed)
                  if draw(st.integers(0, 4)) else Graph.cycle(4))
    elif kind == "mddmin-bip":
        source = draw(set_systems(3, 3))
    else:
        source = draw(set_systems(3, 4))
    return source


@pytest.mark.parametrize("kind", sorted(KINDS))
@EXAMPLES
@given(data=st.data())
def test_maps_match_reference(kind, data):
    source = data.draw(sources(kind))
    build, ref_build, ref_lift, ref_project = KINDS[kind]
    built, ref_built = _outcome(build, source), _outcome(ref_build, source)
    if ref_built[0] is not ref.ReductionArtifact:
        assert built == ref_built
        return
    assert built[0] is ReductionArtifact
    art, ref_art = built[1], ref_built[1]
    assert art.kind == ref_art.kind == kind
    assert serialize_instance(art.instance) == serialize_instance(ref_art.instance)
    assert art.roles == ref_art.roles

    n, p = art.instance.graph.n, art.instance.p
    others = [v for v in range(n) if v != p]
    deletions = [s for size in range(len(others) + 1)
                 for s in itertools.combinations(others, size)]
    for s in deletions + [(p,), (n,)]:
        assert (_outcome(project_solution, art, s)
                == _outcome(ref_project, ref_art, s))

    bound = source.n if isinstance(source, Graph) else source.num_sets
    for size in range(bound + 1):
        for ids in itertools.combinations(range(bound), size):
            for extra in ((), (-1,), (bound,)):
                solution = set(ids) | set(extra)
                assert (_outcome(lift_solution, art, solution)
                        == _outcome(ref_lift, ref_art, solution))


@st.composite
def padded_sources(draw, kind):
    """Sources large enough for the round-robin pads to wrap: G(n, q) with
    n up to 16, cubic graphs up to 20 vertices, and set systems with r <= 10
    and t <= 14 (the draws include empty sets with r = t)."""
    seed = draw(st.integers(0, 10**6))
    if kind == "mddmin":
        return generate_gnp(draw(st.integers(1, 16)),
                            draw(st.sampled_from([0.0, 0.3, 0.6, 1.0])), seed)
    if kind == "cubic":
        return generate_random_cubic(draw(st.sampled_from(range(4, 21, 2))),
                                     seed)
    return draw(set_systems(10, 14))


def _padding_invariants(art, source):
    """The degrees each construction's padding promises."""
    g, p = art.instance.graph, art.instance.p
    degree = [g.degree(v) for v in range(g.n)]
    if art.kind == "mddmin":
        assert all(degree[v] == source.n for v in range(source.n))
    elif art.kind != "cubic":
        r, t = source.universe_size, source.num_sets
        assert degree[p] == t
        assert all(degree[i] == t for i in range(r))
        if art.kind == "mddmin-bip":
            assert all(degree[r + j] == max(t, 1 + r - len(f))
                       for j, f in enumerate(source.family))
        else:
            assert all(degree[v] < t for v in range(r, g.n) if v != p)


@pytest.mark.parametrize("kind", sorted(KINDS))
@settings(derandomize=True, max_examples=150, deadline=None)
@given(data=st.data())
def test_constructions_match_reference_where_pads_wrap(kind, data):
    source = data.draw(padded_sources(kind))
    build, ref_build = KINDS[kind][:2]
    built, ref_built = _outcome(build, source), _outcome(ref_build, source)
    if ref_built[0] is not ref.ReductionArtifact:
        assert built == ref_built
        return
    art, ref_art = built[1], ref_built[1]
    assert serialize_instance(art.instance) == serialize_instance(ref_art.instance)
    assert art.roles == ref_art.roles
    _padding_invariants(art, source)
