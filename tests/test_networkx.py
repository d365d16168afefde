"""Differentials against networkx on random flag complexes: full cycles,
maximal cliques, BFS distances and geodesics.  networkx is a test-time
reference only; the tests skip where it is not installed."""

import pytest
from hypothesis import given, settings, strategies as st

import systolic as S
from systolic.verdict import FullCycle

nx = pytest.importorskip("networkx")

_COMPLEXES = st.builds(
    S.random_flag_complex,
    st.integers(min_value=1, max_value=14),
    st.floats(min_value=0.1, max_value=0.8),
    st.integers(min_value=0, max_value=5_000),
)


def _graph(g):
    out = nx.Graph()
    out.add_nodes_from(g.vertices)
    out.add_edges_from(g.edges())
    return out


@given(_COMPLEXES, st.integers(min_value=4, max_value=9))
@settings(max_examples=80, deadline=None)
def test_full_cycles_match_chordless_cycles(g, max_len):
    want = {
        FullCycle.canonical(tuple(c))
        for c in nx.chordless_cycles(_graph(g), length_bound=max_len)
        if len(c) >= 4
    }
    got = S.enumerate_full_cycles(g, max_len)
    assert len(got) == len(want)
    assert set(got) == want


@given(_COMPLEXES)
@settings(max_examples=80, deadline=None)
def test_maximal_cliques_match_find_cliques(g):
    want = sorted(tuple(sorted(c)) for c in nx.find_cliques(_graph(g)))
    assert g.maximal_cliques() == want


@given(_COMPLEXES)
@settings(max_examples=80, deadline=None)
def test_distances_match_shortest_path_lengths(g):
    graph = _graph(g)
    for v in g.vertices:
        assert g.oracle.distances_from(v) == nx.single_source_shortest_path_length(graph, v)


@given(_COMPLEXES, st.data())
@settings(max_examples=80, deadline=None)
def test_geodesics_match_all_shortest_paths(g, data):
    graph = _graph(g)
    u = data.draw(st.sampled_from(g.vertices))
    v = data.draw(st.sampled_from(g.vertices))
    got = list(g.oracle.geodesics(u, v))
    if nx.has_path(graph, u, v):
        assert got == sorted(tuple(p) for p in nx.all_shortest_paths(graph, u, v))
        assert g.oracle.geodesic(u, v) == got[0]
    else:
        assert got == [] and g.oracle.geodesic(u, v) is None
