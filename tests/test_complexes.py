import gc
import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

import systolic as S
from systolic import ComplexError, FacetComplex, FlagComplex

from _oracles import all_cliques, bfs_distance, first_nested_facets, floyd_warshall

INF = math.inf


def random_graph(n: int, p: float, seed: int) -> FlagComplex:
    return S.random_flag_complex(n, p, seed)


graph_params = st.tuples(
    st.integers(min_value=1, max_value=40),
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(min_value=0, max_value=10_000),
)


class TestFlagComplex:
    def test_construction_and_lookup(self):
        g = FlagComplex([0, 1, 2, 5], [(0, 1), (1, 2)])
        assert g.n_vertices == 4
        assert g.vertices == (0, 1, 2, 5)
        assert g.adjacent(0, 1) and not g.adjacent(0, 2)
        assert 5 in g and 3 not in g
        assert len(g.neighbors(5)) == 0

    def test_rejects_self_loop(self):
        with pytest.raises(ComplexError):
            FlagComplex([0, 1], [(0, 0)])

    def test_rejects_unknown_endpoint(self):
        with pytest.raises(ComplexError):
            FlagComplex([0, 1], [(0, 2)])

    def test_rejects_negative_vertex(self):
        with pytest.raises(ComplexError):
            FlagComplex([-1, 0], [])

    def test_edges_sorted_without_duplicates(self):
        g = FlagComplex([0, 1, 2], [(2, 1), (0, 1), (1, 2)])
        assert list(g.edges()) == [(0, 1), (1, 2)]
        assert g.n_edges == 2

    def test_span_preserves_ids_and_is_full(self, icosa):
        sub = icosa.span([0, 1, 2, 3])
        assert sub.vertices == (0, 1, 2, 3)
        for u in sub.vertices:
            for v in sub.vertices:
                if u < v:
                    assert sub.adjacent(u, v) == icosa.adjacent(u, v)

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_span_matches_the_checked_build(self, data):
        # against FlagComplex(S, edges) on random complexes and windows; an
        # inside neighbourhood is the ambient frozenset itself
        if data.draw(st.booleans()):
            g = random_graph(*data.draw(graph_params))
        else:
            g = S.triangular_lattice_window(data.draw(st.integers(1, 6)), 1)
        inside = data.draw(st.sets(st.sampled_from(g.vertices)))
        sub = g.span(inside)
        want = FlagComplex(inside, [(u, v) for u, v in g.edges() if u in inside and v in inside])
        assert type(sub) is FlagComplex and sub.symmetries == () and sub.margin == INF
        assert sub._adj == want._adj and list(sub._adj) == list(want._adj)
        assert sub.vertices == want.vertices
        assert sub.trusted_vertices == want.trusted_vertices
        for v in sub.vertices:
            assert (sub._adj[v] is g._adj[v]) == (g._adj[v] <= inside)
        if sub.vertices:
            v = data.draw(st.sampled_from(sub.vertices))
            assert sub.oracle.distances_from(v) == want.oracle.distances_from(v)
        unknown = g.n_vertices + data.draw(st.integers(0, 5))
        with pytest.raises(ComplexError, match=f"^span over unknown vertex {unknown}$"):
            g.span(sorted(inside) + [unknown])

    def test_span_refuses_ids_that_only_equal_a_vertex(self, icosa):
        for fake in (True, 2.0):
            with pytest.raises(ComplexError, match="vertex ids are non-negative integers"):
                icosa.span([fake, 3])

    def test_span_idempotent(self, icosa):
        sub = icosa.span([0, 1, 2, 6, 7])
        again = sub.span(sub.vertices)
        assert list(again.edges()) == list(sub.edges())

    def test_link_is_common_neighborhood(self, icosa):
        link = icosa.link((0,))
        assert link.vertices == (1, 2, 3, 4, 5)
        # the link of a vertex of the icosahedron is a pentagon
        assert all(len(link.neighbors(v)) == 2 for v in link.vertices)

    def test_link_of_edge(self, octa):
        link = octa.link((0, 2))
        assert link.vertices == (4, 5)
        assert not link.adjacent(4, 5)

    def test_link_rejects_non_clique(self, octa):
        with pytest.raises(ComplexError):
            octa.link((0, 1))  # antipodal, not an edge

    def test_common_neighbors(self, octa):
        assert octa.common_neighbors((0,)) == frozenset({2, 3, 4, 5})
        assert octa.common_neighbors((0, 2)) == frozenset({4, 5})

    @given(graph_params, st.data())
    @settings(max_examples=60, deadline=None)
    def test_cliques_match_brute_force(self, params, data):
        # in ascending lexicographic order, up to any size
        n, p, seed = params
        g = random_graph(min(n, 12), p, seed)
        max_size = data.draw(st.none() | st.integers(min_value=1, max_value=4))
        want = sorted(c for c in all_cliques(g) if max_size is None or len(c) <= max_size)
        assert list(g.cliques(max_size=max_size)) == want

    def test_maximal_cliques_octahedron(self, octa):
        mc = sorted(octa.maximal_cliques())
        assert len(mc) == 8  # the eight triangular faces
        assert all(len(c) == 3 for c in mc)

    def test_connected_components(self):
        g = FlagComplex([0, 1, 2, 3], [(0, 1), (2, 3)])
        comps = sorted(tuple(sorted(c)) for c in g.connected_components())
        assert comps == [(0, 1), (2, 3)]
        assert len(g.connected_components()) != 1


def _probes_per_vertex(radius: int) -> float:
    """Adjacency probes (membership tests and elements iterated) that
    listing the cliques of a window makes, per vertex."""
    probes = [0]

    class Probed(frozenset):
        def __contains__(self, v):
            probes[0] += 1
            return frozenset.__contains__(self, v)

        def __iter__(self):
            for v in frozenset.__iter__(self):
                probes[0] += 1
                yield v

    window = S.triangular_lattice_window(radius, 4)
    window._adj = {v: Probed(ns) for v, ns in window._adj.items()}
    for _ in window.cliques():
        pass
    return probes[0] / window.n_vertices


def test_clique_listing_grows_with_the_trusted_region():
    # a candidate list over every vertex would cost the square of the
    # vertex count: about 5 times more per vertex at radius 22 than at 10
    small, large = _probes_per_vertex(10), _probes_per_vertex(22)
    assert large <= 2 * small, (small, large)


class TestOnce:
    def test_result_lives_on_its_complex(self):
        a, b = S.octahedron(), S.octahedron()
        first = S.triangle_condition(a)
        assert S.triangle_condition(a) is first
        assert S.triangle_condition(b) is not first
        assert S.triangle_condition(b) == first

    def test_arguments_are_part_of_the_key(self):
        g = S.cone(S.cycle(5))
        assert S.is_locally_k_large(g, 5).is_yes
        assert S.is_locally_k_large(g, 6).is_no
        assert S.is_locally_k_large(g, 5).is_yes

    @pytest.mark.parametrize("spec", [(10, 0.1, 1), (12, 0.15, 1)])
    def test_an_error_is_raised_every_time_and_never_kept(self, spec):
        g = S.random_flag_complex(*spec)
        for _ in range(2):
            with pytest.raises(ComplexError, match="connected"):
                S.triangle_condition(g)
            with pytest.raises(ComplexError, match="connected"):
                S.sphere_domination_everywhere(g)
        # only the disconnection that both raised on is kept
        raised = {S.triangle_condition.__wrapped__, S.sphere_domination_everywhere.__wrapped__}
        assert raised.isdisjoint(f for f, *_ in g._memo)


CAPS = tuple(range(8))

# random flag complexes, disconnected ones included, and lattice windows
capped_targets = st.one_of(
    graph_params.map(lambda t: random_graph(min(t[0], 25), *t[1:])),
    st.integers(min_value=1, max_value=7).flatmap(
        lambda r: st.integers(min_value=1, max_value=r).map(
            lambda m: S.triangular_lattice_window(r, m)
        )
    ),
)


class TestDistances:
    @given(graph_params)
    @settings(max_examples=30, deadline=None)
    def test_bfs_matches_floyd_warshall(self, params):
        n, p, seed = params
        g = random_graph(min(n, 25), p, seed)
        fw = floyd_warshall(g)
        for u in g.vertices:
            for v in g.vertices:
                assert g.oracle.distance(u, v) == fw[(u, v)]

    @given(graph_params)
    @settings(max_examples=30, deadline=None)
    def test_metric_axioms(self, params):
        n, p, seed = params
        g = random_graph(n, p, seed)
        verts = g.vertices[:10]
        for u in verts:
            assert g.oracle.distance(u, u) == 0
            for v in verts:
                assert g.oracle.distance(u, v) == g.oracle.distance(v, u)
                for w in verts:
                    duv, dvw, duw = (
                        g.oracle.distance(u, v), g.oracle.distance(v, w), g.oracle.distance(u, w)
                    )
                    if duv != INF and dvw != INF:
                        assert duw <= duv + dvw

    @given(graph_params, st.integers(min_value=0, max_value=4), st.integers(min_value=0, max_value=3))
    @settings(max_examples=40, deadline=None)
    def test_ball_matches_floyd_warshall(self, params, small, step):
        n, p, seed = params
        g = random_graph(min(n, 25), p, seed)
        exact = floyd_warshall(g)
        o = g.oracle
        last = g.vertices[-1]
        for u in g.vertices[:5]:
            # a small ball first, then a larger one, then the whole component
            for r in (small, small + step, INF):
                table = o.ball(u, r)
                for v in g.vertices:
                    d = exact[(u, v)]
                    if d <= r and d != INF:
                        assert table[v] == d
                    if v in table:
                        assert table[v] == d  # farther entries are exact too
                d = exact[(u, last)]
                assert o.distance_capped(u, last, r) == (d if d <= r else INF)
            assert o.distances_from(u) == {v: d for v in g.vertices if (d := exact[(u, v)]) != INF}
            for v in g.vertices:
                assert o.distance(v, u, small) == exact[(v, u)]

    def test_ball_cache_keeps_bounded_and_small_complete_tables(self, window10):
        g = FlagComplex(window10.vertices, window10.edges())
        o = g.oracle
        base = window10.basepoint
        first = o.ball(base, 2)
        assert max(first.values()) == 2 and len(first) == 19
        assert o.ball(base, 1) is first  # a smaller radius is served from the cache
        whole = o.ball(base, INF)
        assert len(whole) == g.n_vertices
        assert o.ball(base, 3) is whole  # a complete table serves every radius

    def test_distance_capped(self, icosa):
        o = icosa.oracle
        assert o.distance_capped(0, 11, 3) == 3
        assert o.distance_capped(0, 11, 2) == INF  # beyond the cap
        assert o.distance_capped(0, 1, 5) == 1

    @given(capped_targets, st.data())
    @settings(max_examples=80, deadline=None)
    def test_distance_capped_matches_bfs(self, g, data):
        # finite caps first, on an oracle whose only table is a window's
        # basepoint ball; then INF, which caches complete tables, and the
        # finite caps again, now served from those tables
        o = g.oracle
        vertex = st.sampled_from(g.vertices)
        pairs = [(u, u) for u in data.draw(st.lists(vertex, max_size=2))]
        pairs += data.draw(st.lists(st.tuples(vertex, vertex), min_size=1, max_size=6))

        def check(caps):
            for u, v in pairs:
                d = bfs_distance(g, u, v)
                for cap in caps:
                    assert o.distance_capped(u, v, cap) == (d if d <= cap else INF)

        check(CAPS)
        check((INF,))
        check(CAPS)
        stranger = max(g.vertices) + 1
        for cap in (*CAPS, INF):
            for u, v in ((stranger, g.vertices[0]), (g.vertices[0], stranger)):
                with pytest.raises(ComplexError, match="unknown vertex"):
                    o.distance_capped(u, v, cap)

    def test_geodesic_is_lex_least(self, octa):
        # 0 -> 1 has four geodesics; the lex-least goes through 2
        assert octa.oracle.geodesic(0, 1) == (0, 2, 1)

    @given(graph_params)
    @settings(max_examples=25, deadline=None)
    def test_geodesic_validity(self, params):
        n, p, seed = params
        g = random_graph(min(n, 20), p, seed)
        verts = g.vertices
        for u in verts[:6]:
            for v in verts[:6]:
                path = g.oracle.geodesic(u, v)
                if g.oracle.distance(u, v) == INF:
                    assert path is None
                    continue
                assert path[0] == u and path[-1] == v
                assert len(path) - 1 == g.oracle.distance(u, v)
                assert all(g.adjacent(a, b) for a, b in zip(path, path[1:]))

    def test_eccentricity(self, icosa):
        assert icosa.eccentricity(0) == 3


class TestFacetsAndFlagness:
    def test_antichain_enforced(self):
        with pytest.raises(ComplexError):
            FacetComplex([(0, 1, 2), (0, 1)])

    @given(st.lists(st.lists(st.integers(min_value=0, max_value=7), min_size=1, max_size=4), min_size=1, max_size=12))
    @settings(max_examples=80, deadline=None)
    def test_nested_facet_message_names_first_pair(self, facets):
        nested = first_nested_facets([tuple(f) for f in facets])
        if nested is None:
            assert FacetComplex(facets).facets
        else:
            with pytest.raises(ComplexError) as exc:
                FacetComplex(facets)
            assert str(exc.value) == f"facet {nested[0]} is contained in facet {nested[1]}"

    def test_is_flag_yes(self):
        fc = FacetComplex([(0, 1, 2), (1, 2, 3)])
        assert S.is_flag(fc).is_yes

    def test_is_flag_hollow_triangle(self):
        fc = FacetComplex([(0, 1), (1, 2), (0, 2)])
        v = S.is_flag(fc)
        assert v.is_no
        assert v.witness == (0, 1, 2)

    def test_is_flag_reports_smallest_missing_clique(self):
        # hollow tetrahedron boundary made of triangles IS flag-violating at
        # the full 4-clique only
        fc = FacetComplex([(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])
        v = S.is_flag(fc)
        assert v.is_no
        assert v.witness == (0, 1, 2, 3)

    def test_is_flag_skips_cliques_no_smaller_than_the_witness(self):
        # the 2-skeleton of the 4-simplex: the 1-skeleton is K5, the first
        # missing clique is the tetrahedron 0123, and the 5-clique after it
        # cannot be smaller
        fc = FacetComplex(itertools.combinations(range(5), 3))
        v = S.is_flag(fc)
        assert v.is_no and v.witness == (0, 1, 2, 3)

    def test_is_flag_needs_every_maximal_clique(self):
        # the filled triangle 2 3 4 is a facet; the hollow one 0 1 2 is not
        fc = FacetComplex([(0, 1), (1, 2), (0, 2), (2, 3, 4)])
        v = S.is_flag(fc)
        assert v.is_no and v.witness == (0, 1, 2)

    @given(st.lists(st.sets(st.integers(min_value=0, max_value=7), min_size=1, max_size=5),
                    min_size=1, max_size=10))
    @settings(max_examples=150, deadline=None)
    def test_is_flag_matches_brute_force(self, sets):
        # the least clique by (size, vertices) that lies in no facet
        facets = [tuple(sorted(f)) for f in sets if not any(f < g for g in sets)]
        fc = FacetComplex(facets)
        missing = [c for c in all_cliques(fc.one_skeleton())
                   if not any(set(c) <= set(f) for f in facets)]
        want = min(missing, key=lambda c: (len(c), c), default=None)
        v = S.is_flag(fc)
        assert (v.is_yes, v.witness) == (want is None, want)

    def test_from_flag_roundtrip(self, octa):
        fc = FacetComplex.from_flag(octa)
        assert S.is_flag(fc).is_yes
        assert list(fc.one_skeleton().edges()) == list(octa.edges())

    def test_contains_simplex(self):
        fc = FacetComplex([(0, 1, 2)])
        assert fc.contains_simplex((0, 2))
        assert not fc.contains_simplex((0, 3))


class TestWindowView:
    def test_margin_bounds(self, window10):
        g = window10
        with pytest.raises(ComplexError):
            S.WindowView(g.vertices, g.edges(), window10.basepoint, 10, 0)
        with pytest.raises(ComplexError):
            S.WindowView(g.vertices, g.edges(), window10.basepoint, 10, 11)

    def test_trusted_set_is_inner_ball(self, window10):
        base = window10.basepoint
        g = window10
        for v in g.vertices:
            expected = g.oracle.distance(base, v) <= window10.radius - window10.margin
            assert (v in window10.trusted_vertices) == expected
        assert len(window10.trusted_vertices) == 1 + 3 * 6 * 7

    def test_trusted_distance_tagging(self, window10):
        # the trust rule: d(u, v) is trusted when u and v lie in the region
        # and v lies in ball(u, bound)
        g, region, bound = window10, window10.trusted_vertices, window10.margin
        base = window10.basepoint
        far = max(region, key=lambda v: g.oracle.distance(base, v))
        near = g.oracle.geodesic(base, far)[1]
        assert near in region and g.oracle.ball(base, bound).get(near, INF) <= bound
        assert g.oracle.distance(base, far) == 6  # value above the margin
        assert far in region and g.oracle.ball(base, bound).get(far, INF) > bound
        # an untrusted endpoint: its neighbors lie in its ball, but the
        # endpoint lies outside the region, so no distance from it is trusted
        boundary = next(v for v in g.vertices if v not in region)
        assert g.neighbors(boundary) <= g.oracle.ball(boundary, bound).keys()

    def test_stabilization_under_radius_growth(self):
        small = S.triangular_lattice_window(6, 3)
        large = S.triangular_lattice_window(8, 3)
        to_large = {
            i: large.id_of[c] for i, c in small.coord_of.items() if c in large.id_of
        }
        g_small, region_small, bound_small = small, small.trusted_vertices, small.margin
        g_large, region_large, bound_large = large, large.trusted_vertices, large.margin
        trusted = sorted(region_small)
        for u in trusted:
            assert to_large[u] in region_large
            ball_small = g_small.oracle.ball(u, bound_small)
            ball_large = g_large.oracle.ball(to_large[u], bound_large)
            for v in trusted:
                if u >= v or ball_small.get(v, INF) > bound_small:
                    continue
                # trusted in the small window, so trusted and equal in the large
                assert to_large[v] in region_large
                assert ball_large.get(to_large[v], INF) <= bound_large
                assert ball_small[v] == ball_large[to_large[v]]

    def test_trust_attributes(self, window10, octa):
        assert len(window10.trusted_vertices) < window10.n_vertices and window10.margin == 4
        # a finite complex trusts every vertex and every distance
        assert isinstance(octa.trusted_vertices, frozenset)
        assert octa.trusted_vertices == frozenset(octa.vertices) and octa.margin == INF

    def test_trust_and_oracle_are_set_once(self, window10, octa):
        # both are built with the complex: every read returns the same object
        for x in (octa, window10):
            assert x.trusted_vertices is x.trusted_vertices
            assert x.oracle is x.oracle

    def test_a_window_is_a_flag_complex(self, window10):
        assert isinstance(window10, FlagComplex)
        assert window10.n_vertices == 1 + 3 * 10 * 11
        assert window10.link((window10.basepoint,)).n_vertices == 6

    def test_window_has_equal_adjacency_and_its_own_oracle(self):
        g = S.random_flag_complex(12, 0.4, 3)
        w = S.WindowView(g.vertices, g.edges(), g.vertices[0], 3, 1)
        assert w.vertices == g.vertices
        assert all(w.neighbors(v) == g.neighbors(v) for v in g.vertices)
        assert w.oracle is not g.oracle
        for u in g.vertices:
            assert w.oracle.distances_from(u) == g.oracle.distances_from(u)


def _torus_scans():
    x = S.hex_torus(6, 6)
    S.triangle_condition(x)
    S.is_systolic(x)


def _window_scan():
    S.sphere_domination_everywhere(S.triangular_lattice_window(6, 3))


def _min_set_check():
    w = S.triangular_lattice_window(6, 3)
    S.min_set_idempotence(w, S.lattice_glide(w))


def _scans_with_maps(x):
    # the transport table holds the declared maps' tables, never the target
    assert x.symmetries
    S.sphere_domination_everywhere(x)
    S.is_locally_k_large(x, 6)
    S.is_systolic(x)


def _window_scans_with_maps():
    _scans_with_maps(S.triangular_lattice_window(6, 3))


def _torus_scans_with_maps():
    _scans_with_maps(S.hex_torus(6, 6))


@pytest.mark.parametrize("use", [_torus_scans, _window_scan, _min_set_check,
                                 _window_scans_with_maps, _torus_scans_with_maps])
def test_no_reference_cycles(use):
    """A complex, a window or a Min set, with its oracle tables and memo, is
    freed by reference counting alone once the last reference goes."""
    gc.collect()
    gc.disable()
    try:
        use()
        assert gc.collect() == 0
    finally:
        gc.enable()
