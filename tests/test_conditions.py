import math
import random
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

import systolic as S
from systolic import ComplexError, FlagComplex, WindowView, conditions
from systolic.conditions import (
    _cycle_free,
    _full_square,
    _induced_cycles,
    _scanned_sources,
    _transport_table,
)
from systolic.verdict import (
    CycleInLink,
    FullCycle,
    QuadrangleViolation,
    SphereSimplexViolation,
    TriangleViolation,
    no,
    yes,
)

from _oracles import (
    brute_force_extended_wheels,
    brute_force_full_cycles,
    first_quadrangle_violation,
    first_short_link_cycle,
    first_sphere_violation,
    first_triangle_violation,
    reference_full_cycles,
)

INF = math.inf


class TestFullCycles:
    def test_octahedron_squares(self, octa):
        cycles = S.enumerate_full_cycles(octa, 6)
        assert [c.vertices for c in cycles] == [
            (0, 2, 1, 3),
            (0, 4, 1, 5),
            (2, 4, 3, 5),
        ]

    def test_min_len_filter(self, icosa):
        assert S.enumerate_full_cycles(icosa, 4) == []
        fives = S.enumerate_full_cycles(icosa, 5)
        assert len(fives) == 12  # one pentagon per vertex link
        assert all(len(c) == 5 for c in fives)

    def test_cycle_complex_has_itself(self):
        c7 = S.cycle(7)
        found = S.enumerate_full_cycles(c7, 7)
        assert [c.vertices for c in found] == [(0, 1, 2, 3, 4, 5, 6)]
        assert S.enumerate_full_cycles(c7, 6) == []

    def test_complete_graph_has_none(self):
        assert S.enumerate_full_cycles(S.complete(6), 6) == []

    @given(
        st.integers(min_value=4, max_value=13),
        st.floats(min_value=0.15, max_value=0.8),
        st.integers(min_value=0, max_value=5_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force(self, n, p, seed):
        g = S.random_flag_complex(n, p, seed)
        max_len = n
        ours = {c.vertices for c in S.enumerate_full_cycles(g, max_len)}
        assert ours == brute_force_full_cycles(g, max_len)

    @given(
        st.integers(min_value=1, max_value=14),
        st.floats(min_value=0.15, max_value=0.8),
        st.integers(min_value=0, max_value=5_000),
        st.integers(min_value=2, max_value=3),
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=4, max_value=9),
        st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_kernel_matches_reference(self, n, p, seed, margin, extra, max_len, data):
        # the whole complex, the trusted region of a window, and a random
        # pool, each against the reference run on the spanned subcomplex
        g = S.random_flag_complex(n, p, seed)
        want = reference_full_cycles(g, max_len)
        assert S.enumerate_full_cycles(g, max_len) == want
        assert S.systole(g, max_len) == (len(want[0]) if want else INF)
        x = WindowView(g.vertices, g.edges(), 0, margin + extra, margin)
        want = reference_full_cycles(g.span(x.trusted_vertices), max_len)
        assert S.enumerate_full_cycles(x, max_len) == want
        assert S.systole(x, max_len) == (len(want[0]) if want else INF)
        pool = frozenset(data.draw(st.sets(st.sampled_from(g.vertices))))
        min_len = data.draw(st.integers(min_value=4, max_value=6))
        got = sorted(
            _induced_cycles(g, pool, max_len, min_len), key=lambda c: (len(c), c.vertices)
        )
        assert got == reference_full_cycles(g.span(pool), max_len, min_len)

    def test_every_reported_cycle_revalidates(self, small_corpus):
        for name, g in small_corpus.items():
            for c in S.enumerate_full_cycles(g, g.n_vertices):
                assert S.is_full_cycle(g, c.vertices), (name, c)

    def test_canonical_form(self):
        c = FullCycle.canonical((3, 1, 4, 2))
        assert c.vertices[0] == 1
        assert c.vertices == FullCycle.canonical((4, 2, 3, 1)).vertices
        assert c.vertices == FullCycle.canonical(tuple(reversed((3, 1, 4, 2)))).vertices

    def test_window_restricts_to_trusted(self, window10):
        assert S.enumerate_full_cycles(window10, 5) == []
        # the hexagon ring around each vertex is a full 6-cycle; rings fit
        # inside the trusted ball of radius 6 exactly when their center lies
        # in the ball of radius 5, which has 1 + 3*5*6 = 91 vertices
        hexes = S.enumerate_full_cycles(window10, 6)
        assert len(hexes) == 91
        trusted = window10.trusted_vertices
        for c in hexes:
            assert len(c) == 6
            assert all(v in trusted for v in c.vertices)
        assert S.systole(window10, max_len=8) == 6

    def test_window_cycle_census_to_length_8(self, window10):
        by_len = {}
        for c in S.enumerate_full_cycles(window10, 8):
            by_len[len(c)] = by_len.get(len(c), 0) + 1
        # no short cycles, no 7-cycles; 8-cycles exist but do not hurt
        # 6-largeness since the systole stays at 6
        assert by_len == {6: 91, 8: 240}

    def test_is_full_cycle_rejects_chords(self, octa):
        assert not S.is_full_cycle(octa, (2, 4, 3, 5, 0))  # 0 adjacent to all
        assert not S.is_full_cycle(octa, (0, 2, 4))  # too short
        assert S.is_full_cycle(octa, (0, 2, 1, 3))


class TestSystole:
    def test_values(self, octa, icosa, torus44):
        assert S.systole(octa) == 4
        assert S.systole(icosa) == 5
        assert S.systole(torus44) == 4
        assert S.systole(S.complete(5)) == INF
        assert S.systole(S.cycle(9)) == 9

    def test_bounded_search(self, icosa):
        assert S.systole(icosa, max_len=4) == INF


class TestKLarge:
    def test_small_k_vacuous(self, octa):
        for k in (2, 3, 4):
            assert S.is_k_large(octa, k).is_yes

    @given(
        st.integers(min_value=0, max_value=12),
        st.floats(min_value=0.0, max_value=1.0),
        st.integers(min_value=0, max_value=5_000),
        st.integers(min_value=-1, max_value=4),
    )
    @settings(max_examples=40, deadline=None)
    def test_small_k_has_one_reason(self, n, p, seed, k):
        # no full cycle is shorter than 4, in the complex or in a link
        g = S.random_flag_complex(n, p, seed)
        assert S.is_k_large(g, k) == yes(reason="full cycles never have length below 4")

    def test_octahedron_5(self, octa):
        v = S.is_k_large(octa, 5)
        assert v.is_no
        assert isinstance(v.witness, CycleInLink)
        assert v.witness.simplex == ()
        assert v.witness.cycle.vertices == (0, 2, 1, 3)

    def test_icosahedron(self, icosa):
        assert S.is_k_large(icosa, 5).is_yes
        v = S.is_k_large(icosa, 6)
        assert v.is_no and len(v.witness.cycle) == 5
        assert S.is_full_cycle(icosa, v.witness.cycle.vertices)

    def test_locally_k_large_ignores_global_cycles(self, torus44):
        # the torus has short essential cycles but all its links are hexagons
        assert S.is_locally_k_large(torus44, 6).is_yes
        assert S.is_k_large(torus44, 5).is_no

    def test_locally_k_large_counterexample(self):
        v = S.is_locally_k_large(S.wheel(4), 6)
        assert v.is_no
        assert v.witness.simplex == (0,)
        assert v.witness.cycle.vertices == (1, 2, 3, 4)

    def test_window_locally_6_large(self, window10):
        assert S.is_locally_k_large(window10, 6).is_yes


class TestTriangleCondition:
    def test_holds_on_corpus(self, octa, window10):
        assert S.triangle_condition(octa).is_yes
        assert S.triangle_condition(window10).is_yes

    def test_torus_wrap_breaks_it(self, torus44):
        # (1,1) and (2,1) both sit two steps from the origin, but their two
        # shared triangle completions also sit at distance two: the short
        # wrap-around routes defeat the condition
        v = S.triangle_condition(torus44)
        assert v.is_no
        assert S.triangle_violation_holds(torus44, v.witness)

    def test_vacuous_on_bipartite(self):
        # no two adjacent vertices are equidistant from anything
        assert S.triangle_condition(S.cycle(6)).is_yes

    def test_violation_on_c5_link_structure(self):
        # subdividing forces adjacent equidistant pairs with no closer common
        # neighbor: C5 itself is the smallest example
        v = S.triangle_condition(S.cycle(5))
        assert v.is_no
        assert S.triangle_violation_holds(S.cycle(5), v.witness)


class TestQuadrangleCondition:
    def test_holds(self, octa, window10):
        assert S.quadrangle_condition(octa).is_yes
        assert S.quadrangle_condition(window10).is_yes

    def test_c6_violation_frozen(self):
        v = S.quadrangle_condition(S.cycle(6))
        assert v.is_no
        assert v.witness == QuadrangleViolation(u=0, v=2, w=4, z=3, distance=2)
        assert S.quadrangle_violation_holds(S.cycle(6), v.witness)

    def test_icosahedron_violation(self, icosa):
        v = S.quadrangle_condition(icosa)
        assert v.is_no
        assert v.witness == QuadrangleViolation(u=0, v=6, w=8, z=11, distance=2)
        assert S.quadrangle_violation_holds(icosa, v.witness)

    def test_bare_extended_wheel_violation(self):
        g = S.extended_wheel5(False)
        v = S.quadrangle_condition(g)
        assert v.is_no
        assert S.quadrangle_violation_holds(g, v.witness)


class TestWeaklyModular:
    def test_corpus(self, octa, icosa, window10):
        assert S.is_weakly_modular(octa).is_yes
        assert S.is_weakly_modular(icosa).is_no
        assert S.is_weakly_modular(window10).is_yes
        assert S.is_weakly_modular(S.cycle(6)).is_no
        assert S.is_weakly_modular(S.wheel(6)).is_yes

    @given(
        st.integers(min_value=4, max_value=16),
        st.floats(min_value=0.15, max_value=0.7),
        st.integers(min_value=0, max_value=5_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_first_witnesses_match_full_scans(self, n, p, seed):
        g = S.random_flag_complex(n, p, seed)
        if len(g.connected_components()) != 1:
            return
        _assert_first_witnesses_match(g)


def _assert_first_witnesses_match(x):
    tc, qc = S.triangle_condition(x), S.quadrangle_condition(x)
    want_tc, want_qc = first_triangle_violation(x), first_quadrangle_violation(x)
    assert tc.is_no == (want_tc is not None)
    assert qc.is_no == (want_qc is not None)
    if tc.is_no:
        w = tc.witness
        assert (w.u, w.v, w.w, w.distance) == want_tc
    if qc.is_no:
        w = qc.witness
        assert (w.u, w.v, w.w, w.z, w.distance) == want_qc


class TestDisconnectedInput:
    # Two components; the scans would otherwise compare infinite distances.
    TWO_EDGES = FlagComplex([0, 1, 2, 3], [(0, 1), (2, 3)])

    @pytest.mark.parametrize(
        "scan",
        [
            S.triangle_condition,
            S.quadrangle_condition,
            S.is_weakly_modular,
            S.sphere_domination_everywhere,
        ],
    )
    def test_distance_scans_reject_disconnected(self, scan):
        with pytest.raises(ComplexError, match="connected"):
            scan(self.TWO_EDGES)

    def test_random_complexes_from_the_cli_examples(self):
        for n, p in ((10, 0.1), (12, 0.15)):
            g = S.random_flag_complex(n, p, 1)
            assert len(g.connected_components()) != 1
            for scan in (S.triangle_condition, S.sphere_domination_everywhere):
                with pytest.raises(ComplexError):
                    scan(g)


class TestExtendedWheels:
    def test_none_in_plain_wheel(self):
        assert S.find_extended_5_wheels(S.wheel(5)) == []

    def test_bare_extended_wheel(self):
        g = S.extended_wheel5(False)
        wheels = S.find_extended_5_wheels(g)
        assert len(wheels) == 1
        w = wheels[0]
        assert w.center == 0 and w.apex == 6
        assert set(w.rim) == {1, 2, 3, 4, 5}
        assert w.rim[0] == 1 and w.rim[1] == 2  # apex edge first
        assert S.is_extended_wheel5(g, w)

    def test_icosahedron_wheel_count(self, icosa):
        wheels = S.find_extended_5_wheels(icosa)
        assert len(wheels) == 60
        assert all(S.is_extended_wheel5(icosa, w) for w in wheels)

    def test_condition_answers(self, icosa):
        bare = S.extended_wheel5(False)
        dom = S.extended_wheel5(True)
        v = S.extended_wheel_condition(bare)
        assert v.is_no and S.is_extended_wheel5(bare, v.witness)
        v = S.extended_wheel_condition(dom)
        assert v.is_yes and v.detail["wheels"] == 1
        assert S.extended_wheel_condition(icosa).is_no

    def test_window_has_no_wheels(self, window10):
        assert S.extended_wheel_condition(window10).is_yes

    def test_dominator_does_not_destroy_the_wheel(self):
        # the definition constrains only the eight wheel vertices among
        # themselves, so the dominated complex still contains its wheel
        g = S.extended_wheel5(True)
        wheels = S.find_extended_5_wheels(g)
        assert len(wheels) == 1 and wheels[0].apex == 6

    @given(
        st.integers(min_value=5, max_value=13),
        st.floats(min_value=0.3, max_value=0.8),
        st.integers(min_value=0, max_value=5_000),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=0, max_value=2),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force(self, n, p, seed, margin, extra):
        # on the whole complex and on a window that trusts a ball around 0
        g = S.random_flag_complex(n, p, seed)
        assert S.find_extended_5_wheels(g) == brute_force_extended_wheels(g)
        x = WindowView(g.vertices, g.edges(), 0, margin + extra, margin)
        assert S.find_extended_5_wheels(x) == brute_force_extended_wheels(x)

    @pytest.mark.parametrize("name", ["icosahedron", "extended_wheel5"])
    @pytest.mark.parametrize("inner", [1, 2])
    def test_windows_report_only_trusted_wheels(self, name, inner):
        # a ball of radius 2 trusts 11 of the 12 icosahedron vertices, and
        # a ball of radius 1 around the hub of the extended wheel leaves out
        # its apex: a center or apex outside the ball must not count
        g = getattr(S, name)()
        for v in g.vertices:
            x = WindowView(g.vertices, g.edges(), v, inner + 1, 1)
            assert S.find_extended_5_wheels(x) == brute_force_extended_wheels(x)

    def test_validator_rejects_corrupted_witnesses(self):
        from systolic.verdict import ExtendedWheel5

        g = S.extended_wheel5(False)
        assert not S.is_extended_wheel5(g, ExtendedWheel5(0, (1, 2, 3, 4, 5), 3))
        assert not S.is_extended_wheel5(g, ExtendedWheel5(6, (1, 2, 3, 4, 5), 0))
        assert not S.is_extended_wheel5(g, ExtendedWheel5(0, (1, 2, 3, 5, 4), 6))
        assert not S.is_extended_wheel5(g, ExtendedWheel5(0, (2, 3, 4, 5, 1), 6))


class TestSphereDomination:
    def test_octahedron_violation(self, octa):
        v = S.sphere_domination(octa, 0, 1)
        assert v.is_no
        assert v.witness == SphereSimplexViolation(v=0, i=1, simplex=(1,), inner_set=(2, 3, 4, 5))
        assert S.sphere_domination_violation_holds(octa, v.witness)
        assert S.sphere_domination(octa, 0, 0).is_yes

    def test_c6_violation(self):
        c6 = S.cycle(6)
        v = S.sphere_domination_everywhere(c6)
        assert v.is_no
        assert v.witness == SphereSimplexViolation(v=0, i=2, simplex=(3,), inner_set=(2, 4))
        assert S.sphere_domination_violation_holds(c6, v.witness)

    def test_window_depth_guard(self, window10):
        with pytest.raises(ComplexError):
            S.sphere_domination(window10, window10.basepoint, 4)  # needs margin 5
        assert S.sphere_domination(window10, window10.basepoint, 3).is_yes

    def test_untrusted_vertex_rejected(self, window10):
        boundary = next(
            v for v in window10.vertices if v not in window10.trusted_vertices
        )
        with pytest.raises(ComplexError):
            S.sphere_domination(window10, boundary, 1)

    def test_everywhere_on_window(self, window10):
        assert S.sphere_domination_everywhere(window10).is_yes

    def test_dominated_wheel_passes(self):
        assert S.sphere_domination_everywhere(S.extended_wheel5(True)).is_yes

    def test_depth_past_the_complex_allocates_nothing_for_it(self):
        # the layers come from the ball, which stops at the antipode, so a
        # huge n costs what n = 1 costs and finds the same witness
        octa = S.octahedron()
        tracemalloc.start()
        try:
            v = S.sphere_domination(octa, 0, 10**6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert v.is_no and v.witness == S.sphere_domination(octa, 0, 1).witness

    @pytest.mark.parametrize(
        "n, p, seed, i, simplex, inner_set",
        [
            # a vertex whose inner set is two non-adjacent vertices
            (10, 0.3, 11, 3, (3,), (1, 6)),
            # a triangle whose vertices' inner sets meet in nothing
            (10, 0.4, 16, 1, (3, 4, 8), ()),
            # the same on a 4-vertex simplex
            (12, 0.4, 34, 1, (1, 2, 7, 8), ()),
        ],
    )
    def test_named_witness_shapes(self, n, p, seed, i, simplex, inner_set):
        g = S.random_flag_complex(n, p, seed)
        v = S.sphere_domination_everywhere(g)
        assert v.is_no
        assert v.witness == SphereSimplexViolation(v=0, i=i, simplex=simplex, inner_set=inner_set)
        assert S.sphere_domination_violation_holds(g, v.witness)
        assert v == first_sphere_violation(g, 0, i)

    def test_everywhere_needs_no_eccentricity(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("sphere domination must not ask for eccentricities")

        g = S.random_flag_complex(12, 0.4, 34)
        monkeypatch.setattr(FlagComplex, "eccentricity", refuse)
        v = S.sphere_domination_everywhere(g)
        assert v.witness == SphereSimplexViolation(v=0, i=1, simplex=(1, 2, 7, 8), inner_set=())
        assert S.sphere_domination_everywhere(S.wheel(6)).is_yes

    def test_scan_needs_no_clique_enumeration(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("sphere domination must not call this")

        window = S.triangular_lattice_window(10, 4)
        monkeypatch.setattr(FlagComplex, "cliques", refuse)
        monkeypatch.setattr(FlagComplex, "is_clique", refuse)
        assert S.sphere_domination_everywhere(window).is_yes


def _random_connected(n, p, seed):
    g = S.random_flag_complex(n, p, seed)
    return g if len(g.connected_components()) == 1 else None


def _verdict_key(v):
    return (v.answer, v.witness, v.reason)


class TestAgainstReferences:
    """The one-pass sphere scan, the cut link scan and, on windows, TC and
    QC against the references in ``_oracles``."""

    @given(
        st.integers(min_value=1, max_value=16),
        st.floats(min_value=0.15, max_value=0.8),
        st.integers(min_value=0, max_value=5_000),
    )
    @settings(max_examples=80, deadline=None)
    def test_sphere_domination_matches_reference(self, n, p, seed):
        g = _random_connected(n, p, seed)
        if g is None:
            return
        for v in g.vertices:
            for depth in range(4):
                got = S.sphere_domination(g, v, depth)
                want = first_sphere_violation(g, v, depth)
                assert _verdict_key(got) == _verdict_key(want)
                if got.is_no:
                    assert S.sphere_domination_violation_holds(g, got.witness)

    @given(
        st.integers(min_value=2, max_value=10),
        st.sets(st.integers(min_value=1, max_value=10), max_size=3),
        st.floats(min_value=0, max_value=0.4),
        st.integers(min_value=0, max_value=5_000),
        st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_pendant_clique_variants_match_reference(self, m, attach, drop, seed, tail):
        # a clique on 1..m, some of its edges dropped, and a pendant vertex 0
        # joined to 1 and to ``attach``; with ``tail`` one more vertex hangs
        # off m.  Around 0 the inner sets of sphere 2 share vertices, where
        # the walk over the sphere's simplices stops early.
        rng = random.Random(seed)
        edges = [(0, a) for a in sorted({1} | attach) if a <= m]
        edges += [(a, b) for a in range(1, m + 1) for b in range(a + 1, m + 1)
                  if rng.random() >= drop]
        if tail:
            edges.append((m, m + 1))
        g = FlagComplex(range(m + 1 + tail), edges)
        for v in g.vertices:
            for depth in range(4):
                got = S.sphere_domination(g, v, depth)
                assert _verdict_key(got) == _verdict_key(first_sphere_violation(g, v, depth))

    @given(
        st.integers(min_value=1, max_value=16),
        st.floats(min_value=0.15, max_value=0.8),
        st.integers(min_value=0, max_value=5_000),
    )
    @settings(max_examples=80, deadline=None)
    def test_sphere_domination_at_depth_inf(self, n, p, seed):
        # depth INF stops at the last sphere, as eccentricity - 1 does; a
        # lone vertex has eccentricity 0 and depth 0 scans nothing either
        g = _random_connected(n, p, seed)
        if g is None:
            return
        for v in g.vertices:
            depth = max(int(g.eccentricity(v)) - 1, 0)
            got = S.sphere_domination(g, v, INF)
            assert _verdict_key(got) == _verdict_key(S.sphere_domination(g, v, depth))

    @given(
        st.integers(min_value=4, max_value=16),
        st.floats(min_value=0.15, max_value=0.8),
        st.integers(min_value=0, max_value=5_000),
        st.integers(min_value=2, max_value=3),
        st.integers(min_value=0, max_value=2),
    )
    @settings(max_examples=60, deadline=None)
    def test_window_scans_match_references(self, n, p, seed, margin, extra):
        g = _random_connected(n, p, seed)
        if g is None:
            return
        x = WindowView(g.vertices, g.edges(), 0, margin + extra, margin)
        for v in sorted(x.trusted_vertices):
            for depth in range(margin):
                got = S.sphere_domination(x, v, depth)
                assert _verdict_key(got) == _verdict_key(first_sphere_violation(x, v, depth))
        for k in (5, 6, 7):
            got = S.is_locally_k_large(x, k)
            assert _verdict_key(got) == _verdict_key(first_short_link_cycle(x, k))
        _assert_first_witnesses_match(x)
        # TC and QC stop at the margin also where the oracle holds whole tables
        warm = WindowView(g.vertices, g.edges(), 0, margin + extra, margin)
        for v in warm.vertices:
            warm.oracle.distances_from(v)
        _assert_first_witnesses_match(warm)

    @pytest.mark.parametrize(
        "n, basepoint, radius, margin, tc, qc",
        [
            # C7: the edge 3-4 opposite 0 breaks TC at distance 3
            (7, 0, 5, 2, None, None),
            (7, 0, 6, 3, (0, 3, 4, 3), None),
            # ... but only 0..3 and 6 are trusted, so 4 may not take part
            (7, 1, 5, 3, (3, 0, 6, 3), None),
            # C8: v, w = 3, 5 at distance 3 below z = 4 break QC for u = 0
            (8, 0, 7, 3, None, None),
            (8, 0, 8, 4, None, (0, 3, 5, 4, 3)),
            # ... but only 0..4 are trusted, so 5 may not take part
            (8, 2, 6, 4, None, None),
            # ... and z = 4 may not when all but 4 are
            (8, 0, 7, 4, None, (2, 5, 7, 6, 3)),
        ],
    )
    def test_window_scans_stop_at_margin_and_trust(self, n, basepoint, radius, margin, tc, qc):
        g = S.cycle(n)
        x = WindowView(g.vertices, g.edges(), basepoint, radius, margin)
        assert (first_triangle_violation(x), first_quadrangle_violation(x)) == (tc, qc)
        _assert_first_witnesses_match(x)

    @given(
        st.integers(min_value=1, max_value=16),
        st.floats(min_value=0.15, max_value=0.8),
        st.integers(min_value=0, max_value=5_000),
    )
    @settings(max_examples=80, deadline=None)
    def test_locally_k_large_matches_reference(self, n, p, seed):
        g = S.random_flag_complex(n, p, seed)
        for k in (5, 6, 7):
            got = S.is_locally_k_large(g, k)
            assert _verdict_key(got) == _verdict_key(first_short_link_cycle(g, k))

    @pytest.mark.parametrize("radius, margin", [(6, 2), (8, 3), (10, 4)])
    @pytest.mark.parametrize("k", [6, 7, 8])
    def test_locally_k_large_on_windows_matches_reference(self, radius, margin, k):
        # every vertex link is a hexagon: yes at k = 6, no above it
        x = S.triangular_lattice_window(radius, margin)
        got = S.is_locally_k_large(x, k)
        assert _verdict_key(got) == _verdict_key(first_short_link_cycle(x, k))
        assert got.is_yes == (k == 6)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_locally_k_large_on_complete_graphs_matches_reference(self, n):
        # every link is a simplex, so the reference walks all 2^n - 1 cliques
        g = S.complete(n)
        for k in (5, 6, 7):
            got = S.is_locally_k_large(g, k)
            assert got.is_yes
            assert _verdict_key(got) == _verdict_key(first_short_link_cycle(g, k))


def _relabel(g, order):
    """g with vertex order[i] renamed i."""
    new = {v: i for i, v in enumerate(order)}
    return FlagComplex(range(len(order)), [(new[a], new[b]) for a, b in g.edges()])


def _same_after_sd(make):
    """TC and QC computed after SD on make() equal them on a fresh make(),
    which never computes SD; returns SD's verdict."""
    x, fresh = make(), make()
    sd = S.sphere_domination_everywhere(x)
    assert S.sphere_domination_everywhere.known(x) is sd
    assert S.triangle_condition(x) == S.triangle_condition(fresh)
    assert S.quadrangle_condition(x) == S.quadrangle_condition(fresh)
    assert S.is_weakly_modular(x) == S.is_weakly_modular(fresh)
    assert S.sphere_domination_everywhere.known(fresh) is None
    return sd


class TestAfterSphereDomination:
    """Where SD holds at a source, so do TC and QC, so after SD they scan
    only the sources from its witness on.  Their verdicts equal those of a
    fresh copy that scans every source."""

    @given(
        st.integers(min_value=1, max_value=16),
        st.floats(min_value=0.15, max_value=0.8),
        st.integers(min_value=0, max_value=5_000),
        st.randoms(use_true_random=False),
        st.booleans(),
        st.integers(min_value=2, max_value=4),
        st.integers(min_value=0, max_value=2),
    )
    @settings(max_examples=150, deadline=None)
    def test_tc_and_qc_after_sd_equal_a_fresh_copy(self, n, p, seed, rng, window, margin, extra):
        g = _random_connected(n, p, seed)
        if g is None:
            return
        order = list(g.vertices)
        rng.shuffle(order)
        # each round gives SD's witness source the largest id, so SD fails
        # further on, or holds, in the next
        for _ in range(4):
            g = _relabel(g, order)
            if window:
                sd = _same_after_sd(lambda: WindowView(g.vertices, g.edges(), 0, margin + extra, margin))
            else:
                sd = _same_after_sd(lambda: FlagComplex(g.vertices, g.edges()))
            if sd.is_yes or sd.witness.v == g.vertices[-1]:
                break
            order = [v for v in g.vertices if v != sd.witness.v] + [sd.witness.v]

    @given(
        st.integers(min_value=4, max_value=7),
        st.integers(min_value=2, max_value=4),
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=0, max_value=2),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_lattice_windows_with_defects(self, radius, margin, n_cut, n_dropped, rng):
        # a few vertices and edges removed, the ids shuffled: SD fails near
        # the defects, past sources where all three hold, and TC and QC can
        # fail on vertices below SD's witness source
        margin = min(margin, radius)
        w = S.triangular_lattice_window(radius, margin)
        cut = set(rng.sample([v for v in w.vertices if v != w.basepoint], n_cut))
        edges = [e for e in w.edges() if cut.isdisjoint(e)]
        for e in rng.sample(edges, n_dropped):
            edges.remove(e)
        order = [v for v in w.vertices if v not in cut]
        rng.shuffle(order)
        new = {v: i for i, v in enumerate(order)}
        relabelled = [(new[a], new[b]) for a, b in edges]

        def make():
            return WindowView(range(len(order)), relabelled, new[w.basepoint], radius, margin)

        if len(make().connected_components()) == 1:
            _same_after_sd(make)

    @pytest.mark.parametrize(
        "n, p, seed, sources",
        [
            # SD fails at 0, TC and QC later: their scans run on past SD's
            # witness source
            (8, 0.3, 4, (0, 4, 3)),
            # all three fail at source 2, SD's witness source; QC's witness
            # has z = 1, which only its whole neighbor table holds
            (12, 0.35, 49, (2, 2, 2)),
        ],
    )
    def test_named_sources(self, n, p, seed, sources):
        g = S.random_flag_complex(n, p, seed)
        sd = _same_after_sd(lambda: FlagComplex(g.vertices, g.edges()))
        tc, qc = S.triangle_condition(g), S.quadrangle_condition(g)
        assert (sd.witness.v, tc.witness.u, qc.witness.u) == sources

    @pytest.mark.parametrize("radius, margin", [(8, 3), (10, 4)])
    def test_window_with_a_hole_beside_the_basepoint(self, radius, margin):
        # the lattice window passes all three; without a neighbor of the
        # basepoint SD fails past the least trusted source, TC at SD's own
        # witness source and QC after it
        w = S.triangular_lattice_window(radius, margin)
        gone = min(w.neighbors(w.basepoint))
        vertices = [v for v in w.vertices if v != gone]
        edges = [e for e in w.edges() if gone not in e]

        def make():
            return WindowView(vertices, edges, w.basepoint, radius, margin)

        sd = _same_after_sd(make)
        x = make()
        tc, qc = S.triangle_condition(x), S.quadrangle_condition(x)
        assert min(x.trusted_vertices) < sd.witness.v == tc.witness.u < qc.witness.u

    @pytest.mark.parametrize("make", [
        lambda: S.triangular_lattice_window(8, 3),
        S.octahedron,
    ])
    def test_a_kept_sd_verdict_proves_connectivity(self, make, monkeypatch):
        # SD requires connectivity before it keeps a verdict, so after it
        # TC, QC and weak systolicity prove nothing again
        calls = []
        real = conditions.disconnection
        monkeypatch.setattr(conditions, "disconnection", lambda g: calls.append(g) or real(g))
        checks = (S.triangle_condition, S.quadrangle_condition, S.is_weakly_systolic)
        before = make()
        for check in checks:
            calls.clear()
            check(before)
            assert calls == [before]
        after = make()
        S.sphere_domination_everywhere(after)
        for check in checks:
            calls.clear()
            check(after)
            assert calls == []


def _t1(w):
    return S.lattice_translation(w, 1)


def _t_minus_2(w):
    return S.lattice_translation(w, -2)


def _undeclared(x):
    """x built again with no declared map, so its scans visit every source."""
    if isinstance(x, WindowView):
        return WindowView(x.vertices, x.edges(), x.basepoint, x.radius, x.margin, x.coord_of)
    return FlagComplex(x.vertices, x.edges())


def _scan_answers(x):
    """SD, TC and QC read through SD, and local k-largeness for k = 4..7."""
    sd = S.sphere_domination_everywhere(x)
    tc, qc = S.triangle_condition(x), S.quadrangle_condition(x)
    return (sd, tc, qc, *(S.is_locally_k_large(x, k) for k in range(4, 8)))


def _same_as_full_scans(x):
    """The answers on x, whose declared maps spare scans, equal those of a
    copy that scans every source; returns SD's verdict."""
    got = _scan_answers(x)
    assert got == _scan_answers(_undeclared(x))
    return got[0]


def _carried(x, radius, until=None):
    """The trusted sources a scan of x reading ``ball(u, radius)`` passes
    without a scan, before its witness source ``until`` (all when None)."""
    scanned = set()
    for u in _scanned_sources(x, radius):
        scanned.add(u)
        if u == until:
            break
    return [u for u in sorted(x.trusted_vertices)
            if u not in scanned and (until is None or u < until)]


def _repaired(w, h):
    """h with the first vertex of each violation dropped until
    ``validate_automorphism`` accepts what is left."""
    mapping = dict(h.mapping)
    while (v := S.validate_automorphism(w, S.Automorphism(mapping, h.name))).is_no:
        del mapping[v.witness.u]
    return S.Automorphism(mapping, h.name)


def _repaired_t1(w):
    return _repaired(w, S.lattice_translation(w, 1))


def _repaired_t7(w):
    return _repaired(w, S.lattice_translation(w, 7))


def _defect_window(radius, margin, drops, symmetries):
    """The lattice window without the edges between the given coordinate
    pairs, declaring ``symmetries``."""
    w = S.triangular_lattice_window(radius, margin)
    cut = [{w.id_of[a], w.id_of[b]} for a, b in drops]
    edges = [e for e in w.edges() if set(e) not in cut]
    return WindowView(w.vertices, edges, w.basepoint, radius, margin, w.coord_of, symmetries)


def _torus_up(p, q):
    def up(x):
        return S.Automorphism({a * q + b: a * q + (b + 1) % q for a in range(p) for b in range(q)})

    return up


def _relabelled_window(radius, margin, seed):
    """The lattice window with shuffled ids, declaring t1 and the glide."""
    w = S.triangular_lattice_window(radius, margin)
    order = list(w.vertices)
    random.Random(seed).shuffle(order)
    new = {v: i for i, v in enumerate(order)}
    return WindowView(
        range(len(order)), [(new[a], new[b]) for a, b in w.edges()], new[w.basepoint],
        radius, margin, {new[v]: c for v, c in w.coord_of.items()}, (_t1, S.lattice_glide),
    )


def _relabelled_torus(p, q, seed):
    """hex_torus(p, q) with shuffled ids, declaring its translation."""
    t = S.hex_torus(p, q)
    order = list(t.vertices)
    random.Random(seed).shuffle(order)
    new = {v: i for i, v in enumerate(order)}
    shift = {new[u]: new[v] for u, v in S.torus_translation(t, p, q).mapping.items()}
    return FlagComplex(range(len(order)), [(new[a], new[b]) for a, b in t.edges()],
                       (lambda x: S.Automorphism(shift),))


def _chorded_cycle(n):
    """The n-cycle with the chord 0-2, declaring the rotation, which breaks it."""
    c = S.cycle(n)
    return FlagComplex(c.vertices, [*c.edges(), (0, 2)], c.symmetries)


# one defect: SD fails at (5, -5), after three sources of its row were carried
ONE_DEFECT = (8, 3, [((7, -7), (7, -6))])
# the same defect seven steps apart: SD fails at (-1, -8), where t7 carries
# the later source (6, -8) onto it
TWO_DEFECTS = (12, 3, [((-3, -6), (-2, -6)), ((4, -6), (5, -6))])


class TestSymmetryTransport:
    """SD and the vertex-link scan skip each source that a verified
    declared map carries from a source that passed.  Verdicts and
    witnesses equal those of full scans."""

    @pytest.mark.parametrize(
        "radius, margin", [(r, m) for r in range(3, 13) for m in range(1, 5) if m <= r])
    def test_lattice_windows(self, radius, margin):
        w = S.triangular_lattice_window(radius, margin)
        x = WindowView(w.vertices, w.edges(), w.basepoint, radius, margin, w.coord_of,
                       (_t1, _t_minus_2, S.lattice_glide))
        assert _same_as_full_scans(x).is_yes
        assert len(_transport_table(x)) == 6
        # past the first row every trusted source is carried at both radii
        rows = {w.coord_of[v][1] for v in w.trusted_vertices}
        assert len(_carried(x, margin)) >= len(w.trusted_vertices) - 2 * len(rows)
        assert len(_carried(x, 1)) >= len(w.trusted_vertices) - 2 * len(rows)

    @pytest.mark.parametrize("p, q", [(4, 4), (4, 6), (5, 7), (6, 6), (7, 5)])
    def test_hex_tori(self, p, q):
        x = S.hex_torus(p, q)
        _same_as_full_scans(x)
        # the translation carries every source past the first column
        assert len(_carried(x, INF)) == p * q - q
        both = FlagComplex(x.vertices, x.edges(), (*x.symmetries, _torus_up(p, q)))
        _same_as_full_scans(both)
        assert len(_carried(both, INF)) == p * q - 1

    @pytest.mark.parametrize("n", range(3, 10))
    def test_cycles_and_cones(self, n):
        for x in (S.cycle(n), S.cone(S.cycle(n))):
            _same_as_full_scans(x)
            assert _carried(x, 1) == list(range(1, n))

    @pytest.mark.parametrize("seed", range(3))
    def test_relabelled_copies(self, seed):
        for x in (_relabelled_window(7, 3, seed), _relabelled_torus(5, 7, seed)):
            _same_as_full_scans(x)
            assert _carried(x, x.margin)

    def test_sd_fails_after_carried_sources(self):
        # the repaired t1 leaves out the defect's ends, so near it nothing
        # is carried
        radius, margin, drops = ONE_DEFECT
        x = _defect_window(radius, margin, drops, (_repaired_t1,))
        sd = _same_as_full_scans(x)
        assert sd.is_no and x.coord_of[sd.witness.v] == (5, -5)
        assert len(_transport_table(x)) == 2
        carried = _carried(x, margin, until=sd.witness.v)
        # (0, -5) opens the row and (4, -5) lies within the margin of the
        # defect's ends, so both are scanned
        assert [x.coord_of[v] for v in carried if x.coord_of[v][1] == -5] == [
            (1, -5), (2, -5), (3, -5)]

    def test_a_map_that_breaks_an_edge_is_dropped(self):
        radius, margin, drops = ONE_DEFECT
        x = _defect_window(radius, margin, drops, (_t1,))
        assert _same_as_full_scans(x).is_no
        assert _transport_table(x) == []
        for n in (5, 6, 7):
            x = _chorded_cycle(n)
            _same_as_full_scans(x)
            assert _transport_table(x) == []

    def test_only_passed_sources_are_copied(self):
        radius, margin, drops = TWO_DEFECTS
        x = _defect_window(radius, margin, drops, (_repaired_t7,))
        sd = _same_as_full_scans(x)
        assert sd.is_no and x.coord_of[sd.witness.v] == (-1, -8)
        assert _carried(x, margin, until=sd.witness.v)

    @pytest.mark.parametrize("radius", [10, 16, 22, 40])
    def test_lattice_windows_scan_one_source(self, radius):
        # t1 carries along each row and (q, r) -> (q - 1, r + 1) onto the
        # first source of the next, so only the first source is scanned
        x = S.triangular_lattice_window(radius, 4)
        assert len(_transport_table(x)) == 4
        for r in range(1, 5):
            assert list(_scanned_sources(x, r)) == [min(x.trusted_vertices)]

    @pytest.mark.parametrize("make", [
        lambda: S.triangular_lattice_window(6, 3),
        lambda: _relabelled_window(6, 2, 1),
        lambda: S.hex_torus(5, 7),
        lambda: S.cone(S.cycle(7)),
        lambda: _defect_window(*ONE_DEFECT[:2], ONE_DEFECT[2], (_repaired_t1,)),
    ])
    def test_carried_sources_pass_the_references(self, make):
        x = make()
        sd = S.sphere_domination_everywhere(x)
        n = x.margin - 1 if x.margin < INF else x.n_vertices
        carried = _carried(x, x.margin, None if sd.is_yes else sd.witness.v)
        for v in carried:
            assert first_sphere_violation(x, v, n).is_yes
        for k in (4, 5, 6, 7):
            local = S.is_locally_k_large(x, k)
            at = _carried(x, 1, None if local.is_yes else local.witness.simplex[0])
            carried += at
            for v in at:
                alone = FlagComplex(x.vertices, x.edges())
                alone.trusted_vertices = frozenset({v})
                assert first_short_link_cycle(alone, k).is_yes
        assert carried


def _ladder(n, radius, margin):
    """The ladder with rails a_i = i + n and b_i = 3n + 1 + i, i = -n..n, and
    rungs a_i b_i: a window around a_0 declaring the shift i -> i + 1 and
    the swap of the rails.  Its full cycles are the squares between rungs,
    and every a comes before every b."""
    a = {i: i + n for i in range(-n, n + 1)}
    b = {i: 3 * n + 1 + i for i in range(-n, n + 1)}
    edges = [(a[i], b[i]) for i in a] + [(r[i], r[i + 1]) for r in (a, b) for i in range(-n, n)]
    shift = {r[i]: r[i + 1] for r in (a, b) for i in range(-n, n)}
    swap = {**{a[i]: b[i] for i in a}, **{b[i]: a[i] for i in a}}
    return WindowView(range(4 * n + 2), edges, a[0], radius, margin, None,
                      (lambda x: S.Automorphism(shift), lambda x: S.Automorphism(swap)))


def _ribs(n, s, radius):
    """A path a_i, i = -n..n, with two ribs b_i, c_i on each a_i, and for
    i >= s a vertex o_i on both ribs, closing the square a_i b_i o_i c_i: a
    window around a_0 with margin 1 declaring the shift i -> i + 1.  The
    ids run through a_i, b_i, c_i, o_i for each i in turn."""
    ids = {}
    for i in range(-n, n + 1):
        for part in "abco" if i >= s else "abc":
            ids[part, i] = len(ids)
    edges = [(ids["a", i], ids["a", i + 1]) for i in range(-n, n)]
    edges += [(ids["a", i], ids[part, i]) for i in range(-n, n + 1) for part in "bc"]
    edges += [(ids["o", i], ids[part, i]) for i in range(s, n + 1) for part in "bc"]
    shift = {v: ids[part, i + 1] for (part, i), v in ids.items() if (part, i + 1) in ids}
    return WindowView(range(len(ids)), edges, ids["a", 0], radius, 1, None,
                      (lambda x: S.Automorphism(shift),))


def _cyclic_cover(m, k, p, seed, shuffle=False):
    """Vertices (i, j), i in Z_m, j < k, and for each drawn (j, j2, d) the
    edges (i, j) -- (i + d, j2): a random flag complex whose rotation
    i -> i + 1 is declared and is an automorphism.  The id of (i, j) is
    i * k + j, or a shuffled one, so that the rotation keeps no order."""
    rng = random.Random(seed)
    ids = list(range(m * k))
    if shuffle:
        rng.shuffle(ids)
    edges = set()
    for j in range(k):
        for j2 in range(k):
            for d in range(m):
                if (j, d) != (j2, 0) and rng.random() < p:
                    for i in range(m):
                        a, b = ids[i * k + j], ids[(i + d) % m * k + j2]
                        if a != b:
                            edges.add((min(a, b), max(a, b)))
    rotate = {ids[i * k + j]: ids[(i + 1) % m * k + j] for i in range(m) for j in range(k)}
    return FlagComplex(range(m * k), sorted(edges), (lambda x: S.Automorphism(rotate),))


def _as_window(g, radius, margin):
    """g as a window around vertex 0, declaring g's maps."""
    return WindowView(g.vertices, g.edges(), 0, radius, margin, None, g.symmetries)


def _trusted_pool_only(real):
    """A broken ``_cycles_at``: the walk through u keeps to the trusted
    vertices, so the question at u no longer depends on its ball alone."""

    def walk(g, v, pool, max_len, min_len=4, canonical=True):
        if not canonical:
            pool = set(pool) & g.trusted_vertices
        return real(g, v, pool, max_len, min_len, canonical)

    return walk


def _unguarded(x):
    """x with the guard ``length // 2 <= margin`` of ``_cycle_free`` made
    void: the transport table is built to the true margin, then the margin
    is raised past every length."""
    _transport_table(x)
    x.margin = INF
    return x


def _trusted_cycles(x, max_len, min_len=4):
    """The reference's full cycles of the trusted region of x."""
    return reference_full_cycles(x.span(x.trusted_vertices), max_len, min_len)


def _certificate_holds(x, length):
    """Whether ``_cycle_free(x, length)`` keeps its word: a True only where
    no trusted vertex lies on an induced cycle of that length in x."""
    if not _cycle_free(x, length):
        return True
    trusted = x.trusted_vertices
    return not any(trusted.intersection(c.vertices) for c in reference_full_cycles(x, length, length))


def _assert_cycle_scans_match(x, wheels=True):
    """Every reader of the cycle certificate against the references on x."""
    for length in range(4, 9):
        assert _certificate_holds(x, length), length
    for lo, hi in ((4, 4), (4, 5), (5, 5), (4, 7), (6, 8), (5, 4)):
        assert S.enumerate_full_cycles(x, hi, lo) == _trusted_cycles(x, hi, lo), (lo, hi)
    want = _trusted_cycles(x, 8)
    assert S.systole(x, 8) == (len(want[0]) if want else INF)
    squares = [c for c in want if len(c) == 4]
    square = _full_square(x)
    assert square == (no(witness=squares[0], reason="full 4-cycle") if squares else None)
    if wheels:
        assert S.find_extended_5_wheels(x) == brute_force_extended_wheels(x)
    for k in (5, 6, 7):
        short = [c for c in want if len(c) < k]
        got = S.is_k_large(x, k)
        if short:
            assert got.is_no and got.witness == CycleInLink((), short[0])
        else:
            assert got.answer == first_short_link_cycle(x, k).answer


class TestCycleCertificate:
    """``_cycle_free`` spares the path walks of ``systole``,
    ``enumerate_full_cycles`` and its readers on complexes with declared
    maps; every answer equals the references', and the certificate is True
    only where no trusted vertex lies on a cycle of its length."""

    @pytest.mark.parametrize("radius, margin", [(3, 1), (4, 2), (5, 3), (6, 4), (6, 3), (7, 1)])
    def test_lattice_windows(self, radius, margin):
        x = S.triangular_lattice_window(radius, margin)
        _assert_cycle_scans_match(x, wheels=radius - margin <= 2)
        assert [_cycle_free(x, n) for n in (4, 5)] == [margin >= 2] * 2
        assert S.systole(x) == 6

    @pytest.mark.parametrize("p, q", [(4, 4), (4, 6), (5, 5), (6, 4)])
    def test_hex_tori(self, p, q):
        _assert_cycle_scans_match(S.hex_torus(p, q), wheels=p * q <= 25)

    @pytest.mark.parametrize("n", range(4, 10))
    def test_cycles_and_cones(self, n):
        for x in (S.cycle(n), S.cone(S.cycle(n))):
            _assert_cycle_scans_match(x)
            assert [_cycle_free(x, m) for m in range(4, n + 1)] == [True] * (n - 4) + [False]
            assert S.systole(x) == n

    def test_ladders_and_ribs(self):
        for x in (_ladder(5, 5, 2), _ladder(4, 4, 1), _ribs(6, 3, 4), _ribs(6, -1, 5)):
            _assert_cycle_scans_match(x)

    @pytest.mark.parametrize("seed", range(3))
    def test_relabelled_copies(self, seed):
        # the maps keep no order of the ids, so a source's cycles need not
        # start at it
        for x in (_relabelled_window(5, 2, seed), _relabelled_window(6, 3, seed),
                  _relabelled_torus(4, 5, seed)):
            _assert_cycle_scans_match(x, wheels=False)

    @given(
        st.integers(min_value=3, max_value=6),
        st.integers(min_value=1, max_value=3),
        st.floats(min_value=0.05, max_value=0.4),
        st.integers(min_value=0, max_value=5_000),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=0, max_value=2),
        st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_covers(self, m, k, p, seed, margin, extra, shuffle):
        g = _cyclic_cover(m, k, p, seed, shuffle)
        _assert_cycle_scans_match(g, wheels=g.n_vertices <= 12)
        _assert_cycle_scans_match(_as_window(g, margin + extra, margin), wheels=g.n_vertices <= 12)

    @given(
        st.integers(min_value=1, max_value=12),
        st.floats(min_value=0.1, max_value=0.7),
        st.integers(min_value=0, max_value=5_000),
    )
    @settings(max_examples=30, deadline=None)
    def test_random_complexes_declare_nothing(self, n, p, seed):
        g = S.random_flag_complex(n, p, seed)
        _assert_cycle_scans_match(g, wheels=n <= 10)
        assert not any(_cycle_free(g, length) for length in range(4, 9))

    def test_a_hub_with_no_way_out_tries_no_pair(self, monkeypatch):
        # every neighbour of the apex of a cone, and of the hub of a wheel,
        # has all its neighbours in the hub's closed neighbourhood, so no
        # pair of them is walked from.  The cone's certificate reads the
        # balls of its two sources, 0 and the apex, and of 299, the far end
        # of the one pair at 0; the wheel's canonical walk reads that of
        # 300, the far end of the one pair at 1.
        ends = []
        real = S.DistanceOracle.ball
        monkeypatch.setattr(S.DistanceOracle, "ball", lambda o, v, r: ends.append(v) or real(o, v, r))
        cone = S.cone(S.cycle(300))
        assert S.systole(cone, 8) == INF
        assert sorted(set(ends)) == [0, 299, 300]
        ends.clear()
        assert S.systole(S.wheel(300), 8) == INF
        assert sorted(set(ends)) == [300]

    def test_a_trusted_pool_carries_a_cycle_off_its_source(self, monkeypatch):
        # a_-3 is the first source: its squares need b_-3, which is not
        # trusted.  Asked only for trusted cycles, it passes; the shift then
        # carries every a, and the swap every b, past the trusted squares.
        x = _ladder(5, 5, 2)
        squares = _trusted_cycles(x, 4)
        assert squares and S.enumerate_full_cycles(x, 4) == squares
        broken = _ladder(5, 5, 2)
        monkeypatch.setattr(S.conditions, "_cycles_at", _trusted_pool_only(S.conditions._cycles_at))
        assert list(_scanned_sources(broken, 2)) == [min(broken.trusted_vertices)]
        assert S.enumerate_full_cycles(broken, 4) == []
        assert S.systole(broken, 4) == INF
        assert not _certificate_holds(broken, 4)

    def test_a_radius_past_the_margin_is_refused(self):
        # a_3 is trusted and lies on the square a_3 b_3 o_3 c_3; o_3 has no
        # preimage and lies 2 from a_3, past the margin 1 that the transport
        # table reaches, so without the guard the shift carries a_3 from a_2
        x = _ribs(6, 3, 4)
        assert not _cycle_free(x, 4) and _certificate_holds(x, 4)
        broken = _unguarded(_ribs(6, 3, 4))
        assert _cycle_free(broken, 4)
        assert not _certificate_holds(broken, 4)


def _link_cycle_holds(x, w) -> bool:
    if not w.simplex:
        return S.is_full_cycle(x, w.cycle.vertices)
    return x.is_clique(w.simplex) and S.is_full_cycle(x.link(w.simplex), w.cycle.vertices)


def _undominated_wheel_holds(x, w) -> bool:
    return S.is_extended_wheel5(x, w) and not x.common_neighbors(w.all_vertices())


# the validator of each witness the graph route of weak systolicity returns
_GRAPH_MODE_HOLDS = {
    FullCycle: lambda x, w: S.is_full_cycle(x, w.vertices),
    TriangleViolation: S.triangle_violation_holds,
    QuadrangleViolation: S.quadrangle_violation_holds,
}


class TestWitnessesRevalidate:
    """Every No of every checker carries a witness that an independent
    validator accepts, on complexes and on windows of them."""

    @given(
        st.integers(min_value=1, max_value=14),
        st.floats(min_value=0.15, max_value=0.8),
        st.integers(min_value=0, max_value=5_000),
        st.integers(min_value=2, max_value=3),
        st.integers(min_value=0, max_value=2),
        st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_every_no_passes_its_validator(self, n, p, seed, margin, extra, window):
        g = _random_connected(n, p, seed)
        if g is None:
            return
        x = WindowView(g.vertices, g.edges(), 0, margin + extra, margin) if window else g
        checks = [
            ("tc", S.triangle_condition(x), S.triangle_violation_holds),
            ("qc", S.quadrangle_condition(x), S.quadrangle_violation_holds),
            ("sd", S.sphere_domination_everywhere(x), S.sphere_domination_violation_holds),
            ("w5hat", S.extended_wheel_condition(x), _undominated_wheel_holds),
        ]
        for k in (5, 6, 7):
            checks.append(("k-large", S.is_k_large(x, k), _link_cycle_holds))
            checks.append(("locally-k-large", S.is_locally_k_large(x, k), _link_cycle_holds))
        graph = S.is_weakly_systolic(x, "graph")
        checks.append(("weakly-systolic", graph, _GRAPH_MODE_HOLDS.get(type(graph.witness))))
        for name, verdict, holds in checks:
            if verdict.is_no:
                assert holds is not None and holds(x, verdict.witness), (name, verdict)


class TestWeaklySystolic:
    def test_rejects_disconnected(self):
        g = FlagComplex([0, 1, 2, 3], [(0, 1), (2, 3)])
        with pytest.raises(ComplexError):
            S.is_weakly_systolic(g)

    @given(
        st.integers(min_value=0, max_value=9),
        st.floats(min_value=0.0, max_value=1.0),
        st.integers(min_value=0, max_value=5_000),
    )
    @example(0, 0.5, 1)
    @settings(max_examples=60, deadline=None)
    def test_modes_refuse_the_same_inputs(self, n, p, seed):
        # the empty complex and disconnected ones are refused in every mode
        g = S.random_flag_complex(n, p, seed)
        errors = []
        for mode in S.MODES:
            try:
                S.is_weakly_systolic(g, mode)
                errors.append(None)
            except ComplexError as exc:
                errors.append(str(exc))
        assert len(set(errors)) == 1, errors

    def test_rejects_unknown_mode(self, octa):
        with pytest.raises(ComplexError):
            S.is_weakly_systolic(octa, mode="fancy")

    def test_octahedron_no_with_revalidating_square(self, octa):
        v = S.is_weakly_systolic(octa, "graph")
        assert v.is_no
        assert isinstance(v.witness, FullCycle)
        assert S.is_full_cycle(octa, v.witness.vertices)

    def test_graph_and_sd_agree_everywhere(self, finite_corpus, window10):
        targets = dict(finite_corpus)
        targets["window10"] = window10
        for name, g in targets.items():
            a = S.is_weakly_systolic(g, "graph")
            b = S.is_weakly_systolic(g, "sd")
            assert a.answer == b.answer, name

    def test_composite_lists_the_squares_once(self, monkeypatch):
        # the graph route and the local-to-global route share one 4-cycle scan
        lengths = []
        original = S.conditions.enumerate_full_cycles

        def counted(x, max_len, min_len=4):
            lengths.append(max_len)
            return original(x, max_len, min_len)

        monkeypatch.setattr(S.conditions, "enumerate_full_cycles", counted)
        S.is_weakly_systolic(S.hex_torus(6, 6), "composite")
        assert lengths.count(4) == 1

    def test_composite_detail_cross_reports(self, octa):
        v = S.is_weakly_systolic(octa, "composite")
        assert v.is_no
        assert set(v.detail) == {"graph", "sd", "local_to_global"}
        assert v.detail["graph"].is_no and v.detail["sd"].is_no

    def test_composite_computes_sd_before_the_graph_route(self, monkeypatch):
        # TC and QC of the graph route then read SD's verdict; the detail
        # keeps its order
        seen = []
        tc = S.conditions.triangle_condition

        def traced(x):
            seen.append(S.sphere_domination_everywhere.known(x))
            return tc(x)

        monkeypatch.setattr(S.conditions, "triangle_condition", traced)
        v = S.is_weakly_systolic(S.wheel(6), "composite")
        assert v.is_yes and list(v.detail) == ["graph", "sd", "local_to_global"]
        assert seen == [v.detail["sd"]]

    def test_dominated_wheel_yes_all_modes(self):
        g = S.extended_wheel5(True)
        for mode in S.MODES:
            assert S.is_weakly_systolic(g, mode).is_yes, mode

    def test_composite_window(self, window10):
        v = S.is_weakly_systolic(window10, "composite")
        assert v.is_yes
        assert v.detail["local_to_global"].is_yes  # the ball collapses


class TestIsSystolic:
    def test_corpus(self, octa, icosa, torus44, window10):
        assert S.is_systolic(S.wheel(6)).is_yes
        assert S.is_systolic(S.wheel(4)).is_no
        assert S.is_systolic(S.cone(S.cycle(4))).is_no
        assert S.is_systolic(torus44).is_no  # homology shortcut
        assert S.is_systolic(octa).is_no  # full 4-cycles in links
        v = S.is_systolic(icosa)
        assert v.is_no  # pentagon links: locally 6-large fails decisively
        assert v.witness == CycleInLink(simplex=(0,), cycle=FullCycle(vertices=(1, 2, 3, 4, 5)))
        assert S.is_systolic(window10).is_yes

    def test_disconnected(self):
        g = FlagComplex([0, 1, 2, 3], [(0, 1), (2, 3)])
        v = S.is_systolic(g)
        assert v.is_no and v.witness == (0, 2)
