import math

import pytest
from hypothesis import given, settings, strategies as st

import systolic as S
from systolic import Automorphism, ComplexError, FlagComplex, WindowView, mindisp
from systolic.conditions import (
    _transport_table,
    enumerate_full_cycles,
    find_extended_5_wheels,
    first_link_cycle,
    is_locally_k_large,
)
from systolic.mindisp import fit_thickness
from systolic.verdict import DistancePair

from _oracles import first_short_link_cycle, reference_embedding, thick_line_distance
from test_isometries import DECLARABLE, LATTICE_MAPS, _declaring

INF = math.inf


class TestEmbedding:
    def test_min_sets_embed_isometrically(self, hyperbolic_corpus):
        for name, g, h in hyperbolic_corpus:
            m = S.min_set(g, h)
            rep = S.isometric_embedding_check(g, m)
            assert rep.max_deviation == 0, name
            assert rep.witness is None
            assert rep.pairs_checked > 0, name

    def test_window22_glide_pair_count(self, window22):
        m = S.min_set(window22, S.lattice_glide(window22))
        rep = S.isometric_embedding_check(window22, m)
        assert rep.pairs_checked == 540
        assert rep.max_deviation == 0

    def test_wheel_rim_deviation(self):
        w6 = S.wheel(6)
        rim = w6.span(range(1, 7))
        rep = S.isometric_embedding_check(w6, rim)
        assert rep.max_deviation == 1
        assert rep.witness == DistancePair(u=1, v=4, d_sub=3, d_ambient=2)
        # the witness re-validates against fresh distance computations
        assert rim.oracle.distance(1, 4) == 3 and w6.oracle.distance(1, 4) == 2

    def test_disconnected_subcomplex_infinite_deviation(self):
        w6 = S.wheel(6)
        pair = w6.span([1, 4])
        rep = S.isometric_embedding_check(w6, pair)
        assert rep.max_deviation == INF
        assert rep.witness == DistancePair(u=1, v=4, d_sub=INF, d_ambient=2)

    def test_rejects_non_full_subcomplex(self, octa):
        from systolic import FlagComplex

        missing_edge = FlagComplex([0, 2, 4], [(0, 2)])  # 0-4 and 2-4 dropped
        with pytest.raises(ComplexError, match="ambient edge 0-4 is missing inside"):
            S.isometric_embedding_check(octa, missing_edge)

    def test_rejects_foreign_edge(self, octa):
        from systolic import FlagComplex

        with pytest.raises(ComplexError, match="subcomplex edge 0-1 is absent"):
            S.isometric_embedding_check(octa, FlagComplex([0, 1, 2], [(0, 1), (0, 2), (1, 2)]))

    @pytest.mark.parametrize("ambient, inside, message", [
        # at one vertex an absent edge wins over a missing one, and the
        # least absent partner is named (8 before 1 in a set's order)
        ([(0, 2)], [(0, 1), (0, 8)], "subcomplex edge 0-1 is absent from the ambient complex"),
        # the least vertex with a fault wins, whatever its kind
        ([(0, 8), (0, 9)], [(1, 2)], "not a full subcomplex: ambient edge 0-8 is missing inside"),
    ])
    def test_the_least_fault_is_named(self, ambient, inside, message):
        g, sub = FlagComplex(range(10), ambient), FlagComplex(range(10), inside)
        for check in (S.isometric_embedding_check, mindisp.wheel_domination_in_min):
            with pytest.raises(ComplexError, match=f"^{message}$"):
                check(g, sub)

    def test_rejects_foreign_vertices(self, octa):
        from systolic import FlagComplex

        with pytest.raises(ComplexError):
            S.isometric_embedding_check(octa, FlagComplex([0, 17], []))

    def test_a3_min_embeds(self):
        line, shift = S.thick_line(3, 12)
        m = S.min_set(line, shift)
        rep = S.isometric_embedding_check(line, m)
        assert rep.max_deviation == 0
        assert rep.pairs_checked == 276


def _same_report(got, want):
    """Equal reports, ``max_deviation`` of the same type: a Yes carries 0.0."""
    return got == want and type(got.max_deviation) is type(want.max_deviation)


def _lattice_target(data):
    """A drawn lattice window, declaring its own maps or a drawn set, and a
    drawn map of it."""
    radius = data.draw(st.integers(min_value=2, max_value=9), label="radius")
    margin = data.draw(st.integers(min_value=1, max_value=radius), label="margin")
    x = S.triangular_lattice_window(radius, margin)
    names = data.draw(st.none() | st.lists(st.sampled_from(sorted(DECLARABLE)), unique=True,
                                           max_size=3), label="declared")
    if names is not None:
        x = _declaring(x, names)
    return x, LATTICE_MAPS[data.draw(st.sampled_from(sorted(LATTICE_MAPS)), label="map")](x)


def _min_or_none(x, h):
    """The Min complex, or None where no displacement is trusted."""
    try:
        return S.min_set(x, h)
    except ComplexError:
        return None


def _torus_target(p, q, power):
    x = S.hex_torus(p, q)
    return x, S.torus_translation(x, p, q).power(power)


def _swap(a, b):
    """The identity but for a and b, which trade places: no automorphism
    when they have different neighbours."""
    def declared(x):
        return Automorphism({**{v: v for v in x.vertices}, a: b, b: a}, "swap")

    return declared


class TestCarriedEmbedding:
    """The embedding check scans only the members that no verified declared
    map carries from a passed member with no membership flip near it, and
    reports what the full pair loop reports."""

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_lattice_min_sets(self, data):
        x, h = _lattice_target(data)
        sub = _min_or_none(x, h)
        if sub is None:
            return
        assert _same_report(S.isometric_embedding_check(x, sub), reference_embedding(x, sub))

    @given(st.integers(min_value=4, max_value=9), st.integers(min_value=4, max_value=9),
           st.integers(min_value=1, max_value=3))
    @settings(max_examples=30, deadline=None)
    def test_hex_torus_min_sets(self, p, q, power):
        x, h = _torus_target(p, q, power)
        sub = S.min_set(x, h)
        assert _same_report(S.isometric_embedding_check(x, sub), reference_embedding(x, sub))

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_rows_with_holes(self, data):
        # a band of rows, some of them cut short and with holes: its members
        # flip under t1 and the row translation at the cuts, the holes and
        # the band's edges, and a hole makes a detour only where it lies
        x, _ = _lattice_target(data)
        rows = sorted({r for _, r in x.coord_of.values()})
        low = data.draw(st.sampled_from(rows), label="low")
        high = data.draw(st.sampled_from([r for r in rows if r >= low]), label="high")
        band = [v for v, (q, r) in x.coord_of.items() if low <= r <= high]
        holes = data.draw(st.sets(st.sampled_from(band), max_size=3), label="holes")
        keep = [v for v in band if v not in holes]
        if data.draw(st.booleans(), label="trusted only"):
            keep = [v for v in keep if v in x.trusted_vertices]
        if not keep:
            return
        sub = x.span(keep)
        assert _same_report(S.isometric_embedding_check(x, sub), reference_embedding(x, sub))

    @pytest.mark.parametrize("radius, pairs", [(10, 2_355), (22, 26_475)])
    def test_translation_pair_counts(self, radius, pairs):
        # without the flip guard t1 would copy the counts of inner members
        # onto the members at the edge of Min(t1)
        x = S.triangular_lattice_window(radius, 4)
        rep = S.isometric_embedding_check(x, S.min_set(x, S.lattice_translation(x, 1)))
        assert (rep.pairs_checked, rep.max_deviation, rep.witness) == (pairs, 0.0, None)
        assert type(rep.max_deviation) is float

    def test_a_deviation_reports_the_first_pair(self, monkeypatch):
        # the glide's strip of a radius-16 window with a hole at (4, 0): t1
        # carries (-7, 0) .. (-1, 0); (1, 0), the first member that detours
        # round the hole, names the witness, and the check goes on without
        # starting over
        x = S.triangular_lattice_window(16, 4)
        hole = x.id_of[(4, 0)]
        sub = x.span(v for v in S.min_set(x, S.lattice_glide(x)).vertices if v != hole)
        balls = []
        ball = sub.oracle.ball
        monkeypatch.setattr(
            sub.oracle, "ball", lambda u, r: balls.append(x.coord_of[u]) or ball(u, r))
        rep = S.isometric_embedding_check(x, sub)
        assert balls[:7] == [(-12, 0), (-11, 0), (-10, 0), (-9, 0), (-8, 0), (0, 0), (1, 0)]
        assert balls.count((-12, 0)) == 1
        assert not {(q, 0) for q in range(-7, 0)} & set(balls)
        assert _same_report(rep, reference_embedding(x, sub))
        assert rep.max_deviation == 1
        assert (x.coord_of[rep.witness.u], x.coord_of[rep.witness.v]) == ((1, 0), (5, 0))

    def test_a_member_that_deviates_carries_nothing(self):
        # rows 0 and 2 of a radius-16 window, joined by row 1 only at
        # |q| >= 8: a pair (q, 0), (q, 2) detours to the nearer bridge, so
        # the deviation peaks at q = 0, where t1 would carry every member
        # from one that deviates, with less
        x = S.triangular_lattice_window(16, 4)
        sub = x.span(v for v, (q, r) in x.coord_of.items() if r in (0, 2) or r == 1 and abs(q) >= 8)
        rep = S.isometric_embedding_check(x, sub)
        assert _same_report(rep, reference_embedding(x, sub))
        assert (rep.pairs_checked, rep.max_deviation) == (455, 15)
        assert (x.coord_of[rep.witness.u], x.coord_of[rep.witness.v]) == ((-7, 0), (-7, 2))

    def test_a_map_that_fails_its_check_carries_nothing(self):
        # the window's basepoint and the last trusted vertex of its middle
        # column trade places; carried, the swap would give the second the
        # pair count of the first
        w = S.triangular_lattice_window(8, 3)
        a, b = w.id_of[(0, 0)], w.id_of[(0, 5)]
        x = WindowView(w.vertices, w.edges(), w.basepoint, 8, 3, w.coord_of, (_swap(a, b),))
        assert _transport_table(x) == []
        sub = x.span(x.trusted_vertices)
        rep = S.isometric_embedding_check(x, sub)
        assert _same_report(rep, reference_embedding(x, sub))
        assert rep.pairs_checked == 1_191


class TestMinComplexScans:
    """The Min complex's link and cycle scans ride the restrictions it
    declares, and answer as the same complex declaring no map."""

    @staticmethod
    def _same_as_bare(m):
        bare = FlagComplex(m.vertices, m.edges())
        assert is_locally_k_large(m, 6) == is_locally_k_large(bare, 6)
        assert enumerate_full_cycles(m, 5) == enumerate_full_cycles(bare, 5)
        assert first_link_cycle(m, 5, 5) == first_link_cycle(bare, 5, 5)
        assert find_extended_5_wheels(m) == find_extended_5_wheels(bare)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_lattice_windows(self, data):
        x, h = _lattice_target(data)
        m = _min_or_none(x, h)
        if m is not None:
            self._same_as_bare(m)

    @given(st.integers(min_value=4, max_value=9), st.integers(min_value=4, max_value=9),
           st.integers(min_value=1, max_value=3))
    @settings(max_examples=30, deadline=None)
    def test_hex_tori(self, p, q, power):
        x, h = _torus_target(p, q, power)
        m = S.min_set(x, h)
        # the translation keeps every vertex at the same displacement, so
        # Min is the whole torus and declares the translation itself
        assert m.vertices == x.vertices and len(m.symmetries) == 1
        self._same_as_bare(m)


class TestMinSystolic:
    def test_strip_and_lines(self, window22, hyperbolic_corpus):
        m = S.min_set(window22, S.lattice_glide(window22))
        assert S.is_systolic(m).is_yes
        for name, g, h in hyperbolic_corpus:
            if name.startswith("A"):
                assert S.is_systolic(S.min_set(g, h)).is_yes, name

    def test_fake_min_with_square_link(self):
        # a cone over an induced 4-cycle fails: the apex link is the square
        assert S.is_systolic(S.cone(S.cycle(4))).is_no
        assert S.is_systolic(S.wheel(4)).is_no

    def test_bare_square_fails_via_homology(self):
        assert S.is_systolic(S.cycle(4)).is_no


class TestWheelDomination:
    def test_yes_on_strip(self, window22):
        m = S.min_set(window22, S.lattice_glide(window22))
        v = S.wheel_domination_in_min(window22, m)
        assert v.is_yes
        assert v.detail["wheel_count"] == 0

    def test_wheel_inside_min_with_outside_dominator(self):
        g = S.extended_wheel5(True)
        m = g.span(range(7))  # the wheel without its dominator
        v = S.wheel_domination_in_min(g, m)
        assert v.is_no  # the hub link inside m is a full 5-cycle
        assert v.witness.simplex == (0,)
        wheels = v.detail["wheels"]
        assert len(wheels) == 1 and wheels[0]["dominator"] == 7

    def test_undominated_wheel_in_icosahedron(self, icosa):
        m = icosa.span(range(7))  # hub 0, pentagon 1..5, apex 6
        v = S.wheel_domination_in_min(icosa, m)
        assert v.is_no
        wheels = v.detail["wheels"]
        assert len(wheels) == 1 and wheels[0]["dominator"] is None

    @given(
        st.integers(min_value=1, max_value=16),
        st.floats(min_value=0.2, max_value=0.9),
        st.integers(min_value=0, max_value=5_000),
        st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_link_witness_matches_reference(self, n, p, seed, data):
        # only full 5-cycles count, in the link of any simplex of the set
        g = S.random_flag_complex(n, p, seed)
        part = data.draw(st.sets(st.sampled_from(g.vertices), min_size=1))
        m = g.span(part)
        got = S.wheel_domination_in_min(g, m)
        want = first_short_link_cycle(m, 6, min_len=5)
        assert (got.answer, got.witness) == (want.answer, want.witness)


class TestInvariantGeodesic:
    def test_a1_found(self):
        line, shift = S.thick_line(1, 12)
        v = S.invariant_geodesic_search(line, shift)
        assert v.is_yes
        assert v.witness.period == 1

    def test_a2_not_found(self):
        line, shift = S.thick_line(2, 12)
        v = S.invariant_geodesic_search(line, shift)
        assert v.is_unknown
        assert "no invariant geodesic" in v.reason

    def test_glide_power1_not_found(self, window10):
        v = S.invariant_geodesic_search(window10, S.lattice_glide(window10))
        assert v.is_unknown

    def test_glide_power2_found(self, window10):
        v = S.invariant_geodesic_search(window10, S.lattice_glide(window10), power=2)
        assert v.is_yes
        chain = v.witness
        # the chain is a straight q-axis line inside the strip
        rows = {window10.coord_of[x][1] for x in chain.vertices}
        assert len(rows) == 1

    def test_candidate_cap_is_unknown(self, monkeypatch):
        # the octahedron's antipodal map has 4 candidates and none passes
        monkeypatch.setattr(mindisp, "GEODESIC_CAP", 2)
        v = S.invariant_geodesic_search(S.octahedron(), S.octahedron_antipodal())
        assert v.is_unknown and v.reason == "geodesic candidate cap reached"
        assert v.detail["candidates_tried"] == 2

    def test_cap_equal_to_the_candidates_is_not_reached(self, monkeypatch):
        # all 4 candidates fit under the cap, so every one was refuted
        monkeypatch.setattr(mindisp, "GEODESIC_CAP", 4)
        v = S.invariant_geodesic_search(S.octahedron(), S.octahedron_antipodal())
        assert v.is_unknown
        assert v.reason == "no invariant geodesic found in the trusted region"
        assert v.detail["candidates_tried"] == 4

    def test_rejects_fixed_map(self, octa):
        from systolic import Automorphism

        with pytest.raises(ComplexError):
            S.invariant_geodesic_search(octa, Automorphism.identity(octa))


class TestOneProfile:
    """Each theorem computes the displacement profile of its map once,
    whatever the number of candidate chains the orbit walk builds from it."""

    @pytest.fixture
    def profiles(self, monkeypatch):
        import systolic.isometries

        built = []
        original = systolic.isometries.DisplacementProfile

        def counted(*args):
            built.append(args)
            return original(*args)

        monkeypatch.setattr(systolic.isometries, "DisplacementProfile", counted)
        return built

    def test_invariant_geodesic_search(self, profiles):
        v = S.invariant_geodesic_search(S.octahedron(), S.octahedron_antipodal())
        assert v.detail["candidates_tried"] == 4
        assert len(profiles) == 1

    @pytest.mark.parametrize("build", ["octahedron", "thick_line", "elliptic"])
    def test_dichotomy_report(self, build, profiles):
        from systolic import Automorphism

        x, h = {
            "octahedron": lambda: (S.octahedron(), S.octahedron_antipodal()),
            "thick_line": lambda: S.thick_line(2, 10),
            "elliptic": lambda: (S.complete(3), Automorphism({0: 1, 1: 2, 2: 0})),
        }[build]()
        S.dichotomy_report(x, h)
        assert len(profiles) == 1


class TestThickGeodesics:
    def test_thick_line_is_its_own_witness(self):
        for k in (1, 2, 3):
            line, shift = S.thick_line(k, 12)
            n = line.n_vertices
            w = S.ThickGeodesicWitness(k, 0, tuple(range(n)))
            assert S.verify_thick_geodesic(line, w).is_yes
            # the ambient distance formula matches the closed form
            for a in range(0, n, k):
                assert line.oracle.distance(0, a) == thick_line_distance(k, 0, a)

    def test_wrong_k_rejected(self):
        line, _ = S.thick_line(2, 12)
        n = line.n_vertices
        too_small = S.ThickGeodesicWitness(1, 0, tuple(range(n)))
        v = S.verify_thick_geodesic(line, too_small)
        assert v.is_no and "unexpected edge" in v.reason
        too_big = S.ThickGeodesicWitness(3, 0, tuple(range(n)))
        v = S.verify_thick_geodesic(line, too_big)
        assert v.is_no and "missing edge" in v.reason

    def test_repeated_vertex_rejected(self, octa):
        w = S.ThickGeodesicWitness(1, 0, (0, 2, 0))
        assert S.verify_thick_geodesic(octa, w).is_no

    def test_fit_thickness_values(self, window10, hyperbolic_corpus):
        expected = {"A1/shift": 1, "A2/shift": 2, "A3/shift": 3, "lattice10/glide": 2, "lattice10/t1": 1}
        for name, g, h in hyperbolic_corpus:
            if name not in expected:
                continue
            chain = S.orbit_path(g, h)
            assert fit_thickness(g, chain) == expected[name], name

    def test_fit_thickness_none_on_repeats(self, octa):
        chain = S.orbit_path(octa, S.octahedron_antipodal())
        assert fit_thickness(octa, chain) is None


class TestDichotomy:
    def test_elliptic_cases(self):
        from systolic import Automorphism

        tri = S.complete(3)
        rep = S.dichotomy_report(tri, Automorphism({0: 1, 1: 2, 2: 0}))
        assert rep.is_yes
        assert rep.witness == (0, 1, 2)
        assert rep.detail == {"kind": "elliptic", "translation_length": 1}

    def test_thick_cases(self, hyperbolic_corpus):
        expected = {"A1/shift": 1, "A2/shift": 2, "A3/shift": 3, "lattice10/glide": 2, "lattice10/t1": 1, "lattice10/t2": 1}
        for name, g, h in hyperbolic_corpus:
            if name not in expected:
                continue
            rep = S.dichotomy_report(g, h)
            assert rep.detail["thickness"] == expected[name], name
            assert rep.witness.k == expected[name], name
            assert rep.is_yes, name

    def test_octahedron_antipodal_has_no_thick_reading(self, octa):
        rep = S.dichotomy_report(octa, S.octahedron_antipodal())
        assert rep.detail["kind"] == "hyperbolic"
        assert rep.is_no and rep.witness is None

    def test_chain_vertices_with_trusted_displacement_lie_in_min(
        self, hyperbolic_corpus
    ):
        for name, g, h in hyperbolic_corpus:
            prof = S.displacement_profile(g, h)
            m = set(S.min_set(g, h).vertices)
            chain = S.orbit_path(g, h)
            for v in chain.vertices:
                if v in prof.values:
                    assert v in m, (name, v)
