import math
import random

import pytest
from hypothesis import given, settings, strategies as st

import systolic as S
from systolic import Automorphism, ComplexError, FlagComplex, WindowView
from systolic.conditions import first_link_cycle
from systolic.generators import _row_translation
from systolic.isometries import _commuting_maps, _transport_table, _verified_maps
from systolic.verdict import MapViolation

from _oracles import (
    all_automorphisms,
    brute_force_invariant_simplices,
    first_map_violation,
    loop_power,
    reference_displacement_profile,
    reference_orbit_path,
)

INF = math.inf


class TestAutomorphism:
    def test_rejects_non_injective(self):
        with pytest.raises(ComplexError):
            Automorphism({0: 1, 2: 1})

    def test_inverse_and_call(self):
        h = Automorphism({0: 1, 1: 2, 2: 0})
        assert h(0) == 1 and h.inverse_mapping[1] == 0
        with pytest.raises(ComplexError):
            h(9)

    def test_identity(self, octa):
        e = Automorphism.identity(octa)
        assert all(e(v) == v for v in octa.vertices)
        assert e.is_total_on(octa)

    def test_power_composition(self):
        h = Automorphism({i: (i + 1) % 5 for i in range(5)})
        assert h.power(3).mapping == {i: (i + 3) % 5 for i in range(5)}
        assert h.power(-2).mapping == {i: (i - 2) % 5 for i in range(5)}
        assert h.power(0).mapping == {i: i for i in range(5)}

    def test_power_of_partial_shrinks_domain(self):
        line, shift = S.thick_line(2, 6)
        assert sorted(shift.power(2).mapping) == list(range(11))
        assert shift.power(2).mapping[0] == 2

    def test_glide_squares_to_translation(self, window10):
        glide = S.lattice_glide(window10)
        t1 = S.lattice_translation(window10, 1)
        g2 = glide.power(2)
        for v, img in g2.mapping.items():
            assert t1.mapping[v] == img

    @given(st.integers(min_value=-30, max_value=30), st.sampled_from(["c5", "c8", "t1", "glide"]))
    @settings(max_examples=120, deadline=None)
    def test_power_matches_stepwise_composition(self, n, which):
        # cycle rotations are total; the window maps are partial and lose
        # vertices at every step, so the key order of the result matters
        window = S.triangular_lattice_window(5, 2)
        h = {
            "c5": lambda: S.cycle_rotation(5),
            "c8": lambda: S.cycle_rotation(8),
            "t1": lambda: S.lattice_translation(window, 1),
            "glide": lambda: S.lattice_glide(window),
        }[which]()
        got, want = h.power(n), loop_power(h, n)
        assert list(got.mapping.items()) == list(want.mapping.items())
        assert got.name == want.name

    def test_huge_power_of_a_rotation_is_the_identity(self):
        p = S.cycle_rotation(5).power(10**9)
        assert p.mapping == {v: v for v in range(5)}
        assert p.name == "rotate^1000000000"


class TestValidate:
    def test_valid_corpus_maps(self, octa, torus44, window10):
        cases = [
            (octa, S.octahedron_antipodal()),
            (torus44, S.torus_translation(torus44, 4, 4)),
            (window10, S.lattice_translation(window10, 1)),
            (window10, S.lattice_glide(window10)),
            (S.cycle(6), S.cycle_rotation(6)),
        ]
        for g, h in cases:
            v = S.validate_automorphism(g, h)
            assert v.is_yes, h.name

    def test_total_flag(self, octa, window10):
        assert S.validate_automorphism(octa, S.octahedron_antipodal()).detail["total"]
        assert not S.validate_automorphism(window10, S.lattice_glide(window10)).detail["total"]

    def test_edge_broken_detected(self, octa):
        bad = Automorphism({0: 0, 2: 1, 3: 3, 1: 2})  # sends edge 02 onto
        # the antipodal non-edge 01
        v = S.validate_automorphism(octa, bad)
        assert v.is_no
        assert isinstance(v.witness, MapViolation)
        assert v.witness.kind in ("edge_broken", "edge_created")

    @given(
        st.integers(min_value=2, max_value=14),
        st.floats(min_value=0.1, max_value=0.8),
        st.integers(min_value=0, max_value=5_000),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=80, deadline=None)
    def test_first_witness_matches_all_pairs_scan(self, n, p, seed, rnd):
        g = S.random_flag_complex(n, p, seed)
        verts = list(g.vertices)
        domain = rnd.sample(verts, rnd.randint(1, n))
        mapping = dict(zip(domain, rnd.sample(verts, len(domain))))
        v = S.validate_automorphism(g, Automorphism(mapping))
        want = first_map_violation(g, mapping)
        if want is None:
            assert v.is_yes
        else:
            assert v.is_no and v.witness == MapViolation(*want)

    def test_perturbed_translations_match_all_pairs_scan(self):
        # torus translations with a few images dropped and a few swapped:
        # swaps break edges and create them, and the witness must be the
        # first pair that the scan of every pair finds
        kinds = set()
        for seed in range(60):
            rnd = random.Random(seed)
            p, q = rnd.choice([(4, 4), (4, 6), (5, 5)])
            g = S.hex_torus(p, q)
            mapping = dict(S.torus_translation(g, p, q).mapping)
            for u in rnd.sample(sorted(mapping), rnd.randint(0, 3)):
                del mapping[u]
            for _ in range(rnd.randint(0, 2)):
                a, b = rnd.sample(sorted(mapping), 2)
                mapping[a], mapping[b] = mapping[b], mapping[a]
            v = S.validate_automorphism(g, Automorphism(mapping))
            want = first_map_violation(g, mapping)
            if want is None:
                assert v.is_yes
            else:
                assert v.is_no and v.witness == MapViolation(*want)
            kinds.add(None if want is None else want[0])
        assert kinds == {None, "edge_broken", "edge_created"}

    def test_unknown_image_detected(self, octa):
        v = S.validate_automorphism(octa, Automorphism({0: 77}))
        assert v.is_no and v.witness.kind == "unknown_image"


class TestDisplacement:
    def test_octahedron_antipodal(self, octa):
        prof = S.displacement_profile(octa, S.octahedron_antipodal())
        assert prof.translation_length == 2
        assert prof.values == {v: 2 for v in octa.vertices}
        assert prof.min_vertices == tuple(octa.vertices)

    def test_window_translation(self, window10):
        t1 = S.lattice_translation(window10, 1)
        prof = S.displacement_profile(window10, t1)
        assert prof.translation_length == 1
        assert set(prof.values.values()) == {1}
        # exactly the trusted vertices whose translate stays trusted
        trusted = window10.trusted_vertices
        expected = sum(
            1
            for v in trusted
            if t1.defined(v) and t1.mapping[v] in trusted
        )
        assert len(prof.values) == expected

    def test_glide_strip(self, window10):
        glide = S.lattice_glide(window10)
        prof = S.displacement_profile(window10, glide)
        assert prof.translation_length == 1
        rows = {window10.coord_of[v][1] for v in prof.min_vertices}
        assert rows == {0, 1}
        # rows away from the strip move at least 3
        others = [d for v, d in prof.values.items() if window10.coord_of[v][1] not in (0, 1)]
        assert others and min(others) >= 3

    def test_identity_profile(self, octa):
        prof = S.displacement_profile(octa, Automorphism.identity(octa))
        assert prof.translation_length == 0

    def test_infinite_displacement_raises_on_a_finite_complex(self):
        # a finite complex trusts every distance, so a vertex sent into
        # another component is an error rather than a skip
        two_edges = S.FlagComplex(range(4), [(0, 1), (2, 3)])
        swap = Automorphism({0: 2, 1: 3, 2: 0, 3: 1}, "swap")
        with pytest.raises(ComplexError, match="different components"):
            S.displacement_profile(two_edges, swap)

    def test_displacement_past_the_margin_is_skipped_on_a_window(self, window10):
        prof = S.displacement_profile(window10, S.lattice_translation(window10, 6))
        assert prof.values == {} and prof.translation_length == INF
        assert prof.skipped == len(window10.trusted_vertices)


# maps a lattice window may declare, by name
DECLARABLE = {
    "t1": lambda w: S.lattice_translation(w, 1),
    "t-2": lambda w: S.lattice_translation(w, -2),
    "row": _row_translation,
    "glide": S.lattice_glide,
}
# the maps whose profile is compared
LATTICE_MAPS = {
    "t1": lambda w: S.lattice_translation(w, 1),
    "glide": S.lattice_glide,
    "glide2": lambda w: S.lattice_glide(w).power(2),
}


def _declaring(w, names):
    """The window w declaring the named maps of ``DECLARABLE`` instead of
    its own."""
    maps = tuple(DECLARABLE[n] for n in names)
    return WindowView(w.vertices, w.edges(), w.basepoint, w.radius, w.margin, w.coord_of, maps)


def _counting_capped_queries(x):
    """A list that grows by one at each capped distance query on x."""
    calls = []
    capped = x.oracle.distance_capped

    def counted(u, v, cap):
        calls.append(u)
        return capped(u, v, cap)

    x.oracle.distance_capped = counted
    return calls


class TestCarriedProfile:
    """The profile copies a displacement along each verified declared map
    that commutes with h, and equals one plain search per vertex."""

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_lattice_windows(self, data):
        radius = data.draw(st.integers(min_value=2, max_value=9), label="radius")
        margin = data.draw(st.integers(min_value=1, max_value=radius), label="margin")
        x = S.triangular_lattice_window(radius, margin)
        names = data.draw(st.none() | st.lists(st.sampled_from(sorted(DECLARABLE)), unique=True,
                                               max_size=3), label="declared")
        if names is not None:
            x = _declaring(x, names)
        h = LATTICE_MAPS[data.draw(st.sampled_from(sorted(LATTICE_MAPS)), label="map")](x)
        assert S.displacement_profile(x, h) == reference_displacement_profile(x, h)

    @given(st.integers(min_value=4, max_value=9), st.integers(min_value=4, max_value=9),
           st.integers(min_value=1, max_value=3), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_hex_tori(self, p, q, power, both):
        x = S.hex_torus(p, q)
        if both:
            up = Automorphism({a * q + b: a * q + (b + 1) % q for a in range(p) for b in range(q)})
            x = FlagComplex(x.vertices, x.edges(), (*x.symmetries, lambda _x: up))
        h = S.torus_translation(x, p, q).power(power)
        assert S.displacement_profile(x, h) == reference_displacement_profile(x, h)

    @pytest.mark.parametrize("which, queries, values", [("t1", 1, 114), ("glide", 12, 46)])
    def test_few_queries_on_a_window(self, which, queries, values):
        x = S.triangular_lattice_window(10, 4)
        calls = _counting_capped_queries(x)
        prof = S.displacement_profile(x, LATTICE_MAPS[which](x))
        assert len(prof.values) == values
        # t1 and the row translation carry every answer of t1 from the first
        # one; the glide commutes with t1 only, so each row of the trusted
        # region with a trusted image opens with a query
        assert len(calls) == queries

    def test_only_maps_that_commute_with_h_carry(self):
        x = S.triangular_lattice_window(10, 4)
        glide = S.lattice_glide(x)
        # t1 commutes with the glide; the row translation does not
        maps = _verified_maps(x)
        assert len(maps) == 2
        assert _commuting_maps(x, glide) == maps[:1]
        assert _commuting_maps(x, S.lattice_translation(x, 1)) == maps
        assert len(S.min_set(x, glide).vertices) == 24
        assert S.displacement_profile(x, glide) == reference_displacement_profile(x, glide)

    def test_a_map_that_fails_its_check_carries_nothing(self):
        # the path 0-1-2-3 declaring the cyclic shift 0 -> 1 -> 2 -> 3 -> 0,
        # which breaks the edge 2-3 and commutes with itself; carried, it
        # would copy the displacement 1 of vertex 2 onto vertex 3
        shift = Automorphism({0: 1, 1: 2, 2: 3, 3: 0}, "shift")
        x = FlagComplex(range(4), [(0, 1), (1, 2), (2, 3)], (lambda _x: shift,))
        assert S.validate_automorphism(x, shift).is_no
        assert _transport_table(x) == []
        prof = S.displacement_profile(x, shift)
        assert prof == reference_displacement_profile(x, shift)
        assert prof.values == {0: 1, 1: 1, 2: 1, 3: 3}


def _counted(edges, n):
    """The flag complex on range(n) with ``edges`` declaring its identity,
    and the list of the complexes the declared function was called on."""
    calls = []

    def identity(x):
        calls.append(x)
        return Automorphism.identity(x)

    return FlagComplex(range(n), edges, (identity,)), calls


# scans of the 5-wheel (hub 0, rim 1..5) that pass their first source
PASSING_SCANS = [
    lambda x: first_link_cycle(x, 4),
    S.sphere_domination_everywhere,
    lambda x: S.displacement_profile(x, Automorphism({0: 0, 1: 2, 2: 3, 3: 4, 4: 5, 5: 1})),
    lambda x: S.isometric_embedding_check(x, x.span(range(1, 6))),
]


class TestLazyTable:
    """The transport table is built at the first source a scan asks about
    while one has passed: never when the scan stops at its first source or
    has one source only, once per complex otherwise."""

    @pytest.mark.parametrize("edges, n, scan", [
        # the hub of wheel(4) has a 4-cycle link
        (S.wheel(4).edges(), 5, lambda x: first_link_cycle(x, 4)),
        # sphere 2 of the octahedron's vertex 0 has a 4-cycle as inner set
        (S.octahedron().edges(), 6, S.sphere_domination_everywhere),
        ([(0, 1)], 2, lambda x: S.displacement_profile(x, Automorphism({0: 1}))),
        ([(0, 1)], 2, lambda x: S.displacement_profile(x, Automorphism({}))),
    ])
    def test_a_scan_that_stops_at_its_first_source_builds_nothing(self, edges, n, scan):
        x, calls = _counted(edges, n)
        scan(x)
        assert calls == []

    @pytest.mark.parametrize("scan", PASSING_SCANS)
    def test_one_build_per_complex_otherwise(self, scan):
        x, calls = _counted(S.wheel(5).edges(), 6)
        scan(x)
        assert calls == [x]
        for other in PASSING_SCANS:
            other(x)
        assert calls == [x]


class TestInvariantSimplex:
    def test_total_no_is_decisive(self, octa):
        v = S.find_invariant_simplex(octa, S.octahedron_antipodal())
        assert v.is_no

    def test_rotation_orbit_clique(self):
        tri = S.complete(3)
        rot = Automorphism({0: 1, 1: 2, 2: 0})
        v = S.find_invariant_simplex(tri, rot)
        assert v.is_yes and v.witness == (0, 1, 2)
        assert S.is_invariant_simplex(tri, rot, v.witness)

    def test_fixed_vertex(self):
        w = S.wheel(6)
        rot = Automorphism({0: 0, **{i: i % 6 + 1 for i in range(1, 7)}})
        v = S.find_invariant_simplex(w, rot)
        assert v.is_yes and v.witness == (0,)

    def test_window_is_unknown_without_witness(self, window10):
        t1 = S.lattice_translation(window10, 1)
        assert S.find_invariant_simplex(window10, t1).is_unknown

    def test_matches_brute_force(self, small_corpus):
        for name, g in small_corpus.items():
            if g.n_vertices > 9:
                continue
            for mapping in all_automorphisms(g):
                h = Automorphism(mapping)
                v = S.find_invariant_simplex(g, h)
                brute = brute_force_invariant_simplices(g, mapping)
                assert v.is_yes == bool(brute), (name, mapping)
                if v.is_yes:
                    assert v.witness in brute

    def test_validator_rejects(self, octa):
        anti = S.octahedron_antipodal()
        assert not S.is_invariant_simplex(octa, anti, (0,))
        assert not S.is_invariant_simplex(octa, anti, (0, 1))  # not a clique


class TestClassify:
    def test_corpus_table(self, octa, torus44, window10):
        def kind_and_length(x, h):
            v = S.classify(x, h)
            assert v.is_yes and v.witness is None
            return v.detail["kind"], v.detail["translation_length"]

        assert kind_and_length(octa, S.octahedron_antipodal()) == ("hyperbolic", 2)
        assert kind_and_length(torus44, S.torus_translation(torus44, 4, 4)) == ("hyperbolic", 1)
        tri = S.classify(S.complete(3), Automorphism({0: 1, 1: 2, 2: 0}))
        assert tri.detail["kind"] == "elliptic" and tri.detail["invariant_simplex"] == (0, 1, 2)
        t1 = S.lattice_translation(window10, 1)
        assert kind_and_length(window10, t1) == ("unknown_on_window", 1)
        glide = S.lattice_glide(window10)
        assert kind_and_length(window10, glide) == ("unknown_on_window", 1)


class TestMinSet:
    def test_antipodal_min_is_everything(self, octa):
        m = S.min_set(octa, S.octahedron_antipodal())
        assert m.vertices == octa.vertices

    def test_glide_min_is_the_strip(self, window10):
        m = S.min_set(window10, S.lattice_glide(window10))
        rows = {window10.coord_of[v][1] for v in m.vertices}
        assert rows == {0, 1}
        assert len(m.connected_components()) == 1

    def test_rejects_fixed_vertex(self, octa):
        with pytest.raises(ComplexError):
            S.min_set(octa, Automorphism.identity(octa))

    def test_one_min_complex_per_map(self, window10):
        glide = S.lattice_glide(window10)
        assert S.min_set(window10, glide) is S.min_set(window10, glide)

    def test_the_min_complex_declares_the_commuting_restrictions(self):
        x = S.triangular_lattice_window(10, 4)
        m = S.min_set(x, S.lattice_translation(x, 1))
        # both declared translations commute with t1, so both keep Min(t1)
        assert len(m.symmetries) == 2
        for f in m.symmetries:
            # the declared function holds its mapping and nothing else
            assert [type(c.cell_contents) for c in f.__closure__] == [dict]
            g = f(m)
            assert S.validate_automorphism(m, g).is_yes
            assert set(g.mapping) | set(g.inverse_mapping) <= set(m.vertices)
        assert len(_transport_table(m)) == 4
        # the glide keeps only t1, restricted to its two-row strip
        strip = S.min_set(x, S.lattice_glide(x))
        (f,) = strip.symmetries
        t1 = S.lattice_translation(x, 1).mapping
        assert f(strip).mapping == {v: t1[v] for v in strip.vertices if t1.get(v) in strip}

    def test_a_complex_without_maps_gives_a_min_complex_without_maps(self, octa):
        assert S.min_set(octa, S.octahedron_antipodal()).symmetries == ()

    def test_idempotence_on_corpus(self, hyperbolic_corpus):
        for name, g, h in hyperbolic_corpus:
            assert S.min_set_idempotence(g, h).is_yes, name

    def test_idempotence_rejects_identity(self, octa):
        with pytest.raises(ComplexError):
            S.min_set_idempotence(octa, Automorphism.identity(octa))


class TestChains:
    def test_equivariance(self, hyperbolic_corpus):
        for name, g, h in hyperbolic_corpus:
            chain = S.orbit_path(g, h)
            vs, L = chain.vertices, chain.period
            for i, u in enumerate(vs[:-L]):
                if h.defined(u):
                    assert vs[i + L] == h.mapping[u], name

    def test_chain_consecutive_adjacent(self, hyperbolic_corpus):
        for name, g, h in hyperbolic_corpus:
            chain = S.orbit_path(g, h)
            vs = chain.vertices
            assert all(g.adjacent(a, b) for a, b in zip(vs, vs[1:])), name

    def test_a1_chain_is_global_geodesic(self):
        line, shift = S.thick_line(1, 12)
        chain = S.orbit_path(line, shift)
        assert S.verify_local_geodesic(line, chain).is_yes

    def test_a2_chain_fails_beyond_gap_one(self):
        line, shift = S.thick_line(2, 12)
        chain = S.orbit_path(line, shift)
        assert S.verify_local_geodesic(line, chain, gap=1).is_yes
        v = S.verify_local_geodesic(line, chain, gap=2)
        assert v.is_no
        assert v.witness.expected == 2 and v.witness.actual == 1
        assert S.chain_gap_violation_holds(line, v.witness)

    def test_window_chain_trust_filtering(self, window10):
        t1 = S.lattice_translation(window10, 1)
        chain = S.orbit_path(window10, t1)
        v = S.verify_local_geodesic(window10, chain)
        assert v.is_yes
        assert v.detail["pairs"] > 0

    def test_orbit_path_rejects_bad_alpha(self, octa):
        anti = S.octahedron_antipodal()
        with pytest.raises(ComplexError, match="not minimal"):
            S.orbit_path(octa, anti, 0, (0, 4, 3, 1))  # too long
        with pytest.raises(ComplexError, match="not minimal"):
            S.orbit_path(octa, anti, 0, (0, 1))  # too short
        with pytest.raises(ComplexError, match="not a path"):
            S.orbit_path(octa, anti, 0, (0, 0, 1))  # 0-0 is no edge
        with pytest.raises(ComplexError, match="from v to h"):
            S.orbit_path(octa, anti, 0, (1, 3, 0))  # does not start at v


def _chain_or_error(build, *args):
    try:
        return build(*args)
    except ComplexError as exc:
        return f"error: {exc}"


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_orbit_path_matches_the_two_walk_reference(hyperbolic_corpus, data):
    """The one orbit walk builds the chain the forward and backward walks of
    the reference stitch together, or fails with the same message."""
    name, x, h = data.draw(st.sampled_from(hyperbolic_corpus))
    prof = S.displacement_profile(x, h)
    v = data.draw(st.sampled_from((None,) + prof.min_vertices[:4]))
    want = _chain_or_error(reference_orbit_path, x, h, v)
    assert _chain_or_error(S.orbit_path, x, h, v) == want, (name, v)


@given(st.integers(min_value=0, max_value=3), st.integers(min_value=-3, max_value=3))
@settings(max_examples=20, deadline=None)
def test_power_group_law(k, n):
    g = S.cycle(7)
    rot = S.cycle_rotation(7)
    hk = rot.power(k)
    hn = rot.power(n)
    combined = {v: hn.mapping[hk.mapping[v]] for v in g.vertices}
    assert combined == rot.power(k + n).mapping
