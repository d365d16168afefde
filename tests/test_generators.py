import math

import pytest
from hypothesis import given, settings, strategies as st

import systolic as S
from systolic import ComplexError
from systolic.generators import AXIAL_DIRECTIONS, hex_distance

coords = st.tuples(st.integers(-8, 8), st.integers(-8, 8))


class TestHexMetric:
    @given(coords, coords)
    def test_symmetry(self, a, b):
        assert hex_distance(a[0] - b[0], a[1] - b[1]) == hex_distance(
            b[0] - a[0], b[1] - a[1]
        )

    @given(coords, coords, coords)
    @settings(max_examples=200)
    def test_triangle_inequality(self, a, b, c):
        ab = hex_distance(a[0] - b[0], a[1] - b[1])
        bc = hex_distance(b[0] - c[0], b[1] - c[1])
        ac = hex_distance(a[0] - c[0], a[1] - c[1])
        assert ac <= ab + bc

    def test_unit_steps(self):
        for dq, dr in AXIAL_DIRECTIONS:
            assert hex_distance(dq, dr) == 1

    @given(coords)
    def test_zero_iff_origin(self, a):
        assert (hex_distance(*a) == 0) == (a == (0, 0))


class TestLatticeWindow:
    @pytest.mark.parametrize("radius", [1, 2, 3, 5, 8])
    def test_vertex_count(self, radius):
        win = S.triangular_lattice_window(radius, min(radius, 1))
        assert win.n_vertices == 1 + 3 * radius * (radius + 1)

    def test_ids_row_major(self, window10):
        seen = [window10.coord_of[v] for v in sorted(window10.vertices)]
        assert seen == sorted(seen, key=lambda c: (c[1], c[0]))

    def test_graph_metric_matches_hex_metric_when_trusted(self, window10):
        g, region, bound = window10, window10.trusted_vertices, window10.margin
        trusted = sorted(region)
        for u in trusted[::9]:
            qu, ru = window10.coord_of[u]
            ball = g.oracle.ball(u, bound)
            for v in trusted[::7]:
                qv, rv = window10.coord_of[v]
                if ball.get(v, math.inf) <= bound:
                    assert ball[v] == hex_distance(qu - qv, ru - rv)

    def test_interior_links_are_hexagons(self, window10):
        base = window10.basepoint
        link = window10.link((base,))
        assert link.n_vertices == 6
        assert sorted(len(link.neighbors(v)) for v in link.vertices) == [2] * 6

    def test_rejects_bad_parameters(self):
        with pytest.raises(ComplexError):
            S.triangular_lattice_window(0, 0)
        with pytest.raises(ComplexError):
            S.triangular_lattice_window(3, 4)  # margin exceeds radius
        with pytest.raises(ComplexError):
            S.triangular_lattice_window(3, 0)

    def test_translation_displacement_constant_on_trusted(self, window10):
        t2 = S.lattice_translation(window10, 2)
        prof = S.displacement_profile(window10, t2)
        assert set(prof.values.values()) == {2}

    def test_translation_rejects_zero(self, window10):
        with pytest.raises(ComplexError):
            S.lattice_translation(window10, 0)

    def test_glide_moves_bottom_rows_by_one(self, window10):
        glide = S.lattice_glide(window10)
        prof = S.displacement_profile(window10, glide)
        for v, d in prof.values.items():
            r = window10.coord_of[v][1]
            if r in (0, 1):
                assert d == 1
            else:
                assert d >= 3


class TestThickLine:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_distances_match_closed_form(self, k):
        line, _ = S.thick_line(k, 10)
        from _oracles import thick_line_distance

        vs = sorted(line.vertices)
        for a in vs[:: max(1, len(vs) // 12)]:
            for b in vs[:: max(1, len(vs) // 12)]:
                assert line.oracle.distance(a, b) == thick_line_distance(k, a, b)

    def test_shift_moves_by_k(self):
        line, shift = S.thick_line(2, 10)
        prof = S.displacement_profile(line, shift)
        assert set(prof.values.values()) == {1}
        assert prof.translation_length == 1

    def test_rejects_short_windows(self):
        with pytest.raises(ComplexError):
            S.thick_line(2, 2)
        with pytest.raises(ComplexError):
            S.thick_line(0, 5)


class TestHexTorus:
    def test_shape(self, torus44):
        assert torus44.n_vertices == 16
        assert sum(1 for _ in torus44.edges()) == 48
        for v in torus44.vertices:
            link = torus44.link((v,))
            assert link.n_vertices == 6
            assert sorted(len(link.neighbors(u)) for u in link.vertices) == [2] * 6

    def test_translation_is_fixed_point_free(self, torus44):
        t = S.torus_translation(torus44, 4, 4)
        prof = S.displacement_profile(torus44, t)
        assert 0 not in prof.values.values()

    def test_rejects_small_parameters(self):
        with pytest.raises(ComplexError):
            S.hex_torus(3, 4)
        with pytest.raises(ComplexError):
            S.hex_torus(4, 3)


class TestPlatonic:
    def test_octahedron_shape(self, octa):
        assert octa.n_vertices == 6
        assert all(len(octa.neighbors(v)) == 4 for v in octa.vertices)
        assert len(octa.maximal_cliques()) == 8

    def test_antipodal_is_fixed_point_free_involution(self, octa):
        h = S.octahedron_antipodal()
        assert all(h(h(v)) == v and h(v) != v for v in octa.vertices)

    def test_icosahedron_shape(self, icosa):
        assert icosa.n_vertices == 12
        assert all(len(icosa.neighbors(v)) == 5 for v in icosa.vertices)
        for v in icosa.vertices:
            link = icosa.link((v,))
            assert sorted(len(link.neighbors(u)) for u in link.vertices) == [2] * 5


class TestSmallFamilies:
    def test_cycle(self):
        c = S.cycle(5)
        assert c.n_vertices == 5 and sum(1 for _ in c.edges()) == 5
        with pytest.raises(ComplexError):
            S.cycle(2)

    def test_cycle_rotation_order(self):
        rot = S.cycle_rotation(6)
        assert all(rot.power(6)(v) == v for v in range(6))
        assert any(rot.power(3)(v) != v for v in range(6))

    def test_complete(self):
        k = S.complete(4)
        assert sum(1 for _ in k.edges()) == 6
        assert k.maximal_cliques() == [(0, 1, 2, 3)]
        with pytest.raises(ComplexError):
            S.complete(0)

    def test_wheel(self):
        w = S.wheel(5)
        assert len(w.neighbors(0)) == 5
        assert all(len(w.neighbors(v)) == 3 for v in range(1, 6))
        with pytest.raises(ComplexError):
            S.wheel(3)

    def test_extended_wheel_shapes(self):
        bare = S.extended_wheel5(False)
        assert bare.n_vertices == 7
        assert set(bare.neighbors(6)) == {1, 2}
        dom = S.extended_wheel5(True)
        assert dom.n_vertices == 8
        assert set(dom.neighbors(7)) >= {1, 2, 3, 4, 5}

    def test_cone(self):
        c4 = S.cycle(4)
        cone = S.cone(c4)
        apex = max(cone.vertices)
        assert set(cone.neighbors(apex)) == set(c4.vertices)


class TestRandom:
    def test_seed_determinism(self):
        a = S.random_flag_complex(15, 0.4, seed=3)
        b = S.random_flag_complex(15, 0.4, seed=3)
        assert list(a.edges()) == list(b.edges())
        c = S.random_flag_complex(15, 0.4, seed=4)
        assert list(a.edges()) != list(c.edges())

    def test_probability_extremes(self):
        assert sum(1 for _ in S.random_flag_complex(8, 0.0, seed=1).edges()) == 0
        assert sum(1 for _ in S.random_flag_complex(8, 1.0, seed=1).edges()) == 28

    def test_rejects_bad_probability(self):
        with pytest.raises(ComplexError):
            S.random_flag_complex(5, 1.5, seed=0)

    def test_frozen_sample(self):
        # pinned to the MT19937 stream so cross-platform drift is caught
        g = S.random_flag_complex(6, 0.5, seed=42)
        assert list(g.edges()) == [
            (0, 2),
            (0, 3),
            (0, 4),
            (1, 4),
            (1, 5),
            (2, 3),
            (2, 4),
            (3, 4),
            (3, 5),
        ]
