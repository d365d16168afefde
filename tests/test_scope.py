"""A finite complex is a window that trusts everything.

Every complex carries its trust as ``trusted_vertices`` and ``margin``, and
a finite complex g has every vertex and INF.  These properties check that
every scan gives the same result on g as on ``WindowView(g.vertices,
g.edges(), v0, ecc(v0) + M, M)`` with M = 10 n: a window whose trusted region
is every vertex and whose margin exceeds every distance and every index gap
of an orbit chain.  A margin equal
to the diameter would be too small, because ``gap=None`` chain checks skip
index gaps above the margin.
"""

import pytest
from hypothesis import given, settings, strategies as st

import systolic as S
from systolic import WindowView


def all_trusted_window(g):
    m = 10 * g.n_vertices
    v0 = g.vertices[0]
    return WindowView(g.vertices, g.edges(), v0, int(g.eccentricity(v0)) + m, m)


def test_the_window_trusts_every_vertex(octa):
    x = all_trusted_window(octa)
    assert x.trusted_vertices == octa.trusted_vertices == frozenset(octa.vertices)


CONDITIONS = [
    S.triangle_condition,
    S.quadrangle_condition,
    S.sphere_domination_everywhere,
    lambda x: S.enumerate_full_cycles(x, 8),
    lambda x: S.systole(x, 8),
    lambda x: S.is_k_large(x, 6),
    lambda x: S.is_locally_k_large(x, 7),
    S.extended_wheel_condition,
    lambda x: S.is_weakly_systolic(x, "graph"),
]


@given(
    st.integers(min_value=1, max_value=14),
    st.floats(min_value=0.15, max_value=0.8),
    st.integers(min_value=0, max_value=5_000),
)
@settings(max_examples=60, deadline=None)
def test_conditions_agree_on_random_complexes(n, p, seed):
    g = S.random_flag_complex(n, p, seed)
    if len(g.connected_components()) != 1:
        return
    x = all_trusted_window(g)
    for check in CONDITIONS:
        assert check(g) == check(x), check


def _hex_torus_translate():
    g = S.hex_torus(6, 6)
    return g, S.torus_translation(g, 6, 6)


NAMED_MAPS = {
    "hex_torus_6x6/translate": _hex_torus_translate,
    "cycle_9/rotate": lambda: (S.cycle(9), S.cycle_rotation(9)),
    "thick_line_k2_n10/shift": lambda: S.thick_line(2, 10),
    "octahedron/antipodal": lambda: (S.octahedron(), S.octahedron_antipodal()),
}

MAP_CHECKS = [
    S.displacement_profile,
    S.classify,
    S.min_set_idempotence,
    S.find_invariant_simplex,
    lambda x, h: S.verify_local_geodesic(x, S.orbit_path(x, h)),
    lambda x, h: S.isometric_embedding_check(x, S.min_set(x, h)),
    S.dichotomy_report,
    S.invariant_geodesic_search,
]


@pytest.mark.parametrize("name", sorted(NAMED_MAPS))
def test_map_checks_agree_on_named_maps(name):
    g, h = NAMED_MAPS[name]()
    x = all_trusted_window(g)
    for check in MAP_CHECKS:
        assert check(g, h) == check(x, h), check
