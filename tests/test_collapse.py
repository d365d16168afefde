import itertools
import os

import pytest
from hypothesis import given, settings, strategies as st

import systolic as S
import systolic.collapse
from systolic import FlagComplex
from systolic.collapse import (
    DEFAULT_BUDGET,
    _smith_diagonal,
    all_simplices,
    collapse_to_point,
    strong_core,
)
from systolic.io import parse_complex_file

from _oracles import (
    collapse_first_oracle,
    cycle_space_rank_mod2,
    dense_first_homology,
    invariant_factors,
    naive_greedy_collapse,
    replay_strong_collapses,
    smith_diagonal,
)

# A connected, locally 6-large random complex with betti1 = 1: when the collapse
# search came before homology and backtracked over collapse orders, it spent
# its whole budget here.
BACKTRACK = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "backtrack_s1.txt")

# The 6-vertex real projective plane.
RP2_TRIANGLES = [(1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 2, 6),
                 (2, 3, 5), (2, 4, 5), (2, 4, 6), (3, 4, 6), (3, 5, 6)]


def flag_rp2() -> FlagComplex:
    """Barycentric subdivision of the 6-vertex RP^2 (31 vertices): the flag
    complex of its face poset.  H1 = Z/2."""
    faces = sorted(
        {frozenset(f) for t in RP2_TRIANGLES for k in (1, 2, 3) for f in itertools.combinations(t, k)},
        key=lambda f: (len(f), sorted(f)),
    )
    return FlagComplex(range(len(faces)), [
        (i, j) for i, a in enumerate(faces) for j, b in enumerate(faces) if a < b
    ])


def disjoint_union(a: FlagComplex, b: FlagComplex) -> FlagComplex:
    """a beside a copy of b whose vertices are moved past a's."""
    shift = max(a.vertices) + 1
    return FlagComplex(
        list(a.vertices) + [v + shift for v in b.vertices],
        list(a.edges()) + [(u + shift, v + shift) for u, v in b.edges()],
    )


# (n1, n2, p, seed): a random flag complex on n1 vertices, disjoint from a
# second one on n2 vertices when n2 > 0; at most 14 vertices in all.
union_params = st.tuples(
    st.integers(min_value=1, max_value=14),
    st.integers(min_value=0, max_value=13),
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(min_value=0, max_value=10_000),
)


# (n, p, seed, budget) for the greedy collapse pass; p stays below 0.7 to keep
# the naive reference quick.
greedy_params = st.tuples(
    st.integers(min_value=1, max_value=12),
    st.floats(min_value=0.0, max_value=0.7),
    st.integers(min_value=0, max_value=10_000),
    st.one_of(st.integers(min_value=0, max_value=60), st.just(DEFAULT_BUDGET)),
)


def random_union(n1: int, n2: int, p: float, seed: int) -> FlagComplex:
    n2 = min(n2, 14 - n1)
    g = S.random_flag_complex(n1, p, seed)
    if n2:
        g = disjoint_union(g, S.random_flag_complex(n2, p, seed + 1))
    return g


class TestAllSimplices:
    def test_octahedron_count(self, octa):
        simp = all_simplices(octa)
        # 6 vertices + 12 edges + 8 triangles
        assert len(simp) == 26

    def test_cap_returns_none(self, octa, monkeypatch):
        monkeypatch.setattr(systolic.collapse, "_SIMPLEX_CAP", 10)
        assert all_simplices(octa) is None

    def test_a_large_simplex_stops_the_walk(self, monkeypatch):
        # a 19-clique has 2^19 - 1 faces, more than the cap of 500,000, so
        # the walk stops at the first one: (0, ..., 18) on K_40
        walked = []
        original = FlagComplex.cliques

        def counted(x, max_size=None):
            for c in original(x, max_size):
                walked.append(c)
                yield c

        monkeypatch.setattr(FlagComplex, "cliques", counted)
        assert all_simplices(S.complete(40)) is None
        assert walked[-1] == tuple(range(19)) and len(walked) == 19

    def test_a_simplex_under_the_cap_is_walked_whole(self, monkeypatch):
        # a 5-clique has 31 faces: the cap of 31 keeps them, 30 does not
        monkeypatch.setattr(systolic.collapse, "_SIMPLEX_CAP", 31)
        assert len(all_simplices(S.complete(5))) == 31
        monkeypatch.setattr(systolic.collapse, "_SIMPLEX_CAP", 30)
        assert all_simplices(S.complete(5)) is None


class TestCollapse:
    def test_single_simplex(self):
        assert collapse_to_point(S.complete(4)).is_yes

    def test_single_vertex(self):
        assert collapse_to_point(FlagComplex([0], [])).is_yes

    def test_cone_always_collapses(self, small_corpus):
        for name, g in small_corpus.items():
            coned = S.cone(g)
            assert collapse_to_point(coned).is_yes, name

    def test_disk_collapses(self, window10):
        assert collapse_to_point(window10).is_yes

    def test_cycle_does_not_collapse(self):
        v = collapse_to_point(S.cycle(6))
        assert v.is_no  # no triangles at all: no face is free at the start

    def test_octahedron_is_stuck(self, octa):
        # a 2-sphere has no free faces; collapse cannot start
        v = collapse_to_point(octa)
        assert not v.is_yes

    def test_budget_exhaustion_is_unknown(self, window10):
        v = collapse_to_point(window10, budget=5)
        assert v.is_unknown

    def test_stall_is_unknown_at_once(self):
        # 48 simplices and H1 = 0, but the greedy pass stalls; no other
        # collapse order is searched, so the budget is not spent
        g = S.random_flag_complex(8, 0.5, 39)
        v = collapse_to_point(g)
        assert v.is_unknown and v.reason == "greedy collapse stalled"
        v = S.simple_connectivity_oracle(g)
        assert v.is_unknown
        assert v.reason == "greedy collapse stalled; first homology vanishes"

    @given(greedy_params)
    @settings(max_examples=100, deadline=None)
    def test_matches_naive_greedy(self, params):
        n, p, seed, budget = params
        g = S.random_flag_complex(n, p, seed)
        outcome, steps = naive_greedy_collapse(g, budget)
        v = collapse_to_point(g, budget)
        assert v.is_yes == (outcome == "point")
        if v.is_yes:
            assert v.detail["steps"] == steps
        assert v.is_no == (outcome == "stalled" and steps == 0)
        assert (v.reason == "collapse budget exhausted") == (outcome == "budget")


class TestHomology:
    def test_tree_trivial(self):
        g = FlagComplex(range(5), [(0, 1), (1, 2), (2, 3), (3, 4)])
        assert S.first_homology(g) == (0, [])

    @pytest.mark.parametrize("n", range(5))
    def test_edgeless_trivial(self, n):
        assert S.first_homology(FlagComplex(range(n), [])) == (0, [])

    def test_cycle_is_z(self):
        assert S.first_homology(S.cycle(7)) == (1, [])

    def test_torus_is_z2(self, torus44):
        assert S.first_homology(torus44) == (2, [])

    def test_sphere_trivial(self, octa):
        assert S.first_homology(octa) == (0, [])

    def test_filled_triangles_do_not_count(self):
        # both 3-cycles span triangles in a flag complex, so H1 vanishes
        g = FlagComplex(range(7), [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0), (0, 5), (5, 6)])
        assert S.first_homology(g) == (0, [])

    def test_betti_matches_mod2_rank(self, small_corpus):
        # betti1 = E - rank(d1) - rank(d2); over small complexes without
        # torsion the GF(2) triangle-span rank agrees with rank(d2)
        for name, g in small_corpus.items():
            b1, torsion = S.first_homology(g)
            assert torsion == [], name
            triangles = [c for c in g.cliques(max_size=3) if len(c) == 3]
            rank2 = cycle_space_rank_mod2(g, triangles)
            n_comp = len(g.connected_components())
            rank1 = g.n_vertices - n_comp
            assert b1 == g.n_edges - rank1 - rank2, name

    @pytest.mark.parametrize("p", [4, 5, 6, 7])
    def test_hex_torus_matches_dense(self, p):
        torus = S.hex_torus(p, p)
        assert S.first_homology(torus) == dense_first_homology(torus) == (2, [])

    def test_octahedron_matches_dense(self, octa):
        assert S.first_homology(octa) == dense_first_homology(octa) == (0, [])

    def test_flag_rp2_has_z2_torsion(self):
        rp2 = flag_rp2()
        assert rp2.n_vertices == 31
        assert S.first_homology(rp2) == dense_first_homology(rp2) == (0, [2])

    def test_two_disjoint_cycles(self):
        g = disjoint_union(S.cycle(4), S.cycle(5))
        assert S.first_homology(g) == dense_first_homology(g) == (2, [])

    @given(union_params)
    @settings(max_examples=60, deadline=None)
    def test_matches_dense_reference(self, params):
        g = random_union(*params)
        assert S.first_homology(g) == dense_first_homology(g)


# non-units, so a pivot can leave a remainder or fail to divide the rest
small_entries = st.sampled_from([0, 1, -1, 2, -2, 3, 4, -4, 6, 9])
small_matrices = st.integers(min_value=1, max_value=4).flatmap(
    lambda nc: st.lists(
        st.lists(small_entries, min_size=nc, max_size=nc), min_size=1, max_size=4
    )
)


class TestSmithForm:
    """The dense Smith normal form against determinantal divisors.  Boundary
    matrices of the benchmark's complexes leave it only zero residuals, so
    these are the tests that reach its re-pivot and divisibility steps."""

    @pytest.mark.parametrize(
        "rows, factors",
        [
            ([[2, 3]], [1]),  # the column remainder 1 survives: re-pivot
            ([[2, 0], [0, 3]], [1, 6]),  # 2 does not divide 3: fold the row in
            ([[-4, 6], [6, 9]], [1, 72]),
            ([[0, 0, 0], [0, 0, 0]], []),
            ([[], []], []),
            ([], []),
        ],
    )
    def test_named_matrices(self, rows, factors):
        assert _smith_diagonal(rows) == smith_diagonal(rows) == factors
        if rows and rows[0]:
            assert invariant_factors(rows) == factors

    @given(small_matrices)
    @settings(max_examples=400, deadline=None)
    def test_matches_determinantal_divisors(self, rows):
        before = [row[:] for row in rows]
        assert _smith_diagonal(rows) == smith_diagonal(rows) == invariant_factors(rows)
        assert rows == before


class TestOracle:
    def test_disconnected_is_no(self):
        g = FlagComplex([0, 1, 2, 3], [(0, 1), (2, 3)])
        v = S.simple_connectivity_oracle(g)
        assert v.is_no and v.witness == (0, 2)

    def test_collapse_gives_yes(self, small_corpus):
        v = S.simple_connectivity_oracle(small_corpus["cone_c6"])
        assert v.is_yes and v.reason == "collapsed to a point"

    def test_homology_gives_no(self, torus44):
        v = S.simple_connectivity_oracle(torus44)
        assert v.is_no
        assert v.witness == {"betti1": 2, "torsion": []}

    def test_sphere_is_unknown(self, octa):
        # collapse stalls and H1 vanishes: genuinely undecided here
        v = S.simple_connectivity_oracle(octa)
        assert v.is_unknown

    def test_icosahedron_unknown(self, icosa):
        assert S.simple_connectivity_oracle(icosa).is_unknown

    def test_rp2_torsion_is_no(self):
        v = S.simple_connectivity_oracle(flag_rp2())
        assert v.is_no
        assert v.witness == {"betti1": 0, "torsion": [2]}

    @given(union_params)
    @settings(max_examples=60, deadline=None)
    def test_matches_collapse_first_order(self, params):
        # collapse_first_oracle runs the same greedy pass; a small budget
        # also exercises its budget exit.  A Yes of the strong-collapse core
        # has its own detail, and stands where the reference is not No
        g = random_union(*params)
        got, want = S.simple_connectivity_oracle(g, 200), collapse_first_oracle(g, 200)
        if "strong_collapses" in got.detail:
            assert got == S.Verdict("yes", None, "collapsed to a point",
                                    {"strong_collapses": g.n_vertices - 1})
            assert not want.is_no
        else:
            assert got == want


class TestOracleOrder:
    """Homology answers before the collapse search is tried."""

    @pytest.fixture
    def no_collapse(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("collapse search ran")

        monkeypatch.setattr(systolic.collapse, "collapse_to_point", refuse)

    def test_torus_needs_no_collapse(self, no_collapse):
        v = S.simple_connectivity_oracle(S.hex_torus(4, 4))
        assert v.is_no and v.witness == {"betti1": 2, "torsion": []}

    def test_backtrack_fixture_needs_no_collapse(self, no_collapse):
        v = S.simple_connectivity_oracle(parse_complex_file(BACKTRACK).complex)
        assert v.is_no and v.witness == {"betti1": 1, "torsion": []}

    def test_collapse_pass_yes_without_the_core(self, monkeypatch):
        # with a core that removes nothing, the collapse pass answers Yes
        # with its own reason and step count
        monkeypatch.setattr(systolic.collapse, "strong_core", lambda x: (x.vertices, ()))
        cone = S.cone(S.cycle(6))
        v = S.simple_connectivity_oracle(cone)
        want = collapse_to_point(cone)
        assert want.is_yes and "steps" in want.detail
        assert v == S.Verdict("yes", None, want.reason, want.detail)

    def test_single_vertex_is_not_a_strong_collapse(self):
        v = S.simple_connectivity_oracle(FlagComplex([0], []))
        assert v == S.Verdict("yes", None, "already a single vertex", {"steps": 0})

    def test_zero_budget_sphere_is_unknown(self, octa):
        v = S.simple_connectivity_oracle(octa, budget=0)
        assert v.is_unknown
        assert v.reason == "budget 0 skips the collapse pass; first homology vanishes"


# (n, p, seed, budget): random flag complexes of at most 16 vertices
core_params = st.tuples(
    st.integers(min_value=1, max_value=16),
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(min_value=0, max_value=10_000),
    st.sampled_from([0, 1, 5, 200, DEFAULT_BUDGET]),
)


def _window_min_sets():
    """Min sets of lattice windows R = 4-8 at margin 2 under t1, t2 and the
    glide: the margin trusts the displacement of t2, and the inner radius
    holds a trusted image."""
    out = []
    for radius in range(4, 9):
        w = S.triangular_lattice_window(radius, 2)
        for h in (S.lattice_translation(w, 1), S.lattice_translation(w, 2), S.lattice_glide(w)):
            out.append(S.min_set(w, h))
    return out


class TestStrongCore:
    """The strong-collapse core, replayed from the edge list, and the
    oracle's answers with it against the collapse-first reference."""

    def check(self, g, budget):
        core, removed = strong_core(g)
        left = replay_strong_collapses(g, removed)
        assert left == set(core) and len(removed) + len(core) == g.n_vertices
        if len(core) > 1:  # the core is final: removing any vertex left fails
            for v in core:
                with pytest.raises(AssertionError, match="not dominated"):
                    replay_strong_collapses(g, removed + (v,))
        got, want = S.simple_connectivity_oracle(g, budget), collapse_first_oracle(g, budget)
        if "strong_collapses" in got.detail:
            # the core's Yes stands only where the replay ends at one vertex,
            # and never where the reference says No
            assert got.is_yes and budget > 0 and len(left) == 1
            assert got.detail == {"strong_collapses": len(removed)}
            assert not want.is_no
        else:
            assert got == want

    def test_named_cores(self, octa, icosa, torus44):
        core, removed = strong_core(S.complete(40))
        assert len(core) == 1 and sorted(core + removed) == list(range(40))
        for g in (octa, icosa, torus44, S.cycle(5)):
            assert strong_core(g) == (g.vertices, ())
        # the apex dominates every vertex of the cycle it cones
        core, removed = strong_core(S.cone(S.cycle(6)))
        assert len(core) == 1 and len(removed) == 6

    @given(core_params)
    @settings(max_examples=150, deadline=None)
    def test_random_complexes(self, params):
        n, p, seed, budget = params
        self.check(S.random_flag_complex(n, p, seed), budget)

    @pytest.mark.parametrize("budget", [0, 1, DEFAULT_BUDGET])
    def test_window_min_sets(self, budget):
        for m in _window_min_sets():
            self.check(m, budget)

    def test_an_unknown_turns_yes(self):
        # the collapse pass refuses K_40's 2^40 - 1 simplices, and a budget
        # of one step stops it on a cone; both cores are one vertex
        k40 = S.complete(40)
        assert collapse_to_point(k40).reason == "too many simplices to materialize"
        assert S.simple_connectivity_oracle(k40).detail == {"strong_collapses": 39}
        cone = S.cone(S.cycle(6))
        assert collapse_first_oracle(cone, 1).reason.startswith("collapse budget exhausted")
        assert S.simple_connectivity_oracle(cone, 1).detail == {"strong_collapses": 6}
