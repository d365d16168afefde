"""Top-level acceptance battery.

Each test covers one numbered criterion and prints a single
``ACCEPTANCE n: PASS/FAIL`` line (visible with ``pytest -s``).
"""

import contextlib
import json

import systolic as S
from systolic.cli import main
from systolic.conditions import sphere_domination
from systolic.report import strip_timing

from _oracles import (
    all_automorphisms,
    all_cliques,
    brute_force_full_cycles,
    brute_force_invariant_simplices,
)


@contextlib.contextmanager
def criterion(n: int, label: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {n}: FAIL - {label}")
        raise
    print(f"ACCEPTANCE {n}: PASS - {label}")


def test_criterion_01_negative_controls(octa, icosa, torus44):
    with criterion(1, "octahedron, icosahedron and torus fail as expected"):
        v = S.is_weakly_systolic(octa, mode="graph")
        assert v.is_no
        assert len(v.witness.vertices) == 4
        assert S.is_full_cycle(octa, v.witness.vertices)

        v = S.is_k_large(icosa, 6)
        assert v.is_no
        assert v.witness.simplex == ()  # the cycle sits in the complex itself
        assert len(v.witness.cycle.vertices) == 5
        assert S.is_full_cycle(icosa, v.witness.cycle.vertices)

        assert S.is_locally_k_large(torus44, 6).is_yes
        v = S.is_systolic(torus44)
        assert v.is_no
        assert v.witness["betti1"] > 0  # homology shortcut, not a cycle search


def test_criterion_02_positive_control(window10):
    with criterion(2, "trusted lattice window passes every local condition"):
        assert S.triangle_condition(window10).is_yes
        assert S.quadrangle_condition(window10).is_yes
        assert S.enumerate_full_cycles(window10, 4) == []
        assert S.is_weakly_systolic(window10, mode="graph").is_yes
        assert S.is_locally_k_large(window10, 6).is_yes
        for v in sorted(window10.trusted_vertices):
            for n in range(4):
                assert sphere_domination(window10, v, n).is_yes


def test_criterion_03_mode_agreement(finite_corpus, window10):
    with criterion(3, "graph, sd and composite modes never disagree"):
        targets = dict(finite_corpus)
        targets["lattice_window"] = window10
        for name, x in targets.items():
            if S.simple_connectivity_oracle(x).is_unknown:
                continue
            answers = {
                mode: S.is_weakly_systolic(x, mode=mode).answer
                for mode in ("graph", "sd", "composite")
            }
            assert len(set(answers.values())) == 1, (name, answers)


def test_criterion_04_min_sets_embed_isometrically(window22):
    with criterion(4, "glide and A3-shift min sets embed with zero deviation"):
        glide = S.lattice_glide(window22)
        rep = S.isometric_embedding_check(window22, S.min_set(window22, glide))
        assert rep.pairs_checked >= 500
        assert rep.max_deviation == 0

        line, shift = S.thick_line(3, 12)
        rep = S.isometric_embedding_check(line, S.min_set(line, shift))
        assert rep.max_deviation == 0


def test_criterion_05_min_sets_are_systolic(window22):
    with criterion(5, "both min sets are locally 6-large and collapse"):
        glide = S.lattice_glide(window22)
        line, shift = S.thick_line(3, 12)
        for x, h in ((window22, glide), (line, shift)):
            m = S.min_set(x, h)
            assert S.is_locally_k_large(m, 6).is_yes
            for s in m.cliques():
                assert S.enumerate_full_cycles(m.link(s), 5) == []
            v = S.simple_connectivity_oracle(m)
            assert v.is_yes and "collapsed" in v.reason


def test_criterion_06_chains_are_local_geodesics(hyperbolic_corpus):
    with criterion(6, "orbit chains are geodesic up to the translation length"):
        for name, x, h in hyperbolic_corpus:
            chain = S.orbit_path(x, h)
            v = S.verify_local_geodesic(x, chain, gap=chain.period)
            assert v.is_yes, (name, v.reason)

            prof = S.displacement_profile(x, h)
            min_vertices = set(S.min_set(x, h).vertices)
            for u in chain.vertices:
                if u in prof.values:
                    assert u in min_vertices, (name, u)

            assert S.min_set_idempotence(x, h).is_yes, name


def test_criterion_07_dichotomy(finite_corpus, window10):
    with criterion(7, "finite case is elliptic, periodic case has a thick axis"):
        for name, g in finite_corpus.items():
            if not S.is_weakly_systolic(g, mode="graph").is_yes:
                continue
            for mapping in all_automorphisms(g):
                h = S.Automorphism(mapping, name=f"{name}_auto")
                c = S.classify(g, h)
                assert c.detail["kind"] == "elliptic", (name, mapping)
                assert S.is_invariant_simplex(g, h, c.detail["invariant_simplex"])

        line, shift = S.thick_line(2, 12)
        for x, h in ((line, shift), (window10, S.lattice_translation(window10, 1))):
            rep = S.dichotomy_report(x, h)
            assert rep.detail["kind"] != "elliptic"  # partial maps stay non-decisive
            assert rep.witness is not None
            assert rep.is_yes
            assert S.verify_thick_geodesic(x, rep.witness).is_yes


def test_criterion_08_falsifiability():
    with criterion(8, "bad inputs produce positive deviation and a No verdict"):
        w6 = S.wheel(6)
        rim = w6.span(range(1, 7))  # not a min set of anything
        rep = S.isometric_embedding_check(w6, rim)
        assert rep.max_deviation > 0
        pair = rep.witness
        assert rim.oracle.distance(pair.u, pair.v) == pair.d_sub
        assert w6.oracle.distance(pair.u, pair.v) == pair.d_ambient
        assert pair.d_sub > pair.d_ambient

        octa = S.octahedron()
        square = octa.span([0, 2, 1, 3])  # induced 4-cycle
        assert S.is_systolic(square).is_no


def test_criterion_09_oracle_agreement(finite_corpus):
    with criterion(9, "search procedures match their brute-force oracles"):
        for name, g in finite_corpus.items():
            if g.n_vertices <= 14:
                fast = {
                    c.vertices for c in S.enumerate_full_cycles(g, g.n_vertices)
                }
                assert fast == brute_force_full_cycles(g, g.n_vertices), name

            if g.n_vertices <= 30:
                cliques = all_cliques(g)
                for mapping in all_automorphisms(g):
                    h = S.Automorphism(mapping, name=f"{name}_auto")
                    expected = brute_force_invariant_simplices(g, mapping, cliques)
                    got = S.find_invariant_simplex(g, h)
                    if expected:
                        assert got.is_yes and got.witness in expected, name
                    else:
                        assert got.is_no, name


ACCEPTANCE_BATTERY = [
    ["check", "--gen", "lattice:radius=6,margin=2", "--checks",
     "flag,full-cycles,systole,tc,qc,locally-k-large,weakly-systolic",
     "--format", "json"],
    ["check", "--gen", "octahedron", "--checks", "all", "--format", "json"],
    ["check", "--gen", "hex_torus:p=4,q=4", "--checks",
     "locally-k-large,systolic", "--mode", "composite", "--format", "json"],
    ["isometry", "--gen", "lattice:radius=6,margin=2", "--auto", "glide",
     "--do", "all", "--format", "json"],
    ["isometry", "--gen", "octahedron", "--auto", "antipodal", "--do", "all",
     "--format", "json"],
    ["theorems", "--gen", "thick_line:k=2,n=10", "--auto", "shift", "--do",
     "all", "--format", "json"],
    ["theorems", "--gen", "lattice:radius=8,margin=3", "--auto", "glide",
     "--power", "2", "--do", "embedding,invariant-geodesic,dichotomy",
     "--format", "json"],
]


def _run_battery(tmp_path, tag):
    outputs = []
    for i, argv in enumerate(ACCEPTANCE_BATTERY):
        out = tmp_path / f"{tag}_{i}.json"
        code = main(argv + ["--out", str(out)])
        assert code == 0, argv
        text = out.read_text()
        json.loads(text)  # must be well-formed
        outputs.append(strip_timing(text))
    return outputs


def test_criterion_10_determinism(tmp_path):
    with criterion(10, "reports are byte-stable across repeated runs"):
        first = _run_battery(tmp_path, "a")
        second = _run_battery(tmp_path, "b")
        assert first == second
