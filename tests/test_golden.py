"""Golden reports of window and finite-complex operations.

Each ``.json`` file under ``golden/`` is the JSON report of one CLI operation
with the ``wall_ms`` fields stripped; every checker must still print them byte
for byte.  The window reports were captured before the distance layer became
horizon-bounded.  The radius-26 window (2107 vertices) lies above
``DistanceOracle.ALL_PAIRS_THRESHOLD``, where complete tables are not cached.
The finite-complex reports were captured while the simple-connectivity oracle
still searched for a collapse before computing homology with dense matrices:
the hex torus is a No from homology (twice, through ``systolic`` and the
local-to-global route of ``weakly-systolic``), the cone a Yes from the
collapse, and ``backtrack_s1.txt`` (``backtrack0_s1`` of the benchmark's
random corpus, seed 1) is locally 6-large with betti1 = 1, where the old
order spent its whole budget backtracking over collapse orders.  Homology
now answers No there first, and the collapse search is one greedy pass
that no longer backtracks.
The three ``check_sd_random_*`` reports were captured while sphere domination
still enumerated every clique of each sphere and rebuilt its inner set from
scratch: each is an SD No with a different witness shape (a vertex whose inner
set is not a clique, at i = 3; an empty inner set on a triangle; an empty
inner set on a 4-vertex simplex), next to ``locally-k-large`` and the
composite ``weakly-systolic`` on the same complex.
The last group was captured while the CLI still dispatched tokens through one
if-chain per subcommand: a glide window under ``--power 2`` (``isometry``
applies the power to the map), a map read from an input file under ``--auto
file`` with ``--power 2`` (``theorems`` hands the power only to
``invariant-geodesic``), a ``check`` whose ``--require``d check says no (exit
status 1), and the text that ``generate`` writes for a small window and its
translation.
``theorems_file_two_hexagons_rotate`` runs on two disjoint 6-cycles, each
rotated by one step (``two_hexagons_rotate.txt`` with ``--auto file``): a Min
set that is the whole disconnected complex.  It was captured while a finite
complex still had no trust region, with ``pairs_checked`` 66: the embedding
check counted the 36 pairs in different components, whose deviation
INF - INF = nan was never compared.  Since a finite complex is scanned as a
window that trusts everything, each vertex is paired only with its own
ball, and the count is 30; no other byte changed.
That report and ``theorems_lattice_r10_glide`` were re-captured once more
when the Unknown of ``invariant-geodesic`` began to say "no invariant
geodesic found in the trusted region" instead of "... in the window": a
finite complex has no window, and both kinds of complex are searched over
their trusted region.  Only that reason line changed.
The Min-set branches no other report reaches were captured while
``classify`` and ``dichotomy_report`` still returned their own record types
and a chain was stitched from a forward and a backward orbit walk: an
elliptic map read from a file (``triangle_rotate.txt``, a triangle rotated
0 -> 1 -> 2), and the antipodal map of the octahedron, whose orbit chain
revisits a vertex and whose invariant-geodesic search refutes all four
candidate geodesics.
Every JSON report was re-captured once more when the ``--radius`` and
``--margin`` options were deleted: a lattice window takes both from its spec,
so the ``config`` header lost its ``"margin": 4`` and ``"radius": 10`` lines,
and no other byte changed.
The five ``isometry_*`` reports were re-captured once more when ``isometry``
stopped taking ``--oracle-budget``, which no isometry operation reads: each
lost its ``"oracle_budget": 100000`` config line, and no other byte changed.
``check_tc_qc_sd_random_n8_p03_s4`` was captured while TC, QC and SD each
scanned every source on their own: SD fails at source 0, QC at source 3 and
TC at source 4, so it pins scans that run on past SD's witness source.
``check_hex_torus_8x8_all`` and ``check_lattice_r22_all`` were captured
while ``systole``, ``w5hat``, ``k-large`` and the square check of
``weakly-systolic`` still proved the absence of short full cycles by a
canonical path walk from every trusted vertex: both complexes declare maps,
and ``--checks all`` takes them through ``full-cycles``, ``k-large``,
``systole`` and ``w5hat``.
``theorems_lattice_r22_t1_all``, ``isometry_lattice_r22_glide`` and
``theorems_hex_torus_8x8_translate_all`` were captured while the Min-set
layer still carried nothing along the declared maps: one capped
displacement query per trusted vertex, a new span of the Min set for each
theorem, and two BFS per Min vertex in the embedding check
(``pairs_checked`` 26,475 at R = 22).  The torus's translation is total, so
there a map carries at any radius.
"""

import os

import pytest

from systolic.cli import main
from systolic.report import strip_timing

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

CHECKS = "flag,full-cycles,systole,k-large,locally-k-large,tc,qc,weakly-modular,w5hat,sd,weakly-systolic"
ISOMETRY = "validate,displacement,classify,invariant-simplex,min-set,idempotence"
SD_CHECKS = ["--checks", "sd,locally-k-large,weakly-systolic", "--mode", "composite"]
THEOREMS = "embedding,min-systolic,wheel-domination,invariant-geodesic,dichotomy"

CASES = {
    "check_lattice_r10": ["check", "--gen", "lattice:radius=10,margin=4", "--checks", CHECKS],
    "check_lattice_r16": ["check", "--gen", "lattice:radius=16,margin=4", "--checks", CHECKS],
    "isometry_lattice_r10_t1": ["isometry", "--gen", "lattice:radius=10,margin=4", "--auto", "t1", "--do", ISOMETRY],
    "isometry_lattice_r10_glide": ["isometry", "--gen", "lattice:radius=10,margin=4", "--auto", "glide", "--do", ISOMETRY],
    "theorems_lattice_r10_t1": ["theorems", "--gen", "lattice:radius=10,margin=4", "--auto", "t1", "--do", THEOREMS],
    "theorems_lattice_r10_glide": ["theorems", "--gen", "lattice:radius=10,margin=4", "--auto", "glide", "--do", THEOREMS],
    "embedding_lattice_r26_glide": [
        "theorems", "--gen", "lattice:radius=26,margin=4", "--auto", "glide", "--do", "embedding",
    ],
    "check_hex_torus_6x6": [
        "check", "--gen", "hex_torus:p=6,q=6", "--checks", "systolic,weakly-systolic", "--mode", "composite",
    ],
    "check_cone_over_cycle_7": ["check", "--gen", "cone_over_cycle:n=7", "--checks", "all"],
    "check_backtrack_s1": ["check", "--input", os.path.join(GOLDEN, "backtrack_s1.txt"), "--checks", "all"],
    "check_sd_random_n10_p03_s11": ["check", "--gen", "random:n=10,p=0.3,seed=11", *SD_CHECKS],
    "check_sd_random_n10_p04_s16": ["check", "--gen", "random:n=10,p=0.4,seed=16", *SD_CHECKS],
    "check_sd_random_n12_p04_s34": ["check", "--gen", "random:n=12,p=0.4,seed=34", *SD_CHECKS],
    "isometry_lattice_r8_glide_power2": [
        "isometry", "--gen", "lattice:radius=8,margin=3", "--auto", "glide", "--power", "2",
        "--do", ISOMETRY,
    ],
    "theorems_file_thick_line_power2": [
        "theorems", "--input", os.path.join(GOLDEN, "thick_line_k2_n10.txt"), "--auto", "file",
        "--power", "2", "--do", "all",
    ],
    "theorems_file_two_hexagons_rotate": [
        "theorems", "--input", os.path.join(GOLDEN, "two_hexagons_rotate.txt"), "--auto", "file",
        "--do", "embedding,min-systolic,dichotomy,invariant-geodesic",
    ],
    "isometry_file_triangle_rotate": [
        "isometry", "--input", os.path.join(GOLDEN, "triangle_rotate.txt"), "--auto", "file",
        "--do", "classify,invariant-simplex",
    ],
    "theorems_file_triangle_rotate": [
        "theorems", "--input", os.path.join(GOLDEN, "triangle_rotate.txt"), "--auto", "file",
        "--do", "dichotomy,embedding",
    ],
    "isometry_octahedron_antipodal": [
        "isometry", "--gen", "octahedron", "--auto", "antipodal", "--do", "classify",
    ],
    "theorems_octahedron_antipodal": [
        "theorems", "--gen", "octahedron", "--auto", "antipodal",
        "--do", "dichotomy,invariant-geodesic",
    ],
    "check_tc_qc_sd_random_n8_p03_s4": [
        "check", "--gen", "random:n=8,p=0.3,seed=4", "--checks", "tc,qc,weakly-modular,sd",
    ],
    "check_hex_torus_8x8_all": ["check", "--gen", "hex_torus:p=8,q=8", "--checks", "all"],
    "check_lattice_r22_all": ["check", "--gen", "lattice:radius=22,margin=4", "--checks", "all"],
    "theorems_lattice_r22_t1_all": [
        "theorems", "--gen", "lattice:radius=22,margin=4", "--auto", "t1", "--do", "all",
    ],
    "isometry_lattice_r22_glide": [
        "isometry", "--gen", "lattice:radius=22,margin=4", "--auto", "glide", "--do", ISOMETRY,
    ],
    "theorems_hex_torus_8x8_translate_all": [
        "theorems", "--gen", "hex_torus:p=8,q=8", "--auto", "translate", "--do", "all",
    ],
    "check_require_octahedron": [
        "check", "--gen", "octahedron", "--checks", "all", "--require", "flag,weakly-systolic",
    ],
}

# exit status of the cases that do not exit 0
EXIT_CODES = {"check_require_octahedron": 1}

GENERATE = ["generate", "--gen", "lattice:radius=2,margin=1", "--auto", "t1"]


def report(argv, out_path, code: int = 0) -> str:
    assert main(argv + ["--format", "json", "--out", str(out_path)]) == code
    return strip_timing(out_path.read_text())


def golden(filename: str) -> str:
    with open(os.path.join(GOLDEN, filename), encoding="utf-8") as fh:
        return fh.read()


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_is_byte_identical(name, tmp_path):
    got = report(CASES[name], tmp_path / "report.json", EXIT_CODES.get(name, 0))
    assert got == golden(name + ".json")


def test_generated_text_is_byte_identical(tmp_path):
    out = tmp_path / "window.txt"
    assert main(GENERATE + ["--out", str(out)]) == 0
    assert out.read_text() == golden("generate_lattice_r2_t1.txt")
