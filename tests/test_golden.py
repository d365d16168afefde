"""Golden reports of window operations.

Each file under ``golden/`` is the JSON report of one CLI operation with the
``wall_ms`` fields stripped.  They were captured before the distance layer
became horizon-bounded; every checker must still print them byte for byte.
The radius-26 window (2107 vertices) lies above
``DistanceOracle.ALL_PAIRS_THRESHOLD``, where complete tables are not cached.
"""

import os

import pytest

from systolic.cli import main
from systolic.report import strip_timing

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

CHECKS = "flag,full-cycles,systole,k-large,locally-k-large,tc,qc,weakly-modular,w5hat,sd,weakly-systolic"
ISOMETRY = "validate,displacement,classify,invariant-simplex,min-set,idempotence"
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
}


def report(argv, out_path) -> str:
    code = main(argv + ["--format", "json", "--out", str(out_path)])
    assert code == 0
    return strip_timing(out_path.read_text())


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_is_byte_identical(name, tmp_path):
    with open(os.path.join(GOLDEN, name + ".json"), encoding="utf-8") as fh:
        want = fh.read()
    assert report(CASES[name], tmp_path / "report.json") == want
