"""Each checker accepts a correct report and rejects a mutated one.

Reports come from the real CLI on small inputs; mutations corrupt one field
(a witness, a betti number, a translation length, ...).  Run with the
package on the path: ``PYTHONPATH=src python -m pytest perfbench``.
"""

import contextlib
import copy
import io
import json
import os
import subprocess
import sys

import pytest

import checkers
import refgraph as R
import spans
from systolic import cli

HERE = os.path.dirname(os.path.abspath(__file__))


def run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv + ["--format", "json"])
    return {"rc": rc, "error": None, "stdout": out.getvalue(), "stderr": ""}


def verdicts(op, outcome, mutate):
    """(problem for the real report, problem for the mutated one)."""
    report = json.loads(outcome["stdout"])
    bad = copy.deepcopy(report)
    mutate(bad)
    mutated = dict(outcome, stdout=json.dumps(bad))
    return checkers.check_operation(op, outcome, {}), checkers.check_operation(op, mutated, {})


def op(argv, expect, exit_code=0):
    return {"id": "t", "argv": argv, "expect": expect, "exit": exit_code, "fault": None}


def record(report, token):
    return next(r for r in report["records"] if r["check"].split("[")[0] == token)


def test_lattice_checks_reject_a_no():
    o = op(["check", "--gen", "lattice:radius=7,margin=3", "--checks", "systole,tc,w5hat"],
           {"kind": "lattice_checks", "tokens": ["systole", "tc", "w5hat"]})
    good, bad = verdicts(o, run_cli(o["argv"]), lambda r: record(r, "tc").update(verdict="no"))
    assert good is None and "tc answered no" in bad
    _, bad = verdicts(o, run_cli(o["argv"]), lambda r: record(r, "systole")["detail"].update(value=5))
    assert "systole detail" in bad


def test_corrupted_wheel_witness_is_rejected():
    o = op(["check", "--gen", "extended_wheel5", "--checks", "all"],
           {"kind": "finite_checks", "target": {"gen": "extended_wheel5", "dominated": False},
            "tokens": "all", "mode": "graph"})
    good, bad = verdicts(o, run_cli(o["argv"]), lambda r: record(r, "w5hat")["witness"].update(apex=0))
    assert good is None and "witness does not hold" in bad


def test_corrupted_triangle_witness_is_rejected():
    o = op(["check", "--gen", "hex_torus:p=6,q=6", "--checks", "systolic,weakly-systolic",
            "--mode", "composite"],
           {"kind": "finite_checks", "target": {"gen": "hex_torus", "p": 6},
            "tokens": ["systolic", "weakly-systolic"], "mode": "composite"})

    def corrupt(r):
        rec = record(r, "weakly-systolic")
        rec["witness"]["distance"] += 1
        rec["detail"]["graph"]["witness"]["distance"] += 1

    good, bad = verdicts(o, run_cli(o["argv"]), corrupt)
    assert good is None and "witness does not hold" in bad


def test_wrong_betti1_is_rejected(tmp_path):
    path = tmp_path / "c7.txt"
    edges = "".join(f"edge {i} {(i + 1) % 7}\n" for i in range(7))
    path.write_text("complex c7\nmode flag\nvertices 7\n" + edges)
    o = op(["check", "--input", str(path), "--checks", "all"],
           {"kind": "finite_checks", "target": {"file": str(path)}, "tokens": "all", "mode": "graph"})
    good, bad = verdicts(o, run_cli(o["argv"]), lambda r: record(r, "systolic")["witness"].update(betti1=2))
    assert good is None and "expected betti1 1" in bad


def test_wrong_full_cycle_count_is_rejected():
    o = op(["check", "--gen", "icosahedron", "--checks", "all"],
           {"kind": "finite_checks", "target": {"gen": "icosahedron"}, "tokens": "all", "mode": "graph"})
    good, bad = verdicts(o, run_cli(o["argv"]), lambda r: record(r, "full-cycles")["detail"].update(count=0))
    assert good is None and "full-cycles count" in bad


def test_wrong_translation_length_is_rejected():
    o = op(["isometry", "--gen", "thick_line:k=2,n=12", "--auto", "shift", "--do",
            "validate,displacement,classify,min-set,idempotence"],
           {"kind": "isometry", "target": {"gen": "thick_line", "k": 2, "n": 12},
            "tokens": ["validate", "displacement", "classify", "min-set", "idempotence"]})
    good, bad = verdicts(o, run_cli(o["argv"]),
                         lambda r: record(r, "displacement")["detail"].update(translation_length=2))
    assert good is None and "displacement" in bad


def test_glide_min_set_must_be_the_two_row_strip():
    o = op(["isometry", "--gen", "lattice:radius=8,margin=3", "--auto", "glide", "--do", "min-set"],
           {"kind": "isometry", "target": {"gen": "lattice", "radius": 8, "margin": 3, "map": "glide"},
            "tokens": ["min-set"]})
    good, bad = verdicts(o, run_cli(o["argv"]), lambda r: record(r, "min-set")["detail"]["vertices"].pop())
    assert good is None and "min-set" in bad


def test_chain_checks_the_paper_claim():
    o = op(["isometry", "--gen", "octahedron", "--auto", "antipodal", "--do", "chain"],
           {"kind": "isometry", "target": {"gen": "octahedron"}, "tokens": ["chain"]})
    outcome = run_cli(o["argv"])
    as_claimed, broken = verdicts(o, outcome, lambda r: record(r, "chain").update(verdict="yes"))
    assert "chain answered no" in checkers.check_operation(o, outcome, {})
    assert broken is None  # a yes is right: every pair at gap <= period is at its distance

    def corrupt(r):
        rec = record(r, "chain")
        rec["verdict"] = "yes"
        rec["detail"]["vertices"][3] = rec["detail"]["vertices"][2]

    _, bad = verdicts(o, outcome, corrupt)
    assert "chain" in bad


def test_theorems_reject_wrong_counts():
    o = op(["theorems", "--gen", "octahedron", "--auto", "antipodal", "--do",
            "embedding,min-systolic,wheel-domination,invariant-geodesic,dichotomy"],
           {"kind": "theorems", "target": {"gen": "octahedron"},
            "tokens": ["embedding", "min-systolic", "wheel-domination", "invariant-geodesic", "dichotomy"]})
    good, bad = verdicts(o, run_cli(o["argv"]),
                         lambda r: record(r, "invariant-geodesic")["detail"].update(candidates_tried=3))
    assert good is None and "candidates_tried" in bad
    _, bad = verdicts(o, run_cli(o["argv"]),
                      lambda r: record(r, "embedding")["detail"].update(pairs_checked=14))
    assert "embedding" in bad


def test_thick_dichotomy_witness_is_rechecked():
    o = op(["theorems", "--gen", "thick_line:k=3,n=15", "--auto", "shift", "--do", "dichotomy"],
           {"kind": "theorems", "target": {"gen": "thick_line", "k": 3, "n": 15}, "tokens": ["dichotomy"]})
    good, bad = verdicts(o, run_cli(o["argv"]), lambda r: record(r, "dichotomy")["witness"].update(k=2))
    assert good is None and "thickness" in bad


def test_usage_error_needs_exit_2_and_a_message():
    o = op(["check", "--gen", "nosuch", "--checks", "sd"], {"kind": "usage_error"}, exit_code=2)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = cli.main(o["argv"])
    usage = {"rc": rc, "error": None, "stdout": "", "stderr": err.getvalue()}
    assert checkers.check_operation(o, usage, {}) is None
    crash = {"rc": None, "error": "OverflowError: boom", "stdout": "", "stderr": ""}
    assert "raised OverflowError" in checkers.check_operation(o, crash, {})


@pytest.mark.parametrize("adj, lengths", [
    (R.cycle(6), [6]),
    (R.octahedron(), [4, 4, 4]),
    (R.wheel(6), [6]),
])
def test_reference_induced_cycles(adj, lengths):
    assert [len(c) for c in R.induced_cycles(adj, 8)] == lengths


def test_reference_betti1_matches_the_torus_closed_form():
    adj = R.hex_torus(6, 6).adj
    assert R.betti1(adj) == 2
    assert R.torsion_consistent(adj, 2, [])
    assert not R.torsion_consistent(adj, 2, [2])


def test_traced_round_reports_every_layer(tmp_path):
    plan = [{"argv": ["check", "--gen", "hex_torus:p=5,q=5", "--checks", "systolic,tc",
                      "--oracle-budget", "50"]},
            {"argv": ["theorems", "--gen", "thick_line:k=2,n=6", "--auto", "shift",
                      "--do", "embedding,dichotomy"]}]
    (tmp_path / "plan.json").write_text(json.dumps(plan))
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PERFBENCH_SPAWN_NS="0", PYTHONPATH=src)
    subprocess.run([sys.executable, os.path.join(HERE, "child.py"), "run", str(tmp_path / "plan.json"),
                    str(tmp_path / "out.json"), "0", "1", str(tmp_path / "spans.csv.gz")],
                   env=env, check=True, timeout=120)
    out = json.loads((tmp_path / "out.json").read_text())
    assert [r["traced"] for r in out["rounds"]] == [False, True]
    layer = out["layers"][0]
    assert set(layer) == {name for name, _ in spans.METRICS}
    for name in ("cli.ops", "generators.vertices", "distance.tables", "cliques.yielded",
                 "collapse.matrix_cells", "mindisp.embedding_pairs", "report.bytes", "scans.sources"):
        assert layer[name] > 0, name
    assert out["rounds"][0]["ops"][0]["stdout"] != "" and out["spans"] > 0
