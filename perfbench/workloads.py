"""The three workloads: their operations, their input files, and what each
operation's report is checked against.

An operation is one ``systolic`` CLI invocation.  Each carries an ``expect``
spec that names the target in the benchmark's own terms (see refgraph.py), so
that checkers.py can recompute the answer apart from the program.  The
``--seed`` only drives the random flag-complex corpus of ``finite_corpus``;
every other input is fixed, including the two operations that hit known
faults of the program.

Regenerate the input files of a seed without running anything::

    python3 perfbench/workloads.py --seed 1 --out perfbench/work/inputs-s1
"""

from __future__ import annotations

import argparse
import os
import random

import refgraph as R

WORKLOADS = ("lattice_checks", "finite_corpus", "minset_theorems")

LATTICE_RADII = (10, 16, 22)
MARGIN = 4
LATTICE_TOKENS = "systole,tc,qc,w5hat,sd,weakly-systolic,locally-k-large"
TORUS_SIZES = (6, 8, 10, 12)
DISK_RADIUS = 16  # 1536 triangles
ISOMETRY_TOKENS = "validate,displacement,classify,invariant-simplex,min-set,idempotence"
THEOREM_TOKENS = "embedding,min-systolic,wheel-domination,invariant-geodesic,dichotomy"

# Random corpus classes: (name, count, n, p).  "backtrack" complexes are
# connected and locally 6-large with 48..56 simplices, so the collapse search
# goes past the greedy pass into backtracking; they have betti1 > 0, so no
# collapse exists, and >= 9 leaves give more than 9! collapse orders, so the
# search always spends its whole budget (its cost grows with the simplex
# count, hence the narrow band).  "dense" complexes are connected and not
# locally 6-large, so the systolicity check stops early and full-cycle
# enumeration dominates.
CORPUS = (
    ("backtrack", 3, 24, 0.09),
    ("dense", 4, 36, 0.20),
)

CHAIN_FAULT = (
    "cli.run_isometry verifies the chain with gap=None (a full geodesic); "
    "the paper claims a geodesic only up to the translation length (gap=period)"
)
SD_FAULT = (
    "check --checks sd on a disconnected complex raises OverflowError "
    "(conditions.sphere_domination_everywhere, int(inf)) instead of exiting 2"
)


def _accept(kind, adj) -> bool:
    if len(R.components(adj)) != 1:
        return False
    simplices = R.cliques(adj)
    locally_6_large = not R.short_link_cycle(adj, 6, include_empty=False)
    if kind == "dense":
        return not locally_6_large
    leaves = sum(1 for ns in adj.values() if len(ns) == 1)
    return locally_6_large and 48 <= len(simplices) <= 56 and leaves >= 9 and R.betti1(adj) > 0


def random_corpus(seed) -> list[tuple[str, int, list[tuple[int, int]]]]:
    """(name, n, edges) for every corpus complex of this seed."""
    rng = random.Random(f"perfbench-corpus-{seed}")
    out = []
    for kind, count, n, p in CORPUS:
        made = 0
        while made < count:
            edges = R.random_edges(n, p, rng)
            if _accept(kind, R.graph(n, edges)):
                out.append((f"{kind}{made}_s{seed}", n, edges))
                made += 1
    return out


def write_inputs(seed, directory) -> dict[str, str]:
    """Write the input files of this seed; return {name: path}."""
    os.makedirs(directory, exist_ok=True)
    paths = {}
    for name, n, edges in random_corpus(seed):
        lines = [f"complex {name}", "mode flag", f"vertices {n}"]
        lines += [f"edge {u} {v}" for u, v in edges]
        paths[name] = _write(directory, name, lines)
    n, tris = R.lattice_disk_triangles(DISK_RADIUS)
    lines = [f"complex disk_r{DISK_RADIUS}", "mode facets", f"vertices {n}"]
    lines += ["facet " + " ".join(map(str, t)) for t in tris]
    paths["disk"] = _write(directory, f"disk_r{DISK_RADIUS}", lines)
    return paths


def _write(directory, name, lines) -> str:
    path = os.path.join(directory, name + ".txt")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def _op(op_id, argv, expect, exit_code=0, fault=None) -> dict:
    return {"id": op_id, "argv": argv, "expect": expect, "exit": exit_code, "fault": fault}


def plan(workload, seed, directory) -> list[dict]:
    """The operation list of one round of a workload."""
    if workload == "lattice_checks":
        return [
            _op(
                f"lattice_r{r}",
                ["check", "--gen", f"lattice:radius={r},margin={MARGIN}", "--checks", LATTICE_TOKENS],
                {"kind": "lattice_checks", "tokens": LATTICE_TOKENS.split(",")},
            )
            for r in LATTICE_RADII
        ]
    if workload == "finite_corpus":
        return _finite_corpus(seed, directory)
    if workload == "minset_theorems":
        return _minset_theorems()
    raise ValueError(f"unknown workload {workload!r}")


def _finite_corpus(seed, directory) -> list[dict]:
    paths = write_inputs(seed, directory)
    ops = []
    for p in TORUS_SIZES:
        ops.append(_op(
            f"hex_torus_{p}x{p}",
            ["check", "--gen", f"hex_torus:p={p},q={p}", "--checks", "systolic,weakly-systolic",
             "--mode", "composite"],
            {"kind": "finite_checks", "target": {"gen": "hex_torus", "p": p},
             "tokens": ["systolic", "weakly-systolic"], "mode": "composite"},
        ))
    for name, path in paths.items():
        if name == "disk":
            continue
        ops.append(_op(
            name,
            ["check", "--input", path, "--checks", "all"],
            {"kind": "finite_checks", "target": {"file": path}, "tokens": "all", "mode": "graph"},
        ))
    for spec, target in (
        ("octahedron", {"gen": "octahedron"}),
        ("icosahedron", {"gen": "icosahedron"}),
        ("wheel:k=6", {"gen": "wheel", "k": 6}),
        ("extended_wheel5", {"gen": "extended_wheel5", "dominated": False}),
        ("extended_wheel5:dominated=true", {"gen": "extended_wheel5", "dominated": True}),
        ("cone_over_cycle:n=7", {"gen": "cone_over_cycle", "n": 7}),
    ):
        ops.append(_op(
            spec.replace(":", "_").replace("=", ""),
            ["check", "--gen", spec, "--checks", "all"],
            {"kind": "finite_checks", "target": target, "tokens": "all", "mode": "graph"},
        ))
    ops.append(_op(
        f"disk_r{DISK_RADIUS}_facets",
        ["check", "--input", paths["disk"], "--checks", "flag"],
        {"kind": "facets_flag", "file": paths["disk"]},
    ))
    ops.append(_op(
        "disconnected_sd",
        ["check", "--gen", "random:n=10,p=0.1,seed=1", "--checks", "sd"],
        {"kind": "usage_error"},
        exit_code=2,
        fault=SD_FAULT,
    ))
    return ops


def _minset_theorems() -> list[dict]:
    lattice = {"gen": "lattice", "radius": 22, "margin": MARGIN}
    targets = (
        ("lattice_r22_t1", f"lattice:radius=22,margin={MARGIN}", "t1", dict(lattice, map="t1")),
        ("lattice_r22_glide", f"lattice:radius=22,margin={MARGIN}", "glide", dict(lattice, map="glide")),
        ("thick_k2", "thick_line:k=2,n=12", "shift", {"gen": "thick_line", "k": 2, "n": 12}),
        ("thick_k3", "thick_line:k=3,n=15", "shift", {"gen": "thick_line", "k": 3, "n": 15}),
        ("hex_torus_8x8", "hex_torus:p=8,q=8", "translate", {"gen": "hex_torus", "p": 8}),
        ("octahedron", "octahedron", "antipodal", {"gen": "octahedron"}),
    )
    ops = []
    for name, spec, auto, target in targets:
        base = ["--gen", spec, "--auto", auto]
        ops.append(_op(
            f"{name}_isometry",
            ["isometry", *base, "--do", ISOMETRY_TOKENS],
            {"kind": "isometry", "target": target, "tokens": ISOMETRY_TOKENS.split(",")},
        ))
        ops.append(_op(
            f"{name}_chain",
            ["isometry", *base, "--do", "chain"],
            {"kind": "isometry", "target": target, "tokens": ["chain"]},
            fault=None if auto == "t1" else CHAIN_FAULT,
        ))
        ops.append(_op(
            f"{name}_theorems",
            ["theorems", *base, "--do", THEOREM_TOKENS],
            {"kind": "theorems", "target": target, "tokens": THEOREM_TOKENS.split(",")},
        ))
    ops.append(_op(
        "lattice_r26_glide_embedding",
        ["theorems", "--gen", f"lattice:radius=26,margin={MARGIN}", "--auto", "glide", "--do", "embedding"],
        {"kind": "theorems", "target": {"gen": "lattice", "radius": 26, "margin": MARGIN, "map": "glide"},
         "tokens": ["embedding"]},
    ))
    return ops


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory for the input files")
    args = parser.parse_args()
    for name, path in write_inputs(args.seed, args.out).items():
        print(name, path)


if __name__ == "__main__":
    main()
