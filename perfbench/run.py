"""Benchmark of the ``systolic`` CLI: three workloads, checked outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The package is compiled to bytecode, the
workload's inputs are made from the seed, and the workload runs in one fresh
child process (child.py) as whole rounds of its operation list for about S
seconds.  Every report is checked against checkers.py.  The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and the
end-to-end metrics (``--trace 0``) or the per-layer metrics (``--trace 1``).
Raw outcomes go to perfbench/results/, inputs to perfbench/work/.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time

import checkers
import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "work")
RESULTS = os.path.join(HERE, "results")
SETUP_PROBES = 11
DEADLINE_S = 175


def _spawn_env() -> dict:
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
    env["PERFBENCH_SPAWN_NS"] = str(time.monotonic_ns())
    return env


def probe_setup() -> float:
    """Set-up time of one fresh process that imports systolic.cli."""
    out = subprocess.run([sys.executable, os.path.join(HERE, "child.py"), "probe"], env=_spawn_env(),
                         capture_output=True, text=True, check=True, timeout=60)
    return json.loads(out.stdout)["setup_s"]


def strip_timing(stdout: str) -> str:
    try:
        report = json.loads(stdout)
    except ValueError:
        return stdout
    for rec in report.get("records", []):
        rec.pop("wall_ms", None)
    return json.dumps(report, sort_keys=True)


def check_rounds(ops, rounds) -> list[tuple[int, str]]:
    """(op index, problem) for every failed operation of every round.  The
    first round is checked in full; a later outcome identical to it, once
    timings are stripped, shares its verdict, and any other is checked anew."""
    cache: dict = {}
    first = [checkers.check_operation(op, out, cache) for op, out in zip(ops, rounds[0]["ops"])]
    failures = []
    for r in rounds:
        for i, (op, out) in enumerate(zip(ops, r["ops"])):
            ref = rounds[0]["ops"][i]
            same = (out["rc"], out["error"], out["stderr"], strip_timing(out["stdout"])) == (
                ref["rc"], ref["error"], ref["stderr"], strip_timing(ref["stdout"]))
            problem = first[i] if same else checkers.check_operation(op, out, cache)
            if problem is not None:
                failures.append((i, problem))
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description="systolic CLI benchmark")
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.monotonic()

    if not os.path.isfile(os.path.join(SRC, "systolic", "cli.py")):
        print(f"error: no systolic package under {SRC}", file=sys.stderr)
        return 2
    if not compileall.compile_dir(os.path.join(SRC, "systolic"), quiet=1):
        print("error: the package does not compile", file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)
    os.makedirs(RESULTS, exist_ok=True)
    tag = f"{args.workload}-s{args.seed}-trace{args.trace}"
    ops = workloads.plan(args.workload, args.seed, os.path.join(WORK, f"inputs-s{args.seed}"))
    plan_path = os.path.join(WORK, f"plan-{tag}.json")
    with open(plan_path, "w", encoding="utf-8") as fh:
        json.dump(ops, fh)

    setups = [probe_setup() for _ in range(SETUP_PROBES)]
    raw_path = os.path.join(RESULTS, f"raw-{tag}.json")
    spans_path = os.path.join(RESULTS, f"spans-{tag}.csv.gz")
    child = [sys.executable, os.path.join(HERE, "child.py"), "run", plan_path, raw_path,
             str(args.seconds), str(args.trace), spans_path]
    budget = DEADLINE_S - (time.monotonic() - started)
    proc = subprocess.run(child, env=_spawn_env(), timeout=budget)
    if proc.returncode != 0:
        print(f"error: the workload process exited with {proc.returncode}", file=sys.stderr)
        return 2
    with open(raw_path, encoding="utf-8") as fh:
        raw = json.load(fh)
    rounds = raw["rounds"]

    failures = check_rounds(ops, rounds)
    attempted = len(rounds) * len(ops)
    unexpected = [(i, p) for i, p in failures if ops[i]["fault"] is None]
    print(f"{args.workload} seed {args.seed}: {len(rounds)} rounds, {attempted} operations attempted, "
          f"{len(failures)} failed")
    seen = set()
    for i, problem in failures:
        if (i, problem) in seen:
            continue
        seen.add((i, problem))
        times = sum(1 for f in failures if f == (i, problem))
        fault = ops[i]["fault"]
        note = f" -- known fault: {fault}" if fault else " -- UNEXPECTED"
        print(f"FAILED {ops[i]['id']} (x{times}): {problem}{note}")

    untraced = [r for r in rounds if not r["traced"]]
    if args.trace:
        traced = [r for r in rounds if r["traced"]]
        metrics = {
            name: {"value": statistics.median(layer[name] for layer in raw["layers"]), "unit": unit}
            for name, unit in spans.METRICS
        }
        wall = statistics.median(r["wall_s"] for r in traced)
        metrics["trace.overhead_s"] = {"value": wall - untraced[0]["wall_s"], "unit": "s"}
        metrics["trace.spans"] = {"value": raw["spans"] / len(traced), "unit": "count"}
    else:
        metrics = {
            # the mean round: host speed drifts in spells of a few seconds,
            # so the whole measured time is averaged rather than one round
            "wall_s": {"value": statistics.fmean(r["wall_s"] for r in untraced), "unit": "s"},
            "cpu_s": {"value": statistics.fmean(r["cpu_s"] for r in untraced), "unit": "s"},
            "setup_s": {"value": statistics.median(setups + [raw["setup_s"]]), "unit": "s"},
            "peak_rss_mb": {"value": raw["peak_rss_mb"], "unit": "MB"},
        }
    result = {"correct": not unexpected, "attempted": attempted, "failed": len(failures), "metrics": metrics}
    with open(os.path.join(RESULTS, f"result-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(dict(result, failures=[[ops[i]["id"], p] for i, p in failures],
                       round_wall_s=[r["wall_s"] for r in rounds], setups_s=setups), fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
