"""The closed-loop caller: one process, one thread.

Run by run.py, never by hand.  The spawn time (CLOCK_MONOTONIC, ns) arrives in
PERFBENCH_SPAWN_NS; set-up is measured from it to the moment ``systolic.cli``
is imported, before the benchmark's own modules load.

    child.py probe                                  print set-up time, exit
    child.py run PLAN OUT SECONDS TRACE SPANS_OUT   run rounds of PLAN

A run calls ``systolic.cli.main(argv + ["--format", "json"])`` for each
operation in order, with ``gc.collect()`` before each and GC left enabled,
and captures stdout, stderr, the exit code or the exception.  Rounds repeat
while another round is expected to end within SECONDS.  With TRACE=1 the
first round runs untraced, and the following rounds traced.
"""

import os
import sys
import time

import systolic.cli  # noqa: E402  (timed as set-up)

SETUP_S = (time.monotonic_ns() - int(os.environ["PERFBENCH_SPAWN_NS"])) / 1e9

import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402


def peak_rss_mb() -> float:
    """Peak resident set of this process image.  VmHWM starts afresh at exec;
    ru_maxrss, the fallback, also counts the parent's pages at fork time."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def run_operation(argv) -> dict:
    gc.collect()
    out, err = io.StringIO(), io.StringIO()
    rc, error = None, None
    c0, k0 = time.process_time(), _children_cpu()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = systolic.cli.main(argv + ["--format", "json"])
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # an operation that raises is counted as failed, not fatal
        frame = traceback.extract_tb(exc.__traceback__)[-1]
        where = f"{frame.name}, {os.path.basename(frame.filename)}:{frame.lineno}"
        error = f"{type(exc).__name__}: {exc} (in {where})"
    t1 = time.perf_counter()
    cpu = time.process_time() - c0 + _children_cpu() - k0
    return {"rc": rc, "error": error, "stdout": out.getvalue(), "stderr": err.getvalue(),
            "wall_s": t1 - t0, "cpu_s": cpu}


def run_round(ops, tracer=None) -> dict:
    outcomes = []
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        outcomes.append(run_operation(op["argv"]))
    return {
        "traced": tracer is not None,
        "wall_s": sum(o["wall_s"] for o in outcomes),
        "cpu_s": sum(o["cpu_s"] for o in outcomes),
        "ops": outcomes,
    }


def run(plan_path, out_path, seconds, trace, spans_path) -> None:
    with open(plan_path, encoding="utf-8") as fh:
        ops = json.load(fh)
    rounds, layers = [], []
    tracer = None
    start = time.perf_counter()
    last = 0.0
    while True:
        r0 = time.perf_counter()
        if tracer is not None:
            tracer.start_round()
        rounds.append(run_round(ops, tracer))
        if tracer is not None:
            layers.append(tracer.round_metrics())
        now = time.perf_counter()
        last = now - r0
        if trace and tracer is None:
            import spans

            tracer = spans.Tracer()
            spans.install(tracer)
            continue
        if now - start + last > seconds:
            break
    result = {
        "setup_s": SETUP_S,
        "peak_rss_mb": peak_rss_mb(),
        "rounds": rounds,
        "layers": layers,
    }
    if tracer is not None:
        result["spans"] = len(tracer.spans)
        tracer.write(spans_path)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    if sys.argv[1] == "probe":
        print(json.dumps({"setup_s": SETUP_S}))
    else:
        _, _, plan_arg, out_arg, seconds_arg, trace_arg, spans_arg = sys.argv
        run(plan_arg, out_arg, float(seconds_arg), trace_arg == "1", spans_arg)
