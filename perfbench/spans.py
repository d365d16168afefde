"""Traced runs: spans recorded at the boundaries of the package's layers.

Nothing in the package changes.  :func:`install` wraps public functions and
methods of each layer from here, rebinding every module attribute of
``systolic.*`` that referred to the original (so ``from .x import f`` imports
are covered) and setting methods on their classes.  Each call records a span
(name, start, end, parent span, operation); generator functions record one
span per resume.  Spans stay in memory until :meth:`Tracer.write`.  Counts are
taken from arguments and return values at the same boundaries.

Self time of a span is its duration minus the time covered by its child spans,
so a layer's self time excludes the layers it calls into.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import math
import sys
import time
from collections import defaultdict

# span name -> the self-time metric of its group, for groups finer than a layer
_GROUP_OF_NAME = {
    "conditions.triangle_condition": "scans.tc_s",
    "conditions.quadrangle_condition": "scans.qc_s",
    "conditions.sphere_domination_everywhere": "scans.sd_s",
    "conditions.sphere_domination": "scans.sd_s",
    "conditions.extended_wheel_condition": "scans.w5_s",
    "conditions.find_extended_5_wheels": "scans.w5_s",
    "conditions.is_locally_k_large": "scans.links_s",
    "conditions.is_k_large": "scans.links_s",
    "collapse.collapse_to_point": "collapse.collapse_s",
    "collapse.all_simplices": "collapse.collapse_s",
    "collapse.first_homology": "collapse.homology_s",
    "collapse._smith_diagonal": "collapse.homology_s",
}
_SELF_LAYERS = ("cli", "generators", "io", "facets", "distance", "cliques", "cycles",
                "isometries", "mindisp", "report")

METRICS = (
    ("cli.ops", "count"), ("cli.self_s", "s"),
    ("generators.self_s", "s"), ("generators.vertices", "count"),
    ("io.self_s", "s"), ("io.lines", "count"),
    ("facets.self_s", "s"), ("facets.facets", "count"),
    ("distance.calls", "count"), ("distance.self_s", "s"),
    ("distance.tables", "count"), ("distance.entries", "count"),
    ("cliques.calls", "count"), ("cliques.self_s", "s"), ("cliques.yielded", "count"),
    ("cycles.calls", "count"), ("cycles.self_s", "s"), ("cycles.found", "count"),
    ("scans.tc_s", "s"), ("scans.qc_s", "s"), ("scans.sd_s", "s"), ("scans.w5_s", "s"),
    ("scans.links_s", "s"), ("scans.sources", "count"),
    ("collapse.calls", "count"), ("collapse.collapse_s", "s"), ("collapse.homology_s", "s"),
    ("collapse.undecided", "count"), ("collapse.matrix_cells", "count"),
    ("isometries.calls", "count"), ("isometries.self_s", "s"), ("isometries.chain_pairs", "count"),
    ("mindisp.calls", "count"), ("mindisp.self_s", "s"), ("mindisp.embedding_pairs", "count"),
    ("mindisp.geodesic_candidates", "count"),
    ("report.self_s", "s"), ("report.bytes", "count"),
)


def _n_vertices(result) -> int:
    """Vertices of what a generator built: a complex, a window, or a
    (complex, map) pair."""
    if isinstance(result, tuple):
        return sum(_n_vertices(r) for r in result)
    return getattr(getattr(result, "complex", result), "n_vertices", 0)


def _sources(args, kwargs) -> int:
    x = args[0]
    trusted = getattr(x, "trusted_vertices", None)
    return len(trusted) if trusted is not None else x.n_vertices


def _chain_pairs(args, kwargs) -> int:
    """Index pairs the chain check quantifies over: gap at most ``gap`` and
    at most the trust horizon."""
    x, chain = args[0], args[1]
    gap = kwargs.get("gap", args[2] if len(args) > 2 else None)
    cap = min(math.inf if gap is None else gap, getattr(x, "margin", math.inf))
    n = len(chain.vertices)
    return int(sum(min(n - 1 - i, cap) for i in range(n)))


# counters: span name -> f(args, kwargs, result, outer) -> {metric: increment}
_COUNTERS = {
    "io.parse_complex_text": lambda a, k, r, outer: {"io.lines": a[0].count("\n")},
    "io.format_complex": lambda a, k, r, outer: {"io.lines": r.count("\n")},
    "complexes.FacetComplex.__init__": lambda a, k, r, outer: {"facets.facets": len(a[0].facets)},
    "complexes.DistanceOracle._bfs": lambda a, k, r, outer: {
        "distance.tables": 1, "distance.entries": len(r)},
    "complexes.FlagComplex.maximal_cliques": lambda a, k, r, outer: {"cliques.yielded": len(r)},
    "conditions.enumerate_full_cycles": lambda a, k, r, outer: {"cycles.found": len(r)},
    "conditions.triangle_condition": lambda a, k, r, outer: {"scans.sources": _sources(a, k)},
    "conditions.quadrangle_condition": lambda a, k, r, outer: {"scans.sources": _sources(a, k)},
    "conditions.sphere_domination_everywhere": lambda a, k, r, outer: {"scans.sources": _sources(a, k)},
    "collapse.simple_connectivity_oracle": lambda a, k, r, outer: {"collapse.undecided": int(r.is_unknown)},
    "collapse._smith_diagonal": lambda a, k, r, outer: {
        "collapse.matrix_cells": len(a[0]) * (len(a[0][0]) if a[0] else 0)},
    "isometries.verify_local_geodesic": lambda a, k, r, outer: {"isometries.chain_pairs": _chain_pairs(a, k)},
    "mindisp.isometric_embedding_check": lambda a, k, r, outer: {"mindisp.embedding_pairs": r.pairs_checked},
    "mindisp.invariant_geodesic_search": lambda a, k, r, outer: {
        "mindisp.geodesic_candidates": r.detail.get("candidates_tried", 0)},
    "report.render_json": lambda a, k, r, outer: {"report.bytes": len(r)},
    "report.render_text": lambda a, k, r, outer: {"report.bytes": len(r)},
}


# counters applied to every function of a layer that has no counter of its own
_LAYER_COUNTERS = {
    "generators": lambda a, k, r, outer: {"generators.vertices": _n_vertices(r)} if outer else {},
}


class Tracer:
    """In-memory span store plus per-round counters."""

    def __init__(self):
        self.names: list[str] = []
        self.layers: list[str] = []
        self.spans: list[tuple] = []  # (name id, start, end, parent index, op)
        self.stack: list[int] = []  # open span indices
        self.stack_layers: list[str] = []
        self.op = -1
        self.counts: dict[str, int] = defaultdict(int)
        self._round_start = 0

    def _name_id(self, name, layer) -> int:
        self.names.append(name)
        self.layers.append(layer)
        return len(self.names) - 1

    def wrap(self, fn, name, layer):
        nid = self._name_id(name, layer)
        counter = _COUNTERS.get(name, _LAYER_COUNTERS.get(layer))
        calls_metric = layer + ".calls"
        spans, stack, stack_layers, counts = self.spans, self.stack, self.stack_layers, self.counts
        clock = time.perf_counter

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                if not stack_layers or stack_layers[-1] != layer:
                    counts[calls_metric] += 1
                it = fn(*args, **kwargs)
                try:
                    while True:
                        idx = len(spans)
                        spans.append(None)
                        stack.append(idx)
                        stack_layers.append(layer)
                        t0 = clock()
                        try:
                            item = next(it)
                        except StopIteration:
                            return
                        finally:
                            t1 = clock()
                            stack.pop()
                            stack_layers.pop()
                            spans[idx] = (nid, t0, t1, stack[-1] if stack else -1, self.op)
                        counts[layer + ".yielded"] += 1
                        yield item
                finally:
                    it.close()

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer = not stack_layers or stack_layers[-1] != layer
            if outer:
                counts[calls_metric] += 1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            stack_layers.append(layer)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                stack_layers.pop()
                spans[idx] = (nid, t0, t1, stack[-1] if stack else -1, self.op)
            if counter is not None:
                for key, inc in counter(args, kwargs, result, outer).items():
                    counts[key] += inc
            return result

        return wrapper

    # -- rounds ------------------------------------------------------------

    def start_round(self) -> None:
        self._round_start = len(self.spans)
        self.counts.clear()

    def round_metrics(self) -> dict[str, float]:
        """Per-layer metrics of the spans and counts since start_round."""
        first = self._round_start
        spans = self.spans[first:]
        child = [0.0] * len(spans)
        for nid, t0, t1, parent, _ in spans:
            if parent >= first:
                child[parent - first] += t1 - t0
        out: dict[str, float] = {name: 0 for name, _ in METRICS}
        out.update(self.counts)
        out["cli.ops"] = self.counts.get("cli.calls", 0)  # counts operations that raised too
        for i, (nid, t0, t1, _, _) in enumerate(spans):
            self_time = t1 - t0 - child[i]
            layer = self.layers[nid]
            group = _GROUP_OF_NAME.get(self.names[nid])
            if group is not None:
                out[group] += self_time
            if layer in _SELF_LAYERS:
                out[layer + ".self_s"] += self_time
        return {name: out[name] for name, _ in METRICS}

    def write(self, path) -> None:
        """All spans as CSV: name,layer,start_s,end_s,parent,op."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name,layer,start_s,end_s,parent,op\n")
            for nid, t0, t1, parent, op in self.spans:
                fh.write(f"{self.names[nid]},{self.layers[nid]},{t0:.9f},{t1:.9f},{parent},{op}\n")


def _public_functions(module) -> list[str]:
    return [
        name for name, fn in vars(module).items()
        if inspect.isfunction(fn) and fn.__module__ == module.__name__ and not name.startswith("_")
    ]


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary of the imported ``systolic`` package."""
    from systolic import cli, collapse, complexes, conditions, generators, io, isometries, mindisp, report

    functions = [(cli, "main", "cli")]
    for module in (generators, io, isometries, mindisp):
        layer = module.__name__.rsplit(".", 1)[-1]
        functions += [(module, n, layer) for n in _public_functions(module)]
    functions += [(complexes, "is_flag", "facets")]
    functions += [(conditions, n, "cycles") for n in ("enumerate_full_cycles", "systole")]
    functions += [
        (conditions, n, "scans")
        for n in ("triangle_condition", "quadrangle_condition", "sphere_domination_everywhere",
                  "sphere_domination", "extended_wheel_condition", "find_extended_5_wheels",
                  "is_locally_k_large", "is_k_large", "is_weakly_modular", "is_weakly_systolic",
                  "is_systolic")
    ]
    functions += [
        (collapse, n, "collapse")
        for n in ("simple_connectivity_oracle", "collapse_to_point", "all_simplices",
                  "first_homology", "_smith_diagonal")
    ]
    functions += [(report, n, "report") for n in ("render_json", "render_text")]

    modules = [m for name, m in sys.modules.items() if name == "systolic" or name.startswith("systolic.")]
    for module, name, layer in functions:
        original = getattr(module, name)
        short = module.__name__.rsplit(".", 1)[-1]
        wrapped = tracer.wrap(original, f"{short}.{name}", layer)
        for m in modules:
            for attr, value in list(vars(m).items()):
                if value is original:
                    setattr(m, attr, wrapped)

    methods = [
        (complexes.FacetComplex, ("__init__", "one_skeleton", "contains_simplex", "from_flag"), "facets"),
        (complexes.DistanceOracle, ("distances_from", "_bfs", "distance", "distance_capped", "geodesic"),
         "distance"),
        (complexes.FlagComplex, ("eccentricity",), "distance"),
        (complexes.FlagComplex, ("cliques", "maximal_cliques", "link", "span"), "cliques"),
        (isometries.Automorphism, ("power",), "isometries"),
        (report.CheckRecord, ("from_verdict", "jsonable"), "report"),
    ]
    for cls, names, layer in methods:
        for name in names:
            raw = inspect.getattr_static(cls, name)
            is_static = isinstance(raw, staticmethod)
            fn = raw.__func__ if is_static else raw
            short = cls.__module__.rsplit(".", 1)[-1]
            wrapped = tracer.wrap(fn, f"{short}.{cls.__name__}.{name}", layer)
            setattr(cls, name, staticmethod(wrapped) if is_static else wrapped)
