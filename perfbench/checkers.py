"""Checks of each operation's report against computations made apart from
the program.

The expectations come from refgraph.py (own BFS, adjacency, clique and
induced-cycle search, rational rank of the boundary map) and from closed
forms: lattice windows are systolic with systole 6, translation lengths and
minimal sets follow from axial coordinates, thick-line distances are
ceil(|a - b| / k), hex tori have betti1 2 and no torsion.  Every witness that
comes with a No is re-checked from its definition.

:func:`check_operation` returns None when an outcome is right and a one-line
description of what is wrong otherwise.
"""

from __future__ import annotations

import functools
import itertools
import json
import math

import refgraph as R

CHECK_TOKENS = ("flag", "full-cycles", "systole", "k-large", "locally-k-large", "tc", "qc",
                "weakly-modular", "w5hat", "sd", "weakly-systolic", "systolic")
GEODESIC_CAP = 10_000


class Mismatch(Exception):
    pass


def expect(condition, message) -> None:
    if not condition:
        raise Mismatch(message)


def jnum(x):
    """A number as the reports render it (infinity is the string "inf")."""
    return "inf" if x == math.inf else x


def check_operation(op, outcome, cache) -> str | None:
    if outcome["error"]:
        return f"raised {outcome['error']}"
    if outcome["rc"] != op["exit"]:
        tail = outcome["stderr"].strip().splitlines()[-1:] or [""]
        return f"exit code {outcome['rc']}, expected {op['exit']} {tail[0][:160]}"
    spec = op["expect"]
    try:
        if spec["kind"] == "usage_error":
            expect(outcome["stderr"].startswith("error: "), "no error message on stderr")
            expect(outcome["stdout"] == "", "a report was printed for a usage error")
            return None
        report = json.loads(outcome["stdout"])
        CHECKS[spec["kind"]](report, spec, cache)
    except Mismatch as exc:
        return str(exc)
    return None


# ---------------------------------------------------------------------------
# targets


class Facts:
    """Lazily computed reference facts about one finite complex."""

    def __init__(self, adj, betti=None):
        self.adj = adj
        self._betti = betti

    @functools.cached_property
    def connected(self):
        return len(R.components(self.adj)) == 1

    @functools.cached_property
    def cycles8(self):
        return R.induced_cycles(self.adj, 8)

    @functools.cached_property
    def short_in_links(self):
        return R.short_link_cycle(self.adj, 6, include_empty=False)

    @functools.cached_property
    def short_anywhere(self):
        return any(len(c) < 6 for c in self.cycles8) or self.short_in_links

    @functools.cached_property
    def tc_fails(self):
        return R.any_triangle_violation(self.adj)

    @functools.cached_property
    def qc_fails(self):
        return R.any_quadrangle_violation(self.adj)

    @functools.cached_property
    def sd_fails(self):
        return R.any_sd_violation(self.adj)

    @functools.cached_property
    def four_cycle(self):
        return any(len(c) == 4 for c in self.cycles8)

    @functools.cached_property
    def wheels(self):
        return R.extended_wheels(self.adj)

    @functools.cached_property
    def undominated_wheels(self):
        return [w for w in self.wheels
                if not R.common_neighbours(self.adj, (w[0], *w[1], w[2]))]

    @functools.cached_property
    def betti(self):
        """(betti1, torsion or None when not known in closed form)."""
        return self._betti if self._betti is not None else (R.betti1(self.adj), None)


def _read_flag_file(path):
    n, edges = 0, []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            parts = line.split()
            if parts and parts[0] == "vertices":
                n = int(parts[1])
            elif parts and parts[0] == "edge":
                edges.append((int(parts[1]), int(parts[2])))
    return R.graph(n, edges)


def build_target(target):
    """(Space, map or None, Facts or None) for a target spec."""
    gen = target.get("gen")
    h, betti = None, None
    if "file" in target:
        space = R.Space(_read_flag_file(target["file"]))
    elif gen == "lattice":
        space = R.lattice_window(target["radius"], target["margin"])
        if target.get("map") == "t1":
            h = R.translation(space)
        elif target.get("map") == "glide":
            h = R.glide(space)
        return space, h, None
    elif gen == "thick_line":
        space, h = R.thick_line(target["k"], target["n"])
    elif gen == "hex_torus":
        space = R.hex_torus(target["p"], target["p"])
        h = R.torus_translation(target["p"], target["p"])
        betti = (2, [])
    elif gen == "octahedron":
        space, h = R.Space(R.octahedron()), dict(R.OCTAHEDRON_ANTIPODAL)
    else:
        adj = {
            "icosahedron": lambda: R.icosahedron(),
            "wheel": lambda: R.wheel(target["k"]),
            "extended_wheel5": lambda: R.extended_wheel5(target["dominated"]),
            "cone_over_cycle": lambda: R.cone_over_cycle(target["n"]),
        }[gen]()
        space = R.Space(adj)
    return space, h, Facts(space.adj, betti)


def _target(spec, cache):
    key = json.dumps(spec["target"], sort_keys=True)
    if key not in cache:
        cache[key] = build_target(spec["target"])
    return cache[key]


def _records(report, tokens):
    recs = report["records"]
    names = [r["check"].split("[", 1)[0] for r in recs]
    expect(names == list(tokens), f"records {names}, expected {list(tokens)}")
    return recs


def _answer(rec, answer):
    expect(rec["verdict"] == answer,
           f"{rec['check']} answered {rec['verdict']}, expected {answer}")


# ---------------------------------------------------------------------------
# witnesses


def witness_holds(adj, w, k=6) -> bool:
    """Re-check a No witness from its definition."""
    if not isinstance(w, dict):
        return False
    kind = w.get("kind")
    if kind == "full_cycle":
        return R.is_induced_cycle(adj, tuple(w["vertices"]))
    if kind == "CycleInLink":
        return R.cycle_in_link_holds(adj, tuple(w["simplex"]), tuple(w["cycle"]["vertices"]), k)
    if kind == "TriangleViolation":
        return R.triangle_violation(adj, w["u"], w["v"], w["w"], w["distance"])
    if kind == "QuadrangleViolation":
        return R.quadrangle_violation(adj, w["u"], w["v"], w["w"], w["z"], w["distance"])
    if kind == "SphereSimplexViolation":
        return R.sd_violation(adj, w["v"], w["i"], tuple(w["simplex"]), tuple(w["inner_set"]))
    if kind == "extended_wheel5":
        vs = (w["center"], *w["rim"], w["apex"])
        return R.extended_wheel_holds(adj, w["center"], tuple(w["rim"]), w["apex"]) and not (
            R.common_neighbours(adj, vs))
    return False


def _no_with_witness(adj, rec, k=6):
    _answer(rec, "no")
    expect(witness_holds(adj, rec["witness"], k), f"{rec['check']} witness does not hold: {rec['witness']}")


def _yes_or_no(adj, rec, fails, k=6):
    if fails:
        _no_with_witness(adj, rec, k)
    else:
        _answer(rec, "yes")


def check_systolic(facts: Facts, rec) -> None:
    """Connected, locally 6-large, simply connected; betti1 decides No."""
    adj = facts.adj
    if not facts.connected:
        _answer(rec, "no")
        a, b = rec["witness"]
        expect(b not in R.bfs(adj, a), f"disconnection witness {a}, {b} is connected")
        return
    if facts.short_in_links:
        _no_with_witness(adj, rec)
        return
    b1, torsion = facts.betti
    w = rec["witness"]
    if b1 > 0:
        _answer(rec, "no")
        expect(isinstance(w, dict) and w.get("betti1") == b1,
               f"{rec['check']} witness {w}, expected betti1 {b1}")
        expect(w["torsion"] == torsion if torsion is not None
               else R.torsion_consistent(adj, b1, w["torsion"]),
               f"torsion {w['torsion']} disagrees with the ranks of d2 mod small primes")
    elif rec["verdict"] == "no":
        expect(isinstance(w, dict) and w.get("betti1") == 0 and w.get("torsion")
               and R.torsion_consistent(adj, 0, w["torsion"]),
               f"{rec['check']} answered no with witness {w}, but betti1 is 0")


# ---------------------------------------------------------------------------
# check subcommand


def check_lattice(report, spec, cache) -> None:
    for rec in _records(report, spec["tokens"]):
        _answer(rec, "yes")
        expect(rec["trusted_region"] is True, f"{rec['check']} not scoped to the trusted region")
        if rec["check"] == "systole":
            expect(rec["detail"] == {"search_bound": 8, "value": 6}, f"systole detail {rec['detail']}")
        if rec["check"] == "w5hat":
            expect(rec["detail"] == {"wheels": 0}, f"w5hat detail {rec['detail']}")


def _finite_record(facts: Facts, rec, mode) -> None:
    adj, token, d = facts.adj, rec["check"], rec["detail"]
    if token == "flag":
        _answer(rec, "yes")
    elif token == "full-cycles":
        _answer(rec, "yes")
        cycles = facts.cycles8
        expect(d["count"] == len(cycles), f"full-cycles count {d['count']}, expected {len(cycles)}")
        expect(rec["witness"] == [{"kind": "full_cycle", "vertices": list(c)} for c in cycles[:50]],
               "full-cycles listed cycles differ from the reference enumeration")
        expect(d["truncated"] == (len(cycles) > 50), "full-cycles truncated flag")
    elif token == "systole":
        bound = min(8, len(adj))
        short = [len(c) for c in facts.cycles8 if len(c) <= bound]
        want = short[0] if short else "inf"
        expect(d.get("value") == want, f"systole {d.get('value')}, expected {want}")
    elif token == "k-large":
        _yes_or_no(adj, rec, facts.short_anywhere)
    elif token == "locally-k-large":
        _yes_or_no(adj, rec, facts.short_in_links)
    elif token == "tc":
        _yes_or_no(adj, rec, facts.tc_fails)
    elif token == "qc":
        _yes_or_no(adj, rec, facts.qc_fails)
    elif token == "weakly-modular":
        _yes_or_no(adj, rec, facts.tc_fails or facts.qc_fails)
        if facts.tc_fails:
            expect(rec["witness"]["kind"] == "TriangleViolation", "weakly-modular must report tc first")
    elif token == "w5hat":
        _yes_or_no(adj, rec, bool(facts.undominated_wheels))
        if rec["verdict"] == "yes":
            want = len(facts.wheels)
            expect(d["wheels"] == want, f"w5hat wheels {d['wheels']}, expected {want}")
    elif token == "sd":
        _yes_or_no(adj, rec, facts.sd_fails)
    elif token == "weakly-systolic":
        graph_fails = facts.four_cycle or facts.tc_fails or facts.qc_fails
        if mode == "graph":
            _yes_or_no(adj, rec, graph_fails)
            return
        # composite mode: each route's verdict sits in the detail
        sub = {n: {"check": f"weakly-systolic/{n}", "verdict": d[n]["answer"], "witness": d[n]["witness"]}
               for n in ("graph", "sd", "local_to_global")}
        _yes_or_no(adj, sub["graph"], graph_fails)
        _yes_or_no(adj, sub["sd"], facts.sd_fails)
        local = sub["local_to_global"]
        if facts.four_cycle or facts.undominated_wheels:
            _no_with_witness(adj, local)
        elif facts.betti[0] > 0:
            _answer(local, "no")
            expect(local["witness"].get("betti1") == facts.betti[0],
                   f"local_to_global witness {local['witness']}")
        first_no = next((d[n] for n in ("graph", "sd", "local_to_global") if d[n]["answer"] == "no"), None)
        if first_no is not None:
            _answer(rec, "no")
            expect(rec["witness"] == first_no["witness"],
                   "composite witness is not the first failing route's")
    elif token == "systolic":
        check_systolic(facts, rec)


def check_finite(report, spec, cache) -> None:
    _, _, facts = _target(spec, cache)
    tokens = CHECK_TOKENS if spec["tokens"] == "all" else spec["tokens"]
    for rec in _records(report, tokens):
        expect(rec["trusted_region"] is False, f"{rec['check']} scoped to a trusted region")
        _finite_record(facts, rec, spec["mode"])


def check_facets_flag(report, spec, cache) -> None:
    facets = []
    with open(spec["file"], encoding="utf-8") as fh:
        for line in fh:
            parts = line.split()
            if parts and parts[0] == "facet":
                facets.append(frozenset(map(int, parts[1:])))
    edges = [e for f in facets for e in itertools.combinations(sorted(f), 2)]
    adj = R.graph(sorted(set().union(*facets)), edges)
    by_vertex: dict[int, list[frozenset]] = {}
    for f in facets:
        for v in f:
            by_vertex.setdefault(v, []).append(f)
    missing = [c for c in R.cliques(adj) if len(c) >= 3
               and not any(set(c) <= f for f in by_vertex[c[0]])]
    (rec,) = _records(report, ["flag"])
    if not missing:
        _answer(rec, "yes")
        return
    _answer(rec, "no")
    w = tuple(rec["witness"])
    expect(w in set(missing) and len(w) == min(map(len, missing)),
           f"flag witness {w} is not a smallest non-face")


# ---------------------------------------------------------------------------
# isometry and theorems subcommands


class MapCase:
    """Reference displacement geometry of one map on one target."""

    def __init__(self, space: R.Space, h: dict[int, int]):
        self.space, self.h, self.adj = space, h, space.adj
        verts = sorted(space.trusted) if space.trusted is not None else sorted(self.adj)
        self.values, self.skipped = {}, 0
        for v in verts:
            hv = h.get(v)
            d = math.inf if hv is None or not space.is_trusted(hv) else space.distance(v, hv)
            if d > space.bound or d == math.inf:
                self.skipped += 1
            else:
                self.values[v] = d
        self.tl = min(self.values.values(), default=math.inf)
        self.mins = [v for v in sorted(self.values) if self.values[v] == self.tl]
        self.min_adj = R.induced(self.adj, self.mins)
        self.total = set(h) == set(self.adj)

    def invariant_simplex(self):
        """("yes", orbit) for a closed orbit spanning a clique, ("no", None)
        when every orbit of a total map closes without one, else unknown."""
        incomplete = False
        for v in sorted(self.h):
            orbit, cur = [v], self.h[v]
            while cur != v and cur in self.h and len(orbit) <= len(self.adj):
                orbit.append(cur)
                cur = self.h[cur]
            if cur != v:
                incomplete = True
            elif R.is_clique(self.adj, orbit):
                return "yes", tuple(sorted(orbit))
        return ("no", None) if self.total and not incomplete else ("unknown", None)

    def kind(self):
        answer, _ = self.invariant_simplex()
        return {"yes": "elliptic", "no": "hyperbolic"}.get(answer, "unknown_on_window")

    def iterate(self, v, m):
        for _ in range(m):
            if v not in self.h:
                return None
            v = self.h[v]
        return v

    def geodesic_pair_ok(self, u, v, gap) -> bool | None:
        """Is d(u, v) == gap, or None when the pair is outside the trust scope."""
        sp = self.space
        if gap > sp.bound or not (sp.is_trusted(u) and sp.is_trusted(v)):
            return None
        return sp.distance(u, v) == gap

    def count_geodesics(self, s, t) -> int:
        dist = R.bfs(self.adj, t)
        ways = {t: 1}
        for v in sorted(dist, key=dist.get)[1:]:
            ways[v] = min(sum(ways[w] for w in self.adj[v] if dist.get(w) == dist[v] - 1), GEODESIC_CAP)
        return ways.get(s, 0)


def _case(spec, cache) -> MapCase:
    key = "case:" + json.dumps(spec["target"], sort_keys=True)
    if key not in cache:
        space, h, _ = _target(spec, cache)
        cache[key] = MapCase(space, h)
    return cache[key]


def _chain_claim(case: MapCase, d, vertices, start) -> int:
    """Check a reported chain against the paper's claim: consecutive vertices
    adjacent, h-equivariant with the period, and every trusted pair at index
    gap <= period at that distance.  Returns the number of pairs checked."""
    expect(d["period"] == case.tl, f"chain period {d['period']}, expected {case.tl}")
    period = d["period"]
    at = {start + i: v for i, v in enumerate(vertices)}
    pairs = 0
    for a, u in at.items():
        if a + 1 in at:
            expect(at[a + 1] in case.adj[u], f"chain vertices {u}, {at[a + 1]} are not adjacent")
        if a + period in at and u in case.h:
            expect(at[a + period] == case.h[u], f"chain is not h-equivariant at index {a}")
        for gap in range(1, period + 1):
            if a + gap in at:
                ok = case.geodesic_pair_ok(u, at[a + gap], gap)
                expect(ok is not False, f"chain pair ({a}, {a + gap}) is not at distance {gap}")
                pairs += ok is True
    return pairs


def _isometry_record(case: MapCase, spec, rec) -> None:
    token, d = rec["check"].split("[", 1)[0], rec["detail"]
    expect(rec["trusted_region"] is (spec["target"]["gen"] == "lattice"), f"{token} trust scope")
    mins = case.mins
    if token == "validate":
        _answer(rec, "yes")
        expect(d["total"] == case.total, f"validate total {d['total']}, expected {case.total}")
    elif token == "displacement":
        want = {"translation_length": jnum(case.tl), "min_vertices": mins[:25], "min_count": len(mins),
                "values_computed": len(case.values), "skipped": case.skipped}
        expect(d == want, f"displacement {d}, expected {want}")
    elif token == "classify":
        inv = case.invariant_simplex()[1]
        want = {"kind": case.kind(), "invariant_simplex": list(inv) if inv else None,
                "translation_length": jnum(case.tl)}
        expect(d == want, f"classify {d}, expected {want}")
    elif token == "invariant-simplex":
        answer, orbit = case.invariant_simplex()
        _answer(rec, answer)
        if answer == "yes":
            w = rec["witness"]
            expect(R.is_clique(case.adj, w) and {case.h[v] for v in w} == set(w), "invariant simplex witness")
    elif token == "min-set":
        edges = sum(len(ns) for ns in case.min_adj.values()) // 2
        want = {"vertices": mins[:200], "count": len(mins), "edges": edges, "truncated": len(mins) > 200}
        expect(d == want, "min-set differs from the reference minimal displacement set")
        if spec["target"].get("map") == "glide":
            rows = {case.space.coords[v][1] for v in d["vertices"]}
            expect(rows == {0, 1}, f"glide Min lies on rows {sorted(rows)}, not the two-row strip")
    elif token == "idempotence":
        checked = 0
        for v in mins:
            hv = case.h.get(v)
            if hv is None or hv not in case.values:
                continue
            expect(case.values[hv] == case.tl and R.bfs(case.min_adj, v).get(hv) == case.tl,
                   f"idempotence fails at {v}")
            checked += 1
        _answer(rec, "yes")
        expect(d["checked"] == checked, f"idempotence checked {d['checked']}, expected {checked}")
    elif token == "chain":
        expect(d["start"] <= 0 <= d["stop"] and d["vertices"][-d["start"]] == mins[0],
               "chain does not pass through the least minimal vertex at index 0")
        if not d["truncated"]:
            expect(len(d["vertices"]) == d["stop"] - d["start"] + 1, "chain length")
        pairs = _chain_claim(case, d, d["vertices"], d["start"])
        expect(pairs > 0, "no chain pair could be checked")
        expect(rec["verdict"] == "yes",
               f"chain answered {rec['verdict']}, though all {pairs} trusted pairs at index gap <= "
               f"period {d['period']} are at that distance")


def check_isometry(report, spec, cache) -> None:
    case = _case(spec, cache)
    for rec in _records(report, spec["tokens"]):
        _isometry_record(case, spec, rec)


# expected thickness of the dichotomy's witness, from the closed forms
def _expected_thickness(target):
    if target["gen"] == "thick_line":
        return target["k"]
    if target["gen"] == "lattice":
        return {"t1": 1, "glide": 2}[target["map"]]
    return None


def _theorem_record(case: MapCase, spec, rec) -> None:
    token, d, w = rec["check"].split("[", 1)[0], rec["detail"], rec["witness"]
    sp, mins = case.space, case.mins
    if token == "embedding":
        verts = [v for v in mins if sp.is_trusted(v)]
        pairs, max_dev, first = 0, 0, None
        for i, u in enumerate(verts):
            inner = R.bfs(case.min_adj, u)
            for v in verts[i + 1:]:
                d_amb = sp.distance(u, v)
                if d_amb > sp.bound:
                    continue
                pairs += 1
                dev = inner.get(v, math.inf) - d_amb
                if dev > 0 and first is None:
                    first = (u, v)
                max_dev = max(max_dev, dev)
        expect(d["pairs_checked"] == pairs and d["min_vertices"] == len(mins)
               and d["max_deviation"] == jnum(max_dev),
               f"embedding {d}, expected pairs {pairs}, deviation {max_dev}, {len(mins)} vertices")
        _answer(rec, "yes" if max_dev == 0 else "no")
        if first is not None:
            expect((w["u"], w["v"]) == first, f"embedding witness {w}, expected the pair {first}")
    elif token == "min-systolic":
        expect(d["min_vertices"] == len(mins), "min-systolic vertex count")
        check_systolic(Facts(case.min_adj), rec)
    elif token == "wheel-domination":
        sub = case.min_adj
        five = any(R.induced_cycles(R.induced(sub, R.common_neighbours(sub, s)), 5, 5)
                   for s in R.cliques(sub))
        if five:
            _answer(rec, "no")
            expect(R.cycle_in_link_holds(sub, tuple(w["simplex"]), tuple(w["cycle"]["vertices"]), 6)
                   and len(w["cycle"]["vertices"]) == 5, "wheel-domination witness")
            return
        _answer(rec, "yes")
        expect(d["wheel_count"] == len(R.extended_wheels(sub)), "wheel-domination wheel count")
        for item in d["wheels"]:
            wh = item["wheel"]
            vs = (wh["center"], *wh["rim"], wh["apex"])
            expect(R.extended_wheel_holds(sub, wh["center"], tuple(wh["rim"]), wh["apex"]), "reported wheel")
            dom = sorted(R.common_neighbours(case.adj, vs))
            expect(item["dominator"] == (dom[0] if dom else None), "wheel dominator")
    elif token == "invariant-geodesic":
        s = mins[0]
        tried = min(case.count_geodesics(s, case.h[s]), GEODESIC_CAP)
        if rec["verdict"] == "yes":
            expect(w["period"] == case.tl, "invariant geodesic period")
            at = {w["start"] + i: v for i, v in enumerate(w["vertices"])}
            for a, b in itertools.combinations(sorted(at), 2):
                expect(case.geodesic_pair_ok(at[a], at[b], b - a) is not False,
                       f"invariant geodesic pair ({a}, {b}) is not at distance {b - a}")
            _chain_claim(case, w, w["vertices"], w["start"])
            return
        _answer(rec, "unknown")
        expect(d["candidates_tried"] == tried, f"candidates_tried {d['candidates_tried']}, expected {tried}")
        # every chain through s also passes h^m(s) at index m * tl
        proven = any(
            (hm := case.iterate(s, m)) is not None and case.geodesic_pair_ok(s, hm, m * case.tl) is False
            for m in range(2, len(case.adj) // int(case.tl) + 3)
        )
        expect(proven, "invariant-geodesic answered unknown, but no chain through the start is refuted")
    elif token == "dichotomy":
        kind = case.kind()
        expect(d["kind"] == kind and d["translation_length"] == jnum(case.tl), f"dichotomy {d}")
        if kind == "elliptic":
            _answer(rec, "yes")
            return
        if rec["verdict"] == "no":
            span = d["chain_stop"] - d["chain_start"] + 1
            expect(span > len(case.adj),
                   f"dichotomy says the chain revisits a vertex, but it spans {span} indices")
            return
        _answer(rec, "yes")
        k = w["k"]
        expect(d["thickness"] == k == _expected_thickness(spec["target"]), f"thickness {k}")
        vs = w["vertices"]
        expect(len(set(vs)) == len(vs), "thick witness repeats a vertex")
        for i, j in itertools.combinations(range(len(vs)), 2):
            expect((vs[j] in case.adj[vs[i]]) == (j - i <= k), f"thick adjacency at indices {i}, {j}")
            if (j - i) % k == 0:
                expect(case.geodesic_pair_ok(vs[i], vs[j], (j - i) // k) is not False,
                       f"thick distance at indices {i}, {j}")
        if spec["target"].get("map") == "glide":
            expect({sp.coords[v][1] for v in vs} <= {0, 1}, "glide witness leaves the two-row strip")


def check_theorems(report, spec, cache) -> None:
    case = _case(spec, cache)
    trusted = spec["target"]["gen"] == "lattice"
    for rec in _records(report, spec["tokens"]):
        expect(rec["trusted_region"] is trusted, f"{rec['check']} trust scope")
        _theorem_record(case, spec, rec)


CHECKS = {
    "lattice_checks": check_lattice,
    "finite_checks": check_finite,
    "facets_flag": check_facets_flag,
    "isometry": check_isometry,
    "theorems": check_theorems,
}
