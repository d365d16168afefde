"""Independent brute-force oracles.

Deliberately written with different algorithms than the package (subset
enumeration, Floyd-Warshall, backtracking) so agreement is meaningful.
Only usable at small scale.
"""

from __future__ import annotations

import itertools
import math

from systolic import Automorphism, FlagComplex, PathChain, displacement_profile, is_extended_wheel5
from systolic.collapse import collapse_to_point
from systolic.complexes import ComplexError, WindowView
from systolic.generators import AXIAL_DIRECTIONS, _row_translation, _unit_translation, hex_distance
from systolic.isometries import DisplacementProfile
from systolic.mindisp import EmbeddingReport
from systolic.verdict import (
    CycleInLink,
    DistancePair,
    ExtendedWheel5,
    FullCycle,
    SphereSimplexViolation,
    Verdict,
    no,
    unknown,
    yes,
)

INF = math.inf


def brute_force_full_cycles(g: FlagComplex, max_len: int) -> set[tuple[int, ...]]:
    """Canonical vertex tuples of all induced cycles with 4..max_len
    vertices, by checking every vertex subset and every arrangement."""
    out: set[tuple[int, ...]] = set()
    verts = list(g.vertices)
    for size in range(4, max_len + 1):
        for subset in itertools.combinations(verts, size):
            sset = set(subset)
            degs = {v: sum(1 for u in g.neighbors(v) if u in sset) for v in subset}
            if any(d != 2 for d in degs.values()):
                continue
            # 2-regular induced subgraph: a cycle iff connected
            start = subset[0]
            seen = {start}
            frontier = [start]
            while frontier:
                v = frontier.pop()
                for u in g.neighbors(v):
                    if u in sset and u not in seen:
                        seen.add(u)
                        frontier.append(u)
            if len(seen) != size:
                continue
            order = [start]
            prev = None
            while len(order) < size:
                nxt = [u for u in g.neighbors(order[-1]) if u in sset and u != prev]
                prev = order[-1]
                order.append(nxt[0])
            out.add(FullCycle.canonical(tuple(order)).vertices)
    return out


def reference_full_cycles(g: FlagComplex, max_len: int, min_len: int = 4) -> list[FullCycle]:
    """Induced cycles with min_len..max_len vertices, sorted by length then
    vertices: every chordless path from each (v, u, w) is extended until it
    runs out of budget, pruned by distances inside g itself; the reference
    for the package's pool-restricted ``_induced_cycles``."""
    out = []
    if max_len < max(min_len, 4):
        return out
    for v in g.vertices:
        higher = [n for n in sorted(g.neighbors(v)) if n > v]
        for i, u in enumerate(higher):
            for w in higher[i + 1 :]:
                if not g.adjacent(u, w):
                    out += _close_paths(g, v, u, w, max_len, min_len)
    return sorted(out, key=lambda c: (len(c.vertices), c.vertices))


def _close_paths(g: FlagComplex, v: int, u: int, w: int, max_len: int, min_len: int):
    """Induced cycles (v, u, ..., w) with interior vertices > v and off N(v).

    Rotation symmetry is killed by making v the smallest cycle vertex;
    reflection symmetry by u < w.
    """
    nv = g.neighbors(v)
    dist_w = g.oracle.ball(w, max_len - 3)
    stack: list[tuple[tuple[int, ...], frozenset[int]]] = [((u,), nv | {v, u})]
    while stack:
        path, blocked = stack.pop()
        last = path[-1]
        length = len(path) + 2
        if length >= min_len and w in g.neighbors(last):
            if all(w not in g.neighbors(p) for p in path[:-1]):
                yield FullCycle.canonical((v,) + path + (w,))
        if length + 1 > max_len:
            continue
        for c in sorted(g.neighbors(last), reverse=True):
            if c <= v or c == w or c in blocked:
                continue
            if dist_w.get(c, INF) > max_len - length:
                continue
            if any(c in g.neighbors(p) for p in path[:-1]):
                continue
            stack.append((path + (c,), blocked | {c}))


def reference_lattice_window(radius: int, margin: int) -> WindowView:
    """The triangular lattice window built the checked way: the sorted list
    of coordinates at hex distance <= radius, numbered row-major, and the
    edge list of unit steps found through a coordinate dictionary, passed
    through ``WindowView.__init__`` with the generator's declared maps."""
    if radius < 1:
        raise ComplexError("lattice window radius must be at least 1")
    coords = sorted(
        (
            (q, r)
            for q in range(-radius, radius + 1)
            for r in range(-radius, radius + 1)
            if hex_distance(q, r) <= radius
        ),
        key=lambda c: (c[1], c[0]),
    )
    id_of = {c: i for i, c in enumerate(coords)}
    edges = []
    for (q, r), i in id_of.items():
        for dq, dr in AXIAL_DIRECTIONS:
            j = id_of.get((q + dq, r + dr))
            if j is not None and i < j:
                edges.append((i, j))
    return WindowView(
        range(len(coords)),
        edges,
        id_of[(0, 0)],
        radius,
        margin,
        coord_of={i: c for c, i in id_of.items()},
        symmetries=(_unit_translation, _row_translation),
    )


def floyd_warshall(g: FlagComplex) -> dict[tuple[int, int], float]:
    verts = list(g.vertices)
    dist = {(u, v): (0 if u == v else INF) for u in verts for v in verts}
    for u, v in g.edges():
        dist[(u, v)] = dist[(v, u)] = 1
    for k in verts:
        for i in verts:
            dik = dist[(i, k)]
            if dik == INF:
                continue
            for j in verts:
                alt = dik + dist[(k, j)]
                if alt < dist[(i, j)]:
                    dist[(i, j)] = alt
    return dist


def bfs_pairs(g: FlagComplex) -> dict[tuple[int, int], float]:
    """The table of :func:`floyd_warshall`, read from one :func:`bfs_table`
    per vertex: fast enough for windows of a few hundred vertices."""
    dist = dict.fromkeys(itertools.product(g.vertices, repeat=2), INF)
    for u in g.vertices:
        dist.update(((u, v), d) for v, d in bfs_table(g, u).items())
    return dist


def bfs_distance(g: FlagComplex, u: int, v: int) -> float:
    """d(u, v) by a plain layer-by-layer search over ``neighbors``, INF when
    v is unreachable; the reference for ``DistanceOracle.distance_capped``."""
    seen, layer, d = {u}, {u}, 0
    while layer:
        if v in layer:
            return d
        layer = {w for x in layer for w in g.neighbors(x)} - seen
        seen |= layer
        d += 1
    return INF


def bfs_table(g: FlagComplex, u: int) -> dict[int, int]:
    """Distance from u to every vertex it reaches, by a plain layer-by-layer
    search over ``neighbors``."""
    dist, layer, d = {u: 0}, [u], 0
    while layer:
        d += 1
        layer = {w for x in layer for w in g.neighbors(x) if w not in dist}
        for w in layer:
            dist[w] = d
    return dist


def reference_displacement_profile(x: FlagComplex, h: Automorphism) -> DisplacementProfile:
    """The displacement profile by one plain search per trusted vertex whose
    image is trusted (``bfs_distance``), with no map carrying anything; a
    value past the margin is skipped.  The reference for
    ``isometries.displacement_profile``."""
    region, bound = x.trusted_vertices, x.margin
    values: dict[int, int] = {}
    skipped = 0
    for v in sorted(region):
        hv = h.mapping.get(v)
        if hv not in region:
            skipped += 1
            continue
        d = bfs_distance(x, v, hv)
        if d == INF and bound == INF:
            raise ComplexError(f"vertex {v} and its image {hv} lie in different components")
        if d > bound:
            skipped += 1
            continue
        values[v] = d
    length = min(values.values(), default=INF)
    mins = tuple(v for v in sorted(values) if values[v] == length)
    return DisplacementProfile(values, skipped, length, mins)


def reference_embedding(x: FlagComplex, sub: FlagComplex) -> EmbeddingReport:
    """Every pair of trusted vertices u < v of ``sub`` with d_x(u, v) at
    most the margin, in sorted order, compared by plain searches of x and of
    ``sub``: the pair loop the embedding check ran before it rode the
    declared maps.  The reference for ``mindisp.isometric_embedding_check``."""
    region, bound = x.trusted_vertices, x.margin
    members = region.intersection(sub.vertices)
    pairs = 0
    max_dev = 0.0
    witness = None
    for u in sorted(members):
        amb, inner = bfs_table(x, u), bfs_table(sub, u)
        for v in sorted(v for v in members if v > u and v in amb and amb[v] <= bound):
            d_sub, d_amb = inner.get(v, INF), amb[v]
            pairs += 1
            dev = d_sub - d_amb
            if dev > 0 and witness is None:
                witness = DistancePair(u, v, d_sub, d_amb)
            max_dev = max(max_dev, dev)
    return EmbeddingReport(pairs, max_dev, witness)


def all_cliques(g: FlagComplex) -> list[tuple[int, ...]]:
    """Every non-empty clique, by subset filtering on small complexes."""
    verts = list(g.vertices)
    out = []
    for size in range(1, len(verts) + 1):
        found = False
        for subset in itertools.combinations(verts, size):
            if all(g.adjacent(u, v) for u, v in itertools.combinations(subset, 2)):
                out.append(subset)
                found = True
        if not found:
            break
    return out


def brute_force_invariant_simplices(
    g: FlagComplex,
    mapping: dict[int, int],
    cliques: list[tuple[int, ...]] | None = None,
) -> list[tuple[int, ...]]:
    """All cliques mapped onto themselves, by scanning every clique."""
    out = []
    for clique in all_cliques(g) if cliques is None else cliques:
        if all(v in mapping for v in clique) and {mapping[v] for v in clique} == set(clique):
            out.append(clique)
    return out


def brute_force_extended_wheels(x: FlagComplex) -> list[ExtendedWheel5]:
    """Every extended 5-wheel with all seven vertices trusted: each rotation
    of each induced 5-cycle of the trusted region, with every trusted center
    and apex, kept when ``is_extended_wheel5`` accepts it; the reference for
    the package's ``find_extended_5_wheels``."""
    region = sorted(x.trusted_vertices)
    out = set()
    for rim in brute_force_full_cycles(x.span(region), 5):
        if len(rim) != 5:
            continue
        for i in range(5):
            ordered = rim[i:] + rim[:i]
            for c in region:
                for a in region:
                    if is_extended_wheel5(x, ExtendedWheel5(c, ordered, a)):
                        out.add(ExtendedWheel5.canonical(c, ordered, a))
    return sorted(out, key=lambda w: (w.center, w.rim, w.apex))


def all_automorphisms(g: FlagComplex) -> list[dict[int, int]]:
    """Every total adjacency-preserving bijection, by backtracking with
    degree pruning."""
    verts = sorted(g.vertices)
    degree = {v: len(g.neighbors(v)) for v in verts}
    results: list[dict[int, int]] = []

    def extend(i: int, mapping: dict[int, int], used: set[int]) -> None:
        if i == len(verts):
            results.append(dict(mapping))
            return
        v = verts[i]
        for img in verts:
            if img in used or degree[img] != degree[v]:
                continue
            ok = True
            for u, mu in mapping.items():
                if g.adjacent(u, v) != g.adjacent(mu, img):
                    ok = False
                    break
            if ok:
                mapping[v] = img
                used.add(img)
                extend(i + 1, mapping, used)
                used.discard(img)
                del mapping[v]

    extend(0, {}, set())
    return results


def thick_line_distance(k: int, a: int, b: int) -> int:
    """Closed form for the k-thick integer line."""
    return math.ceil(abs(a - b) / k)


def cycle_space_rank_mod2(g: FlagComplex, triangles: list[tuple[int, int, int]]) -> int:
    """Rank over GF(2) of the span of triangle boundaries inside the cycle
    space; used to cross-check first_homology on small complexes."""
    edges = {e: i for i, e in enumerate(g.edges())}
    rows = []
    for a, b, c in triangles:
        vec = 0
        for e in ((a, b), (a, c), (b, c)):
            vec |= 1 << edges[(min(e), max(e))]
        rows.append(vec)
    rank = 0
    for col in range(len(edges)):
        pivot = None
        for i, row in enumerate(rows):
            if row >> col & 1:
                pivot = i
                break
        if pivot is None:
            continue
        rank += 1
        pr = rows.pop(pivot)
        rows = [r ^ pr if r >> col & 1 else r for r in rows]
    return rank


def first_triangle_violation(g: FlagComplex, dist=None) -> tuple[int, int, int, float] | None:
    """First (u, v, w, d) breaking the triangle condition on a connected
    complex: every trusted source in sorted order, then every edge v < w of
    trusted vertices in sorted order, with the distance table ``dist``
    (Floyd-Warshall by default); only d up to ``g.margin`` counts."""
    dist = floyd_warshall(g) if dist is None else dist
    trusted, bound = g.trusted_vertices, g.margin
    edges = sorted(e for e in g.edges() if set(e) <= trusted)
    for u in sorted(trusted):
        for v, w in edges:
            d = dist[(u, v)]
            if d < 2 or d > bound or d != dist[(u, w)]:
                continue
            common = set(g.neighbors(v)) & set(g.neighbors(w))
            if not any(dist[(u, t)] == d - 1 for t in common):
                return (u, v, w, d)
    return None


def first_quadrangle_violation(g: FlagComplex, dist=None) -> tuple[int, int, int, int, float] | None:
    """First (u, v, w, z, d) breaking the quadrangle condition on a connected
    complex: every trusted source, then trusted z, then non-adjacent trusted
    neighbor pairs v < w of z, all in sorted order, with the distance table
    ``dist`` (Floyd-Warshall by default); only d(u, z) up to ``g.margin``
    counts."""
    dist = floyd_warshall(g) if dist is None else dist
    trusted, bound = g.trusted_vertices, g.margin
    for u in sorted(trusted):
        for z in sorted(trusted):
            if dist[(u, z)] > bound:
                continue
            d = dist[(u, z)] - 1
            if d < 2:
                continue
            for v, w in itertools.combinations(sorted(g.neighbors(z) & trusted), 2):
                if g.adjacent(v, w) or dist[(u, v)] != d or dist[(u, w)] != d:
                    continue
                common = set(g.neighbors(v)) & set(g.neighbors(w))
                if not any(dist[(u, t)] == d - 1 for t in common):
                    return (u, v, w, z, d)
    return None


def first_map_violation(g: FlagComplex, mapping: dict[int, int]) -> tuple[str, int, int] | None:
    """First domain pair u < v whose adjacency the map changes, scanning
    every pair; the map's vertices are assumed to be vertices of g."""
    for u, v in itertools.combinations(sorted(mapping), 2):
        before = g.adjacent(u, v)
        if before != g.adjacent(mapping[u], mapping[v]):
            return ("edge_broken" if before else "edge_created", u, v)
    return None


def first_nested_facets(facets: list[tuple[int, ...]]) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """First pair (a, b) of distinct facets with a inside b, both in sorted
    order, scanning every pair."""
    fs = sorted({tuple(sorted(set(f))) for f in facets})
    for a in fs:
        for b in fs:
            if a != b and set(a) <= set(b):
                return (a, b)
    return None


def smith_diagonal(rows: list[list[int]]) -> list[int]:
    """Non-zero diagonal of the Smith normal form of a dense integer matrix,
    by extended-gcd elimination (Cohen, A Course in Computational Algebraic
    Number Theory, Alg. 2.4.14): a unimodular 2 x 2 combination of the
    corner's row (column) with another puts their gcd in the corner and a
    zero below (beside) it, and a corner that does not divide the rest of
    the block takes in the offending row before the round runs again."""
    m = [row[:] for row in rows]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    out: list[int] = []
    for t in range(min(nr, nc)):
        where = next(((i, j) for j in range(t, nc) for i in range(t, nr) if m[i][j]), None)
        if where is None:
            break
        i, j = where
        m[t], m[i] = m[i], m[t]
        for row in m:
            row[t], row[j] = row[j], row[t]
        while True:
            for i in range(t + 1, nr):
                a, b = m[t][t], m[i][t]
                if b:
                    g, p, q = _extended_gcd(a, b)
                    top, low = m[t], m[i]
                    m[t] = [p * x + q * y for x, y in zip(top, low)]
                    m[i] = [a // g * y - b // g * x for x, y in zip(top, low)]
            for j in range(t + 1, nc):
                a, b = m[t][t], m[t][j]
                if b:
                    g, p, q = _extended_gcd(a, b)
                    for row in m:
                        x, y = row[t], row[j]
                        row[t], row[j] = p * x + q * y, a // g * y - b // g * x
            if any(m[i][t] for i in range(t + 1, nr)):
                continue
            corner = m[t][t]
            bad = next(
                (i for i in range(t + 1, nr) if any(m[i][j] % corner for j in range(t + 1, nc))),
                None,
            )
            if bad is None:
                break
            m[t] = [x + y for x, y in zip(m[t], m[bad])]
        out.append(abs(m[t][t]))
    return out


def _extended_gcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, p, q) with p * a + q * b = g = gcd(a, b) >= 0; (|a|, +-1, 0)
    when a divides b, so that a corner dividing its column stays put."""
    if a and b % a == 0:
        return abs(a), (1 if a > 0 else -1), 0
    r0, r1, p0, p1, q0, q1 = a, b, 1, 0, 0, 1
    while r1:
        k = r0 // r1
        r0, r1 = r1, r0 - k * r1
        p0, p1 = p1, p0 - k * p1
        q0, q1 = q1, q0 - k * q1
    if r0 < 0:
        return -r0, -p0, -q0
    return r0, p0, q0


def _determinant(a: list[list[int]]) -> int:
    """Integer determinant by cofactor expansion along the first row."""
    if not a:
        return 1
    return sum(
        (-1) ** j * x * _determinant([row[:j] + row[j + 1 :] for row in a[1:]])
        for j, x in enumerate(a[0])
        if x
    )


def invariant_factors(rows: list[list[int]]) -> list[int]:
    """Invariant factors of an integer matrix from its determinantal
    divisors: d_k is the gcd of all k x k minors, and the k-th factor is
    d_k / d_(k-1) for every k with d_k non-zero (Newman, Integral Matrices,
    ch. II); the reference for the package's Smith normal form."""
    nr = len(rows)
    nc = len(rows[0]) if nr else 0
    out: list[int] = []
    prev = 1
    for k in range(1, min(nr, nc) + 1):
        d = 0
        for r in itertools.combinations(range(nr), k):
            for c in itertools.combinations(range(nc), k):
                d = math.gcd(d, _determinant([[rows[i][j] for j in c] for i in r]))
        if d == 0:
            break
        out.append(d // prev)
        prev = d
    return out


def dense_first_homology(x: FlagComplex) -> tuple[int, list[int]]:
    """(free rank, torsion coefficients > 1) of first integral homology from
    the full dense boundary matrices d1 (V x E) and d2 (E x T), each through
    smith_diagonal; the reference for the package's sparse first_homology."""
    verts = x.vertices
    vidx = {v: i for i, v in enumerate(verts)}
    edges = list(x.edges())
    eidx = {e: i for i, e in enumerate(edges)}
    triangles = [c for c in x.cliques(max_size=3) if len(c) == 3]

    if not edges:
        return 0, []
    d1 = [[0] * len(edges) for _ in verts]
    for j, (u, v) in enumerate(edges):
        d1[vidx[u]][j] -= 1
        d1[vidx[v]][j] += 1
    rank1 = len(smith_diagonal(d1))

    rank2 = 0
    torsion: list[int] = []
    if triangles:
        d2 = [[0] * len(triangles) for _ in edges]
        for j, (a, b, c) in enumerate(triangles):
            d2[eidx[(b, c)]][j] += 1
            d2[eidx[(a, c)]][j] -= 1
            d2[eidx[(a, b)]][j] += 1
        diag = smith_diagonal(d2)
        rank2 = len(diag)
        torsion = [d for d in diag if d > 1]

    betti1 = len(edges) - rank1 - rank2
    return betti1, torsion


def naive_greedy_collapse(x: FlagComplex, budget: int) -> tuple[str, int]:
    """The greedy collapse pass with no bookkeeping: at every step rescan all
    faces, in (size, sorted vertices) order, for the least free one (exactly
    one coface present, and that coface maximal) and remove it with its
    coface.  Returns (outcome, steps), the outcome "point" when one vertex is
    left, "stalled" when no face is free, and "budget" when a face is free
    but ``budget`` steps are spent."""
    present = {frozenset(c) for c in all_cliques(x)}

    def cofaces(s: frozenset[int]) -> list[frozenset[int]]:
        return [s | {v} for v in x.vertices if v not in s and s | {v} in present]

    steps = 0
    while len(present) > 1:
        pair = next(
            ((s, cof[0]) for s in sorted(present, key=lambda f: (len(f), sorted(f)))
             if len(cof := cofaces(s)) == 1 and not cofaces(cof[0])),
            None,
        )
        if pair is None:
            return "stalled", steps
        if steps >= budget:
            return "budget", steps
        present -= set(pair)
        steps += 1
    return "point", steps


def replay_strong_collapses(x: FlagComplex, removed: tuple[int, ...]) -> set[int]:
    """Delete the vertices of ``removed`` from x in order, checking from the
    edge list that each is dominated when it goes: some other vertex u
    left has N[v] ⊆ N[u] among the vertices left.  Returns the vertices
    left; raises AssertionError at the first removal that is not a strong
    collapse.  The reference for ``collapse.strong_core``."""
    left = set(x.vertices)
    edges = {frozenset(e) for e in x.edges()}

    def closed(v: int) -> set[int]:
        return {v} | {w for w in left if frozenset((v, w)) in edges}

    for v in removed:
        assert v in left, f"{v} removed twice"
        assert any(closed(v) <= closed(u) for u in left - {v}), f"{v} is not dominated"
        left.remove(v)
    return left


def collapse_first_oracle(x: FlagComplex, budget: int) -> Verdict:
    """Simple connectivity in the older order: the collapse search first, then
    dense_first_homology; the reference for simple_connectivity_oracle."""
    comps = x.connected_components()
    if len(comps) > 1:
        reps = sorted(min(c) for c in comps)
        return no(witness=tuple(reps[:2]), reason="disconnected")
    stop = f"budget {budget} skips the collapse pass"
    if budget > 0:
        collapsed = collapse_to_point(x, budget)
        if collapsed.is_yes:
            return yes(reason=collapsed.reason, **collapsed.detail)
        stop = collapsed.reason
    betti1, torsion = dense_first_homology(x)
    if betti1 > 0 or torsion:
        return no(
            witness={"betti1": betti1, "torsion": torsion},
            reason="first integral homology is non-trivial",
        )
    return unknown(reason=f"{stop}; first homology vanishes")


def first_sphere_violation(x: FlagComplex, v: int, n: int) -> Verdict:
    """Sphere domination at v to depth n, clique by clique: every clique of
    each sphere in the order of ``FlagComplex.cliques``, its inner set rebuilt
    from ``common_neighbors`` and re-tested with ``is_clique``; the reference
    for the package's one-pass ``sphere_domination``."""
    g, region, bound = x, x.trusted_vertices, x.margin
    if n < 0:
        raise ComplexError("n must be non-negative")
    if region is not None:
        if v not in region:
            raise ComplexError(f"vertex {v} is outside the trusted region")
        if n + 1 > bound:
            raise ComplexError(
                f"n={n} looks past the trusted horizon (margin {int(bound)})"
            )
    spheres: list[list[int]] = [[] for _ in range(n + 2)]
    for u, d in g.oracle.ball(v, n + 1).items():
        if d <= n + 1:
            spheres[d].append(u)
    ball: set[int] = {v}
    for i in range(n + 1):
        sphere = sorted(spheres[i + 1])
        if not sphere:
            break
        for sigma in g.span(sphere).cliques():
            inner = g.common_neighbors(sigma) & ball
            if not inner or not g.is_clique(inner):
                return no(
                    witness=SphereSimplexViolation(v, i, sigma, tuple(sorted(inner))),
                    reason="sphere simplex undominated from the inner ball",
                )
        ball.update(sphere)
    return yes()


def first_short_link_cycle(x: FlagComplex, k: int, min_len: int = 4) -> Verdict:
    """Local k-largeness by building the link of every simplex of the
    trusted region through ``FlagComplex.link`` and enumerating its full
    cycles of min_len..k-1 vertices with ``reference_full_cycles``; the
    reference for the package's vertex-link scan ``first_link_cycle``."""
    if k <= 4:
        return yes(reason="full cycles never have length below 4")
    g, region = x, x.trusted_vertices
    for sigma in g.span(region).cliques():
        link = g.link(sigma)
        short = reference_full_cycles(link, k - 1, min_len)
        if short:
            return no(
                witness=CycleInLink(sigma, short[0]),
                reason="short full cycle in a link",
            )
    return yes()


def loop_power(h: Automorphism, n: int) -> Automorphism:
    """The n-th power of h by |n| - 1 single-step compositions; the reference
    for the package's repeated squaring in ``Automorphism.power``."""
    if n == 0:
        keys = set(h.mapping) | set(h.inverse_mapping)
        return Automorphism({v: v for v in keys}, f"{h.name}^0")
    base = h.mapping if n > 0 else h.inverse_mapping
    out = dict(base)
    for _ in range(abs(n) - 1):
        out = {u: base[v] for u, v in out.items() if v in base}
    return Automorphism(out, f"{h.name}^{n}")


def greedy_lex_least_geodesic(g: FlagComplex, u: int, v: int) -> tuple[int, ...]:
    """The lexicographically least geodesic, built by always stepping to the
    smallest neighbor that stays on a shortest path to v."""
    back = g.oracle.distances_from(v)
    path = [u]
    while path[-1] != v:
        d = back[path[-1]]
        path.append(min(w for w in g.neighbors(path[-1]) if back.get(w, INF) == d - 1))
    return tuple(path)


def reference_orbit_path(
    x: FlagComplex,
    h: Automorphism,
    v: int | None = None,
    alpha: tuple[int, ...] | None = None,
) -> PathChain:
    """Orbit chain by a forward walk over h and a mirror-image backward walk
    over h^-1, stitched segment by segment; the reference for
    ``isometries.orbit_path``."""
    g = x
    prof = displacement_profile(x, h)
    length = prof.translation_length
    if length in (0, INF):
        raise ComplexError("chains need a positive trusted translation length")
    if v is None:
        v = prof.min_vertices[0]
    if v not in prof.values or prof.values[v] != length:
        raise ComplexError(f"vertex {v} does not attain the translation length")
    if alpha is None:
        alpha = greedy_lex_least_geodesic(g, v, h(v))
    alpha = tuple(alpha)
    if alpha[0] != v or alpha[-1] != h(v):
        raise ComplexError("alpha must run from v to h(v)")
    if len(alpha) - 1 != length:
        raise ComplexError("alpha is not minimal: its length must be the translation length")
    for a, b in zip(alpha, alpha[1:]):
        if not g.adjacent(a, b):
            raise ComplexError(f"alpha is not a path: {a} and {b} are not adjacent")

    cap = g.n_vertices // int(length) + 2

    segments: dict[int, tuple[int, ...]] = {0: alpha}
    seg = alpha
    n = 0
    while n < cap:
        if not all(h.defined(u) for u in seg):
            break
        seg = tuple(h.mapping[u] for u in seg)
        n += 1
        segments[n] = seg
    fwd = n
    seg = alpha
    n = 0
    while n > -cap:
        if not all(u in h.inverse_mapping for u in seg):
            break
        seg = tuple(h.inverse_mapping[u] for u in seg)
        n -= 1
        segments[n] = seg
    bwd = n

    vertices: list[int] = []
    for m in range(bwd, fwd + 1):
        part = segments[m]
        if vertices:
            if vertices[-1] != part[0]:
                raise ComplexError("segment seam mismatch")
            vertices.extend(part[1:])
        else:
            vertices.extend(part)
    return PathChain(bwd * int(length), tuple(vertices), int(length))
