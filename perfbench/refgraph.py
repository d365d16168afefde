"""Reference graph code for checking reports, written apart from the package.

Nothing here imports ``systolic``.  Complexes are adjacency maps
``{vertex: frozenset(neighbours)}`` of flag complexes; every algorithm is the
plain, brute-force reading of its definition, meant for the small inputs and
closed forms the benchmark checks against.  The constructions restate each
generator's documented definition (coordinates, numbering, maps) so that
reports can be compared vertex by vertex.
"""

from __future__ import annotations

import math
import random
from collections import deque
from fractions import Fraction

INF = math.inf
AXIAL = ((1, 0), (-1, 0), (0, 1), (0, -1), (1, -1), (-1, 1))


def graph(n_or_vertices, edges) -> dict[int, frozenset[int]]:
    vs = range(n_or_vertices) if isinstance(n_or_vertices, int) else n_or_vertices
    adj: dict[int, set[int]] = {v: set() for v in vs}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return {v: frozenset(ns) for v, ns in adj.items()}


def induced(adj, vertices) -> dict[int, frozenset[int]]:
    keep = set(vertices)
    return {v: adj[v] & keep for v in sorted(keep)}


def edges_of(adj) -> list[tuple[int, int]]:
    return [(u, v) for u in sorted(adj) for v in sorted(adj[u]) if u < v]


# ---------------------------------------------------------------------------
# constructions


class Space:
    """A complex with its trust scope: ``trusted`` is None for a finite
    complex (everything trusted, no distance bound) or the trusted vertex set
    of a window together with ``bound`` = margin.  ``dist`` may be given as a
    closed form; otherwise it is breadth-first search."""

    def __init__(self, adj, trusted=None, bound=INF, dist=None, coords=None):
        self.adj = adj
        self.trusted = trusted
        self.bound = bound
        self.coords = coords
        self._dist = dist
        self._tables: dict[int, dict[int, int]] = {}

    def is_trusted(self, v) -> bool:
        return self.trusted is None or v in self.trusted

    def bfs(self, s) -> dict[int, int]:
        table = self._tables.get(s)
        if table is None:
            table = bfs(self.adj, s)
            self._tables[s] = table
        return table

    def distance(self, u, v) -> float:
        if self._dist is not None:
            return self._dist(u, v)
        return self.bfs(u).get(v, INF)


def hex_distance(q, r) -> int:
    return max(abs(q), abs(r), abs(q + r))


def lattice_window(radius, margin) -> Space:
    """Hex ball of the triangular lattice, ids row-major by (r, q)."""
    coords = sorted(
        ((q, r) for q in range(-radius, radius + 1) for r in range(-radius, radius + 1)
         if hex_distance(q, r) <= radius),
        key=lambda c: (c[1], c[0]),
    )
    id_of = {c: i for i, c in enumerate(coords)}
    edges = [
        (i, id_of[(q + dq, r + dr)])
        for (q, r), i in id_of.items()
        for dq, dr in AXIAL
        if id_of.get((q + dq, r + dr), -1) > i
    ]
    trusted = frozenset(i for (q, r), i in id_of.items() if hex_distance(q, r) <= radius - margin)

    def dist(u, v):
        (a, b), (c, d) = coords[u], coords[v]
        return hex_distance(a - c, b - d)  # hex balls are geodesically convex

    return Space(graph(len(coords), edges), trusted, margin, dist, coords)


def lattice_map(space: Space, image) -> dict[int, int]:
    id_of = {c: i for i, c in enumerate(space.coords)}
    out = {}
    for i, c in enumerate(space.coords):
        j = id_of.get(image(c))
        if j is not None:
            out[i] = j
    return out


def translation(space: Space, steps=1) -> dict[int, int]:
    return lattice_map(space, lambda c: (c[0] + steps, c[1]))


def glide(space: Space) -> dict[int, int]:
    return lattice_map(space, lambda c: (c[0] + c[1], 1 - c[1]))


def thick_line(k, half_width) -> tuple[Space, dict[int, int]]:
    n = 2 * half_width + 1
    edges = [(i, j) for i in range(n) for j in range(i + 1, min(i + k, n - 1) + 1)]
    space = Space(graph(n, edges), dist=lambda u, v: -(-abs(u - v) // k))
    return space, {i: i + 1 for i in range(n - 1)}


def hex_torus(p, q) -> Space:
    def vid(a, b):
        return (a % p) * q + (b % q)

    edges = {
        tuple(sorted((vid(a, b), vid(a + da, b + db))))
        for a in range(p) for b in range(q) for da, db in AXIAL
    }
    return Space(graph(p * q, edges))


def torus_translation(p, q) -> dict[int, int]:
    return {a * q + b: ((a + 1) % p) * q + b for a in range(p) for b in range(q)}


def octahedron():
    return graph(6, [(u, v) for u in range(6) for v in range(u + 1, 6) if u // 2 != v // 2])


OCTAHEDRON_ANTIPODAL = {0: 1, 1: 0, 2: 3, 3: 2, 4: 5, 5: 4}


def icosahedron():
    edges = [(0, i) for i in range(1, 6)] + [(11, i) for i in range(6, 11)]
    for i in range(5):
        edges += [(1 + i, 1 + (i + 1) % 5), (6 + i, 6 + (i + 1) % 5),
                  (1 + i, 6 + i), (1 + i, 6 + (i + 1) % 5)]
    return graph(12, edges)


def cycle(n):
    return graph(n, [(i, (i + 1) % n) for i in range(n)])


def wheel(k):
    return graph(k + 1, [(0, i) for i in range(1, k + 1)] + [(i, i % k + 1) for i in range(1, k + 1)])


def extended_wheel5(dominated):
    edges = edges_of(wheel(5)) + [(1, 6), (2, 6)]
    n = 7
    if dominated:
        edges += [(i, 7) for i in range(7)]
        n = 8
    return graph(n, edges)


def cone_over_cycle(n):
    return graph(n + 1, edges_of(cycle(n)) + [(i, n) for i in range(n)])


def lattice_disk_triangles(radius) -> tuple[int, list[tuple[int, int, int]]]:
    """Vertex count and every triangle of the hex ball of this radius."""
    space = lattice_window(radius, 1)
    id_of = {c: i for i, c in enumerate(space.coords)}
    tris = []
    for (q, r), i in id_of.items():
        for a, b in (((q + 1, r), (q, r + 1)), ((q + 1, r), (q + 1, r - 1))):
            if a in id_of and b in id_of:
                tris.append(tuple(sorted((i, id_of[a], id_of[b]))))
    return len(space.coords), sorted(tris)


def random_edges(n, p, rng: random.Random) -> list[tuple[int, int]]:
    return [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]


# ---------------------------------------------------------------------------
# searches


def bfs(adj, s) -> dict[int, int]:
    dist = {s: 0}
    queue = deque([s])
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if w not in dist:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def components(adj) -> list[set[int]]:
    seen: set[int] = set()
    out = []
    for v in sorted(adj):
        if v not in seen:
            comp = set(bfs(adj, v))
            seen |= comp
            out.append(comp)
    return out


def is_clique(adj, vs) -> bool:
    vs = list(vs)
    return all(vs[j] in adj[vs[i]] for i in range(len(vs)) for j in range(i + 1, len(vs)))


def common_neighbours(adj, vs) -> set[int]:
    vs = list(vs)
    out = set(adj[vs[0]])
    for v in vs[1:]:
        out &= adj[v]
    return out


def cliques(adj, within=None) -> list[tuple[int, ...]]:
    """Every non-empty clique as a sorted tuple."""
    pool = sorted(adj if within is None else within)
    out = []

    def grow(base, cands):
        for i, v in enumerate(cands):
            cur = base + (v,)
            out.append(cur)
            grow(cur, [w for w in cands[i + 1:] if w in adj[v]])

    grow((), pool)
    return out


def induced_cycles(adj, max_len, min_len=4) -> list[tuple[int, ...]]:
    """Induced cycles of length min_len..max_len, each once: smallest vertex
    first, then the smaller of its two neighbours on the cycle; sorted by
    length, then lexicographically."""
    out = []
    for s in sorted(adj):
        stack = [(s, u) for u in sorted(adj[s]) if u > s]
        while stack:
            path = stack.pop()
            last = path[-1]
            for c in adj[last]:
                if c <= s or c in path or any(c in adj[p] for p in path[1:-1]):
                    continue
                if s in adj[c]:
                    if len(path) + 1 >= min_len and path[1] < c:
                        out.append(path + (c,))
                elif len(path) + 1 < max_len:
                    stack.append(path + (c,))
    return sorted(out, key=lambda c: (len(c), c))


def is_induced_cycle(adj, vs) -> bool:
    k = len(vs)
    if k < 4 or len(set(vs)) != k or any(v not in adj for v in vs):
        return False
    return all(
        (vs[j] in adj[vs[i]]) == (j - i == 1 or (i == 0 and j == k - 1))
        for i in range(k) for j in range(i + 1, k)
    )


def short_link_cycle(adj, k, include_empty) -> bool:
    """Does some link (of the complex itself too, if include_empty) hold an
    induced cycle shorter than k?"""
    if include_empty and induced_cycles(adj, k - 1):
        return True
    return any(induced_cycles(induced(adj, common_neighbours(adj, s)), k - 1) for s in cliques(adj))


def cycle_in_link_holds(adj, simplex, cycle, k) -> bool:
    """A short induced cycle in the link of a clique (the complex if empty)."""
    if not is_clique(adj, simplex) or not 4 <= len(cycle) < k:
        return False
    link = induced(adj, common_neighbours(adj, simplex)) if simplex else adj
    return all(v in link for v in cycle) and is_induced_cycle(link, cycle)


def triangle_violation(adj, u, v, w, d, dist=None) -> bool:
    dist = dist or bfs(adj, u)
    if w not in adj[v] or d < 2 or dist.get(v) != d or dist.get(w) != d:
        return False
    return not any(dist.get(t) == d - 1 for t in adj[v] & adj[w])


def quadrangle_violation(adj, u, v, w, z, d, dist=None) -> bool:
    dist = dist or bfs(adj, u)
    if v not in adj[z] or w not in adj[z] or w in adj[v] or d < 2:
        return False
    if dist.get(v) != d or dist.get(w) != d or dist.get(z) != d + 1:
        return False
    return not any(dist.get(t) == d - 1 for t in adj[v] & adj[w])


def any_triangle_violation(adj) -> bool:
    edges = edges_of(adj)
    for u in adj:
        dist = bfs(adj, u)
        if any(triangle_violation(adj, u, v, w, dist.get(v, 0), dist) for v, w in edges):
            return True
    return False


def any_quadrangle_violation(adj) -> bool:
    for u in adj:
        dist = bfs(adj, u)
        for z in adj:
            d = dist.get(z, 0) - 1
            around = sorted(adj[z])
            for i, v in enumerate(around):
                for w in around[i + 1:]:
                    if quadrangle_violation(adj, u, v, w, z, d, dist):
                        return True
    return False


def sd_violation(adj, v, i, simplex, inner) -> bool:
    dist = bfs(adj, v)
    if not simplex or not is_clique(adj, simplex) or any(dist.get(u) != i + 1 for u in simplex):
        return False
    actual = {u for u in common_neighbours(adj, simplex) if dist.get(u, INF) <= i}
    return actual == set(inner) and (not actual or not is_clique(adj, actual))


def any_sd_violation(adj) -> bool:
    """Sphere simplex domination fails somewhere, each vertex checked to
    depth eccentricity - 1 (the complex must be connected)."""
    for v in adj:
        dist = bfs(adj, v)
        for i in range(max(max(dist.values()) - 1, 0) + 1):
            sphere = [u for u, d in dist.items() if d == i + 1]
            for s in cliques(adj, within=sphere):
                inner = {u for u in common_neighbours(adj, s) if dist[u] <= i}
                if not inner or not is_clique(adj, inner):
                    return True
    return False


def extended_wheels(adj) -> set[tuple[int, frozenset[int], int]]:
    """Extended 5-wheels as (center, rim vertex set, apex)."""
    out = set()
    for c in adj:
        link = induced(adj, adj[c])
        for rim in induced_cycles(link, 5, 5):
            rim_set = set(rim)
            for i in range(5):
                x1, x2 = rim[i], rim[(i + 1) % 5]
                others = rim_set - {x1, x2}
                for a in adj[x1] & adj[x2]:
                    if a != c and a not in rim_set and a not in adj[c] and not adj[a] & others:
                        out.add((c, frozenset(rim), a))
    return out


def extended_wheel_holds(adj, center, rim, apex) -> bool:
    vs = (center, *rim, apex)
    if len(rim) != 5 or len(set(vs)) != 7 or any(v not in adj for v in vs):
        return False
    return (
        is_induced_cycle(adj, tuple(rim))
        and all(r in adj[center] for r in rim)
        and apex not in adj[center]
        and rim[0] in adj[apex] and rim[1] in adj[apex]
        and not any(r in adj[apex] for r in rim[2:])
    )


# ---------------------------------------------------------------------------
# homology


def _rank(rows, modulus=None) -> int:
    """Rank of sparse rows ({column: value}) over Q, or over GF(modulus)."""
    pivots: dict[int, dict[int, object]] = {}
    for row in rows:
        if modulus is None:
            row = {c: Fraction(x) for c, x in row.items() if x}
        else:
            row = {c: x % modulus for c, x in row.items() if x % modulus}
        while row:
            col = min(row)
            piv = pivots.get(col)
            if piv is None:
                inv = 1 / row[col] if modulus is None else pow(row[col], -1, modulus)
                pivots[col] = {c: (x * inv if modulus is None else x * inv % modulus) for c, x in row.items()}
                break
            f = row[col]
            for c, x in piv.items():
                y = row.get(c, 0) - f * x
                if modulus is not None:
                    y %= modulus
                if y:
                    row[c] = y
                else:
                    row.pop(c, None)
    return len(pivots)


def boundary2(adj) -> list[dict[int, int]]:
    eidx = {e: i for i, e in enumerate(edges_of(adj))}
    rows = []
    for a, b, c in (t for t in cliques(adj) if len(t) == 3):
        rows.append({eidx[(b, c)]: 1, eidx[(a, c)]: -1, eidx[(a, b)]: 1})
    return rows


def betti1(adj, modulus=None) -> int:
    """First Betti number over Q (or GF(modulus)): E - (V - components) - rank d2."""
    n_edges = sum(len(ns) for ns in adj.values()) // 2
    return n_edges - (len(adj) - len(components(adj))) - _rank(boundary2(adj), modulus)


def torsion_consistent(adj, b1, torsion) -> bool:
    """The number of torsion coefficients divisible by p equals the drop of
    rank of d2 from Q to GF(p), for the small primes."""
    rows = boundary2(adj)
    rank_q = _rank(rows)
    for p in (2, 3, 5, 7):
        if rank_q - _rank(rows, p) != sum(1 for t in torsion if t % p == 0):
            return False
    return True
