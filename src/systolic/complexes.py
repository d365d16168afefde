"""Flag simplicial complexes with the shortest-path metric on the 1-skeleton.

A flag complex is determined by its 1-skeleton: the simplices are exactly the
cliques, so everything here stores a graph and materializes simplices on
demand.  Distances count edges on shortest 1-skeleton paths and come from
the complex's ``oracle``.  Every complex says what a scan may trust:
``trusted_vertices`` and ``margin``, the bound on trusted distance values;
the oracle and the trusted vertices are set when it is built.  A finite
complex trusts every vertex and every distance.  A :class:`WindowView` is
the flag complex of a finite ball cut out of an infinite periodic complex,
and trusts only what lies far enough from its boundary.  A complex owns its
adjacency; the oracle only reads it and holds no reference back, so a
complex and its cached tables are freed as soon as it is dropped.  A
builder may declare maps it knows to be symmetries (``symmetries``); the
scans verify them before one carries a source (``isometries._carry``).
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterable, Iterator

from .verdict import Verdict, no, yes

INF = math.inf

Simplex = tuple[int, ...]


class ComplexError(ValueError):
    """Raised for structurally invalid inputs (bad ids, non-cliques, ...)."""


def once(f):
    """Compute ``f(x, *args, **kwargs)`` once per complex x and arguments.

    The result is kept on x itself, so it lives exactly as long as its
    target; a call that raises keeps nothing and raises again next time.
    ``known(x, *args, **kwargs)`` returns the kept result, or None, and
    never computes; ``functools.wraps`` copies it onto any wrapper.
    """

    def key(args, kwargs):
        return (f, args, tuple(sorted(kwargs.items())))

    @functools.wraps(f)
    def cached(x, *args, **kwargs):
        k = key(args, kwargs)
        if k not in x._memo:
            x._memo[k] = f(x, *args, **kwargs)
        return x._memo[k]

    cached.known = lambda x, *args, **kwargs: x._memo.get(key(args, kwargs))
    return cached


def _vertex_ids(vertices: Iterable[int]) -> list[int]:
    """The sorted distinct vertex ids, each a non-negative integer."""
    vs = sorted(set(vertices))
    for v in vs:
        if not isinstance(v, int) or isinstance(v, bool) or v < 0:
            raise ComplexError(f"vertex ids are non-negative integers, got {v!r}")
    return vs


def as_simplex(vertices: Iterable[int]) -> Simplex:
    """Normalize to a sorted duplicate-free non-empty vertex tuple."""
    vs = _vertex_ids(vertices)
    if not vs:
        raise ComplexError("a simplex has at least one vertex")
    return tuple(vs)


class FlagComplex:
    """Immutable flag complex backed by an adjacency-set graph.

    Vertex ids are opaque non-negative integers and are preserved by all
    subcomplex operations, so witnesses remain meaningful across spans and
    links.  All iteration orders are sorted by id, which keeps every scan in
    the package deterministic.

    Scans quantify over ``trusted_vertices`` and over distance values at
    most ``margin``; a finite complex trusts all of its vertices and every
    distance.

    ``symmetries`` holds functions f(target) -> Automorphism that the
    builder declares; one is called only when a scan first needs a map.
    None may close over the target, or the complex would no longer be freed
    by reference counting alone.  A subcomplex built by :meth:`span`
    declares none; the Min complex of ``isometries.min_set`` declares the
    restrictions of the target's maps that commute with h.
    """

    __slots__ = ("_adj", "_vertices", "trusted_vertices", "oracle", "_memo", "symmetries")

    margin: float = INF

    def __init__(
        self, vertices: Iterable[int], edges: Iterable[tuple[int, int]], symmetries: tuple = ()
    ):
        vs = _vertex_ids(vertices)
        vset = frozenset(vs)
        adj: dict[int, set[int]] = {v: set() for v in vs}
        for e in edges:
            try:
                u, w = e
            except (TypeError, ValueError):
                raise ComplexError(f"edge must be a pair, got {e!r}") from None
            if u == w:
                raise ComplexError(f"self-loop at vertex {u}")
            if u not in vset or w not in vset:
                raise ComplexError(f"edge ({u}, {w}) mentions an unknown vertex")
            adj[u].add(w)
            adj[w].add(u)
        self._vertices: tuple[int, ...] = tuple(vs)
        self._adj: dict[int, frozenset[int]] = {v: frozenset(ns) for v, ns in adj.items()}
        self.trusted_vertices = vset
        self.oracle = DistanceOracle(self._adj)
        self._memo: dict = {}
        self.symmetries = tuple(symmetries)

    @property
    def vertices(self) -> tuple[int, ...]:
        return self._vertices

    @property
    def n_vertices(self) -> int:
        return len(self._vertices)

    def __contains__(self, v: int) -> bool:
        return v in self._adj

    def neighbors(self, v: int) -> frozenset[int]:
        try:
            return self._adj[v]
        except KeyError:
            raise ComplexError(f"unknown vertex {v}") from None

    def adjacent(self, u: int, v: int) -> bool:
        return v in self.neighbors(u)

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in self._vertices:
            for v in sorted(self._adj[u]):
                if u < v:
                    yield (u, v)

    @property
    def n_edges(self) -> int:
        return sum(len(ns) for ns in self._adj.values()) // 2

    def is_clique(self, vertices: Iterable[int]) -> bool:
        vs = as_simplex(vertices)
        for v in vs:
            if v not in self._adj:
                return False
        for i, u in enumerate(vs):
            nu = self._adj[u]
            for v in vs[i + 1 :]:
                if v not in nu:
                    return False
        return True

    def common_neighbors(self, vertices: Iterable[int]) -> frozenset[int]:
        vs = as_simplex(vertices)
        out = self.neighbors(vs[0])
        for v in vs[1:]:
            out = out & self._adj[v]
        return out

    def span(self, vertices: Iterable[int]) -> "FlagComplex":
        """Full subcomplex on the given vertices, ids preserved."""
        vs = sorted(set(vertices))
        for v in vs:
            if v not in self._adj:
                raise ComplexError(f"span over unknown vertex {v}")
        vset = set(vs)
        edges = [(u, v) for u in vs for v in self._adj[u] if u < v and v in vset]
        return FlagComplex(vs, edges)

    def link(self, simplex: Iterable[int]) -> "FlagComplex":
        """Full subcomplex on the common neighbors of a simplex."""
        s = as_simplex(simplex)
        if not self.is_clique(s):
            raise ComplexError(f"link of a non-simplex {s}")
        return self.span(self.common_neighbors(s))

    def cliques(self, max_size: int | None = None) -> Iterator[Simplex]:
        """All non-empty cliques in ascending lexicographic order.

        ``max_size`` bounds the number of vertices per clique.  Each vertex v
        grows its cliques from its neighbours above v, so the work follows
        the edges rather than the square of the vertex count.
        """
        adj = self._adj
        for v in self._vertices:
            yield (v,)
            if max_size is not None and max_size <= 1:
                continue
            up = tuple(sorted(w for w in adj[v] if w > v))
            if up:
                yield from _grow(adj, (v,), up, max_size)

    def maximal_cliques(self) -> list[Simplex]:
        """Facets of the complex (maximal cliques), sorted."""
        out: list[Simplex] = []
        _extend(self._adj, set(), set(self._vertices), set(), out)
        return sorted(out)

    def connected_components(self) -> list[frozenset[int]]:
        seen: set[int] = set()
        comps: list[frozenset[int]] = []
        for v in self._vertices:
            if v not in seen:
                comp = frozenset(self.oracle.ball(v, INF))
                seen |= comp
                comps.append(comp)
        return comps

    def eccentricity(self, v: int) -> float:
        dists = self.oracle.distances_from(v)
        if len(dists) < self.n_vertices:
            return INF
        return max(dists.values(), default=0)

    def __repr__(self) -> str:
        return f"FlagComplex(n_vertices={self.n_vertices}, n_edges={self.n_edges})"


def _grow(
    adj: dict[int, frozenset[int]], base: Simplex, candidates: tuple[int, ...], max_size: int | None
) -> Iterator[Simplex]:
    """The cliques ``base + c`` for c a non-empty clique of the sorted
    ``candidates``, each adjacent to all of base, in ascending order."""
    for i, v in enumerate(candidates):
        cur = base + (v,)
        yield cur
        if max_size is not None and len(cur) >= max_size:
            continue
        nxt = tuple(w for w in candidates[i + 1 :] if w in adj[v])
        if nxt:
            yield from _grow(adj, cur, nxt, max_size)


def _extend(
    adj: dict[int, frozenset[int]], r: set[int], p: set[int], x: set[int], out: list[Simplex]
) -> None:
    """Bron-Kerbosch with a pivot: append to ``out`` every maximal clique
    that contains r, meets p and avoids x."""
    if not p and not x:
        out.append(tuple(sorted(r)))
        return
    pivot = max(p | x, key=lambda v: len(adj[v] & p))
    for v in sorted(p - adj[pivot]):
        _extend(adj, r | {v}, p & adj[v], x & adj[v], out)
        p.remove(v)
        x.add(v)


class DistanceOracle:
    """Horizon-bounded BFS distances over an adjacency it only reads, with
    one cache per complex.

    :meth:`_bfs` is the only BFS loop.  :meth:`ball` runs it from one
    source, and every other distance query reads a ball, connected
    components and the geodesic enumerator included, except two that run
    it uncached: a capped point-to-point query that no cached table
    answers meets in the middle of two half-balls
    (:meth:`distance_capped`), and the symmetry transport of the scans
    runs it from several sources at once.  The cache keeps one table per
    source together with how far it reaches: a table cut off after some
    layer is always kept (it is as small as its radius makes it), a
    complete table only on complexes of at most ``ALL_PAIRS_THRESHOLD``
    vertices, which there amounts to an all-pairs table built on demand.
    """

    ALL_PAIRS_THRESHOLD = 2000

    def __init__(self, adj: dict[int, frozenset[int]]):
        self._adj = adj
        self._cache: dict[int, tuple[dict[int, int], float]] = {}

    def ball(self, source: int, radius: float) -> dict[int, int]:
        """Exact distance from ``source`` to every vertex within ``radius``.

        Entries farther than ``radius`` may be present (from a larger cached
        ball) and are exact too; a vertex missing from the table lies
        farther than ``radius`` or in another component.
        """
        hit = self._cache.get(source)
        if hit is not None and hit[1] >= radius:
            return hit[0]
        table = self._bfs([source], radius)
        n = len(self._adj)
        # the last entry is the deepest layer; short of the radius, BFS ran dry
        if len(table) == n or next(reversed(table.values())) < radius:
            if n <= self.ALL_PAIRS_THRESHOLD:
                self._cache[source] = (table, INF)
        else:
            self._cache[source] = (table, radius)
        return table

    def distances_from(self, source: int) -> dict[int, int]:
        """BFS distance table from ``source`` to every reachable vertex."""
        return self.ball(source, INF)

    def _bfs(self, sources: list[int], radius: float, target: int | None = None) -> dict[int, int]:
        """Distance from the nearest of ``sources`` to every vertex within
        ``radius`` of one, in order of discovery; empty without sources.
        With a ``target``, the walk stops after the layer that reaches it."""
        adj = self._adj
        for source in sources:
            if source not in adj:
                raise ComplexError(f"unknown vertex {source}")
        dist = dict.fromkeys(sources, 0)
        frontier = list(dist)
        depth = 0
        # vertex ids are integers, so a target of None is never reached
        while frontier and depth < radius and target not in dist:
            depth += 1
            layer = []
            for u in frontier:
                for w in adj[u]:
                    if w not in dist:
                        dist[w] = depth
                        layer.append(w)
            frontier = layer
        return dist

    def distance(self, u: int, v: int, radius: float = INF) -> float:
        """Exact distance, INF included; explores only ball(u, radius) when
        v lies inside it, and reads the whole table otherwise."""
        if v not in self._adj:
            raise ComplexError(f"unknown vertex {v}")
        d = self.ball(u, radius).get(v)
        if d is None and radius < INF:
            d = self.ball(u, INF).get(v)
        return INF if d is None else d

    def distance_capped(self, u: int, v: int, cap: float) -> float:
        """Distance if it is <= cap, else INF.

        An infinite cap reads the cached table of u, and so does a finite
        one when a cached table of u reaches the cap.  Otherwise the query
        meets in the middle and caches nothing: ball(u, ceil(cap/2)),
        stopped after the layer that reaches v, then, if v is not in it,
        ball(v, floor(cap/2)), and the answer is the least d_u(w) + d_v(w)
        over the vertices w in both, or INF when they share none.

        Exact: every w in both gives d_u(w) + d_v(w) >= d(u, v) by the
        triangle inequality.  If d = d(u, v) <= cap, a geodesic from u to
        v has a vertex w at ceil(d/2) <= ceil(cap/2) from u and floor(d/2)
        <= floor(cap/2) from v, so w is in both tables and attains d.  If
        d > cap, a w in both would give d <= ceil(cap/2) + floor(cap/2) =
        cap, so the tables share none.
        """
        if v not in self._adj:
            raise ComplexError(f"unknown vertex {v}")
        hit = self._cache.get(u)
        if cap == INF or (hit is not None and hit[1] >= cap):
            d = self.ball(u, cap).get(v, INF)
            return d if d <= cap else INF
        near = self._bfs([u], cap - cap // 2, v)
        if v in near:
            return near[v]
        far = self._bfs([v], cap // 2)
        return min((d + far[w] for w, d in near.items() if w in far), default=INF)

    def geodesics(self, u: int, v: int) -> Iterator[tuple[int, ...]]:
        """Every geodesic from u to v, in lexicographic order as vertex
        sequences; none when v is unreachable.

        A depth-first walk that steps, smallest neighbor first, only to
        neighbors one closer to the target, so no branch dead-ends.
        """
        back = self.distances_from(v)
        if u not in back:
            if u not in self._adj:
                raise ComplexError(f"unknown vertex {u}")
            return
        adj = self._adj
        stack = [(u, (u,))]
        while stack:
            cur, path = stack.pop()
            if cur == v:
                yield path
                continue
            d = back[cur] - 1
            for w in sorted((w for w in adj[cur] if back.get(w) == d), reverse=True):
                stack.append((w, path + (w,)))

    def geodesic(self, u: int, v: int) -> tuple[int, ...] | None:
        """Lexicographically least geodesic from u to v, or None: the first
        of :meth:`geodesics`."""
        return next(self.geodesics(u, v), None)


class FacetComplex:
    """A simplicial complex given by its facets (an antichain of simplices)."""

    __slots__ = ("_facets", "_through", "_skeleton")

    def __init__(self, facets: Iterable[Iterable[int]]):
        fs = sorted({as_simplex(f) for f in facets})
        if not fs:
            raise ComplexError("a facet complex has at least one facet")
        # Facets through each vertex, in sorted order: a facet containing a
        # simplex also runs through the simplex's rarest vertex, and the
        # first one found there is the first in sorted order.
        through: dict[int, list[frozenset[int]]] = {}
        for b in fs:
            fb = frozenset(b)
            for v in b:
                through.setdefault(v, []).append(fb)
        for a in fs:
            sa = frozenset(a)
            for b in min((through[v] for v in a), key=len):
                if sa < b:
                    raise ComplexError(f"facet {a} is contained in facet {tuple(sorted(b))}")
        self._facets: tuple[Simplex, ...] = tuple(fs)
        self._through = through
        self._skeleton: FlagComplex | None = None

    @property
    def facets(self) -> tuple[Simplex, ...]:
        return self._facets

    @property
    def vertices(self) -> tuple[int, ...]:
        return tuple(sorted(self._through))

    def contains_simplex(self, simplex: Iterable[int]) -> bool:
        s = as_simplex(simplex)
        if any(v not in self._through for v in s):
            return False
        fs = frozenset(s)
        return any(fs <= b for b in min((self._through[v] for v in s), key=len))

    def one_skeleton(self) -> FlagComplex:
        if self._skeleton is None:
            edges = {
                (a, b)
                for f in self._facets
                for i, a in enumerate(f)
                for b in f[i + 1 :]
            }
            self._skeleton = FlagComplex(self.vertices, sorted(edges))
        return self._skeleton

    @staticmethod
    def from_flag(x: FlagComplex) -> "FacetComplex":
        return FacetComplex(x.maximal_cliques())

    def __repr__(self) -> str:
        return f"FacetComplex(n_facets={len(self._facets)})"


def is_flag(fc: FacetComplex) -> Verdict:
    """Decide whether a facet complex equals the clique complex of its
    1-skeleton.

    It is flag exactly when every maximal clique of the 1-skeleton is a
    facet.  If so, every clique lies in a facet.  If flag, a maximal clique
    is a simplex, so it lies in a facet, a clique, which must equal it.

    A negative verdict carries a smallest clique of the 1-skeleton that spans
    no simplex of the complex (for example the three vertices of an empty
    triangle).
    """
    skeleton = fc.one_skeleton()
    facets = set(fc.facets)
    if all(c in facets for c in skeleton.maximal_cliques()):
        return yes()
    best: Simplex | None = None
    for clique in skeleton.cliques():
        if len(clique) < 3:
            continue  # vertices and edges of the skeleton are always faces
        if best is not None and len(clique) >= len(best):
            continue
        if not fc.contains_simplex(clique):
            best = clique
            if len(best) == 3:
                break
    return no(witness=best, reason="clique of the 1-skeleton spans no simplex")


class WindowView(FlagComplex):
    """A finite radius-R ball cut out of an unbounded periodic complex.

    The window is the flag complex of the ball, built from its vertices and
    edges like any complex.  ``margin`` controls conservatism: a vertex is
    trusted when it lies at distance at most ``radius - margin`` from the
    basepoint, and a distance d(u, v) is trusted when u and v are trusted
    and v lies in ``ball(u, margin)``.  Trusted values agree with the
    unbounded parent complex: any parent geodesic between two trusted
    vertices of length at most ``margin`` stays inside the window, so the
    windowed distance is exact.

    ``coord_of`` optionally maps vertex ids to parent coordinates, which lets
    tests compare windows of different radii vertex by vertex.
    ``symmetries`` are declared maps, as for :class:`FlagComplex`.
    """

    __slots__ = ("basepoint", "radius", "margin", "coord_of", "id_of")

    def __init__(
        self,
        vertices: Iterable[int],
        edges: Iterable[tuple[int, int]],
        basepoint: int,
        radius: int,
        margin: int,
        coord_of: dict[int, tuple] | None = None,
        symmetries: tuple = (),
    ):
        if margin < 1 or margin > radius:
            raise ComplexError("margin must satisfy 1 <= margin <= radius")
        super().__init__(vertices, edges, symmetries)
        if basepoint not in self:
            raise ComplexError(f"basepoint {basepoint} is not a window vertex")
        self.basepoint = basepoint
        self.radius = radius
        self.margin = margin
        self.coord_of = dict(coord_of) if coord_of else {}
        self.id_of = {c: v for v, c in self.coord_of.items()}
        inner = radius - margin
        self.trusted_vertices = frozenset(
            v for v, d in self.oracle.ball(basepoint, inner).items() if d <= inner
        )

    def __repr__(self) -> str:
        return (
            f"WindowView(radius={self.radius}, margin={self.margin}, "
            f"n_vertices={self.n_vertices}, n_trusted={len(self.trusted_vertices)})"
        )
