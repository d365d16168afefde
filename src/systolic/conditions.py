"""Local curvature conditions on flag complexes.

Checks in this module come in matched pairs: a scan that searches for a
violation, and an independent predicate that re-validates any witness the
scan reports.  All scans run in sorted vertex order, so the first witness is
deterministic and stable across runs.

Every scan takes one flag complex, a finite one or a window, and reads its
``trusted_vertices`` and ``margin``: universally quantified vertices range
over the trusted vertices and only distance values up to the margin
participate, so every verdict is exact for the trusted region it mentions.
A finite complex trusts every vertex and every distance.

The scans that several checks share (TC, QC, SD, the 5-wheel condition and
local k-largeness for each k) are computed once per complex
(``complexes.once``).  TC and QC read sphere domination's verdict where it
is already known and scan only the sources it leaves open.  SD, the
vertex-link scan and the full-cycle certificate :func:`_cycle_free` skip
every source that a verified declared symmetry carries from a source that
already passed (``isometries._carry``).  The certificate spares the
path walks of ``systole`` and of ``enumerate_full_cycles``, and through it
those of k-largeness, the 5-wheel scan and the full-square check, for each
length it proves free.  One path walker, :func:`_cycles_at`, finds every
full cycle: the canonical ones of a region, those through a source, and
those of a vertex link.
"""

from __future__ import annotations

from .collapse import DEFAULT_BUDGET, disconnection, simple_connectivity_oracle
from .complexes import INF, ComplexError, FlagComplex, once
from .isometries import _carry, _transport_table
from .verdict import (
    CycleInLink,
    ExtendedWheel5,
    FullCycle,
    QuadrangleViolation,
    SphereSimplexViolation,
    TriangleViolation,
    Verdict,
    no,
    unknown,
    yes,
)


# ---------------------------------------------------------------------------
# full cycles and systole


def enumerate_full_cycles(
    x: FlagComplex,
    max_len: int,
    min_len: int = 4,
) -> list[FullCycle]:
    """All induced cycles with min_len <= length <= max_len, each once.

    Cycles are returned in canonical form (smallest vertex first, smaller
    direction), sorted by length then lexicographically.  On a window only
    cycles whose vertices are all trusted are reported; such cycles are
    induced in the unbounded parent complex as well, since chords could only
    join trusted vertices.  When :func:`_cycle_free` proves every length of
    the range free, the list is empty without a walk.
    """
    if all(_cycle_free(x, length) for length in range(max(min_len, 4), max_len + 1)):
        return []
    return sorted(_induced_cycles(x, x.trusted_vertices, max_len, min_len), key=_cycle_order)


def _cycle_order(c: FullCycle) -> tuple[int, tuple[int, ...]]:
    return len(c.vertices), c.vertices


def _induced_cycles(g: FlagComplex, pool, max_len: int, min_len: int = 4):
    """Canonical induced cycles of g with min_len..max_len vertices, all in
    ``pool``, each once, in no fixed order: those whose smallest vertex is
    v, for each v of the pool (:func:`_cycles_at`)."""
    if max_len < max(min_len, 4):
        return
    for v in sorted(pool):
        yield from _cycles_at(g, v, pool, max_len, min_len)


def _cycles_at(
    g: FlagComplex, v: int, pool, max_len: int, min_len: int = 4, canonical: bool = True
):
    """Induced cycles of g through v with min_len..max_len vertices, all in
    ``pool`` (a set of vertices), each once in canonical form, in no fixed
    order.  Canonical: only those whose other vertices lie above v, that is
    whose smallest vertex is v.  Otherwise every one through v.

    From v's cycle neighbours u < w, a chordless path grows from u off the
    closed neighbourhood N[v] until it meets N(w).  The path leaves N[v]
    right after u and re-enters it right before w, so only neighbours of v
    with a neighbour off N[v] can be u or w; a hub whose neighbours have
    none (a cone's apex) costs one pass over its neighbours.  A step onto
    an earlier path vertex would be a chord, or a step back onto u, which
    lies in N[v], so the path needs no visited set."""
    adj = g._adj
    nv = adj[v] & pool
    closed = nv | {v}
    floor = v if canonical else -1
    ends = [n for n in nv if n > floor and not adj[n] <= closed]
    ends.sort()
    for i, u in enumerate(ends):
        for w in ends[i + 1 :]:
            if w in adj[u]:
                continue
            # closability prune: c must reach w within the budget left.
            # Ambient distances never exceed distances inside the pool.
            dist_w = g.oracle.ball(w, max_len - 3)
            stack = [(u,)]
            while stack:
                path = stack.pop()
                last = path[-1]
                length = len(path) + 2
                if w in adj[last]:
                    # every longer path would carry the chord last-w
                    if length >= min_len:
                        yield FullCycle.canonical((v,) + path + (w,))
                    continue
                # no open path reaches max_len: one short of it the prune
                # admits only neighbours of w, and they close the cycle
                for c in adj[last]:
                    if (c <= floor or c in closed or c not in pool
                            or dist_w.get(c, INF) > max_len - length):
                        continue
                    if any(c in adj[p] for p in path[:-1]):
                        continue
                    stack.append(path + (c,))


@once
def _cycle_free(x: FlagComplex, length: int) -> bool:
    """Whether no trusted source u has an induced cycle of ``length``
    vertices through it anywhere in x.  A True proves that no full cycle of
    that length has all its vertices trusted; a False proves nothing.

    Every vertex of such a cycle lies within length // 2 of u along it, so
    the question at u depends only on the rooted ``ball(u, length // 2)``,
    the pool of the walk from u.  So the scan skips each source that a
    declared symmetry carries from a source that passed
    (:func:`_scanned_sources`).  The question is not narrowed to trusted
    cycles: trust is not a property of the ball, and a map may carry a
    source whose only cycle leaves the trusted region onto one whose image
    stays inside it.  Two guards answer False at once: a complex that
    declares no map, where a walk from every source costs more than the
    canonical walk, and ``length // 2 > margin``, beyond the reach of the
    transport table (``isometries._verified_maps``).
    """
    radius = length // 2
    if not x.symmetries or radius > x.margin:
        return False
    for u in _scanned_sources(x, radius):
        ball = x.oracle.ball(u, radius).keys()
        if next(_cycles_at(x, u, ball, length, length, canonical=False), None) is not None:
            return False
    return True


def is_full_cycle(x: FlagComplex, vertices: tuple[int, ...]) -> bool:
    """Independent witness validator: consecutive adjacent, the rest not."""
    k = len(vertices)
    if k < 4 or len(set(vertices)) != k:
        return False
    if any(v not in x for v in vertices):
        return False
    for i in range(k):
        for j in range(i + 1, k):
            consecutive = j - i == 1 or (i == 0 and j == k - 1)
            if x.adjacent(vertices[i], vertices[j]) != consecutive:
                return False
    return True


def systole(x: FlagComplex, max_len: int | None = None) -> float:
    """Length of the shortest full cycle, INF if none up to the bound.

    The default bound is the vertex count, which is exhaustive: an induced
    cycle cannot repeat vertices.  Each length that :func:`_cycle_free`
    proves free is skipped without a walk.
    """
    region = x.trusted_vertices
    n = len(region)
    bound = n if max_len is None else min(max_len, n)
    for length in range(4, bound + 1):
        if _cycle_free(x, length):
            continue
        if next(_induced_cycles(x, region, length, length), None) is not None:
            return length
    return INF


# ---------------------------------------------------------------------------
# k-largeness


def is_k_large(x: FlagComplex, k: int) -> Verdict:
    """Systole of the complex and of every link at least k.

    Equivalently: no full cycle shorter than k in the complex or in any link.
    Always yes for k <= 4, as :func:`is_locally_k_large` says.  The negative
    witness names the violating cycle and where it lies: the empty tuple for
    the complex itself, else the first vertex (v,) whose link contains it.
    """
    short = enumerate_full_cycles(x, k - 1)
    if short:
        return no(witness=CycleInLink((), short[0]), reason="short full cycle")
    return is_locally_k_large(x, k)


@once
def is_locally_k_large(x: FlagComplex, k: int) -> Verdict:
    """Every simplex link has systole at least k.

    Links of links are links, and the vertex links decide every link (see
    :func:`first_link_cycle`).  On a window the scan covers trusted
    vertices; their links are complete inside the window, so the verdict is
    exact for the trusted region.
    """
    if k <= 4:
        return yes(reason="full cycles never have length below 4")
    hit = first_link_cycle(x, k - 1)
    if hit is not None:
        return no(witness=hit, reason="short full cycle in a link")
    return yes()


def first_link_cycle(g: FlagComplex, max_len: int, min_len: int = 4) -> CycleInLink | None:
    """The first trusted vertex v whose link has a full cycle of
    min_len..max_len vertices, as ``CycleInLink((v,), cycle)`` with the
    least such cycle by (length, vertices); None when no link has one.

    It is also the first such simplex of the trusted region in the order of
    ``FlagComplex.cliques``: a link is the full subcomplex on the common
    neighbours, so a full cycle in link(s) is one in link(v) for every
    vertex v of s, and (v,) comes before every other clique that starts at
    v.  No link is built.

    The answer at v depends only on ``ball(v, 1)``: the cycles are those of
    the full subcomplex on v's neighbours (the closability prune reads
    ambient distances, but it only drops paths that cannot close).  So the
    scan skips each source that a declared symmetry carries from a source
    that passed, with radius 1 (:func:`_scanned_sources`); the first source
    with a cycle is scanned in full.
    """
    for v in _scanned_sources(g, 1):
        cycles = _induced_cycles(g, g._adj[v], max_len, min_len)
        cycle = min(cycles, key=_cycle_order, default=None)
        if cycle is not None:
            return CycleInLink((v,), cycle)
    return None


# ---------------------------------------------------------------------------
# triangle and quadrangle conditions


@once
def triangle_condition(x: FlagComplex) -> Verdict:
    """For adjacent v, w equidistant from u, some common neighbor of v and w
    is one step closer to u.

    Each source reads only its ball of the trust radius: the edges (v, w)
    with v < w are visited in sorted order of v inside the ball, then of w.

    Where sphere domination's verdict is known, the scan starts at the first
    source it has not settled (:func:`_first_unsettled`).  SD at a source u
    scans the spheres 2..margin of ``ball(u, margin)``, untrusted vertices
    included, and TC reads distances 2..margin.  TC's premise is an edge vw
    inside sphere d; SD requires that edge's inner set, its common neighbors
    in sphere d - 1, to be non-empty, which is exactly TC's conclusion.  So
    TC holds at every source where SD holds: everywhere after SD's Yes, and
    at every source before the witness source of SD's No, since both scan
    the sorted trusted sources.  The first violation, and so the verdict,
    is the same.  Only the source loop is shorter: the edge lists still
    cover the whole trusted region.
    """
    region, bound = x.trusted_vertices, x.margin
    _require_connected(x, "the triangle condition")
    adj = x._adj
    verts = sorted(region)
    start = _first_unsettled(x, verts)
    if start == len(verts):
        return yes()
    higher = {v: sorted(w for w in adj[v] if w > v and w in region) for v in verts}
    for u in verts[start:]:
        dist = x.oracle.ball(u, bound)
        get = dist.get
        for v in sorted(dist):
            d = dist[v]
            if d < 2 or d > bound or v not in higher:
                continue
            nv = adj[v]
            for w in higher[v]:
                if get(w) != d:
                    continue
                for t in nv & adj[w]:
                    if get(t) == d - 1:
                        break
                else:
                    return no(
                        witness=TriangleViolation(u, v, w, d),
                        reason="no common neighbor descends toward u",
                    )
    return yes()


def _first_unsettled(x: FlagComplex, verts: list[int]) -> int:
    """The index in the sorted trusted ``verts`` of the first source where
    TC or QC may still fail, given what is known of sphere domination on x:
    len(verts) after its Yes, its witness source after its No, 0 when it
    has not been computed.  Never computes it."""
    sd = sphere_domination_everywhere.known(x)
    if sd is None:
        return 0
    return len(verts) if sd.is_yes else verts.index(sd.witness.v)


def _require_connected(g: FlagComplex, what: str) -> None:
    # Distance conditions quantify over finite distances; across components
    # they would compare infinities.  disconnection refuses the empty complex.
    # Sphere domination requires connectivity before it keeps a verdict, so
    # a kept verdict proves g connected.
    if sphere_domination_everywhere.known(g) is None and disconnection(g) is not None:
        raise ComplexError(f"{what} is about connected complexes")


def triangle_violation_holds(x: FlagComplex, w: TriangleViolation) -> bool:
    """Re-validate a triangle-condition witness from scratch."""
    if not x.adjacent(w.v, w.w):
        return False
    du = x.oracle.distances_from(w.u)
    if du.get(w.v, INF) != w.distance or du.get(w.w, INF) != w.distance or w.distance < 2:
        return False
    return all(du.get(t, INF) != w.distance - 1 for t in x.common_neighbors((w.v, w.w)))


@once
def quadrangle_condition(x: FlagComplex) -> Verdict:
    """For v, w at distance 2 with a common neighbor z one step further from
    u than both, some common neighbor of v and w is one step closer to u.

    Each source reads only its ball of the trust radius: z runs over it in
    sorted order, then the pairs v < w of neighbors of z one layer closer.

    Where sphere domination's verdict is known, the scan starts at the first
    source it has not settled (:func:`_first_unsettled`).  SD at a source u
    scans the spheres 2..margin of ``ball(u, margin)``, untrusted vertices
    included, and QC reads distances 3..margin.  QC's premise puts two
    non-adjacent vertices v, w in the inner set of a vertex z, its neighbors
    one sphere closer; SD requires that inner set to be a simplex, so where
    SD holds the premise never arises.  So QC holds at every source where SD
    holds: everywhere after SD's Yes, and at every source before the witness
    source of SD's No, since both scan the sorted trusted sources.  The
    first violation, and so the verdict, is the same.  Only the source loop
    is shorter: the neighbor lists still cover the whole trusted region.
    """
    region, bound = x.trusted_vertices, x.margin
    _require_connected(x, "the quadrangle condition")
    adj = x._adj
    verts = sorted(region)
    start = _first_unsettled(x, verts)
    if start == len(verts):
        return yes()
    around = {z: sorted(n for n in adj[z] if n in region) for z in verts}
    for u in verts[start:]:
        dist = x.oracle.ball(u, bound)
        get = dist.get
        for z in sorted(dist):
            dz = dist[z]
            if dz < 3 or dz > bound or z not in region:
                continue
            d = dz - 1
            lower = [n for n in around[z] if get(n) == d]
            if len(lower) < 2:
                continue
            for i, v in enumerate(lower):
                nv = adj[v]
                for w in lower[i + 1 :]:
                    if w in nv:
                        continue
                    for t in nv & adj[w]:
                        if get(t) == d - 1:
                            break
                    else:
                        return no(
                            witness=QuadrangleViolation(u, v, w, z, d),
                            reason="no common neighbor descends toward u",
                        )
    return yes()


def quadrangle_violation_holds(x: FlagComplex, w: QuadrangleViolation) -> bool:
    """Re-validate a quadrangle-condition witness from scratch."""
    if not (x.adjacent(w.v, w.z) and x.adjacent(w.w, w.z)) or x.adjacent(w.v, w.w):
        return False
    du = x.oracle.distances_from(w.u)
    if w.distance < 2:
        return False
    if (
        du.get(w.v, INF) != w.distance
        or du.get(w.w, INF) != w.distance
        or du.get(w.z, INF) != w.distance + 1
    ):
        return False
    return all(
        du.get(t, INF) != w.distance - 1 for t in x.common_neighbors((w.v, w.w))
    )


def is_weakly_modular(x: FlagComplex) -> Verdict:
    """Triangle condition and quadrangle condition together."""
    tc = triangle_condition(x)
    if tc.is_no:
        return no(witness=tc.witness, reason="triangle condition fails")
    qc = quadrangle_condition(x)
    if qc.is_no:
        return no(witness=qc.witness, reason="quadrangle condition fails")
    return yes()


# ---------------------------------------------------------------------------
# extended 5-wheels


def find_extended_5_wheels(x: FlagComplex) -> list[ExtendedWheel5]:
    """All extended 5-wheels, canonicalized and sorted.

    On a window only wheels with all seven vertices trusted are reported.
    """
    region, adj = x.trusted_vertices, x._adj
    wheels: set[ExtendedWheel5] = set()
    for rim_cycle in enumerate_full_cycles(x, 5, min_len=5):
        rim = rim_cycle.vertices
        centers = [c for c in x.common_neighbors(rim) if c in region]
        if not centers:
            continue
        for i in range(5):
            x1, x2 = rim[i], rim[(i + 1) % 5]
            rest = [rim[(i + j) % 5] for j in range(2, 5)]
            # the apexes of this rim edge; a center, adjacent to the rest, is none
            apexes = [a for a in adj[x1] & adj[x2]
                      if a in region and a not in rim and all(a not in adj[y] for y in rest)]
            wheels.update(ExtendedWheel5.canonical(c, (x1, x2, *rest), a)
                          for c in centers for a in apexes if a not in adj[c])
    return sorted(wheels, key=lambda w: (w.center, w.rim, w.apex))


def is_extended_wheel5(x: FlagComplex, w: ExtendedWheel5) -> bool:
    """Independent witness validator for extended 5-wheels."""
    vs = w.all_vertices()
    if len(set(vs)) != 7 or any(v not in x for v in vs):
        return False
    if not is_full_cycle(x, w.rim):
        return False
    if not all(x.adjacent(w.center, r) for r in w.rim):
        return False
    if x.adjacent(w.apex, w.center):
        return False
    if not (x.adjacent(w.apex, w.rim[0]) and x.adjacent(w.apex, w.rim[1])):
        return False
    return not any(x.adjacent(w.apex, r) for r in w.rim[2:])


@once
def extended_wheel_condition(x: FlagComplex) -> Verdict:
    """Every extended 5-wheel has a vertex adjacent to all seven of its
    vertices.  The negative witness is an undominated wheel."""
    wheels = find_extended_5_wheels(x)
    for w in wheels:
        if not x.common_neighbors(w.all_vertices()):
            return no(witness=w, reason="extended 5-wheel with no dominating vertex")
    return yes(wheels=len(wheels))


# ---------------------------------------------------------------------------
# sphere simplex domination


def sphere_domination(x: FlagComplex, v: int, n: int) -> Verdict:
    """For i <= n, every simplex with vertices in the sphere of radius i+1
    around v must see a non-empty simplex among its neighbors in the ball of
    radius i.

    Single vertices count as simplices here, so the scan covers every
    dimension including zero.  On a window this requires n + 1 at most the
    margin, keeping all participating distances exact.  On a finite complex
    n may be INF: every sphere is scanned.

    The spheres are the layers of ``ball(v, n + 1)``, as deep as the ball
    reaches.  A neighbor of a vertex u of sphere i+1 inside the ball of
    radius i lies in sphere i, so u's inner set is its neighbors there, and
    a simplex's inner set is the meet of its vertices' inner sets.  Each
    sphere is scanned in one pass over its simplices in ascending
    lexicographic order (prefixes first, as ``FlagComplex.cliques`` yields
    them), carrying the meet along.  A simplex is reached only after its
    first vertex passed, so its inner set lies inside a non-empty simplex:
    only vertices need the clique test, and above them only emptiness is
    left.  The first failure in this order is the witness.  Sphere 1 is
    skipped: every inner set there is {v}, so none of its simplices fails.
    """
    region, bound = x.trusted_vertices, x.margin
    if n < 0:
        raise ComplexError("n must be non-negative")
    if v not in region:
        raise ComplexError(f"vertex {v} is outside the trusted region")
    if n + 1 > bound:
        raise ComplexError(f"n={n} looks past the trusted horizon (margin {int(bound)})")
    dist = x.oracle.ball(v, n + 1)
    depth = min(n + 1, max(dist.values()))
    spheres: list[list[int]] = [[] for _ in range(depth + 1)]
    for u, d in dist.items():
        if d <= depth:
            spheres[d].append(u)
    for i in range(1, depth):
        hit = _first_undominated(x._adj, sorted(spheres[i + 1]), frozenset(spheres[i]))
        if hit is not None:
            sigma, inner = hit
            return no(
                witness=SphereSimplexViolation(v, i, sigma, tuple(sorted(inner))),
                reason="sphere simplex undominated from the inner ball",
            )
    return yes()


def _first_undominated(
    adj: dict[int, frozenset[int]], sphere: list[int], below: frozenset[int]
) -> tuple[tuple[int, ...], frozenset[int]] | None:
    """First simplex of the sorted sphere, in the order of
    ``FlagComplex.cliques``, whose inner set in ``below`` is empty or, for a
    vertex, not a simplex; (simplex, inner set) or None."""
    pool = frozenset(sphere)
    inner = {u: adj[u] & below for u in sphere}
    for u in sphere:
        here = inner[u]  # never empty: u's BFS parent lies in the sphere below
        if len(here) == 2:
            a, b = here
            if b not in adj[a]:
                return (u,), here
        elif len(here) > 2:
            rest = set(here)
            while rest:
                if not rest <= adj[rest.pop()]:
                    return (u,), here
        # above the vertex only an empty meet can fail
        up = [w for w in adj[u] & pool if w > u]
        if len(up) == 1:
            if here.isdisjoint(inner[up[0]]):
                return (u, up[0]), frozenset()
        elif up:
            up.sort()
            hit = _first_empty_meet(adj, inner, (u,), up, here)
            if hit is not None:
                return hit
    return None


def _first_empty_meet(
    adj: dict[int, frozenset[int]], inner: dict[int, frozenset[int]],
    path: tuple[int, ...], candidates: list[int], meet: frozenset[int],
) -> tuple[tuple[int, ...], frozenset[int]] | None:
    """First simplex path + (u, ...), u in the sorted ``candidates`` (each
    adjacent to all of path), in lexicographic order, whose meet of inner
    sets is empty; a walk goes deeper only where a triangle continues it.
    It stops at once when every candidate's inner set contains the non-empty
    ``meet``: every simplex below then has that meet, so none can fail."""
    if all(meet <= inner[u] for u in candidates):
        return None
    for j, u in enumerate(candidates):
        here = meet & inner[u]
        if not here:
            return path + (u,), here
        nu = adj[u]
        nxt = [w for w in candidates[j + 1 :] if w in nu]
        if nxt:
            hit = _first_empty_meet(adj, inner, path + (u,), nxt, here)
            if hit is not None:
                return hit
    return None


def sphere_domination_violation_holds(x: FlagComplex, w: SphereSimplexViolation) -> bool:
    """Re-validate a sphere-domination witness from scratch."""
    dist = x.oracle.distances_from(w.v)
    if not x.is_clique(w.simplex):
        return False
    if any(dist.get(u, INF) != w.i + 1 for u in w.simplex):
        return False
    inner = {u for u in x.common_neighbors(w.simplex) if dist.get(u, INF) <= w.i}
    if inner != set(w.inner_set):
        return False
    return not inner or not x.is_clique(inner)


# ---------------------------------------------------------------------------
# weak systolicity and systolicity


MODES = ("graph", "sd", "composite")


def is_weakly_systolic(
    x: FlagComplex,
    mode: str = "graph",
    oracle_budget: int = DEFAULT_BUDGET,
) -> Verdict:
    """Decide weak systolicity through one of three equivalent routes.

    graph mode: no full 4-cycles and the 1-skeleton is weakly modular.
    sd mode: sphere simplex domination at every vertex to every depth that
    the input supports (every sphere on finite complexes, margin - 1 on
    windows).
    composite mode: runs both, plus the local-to-global route (simple
    connectivity, extended 5-wheel condition, no full 4-cycles), and
    cross-reports all three in the verdict detail.

    Empty or disconnected input is rejected: the notion presupposes both.
    """
    if mode not in MODES:
        raise ComplexError(f"unknown mode {mode!r}; expected one of {MODES}")
    _require_connected(x, "weak systolicity")
    if mode == "graph":
        return _weakly_systolic_graph(x)
    if mode == "sd":
        return sphere_domination_everywhere(x)
    # SD first: the graph route's TC and QC then read its verdict
    sd_v = sphere_domination_everywhere(x)
    graph_v = _weakly_systolic_graph(x)
    local_v = _weakly_systolic_local_to_global(x, oracle_budget)
    detail = {"graph": graph_v, "sd": sd_v, "local_to_global": local_v}
    for sub in (graph_v, sd_v, local_v):
        if sub.is_no:
            return no(witness=sub.witness, reason=sub.reason, **detail)
    if local_v.is_unknown:
        return Verdict(graph_v.answer, graph_v.witness, local_v.reason, detail)
    return yes(**detail)


@once
def _full_square(x: FlagComplex) -> Verdict | None:
    """The No for a full 4-cycle, witnessed by the least one; None when
    there is none."""
    squares = enumerate_full_cycles(x, 4)
    return no(witness=squares[0], reason="full 4-cycle") if squares else None


def _weakly_systolic_graph(x: FlagComplex) -> Verdict:
    return _full_square(x) or is_weakly_modular(x)


@once
def sphere_domination_everywhere(x: FlagComplex) -> Verdict:
    """Sphere simplex domination at every (trusted) vertex, to the deepest
    radius the input supports: margin - 1, which is INF on a finite complex,
    where the scan stops at the last sphere the ball reaches.

    The answer at v depends only on ``ball(v, margin)``, the ball
    :func:`sphere_domination` reads (the whole component when the margin is
    INF).  So the scan skips each source that a declared symmetry carries
    from a source that passed, with radius ``margin``
    (:func:`_scanned_sources`); the first failing source is scanned in full,
    so the witness is the one a full scan finds.
    """
    bound = x.margin
    _require_connected(x, "sphere domination")
    for v in _scanned_sources(x, bound):
        sub = sphere_domination(x, v, bound - 1)
        if sub.is_no:
            return sub
    return yes()


def _scanned_sources(x: FlagComplex, radius: float):
    """The sorted trusted sources of x that a scan must visit when its
    answer at a source u depends only on the rooted ball(u, radius); the
    scan stops at its first failing source, so every source before the one
    it asks for next has passed.  Its scans: sphere domination (radius
    ``margin``), the vertex-link scan (radius 1) and the full-cycle
    certificate :func:`_cycle_free` (radius length // 2).  Each source that
    a declared map carries from a passed one is skipped
    (``isometries._carry``, which holds the proof)."""
    passed: set[int] = set()
    for u, p in _carry(x, sorted(x.trusted_vertices), radius, lambda: _transport_table(x), passed):
        if p is None:
            yield u
        passed.add(u)


def _weakly_systolic_local_to_global(x: FlagComplex, oracle_budget: int) -> Verdict:
    square = _full_square(x)
    if square is not None:
        return square
    wheels = extended_wheel_condition(x)
    if wheels.is_no:
        return wheels
    sc = simple_connectivity_oracle(x, oracle_budget)
    if sc.is_no:
        return no(witness=sc.witness, reason="not simply connected")
    if sc.is_unknown:
        return unknown(reason=f"simple connectivity undecided: {sc.reason}")
    return yes()


def is_systolic(x: FlagComplex, oracle_budget: int = DEFAULT_BUDGET) -> Verdict:
    """Connected, simply connected, and locally 6-large.

    Local 6-largeness is decided exhaustively; simple connectivity comes
    from the semi-decision oracle, so the overall verdict can be unknown.
    """
    split = disconnection(x)
    if split is not None:
        return split
    local = is_locally_k_large(x, 6)
    if local.is_no:
        return no(witness=local.witness, reason="a link has a full cycle shorter than 6")
    sc = simple_connectivity_oracle(x, oracle_budget)
    if sc.is_no:
        return no(witness=sc.witness, reason=f"not simply connected ({sc.reason})")
    if sc.is_unknown:
        return unknown(reason=f"simple connectivity undecided: {sc.reason}")
    return yes()
