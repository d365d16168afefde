"""Deterministic builders for the example complexes and their automorphisms.

The triangular lattice uses axial coordinates (q, r) with the six unit
directions (1,0), (-1,0), (0,1), (0,-1), (1,-1), (-1,1); the hex distance of
a difference vector is max(|q|, |r|, |q+r|).  Vertex ids in every generator
are dense 0..n-1 and row-major where a grid is involved, so outputs are
stable across runs and platforms.  The lattice window computes its
adjacency from the row layout and is set up on it without a check; every
other builder passes its vertices and edges through the checking
constructor.

A builder declares the symmetries it knows as ``symmetries``: the lattice
window its unit translation t1 and the translation (q, r) -> (q - 1, r + 1)
that steps from row to row, the hex torus its translation, the cycle its
rotation and the cone its base's maps with the apex fixed.  The scans that
skip sources a map carries (sphere domination, the vertex-link scan and the
full-cycle certificate of ``conditions``) then scan one lattice source.  The
Min-set layer skips them too: the displacement profile and the Min complex
of ``isometries`` ride the maps that commute with h, and the embedding check
of ``mindisp`` rides every map, guarded by the membership flips.  All of
them carry through one loop, ``isometries._carry``, and only along the
declared maps that pass ``validate_automorphism``.  The finite thick line
declares none: there a partial map carries nothing.
"""

from __future__ import annotations

import random

from .complexes import ComplexError, FlagComplex, WindowView, _require_margin
from .isometries import Automorphism

AXIAL_DIRECTIONS = ((1, 0), (-1, 0), (0, 1), (0, -1), (1, -1), (-1, 1))


def hex_distance(q: int, r: int) -> int:
    return max(abs(q), abs(r), abs(q + r))


def triangular_lattice_window(radius: int, margin: int) -> WindowView:
    """Ball of the given radius around the origin of the triangular lattice.

    Vertices are the axial coordinates at hex distance <= radius, numbered
    row-major (sorted by (r, q)); edges join coordinates differing by a unit
    direction.  Vertex count is 1 + 3 * radius * (radius + 1).  The
    adjacency is computed row by row: row r runs over q from
    max(-radius, -radius - r) to min(radius, radius - r), and (q, r) meets
    (q +- 1, r) in its own row, (q, r - 1) and (q + 1, r - 1) in the row
    below and (q - 1, r + 1) and (q, r + 1) in the row above, where those
    lie in the window; the window takes it without checking it again.  It
    declares two translations: t1, which carries each trusted source to
    the next one of its row, and (q, r) -> (q - 1, r + 1), which carries
    the first (r < 0) or the second (r >= 0) trusted source of row r onto
    the first one of row r + 1.  Together they carry every trusted source
    but the first from an earlier one, so the glide would spare no further
    scan.
    """
    if radius < 1:
        raise ComplexError("lattice window radius must be at least 1")
    _require_margin(radius, margin)
    # row r holds q from lo on; its vertices are row[q - lo], one int object
    # each, shared by every neighbourhood so that lookups match by identity
    rows, n = {}, 0
    for r in range(-radius, radius + 1):
        lo, hi = max(-radius, -radius - r), min(radius, radius - r)
        rows[r] = (lo, list(range(n, n + hi - lo + 1)))
        n += hi - lo + 1
    adj, coord_of = {}, {}
    for r, (lo, row) in rows.items():
        near = [(lo, row, (-1, 1))]
        if r > -radius:
            near.append((*rows[r - 1], (0, 1)))
        if r < radius:
            near.append((*rows[r + 1], (-1, 0)))
        for q, v in enumerate(row, lo):
            # copied from a set, a frozenset of six takes the table of 16
            # that __init__'s sets give it, not the 32 it grows to itself
            adj[v] = frozenset(
                {ids[k] for at, ids, ds in near for d in ds if 0 <= (k := q + d - at) < len(ids)}
            )
            coord_of[v] = (q, r)
    window = WindowView._of_adjacency(adj, (_unit_translation, _row_translation))
    window._frame(rows[0][1][radius], radius, margin, coord_of)
    return window


def _coord_map(window: WindowView, image, name: str) -> Automorphism:
    mapping = {}
    for i, c in window.coord_of.items():
        j = window.id_of.get(image(c))
        if j is not None:
            mapping[i] = j
    return Automorphism(mapping, name)


def lattice_translation(window: WindowView, steps: int = 1) -> Automorphism:
    """Partial automorphism translating by ``steps`` along the q-axis."""
    if steps == 0:
        raise ComplexError("translation by zero is the identity; use Automorphism.identity")
    return _coord_map(window, lambda c: (c[0] + steps, c[1]), f"t{steps}")


def _unit_translation(window: WindowView) -> Automorphism:
    return lattice_translation(window, 1)


def _row_translation(window: WindowView) -> Automorphism:
    return _coord_map(window, lambda c: (c[0] - 1, c[1] + 1), "shift(-1,1)")


def lattice_glide(window: WindowView) -> Automorphism:
    """Glide reflection (q, r) -> (q + r, 1 - r).

    Its square is the unit translation t1.  Displacement is 1 exactly on the
    two rows r = 0 and r = 1 and at least 3 elsewhere, so its minimal
    displacement set is that two-row strip.
    """
    return _coord_map(window, lambda c: (c[0] + c[1], 1 - c[1]), "glide")


def thick_line(k: int, half_width: int) -> tuple[FlagComplex, Automorphism]:
    """The k-thick interval on positions -half_width..half_width.

    Vertex id i stands for position i - half_width; two vertices are
    adjacent when their positions differ by 1..k, so the distance between
    positions p and q is ceil(|p - q| / k).  The returned shift moves every
    position by +1 where the image exists.
    """
    if k < 1:
        raise ComplexError("thickness must be at least 1")
    if half_width < k + 1:
        raise ComplexError("half_width too small to exhibit the thickness")
    n = 2 * half_width + 1
    edges = [(i, j) for i in range(n) for j in range(i + 1, min(i + k, n - 1) + 1)]
    return FlagComplex(range(n), edges), line_shift(n)


def line_shift(n_vertices: int) -> Automorphism:
    """Vertex i to i + 1 on the line 0..n_vertices-1, where i + 1 exists."""
    return Automorphism({i: i + 1 for i in range(n_vertices - 1)}, "shift")


def hex_torus(p: int, q: int) -> FlagComplex:
    """Quotient of the triangular lattice by the lattice spanned by (p, 0)
    and (0, q); both periods must be at least 4 so that the six neighbor
    offsets stay distinct and the links are 6-cycles."""
    if p < 4 or q < 4:
        raise ComplexError("torus periods must be at least 4")
    def vid(a: int, b: int) -> int:
        return (a % p) * q + (b % q)
    edges = set()
    for a in range(p):
        for b in range(q):
            i = vid(a, b)
            for da, db in AXIAL_DIRECTIONS:
                j = vid(a + da, b + db)
                edges.add((min(i, j), max(i, j)))
    return FlagComplex(
        range(p * q), sorted(edges), symmetries=(lambda x: torus_translation(x, p, q),)
    )


def torus_translation(x: FlagComplex, p: int, q: int) -> Automorphism:
    """Total automorphism of hex_torus(p, q) shifting the first coordinate by 1."""
    if x.n_vertices != p * q:
        raise ComplexError("torus dimensions do not match the complex")
    return Automorphism(
        {a * q + b: ((a + 1) % p) * q + b for a in range(p) for b in range(q)}, "shift(1,0)"
    )


def octahedron() -> FlagComplex:
    """Three antipodal pairs {0,1}, {2,3}, {4,5}; edges between pairs."""
    verts = range(6)
    edges = [
        (u, v)
        for u in verts
        for v in verts
        if u < v and u // 2 != v // 2
    ]
    return FlagComplex(verts, edges)


def octahedron_antipodal() -> Automorphism:
    return Automorphism({0: 1, 1: 0, 2: 3, 3: 2, 4: 5, 5: 4}, "antipodal")


def icosahedron() -> FlagComplex:
    """North pole 0, upper pentagon 1..5, lower pentagon 6..10, south 11."""
    edges = [(0, i) for i in range(1, 6)]
    edges += [(11, i) for i in range(6, 11)]
    for i in range(5):
        edges.append((1 + i, 1 + (i + 1) % 5))
        edges.append((6 + i, 6 + (i + 1) % 5))
        edges.append((1 + i, 6 + i))
        edges.append((1 + i, 6 + (i + 1) % 5))
    return FlagComplex(range(12), edges)


def cycle(n: int) -> FlagComplex:
    if n < 3:
        raise ComplexError("a cycle needs at least 3 vertices")
    return FlagComplex(
        range(n), [(i, (i + 1) % n) for i in range(n)], symmetries=(lambda x: cycle_rotation(n),)
    )


def cycle_rotation(n: int) -> Automorphism:
    return Automorphism({i: (i + 1) % n for i in range(n)}, "rotate")


def complete(n: int) -> FlagComplex:
    if n < 1:
        raise ComplexError("a complete graph needs at least 1 vertex")
    return FlagComplex(range(n), [(i, j) for i in range(n) for j in range(i + 1, n)])


def wheel(k: int) -> FlagComplex:
    """Hub 0 joined to the cycle 1..k."""
    if k < 4:
        raise ComplexError("a wheel rim needs at least 4 vertices")
    edges = [(0, i) for i in range(1, k + 1)]
    edges += [(i, i % k + 1) for i in range(1, k + 1)]
    return FlagComplex(range(k + 1), edges)


def extended_wheel5(dominated: bool = False) -> FlagComplex:
    """A 5-wheel (hub 0, rim 1..5) with an apex 6 glued onto the rim edge
    (1, 2); with ``dominated`` a vertex 7 adjacent to all seven is added."""
    g = wheel(5)
    verts = list(g.vertices) + [6]
    edges = list(g.edges()) + [(1, 6), (2, 6)]
    if dominated:
        verts.append(7)
        edges += [(i, 7) for i in range(7)]
    return FlagComplex(verts, edges)


def cone(x: FlagComplex) -> FlagComplex:
    """Join a fresh apex, one more than the largest vertex, to every vertex.

    Each map declared on x is declared on the cone with the apex fixed.
    """
    a = max(x.vertices) + 1 if x.n_vertices else 0
    verts = list(x.vertices) + [a]
    edges = list(x.edges()) + [(v, a) for v in x.vertices]
    return FlagComplex(verts, edges, symmetries=tuple(_apex_fixed(f, x, a) for f in x.symmetries))


def _apex_fixed(f, base: FlagComplex, apex: int):
    """f(target) -> f(base) on the cone of base, the apex fixed."""

    def on_cone(_cone: FlagComplex) -> Automorphism:
        h = f(base)
        return Automorphism({**h.mapping, apex: apex}, h.name)

    return on_cone


def random_flag_complex(n: int, p: float, seed: int) -> FlagComplex:
    """Erdos-Renyi 1-skeleton, flag-completed.

    Uses random.Random(seed) (the stdlib Mersenne Twister, stable across
    platforms and versions) and draws pairs in sorted order, so the output
    depends only on (n, p, seed).
    """
    if n < 0:
        raise ComplexError("vertex count cannot be negative")
    if not 0 <= p <= 1:
        raise ComplexError("edge probability must lie in [0, 1]")
    rng = random.Random(seed)
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < p
    ]
    return FlagComplex(range(n), edges)
