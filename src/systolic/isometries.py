"""Simplicial automorphisms and their displacement geometry.

An automorphism may be total, or partial when it comes from a window cut out
of a periodic complex (vertices whose image falls outside the window have no
image).  Displacement is the distance a vertex travels; the minimum over
trusted vertices is the translation length, and the span of the vertices
attaining it is the minimal displacement set.  Every check takes one flag
complex and reads its ``trusted_vertices`` and ``margin``; a finite complex
trusts every vertex and every distance, a window only its inner ball.

Checks return :class:`~systolic.verdict.Verdict` records; ``classify`` is
always a yes whose detail names the kind of map.  An orbit chain is built
from h's displacement profile by one walk that translates a minimal
geodesic by h^-1 and by h.  The profile is computed once per complex and
map, however many checks read it, and so is the Min complex.

Declared maps carry scans.  A scan whose answer at a source u depends only
on the rooted ``ball(u, radius)`` copies the answer of a source p that
passed when a verified declared map carries u from p: :func:`_carry` is the
one loop that applies this rule, and its docstring holds the proof.  It
serves sphere domination, the vertex-link scan and the full-cycle
certificate of ``conditions``, the displacement profile here and the
embedding check of ``mindisp``.  The Min-set layer uses only the maps that
commute with h wherever both composites are defined: such a map g keeps
displacement, d(gv, hgv) = d(v, hv), so it carries Min(h) onto itself, and
the Min complex declares their restrictions, which its link and cycle
scans then ride.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .complexes import INF, ComplexError, FlagComplex, as_simplex, once
from .verdict import (
    NO,
    UNKNOWN,
    YES,
    ChainGapViolation,
    DistancePair,
    MapViolation,
    Verdict,
    no,
    unknown,
    yes,
)


class Automorphism:
    """An injective vertex map preserving adjacency both ways.

    ``mapping`` need not cover every vertex; ``total`` records whether it
    does for the complex the map was built against.  The inverse is derived
    and checked for consistency at construction.
    """

    __slots__ = ("mapping", "inverse_mapping", "name")

    def __init__(self, mapping: dict[int, int], name: str = "h"):
        inv: dict[int, int] = {}
        for u, v in mapping.items():
            if v in inv:
                raise ComplexError(f"map sends both {inv[v]} and {u} to {v}")
            inv[v] = u
        self.mapping = dict(mapping)
        self.inverse_mapping = inv
        self.name = name

    @staticmethod
    def identity(x: FlagComplex) -> "Automorphism":
        return Automorphism({v: v for v in x.vertices}, "id")

    def defined(self, v: int) -> bool:
        return v in self.mapping

    def __call__(self, v: int) -> int:
        try:
            return self.mapping[v]
        except KeyError:
            raise ComplexError(f"vertex {v} is outside the domain of {self.name}") from None

    def is_total_on(self, x: FlagComplex) -> bool:
        return self.mapping.keys() == set(x.vertices)

    def power(self, n: int) -> "Automorphism":
        """n-fold composition; negative n composes the inverse.

        Repeated squaring of the partial map: powers of one map compose
        associatively, and a composite keeps the keys of the map applied
        first in their order, so the result has the keys of the |n|-step loop
        in the same order.
        """
        if n == 0:
            keys = set(self.mapping) | set(self.inverse_mapping)
            return Automorphism({v: v for v in keys}, f"{self.name}^0")
        step = self.mapping if n > 0 else self.inverse_mapping
        out = {v: v for v in step}
        k = abs(n)
        while k:
            if k & 1:
                out = {u: step[v] for u, v in out.items() if v in step}
            k >>= 1
            if k:
                step = {u: step[v] for u, v in step.items() if v in step}
        return Automorphism(out, f"{self.name}^{n}")

    def __repr__(self) -> str:
        return f"Automorphism({self.name!r}, domain_size={len(self.mapping)})"


def validate_automorphism(x: FlagComplex, h: Automorphism) -> Verdict:
    """Check h is a simplicial automorphism where defined.

    Adjacency must be preserved in both directions on the domain; images
    must be vertices of the complex.  The negative witness names the broken
    pair, the least u and then the least v > u.  The verdict detail records
    whether the map is total.

    A pair can disagree only if it is an edge on one side: v is a neighbor
    of u, or h(v) one of h(u).  Each u is first tested whole: when h maps
    N(u) ∩ dom onto N(h(u)) ∩ im, then for every v in the domain, v is in
    N(u) exactly when h(v) is in N(h(u)), so no pair (u, v) disagrees in
    either direction and u is skipped.  Otherwise its pairs are walked in
    order of v.  A disagreement with v > u is so found exactly as by the
    walk of every u, and one with v < u was found at v, which came first.
    """
    m, inv = h.mapping, h.inverse_mapping
    for u, v in m.items():
        if u not in x:
            return no(witness=MapViolation("unknown_source", u, v))
        if v not in x:
            return no(witness=MapViolation("unknown_image", u, v))
    adj = x._adj
    for u in sorted(m):
        nu, nhu = adj[u], adj[m[u]]
        image = set(map(m.get, nu))
        image.discard(None)  # the neighbours outside the domain
        if image == nhu or image == nhu & inv.keys():
            continue
        around = {v for v in nu if v in m}
        around.update(inv[w] for w in nhu if w in inv)
        for v in sorted(v for v in around if v > u):
            if (v in nu) != (m[v] in nhu):
                kind = "edge_broken" if v in nu else "edge_created"
                return no(witness=MapViolation(kind, u, v))
    return yes(total=h.is_total_on(x))


class _Row(NamedTuple):
    """How one verified map g of x, a declared map or its inverse, carries
    sources: ``back`` sends g(p) to p, and ``off_dom`` and ``off_im`` give
    each vertex's distance from the vertices outside dom(g) and outside
    im(g)."""

    back: dict[int, int]
    off_dom: dict[int, int]
    off_im: dict[int, int]


def _carry(x: FlagComplex, sources, radius: float, table, passed: set[int]):
    """For each of the sorted ``sources`` of x in order, ``(u, p)``: p is
    the passed source that a row carries u from, or None when u must be
    computed.  The caller scans sources whose answer at u depends only on
    the rooted ball(u, radius), and adds u to ``passed`` when u passes.

    A row of ``table()`` with map g (a declared map or its inverse, see
    :class:`_Row`) carries u from p when u = g(p), p has passed, no vertex
    outside dom(g) lies within radius of p, and no vertex outside im(g)
    lies within radius of u.  Proof: g is a partial automorphism, so it
    maps every geodesic inside ball(p, radius), which lies in dom(g), to a
    path of the same length, and g^-1 maps every geodesic inside
    ball(u, radius), which lies in im(g), back.  So g is a bijection of
    ball(p, radius) onto ball(u, radius) that keeps the distance from the
    centre and adjacency both ways, and the scan answers at u as at p.
    Only passed sources are copied, so the first failing source is always
    computed in full.  ``table()`` is called at the first source asked
    about while something has passed, and only when x declares a map, so a
    scan that stops at its first source, or a complex without maps, pays
    nothing for it.
    """
    rows = None
    for u in sources:
        p = None
        if passed and x.symmetries:
            if rows is None:
                rows = table()
            for back, off_dom, off_im in rows:
                q = back.get(u)
                if q in passed and not _within(off_dom, q, radius) and not _within(off_im, u, radius):
                    p = q
                    break
        yield u, p


def _within(near: dict[int, int], v: int, radius: float) -> bool:
    """Whether a vertex that ``near`` measures from lies within radius of v;
    a vertex missing from ``near`` has none within the reach of the table,
    which is at least every radius a scan asks for."""
    return v in near and near[v] <= radius


@once
def _verified_maps(x: FlagComplex) -> list[tuple[Automorphism, tuple[_Row, _Row]]]:
    """Each declared map h of x that :func:`validate_automorphism` accepts,
    with the :class:`_Row` of h and that of its inverse.  The distances of
    a row are each one multi-source BFS, to ``margin`` on a window (no scan
    asks for a larger radius) and to any depth on a finite complex.  A map
    that fails its check is dropped: the rows only spare scans, so no
    verdict depends on them."""
    out = []
    for f in x.symmetries:
        h = f(x)
        if not validate_automorphism(x, h).is_yes:
            continue
        m, inv = h.mapping, h.inverse_mapping
        off_dom = x.oracle._bfs([v for v in x.vertices if v not in m], x.margin)
        off_im = x.oracle._bfs([v for v in x.vertices if v not in inv], x.margin)
        out.append((h, (_Row(inv, off_dom, off_im), _Row(m, off_im, off_dom))))
    return out


def _transport_table(x: FlagComplex) -> list[_Row]:
    """The rows of every verified declared map of x and of its inverse
    (:func:`_verified_maps`)."""
    return [row for _, rows in _verified_maps(x) for row in rows]


@dataclass(frozen=True)
class DisplacementProfile:
    """Exact displacement per vertex, restricted to where it can be trusted.

    A vertex contributes only when it and its image lie in the complex's
    ``trusted_vertices`` and the displacement is at most its ``margin``;
    ``skipped`` counts the vertices left out.  A finite complex has margin
    INF, so there a vertex whose image lies in another component is an error
    rather than a skip.
    ``translation_length`` is the minimum displacement, ``min_vertices`` the
    sorted vertices attaining it.
    """

    values: dict[int, int]
    skipped: int
    translation_length: float
    min_vertices: tuple[int, ...]


@once
def displacement_profile(x: FlagComplex, h: Automorphism) -> DisplacementProfile:
    """The profile of h on x, by one capped query per trusted vertex whose
    image is trusted, except where a declared map carries the answer.

    A vertex u whose image h(u) is trusted takes the answer of a vertex p
    that was answered before it (p's image was trusted too) when the row of
    g, one of the maps of :func:`_commuting_maps` or its inverse, carries u
    from p at radius ``margin`` (:func:`_carry`).  Trust is not g-invariant,
    so h(u) is tested directly.  Proof: g maps ball(p, margin) onto
    ball(u, margin), keeping the distance from the centre.  If d(p, hp) <=
    margin, then hp lies in that ball and g(hp) = h(u), since g commutes
    with h at p; so d(u, hu) = d(p, hp).  If d(u, hu) <= margin, then hu
    lies in ball(u, margin), which lies in im(g), and g^-1(hu) = h(p), since
    g^-1 commutes with h at u; so d(p, hp) = d(u, hu).  Hence either both
    displacements are the same value within the cap or both lie beyond it.
    """
    region, bound = x.trusted_vertices, x.margin
    values: dict[int, int] = {}
    answered: set[int] = set()
    sources = [v for v in sorted(region) if h.mapping.get(v) in region]
    skipped = len(region) - len(sources)
    table = lambda: [row for _, pair in _commuting_maps(x, h) for row in pair]
    for v, p in _carry(x, sources, bound, table, answered):
        hv = h.mapping[v]
        d = x.oracle.distance_capped(v, hv, bound) if p is None else values.get(p, INF)
        answered.add(v)
        if d == INF:
            if bound == INF:
                raise ComplexError(f"vertex {v} and its image {hv} lie in different components")
            skipped += 1
            continue
        values[v] = int(d)
    length = min(values.values()) if values else INF
    mins = tuple(v for v in sorted(values) if values[v] == length)
    return DisplacementProfile(values, skipped, length, mins)


@once
def _commuting_maps(x: FlagComplex, h: Automorphism) -> list:
    """The verified declared maps g of x, with their rows
    (:func:`_verified_maps`), that commute with h wherever both composites
    are defined, for g and for g^-1: for every p in dom(g) ∩ dom(h) with
    g(p) in dom(h), g(h(p)) = h(g(p)) when h(p) lies in dom(g) or h(g(p))
    lies in im(g)."""
    hm = h.mapping
    return [
        (g, rows)
        for g, rows in _verified_maps(x)
        if all(g.mapping.get(hp) == hu
               for p, u in g.mapping.items()
               if (hp := hm.get(p)) is not None and (hu := hm.get(u)) is not None
               and (hp in g.mapping or hu in g.inverse_mapping))
    ]


def moving_profile(x: FlagComplex, h: Automorphism) -> DisplacementProfile:
    """The displacement profile of h when its translation length is positive
    and trusted, as Min(h) and the orbit chains need.

    Refused, naming the map, when no displacement value is trusted or when
    the translation length is zero (h fixes a vertex; the notion under study
    concerns maps that move everything).
    """
    prof = displacement_profile(x, h)
    if prof.translation_length == INF:
        raise ComplexError(f"no trusted displacement value for {h.name}")
    if prof.translation_length == 0:
        raise ComplexError(f"{h.name} fixes a vertex: its translation length is zero")
    return prof


def find_invariant_simplex(x: FlagComplex, h: Automorphism) -> Verdict:
    """Search for a simplex mapped onto itself.

    A candidate must be a union of complete h-orbits, and any invariant
    simplex contains an orbit that is itself a clique, so scanning orbits is
    exhaustive.  For a total map the negative answer is therefore decisive;
    for a partial map (a window) orbits may run off the domain and the
    answer without a witness is unknown.
    """
    seen: set[int] = set()
    saw_incomplete = False
    for v in sorted(h.mapping):
        if v in seen:
            continue
        orbit = [v]
        cur = h.mapping[v]
        closed = cur == v
        while not closed and cur in h.mapping and cur not in seen and len(orbit) <= x.n_vertices:
            orbit.append(cur)
            cur = h.mapping[cur]
            closed = cur == v
        seen.update(orbit)
        if not closed:
            saw_incomplete = True
            continue
        if x.is_clique(orbit):
            return yes(witness=as_simplex(orbit))
    if h.is_total_on(x) and not saw_incomplete:
        return no(reason="no orbit spans a simplex")
    return unknown(reason="orbits leave the window; no invariant simplex found")


def is_invariant_simplex(x: FlagComplex, h: Automorphism, simplex: tuple[int, ...]) -> bool:
    """Independent witness validator: a clique mapped onto itself."""
    s = as_simplex(simplex)
    if not x.is_clique(s):
        return False
    if not all(h.defined(v) for v in s):
        return False
    return {h.mapping[v] for v in s} == set(s)


# answer of find_invariant_simplex -> the kind of map it shows
MAP_KINDS = {YES: "elliptic", NO: "hyperbolic", UNKNOWN: "unknown_on_window"}


def classify(x: FlagComplex, h: Automorphism) -> Verdict:
    """Elliptic (some simplex is invariant), hyperbolic (provably none), or
    unknown_on_window (no witness found, search not exhaustive).

    Always a yes: the class sits in the detail, next to the invariant
    simplex (or None) and the translation length.
    """
    prof = displacement_profile(x, h)
    inv = find_invariant_simplex(x, h)
    return yes(
        kind=MAP_KINDS[inv.answer],
        invariant_simplex=inv.witness,
        translation_length=prof.translation_length,
    )


@once
def min_set(x: FlagComplex, h: Automorphism) -> FlagComplex:
    """Full subcomplex on the vertices of minimal displacement; refused as
    by :func:`moving_profile`.  One complex per x and h serves every check.

    It declares the restriction v -> g(v), where v and g(v) both lie in
    Min(h), of each map g of x that commutes with h (:func:`_commuting_maps`);
    a restriction of a partial automorphism to a full subcomplex is one, so
    it passes the check of :func:`_verified_maps`.  Each declared
    function holds only its mapping.
    """
    mins = moving_profile(x, h).min_vertices
    sub = x.span(mins)
    members = set(mins)
    restricted = []
    if x.symmetries:
        for g, _ in _commuting_maps(x, h):
            mapping = {v: gv for v in mins if (gv := g.mapping.get(v)) in members}
            if mapping:
                restricted.append(_declared(mapping))
    sub.symmetries = tuple(restricted)
    return sub


def _declared(mapping: dict[int, int]):
    """A declared symmetry that holds nothing but its mapping."""
    return lambda _target: Automorphism(mapping, "restriction")


def min_set_idempotence(x: FlagComplex, h: Automorphism) -> Verdict:
    """Recomputing displacement inside the minimal displacement set must
    reproduce it: every vertex attains the translation length using paths
    inside the set only.

    Every vertex of the set has an image (the profile keeps only trusted
    images).  One whose image has no trusted displacement is skipped; one
    whose image provably leaves the set is a violation.
    """
    sub = min_set(x, h)
    prof = displacement_profile(x, h)
    length = prof.translation_length
    members = set(prof.min_vertices)
    checked = 0
    for v in sorted(members):
        hv = h.mapping[v]
        if hv not in prof.values:
            continue  # image displacement untrusted; cannot judge from here
        if hv not in members:
            return no(
                witness=MapViolation("image_leaves_min_set", v, hv),
                reason="image has trusted displacement above the minimum",
            )
        d_inside = sub.oracle.distance(v, hv, length)
        if d_inside != length:
            return no(
                witness=DistancePair(v, hv, d_inside, length),
                reason="displacement grows when paths are confined to the set",
            )
        checked += 1
    if checked == 0:
        return unknown(reason="no checkable vertex in the set")
    return yes(checked=checked)


@dataclass(frozen=True)
class PathChain:
    """A path indexed by a window of integers, meant to be read as a
    bi-infinite concatenation of translates of one geodesic segment.

    ``vertices[i]`` is the vertex at index ``start + i``, and
    ``vertices[i + period] == h(vertices[i])`` holds by construction
    wherever both are present.
    """

    start: int
    vertices: tuple[int, ...]
    period: int

    def __post_init__(self) -> None:
        if self.period < 1:
            raise ComplexError("chain period must be positive")
        if not self.vertices:
            raise ComplexError("empty chain")

    @property
    def stop(self) -> int:
        return self.start + len(self.vertices) - 1


def orbit_path(
    x: FlagComplex,
    h: Automorphism,
    v: int | None = None,
    alpha: tuple[int, ...] | None = None,
) -> PathChain:
    """Concatenate translates h^n(alpha) of a minimal geodesic into a chain.

    v defaults to the least minimal-displacement vertex and alpha to the
    lexicographically least geodesic from v to h(v); a given alpha must be
    a geodesic from v to h(v) of length equal to the translation length.
    One walk translates alpha by h^-1 and by h in turn, as far as the map is
    defined on the whole segment, with a cap proportional to the complex
    size.  Translates meet end to end: alpha runs from v to h(v), and
    ``inverse_mapping`` inverts ``mapping`` exactly.
    """
    prof = moving_profile(x, h)
    length = prof.translation_length
    if v is None:
        v = prof.min_vertices[0]
    if v not in prof.values or prof.values[v] != length:
        raise ComplexError(f"vertex {v} does not attain the translation length")
    if alpha is None:
        alpha = x.oracle.geodesic(v, h(v))
    alpha = tuple(alpha)
    if alpha[0] != v or alpha[-1] != h(v):
        raise ComplexError("alpha must run from v to h(v)")
    if len(alpha) - 1 != length:
        raise ComplexError("alpha is not minimal: its length must be the translation length")
    for a, b in zip(alpha, alpha[1:]):
        if not x.adjacent(a, b):
            raise ComplexError(f"alpha is not a path: {a} and {b} are not adjacent")

    cap = x.n_vertices // int(length) + 2
    back, fwd = [], []
    for step, out in ((h.inverse_mapping, back), (h.mapping, fwd)):
        seg = alpha
        while len(out) < cap and all(u in step for u in seg):
            seg = tuple(step[u] for u in seg)
            out.append(seg)
    segments = back[::-1] + [alpha] + fwd
    vertices = list(segments[0])
    for part in segments[1:]:
        vertices.extend(part[1:])
    return PathChain(-len(back) * int(length), tuple(vertices), int(length))


def verify_local_geodesic(x: FlagComplex, chain: PathChain, gap: int | None = None) -> Verdict:
    """Check d(gamma(a), gamma(b)) == |a - b| for index pairs up to ``gap``
    apart (all pairs when gap is None).

    Pairs are skipped unless both vertices are trusted and the claimed value
    is within the trust bound; the detail reports how many pairs were
    actually checked.
    """
    region, bound = x.trusted_vertices, x.margin
    verts = chain.vertices
    checked = 0
    for i, u in enumerate(verts):
        if u not in region:
            continue
        for diff, w in enumerate(verts[i + 1 :], 1):
            if diff > bound or (gap is not None and diff > gap):
                break
            if w not in region:
                continue
            d = x.oracle.distance(u, w, bound)
            checked += 1
            if d != diff:
                a = chain.start + i
                return no(
                    witness=ChainGapViolation(a, a + diff, u, w, diff, d),
                    reason="chain pair at the wrong distance",
                )
    if checked == 0:
        return unknown(reason="no trusted index pairs to check")
    return yes(pairs=checked)


def chain_gap_violation_holds(x: FlagComplex, w: ChainGapViolation) -> bool:
    """Re-validate a chain distance witness from scratch."""
    return x.oracle.distance(w.u, w.v) == w.actual and w.actual != w.expected
