"""Geometry of minimal displacement sets.

Given a complex and an automorphism with positive translation length, these
checks probe the structure of the minimal displacement set: whether it embeds
isometrically, whether its 5-wheels are dominated from outside, whether it
contains an invariant geodesic, and, when it does not, whether it carries a
thick interval instead.  Whether the set is itself systolic is
``conditions.is_systolic`` applied to it.

Each check returns a Verdict, except the embedding check, which returns an
:class:`EmbeddingReport` with its pair count.  The geodesic search and the
dichotomy build every candidate chain from the map's displacement profile,
which is computed once per complex and map; candidate geodesics come in
lexicographic order from ``DistanceOracle.geodesics``.

The embedding check rides the target's verified declared maps, needing no
h: a member that a map carries from a member that passed
(``isometries._carry``), with no member entering or leaving the set under
the map near it, passes without a scan.
The Min complex's own declared maps (``isometries.min_set``) carry the link
and cycle scans of the 5-wheel check.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import ComplexError, FlagComplex
from .conditions import find_extended_5_wheels, first_link_cycle
from .isometries import (
    Automorphism,
    PathChain,
    _carry,
    _transport_table,
    classify,
    is_invariant_simplex,
    moving_profile,
    orbit_path,
    verify_local_geodesic,
)
from .verdict import (
    ChainGapViolation,
    DistancePair,
    ThickAdjacencyViolation,
    Verdict,
    no,
    unknown,
    yes,
)


@dataclass(frozen=True)
class EmbeddingReport:
    """Outcome of comparing subcomplex distances with ambient distances.

    ``max_deviation`` is the largest excess of the inner distance over the
    ambient one across all checked pairs (0 means isometric on those pairs);
    ``witness`` is the first deviating pair in sorted vertex order, if any.
    """

    pairs_checked: int
    max_deviation: float
    witness: DistancePair | None

    @property
    def isometric(self) -> bool:
        return self.max_deviation == 0


def _require_full_subcomplex(g: FlagComplex, sub: FlagComplex) -> None:
    outside = [v for v in sub.vertices if v not in g]
    if outside:
        raise ComplexError(f"subcomplex vertex {outside[0]} is not an ambient vertex")
    inside = sub._adj.keys()
    for u in sub.vertices:
        inner, outer = sub.neighbors(u), g.neighbors(u) & inside
        if inner == outer:
            continue
        # both sides are symmetric, so a fault at v < u was met at v first
        absent = inner - outer
        if absent:
            raise ComplexError(
                f"subcomplex edge {u}-{min(absent)} is absent from the ambient complex"
            )
        raise ComplexError(
            f"not a full subcomplex: ambient edge {u}-{min(outer - inner)} is missing inside"
        )


def isometric_embedding_check(x: FlagComplex, sub: FlagComplex) -> EmbeddingReport:
    """Compare the trusted vertex pair distances inside ``sub`` against the
    ambient complex.

    ``sub`` must be a full subcomplex with ambient vertex ids.  Only pairs
    with both endpoints trusted and ambient distance within the trust bound
    contribute, so each u is paired only with the members of its ambient
    ball of that radius.  On a finite complex that is every pair in one
    component; a pair in two components has no distance to compare.  The
    deviation of a pair is never negative: ``_require_full_subcomplex``
    makes every inner edge, so every inner path, an ambient one.

    A member u passes when every member v of its ambient ball has d_sub(u, v)
    = d_x(u, v), and it keeps the count of those v; each pair is counted at
    both ends, so ``pairs_checked`` is half the sum.  A member is passed
    without a scan, with the count of p, when a row of x's verified declared
    maps carries it from a passed member p at radius ``margin``
    (``isometries._carry``) and the row's map g has no membership
    flip within ``margin`` of p: no v in dom(g) whose membership in ``sub``
    or among the members differs from g(v)'s.  Proof: g maps ball(p, margin)
    onto ball(u, margin) keeping the distance from the centre, and by the
    flip guard it maps the members and the sub vertices of one ball onto
    those of the other.  A geodesic of ``sub`` from p to a member v lies in
    ball(p, d_x(p, v)), so g maps it to a path of ``sub`` of the same length
    from u to g(v): d_sub = d_x holds at u as at p.

    So a carried member deviates from no member, and a deviating pair u < v
    has both ends scanned: the scan at u, in sorted order, finds every
    deviating partner v > u, and the witness and ``max_deviation`` are
    those of the full pair loop.  A member that deviates does not pass, so
    nothing is carried from it.
    """
    region, bound = x.trusted_vertices, x.margin
    _require_full_subcomplex(x, sub)
    members = region.intersection(sub.vertices)
    counts: dict[int, int] = {}
    passed: set[int] = set()
    max_dev = 0.0
    witness: DistancePair | None = None
    table = lambda: _flip_guarded_rows(x, sub, members)
    for u, p in _carry(x, sorted(members), bound, table, passed):
        if p is not None:
            counts[u] = counts[p]
            passed.add(u)
            continue
        amb = x.oracle.ball(u, bound)
        inner = sub.oracle.ball(u, bound)
        near = [v for v, d in amb.items() if d <= bound and v in members and v != u]
        counts[u] = len(near)
        deviating = sorted(v for v in near if inner.get(v) != amb[v])
        if not deviating:
            passed.add(u)
        for v in deviating:
            if v < u:
                continue
            d_sub = sub.oracle.distance(u, v, bound)
            dev = d_sub - amb[v]
            if witness is None:
                witness = DistancePair(u, v, d_sub, amb[v])
            if dev > max_dev:
                max_dev = dev
    return EmbeddingReport(sum(counts.values()) // 2, max_dev, witness)


def _flip_guarded_rows(x: FlagComplex, sub: FlagComplex, members: set[int]) -> list:
    """The rows of ``isometries._transport_table(x)`` with each row's
    ``off_im`` measured from the images g(v) of the membership flips v of
    its map g as well as from the vertices outside im(g), by one
    multi-source BFS to ``margin``.  The carry rule then also asks that no
    image of a flip lie within margin of u = g(p), which holds exactly when
    no flip lies within margin of p: g maps ball(p, margin) onto
    ball(u, margin), and g^-1 maps it back."""
    # 2 for a member, 1 for an untrusted vertex of sub, none elsewhere
    side = dict.fromkeys(sub.vertices, 1)
    side.update(dict.fromkeys(members, 2))
    out = []
    for row in _transport_table(x):
        back = row.back
        fenced = [u for u in x.vertices if u not in back or side.get(u) != side.get(back[u])]
        out.append(row._replace(off_im=x.oracle._bfs(fenced, x.margin)))
    return out


def wheel_domination_in_min(x: FlagComplex, min_complex: FlagComplex) -> Verdict:
    """Look for a full 5-cycle in the link of a simplex of the minimal
    displacement set, and report how the set's extended 5-wheels are
    dominated by ambient vertices.

    Yes means no link inside the set has a full 5-cycle; other lengths are
    not looked at, so this is not local 5-largeness (full 4-cycles pass).
    A No names the first vertex whose link has one (vertex links decide).
    The detail lists every extended 5-wheel of the set together with its
    least ambient dominating vertex (a vertex adjacent to all seven wheel
    vertices), or None.
    """
    _require_full_subcomplex(x, min_complex)
    wheels = []
    for w in find_extended_5_wheels(min_complex):
        dom = sorted(x.common_neighbors(w.all_vertices()))
        wheels.append({"wheel": w, "dominator": dom[0] if dom else None})
    hit = first_link_cycle(min_complex, 5, min_len=5)
    if hit is not None:
        return no(
            witness=hit,
            reason="a link inside the set carries a full 5-cycle",
            wheels=wheels,
        )
    return yes(wheels=wheels, wheel_count=len(wheels))


# candidate geodesics invariant_geodesic_search tries before it gives up
GEODESIC_CAP = 10_000


def invariant_geodesic_search(x: FlagComplex, h: Automorphism, power: int = 1) -> Verdict:
    """Look for an h^power-invariant geodesic through the least vertex of
    least displacement under g = h^power.

    Candidates are chains built from each geodesic from that vertex to its
    image under g, enumerated in lexicographic order.  A chain passes if
    every trusted index pair sits at distance equal to its index gap.  No
    passing chain means unknown: the window may simply be too small.  At
    most ``GEODESIC_CAP`` candidates are tried.
    """
    g_map = h.power(power) if power != 1 else h
    start = moving_profile(x, g_map).min_vertices[0]
    tried = 0
    for beta in x.oracle.geodesics(start, g_map(start)):
        if tried == GEODESIC_CAP:
            # a further candidate exists that the cap leaves untried
            return unknown(reason="geodesic candidate cap reached", candidates_tried=tried)
        tried += 1
        chain = orbit_path(x, g_map, start, beta)
        verdict = verify_local_geodesic(x, chain, gap=None)
        if verdict.is_yes:
            return yes(
                witness=chain,
                segment=list(beta),
                candidates_tried=tried,
                pairs=verdict.detail["pairs"],
            )
    return unknown(
        reason="no invariant geodesic found in the trusted region", candidates_tried=tried
    )


@dataclass(frozen=True)
class ThickGeodesicWitness:
    """A claimed k-thick interval: ``vertices[i]`` at index ``start + i``,
    with adjacency exactly between indices at gap 1..k, so that ambient
    distance between indices a and b is ceil(|a - b| / k)."""

    k: int
    start: int
    vertices: tuple[int, ...]


def verify_thick_geodesic(x: FlagComplex, w: ThickGeodesicWitness) -> Verdict:
    """Re-validate a thick interval claim from its definition.

    Checks injectivity, the adjacency pattern (edges exactly at index gaps
    1..k), and that distances at index gaps that are multiples of k equal
    the gap divided by k.  Distance checks are restricted to trusted pairs
    within the trust bound.
    """
    region, bound = x.trusted_vertices, x.margin
    if w.k < 1:
        return no(reason="thickness must be at least 1")
    verts = w.vertices
    if len(set(verts)) != len(verts):
        dup = next(v for v in verts if verts.count(v) > 1)
        return no(reason=f"vertex {dup} repeats; the map on indices is not injective")
    pairs = 0
    for i, u in enumerate(verts):
        a = w.start + i
        for gap, v in enumerate(verts[i + 1 :], 1):
            want_edge = gap <= w.k
            if x.adjacent(u, v) != want_edge:
                reason = (
                    "missing edge inside the thickness range"
                    if want_edge
                    else "unexpected edge beyond the thickness range"
                )
                return no(
                    witness=ThickAdjacencyViolation(a, a + gap, u, v, w.k, not want_edge),
                    reason=reason,
                )
            if gap % w.k == 0:
                expected = gap // w.k
                if expected > bound or u not in region or v not in region:
                    continue
                d = x.oracle.distance(u, v, bound)
                pairs += 1
                if d != expected:
                    return no(
                        witness=ChainGapViolation(a, a + gap, u, v, expected, d),
                        reason="distance off at a multiple of the thickness",
                    )
    if pairs == 0:
        return unknown(reason="no trusted distance pairs to check")
    return yes(pairs=pairs, k=w.k)


def fit_thickness(x: FlagComplex, chain: PathChain) -> int | None:
    """Largest k for which the chain could be a k-thick interval: one less
    than the smallest index gap realised by a non-adjacent vertex pair.

    None when the chain repeats a vertex (no injective reading exists).
    Falls back to the full chain span when every pair is adjacent.
    """
    verts = chain.vertices
    if len(set(verts)) != len(verts):
        return None
    best = len(verts)  # sentinel: one past the largest possible gap
    for i, u in enumerate(verts):
        for gap in range(1, min(best, len(verts) - i)):
            if not x.adjacent(u, verts[i + gap]):
                best = gap
                break
    k = best - 1
    return k if k >= 1 else None


def dichotomy_report(x: FlagComplex, h: Automorphism) -> Verdict:
    """Classify h and produce the matching structural witness.

    Elliptic maps yield their invariant simplex as witness, independently
    re-checked: no if the check fails.  Otherwise the canonical orbit chain
    is fitted with the largest plausible thickness and re-validated as a
    thick interval: the verdict takes that re-validation's answer and
    reason, the thick witness, and the thickness and chain range as detail.
    """
    summary = classify(x, h).detail
    head = dict(kind=summary["kind"], translation_length=summary["translation_length"])
    if summary["kind"] == "elliptic":
        simplex = summary["invariant_simplex"]
        answer = yes if is_invariant_simplex(x, h, simplex) else no
        return answer(witness=simplex, **head)
    chain = orbit_path(x, h)
    k = fit_thickness(x, chain)
    if k is None:
        witness = None
        verdict = no(reason="orbit chain revisits a vertex; no thick interval reading")
    else:
        witness = ThickGeodesicWitness(k, chain.start, chain.vertices)
        verdict = verify_thick_geodesic(x, witness)
    detail = dict(head, thickness=k, chain_start=chain.start, chain_stop=chain.stop)
    return Verdict(verdict.answer, witness, verdict.reason, detail)
