"""Semi-decision oracle for simple connectivity of finite flag complexes.

The oracle runs four steps in order.  Disconnection first: a complex with
two components is No.  Then the strong-collapse core: dominated vertices
are removed one at a time, and a core of one vertex means the complex is
contractible, so Yes.  Otherwise the negative certificate: non-vanishing
first integral homology, computed exactly on the whole complex.  The rank
of d1 is V minus the number of components, so d1 needs no matrix; torsion
comes from d2 alone.  The boundary matrix d2 is held sparse and reduced by
pivots on entries of +-1, each an invariant factor of 1; only the residual
goes through a dense Smith normal form.  Only when first homology vanishes
does the oracle look for the last positive certificate: one greedy pass of
elementary collapses on the whole complex, the least free face first, that
ends in a single vertex (collapsible implies contractible implies simply
connected).  A complex that collapses has trivial homology, so neither Yes
could have contradicted a No from homology.  When the pass stalls or its
budget runs out the oracle reports unknown; it never guesses.
"""

from __future__ import annotations

import heapq

from .complexes import ComplexError, FlagComplex, once
from .verdict import Verdict, no, unknown, yes

DEFAULT_BUDGET = 100_000

# Refuse to materialize absurdly large clique sets.
_SIMPLEX_CAP = 500_000


def all_simplices(x: FlagComplex) -> list[frozenset[int]] | None:
    """Every non-empty clique, or None when the count exceeds ``_SIMPLEX_CAP``.

    A clique of k vertices has 2^k - 1 non-empty faces, so the walk stops at
    the first clique of ``big`` vertices, the least k with 2^k - 1 above the
    cap: the count would exceed it.  The walk goes depth first, so on a
    complete graph it stops after ``big`` cliques, not after the cap.
    """
    big = (_SIMPLEX_CAP + 1).bit_length()
    out: list[frozenset[int]] = []
    for c in x.cliques():
        out.append(frozenset(c))
        if len(out) > _SIMPLEX_CAP or len(c) >= big:
            return None
    return out


def collapse_to_point(x: FlagComplex, budget: int = DEFAULT_BUDGET) -> Verdict:
    """Collapse the complex toward one vertex in one greedy pass.

    A simplex is free when it has exactly one coface present and that coface
    is maximal; each step removes the least free simplex, by (size, sorted
    vertices), together with its coface.  Yes means the pass reached a
    vertex.  No means no simplex is free at the start, so no collapse can
    begin.  Unknown means the pass stalled later, where another order might
    still succeed, or the budget of steps ran out.  Every present simplex
    with one coface is on the heap: counts only fall, a simplex is queued at
    the start or when its count falls to 1, and one popped with count 1 is
    collapsed.
    """
    if x.n_vertices == 0:
        raise ComplexError("empty complex")
    simplices = all_simplices(x)
    if simplices is None:
        return unknown(reason="too many simplices to materialize")
    if len(simplices) == 1:
        return yes(reason="already a single vertex", steps=0)
    present = set(simplices)
    cofaces = dict.fromkeys(simplices, 0)
    for s in simplices:
        if len(s) >= 2:
            for v in s:
                cofaces[s - {v}] += 1
    # candidate free simplices by (size, sorted vertices), checked when popped
    heap = [(len(s), tuple(sorted(s))) for s in simplices if cofaces[s] == 1]
    heapq.heapify(heap)

    def push(s: frozenset[int]) -> None:
        if s in present:
            heapq.heappush(heap, (len(s), tuple(sorted(s))))

    steps = 0
    while heap:
        s = frozenset(heapq.heappop(heap)[1])
        if s not in present or cofaces[s] != 1:
            continue
        # t is maximal: a coface t | {w} would give s a second one, s | {w}
        t = next(s | {v} for v in x.common_neighbors(s) if s | {v} in present)
        if steps >= budget:
            return unknown(reason="collapse budget exhausted")
        present -= {s, t}
        steps += 1
        if len(present) == 1:
            return yes(reason="collapsed to a point", steps=steps)
        for r in (s, t):
            for f in (r - {v} for v in r if len(r) >= 2):
                cofaces[f] -= 1
                if cofaces[f] == 1:
                    push(f)
    if steps == 0:
        return no(reason="no collapse sequence reaches a point")
    return unknown(reason="greedy collapse stalled")


def _smith_diagonal(rows: list[list[int]]) -> list[int]:
    """Non-zero diagonal of the Smith normal form of an integer matrix.

    Each round moves the least non-zero |entry| to the corner and clears its
    row and column by division with remainder.  A remainder that survives is
    smaller than the pivot, and so is one left by folding in a row that the
    pivot does not divide; either way the round starts again.  Otherwise
    |pivot| is an invariant factor and the first row and column are dropped.
    """
    m = [row[:] for row in rows]
    out: list[int] = []
    while m and m[0]:
        entries = [(abs(a), i, j) for i, row in enumerate(m) for j, a in enumerate(row) if a]
        if not entries:
            break
        _, pr, pc = min(entries)
        m[0], m[pr] = m[pr], m[0]
        for row in m:
            row[0], row[pc] = row[pc], row[0]
        top = m[0]
        pivot = top[0]
        for row in m[1:]:
            q = row[0] // pivot
            for j, a in enumerate(top):
                row[j] -= q * a
        for j in range(1, len(top)):
            q = top[j] // pivot
            for row in m:
                row[j] -= q * row[0]
        if any(row[0] for row in m[1:]) or any(top[1:]):
            continue
        offender = next((row for row in m[1:] if any(a % pivot for a in row[1:])), None)
        if offender is not None:
            for j, a in enumerate(offender):
                top[j] += a
            continue
        out.append(abs(pivot))
        m = [row[1:] for row in m[1:]]
    return sorted(out)


def _unit_pivots(n_rows: int, columns: list[dict[int, int]]) -> tuple[int, list[list[int]]]:
    """Pivot a sparse integer matrix on entries of +-1 while any remain.

    ``columns`` holds each column's non-zero entries {row: value} and is
    consumed.  Each pivot is a unimodular row and column operation that splits
    off one invariant factor 1, so the invariant factors of the matrix are that
    many 1s plus those of the residual.  Returns (pivot count, residual), the
    residual being the dense matrix of every row and column never pivoted,
    zero ones included.  The shortest row goes first, to keep fill-in small.
    """
    # row index: the columns of each row; rows are short, and a list takes
    # a third of the memory of a set
    rows: list[list[int]] = [[] for _ in range(n_rows)]
    for j, col in enumerate(columns):
        for i in col:
            rows[i].append(j)
    heap = [(len(r), i) for i, r in enumerate(rows) if r]
    heapq.heapify(heap)
    live_rows = bytearray(b"\x01") * n_rows
    live_cols = bytearray(b"\x01") * len(columns)
    pivots = 0
    while heap:
        size, i = heapq.heappop(heap)
        if not live_rows[i] or size != len(rows[i]):
            continue
        units = [j for j in rows[i] if abs(columns[j][i]) == 1]
        if not units:
            continue
        j = min(units, key=lambda c: (len(columns[c]), c))
        sign = columns[j].pop(i)  # +-1 is its own inverse
        pivot_row = {c: columns[c].pop(i) for c in rows[i] if c != j}
        for r, a in columns[j].items():
            factor = a * sign
            row_r = rows[r]
            row_r.remove(j)
            for c, b in pivot_row.items():
                col = columns[c]
                old = col.get(r, 0)
                value = old - factor * b
                if value:
                    col[r] = value
                    if not old:
                        row_r.append(c)
                else:
                    del col[r]
                    row_r.remove(c)
            heapq.heappush(heap, (len(row_r), r))
        columns[j] = {}
        rows[i] = []
        live_rows[i] = live_cols[j] = 0
        pivots += 1
    residual_cols = [columns[j] for j in range(len(columns)) if live_cols[j]]
    return pivots, [[col.get(i, 0) for col in residual_cols] for i in range(n_rows) if live_rows[i]]


def _boundary_columns(x: FlagComplex) -> list[dict[int, int]]:
    """d2 as sparse columns, one per triangle (a, b, c): {edge: +-1}, the
    edges numbered in the order of ``x.edges()``."""
    eidx = {e: i for i, e in enumerate(x.edges())}
    return [
        {eidx[(b, c)]: 1, eidx[(a, c)]: -1, eidx[(a, b)]: 1}
        for a, b, c in (t for t in x.cliques(max_size=3) if len(t) == 3)
    ]


def first_homology(x: FlagComplex) -> tuple[int, list[int]]:
    """(free rank, torsion coefficients > 1) of first integral homology.

    Exact on disconnected complexes too.  rank d1 is V minus the number of
    components; d2 is reduced by unit pivots, and only the residual goes
    through the Smith normal form.
    """
    n_edges = x.n_edges
    rank1 = x.n_vertices - len(x.connected_components())
    units, residual = _unit_pivots(n_edges, _boundary_columns(x))
    diag = _smith_diagonal(residual)
    torsion = [d for d in diag if d > 1]
    return n_edges - rank1 - units - len(diag), torsion


@once
def disconnection(x: FlagComplex) -> Verdict | None:
    """The No for a disconnected complex, witnessed by the least vertices of
    its first two components in sorted order; None when it is connected.
    Decided once per complex; the empty complex is refused every time."""
    if x.n_vertices == 0:
        raise ComplexError("empty complex")
    comps = x.connected_components()
    if len(comps) < 2:
        return None
    return no(witness=tuple(sorted(min(c) for c in comps)[:2]), reason="disconnected")


def strong_core(x: FlagComplex) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(core, removed): the sorted vertices left after removing dominated
    vertices while any is left, and the removed ones in removal order.

    A vertex v is dominated when N[v] ⊆ N[u] for a neighbour u; removing it
    is a strong collapse, so the full subcomplex on what is left is a
    deformation retract of x, and a core of one vertex means x is
    contractible (Barmak–Minian, "Strong homotopy types, nerves and
    collapses", 2012).  Removing a vertex changes only the neighbourhoods
    of its neighbours, so only they can become dominated: a worklist of
    them suffices.
    """
    adj = {v: set(ns) for v, ns in x._adj.items()}
    removed: list[int] = []
    work = list(x.vertices)
    queued = set(work)
    while work:
        v = work.pop()
        queued.discard(v)
        nv = adj[v]
        # N[v] ⊆ N[u] for a neighbour u means N(v) - N(u) = {u}
        if not any(len(adj[u]) >= len(nv) and len(nv - adj[u]) == 1 for u in nv):
            continue
        del adj[v]
        removed.append(v)
        for w in nv:
            adj[w].discard(v)
            if w not in queued:
                queued.add(w)
                work.append(w)
    return tuple(sorted(adj)), tuple(removed)


@once
def simple_connectivity_oracle(x: FlagComplex, budget: int = DEFAULT_BUDGET) -> Verdict:
    """Yes / No / Unknown for simple connectivity.

    No comes from disconnectedness or non-trivial first homology; Yes from
    a one-vertex strong-collapse core, tried after disconnection on more
    than one vertex, or from the collapse pass, tried only when first
    homology vanishes; Unknown otherwise, with the reason the collapse pass
    gave, or that a budget <= 0 skipped both positive certificates.  Homology and the collapse
    pass run on the whole complex, so every No and every Unknown is the
    same as without the core, which can only turn an Unknown into Yes.
    """
    split = disconnection(x)
    if split is not None:
        return split
    # a single vertex keeps the collapse pass's "already a single vertex"
    if budget > 0 and x.n_vertices > 1:
        core, removed = strong_core(x)
        if len(core) == 1:
            return yes(reason="collapsed to a point", strong_collapses=len(removed))
    betti1, torsion = first_homology(x)
    if betti1 > 0 or torsion:
        return no(
            witness={"betti1": betti1, "torsion": torsion},
            reason="first integral homology is non-trivial",
        )
    if budget <= 0:
        return unknown(reason=f"budget {budget} skips the collapse pass; first homology vanishes")
    collapsed = collapse_to_point(x, budget)
    if collapsed.is_yes:
        return yes(reason=collapsed.reason, **collapsed.detail)
    return unknown(reason=f"{collapsed.reason}; first homology vanishes")
