"""Plain-text input format for complexes and vertex maps.

Grammar (one directive per line, ``#`` starts a comment, blank lines are
skipped)::

    complex NAME
    mode flag | facets
    vertices N            # declares vertex ids 0..N-1
    edge U V              # flag mode: an edge of the 1-skeleton
    facet V1 V2 ... VK    # facets mode: a maximal simplex
    map U V               # optional: a vertex map entry, U -> V

Flag mode describes a flag complex by its 1-skeleton.  Facets mode describes
an arbitrary simplicial complex by its maximal simplices, which is what the
flagness check consumes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import ComplexError, FacetComplex, FlagComplex
from .isometries import Automorphism


class ParseError(ValueError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass
class ParsedInput:
    """A parsed file: the complex, its declared mode, and an optional map."""

    name: str
    mode: str
    complex: FlagComplex
    facet_complex: FacetComplex | None
    automorphism: Automorphism | None


def _ints(parts: list[str], line_no: int) -> list[int]:
    out = []
    for p in parts:
        try:
            out.append(int(p))
        except ValueError:
            raise ParseError(line_no, f"expected an integer, got {p!r}") from None
    return out


def parse_complex_text(text: str) -> ParsedInput:
    name: str | None = None
    mode: str | None = None
    n_vertices: int | None = None
    edges: list[tuple[int, int]] = []
    facets: list[tuple[int, ...]] = []
    mapping: dict[int, int] = {}

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        keyword, args = parts[0], parts[1:]
        if keyword == "complex":
            if len(args) != 1:
                raise ParseError(line_no, "complex takes exactly one name")
            if name is not None:
                raise ParseError(line_no, "duplicate complex header")
            name = args[0]
        elif keyword == "mode":
            if args not in (["flag"], ["facets"]):
                raise ParseError(line_no, "mode is 'flag' or 'facets'")
            if mode is not None:
                raise ParseError(line_no, "duplicate mode line")
            mode = args[0]
        elif keyword == "vertices":
            if len(args) != 1:
                raise ParseError(line_no, "vertices takes exactly one count")
            if n_vertices is not None:
                raise ParseError(line_no, "duplicate vertices line")
            (n_vertices,) = _ints(args, line_no)
            if n_vertices < 0:
                raise ParseError(line_no, "vertex count cannot be negative")
        elif keyword == "edge":
            if len(args) != 2:
                raise ParseError(line_no, "edge takes exactly two vertex ids")
            u, v = _ints(args, line_no)
            edges.append((u, v))
        elif keyword == "facet":
            if not args:
                raise ParseError(line_no, "facet needs at least one vertex id")
            facets.append(tuple(_ints(args, line_no)))
        elif keyword == "map":
            if len(args) != 2:
                raise ParseError(line_no, "map takes exactly two vertex ids")
            u, v = _ints(args, line_no)
            if u in mapping:
                raise ParseError(line_no, f"vertex {u} already has an image")
            mapping[u] = v
        else:
            raise ParseError(line_no, f"unknown directive {keyword!r}")

    if name is None:
        raise ParseError(0, "missing 'complex NAME' header")
    if mode is None:
        raise ParseError(0, "missing 'mode' line")
    if n_vertices is None:
        raise ParseError(0, "missing 'vertices' line")

    def check_bounds(v: int) -> int:
        if not 0 <= v < n_vertices:
            raise ComplexError(f"vertex id {v} outside 0..{n_vertices - 1}")
        return v

    try:
        if mode == "flag":
            if facets:
                raise ComplexError("facet lines are not allowed in flag mode")
            for u, v in edges:
                check_bounds(u)
                check_bounds(v)
            g = FlagComplex(range(n_vertices), edges)
            fc = None
        else:
            if edges:
                raise ComplexError("edge lines are not allowed in facets mode")
            if not facets:
                raise ComplexError("facets mode needs at least one facet line")
            for f in facets:
                for v in f:
                    check_bounds(v)
            declared = {v for f in facets for v in f}
            missing = sorted(set(range(n_vertices)) - declared)
            for v in missing:
                facets.append((v,))  # isolated vertices are their own facets
            fc = FacetComplex(facets)
            g = fc.one_skeleton()
        auto = None
        if mapping:
            for u, v in mapping.items():
                check_bounds(u)
                check_bounds(v)
            auto = Automorphism(mapping, name=f"{name}_map")
    except ComplexError as exc:
        raise ParseError(0, str(exc)) from None

    return ParsedInput(name, mode, g, fc, auto)


def parse_complex_file(path: str) -> ParsedInput:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        line_no = exc.object.count(b"\n", 0, exc.start) + 1
        raise ParseError(line_no, f"not UTF-8 text (byte {exc.object[exc.start]:#04x})") from None
    return parse_complex_text(text)


def format_complex(
    x: FlagComplex,
    name: str,
    automorphism: Automorphism | None = None,
    header_comments: tuple[str, ...] = (),
) -> str:
    """Serialize a flag complex in flag mode.  Vertex ids must be dense
    0..n-1 (every generator in this package produces dense ids)."""
    verts = x.vertices
    if list(verts) != list(range(len(verts))):
        raise ComplexError("serialization needs dense vertex ids 0..n-1")
    lines = [f"# {c}" for c in header_comments]
    lines.append(f"complex {name}")
    lines.append("mode flag")
    lines.append(f"vertices {len(verts)}")
    for u, v in x.edges():
        lines.append(f"edge {u} {v}")
    if automorphism is not None:
        for u in sorted(automorphism.mapping):
            lines.append(f"map {u} {automorphism.mapping[u]}")
    return "\n".join(lines) + "\n"
