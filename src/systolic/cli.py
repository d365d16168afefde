"""Command line interface.

Subcommands::

    systolic check    --gen SPEC | --input FILE --checks LIST [options]
    systolic isometry --gen SPEC | --input FILE --auto NAME --do LIST [options]
    systolic theorems --gen SPEC | --input FILE --auto NAME --do LIST [options]
    systolic generate --gen SPEC [--auto NAME] [--out FILE]

Generator specs are ``name`` or ``name:key=value,key=value``, for example
``lattice:radius=10,margin=4`` or ``thick_line:k=2,n=12``.  Exit status is 0
when everything ran, 1 when a check named in --require answered no, and 2 on
usage or input errors.  Output is deterministic for fixed inputs and options,
except for wall_ms timing fields.

check, isometry and theorems each look their tokens up in one ordered table
and share one command loop; one generator table declares each generator's
parameters, its build and the maps that ``--auto`` may name on its target.
The whole command line is checked before any target is built or any input
file read: a spec's parameters, the token lists, ``--require`` and the
``--auto`` name.
Every entry names the package function it calls inside its body, so wrappers
installed on module attributes (as a tracer does) see every call.
"""

from __future__ import annotations

import argparse
import re
import sys
import time

from . import conditions, generators, isometries, mindisp
from .collapse import DEFAULT_BUDGET
from .complexes import ComplexError, FacetComplex, WindowView, is_flag
from .io import ParseError, format_complex, parse_complex_file
from .isometries import Automorphism
from .report import CheckRecord, render_json, render_text
from .verdict import Verdict, no, yes


class CliError(Exception):
    """Usage-level error: bad spec, unknown token, missing input."""


# ---------------------------------------------------------------------------
# generator specs


def parse_gen_spec(spec: str) -> tuple[str, dict[str, str]]:
    name, _, rest = spec.partition(":")
    name = name.strip()
    if not name:
        raise CliError(f"empty generator name in {spec!r}")
    params: dict[str, str] = {}
    if rest:
        for item in rest.split(","):
            key, eq, value = item.partition("=")
            if not eq or not key.strip() or not value.strip():
                raise CliError(f"bad generator parameter {item!r} in {spec!r}")
            if key.strip() in params:
                raise CliError(f"duplicate generator parameter {key.strip()!r}")
            params[key.strip()] = value.strip()
    return name, params


def _read(key: str, value: str, kind: type):
    """``value`` read as ``kind``: int, float or bool."""
    if kind is bool:
        if value.lower() in ("1", "true", "yes"):
            return True
        if value.lower() in ("0", "false", "no"):
            return False
        raise CliError(f"parameter {key} must be a boolean, got {value!r}")
    try:
        return kind(value)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise CliError(f"parameter {key} must be {noun}, got {value!r}") from None


class _LatticeMaps(dict):
    """The glide, and the translation ``t<n>`` for every non-zero integer n."""

    def __missing__(self, name: str):
        steps = int(name[1:]) if re.fullmatch(r"t-?\d+", name) else 0
        if not steps:
            raise KeyError(name)
        return lambda w: generators.lattice_translation(w, steps)


# generator name -> (parameters, build, maps).  A parameter maps to its
# default, or to its type (int, float or bool) when the spec must give it.
# build(**params) returns (target, name); maps(**params) builds nothing and
# returns the table from each --auto name to f(target) -> Automorphism.  The
# spec and the --auto name are both checked before build runs.
GENERATORS = {
    "lattice": ({"radius": 10, "margin": 4}, lambda radius, margin: (
        generators.triangular_lattice_window(radius, margin), f"lattice_r{radius}_m{margin}"
    ), lambda radius, margin: _LatticeMaps(glide=generators.lattice_glide)),
    "thick_line": ({"k": int, "n": int}, lambda k, n: (
        generators.thick_line(k, n)[0], f"thick_line_k{k}_n{n}"
    ), lambda k, n: {"shift": lambda x: generators.line_shift(x.n_vertices)}),
    "hex_torus": ({"p": int, "q": int}, lambda p, q: (
        generators.hex_torus(p, q), f"hex_torus_{p}x{q}"
    ), lambda p, q: {"translate": lambda x: generators.torus_translation(x, p, q)}),
    "octahedron": ({}, lambda: (generators.octahedron(), "octahedron"),
                   lambda: {"antipodal": lambda x: generators.octahedron_antipodal()}),
    "icosahedron": ({}, lambda: (generators.icosahedron(), "icosahedron"), lambda **_: {}),
    "wheel": ({"k": int}, lambda k: (generators.wheel(k), f"wheel_{k}"), lambda **_: {}),
    "extended_wheel5": ({"dominated": False}, lambda dominated: (
        generators.extended_wheel5(dominated),
        "extended_wheel5_" + ("dominated" if dominated else "bare"),
    ), lambda **_: {}),
    "cycle": ({"n": int}, lambda n: (generators.cycle(n), f"cycle_{n}"),
              lambda n: {"rotate": lambda x: generators.cycle_rotation(n)}),
    "complete": ({"n": int}, lambda n: (generators.complete(n), f"complete_{n}"), lambda **_: {}),
    "cone_over_cycle": ({"n": int}, lambda n: (
        generators.cone(generators.cycle(n)), f"cone_over_cycle_{n}"
    ), lambda n: {"rotate": lambda x: x.symmetries[0](x)}),
    "random": ({"n": int, "p": float, "seed": int}, lambda n, p, seed: (
        generators.random_flag_complex(n, p, seed), f"random_n{n}_p{p}_s{seed}"
    ), lambda **_: {}),
}


def build_generated(spec: str, auto: str | None = None) -> tuple:
    """(target, name, make) from a generator spec string; make builds the map
    named ``auto`` from the target, None without ``auto``.  The spec, then the
    map name, are checked before anything is built."""
    name, params = parse_gen_spec(spec)
    if name not in GENERATORS:
        raise CliError(f"unknown generator {name!r}")
    declared, build, maps = GENERATORS[name]
    unknown = params.keys() - declared.keys()
    if unknown:
        raise CliError(f"generator {name!r} takes no parameter {min(unknown)!r}")
    values = {}
    for key, default in declared.items():
        if key in params:
            kind = default if isinstance(default, type) else type(default)
            values[key] = _read(key, params[key], kind)
        elif isinstance(default, type):
            raise CliError(f"generator needs parameter {key}=...")
        else:
            values[key] = default
    make = None if auto is None else resolve_auto(maps(**values), auto)
    return (*build(**values), make)


def _file_auto(x, h: Automorphism | None) -> Automorphism:
    """The file's map, refused unless it is an automorphism where defined:
    every other operation presumes one."""
    if h is None:
        raise CliError("the input file declares no map lines")
    verdict = isometries.validate_automorphism(x, h)
    if verdict.is_no:
        w = verdict.witness
        kind = w.kind.replace("_", " ")
        raise CliError(f"the file map is not an automorphism: {kind} at vertices {w.u}, {w.v}")
    return h


def resolve_auto(maps: dict, auto_name: str):
    """f(target) -> Automorphism for the map named ``auto_name``:
    ``identity`` on every target, else one of ``maps``.  Builds nothing."""
    if auto_name == "identity":
        return Automorphism.identity
    try:
        return maps[auto_name]
    except KeyError:
        raise CliError(f"no automorphism named {auto_name!r} for this target") from None


def load_target(args) -> tuple:
    """(target, name, make, facets) from --gen or --input: make builds the
    --auto map from the target (None without --auto), and facets is the
    FacetComplex of a facets-mode input file, else None.  The map name is
    checked before a target is built or a file read."""
    if args.gen and args.input:
        raise CliError("give either --gen or --input, not both")
    auto = getattr(args, "auto", None)
    if args.gen:
        return (*build_generated(args.gen, auto), None)
    if args.input:
        # the file map reads ``parsed`` when it is built, after the read
        maps = {"file": lambda x: _file_auto(x, parsed.automorphism)}
        make = None if auto is None else resolve_auto(maps, auto)
        parsed = parse_complex_file(args.input)
        return parsed.complex, parsed.name, make, parsed.facet_complex
    raise CliError("an input is required: --gen SPEC or --input FILE")


def _flag(fc: FacetComplex | None) -> Verdict:
    """Whether the input is flag: asked of a facets input, true by
    construction of any other."""
    if fc is None:
        return yes(reason="defined by its 1-skeleton; flag by construction")
    return is_flag(fc)


def require_flag(flag: Verdict) -> None:
    """Refuse input that is not flag: the checks would answer for its flag
    completion, a different complex."""
    if flag.is_no:
        clique = " ".join(map(str, flag.witness))
        raise CliError(f"the facets do not form a flag complex: clique {clique} spans no simplex")


# ---------------------------------------------------------------------------
# check, isometry and theorems
#
# Each subcommand has one table of token -> f(x, subject, args), in the order
# that ``all`` runs.  x is the target; the subject is the flag verdict of the
# input for check and the automorphism for isometry and theorems.


def _full_cycles(x, flag: Verdict, args) -> Verdict:
    cycles = conditions.enumerate_full_cycles(x, max_len=args.max_len)
    return yes(
        witness=cycles[:50],
        count=len(cycles),
        max_len=args.max_len,
        truncated=len(cycles) > 50,
    )


CHECKS = {
    "flag": lambda x, flag, args: flag,
    "full-cycles": _full_cycles,
    "systole": lambda x, flag, args: yes(
        value=conditions.systole(x, max_len=args.max_len), search_bound=args.max_len
    ),
    "k-large": lambda x, flag, args: conditions.is_k_large(x, args.k),
    "locally-k-large": lambda x, flag, args: conditions.is_locally_k_large(x, args.k),
    "tc": lambda x, flag, args: conditions.triangle_condition(x),
    "qc": lambda x, flag, args: conditions.quadrangle_condition(x),
    "weakly-modular": lambda x, flag, args: conditions.is_weakly_modular(x),
    "w5hat": lambda x, flag, args: conditions.extended_wheel_condition(x),
    "sd": lambda x, flag, args: conditions.sphere_domination_everywhere(x),
    "weakly-systolic": lambda x, flag, args: conditions.is_weakly_systolic(
        x, mode=args.mode, oracle_budget=args.oracle_budget
    ),
    "systolic": lambda x, flag, args: conditions.is_systolic(
        x, oracle_budget=args.oracle_budget
    ),
}


def _displacement(x, h: Automorphism, args) -> Verdict:
    prof = isometries.displacement_profile(x, h)
    return yes(
        translation_length=prof.translation_length,
        min_vertices=list(prof.min_vertices[:25]),
        min_count=len(prof.min_vertices),
        values_computed=len(prof.values),
        skipped=prof.skipped,
    )


def _min_set(x, h: Automorphism, args) -> Verdict:
    sub = isometries.min_set(x, h)
    verts = list(sub.vertices)
    return yes(
        vertices=verts[:200],
        count=len(verts),
        edges=sub.n_edges,
        truncated=len(verts) > 200,
    )


def _chain(x, h: Automorphism, args) -> Verdict:
    chain = isometries.orbit_path(x, h)
    verdict = isometries.verify_local_geodesic(x, chain, gap=None)
    detail = dict(verdict.detail)
    detail.update(
        start=chain.start,
        stop=chain.stop,
        period=chain.period,
        vertices=list(chain.vertices[:100]),
        truncated=len(chain.vertices) > 100,
    )
    return Verdict(verdict.answer, verdict.witness, verdict.reason, detail)


ISOMETRY = {
    "validate": lambda x, h, args: isometries.validate_automorphism(x, h),
    "displacement": _displacement,
    "classify": lambda x, h, args: isometries.classify(x, h),
    "invariant-simplex": lambda x, h, args: isometries.find_invariant_simplex(x, h),
    "min-set": _min_set,
    "idempotence": lambda x, h, args: isometries.min_set_idempotence(x, h),
    "chain": _chain,
}


def _embedding(x, h: Automorphism, args) -> Verdict:
    sub = isometries.min_set(x, h)
    report = mindisp.isometric_embedding_check(x, sub)
    base = dict(
        pairs_checked=report.pairs_checked,
        max_deviation=report.max_deviation,
        min_vertices=sub.n_vertices,
    )
    if report.isometric:
        return yes(**base)
    return no(witness=report.witness, reason="the set is not isometrically embedded", **base)


def _min_systolic(x, h: Automorphism, args) -> Verdict:
    sub = isometries.min_set(x, h)
    verdict = conditions.is_systolic(sub, oracle_budget=args.oracle_budget)
    detail = dict(verdict.detail)
    detail["min_vertices"] = sub.n_vertices
    return Verdict(verdict.answer, verdict.witness, verdict.reason, detail)


THEOREMS = {
    "embedding": _embedding,
    "min-systolic": _min_systolic,
    "wheel-domination": lambda x, h, args: mindisp.wheel_domination_in_min(
        x, isometries.min_set(x, h)
    ),
    "invariant-geodesic": lambda x, h, args: mindisp.invariant_geodesic_search(
        x, h, power=args.power
    ),
    "dichotomy": lambda x, h, args: mindisp.dichotomy_report(x, h),
}

# subcommand -> (token table, option listing its tokens, what a token is called)
SUBCOMMANDS = {
    "check": (CHECKS, "checks", "check"),
    "isometry": (ISOMETRY, "do", "isometry operation"),
    "theorems": (THEOREMS, "do", "theorem check"),
}


def cmd_run(args) -> int:
    """The command loop of check, isometry and theorems: one record per
    token, in the order given."""
    table, option, what = SUBCOMMANDS[args.command]
    tokens = split_tokens(getattr(args, option), table, what)
    required = set(split_tokens(getattr(args, "require", None), table, what))
    missing = required - set(tokens)
    if missing:
        raise CliError(f"--require names {what}s not being run: {sorted(missing)}")
    target, name, make, facets = load_target(args)
    flag = _flag(facets)
    # a flag check alone reports non-flag input as its No
    if tokens != ["flag"]:
        require_flag(flag)
    subject, suffix = flag, ""
    if make is not None:
        subject = make(target)
        # isometry studies the power of the map; theorems hands --power to
        # invariant-geodesic only
        if args.command == "isometry" and args.power != 1:
            subject = subject.power(args.power)
        suffix = f"[{subject.name}]"
    trusted = isinstance(target, WindowView)
    records = []
    status = 0
    for token in tokens:
        t0 = time.perf_counter()
        verdict = table[token](target, subject, args)
        wall = (time.perf_counter() - t0) * 1000
        records.append(CheckRecord.from_verdict(token + suffix, name, verdict, trusted, wall))
        if token in required and verdict.is_no:
            status = 1
    render = render_json if args.format == "json" else render_text
    write(render(records, config_for(args, name)), args.out)
    return status


# ---------------------------------------------------------------------------
# generate subcommand


def cmd_generate(args) -> int:
    target, name, make, facets = load_target(args)
    require_flag(_flag(facets))
    auto = None if make is None else make(target)
    comments: tuple[str, ...] = ()
    if isinstance(target, WindowView):
        comments = (
            f"window basepoint={target.basepoint} radius={target.radius} margin={target.margin}",
            "serialized as a plain finite complex; trust metadata is informational only",
        )
    write(format_complex(target, name, automorphism=auto, header_comments=comments), args.out)
    return 0


# ---------------------------------------------------------------------------
# shared plumbing


def split_tokens(raw: str | None, allowed: dict, what: str) -> list[str]:
    if not raw:
        return []
    if raw.strip() == "all":
        return list(allowed)
    tokens = [t.strip() for t in raw.split(",") if t.strip()]
    if not tokens:
        raise CliError(f"empty {what} list")
    for t in tokens:
        if t not in allowed:
            raise CliError(f"unknown {what} {t!r}; expected one of {', '.join(allowed)}")
    return list(dict.fromkeys(tokens))


def config_for(args, name: str) -> dict:
    cfg = {"target": name, "command": args.command}
    for key in ("mode", "k", "max_len", "oracle_budget", "auto", "power"):
        if hasattr(args, key):
            cfg[key] = getattr(args, key)
    return cfg


def write(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _add_common(
    p: argparse.ArgumentParser, report: bool = True, with_require: bool = False
) -> None:
    p.add_argument("--gen", help="generator spec, e.g. lattice:radius=10,margin=4")
    p.add_argument("--input", help="path to a complex file")
    p.add_argument("--out", help="write the output here instead of stdout")
    if report:
        p.add_argument("--format", choices=("text", "json"), default="text")
    if with_require:
        p.add_argument("--require", help="comma list of checks that must not answer no")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="systolic",
        description="Checks for systolic-type curvature conditions and minimal displacement sets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="run local/global condition checks")
    _add_common(p_check, with_require=True)
    p_check.add_argument("--checks", required=True, help=f"comma list from: {', '.join(CHECKS)}")
    p_check.add_argument(
        "--mode", choices=conditions.MODES, default="graph", help="weak systolicity route"
    )
    p_check.add_argument("--k", type=int, default=6, help="largeness parameter")
    p_check.add_argument(
        "--max-len", type=int, default=8, dest="max_len", help="full cycle search bound"
    )
    p_check.set_defaults(func=cmd_run)

    p_iso = sub.add_parser("isometry", help="displacement analysis of one automorphism")
    _add_common(p_iso)
    p_iso.add_argument("--auto", required=True, help="automorphism name (t1, glide, shift, ...)")
    p_iso.add_argument("--power", type=int, default=1, help="replace the map by this power")
    p_iso.add_argument("--do", required=True, help=f"comma list from: {', '.join(ISOMETRY)}")
    p_iso.set_defaults(func=cmd_run)

    p_thm = sub.add_parser("theorems", help="structure of the minimal displacement set")
    _add_common(p_thm, with_require=True)
    p_thm.add_argument("--auto", required=True)
    p_thm.add_argument("--power", type=int, default=1, help="power used by invariant-geodesic")
    p_thm.add_argument("--do", required=True, help=f"comma list from: {', '.join(THEOREMS)}")
    p_thm.set_defaults(func=cmd_run)

    # only check and theorems reach the simple-connectivity oracle
    for p in (p_check, p_thm):
        p.add_argument(
            "--oracle-budget", type=int, default=DEFAULT_BUDGET, dest="oracle_budget",
            help="collapse steps the simple-connectivity oracle may take; "
            "0 or less skips both the strong-collapse core and the collapse pass",
        )

    p_gen = sub.add_parser("generate", help="emit a complex in the text format")
    _add_common(p_gen, report=False)
    p_gen.add_argument("--auto", help="include this automorphism as map lines")
    p_gen.set_defaults(func=cmd_generate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for key in ("oracle_budget", "k", "max_len"):
            if getattr(args, key, 0) < 0:
                option = "--" + key.replace("_", "-")
                raise CliError(f"{option} must be non-negative, got {getattr(args, key)}")
        return args.func(args)
    except (CliError, ParseError, ComplexError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory; try a smaller input", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
