"""Command-line surface: parse, ccw, decompose, verify, star, gen, ramsey,
stats.

Every run prints a JSON report (command echo, input digest, results, witness
file paths, notices, timing) and writes witness files under --out.  Exit
codes: 0 success, 2 parse error, 3 limit exceeded, 4 verification failed,
5 recognition failed.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
import time
from pathlib import Path

from . import generators
from .covers import (
    cover_from_json,
    cover_to_json,
    trivial_cover,
    validated_width,
)
from .decompose import (
    decompose,
    decomposition_from_json,
    decomposition_to_json,
    verify_decomposition,
)
from .errors import (
    CCWidthError,
    IndexOutOfRangeError,
    InvalidArgumentError,
    InvalidCoverError,
    InvalidQueryError,
    LimitExceededError,
    NotIncomparabilityError,
    ParseError,
    SelfLoopError,
)
from .graphs import DOT_PAIR, RowText, complement, components, parse_graph, serialize_graph
from .incomparability import approximate_ccw, greedy_layered_cover
from .limits import CCW_LIMITS, SearchLimits
from .oracles import (
    clique_cover_width_exact,
    find_transitive_orientation,
    largest_induced_star,
    orientation_from_json,
    orientation_to_json,
)
from .ramsey import ramsey_lookup, star_bound_from_width, verify_ramsey_tiny

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_LIMIT = 3
EXIT_VERIFY = 4
EXIT_RECOGNIZE = 5


def _read_input(path: str) -> str:
    """A file, or stdin for "-", read as UTF-8 with newlines translated as
    in text mode; bytes that are not UTF-8 raise ParseError."""
    raw = sys.stdin.buffer.read() if path == "-" else Path(path).read_bytes()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        where = "stdin" if path == "-" else path
        raise ParseError(f"{where} is not UTF-8 text: {exc.reason} at byte {exc.start}") from None
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


def _load_graph(args, report: dict):
    """The input graph; records its digest in the report once it parses."""
    text = _read_input(args.input)
    fmt = args.format
    if fmt == "auto":
        fmt = "json" if text.lstrip().startswith("{") else "edge-list"
    g = parse_graph(text, fmt)
    report["input_digest"] = hashlib.sha256(text.encode()).hexdigest()
    return g


def _checks(vr) -> list[dict]:
    return [{"check": c.name, "passed": c.passed, "detail": c.detail} for c in vr.checks]


def _limits(args) -> SearchLimits:
    return SearchLimits(
        max_n=CCW_LIMITS.max_n if args.limits_n is None else args.limits_n,
        node_budget=CCW_LIMITS.node_budget,
        time_budget_ms=CCW_LIMITS.time_budget_ms if args.limits_time is None else args.limits_time,
    )


def _write_witness(args, name: str, text: str) -> str:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / name
    path.write_text(text)
    return str(path)


def _emit(report: dict, started: float) -> None:
    report["timing_ms"] = round((time.monotonic() - started) * 1000, 3)
    print(json.dumps(report, sort_keys=True, indent=2))


# ---------------------------------------------------------------------------
# subcommands

def cmd_parse(args, report):
    g = _load_graph(args, report)
    report["results"] = {"n": g.n, "m": g.edge_count()}
    if args.to:
        report["results"]["serialized"] = serialize_graph(g, args.to)
    return EXIT_OK


def cmd_ccw(args, report):
    g = _load_graph(args, report)
    if args.exact:
        width, cover = clique_cover_width_exact(g, args.limits)
        path = _write_witness(args, "ccw_witness_cover.json", cover_to_json(cover))
        report["results"] = {"ccw": width}
        report["witnesses"] = {"cover": path}
    else:
        ghat = orientation_from_json(_read_input(args.orientation), g) if args.orientation else None
        res = approximate_ccw(g, ghat, check=not args.assume_transitive)
        cover_path = _write_witness(args, "greedy_cover.json", cover_to_json(res.witness_cover))
        star_path = _write_witness(
            args,
            "greedy_star.json",
            json.dumps(
                {"center": res.witness_star.center, "leaves": list(res.witness_star.leaves)},
                sort_keys=True,
            ),
        )
        report["results"] = {"lower": res.lower, "upper": res.upper}
        report["witnesses"] = {"cover": cover_path, "star": star_path}
    return EXIT_OK


def _auto_cover(g):
    ghat = find_transitive_orientation(complement(g))
    if ghat is None:
        return trivial_cover(g), "trivial"
    # the recognizer's orientation is transitive by construction
    return greedy_layered_cover(ghat, check=False).cover, "greedy"


def cmd_decompose(args, report):
    g = _load_graph(args, report)
    if args.cover:
        cover = cover_from_json(_read_input(args.cover))
        how = "file"
    else:
        cover, how = _auto_cover(g)
    rep, width = validated_width(g, cover)
    if rep.out_of_range:
        raise IndexOutOfRangeError(f"cover lists vertices outside 0..{g.n - 1}: {list(rep.out_of_range)}")
    if not rep.valid:
        raise InvalidCoverError(f"cover does not cover the graph: {rep}")
    d = decompose(g, cover, width)
    path = _write_witness(args, "decomposition.json", decomposition_to_json(d))
    witnesses = {"decomposition": path}
    dot_rows = RowText(g.n, *DOT_PAIR)  # the factors are near complete: cut each from K_n's rows
    for i, f in enumerate(d.factors):
        witnesses[f"factor_{i}"] = _write_witness(
            args, f"factor_{i}.dot", serialize_graph(f.graph, "dot", table=dot_rows)
        )
    report["results"] = {"cover_source": how, "width": width, "factor_count": len(d.factors)}
    if width == 0:
        report.setdefault("notices", []).append(
            "cover width 0: every component is a clique; single-factor decomposition"
        )
    report["witnesses"] = witnesses
    if args.verify:
        vr = verify_decomposition(g, d)
        report["results"]["verification"] = _checks(vr)
        if not vr.all_passed:
            return EXIT_VERIFY
    return EXIT_OK


def cmd_verify(args, report):
    g = _load_graph(args, report)
    d = decomposition_from_json(_read_input(args.decomposition))
    vr = verify_decomposition(g, d)
    report["results"] = {"all_passed": vr.all_passed, "checks": _checks(vr)}
    return EXIT_OK if vr.all_passed else EXIT_VERIFY


def cmd_star(args, report):
    g = _load_graph(args, report)
    size, cert = largest_induced_star(g)
    report["results"] = {
        "star_leaves": size,
        "certificate": {
            "center": cert.center,
            "leaves": list(cert.leaves),
            "degenerate": cert.degenerate,
        },
    }
    return EXIT_OK


def cmd_gen(args, report):
    kind, n, seed = args.kind, args.n, args.seed
    density = args.density
    witnesses = {}
    if kind == "poset":
        g, ghat = generators.random_poset_graph(n, density, seed)
        witnesses["orientation"] = _write_witness(
            args, f"poset_{n}_{seed}.orientation.json", orientation_to_json(ghat)
        )
        name = f"poset_{n}_{seed}.graph"
    elif kind == "cobipartite":
        g = generators.random_cobipartite(n, density, seed)
        name = f"cobipartite_{n}_{seed}.graph"
    elif kind == "grid":
        g = generators.grid_graph(n, n)
        name = f"grid_{n}.graph"
    elif kind == "star":
        g = generators.star_graph(n)
        name = f"star_{n}.graph"
    elif kind == "random":
        g = generators.random_graph(n, density, seed)
        name = f"random_{n}_{seed}.graph"
    else:
        raise InvalidQueryError(f"unknown generator kind {kind!r}")
    witnesses["graph"] = _write_witness(args, name + ".json", serialize_graph(g, "json"))
    report["results"] = {"kind": kind, "n": g.n, "m": g.edge_count()}
    report["witnesses"] = witnesses
    return EXIT_OK


def cmd_ramsey(args, report):
    if args.corollary is not None:
        answer = star_bound_from_width(args.corollary)
        results = {"targets": [3] * (args.corollary - 1) + [4], "kind": answer.kind}
        if answer.kind == "exact":
            results["ramsey"] = answer.value
            results["star_bound"] = answer.value - 1
            results["statement"] = f"s(G) <= {answer.value - 1} (R = {answer.value})"
        else:
            results["lo"] = answer.lo
            results["hi"] = answer.hi
        report["results"] = results
        return EXIT_OK
    targets = tuple(args.targets)
    answer = ramsey_lookup(targets)
    results = {"targets": list(targets), "kind": answer.kind, "lo": answer.lo, "hi": answer.hi}
    if args.verify_tiny:
        v = verify_ramsey_tiny(targets)
        results["verification"] = {
            "lower_verified": v.lower_verified,
            "upper_verified": v.upper_verified,
            "notes": list(v.notes),
        }
        if not v.lower_verified:
            report["results"] = results
            return EXIT_VERIFY
    report["results"] = results
    return EXIT_OK


def cmd_stats(args, report):
    g = _load_graph(args, report)
    comps = components(g)
    degrees = [g.degree(v) for v in range(g.n)] or [0]
    report["results"] = {
        "n": g.n,
        "m": g.edge_count(),
        "components": len(comps),
        "max_degree": max(degrees),
        "min_degree": min(degrees),
    }
    if g.n <= 32:
        size, _ = largest_induced_star(g)
        report["results"]["star_leaves"] = size
    return EXIT_OK


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ccwidth", description="Clique cover width toolkit"
    )
    parser.add_argument("--format", default="auto", choices=["auto", "edge-list", "json"])
    parser.add_argument("--limits-n", type=int, default=None, help="vertex cap for exact searches")
    parser.add_argument("--limits-time", type=int, default=None, help="time budget in ms")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default=".", help="directory for witness files")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse a graph and report basic facts")
    p.add_argument("input")
    p.add_argument("--to", choices=["edge-list", "json", "dot"], default=None)
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("ccw", help="clique cover width, exact or greedy interval")
    p.add_argument("input")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--exact", action="store_true")
    mode.add_argument("--greedy", action="store_true")
    p.add_argument("--orientation", default=None, help="orientation JSON for greedy mode")
    p.add_argument("--assume-transitive", action="store_true")
    p.set_defaults(func=cmd_ccw)

    p = sub.add_parser("decompose", help="factor a graph through an ordered clique cover")
    p.add_argument("input")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--cover", default=None)
    src.add_argument("--auto", action="store_true")
    p.add_argument("--verify", action="store_true")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("verify", help="re-check a stored decomposition")
    p.add_argument("input")
    p.add_argument("--decomposition", required=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("star", help="largest induced star with certificate")
    p.add_argument("input")
    p.set_defaults(func=cmd_star)

    p = sub.add_parser("gen", help="generate test instances")
    p.add_argument("kind", choices=["poset", "cobipartite", "grid", "star", "random"])
    p.add_argument("n", type=int)
    p.add_argument("density", type=float, nargs="?", default=0.5)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("ramsey", help="Ramsey lookups and the width corollary bound")
    p.add_argument("targets", type=int, nargs="*")
    p.add_argument("--corollary", type=int, default=None, help="clique cover width")
    p.add_argument("--verify-tiny", action="store_true")
    p.set_defaults(func=cmd_ramsey)

    p = sub.add_parser("stats", help="basic graph statistics")
    p.add_argument("input")
    p.set_defaults(func=cmd_stats)

    return parser


# first matching row wins: malformed or out-of-range input is a parse error,
# and any other package error means well-formed input failed a check
EXIT_CODES = (
    (
        (ParseError, SelfLoopError, IndexOutOfRangeError, InvalidQueryError, InvalidArgumentError, OSError),
        EXIT_PARSE,
    ),
    (LimitExceededError, EXIT_LIMIT),
    (NotIncomparabilityError, EXIT_RECOGNIZE),
    (CCWidthError, EXIT_VERIFY),
)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parse_args leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    started = time.monotonic()
    report: dict = {"command": [args.command] + (argv or sys.argv[1:]), "results": {}}
    try:
        args.limits = _limits(args)
        code = args.func(args, report)
    except (CCWidthError, OSError) as exc:
        report["error"] = str(exc)
        code = next(exit_code for types, exit_code in EXIT_CODES if isinstance(exc, types))
    _emit(report, started)
    return code


if __name__ == "__main__":
    sys.exit(main())
