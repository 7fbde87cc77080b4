"""Decomposition of a graph into unit incomparability factor graphs.

Given an ordered clique cover of width W, builds W factor supergraphs whose
edge-set intersection is the original graph: factors 1..W-1 are co-bipartite
(their complements collect the non-edges at part distance exactly i), and
the terminal factor's complement collects the non-edges at part distance
>= W, oriented from lower part index to higher, with a block cover of width
at most 1 grouping runs of W consecutive parts.
"""

from __future__ import annotations

from dataclasses import dataclass

from .covers import OrderedCliqueCover, cover_width, make_cover, validated_width
from .errors import InvalidArgumentError
from .graphs import (
    HOLE,
    Graph,
    build_graph,
    complement,
    is_count,
    is_lists,
    is_pairs,
    load_json,
    mask_of,
    pair_lists,
    read_pair_json,
    splice_json,
)
from .oracles import Orientation, verify_transitive

CO_BIPARTITE = "co_bipartite"
TERMINAL = "terminal"


@dataclass(frozen=True)
class Factor:
    graph: Graph
    kind: str
    bipartition: tuple[tuple[int, ...], tuple[int, ...]] | None = None
    orientation: Orientation | None = None
    blocks: OrderedCliqueCover | None = None


@dataclass(frozen=True)
class Decomposition:
    source_cover: OrderedCliqueCover
    factors: tuple[Factor, ...]


def block_cover(cover: OrderedCliqueCover, w: int) -> OrderedCliqueCover:
    """Group parts into consecutive runs of w (remainder last), each run's
    union forming one part."""
    if w < 1:
        raise InvalidArgumentError("block size must be >= 1")
    blocks = []
    for start in range(0, len(cover.parts), w):
        merged: list[int] = []
        for part in cover.parts[start:start + w]:
            merged.extend(part)
        blocks.append(tuple(sorted(merged)))
    return OrderedCliqueCover(tuple(blocks))


def decompose(g: Graph, cover: OrderedCliqueCover, width: int | None = None) -> Decomposition:
    """The factors of g through cover.  Pass the cover's width when the cover
    has already been validated and measured; otherwise cover_width checks it."""
    # width 0 (every component a clique) gives one terminal factor: g itself
    w = max(cover_width(g, cover) if width is None else width, 1)
    part_of = cover.part_of()
    comp = complement(g)
    full = g.full_mask()
    # part masks, padded so part_of[v] + w indexes past the last part
    parts = [mask_of(p) for p in cover.parts] + [0] * (w + 1)
    at_or_above = parts[:]  # at_or_above[k] = vertices in parts >= k
    for k in range(len(cover.parts) - 1, -1, -1):
        at_or_above[k] |= at_or_above[k + 1]

    factors = []
    for i in range(1, w):
        # factor i drops the non-edges at part distance exactly i
        adj = []
        for v in range(g.n):
            p = part_of[v]
            ring = parts[p + i] | (parts[p - i] if p >= i else 0)
            adj.append(full & ~(1 << v) & ~(comp.adj[v] & ring))
        side_even = tuple(v for v in range(g.n) if (part_of[v] // i) % 2 == 0)
        side_odd = tuple(v for v in range(g.n) if (part_of[v] // i) % 2 == 1)
        factors.append(
            Factor(graph=Graph(g.n, tuple(adj)), kind=CO_BIPARTITE, bipartition=(side_even, side_odd))
        )

    # the terminal factor drops the non-edges at part distance >= w, oriented
    # from the lower part index to the higher
    o = Orientation(g.n, tuple(comp.adj[v] & at_or_above[part_of[v] + w] for v in range(g.n)))
    factors.append(
        Factor(
            graph=complement(o.underlying()),
            kind=TERMINAL,
            orientation=o,
            blocks=block_cover(cover, w),
        )
    )
    return Decomposition(cover, tuple(factors))


# ---------------------------------------------------------------------------
# verification

@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class DecompositionReport:
    checks: tuple[Check, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[Check]:
        return [c for c in self.checks if not c.passed]


def verify_decomposition(g: Graph, d: Decomposition) -> DecompositionReport:
    """Run the five structural checks:

    (a) every factor is a supergraph of g;
    (b) the intersection of the factor edge sets equals E(g);
    (c) each factor is co-bipartite or terminal, and each co-bipartite
        factor's complement is bipartite with its stored witness;
    (d) the terminal orientation is transitive and covers exactly the
        terminal complement's edges;
    (e) the block cover is a valid clique cover of the terminal factor with
        width at most 1.
    """
    checks: list[Check] = []

    bad = None
    for idx, f in enumerate(d.factors):
        if f.graph.n != g.n:
            bad = f"factor {idx} has {f.graph.n} vertices, expected {g.n}"
            break
        for v in range(g.n):
            if g.adj[v] & ~f.graph.adj[v]:
                bad = f"factor {idx} misses an edge at vertex {v}"
                break
        if bad:
            break
    checks.append(Check("a_supergraphs", bad is None, bad or ""))

    if all(f.graph.n == g.n for f in d.factors) and d.factors:
        inter = list(d.factors[0].graph.adj)
        for f in d.factors[1:]:
            for v in range(g.n):
                inter[v] &= f.graph.adj[v]
        witness = ""
        ok = True
        for v in range(g.n):
            diff = inter[v] ^ g.adj[v]
            if diff:
                u = (diff & -diff).bit_length() - 1
                witness = f"edge sets differ at pair ({v},{u})"
                ok = False
                break
        checks.append(Check("b_intersection", ok, witness))
    else:
        checks.append(Check("b_intersection", False, "factor vertex sets do not match"))

    ok = True
    detail = ""
    for idx, f in enumerate(d.factors):
        if f.kind == TERMINAL:
            continue
        if f.kind != CO_BIPARTITE:
            ok, detail = False, f"factor {idx} has unknown kind {f.kind!r}"
            break
        if f.bipartition is None:
            ok, detail = False, f"factor {idx} lacks a bipartition witness"
            break
        a, b = (mask_of(s) for s in f.bipartition)
        if a & b or a | b != f.graph.full_mask():
            ok, detail = False, f"factor {idx} bipartition is not a partition of V"
            break
        # each side must be a clique of the factor; report the first
        # complement edge (x, y), x < y, inside one side
        for x in range(f.graph.n):
            inside = ((a if a >> x & 1 else b) & ~f.graph.adj[x]) >> (x + 1)
            if inside:
                y = x + (inside & -inside).bit_length()
                ok, detail = False, f"factor {idx} complement edge ({x},{y}) stays inside one side"
                break
        if not ok:
            break
    checks.append(Check("c_cobipartite_witnesses", ok, detail))

    terminal = [f for f in d.factors if f.kind == TERMINAL]
    ok = len(terminal) == 1
    detail = "" if ok else f"expected exactly one terminal factor, found {len(terminal)}"
    if ok:
        f = terminal[0]
        if f.orientation is None:
            ok, detail = False, "terminal factor lacks an orientation"
        elif not verify_transitive(f.orientation):
            ok, detail = False, "terminal orientation is not transitive"
        elif f.orientation.underlying() != complement(f.graph):
            ok, detail = False, "terminal orientation does not cover exactly the complement edges"
    checks.append(Check("d_terminal_orientation", ok, detail))

    ok = bool(terminal)
    detail = "" if ok else "no terminal factor"
    if terminal:
        f = terminal[0]
        if f.blocks is None:
            ok, detail = False, "terminal factor lacks a block cover"
        else:
            rep, bw = validated_width(f.graph, f.blocks)
            if not rep.valid:
                ok, detail = False, f"block cover invalid for the terminal factor: {rep}"
            elif bw > 1:
                ok, detail = False, f"block cover width {bw} exceeds 1"
    checks.append(Check("e_block_cover", ok, detail))

    return DecompositionReport(tuple(checks))


# ---------------------------------------------------------------------------
# serialization

def decomposition_to_json(d: Decomposition) -> str:
    factors = []
    for f in d.factors:
        factors.append(
            {
                "graph": {"n": f.graph.n, "edges": HOLE},
                "kind": f.kind,
                "bipartition": f.bipartition or None,
                "orientation": {"n": f.orientation.n, "arcs": f.orientation.arcs} if f.orientation else None,
                "blocks": f.blocks.parts if f.blocks else None,
            }
        )
    edges = pair_lists(f.graph.upper() for f in d.factors)
    return splice_json({"cover": d.source_cover.parts, "factors": factors}, edges)


def _lists_or_none(x) -> bool:
    return x is None or is_lists(x)


def decomposition_from_json(text: str) -> Decomposition:
    return read_pair_json(text, _decomposition)


def _decomposition(value) -> Decomposition:
    obj = load_json(value, "decomposition", cover=is_lists, factors=lambda x: type(x) is list)
    factors = []
    for fo in obj["factors"]:
        fo = load_json(
            fo, "factor", kind=lambda x: type(x) is str, bipartition=_lists_or_none, blocks=_lists_or_none
        )
        go = load_json(fo.get("graph"), "factor graph", n=is_count, edges=is_pairs)
        ori = None
        if fo.get("orientation"):
            oo = load_json(fo["orientation"], "factor orientation", n=is_count, arcs=is_pairs)
            ori = Orientation.from_arcs(oo["n"], oo["arcs"])
        bip = tuple(tuple(s) for s in fo["bipartition"]) if fo.get("bipartition") else None
        blocks = make_cover(fo["blocks"]) if fo.get("blocks") is not None else None
        factors.append(Factor(build_graph(go["n"], go["edges"]), fo["kind"], bip, ori, blocks))
    return Decomposition(make_cover(obj["cover"]), tuple(factors))
