"""Ordered clique covers, their width, the quotient graph, and bandwidth.

The width of an ordered cover is the largest part-index gap spanned by an
edge of the host graph; the quotient graph contracts each part to a single
vertex.  Bandwidth is computed exactly by iterative-deepening search and is
meant as a desk-scale oracle, not a scalable solver.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import InvalidCoverError, NotAPermutationError
from .graphs import Graph, bits, build_graph, is_lists, load_json, mask_of
from .limits import BANDWIDTH_LIMITS, Budget, SearchLimits


@dataclass(frozen=True)
class OrderedCliqueCover:
    parts: tuple[tuple[int, ...], ...]

    def part_of(self) -> dict[int, int]:
        out = {}
        for i, part in enumerate(self.parts):
            for v in part:
                out[v] = i
        return out


def make_cover(parts) -> OrderedCliqueCover:
    return OrderedCliqueCover(tuple(tuple(sorted(p)) for p in parts))


@dataclass(frozen=True)
class CoverReport:
    uncovered: tuple[int, ...]
    doubly_covered: tuple[int, ...]
    non_clique_parts: tuple[tuple[int, tuple[int, int]], ...]  # (part index, witness non-edge)

    @property
    def valid(self) -> bool:
        return not (self.uncovered or self.doubly_covered or self.non_clique_parts)


def validate_cover(g: Graph, cover: OrderedCliqueCover) -> CoverReport:
    seen = 0
    doubly = 0
    non_clique = []
    for i, part in enumerate(cover.parts):
        pm = mask_of(part)
        doubly |= seen & pm
        seen |= pm
        witness = _non_adjacent_pair(g, part)
        if witness is not None:
            non_clique.append((i, witness))
    uncovered = g.full_mask() & ~seen
    return CoverReport(tuple(bits(uncovered)), tuple(bits(doubly)), tuple(non_clique))


def _non_adjacent_pair(g: Graph, part) -> tuple[int, int] | None:
    vs = sorted(part)
    for a, u in enumerate(vs):
        for v in vs[a + 1:]:
            if v >= g.n or u >= g.n or not g.has_edge(u, v):
                return (u, v)
    return None


def _require_valid(g: Graph, cover: OrderedCliqueCover) -> None:
    report = validate_cover(g, cover)
    if not report.valid:
        raise InvalidCoverError(f"invalid cover: {report}")


def cover_width(g: Graph, cover: OrderedCliqueCover, *, checked: bool = True) -> int:
    """Maximum |j - i| over edges with endpoints in parts i and j; 0 if no
    edge crosses parts."""
    if checked:
        _require_valid(g, cover)
    part_of = cover.part_of()
    width = 0
    for u, v in g.edges():
        gap = abs(part_of[u] - part_of[v])
        if gap > width:
            width = gap
    return width


def quotient_graph(g: Graph, cover: OrderedCliqueCover) -> Graph:
    _require_valid(g, cover)
    part_of = cover.part_of()
    pairs = set()
    for u, v in g.edges():
        i, j = part_of[u], part_of[v]
        if i != j:
            pairs.add((min(i, j), max(i, j)))
    return build_graph(len(cover.parts), sorted(pairs))


def trivial_cover(g: Graph) -> OrderedCliqueCover:
    return OrderedCliqueCover(tuple((v,) for v in range(g.n)))


def ordering_width(g: Graph, perm) -> int:
    perm = list(perm)
    if sorted(perm) != list(range(g.n)):
        raise NotAPermutationError("ordering must be a permutation of the vertex set")
    pos = {v: i for i, v in enumerate(perm)}
    width = 0
    for u, v in g.edges():
        gap = abs(pos[u] - pos[v])
        if gap > width:
            width = gap
    return width


def bandwidth_exact(g: Graph, limits: SearchLimits = BANDWIDTH_LIMITS) -> tuple[int, tuple[int, ...]]:
    """Exact bandwidth with a witness ordering.

    Iterative deepening on the target width; vertices are tried in ascending
    order at each position, so the witness is the lexicographically smallest
    optimal permutation.
    """
    limits.check_n(g.n)
    n = g.n
    if n == 0:
        return 0, ()
    lower = max((g.degree(v) + 1) // 2 for v in range(n))
    budget = Budget(limits)
    for w in range(lower, max(n - 1, 0) + 1):
        witness = _place_with_width(g, w, budget)
        if witness is not None:
            return w, witness
    return 0, tuple(range(n))  # n == 1 or edgeless falls out of the loop at w = 0


def _place_with_width(g: Graph, w: int, budget: Budget) -> tuple[int, ...] | None:
    n = g.n
    adj = g.adj
    order: list[int] = []

    def rec(remaining: int, expired: int) -> bool:
        if remaining == 0:
            return True
        budget.tick()
        p = len(order)
        # vertex falling out of the window must have no unplaced neighbors
        # after this placement
        for v in bits(remaining):
            if adj[v] & expired:
                continue
            rest = remaining & ~(1 << v)
            if p >= w and adj[order[p - w]] & rest:
                continue
            order.append(v)
            new_expired = expired | ((1 << order[p - w]) if p - w >= 0 else 0)
            if rec(rest, new_expired):
                return True
            order.pop()
        return False

    if w == 0:
        if g.edge_count() > 0:
            return None
        return tuple(range(n))
    return tuple(order) if rec(g.full_mask(), 0) else None


# ---------------------------------------------------------------------------
# serialization

def cover_to_json(cover: OrderedCliqueCover) -> str:
    return json.dumps({"parts": [list(p) for p in cover.parts]}, sort_keys=True)


def cover_from_json(text: str) -> OrderedCliqueCover:
    return make_cover(load_json(text, "cover", parts=is_lists)["parts"])
