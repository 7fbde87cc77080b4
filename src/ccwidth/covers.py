"""Ordered clique covers, their width and the quotient graph.

The width of an ordered cover is the largest part-index gap spanned by an
edge of the host graph; the quotient graph contracts each part to a single
vertex.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .errors import InvalidCoverError, NotAPermutationError
from .graphs import Graph, bits, is_lists, load_json, mask_of


@dataclass(frozen=True)
class OrderedCliqueCover:
    parts: tuple[tuple[int, ...], ...]
    # (g, width) for a cover enumerate_ordered_covers made from g, which
    # cover_width returns for that very graph; outside ==, hash and repr
    known: tuple[Graph, int] | None = field(default=None, init=False, repr=False, compare=False)

    @classmethod
    def measured(cls, parts: tuple[tuple[int, ...], ...], g: Graph, width: int) -> OrderedCliqueCover:
        """The cover of `parts` carrying (g, width), as
        enumerate_ordered_covers yields it: both fields are stored in the
        instance dict directly, which skips the frozen __init__ and
        __setattr__ on this per-cover path."""
        cover = object.__new__(cls)
        fields = cover.__dict__
        fields["parts"] = parts
        fields["known"] = (g, width)
        return cover

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
    out_of_range: tuple[int, ...] = ()  # listed vertices >= n

    @property
    def valid(self) -> bool:
        return not (self.uncovered or self.doubly_covered or self.non_clique_parts or self.out_of_range)


def part_masks(g: Graph, parts) -> tuple[list[int], list[int], bool, int]:
    """One pass over the parts: each part's vertex mask, each part's
    neighbour mask (the OR of adj[v] over the part), whether the parts
    are disjoint cliques of g that list every vertex of g exactly once, and
    the width, the largest j - i with part j holding a neighbour of part i.

    A part is a clique iff its mask lies inside every member's closed
    neighbourhood; a member >= n has none, so its part is not a clique.
    The width only grows, in O(k + width) mask operations: part j raises it
    while its neighbours meet before[j - w], the union of the parts more
    than w before it.  Adjacency is symmetric, so this is also the largest
    gap from a part i to a later part holding a neighbour of it."""
    adj, full = g.adj, g.full_mask()
    pms, nbrs, before = [], [], []  # before[j] = union of the parts before j
    seen = listed = w = 0
    clique = True
    for j, part in enumerate(parts):
        pm = nb = 0
        closed = -1  # AND of the members' closed neighbourhoods
        for v in part:
            b = 1 << v
            pm |= b
            if b <= full:
                a = adj[v]
                nb |= a
                closed &= a | b
        if pm & ~closed:
            clique = False
        before.append(seen)
        while w < j and nb & before[j - w]:
            w += 1
        seen |= pm
        listed += len(part)
        pms.append(pm)
        nbrs.append(nb)
    return pms, nbrs, clique and seen == full and listed == g.n, w


def _report(g: Graph, parts, pms: list[int]) -> CoverReport:
    """The full report of an invalid cover, with a witness per bad part."""
    seen = doubly = 0
    for pm in pms:
        doubly |= seen & pm
        seen |= pm
    non_clique = ((i, _non_adjacent_pair(g, part)) for i, part in enumerate(parts))
    return CoverReport(
        tuple(bits(g.full_mask() & ~seen)),
        tuple(bits(doubly)),
        tuple((i, pair) for i, pair in non_clique if pair is not None),
        tuple(bits(seen >> g.n << g.n)),
    )


def _non_adjacent_pair(g: Graph, part) -> tuple[int, int] | None:
    vs = sorted(part)
    for a, u in enumerate(vs):
        for v in vs[a + 1:]:
            if v >= g.n or u >= g.n or not g.has_edge(u, v):
                return (u, v)
    return None


def validate_cover(g: Graph, cover: OrderedCliqueCover) -> CoverReport:
    return validated_width(g, cover)[0]


def validated_width(g: Graph, cover: OrderedCliqueCover) -> tuple[CoverReport, int]:
    """validate_cover's report and, when it is valid, cover_width's width,
    from one part_masks pass."""
    pms, _, valid, width = part_masks(g, cover.parts)
    return (CoverReport((), (), ()) if valid else _report(g, cover.parts, pms)), width


def _checked_masks(g: Graph, cover: OrderedCliqueCover) -> tuple[list[int], list[int], int]:
    pms, nbrs, valid, width = part_masks(g, cover.parts)
    if not valid:
        raise InvalidCoverError(f"invalid cover: {_report(g, cover.parts, pms)}")
    return pms, nbrs, width


def quotient_masks(pms: list[int], nbrs: list[int]) -> list[int]:
    """Adjacency masks of the quotient: part i meets part j != i."""
    return [mask_of(j for j, pm in enumerate(pms) if j != i and nb & pm) for i, nb in enumerate(nbrs)]


def cover_width(g: Graph, cover: OrderedCliqueCover) -> int:
    """Maximum |j - i| over edges with endpoints in parts i and j; 0 if no
    edge crosses parts.  A cover from enumerate_ordered_covers carries the
    width the census walk measured, which is returned for the graph object
    it was enumerated in; any other graph, even an equal one, goes through
    part_masks and its validity check."""
    known = cover.known
    if known is not None and known[0] is g:
        return known[1]
    return _checked_masks(g, cover)[2]


def quotient_graph(g: Graph, cover: OrderedCliqueCover) -> Graph:
    q = quotient_masks(*_checked_masks(g, cover)[:2])
    return Graph(len(q), tuple(q))


def trivial_cover(g: Graph) -> OrderedCliqueCover:
    return OrderedCliqueCover(tuple((v,) for v in range(g.n)))


def ordering_width(g: Graph, perm) -> int:
    perm = list(perm)
    if sorted(perm) != list(range(g.n)):
        raise NotAPermutationError("ordering must be a permutation of the vertex set")
    return part_masks(g, [(v,) for v in perm])[3]


# ---------------------------------------------------------------------------
# serialization

def cover_to_json(cover: OrderedCliqueCover) -> str:
    return json.dumps({"parts": cover.parts}, sort_keys=True)


def cover_from_json(text: str) -> OrderedCliqueCover:
    return make_cover(load_json(text, "cover", parts=is_lists)["parts"])
