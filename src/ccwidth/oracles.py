"""Exact desk-scale oracles: clique cover width, largest induced star,
unit-incomparability testing and the unit intersection dimension, plus
transitive-orientation recognition and the orientation file, which stores
an orientation of a graph's complement as a vertex order.

The oracles are exponential searches guarded by SearchLimits.  Recognition
is not: it is Golumbic's polynomial G-decomposition, with no vertex cap and
no budget.  Everything here is deterministic: searches enumerate in a
canonical order and return the first optimum found, so witnesses are
reproducible.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import reduce
from itertools import chain, compress
from operator import or_
from typing import Iterable, Iterator

from .covers import OrderedCliqueCover, part_masks, quotient_masks
from .errors import CertificateExtractionError, InvalidArgumentError, ParseError
from .graphs import (
    Graph,
    bits,
    complement,
    components,
    induced_subgraph,
    is_connected,
    is_count,
    is_pairs,
    load_json,
    mask_of,
    pair_rows,
    read_pair_json,
    row_pairs,
    selector,
    transpose,
)
from .limits import BANDWIDTH_LIMITS, CCW_LIMITS, UDIM_LIMITS, Budget, SearchLimits


@dataclass(frozen=True)
class StarCertificate:
    center: int
    leaves: tuple[int, ...]
    degenerate: bool = False

    @property
    def leaf_count(self) -> int:
        return max(len(self.leaves), 1)


def validate_star(g: Graph, cert: StarCertificate) -> bool:
    """Check the induced-star invariants: center adjacent to every leaf,
    leaves pairwise non-adjacent, center not a leaf."""
    if cert.center in cert.leaves:
        return False
    lm = mask_of(cert.leaves)
    if g.adj[cert.center] & lm != lm:
        return False
    for u in cert.leaves:
        if g.adj[u] & lm:
            return False
    return True


@dataclass(frozen=True)
class Orientation:
    """Directed graph on 0..n-1 stored like Graph: succ[u] is the bitmask of
    the heads of the arcs leaving u."""

    n: int
    succ: tuple[int, ...]

    @classmethod
    def from_arcs(cls, n: int, arcs: Iterable[tuple[int, int]]) -> Orientation:
        return cls(n, pair_rows(n, arcs, "arc", undirected=False))

    @property
    def arcs(self) -> tuple[tuple[int, int], ...]:
        """All arcs (u, v), sorted."""
        return tuple(row_pairs(self.succ))

    def pred(self) -> list[int]:
        """pred[v] = bitmask of the tails of the arcs entering v: column v of
        the succ matrix."""
        return transpose(self.succ)

    def underlying(self) -> Graph:
        return Graph(self.n, tuple(s | p for s, p in zip(self.succ, self.pred())))


def verify_transitive(o: Orientation) -> bool:
    """True iff no vertex has a loop and succ[v] ⊆ succ[u] for every arc
    u->v (closure under composition; with no loops, this also rules out
    antiparallel arcs)."""
    succ = o.succ
    return not any(
        m >> u & 1 or reduce(or_, compress(succ, selector(m)), 0) & ~m for u, m in enumerate(succ)
    )


def orientation_to_json(o: Orientation) -> str:
    """The order file of a DAG: its longest-path layers, sources first, one
    after another.  That is a linear extension of o, so reading the file
    against complement(o.underlying()) gives o back.  A cyclic o raises
    CyclicOrientationError."""
    from .incomparability import greedy_layered_cover  # which imports this module

    layers = greedy_layered_cover(o, check=False).cover.parts
    return json.dumps({"n": o.n, "order": list(chain.from_iterable(layers))}, sort_keys=True)


def orientation_from_json(text: str, g: Graph) -> Orientation:
    """The orientation of the complement of g that an orientation file
    gives.  An "order" file is a permutation of the vertices: each non-edge
    of g points from its earlier end to its later one.  An "arcs" file
    lists the arcs.  A malformed file raises ParseError; an order file for
    another vertex count than g's raises CertificateExtractionError."""
    return read_pair_json(text, lambda value: _orientation(value, g))


def _orientation(value, g: Graph) -> Orientation:
    obj = load_json(value, "orientation", n=is_count)
    if "order" not in obj:
        return Orientation.from_arcs(obj["n"], load_json(obj, "orientation", arcs=is_pairs)["arcs"])
    n, order = obj["n"], obj["order"]
    if "arcs" in obj:
        raise ParseError("orientation JSON has both 'arcs' and 'order'")
    if not (type(order) is list and set(map(type, order)) <= {int} and len(order) == n
            and sorted(order) == list(range(n))):
        raise ParseError(f"orientation JSON's 'order' is not a permutation of 0..{n - 1}")
    if n != g.n:
        raise CertificateExtractionError(f"orientation has {n} vertices, the graph has {g.n}")
    succ = [0] * n
    after = g.full_mask()  # the vertices after v in the order, once v is reached
    for v in order:
        after ^= 1 << v
        succ[v] = after & ~g.adj[v]
    return Orientation(n, tuple(succ))


# ---------------------------------------------------------------------------
# largest induced star

def largest_induced_star(g: Graph) -> tuple[int, StarCertificate]:
    """Leaf count of a largest induced star, with a witness.

    Equals the maximum over vertices v of the size of a maximum independent
    set inside the open neighborhood of v.  Defined as 1, with a degenerate
    certificate, when g has no edges.
    """
    best = 0
    cert = StarCertificate(0 if g.n else -1, (), degenerate=True)
    for v in range(g.n):
        if g.adj[v].bit_count() <= best:
            continue
        size, members = _max_independent_set(g.adj, g.adj[v])
        if size > best:
            best = size
            cert = StarCertificate(v, tuple(bits(members)))
    return max(best, 1), cert


def _max_independent_set(adj: tuple[int, ...], mask: int) -> tuple[int, int]:
    """Maximum independent set within `mask`, by branch and bound.

    Pivot: highest degree within the mask (ties to the lowest index);
    include-branch first.  Returns (size, member mask).
    """
    best_size = 0
    best_set = 0

    def go(mask: int, chosen: int, size: int) -> None:
        nonlocal best_size, best_set
        if size + mask.bit_count() <= best_size:
            return
        if mask == 0:
            best_size, best_set = size, chosen
            return
        pivot = -1
        pivot_deg = -1
        free = 0  # vertices isolated within mask; always taken
        for v in bits(mask):
            d = (adj[v] & mask).bit_count()
            if d == 0:
                free |= 1 << v
            elif d > pivot_deg:
                pivot, pivot_deg = v, d
        if free:
            go(mask & ~free, chosen | free, size + free.bit_count())
            return
        v = pivot
        go(mask & ~(adj[v] | (1 << v)), chosen | (1 << v), size + 1)
        go(mask & ~(1 << v), chosen, size)

    go(mask, 0, 0)
    return best_size, best_set


# ---------------------------------------------------------------------------
# exact clique cover width

def _clique_extensions(adj, base: int, candidates: int) -> Iterator[int]:
    """All cliques of the form base ∪ S with S ⊆ candidates, in lexicographic
    order of the added vertex list (base itself first if nonempty)."""
    if base:
        yield base
    for v in bits(candidates):
        higher = candidates & ~((1 << (v + 1)) - 1)
        yield from _clique_extensions(adj, base | (1 << v), higher & adj[v])


def _cliques_containing(adj, remaining: int, required: int) -> Iterator[int]:
    """Nonempty cliques C with required ⊆ C ⊆ remaining."""
    cands = remaining & ~required
    for v in bits(required):
        if adj[v] & required != required & ~(1 << v):
            return  # required set is not a clique
        cands &= adj[v]
    yield from _clique_extensions(adj, required, cands)


def _singletons_containing(adj, remaining: int, required: int) -> Iterator[int]:
    """One-vertex parts P with required ⊆ P ⊆ remaining, in vertex order."""
    if not required & (required - 1):
        for v in bits(required or remaining):
            yield 1 << v


def _cover_with_width_at_most(
    g: Graph, w: int, budget: Budget, grow=_cliques_containing
) -> tuple[int, ...] | None:
    """First ordered cover of width <= w, for w >= 1, in canonical order, as
    a tuple of part bitmasks, or None if none exists.  grow(adj, remaining,
    required) yields the candidate next parts: the cliques by default, the
    single vertices for bandwidth.

    Key pruning: once part i is placed, part i-w may not have neighbors among
    the still-uncovered vertices, so those neighbors are forced into part i.
    """
    adj = g.adj

    def rec(remaining: int, parts: tuple[int, ...]) -> tuple[int, ...] | None:
        if remaining == 0:
            return parts
        budget.tick()
        i = len(parts)
        required = 0
        if i >= w:
            expiring = parts[i - w]
            nb = 0
            for v in bits(expiring):
                nb |= adj[v]
            required = nb & remaining
        for part in grow(adj, remaining, required):
            found = rec(remaining & ~part, parts + (part,))
            if found is not None:
                return found
        return None

    return rec(g.full_mask(), ())


def bandwidth_exact(g: Graph, limits: SearchLimits = BANDWIDTH_LIMITS) -> tuple[int, tuple[int, ...]]:
    """Exact bandwidth with a witness ordering: the width search with
    one-vertex parts.

    Iterative deepening on the target width from ceil(max degree / 2);
    vertices are tried in ascending order at each position, so the witness
    is the lexicographically smallest optimal permutation.
    """
    limits.check_n(g.n)
    w = max(((d.bit_count() + 1) // 2 for d in g.adj), default=0)
    if w == 0:
        return 0, tuple(range(g.n))
    budget = Budget(limits)
    while (parts := _cover_with_width_at_most(g, w, budget, _singletons_containing)) is None:
        w += 1
    return w, tuple(p.bit_length() - 1 for p in parts)


def clique_cover_width_exact(
    g: Graph, limits: SearchLimits = CCW_LIMITS
) -> tuple[int, OrderedCliqueCover]:
    """Minimum width over all ordered clique covers, with an optimal witness.

    Disconnected graphs take the maximum over components; the witness is the
    concatenation of per-component witnesses (no cross edges, so the width is
    unaffected).  Each component's search starts at s // 2 = ceil((s-1)/2)
    for its largest induced star of s leaves: the leaves are pairwise
    non-adjacent, so they lie in distinct parts within w of the center's,
    and s <= 2w + 1.  At s = 1 the component has no induced P3, so it is a
    clique: one part, width 0.
    """
    limits.check_n(g.n)
    budget = Budget(limits)
    width = 0
    all_parts: list[tuple[int, ...]] = []
    for comp in components(g):
        sub, back = induced_subgraph(g, comp)
        w = largest_induced_star(sub)[0] // 2
        if w == 0:
            parts = (sub.full_mask(),)
        else:
            while (parts := _cover_with_width_at_most(sub, w, budget)) is None:
                w += 1
        width = max(width, w)
        all_parts.extend(tuple(sorted(back[v] for v in bits(p))) for p in parts)
    return width, OrderedCliqueCover(tuple(all_parts))


def is_unit_incomparability(g: Graph, limits: SearchLimits = CCW_LIMITS) -> bool:
    """True iff the clique cover width is at most 1 (cliques included by
    convention, so they count as dimension-1 factors)."""
    limits.check_n(g.n)
    budget = Budget(limits)
    for comp in components(g):
        sub, _ = induced_subgraph(g, comp)
        if _cover_with_width_at_most(sub, 1, budget) is None:
            return False
    return True


def enumerate_ordered_covers(g: Graph) -> Iterator[OrderedCliqueCover]:
    """All ordered clique covers of g, in canonical order: the first part
    runs over the cliques of g in lexicographic order of their vertex lists,
    each later part over the cliques inside the vertices still uncovered.
    Exponential; only meant for exhaustive desk-scale checks.

    The cliques are listed once, as a table; the cliques inside an uncovered
    set are the table entries that are subsets of it, in table order, which
    is their lexicographic order again.  Each such list is kept per set, as
    (uncovered after the part, part) pairs, and the covers are walked with
    an explicit stack of iterators over them."""
    full = g.full_mask()
    if not full:
        yield OrderedCliqueCover(())
        return
    table = [(m, tuple(bits(m))) for m in _clique_extensions(g.adj, 0, full)]
    fitting: dict[int, list[tuple[int, tuple[int, ...]]]] = {}

    def choices(remaining: int) -> Iterator[tuple[int, tuple[int, ...]]]:
        found = fitting.get(remaining)
        if found is None:
            found = fitting[remaining] = [(remaining & ~m, p) for m, p in table if not m & ~remaining]
        return iter(found)

    parts: list[tuple[int, ...]] = []
    stack = [choices(full)]
    while stack:
        for rest, part in stack[-1]:
            if rest:
                parts.append(part)
                stack.append(choices(rest))
                break
            yield OrderedCliqueCover((*parts, part))
        else:
            stack.pop()
            if parts:
                parts.pop()


# ---------------------------------------------------------------------------
# comparability recognition

def find_transitive_orientation(g: Graph) -> Orientation | None:
    """A transitive orientation of g's edges, or None if g is not a
    comparability graph.

    Golumbic's G-decomposition (Algorithmic Graph Theory and Perfect Graphs,
    ch. 5): take the smallest edge (u, v), u < v, not yet oriented, orient it
    u->v and grow its implication class among the edges not yet oriented,
    where arc (a, b) forces (a, c) for every other c adjacent to a but not
    to b, and (c, b) for every other c adjacent to b but not to a.  g is a
    comparability graph iff no class holds an arc and its reverse; the union
    of the classes is then transitive.  Each edge joins one class and is
    expanded once, so the run takes O(delta * |E|) mask steps.
    """
    rem = list(g.adj)  # edges not yet oriented
    succ = [0] * g.n
    for u in range(g.n):
        while later := rem[u] >> (u + 1) << (u + 1):
            v = (later & -later).bit_length() - 1
            out = {u: 1 << v}  # out[a]: heads of the class's arcs leaving a
            into = {v: 1 << u}  # into[b]: tails of the class's arcs entering b
            stack = [(u, v)]
            while stack:
                a, b = stack.pop()
                heads = rem[a] & ~rem[b] & ~(1 << b) & ~out[a]
                out[a] |= heads
                for c in bits(heads):
                    into[c] = into.get(c, 0) | 1 << a
                    stack.append((a, c))
                tails = rem[b] & ~rem[a] & ~(1 << a) & ~into[b]
                into[b] |= tails
                for c in bits(tails):
                    out[c] = out.get(c, 0) | 1 << b
                    stack.append((c, b))
            if any(m & into.get(a, 0) for a, m in out.items()):
                return None  # the class holds some arc and its reverse
            for a, m in out.items():
                succ[a] |= m
                rem[a] &= ~m
            for b, m in into.items():
                rem[b] &= ~m
    return Orientation(g.n, tuple(succ))


# ---------------------------------------------------------------------------
# unit intersection dimension

def unit_intersection_dimension(g: Graph, limits: SearchLimits = UDIM_LIMITS) -> int:
    """Smallest d such that g is the edge-set intersection of d supergraphs
    that each have clique cover width at most 1.

    Search space reduction: a width-<=1 supergraph H of g, together with an
    ordered cover of H witnessing that, corresponds to an ordered partition L
    of V where no g-edge spans a part gap >= 2 (parts need not be cliques of
    g: missing within-part pairs become added edges of H).  The maximal set
    of g-non-edges such an H can exclude is exactly the pairs split across
    different parts of L, so minimizing d is an exact set cover of the
    non-edges by the "split by L" sets over all admissible L.  That set
    depends only on the blocks of L, so each set partition is tested once:
    g is connected, so the blocks' quotient graph is connected, and an
    order of width <= 1 exists iff that quotient is a path (k - 1 edges,
    no block meeting more than two others).
    """
    limits.check_n(g.n)
    if not is_connected(g):
        raise InvalidArgumentError("unit intersection dimension requires a connected graph")
    nonedges = complement(g).edges()
    if not nonedges:
        return 1  # a clique is itself a width-0 factor
    full = (1 << len(nonedges)) - 1

    coverage: set[int] = set()
    for blocks in _set_partitions(g.n):
        degrees = [q.bit_count() for q in quotient_masks(*part_masks(g, blocks)[:2])]
        if max(degrees) > 2 or sum(degrees) != 2 * (len(blocks) - 1):
            continue
        block_of = {v: b for b, block in enumerate(blocks) for v in block}
        coverage.add(sum(1 << k for k, (u, v) in enumerate(nonedges) if block_of[u] != block_of[v]))

    masks = _maximal_masks(coverage)
    if full in masks:
        return 1
    return _min_set_cover(masks, full)


def _set_partitions(n: int):
    """All partitions of {0..n-1} into nonempty blocks (unordered)."""
    if n == 0:
        yield []
        return

    def rec(v: int, blocks: list[list[int]]):
        if v == n:
            yield [tuple(b) for b in blocks]
            return
        for b in blocks:
            b.append(v)
            yield from rec(v + 1, blocks)
            b.pop()
        blocks.append([v])
        yield from rec(v + 1, blocks)
        blocks.pop()

    yield from rec(0, [])


def _maximal_masks(masks: set[int]) -> list[int]:
    ordered = sorted(masks, key=lambda m: (-m.bit_count(), m))
    keep: list[int] = []
    for m in ordered:
        if not any(m | k == k for k in keep):
            keep.append(m)
    return keep


def _min_set_cover(masks: list[int], full: int) -> int:
    """Exact minimum set cover by branch and bound on the least-covered
    element."""
    by_element: dict[int, list[int]] = {}
    for k in bits(full):
        covering = [m for m in masks if m >> k & 1]
        if not covering:
            raise InvalidArgumentError("uncoverable element in set cover")
        by_element[k] = covering
    best = len(masks) + 1

    def rec(uncovered: int, used: int) -> None:
        nonlocal best
        if used >= best:
            return
        if uncovered == 0:
            best = used
            return
        pick = min(bits(uncovered), key=lambda k: len(by_element[k]))
        for m in by_element[pick]:
            rec(uncovered & ~m, used + 1)

    rec(full, 0)
    return best
