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

from .covers import OrderedCliqueCover
from .errors import CertificateExtractionError, InvalidArgumentError, ParseError
from .graphs import (
    Graph,
    bits,
    complement,
    components,
    induced_subgraph,
    is_connected,
    is_count,
    load_json,
    mask_of,
    pair_rows,
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
    """Check the induced-star invariants: center and leaves distinct
    vertices of g, center adjacent to every leaf, leaves pairwise non-adjacent."""
    vs = (cert.center, *cert.leaves)
    if len(set(vs)) != len(vs) or not all(0 <= v < g.n for v in vs):
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
    """The orientation of the complement of g that an order file gives: each
    non-edge of g points from its earlier end to its later one in "order",
    a linear extension, which gives any transitive orientation.  A
    malformed file, one with "arcs" or a vertex count above MAX_VERTICES
    included, raises ParseError; a file for another vertex count than g's
    raises CertificateExtractionError."""
    obj = load_json(text, "orientation", n=is_count)
    n, order = obj["n"], obj.get("order")
    if "arcs" in obj:
        raise ParseError("orientation JSON must give the vertex 'order', not 'arcs'")
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
    """Maximum independent set within `mask`, by branch and bound, walked
    with an explicit stack.

    Pivot: highest degree within the mask (ties to the lowest index);
    include-branch first.  Returns (size, member mask).
    """
    best_size, best_set = 0, 0
    stack = [(mask, 0, 0)]
    while stack:
        mask, chosen, size = stack.pop()
        if size + mask.bit_count() <= best_size:
            continue
        if mask == 0:
            best_size, best_set = size, chosen
            continue
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
            stack.append((mask & ~free, chosen | free, size + free.bit_count()))
            continue
        b = 1 << pivot
        stack.append((mask & ~b, chosen, size))
        stack.append((mask & ~(adj[pivot] | b), chosen | b, size + 1))
    return best_size, best_set


# ---------------------------------------------------------------------------
# exact clique cover width

def _clique_extensions(adj, base: int, candidates: int) -> Iterator[int]:
    """All cliques of the form base ∪ S with S ⊆ candidates, in lexicographic
    order of the added vertex list (base itself first if nonempty)."""
    if base:
        yield base
    stack = [(base, candidates)]  # per clique on the walk: itself, its candidates not yet tried
    while stack:
        base, candidates = stack[-1]
        if not candidates:
            stack.pop()
            continue
        low = candidates & -candidates
        candidates ^= low
        stack[-1] = (base, candidates)
        yield base | low
        stack.append((base | low, candidates & adj[low.bit_length() - 1]))


def _cliques_containing(adj, remaining: int, required: int) -> Iterator[int]:
    """Nonempty cliques C with required ⊆ C ⊆ remaining."""
    cands = remaining & ~required
    for v in bits(required):
        if adj[v] & required != required & ~(1 << v):
            return  # required set is not a clique
        cands &= adj[v]
    yield from _clique_extensions(adj, required, cands)


def _cover_with_width_at_most(
    g: Graph, w: int, budget: Budget, mates: tuple[int, ...] | None = None
) -> tuple[int, ...] | None:
    """First ordered cover of width <= w, for w >= 1, in canonical order, as
    a tuple of part bitmasks, or None if none exists.  The parts are the
    cliques of mates: of g by default, of the edgeless graph (single
    vertices) for bandwidth.  The search is depth first, with an explicit
    stack of candidate iterators, and ticks the budget once per node.

    Look-ahead rule: in a cover of width <= w, the neighbours of part j lie
    in parts j - w .. j + w.  Once m parts are placed, let F_k, k = 1..w, be
    the uncovered neighbours of parts m - w .. m - w + k - 1: they lie in
    the next k parts, which are cliques of mates, so F_k holds no k + 1
    vertices independent in mates.  A candidate part that leaves some F_k
    with such a set is cut before its node is expanded; only subtrees with
    no cover are cut, so the first cover found is the same.  F_1 is then a
    clique, which the next part must hold: the forcing rule.  The time
    budget is polled once per 4,096 cut candidates, which tick nothing.
    """
    adj = g.adj
    mates = adj if mates is None else mates
    full = g.full_mask()
    parts: list[int] = []
    nbs: list[int] = []  # the neighbours of each placed part
    stack = [(full, _cliques_containing(mates, full, 0))]  # per depth: the uncovered vertices, their candidates
    budget.tick()
    cut = 0
    alpha: dict[int, int] = {}  # the independence number in mates of each F_k met
    while stack:
        m = len(parts) + 1  # parts placed once the candidate is
        remaining, candidates = stack[-1]
        for part in candidates:
            rest = remaining & ~part
            if not rest:
                return (*parts, part)
            fk = 0
            for k in range(max(1, w - m + 1), w + 1):  # the k with a part m - w + k - 1
                # the last k adds the candidate's own neighbours, which nb keeps if it is placed
                nb = nbs[m - w + k - 1] if k < w else reduce(or_, compress(adj, selector(part)))
                fk |= nb & rest
                if fk.bit_count() > k:
                    a = alpha.get(fk)
                    if a is None:
                        a = alpha[fk] = _max_independent_set(mates, fk)[0]
                    if a > k:
                        break
            else:
                parts.append(part)
                nbs.append(nb)
                budget.tick()
                stack.append((rest, _cliques_containing(mates, rest, nbs[m - w] & rest if m >= w else 0)))
                break
            cut += 1
            if not cut & 4095:
                budget.poll()
        else:
            stack.pop()
            if parts:
                parts.pop()
                nbs.pop()
    return None


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
    edgeless = (0,) * g.n  # its cliques are the one-vertex parts
    while (parts := _cover_with_width_at_most(g, w, budget, edgeless)) is None:
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
    (uncovered after the part, part, the part's neighbours) triples, and the
    covers are walked with an explicit stack of iterators over them.

    The walk measures each cover's width as it goes, by part_masks's rule:
    per depth j it keeps before[j], the union of the first j parts, and the
    width of those parts, and part j raises that width while its neighbours
    meet before[j - w].  Each cover carries (g, width), which cover_width
    returns for this g object only."""
    full = g.full_mask()
    if not full:
        yield OrderedCliqueCover(())
        return
    adj = g.adj
    table = [(m, tuple(bits(m)), reduce(or_, compress(adj, selector(m)), 0))
             for m in _clique_extensions(adj, 0, full)]
    fitting: dict[int, list[tuple[int, tuple[int, ...], int]]] = {}
    measured = OrderedCliqueCover.measured
    parts: list[tuple[int, ...]] = []
    before, widths = [0], [0]  # per depth j: the union and the width of the first j parts
    stack = [iter([(full & ~m, p, nb) for m, p, nb in table])]
    while stack:
        j = len(parts)
        for rest, part, nb in stack[-1]:
            w = widths[j]
            while w < j and nb & before[j - w]:
                w += 1
            if rest:
                parts.append(part)
                before.append(full ^ rest)
                widths.append(w)
                found = fitting.get(rest)
                if found is None:
                    found = fitting[rest] = [(rest & ~m, p, nb) for m, p, nb in table if not m & ~rest]
                stack.append(iter(found))
                break
            yield measured((*parts, part), g, w)
        else:
            stack.pop()
            if parts:
                parts.pop()
                before.pop()
                widths.pop()


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
    non-edges by the "split by L" sets over all admissible L.

    The admissible L are walked depth first, block by block: the unplaced
    neighbours of B_j must go into B_j+1, so B_j+1 is that forced set plus
    any subset of the other unplaced vertices.  g is connected, so the
    forced set is empty only once every vertex is placed, and every branch
    ends in an admissible L.  The walk ticks the budget once per block.
    """
    limits.check_n(g.n)
    if not is_connected(g):
        raise InvalidArgumentError("unit intersection dimension requires a connected graph")
    nonedges = complement(g).edges()
    if not nonedges:
        return 1  # a clique is itself a width-0 factor
    full = (1 << len(nonedges)) - 1
    at = [0] * g.n  # the non-edges at each vertex
    for k, (u, v) in enumerate(nonedges):
        at[u] |= 1 << k
        at[v] |= 1 << k
    budget = Budget(limits)
    coverage: set[int] = set()
    # per entry: the unplaced vertices, those forced into the next block, the non-edges inside placed blocks
    stack = [(g.full_mask(), 0, 0)]
    while stack:
        unplaced, forced, inside = stack.pop()
        free = unplaced & ~forced
        s = free
        while True:  # the next block is forced | s, for every s within free
            block = forced | s
            if block:
                budget.tick()
                within, touch = inside, 0
                for v in bits(block):
                    within |= at[v] & touch
                    touch |= at[v]
                rest = unplaced & ~block
                if rest:
                    stack.append((rest, reduce(or_, compress(g.adj, selector(block))) & rest, within))
                else:
                    coverage.add(full & ~within)
            if not s:
                break
            s = (s - 1) & free

    masks = _maximal_masks(coverage, budget)
    if full in masks:
        return 1
    return _min_set_cover(masks, full, budget)


def _maximal_masks(masks: set[int], budget: Budget) -> list[int]:
    # quadratic, with no node to tick: the clock is polled once per mask
    ordered = sorted(masks, key=lambda m: (-m.bit_count(), m))
    keep: list[int] = []
    for m in ordered:
        budget.poll()
        if not any(m | k == k for k in keep):
            keep.append(m)
    return keep


def _min_set_cover(masks: list[int], full: int, budget: Budget) -> int:
    """Exact minimum set cover by branch and bound on the least-covered
    element, ticking the budget once per node expanded."""
    by_element: dict[int, list[int]] = {}
    for k in bits(full):
        covering = [m for m in masks if m >> k & 1]
        if not covering:
            raise InvalidArgumentError("uncoverable element in set cover")
        by_element[k] = covering
    best = len(masks) + 1
    stack = [(full, 0)]
    while stack:
        uncovered, used = stack.pop()
        if used >= best:
            continue
        if uncovered == 0:
            best = used
            continue
        budget.tick()
        pick = min(bits(uncovered), key=lambda k: len(by_element[k]))
        stack.extend((uncovered & ~m, used + 1) for m in reversed(by_element[pick]))
    return best
