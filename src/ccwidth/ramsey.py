"""Ramsey-number lookups with reductions, exhaustive tiny-scale verification,
and the induced-star bound for intersection graphs.

The bound being checked: if g is the edge-set intersection of factors
H_1..H_d, the largest induced star of g has fewer than
R(s(H_1)+1, ..., s(H_d)+1) leaves.  Specializing to a width-W decomposition
(co-bipartite factors have s <= 2, the terminal unit factor has s <= 3)
gives s(g) < R(3, ..., 3, 4) with W-1 threes.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from importlib import resources

from .errors import (
    InvalidArgumentError,
    InvalidQueryError,
    LimitExceededError,
    NotAnIntersectionError,
)
from .graphs import Graph, build_graph, complement
from .limits import MAX_VERTICES
from .oracles import largest_induced_star


@dataclass(frozen=True)
class RamseyAnswer:
    kind: str  # "exact" | "range" | "unknown"
    lo: int
    hi: int | None = None

    @property
    def value(self) -> int:
        if self.kind != "exact":
            raise InvalidArgumentError("no exact value available")
        return self.lo


def normalize_targets(targets) -> tuple[int, ...]:
    """Sorted targets with 1s and 2s reduced out.

    R(1, rest) = 1 (handled by the caller) and
    R(2, rest) = R(rest), so 2s simply drop.
    """
    ts = tuple(sorted(targets))
    if not ts:
        raise InvalidQueryError("empty target list")
    if any(not isinstance(t, int) or t < 1 for t in ts):
        raise InvalidQueryError(f"targets must be positive integers, got {ts}")
    return tuple(t for t in ts if t > 2)


@functools.cache
def _table() -> dict:
    text = resources.files("ccwidth.data").joinpath("ramsey_table.json").read_text()
    return json.loads(text)["values"]


def ramsey_lookup(targets) -> RamseyAnswer:
    reduced = normalize_targets(targets)
    if 1 in targets:
        return RamseyAnswer("exact", 1, 1)
    if not reduced:
        return RamseyAnswer("exact", 2, 2)  # all targets were 2
    if len(reduced) == 1:
        return RamseyAnswer("exact", reduced[0], reduced[0])
    key = ",".join(map(str, reduced))
    entry = _table().get(key)
    if entry is None:
        return RamseyAnswer("unknown", max(reduced), None)
    if "exact" in entry:
        return RamseyAnswer("exact", entry["exact"], entry["exact"])
    return RamseyAnswer("range", entry["lo"], entry["hi"])


def star_bound_from_width(ccw: int) -> RamseyAnswer:
    """Ramsey answer bounding the induced-star size of a graph with the given
    clique cover width: targets are ccw-1 threes and one four, and the caller
    reads s(G) <= answer - 1.  A width of MAX_VERTICES or more, which no
    graph the tool reads can have, is rejected before the targets are built."""
    if not 1 <= ccw < MAX_VERTICES:
        raise InvalidArgumentError(f"clique cover width must be in 1..{MAX_VERTICES - 1} for the star bound")
    return ramsey_lookup((3,) * (ccw - 1) + (4,))


# ---------------------------------------------------------------------------
# exhaustive verification

# Triangle-free 2-coloring witnesses: color-1 edges of the graph listed, all
# other pairs color 2.  The K5 witness is the 5-cycle; the K8 witness is the
# circulant with offsets {1, 4} (triangle-free, independence number 3, so its
# complement holds no K4).
_K5_WITNESS = [(i, (i + 1) % 5) for i in range(5)]
_K8_WITNESS = [(i, (i + 1) % 8) for i in range(8)] + [(i, (i + 4) % 8) for i in range(4)]
_WITNESSES = {(3, 3): _K5_WITNESS, (3, 4): _K8_WITNESS}  # each on R - 1 vertices


@dataclass(frozen=True)
class RamseyVerification:
    targets: tuple[int, ...]
    claimed: int
    lower_verified: bool
    upper_verified: bool
    notes: tuple[str, ...] = ()

    @property
    def confirmed(self) -> bool:
        return self.lower_verified and self.upper_verified


def _witness_avoids(n: int, color1_edges: list, sizes: tuple[int, int]) -> bool:
    """True iff the color-1 graph has no K_s and its complement no K_t, for
    (s, t) = sizes."""
    g = build_graph(n, color1_edges)
    full = g.full_mask()
    return not (_has_clique(g.adj, full, sizes[0]) or _has_clique(complement(g).adj, full, sizes[1]))


def good_colorings(n: int, sizes: tuple[int, int]) -> list[tuple[int, ...]]:
    """Every 2-coloring of K_n with no color-1 K_s and no color-2 K_t, for
    (s, t) = sizes, as the adjacency masks of its color-1 graph.

    Grown vertex by vertex: a good coloring of K_{k+1} restricts to a good
    one of K_k, so each good coloring of K_k is extended by every set S of
    its vertices as vertex k's color-1 neighbourhood, except those where S
    holds a color-1 K_{s-1} or the vertices outside S hold a color-2
    K_{t-1}.  The search is exhaustive, so an empty result proves
    R(s, t) <= n."""
    s, t = sizes
    found: list[tuple[int, ...]] = [()]
    for k in range(n):
        below = (1 << k) - 1
        grown = []
        for adj in found:
            other = [below & ~a & ~(1 << i) for i, a in enumerate(adj)]
            for nb in range(1 << k):
                if _has_clique(adj, nb, s - 1) or _has_clique(other, below & ~nb, t - 1):
                    continue
                grown.append(tuple(a | (nb >> i & 1) << k for i, a in enumerate(adj)) + (nb,))
        found = grown
    return found


def _has_clique(adj, mask: int, size: int) -> bool:
    """True iff the vertices in mask hold a clique of `size` vertices."""
    if size <= 1:
        return size <= 0 or mask != 0
    while mask.bit_count() >= size:
        low = mask & -mask
        mask ^= low
        if _has_clique(adj, mask & adj[low.bit_length() - 1], size - 1):
            return True
    return False


def verify_ramsey_tiny(targets) -> RamseyVerification:
    """Independently confirm a small Ramsey value.

    (3,3) and (3,4): the lower bound from the stored witness coloring of
    K5 or K8, the upper bound by exhaustive vertex-by-vertex extension
    (good_colorings finds no good coloring of K6 or K9; K9 takes a few
    seconds, through the 17,640 good colorings of K8).  Single targets
    verify trivially.
    """
    ts = tuple(sorted(targets))
    answer = ramsey_lookup(ts)
    if answer.kind != "exact":
        raise LimitExceededError(f"no exact value to verify for targets {ts}")
    reduced = normalize_targets(ts) if 1 not in ts else ()
    if 1 in ts or not reduced or len(reduced) == 1:
        note = "trivial by reduction: a single effective target"
        return RamseyVerification(ts, answer.value, True, True, (note,))

    if reduced in _WITNESSES:
        r = answer.value
        if not _witness_avoids(r - 1, _WITNESSES[reduced], reduced):
            return RamseyVerification(ts, r, False, False, (f"stored K{r - 1} witness failed",))
        found = good_colorings(r, reduced)
        if found:
            note = f"K{r} coloring with color-1 edges {Graph(r, found[0]).edges()} avoids both cliques"
            return RamseyVerification(ts, r, True, False, (note,))
        return RamseyVerification(ts, r, True, True)

    raise LimitExceededError(f"exhaustive verification not feasible for targets {ts}")


# ---------------------------------------------------------------------------
# intersection bound

@dataclass(frozen=True)
class IntersectionVerdict:
    testable: bool
    passed: bool | None
    star_size: int
    factor_star_sizes: tuple[int, ...]
    targets: tuple[int, ...]
    answer: RamseyAnswer


def check_intersection_bound(g: Graph, factors) -> IntersectionVerdict:
    """Check s(g) < R(s(H_1)+1, ..., s(H_d)+1) for g the intersection of the
    factors.  Untestable (passed=None) when the Ramsey value is not known
    exactly."""
    factors = list(factors)
    if not factors:
        raise NotAnIntersectionError("need at least one factor")
    for h in factors:
        if h.n != g.n:
            raise NotAnIntersectionError("factor vertex sets must match the graph")
    for v in range(g.n):
        inter = factors[0].adj[v]
        for h in factors[1:]:
            inter &= h.adj[v]
        if inter != g.adj[v]:
            raise NotAnIntersectionError(
                f"factor edge-set intersection differs from the graph at vertex {v}"
            )
    s_g, _ = largest_induced_star(g)
    factor_sizes = tuple(largest_induced_star(h)[0] for h in factors)
    targets = tuple(s + 1 for s in factor_sizes)
    answer = ramsey_lookup(targets)
    if answer.kind != "exact":
        return IntersectionVerdict(False, None, s_g, factor_sizes, targets, answer)
    return IntersectionVerdict(True, s_g <= answer.value - 1, s_g, factor_sizes, targets, answer)
