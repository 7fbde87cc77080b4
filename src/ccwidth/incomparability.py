"""Greedy layered clique covers on incomparability graphs.

Given a transitive orientation of the complement of g, layering vertices by
longest-path depth yields an ordered clique cover C of g whose width W
satisfies s(g) - 1 >= W >= ceil(s(g)/2) - 1, where s(g) is the largest
induced-star leaf count.  Walking an arc chain back from a width-realizing
edge extracts a star certificate with exactly W + 1 leaves, which is what
makes the greedy cover a two-sided estimate of the clique cover width.
Every answer is checked against g; a passed-in orientation gets O(n) arc
checks, and its transitivity is tested only when its cover or star fails.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import reduce
from itertools import compress
from operator import and_, or_

from .covers import OrderedCliqueCover, cover_width
from .errors import (
    CertificateExtractionError,
    CyclicOrientationError,
    NotIncomparabilityError,
    NotTransitiveError,
)
from .graphs import Graph, bits, complement, mask_of
from .oracles import (
    Orientation,
    StarCertificate,
    find_transitive_orientation,
    validate_star,
    verify_transitive,
)


@dataclass(frozen=True)
class LayeredCover:
    cover: OrderedCliqueCover


@dataclass(frozen=True)
class ApproxResult:
    lower: int
    upper: int
    witness_cover: OrderedCliqueCover
    witness_star: StarCertificate


def greedy_layered_cover(orientation: Orientation, *, check: bool = True) -> LayeredCover:
    """Layer vertices of the oriented complement by longest path ending at
    each vertex (sources are layer 0); each layer is an antichain, hence a
    clique in the target graph.

    Each round takes the sources among the unplaced vertices as the next
    layer.  A vertex is OR-ed into the round's union of successor masks
    once per round it stays unplaced, which is at most 1 + its number of
    predecessors on a transitive orientation, so the mask work is
    O(|V| + |arcs|); the flags list lets that union be a C-level pass.
    """
    if check and not verify_transitive(orientation):
        raise NotTransitiveError("orientation is not transitive")
    succ = orientation.succ
    n = orientation.n
    layers: list[tuple[int, ...]] = []
    unplaced = (1 << n) - 1
    flags = [1] * n  # flags[v] = 1 while v is unplaced
    while unplaced:
        layer = unplaced & ~reduce(or_, compress(succ, flags), 0)
        if not layer:
            raise CyclicOrientationError("orientation contains a directed cycle")
        members = tuple(bits(layer))
        for v in members:
            flags[v] = 0
        layers.append(members)
        unplaced ^= layer
    return LayeredCover(OrderedCliqueCover(tuple(layers)))


def extract_star_certificate(
    g: Graph, orientation: Orientation, lc: LayeredCover
) -> StarCertificate:
    """Star certificate with exactly W + 1 leaves from a width-realizing edge.

    Picks the lexicographically smallest (i, j, a, b) with a in layer i, b in
    layer j, ab an edge and j - i = W, then walks in-neighbors back from b
    choosing the smallest vertex in each intermediate layer.  cover_width
    measures W, and raises unless the layers are a clique cover of g.
    """
    layers = lc.cover.parts  # ascending within each layer
    width = cover_width(g, lc.cover)
    if width == 0:
        for u in range(g.n):
            for v in g.neighbors(u):
                return StarCertificate(u, (v,))
        return StarCertificate(0 if g.n else -1, (), degenerate=True)

    for i in range(len(layers) - width):
        far = mask_of(layers[i + width])
        a = next((a for a in layers[i] if g.adj[a] & far), None)
        if a is not None:
            break
    else:
        raise CertificateExtractionError("no edge realizes the cover width")
    reach = g.adj[a] & far
    j, b = i + width, (reach & -reach).bit_length() - 1

    succ = orientation.succ
    chain = [b]
    current = b
    for t in range(j - 1, i - 1, -1):
        tail = next((w for w in layers[t] if succ[w] >> current & 1), None)
        if tail is None:
            raise CertificateExtractionError(
                f"no layer-{t} in-neighbor of vertex {current}; orientation does not "
                "match the graph's complement"
            )
        current = tail
        chain.append(current)

    cert = StarCertificate(a, tuple(sorted(chain)))
    if not validate_star(g, cert):
        raise CertificateExtractionError("extracted certificate fails the star invariants")
    return cert


def approximate_ccw(g: Graph, orientation: Orientation | None = None) -> ApproxResult:
    """Two-sided clique cover width estimate on an incomparability graph.

    upper is the greedy cover width W, read off the extracted star, which
    has W + 1 leaves; lower is ceil((W+1)/2) - 1.  Guarantees
    lower <= CCW(g) <= upper and upper <= 2 * CCW(g) + 1.  Every answer is
    checked (cover_width proves upper, validate_star the star), so a
    passed-in orientation is tested for transitivity only on a failure.
    """
    if orientation is None:
        # transitive, and exactly the complement's edges, by construction
        orientation = find_transitive_orientation(complement(g))
        if orientation is None:
            raise NotIncomparabilityError("complement admits no transitive orientation")
    elif orientation.n != g.n:
        raise CertificateExtractionError(
            f"orientation has {orientation.n} vertices, the graph has {g.n}"
        )
    # no arc is an edge of g and there are |E(complement)| of them; then a
    # layering that succeeds proves each non-edge is oriented exactly once,
    # as a loop or an antiparallel pair leaves a cycle.  Equal arc sets with
    # a wrong count hold an antiparallel pair, so _refuse always raises here
    elif (
        any(map(and_, orientation.succ, g.adj))
        or sum(map(int.bit_count, orientation.succ)) != g.n * (g.n - 1) // 2 - g.edge_count()
    ):
        _refuse(g, orientation)
    try:
        lc = greedy_layered_cover(orientation, check=False)
        cert = extract_star_certificate(g, orientation, lc)
    except (CyclicOrientationError, CertificateExtractionError):
        _refuse(g, orientation)
        raise
    leaves = cert.leaf_count
    lower = max(0, -(-leaves // 2) - 1)
    return ApproxResult(lower, leaves - 1, lc.cover, cert)


def _refuse(g: Graph, orientation: Orientation) -> None:
    """Raise if the arcs are not exactly the complement's edges, or not transitive."""
    if orientation.underlying() != complement(g):
        raise CertificateExtractionError("orientation arcs are not exactly the complement's edges")
    if not verify_transitive(orientation):
        raise NotTransitiveError("orientation is not transitive")


# ---------------------------------------------------------------------------
# instance generation

def random_transitive_dag(n: int, density: float, seed: int) -> Orientation:
    """Transitive closure of a random DAG: random linear order, each forward
    arc kept independently with the given probability, then closed."""
    rng = random.Random(seed)
    order = list(range(n))
    rng.shuffle(order)
    direct: list[int] = [0] * n  # bitmask of direct successors
    for p in range(n):
        u = order[p]
        for q in range(p + 1, n):
            if rng.random() < density:
                direct[u] |= 1 << order[q]
    reach = [0] * n
    for p in range(n - 1, -1, -1):
        u = order[p]
        r = direct[u]
        for v in bits(direct[u]):
            r |= reach[v]
        reach[u] = r
    return Orientation(n, tuple(reach))


def random_poset_graph(n: int, density: float, seed: int) -> tuple[Graph, Orientation]:
    """Random incomparability graph with its complement's transitive
    orientation; deterministic per seed."""
    ghat = random_transitive_dag(n, density, seed)
    return complement(ghat.underlying()), ghat
