"""Independent checkers for the outputs of the ccwidth toolkit.

Every function here works on plain data (adjacency bitmasks, lists of parts,
parsed JSON) and shares no code with the package it checks: it never calls
the package's loaders, validators or oracles.  A checker returns quietly on a
correct output and raises CheckError, naming the broken property, otherwise.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations, permutations


class CheckError(Exception):
    """An output of the program does not have a property it must have."""


def adjacency(n: int, edges) -> list[int]:
    """Adjacency bitmasks of the simple graph on 0..n-1 with the given edges."""
    adj = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n) or u == v:
            raise CheckError(f"edge ({u},{v}) is not a pair of distinct vertices of 0..{n - 1}")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def _mask(vertices) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def _members(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _is_clique(adj: list[int], mask: int) -> bool:
    return all(adj[v] | (1 << v) | ~mask == -1 for v in _members(mask))


def _part_masks(n: int, parts) -> list[int]:
    """Part bitmasks after checking that parts partition 0..n-1."""
    seen = 0
    masks = []
    for i, part in enumerate(parts):
        if not part:
            raise CheckError(f"cover part {i} is empty")
        m = 0
        for v in part:
            if not (isinstance(v, int) and 0 <= v < n):
                raise CheckError(f"cover part {i} names vertex {v!r} outside 0..{n - 1}")
            if (seen | m) >> v & 1:
                raise CheckError(f"vertex {v} appears in more than one cover part")
            m |= 1 << v
        seen |= m
        masks.append(m)
    if seen != (1 << n) - 1:
        raise CheckError(f"cover misses vertices {_members(((1 << n) - 1) & ~seen)}")
    return masks


def _width_of_masks(adj: list[int], masks: list[int]) -> int:
    width = 0
    for i, m in enumerate(masks):
        reach = 0
        for v in _members(m):
            reach |= adj[v]
        for j in range(len(masks) - 1, i + width, -1):
            if reach & masks[j]:
                width = j - i
                break
    return width


def clique_cover_width(adj: list[int], parts) -> int:
    """Width of an ordered clique cover, after checking that its parts are
    cliques of the graph that partition its vertex set."""
    masks = _part_masks(len(adj), parts)
    for i, m in enumerate(masks):
        if not _is_clique(adj, m):
            raise CheckError(f"cover part {i} is not a clique of the graph")
    return _width_of_masks(adj, masks)


def check_star(adj: list[int], center: int, leaves, leaf_count: int) -> None:
    """The star is induced (center adjacent to every leaf, leaves pairwise
    non-adjacent) and has exactly leaf_count leaves."""
    n = len(adj)
    if len(set(leaves)) != len(leaves) or len(leaves) != leaf_count:
        raise CheckError(f"star has {len(set(leaves))} distinct leaves, expected {leaf_count}")
    if not 0 <= center < n or any(not 0 <= v < n for v in leaves) or center in leaves:
        raise CheckError("star names a vertex outside the graph or uses its center as a leaf")
    lm = _mask(leaves)
    if adj[center] & lm != lm:
        raise CheckError("star center is not adjacent to every leaf")
    if any(adj[v] & lm for v in leaves):
        raise CheckError("star leaves are not pairwise non-adjacent: the star is not induced")


def check_greedy(adj: list[int], results: dict, cover: dict, star: dict) -> None:
    """Greedy report [lower, upper] against its cover and star witnesses:
    the cover realises upper, the star has upper + 1 leaves (so upper <= s - 1),
    and lower = ceil((upper + 1) / 2) - 1."""
    upper, lower = results["upper"], results["lower"]
    width = clique_cover_width(adj, cover["parts"])
    if width != upper:
        raise CheckError(f"greedy cover has width {width}, report says upper = {upper}")
    check_star(adj, star["center"], star["leaves"], upper + 1)
    if lower != max(0, -(-(upper + 1) // 2) - 1):
        raise CheckError(f"lower = {lower} is not ceil((upper + 1) / 2) - 1 for upper = {upper}")


def check_induced_c5(adj: list[int], cycle) -> None:
    """The five vertices induce exactly the cycle c0 c1 c2 c3 c4."""
    if len(set(cycle)) != 5:
        raise CheckError("planted cycle does not have five distinct vertices")
    cm = _mask(cycle)
    for i, v in enumerate(cycle):
        want = (1 << cycle[i - 1]) | (1 << cycle[(i + 1) % 5])
        if adj[v] & cm != want:
            raise CheckError(f"planted cycle is not induced at vertex {v}")


def largest_star(adj: list[int]) -> int:
    """Leaf count of a largest induced star (1 on graphs with at most two
    vertices, as the toolkit defines it), by exhaustive independent-set search
    in each open neighbourhood."""
    if len(adj) <= 2:
        return 1

    def mis(mask: int) -> int:
        if not mask:
            return 0
        v = (mask & -mask).bit_length() - 1
        rest = mask & ~(1 << v)
        return max(1 + mis(rest & ~adj[v]), mis(rest)) if adj[v] & rest else 1 + mis(rest)

    return max(mis(a) for a in adj)


def cover_of_width_exists(adj: list[int], w: int) -> bool:
    """Whether some ordered clique cover has width at most w, by exhaustive
    search with memoisation on (uncovered vertices, last w parts)."""
    n = len(adj)
    full = (1 << n) - 1
    if w == 0:
        return all(_is_clique(adj, c) for c in _components(adj))
    seen: set = set()

    def cliques(base: int, cands: int):
        yield base
        for v in _members(cands):
            yield from cliques(base | (1 << v), cands & adj[v] & ~((2 << v) - 1))

    def grow(remaining: int, window: tuple[int, ...]) -> bool:
        if not remaining:
            return True
        if (remaining, window) in seen:
            return False
        seen.add((remaining, window))
        # the part leaving the window must have all its neighbours placed
        # once the next part is placed, so they all join the next part
        forced = 0
        if len(window) == w:
            for v in _members(window[0]):
                forced |= adj[v]
            forced &= remaining
        if forced:
            if not _is_clique(adj, forced):
                return False
            cands = remaining & ~forced
            for v in _members(forced):
                cands &= adj[v]
            nexts = cliques(forced, cands)
        else:
            nexts = (
                part
                for v in _members(remaining)
                for part in cliques(1 << v, remaining & adj[v] & ~((2 << v) - 1))
            )
        return any(grow(remaining & ~part, (window + (part,))[-w:]) for part in nexts)

    return grow(full, ())


def _components(adj: list[int]) -> list[int]:
    left = (1 << len(adj)) - 1
    out = []
    while left:
        comp = left & -left
        frontier = comp
        while frontier:
            nxt = 0
            for v in _members(frontier):
                nxt |= adj[v]
            frontier = nxt & ~comp
            comp |= frontier
        left &= ~comp
        out.append(comp)
    return out


def clique_partitions(adj: list[int]):
    """Every partition of the vertex set into cliques, as lists of masks."""

    def rec(remaining: int, parts: list[int]):
        if not remaining:
            yield list(parts)
            return
        low = remaining & -remaining
        v = low.bit_length() - 1
        cands = remaining & adj[v]

        def extend(base: int, cands: int):
            yield base
            for u in _members(cands):
                yield from extend(base | (1 << u), cands & adj[u] & ~((2 << u) - 1))

        for part in extend(low, cands):
            parts.append(part)
            yield from rec(remaining & ~part, parts)
            parts.pop()

    yield from rec((1 << len(adj)) - 1, [])


def ordered_cover_census(adj: list[int]) -> tuple[int, int]:
    """(number of ordered clique covers, minimum width over them), by trying
    every order of every clique partition.  Only for graphs of a few vertices."""
    count = 0
    best = len(adj)
    for parts in clique_partitions(adj):
        for order in permutations(parts):
            count += 1
            best = min(best, _width_of_masks(adj, list(order)))
    return count, best


def check_exact(adj: list[int], ccw: int, parts, *, prove_optimal: bool) -> None:
    """The witness cover realises ccw, and, when prove_optimal is set, no
    ordered clique cover has a smaller width."""
    width = clique_cover_width(adj, parts)
    if width != ccw:
        raise CheckError(f"exact witness has width {width}, report says ccw = {ccw}")
    if prove_optimal and ccw > 0 and cover_of_width_exists(adj, ccw - 1):
        raise CheckError(f"a cover of width {ccw - 1} exists, so ccw = {ccw} is not optimal")


def check_bounds(ccw: int, star_leaves: int, *, udim: int | None = None) -> None:
    """ccw >= ceil(s/2) - 1 and, when given, Udim <= ccw (the decomposition
    theorem; a clique has Udim 1 and ccw 0)."""
    if ccw < -(-star_leaves // 2) - 1:
        raise CheckError(f"ccw = {ccw} is below ceil(s/2) - 1 for s = {star_leaves}")
    if udim is not None and udim > max(ccw, 1):
        raise CheckError(f"Udim = {udim} exceeds ccw = {ccw}")


def check_transitive(n: int, arcs) -> int:
    """Check that the arcs are loop-free, antisymmetric and transitive;
    returns the number of distinct arcs."""
    succ = [0] * n
    for u, v in arcs:
        if not (0 <= u < n and 0 <= v < n) or u == v:
            raise CheckError(f"arc ({u},{v}) is a loop or leaves the vertex set")
        succ[u] |= 1 << v
    for u in range(n):
        for v in _members(succ[u]):
            if succ[v] >> u & 1:
                raise CheckError(f"arcs {u}->{v} and {v}->{u} both present")
            if succ[v] & ~succ[u]:
                raise CheckError(f"orientation is not transitive at {u}->{v}")
    return sum(s.bit_count() for s in succ)


def check_decomposition(adj: list[int], cover_parts, factors: list[dict]) -> None:
    """A width-W decomposition of the graph: W factors (one when W = 0), each
    a supergraph of G, whose edge sets intersect to exactly E(G); every
    co-bipartite factor's complement is bipartite between its stated sides;
    the one terminal factor's complement is oriented transitively by the
    stated arcs, and its block cover has width at most 1.

    Each factor is a dict with 'kind', 'adj' (bitmasks), and 'bipartition',
    'arcs' and 'blocks' as the decomposition states them (None if absent).
    """
    n = len(adj)
    full = (1 << n) - 1
    width = clique_cover_width(adj, cover_parts)
    if len(factors) != max(width, 1):
        raise CheckError(f"{len(factors)} factors for a cover of width {width}")
    inter = [full & ~(1 << v) for v in range(n)]
    for idx, f in enumerate(factors):
        fadj = f["adj"]
        if len(fadj) != n:
            raise CheckError(f"factor {idx} has {len(fadj)} vertices, expected {n}")
        for v in range(n):
            if adj[v] & ~fadj[v]:
                raise CheckError(f"factor {idx} does not contain G: edge at vertex {v} missing")
            inter[v] &= fadj[v]
    if inter != list(adj):
        raise CheckError("the factors' edge sets do not intersect to exactly E(G)")
    terminals = [f for f in factors if f["kind"] == "terminal"]
    if len(terminals) != 1 or factors[-1]["kind"] != "terminal":
        raise CheckError("expected exactly one terminal factor, placed last")
    for idx, f in enumerate(factors[:-1]):
        if f["kind"] != "co_bipartite" or not f["bipartition"]:
            raise CheckError(f"factor {idx} is not a co-bipartite factor with a bipartition")
        sides = _part_masks(n, f["bipartition"])
        if len(sides) != 2:
            raise CheckError(f"factor {idx} bipartition has {len(sides)} sides")
        for side in sides:
            if not _is_clique(f["adj"], side):
                raise CheckError(f"factor {idx}: a side of its bipartition is not a clique")
    t = terminals[0]
    tadj = t["adj"]
    arcs = t["arcs"] or []
    if check_transitive(n, arcs) != sum((full & ~a & ~(1 << v)).bit_count() for v, a in enumerate(tadj)) // 2:
        raise CheckError("terminal orientation does not orient every complement edge once")
    for u, v in arcs:
        if tadj[u] >> v & 1:
            raise CheckError(f"terminal arc {u}->{v} is an edge of the terminal factor")
    if t["blocks"] is None or clique_cover_width(tadj, t["blocks"]) > 1:
        raise CheckError("terminal block cover is missing or wider than 1")


def factors_from_json(obj: dict, n: int) -> list[dict]:
    """Factor dicts for check_decomposition from a parsed decomposition.json."""
    out = []
    for fo in obj["factors"]:
        g = fo["graph"]
        if g["n"] != n:
            raise CheckError(f"factor graph has n = {g['n']}, expected {n}")
        ori = fo.get("orientation")
        out.append({
            "kind": fo["kind"],
            "adj": adjacency(g["n"], g["edges"]),
            "bipartition": fo.get("bipartition"),
            "arcs": ori["arcs"] if ori else None,
            "blocks": fo.get("blocks"),
        })
    return out


def dot_edges(text: str) -> list[int]:
    """Adjacency bitmasks of a DOT 'graph { v; ... u -- v; }' witness file."""
    vertices = 0
    edges = []
    for line in text.splitlines():
        line = line.strip().rstrip(";")
        if "--" in line:
            u, v = line.split("--")
            edges.append((int(u), int(v)))
        elif line.isdigit():
            vertices = max(vertices, int(line) + 1)
    return adjacency(vertices, edges)


@cache
def ramsey_3_3() -> int:
    """R(3,3): the least N such that every red/blue colouring of K_N has a
    one-coloured triangle, by trying every colouring of K_N for N = 3, 4, ..."""
    n = 3
    while True:
        pairs = list(combinations(range(n), 2))
        index = {p: k for k, p in enumerate(pairs)}
        triangles = [
            (1 << index[(a, b)]) | (1 << index[(a, c)]) | (1 << index[(b, c)])
            for a, b, c in combinations(range(n), 3)
        ]
        if all(
            any(red & t in (0, t) for t in triangles) for red in range(1 << len(pairs))
        ):
            return n
        n += 1
