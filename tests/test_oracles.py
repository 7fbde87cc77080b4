import random
import time
from itertools import combinations, permutations
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.strategies import composite

from ccwidth import (
    OrderedCliqueCover,
    Orientation,
    StarCertificate,
    bandwidth_exact,
    build_graph,
    clique_cover_width_exact,
    complement,
    components,
    cover_width,
    enumerate_ordered_covers,
    find_transitive_orientation,
    induced_subgraph,
    is_unit_incomparability,
    largest_induced_star,
    unit_intersection_dimension,
    validate_cover,
    validate_star,
    verify_transitive,
)
from ccwidth.errors import InvalidArgumentError, LimitExceededError
from ccwidth.generators import (
    complete_graph,
    cycle_graph,
    grid_graph,
    path_graph,
    random_cobipartite,
    random_connected_graph,
    remark_three_cliques_graph,
    star_graph,
)
from ccwidth import oracles
from ccwidth.graphs import bits, is_connected, mask_of
from ccwidth.incomparability import random_poset_graph
from ccwidth.limits import BANDWIDTH_LIMITS, CCW_LIMITS, Budget, SearchLimits
from ccwidth.oracles import _cliques_containing

from conftest import graphs


def two_triangles_cross():
    """Co-bipartite non-clique: two triangles joined by one edge."""
    edges = [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (0, 3)]
    return build_graph(6, edges)


# ---------------------------------------------------------------------------
# largest induced star

def test_star_grid():
    assert largest_induced_star(grid_graph(4, 4))[0] == 4


def test_star_of_star():
    size, cert = largest_induced_star(star_graph(5))
    assert size == 5 and cert.center == 0 and len(cert.leaves) == 5


def test_star_clique():
    assert largest_induced_star(complete_graph(5))[0] == 1


def test_star_tiny_graphs():
    size, cert = largest_induced_star(build_graph(2, [(0, 1)]))
    assert size == 1 and not cert.degenerate
    size, cert = largest_induced_star(build_graph(1, []))
    assert size == 1 and cert.degenerate
    for n in (3, 5):
        size, cert = largest_induced_star(build_graph(n, []))
        assert size == 1 and cert.degenerate


def test_star_certificate_validates():
    for g in (grid_graph(3, 3), star_graph(4), cycle_graph(6), two_triangles_cross()):
        size, cert = largest_induced_star(g)
        assert validate_star(g, cert)
        assert len(cert.leaves) == size


def test_star_certificate_with_a_vertex_outside_the_graph_is_invalid():
    p3 = path_graph(3)  # 0-1-2: adj[-1] would read vertex 2's row
    assert validate_star(p3, StarCertificate(1, (0, 2)))
    assert not validate_star(p3, StarCertificate(-1, (1,)))
    assert not validate_star(p3, StarCertificate(1, (0, -2)))
    assert not validate_star(p3, StarCertificate(1, (0, 3)))
    assert not validate_star(p3, StarCertificate(1, (0, 2, 2)))  # P3's largest star has 2 leaves
    assert not validate_star(build_graph(0, ()), StarCertificate(-1, ()))


def ref_max_independent_set(adj, mask):
    """The recursive branch and bound the explicit-stack search replaced:
    pivot of highest degree within the mask, include-branch first."""
    best_size = 0
    best_set = 0

    def go(mask, chosen, size):
        nonlocal best_size, best_set
        if size + mask.bit_count() <= best_size:
            return
        if mask == 0:
            best_size, best_set = size, chosen
            return
        pivot = -1
        pivot_deg = -1
        free = 0
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


def every_graph(n):
    pairs = list(combinations(range(n), 2))
    for code in range(1 << len(pairs)):
        yield build_graph(n, [p for k, p in enumerate(pairs) if code >> k & 1])


def test_mis_matches_brute_force_alpha_on_every_graph_up_to_six_vertices():
    count = 0
    for n in range(7):
        for g in every_graph(n):
            independent = [True] * (1 << n)  # by subset mask, from the subset without its lowest vertex
            for s in range(1, 1 << n):
                low = (s & -s).bit_length() - 1
                independent[s] = independent[s & (s - 1)] and not g.adj[low] & s
            alpha = max(s.bit_count() for s in range(1 << n) if independent[s])
            full = g.full_mask()
            found = oracles._max_independent_set(g.adj, full)
            assert found == ref_max_independent_set(g.adj, full)
            assert found[0] == alpha and independent[found[1]] and found[1].bit_count() == alpha
            count += 1
    assert count == 1 + 1 + 2 + 8 + 64 + 1024 + 32768


# ---------------------------------------------------------------------------
# exact clique cover width

def test_ccw_clique():
    assert clique_cover_width_exact(complete_graph(4))[0] == 0


def test_ccw_remark_graph():
    limits = SearchLimits(max_n=12)
    width, cover = clique_cover_width_exact(remark_three_cliques_graph(), limits)
    assert width == 1
    assert validate_cover(remark_three_cliques_graph(), cover).valid


def test_ccw_star_against_enumeration_oracle():
    g = star_graph(5)
    brute = min(
        cover_width(g, c) for c in enumerate_ordered_covers(g)
    )
    width, cover = clique_cover_width_exact(g)
    assert width == brute == 2
    assert cover_width(g, cover) == 2


def test_ccw_cobipartite():
    assert clique_cover_width_exact(two_triangles_cross())[0] == 1


def test_ccw_disconnected_takes_max():
    g = build_graph(9, [(0, 1)] + [(2 + i, 3 + i) for i in range(0, 6)])
    # component {0,1} is K2 (ccw 0); component 2..8 is P7 (ccw 1 via singletons? no: path needs pairs)
    width, cover = clique_cover_width_exact(g, SearchLimits(max_n=12))
    assert validate_cover(g, cover).valid
    assert cover_width(g, cover) == width


def test_ccw_limit():
    with pytest.raises(LimitExceededError):
        clique_cover_width_exact(complete_graph(CCW_LIMITS.max_n + 1))


@given(graphs(min_n=1, max_n=6))
@settings(max_examples=40, deadline=None)
def test_ccw_matches_enumeration(g):
    brute = min(cover_width(g, c) for c in enumerate_ordered_covers(g))
    width, cover = clique_cover_width_exact(g)
    assert width == brute
    assert validate_cover(g, cover).valid
    assert cover_width(g, cover) == width


@given(graphs(max_n=7))
@settings(max_examples=40, deadline=None)
def test_ccw_zero_iff_cliques(g):
    from ccwidth import components, induced_subgraph

    width, _ = clique_cover_width_exact(g)
    all_cliques = True
    for comp in components(g):
        sub, _ = induced_subgraph(g, comp)
        if sub.edge_count() != sub.n * (sub.n - 1) // 2:
            all_cliques = False
    assert (width == 0) == all_cliques


# ---------------------------------------------------------------------------
# unit incomparability

def test_unit_cobipartite():
    assert is_unit_incomparability(two_triangles_cross())


def test_unit_c4():
    assert is_unit_incomparability(cycle_graph(4))


def test_unit_star_false():
    assert not is_unit_incomparability(star_graph(5))


def test_unit_star_bound():
    # any graph with ccw <= 1 has at most 3 star leaves
    for seed in range(30):
        g = random_connected_graph(7, 0.4, seed)
        if clique_cover_width_exact(g)[0] <= 1:
            assert largest_induced_star(g)[0] <= 3


def test_cobipartite_star_bound():
    for seed in range(30):
        g = random_cobipartite(8, 0.4, seed)
        assert largest_induced_star(g)[0] <= 2


# ---------------------------------------------------------------------------
# differential references for the one ordered-cover search: bandwidth's own
# placement search and the exact ccw with its w == 0 branch and the paper's
# ceil(s/2) - 1 start, which the search with one-vertex parts and the
# s // 2 start replaced


def ref_bandwidth_exact(g, limits=BANDWIDTH_LIMITS):
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
        witness = ref_place_with_width(g, w, budget)
        if witness is not None:
            return w, witness
    return 0, tuple(range(n))  # n == 1 or edgeless falls out of the loop at w = 0


def ref_place_with_width(g, w, budget):
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


def ref_cover_with_width_at_most(g, w, budget):
    """First ordered clique cover of width <= w in canonical order, as a
    tuple of part bitmasks, or None if none exists.

    Key pruning: once part i is placed, part i-w may not have neighbors among
    the still-uncovered vertices, so those neighbors are forced into part i.
    """
    if g.n == 0:
        return ()
    if w == 0:
        parts = []
        for comp in components(g):
            cm = mask_of(comp)
            for v in comp:
                if g.adj[v] & cm != cm & ~(1 << v):
                    return None
            parts.append(cm)
        return tuple(parts)
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
        for part in _cliques_containing(adj, remaining, required):
            found = rec(remaining & ~part, parts + (part,))
            if found is not None:
                return found
        return None

    return rec(g.full_mask(), ())


def ref_clique_cover_width_exact(g, limits=CCW_LIMITS):
    """Minimum width over all ordered clique covers, with an optimal witness.

    Disconnected graphs take the maximum over components; the witness is the
    concatenation of per-component witnesses (no cross edges, so the width is
    unaffected).
    """
    limits.check_n(g.n)
    budget = Budget(limits)
    width = 0
    all_parts: list[tuple[int, ...]] = []
    for comp in components(g):
        sub, back = induced_subgraph(g, comp)
        star_size, _ = largest_induced_star(sub)
        lower = max(0, -(-star_size // 2) - 1)
        comp_width = sub.n  # unreachable sentinel
        for w in range(lower, max(sub.n, 1)):
            parts = ref_cover_with_width_at_most(sub, w, budget)
            if parts is not None:
                comp_width = w
                all_parts.extend(tuple(sorted(back[v] for v in bits(p))) for p in parts)
                break
        width = max(width, comp_width)
    return width, OrderedCliqueCover(tuple(all_parts))


@composite
def mixed_graphs(draw, max_n=9):
    """A random graph plus clique components (size 1: isolated vertices),
    at most max_n vertices in all, relabelled at random."""
    core = draw(graphs(max_n=max_n))
    n, edges = core.n, list(core.edges())
    for k in draw(st.lists(st.integers(min_value=1, max_value=4), max_size=4)):
        if n + k > max_n:
            break
        edges += [(n + i, n + j) for i in range(k) for j in range(i + 1, k)]
        n += k
    label = draw(st.permutations(range(n)))
    return build_graph(n, [(label[u], label[v]) for u, v in edges])


def counted(fn, g):
    """fn(g) and the Budget ticks it spent, with Budget swapped for a
    counting subclass in ccwidth.oracles and in this module (the
    references' Budget) while it runs."""
    ticks = [0]

    class Counting(Budget):
        def tick(self, cost=1):
            ticks[0] += cost
            super().tick(cost)

    with mock.patch.object(oracles, "Budget", Counting), mock.patch.dict(globals(), Budget=Counting):
        result = fn(g)
    return result, ticks[0]


@given(mixed_graphs())
@settings(max_examples=150, deadline=None)
def test_bandwidth_matches_placement_reference_tick_for_tick(g):
    found, ticks = counted(bandwidth_exact, g)
    ref, ref_ticks = counted(ref_bandwidth_exact, g)
    assert found == ref
    assert ticks <= ref_ticks


@given(mixed_graphs())
@settings(max_examples=150, deadline=None)
def test_ccw_matches_parent_reference_with_no_more_ticks(g):
    found, ticks = counted(clique_cover_width_exact, g)
    ref, ref_ticks = counted(ref_clique_cover_width_exact, g)
    assert found == ref
    assert ticks <= ref_ticks
    assert is_unit_incomparability(g) == (ref[0] <= 1)


def test_look_ahead_cuts_nodes_on_the_three_by_three_grid():
    # same witnesses with fewer nodes: 99 -> 14 for bandwidth, 30 -> 6 for ccw
    g = grid_graph(3, 3)
    found, ticks = counted(bandwidth_exact, g)
    ref, ref_ticks = counted(ref_bandwidth_exact, g)
    assert found == ref and ticks < ref_ticks
    found, ticks = counted(clique_cover_width_exact, g)
    ref, ref_ticks = counted(ref_clique_cover_width_exact, g)
    assert found == ref and ticks < ref_ticks


@pytest.mark.parametrize("n", [12, 13, 14])
def test_ccw_matches_the_plain_search_on_desk_graphs(n):
    limits = SearchLimits(max_n=16)
    for seed in range(7):
        g = random_connected_graph(n, 0.3, seed)
        found, ticks = counted(lambda h: clique_cover_width_exact(h, limits), g)
        ref, ref_ticks = counted(lambda h: ref_clique_cover_width_exact(h, limits), g)
        assert found == ref and ticks <= ref_ticks, seed


def test_time_budget_bounds_the_cut_candidates():
    # 8 nodes, so the node count alone never polls the clock, against more
    # than 12,000 cut candidates: only their own poll stops the search
    g, _ = random_poset_graph(20, 0.15, 0)
    with pytest.raises(LimitExceededError, match="time budget"):
        clique_cover_width_exact(g, SearchLimits(max_n=20, time_budget_ms=1))


@given(mixed_graphs())
@settings(max_examples=100, deadline=None)
def test_star_bound_holds(g):
    # s pairwise non-adjacent leaves in distinct parts within w of the
    # center's part: s <= 2w + 1
    assert largest_induced_star(g)[0] // 2 <= clique_cover_width_exact(g)[0]


def test_star_bound_is_tight_on_stars():
    for k in range(1, 8):
        assert largest_induced_star(star_graph(k))[0] == k
        assert clique_cover_width_exact(star_graph(k))[0] == k // 2


# ---------------------------------------------------------------------------
# transitive orientation

def test_verify_transitive_cases():
    assert verify_transitive(Orientation.from_arcs(3, {(0, 1), (1, 2), (0, 2)}))
    assert not verify_transitive(Orientation.from_arcs(3, {(0, 1), (1, 2)}))
    assert not verify_transitive(Orientation.from_arcs(2, {(0, 1), (1, 0)}))


def test_orientation_bipartite():
    g = build_graph(5, [(0, 3), (0, 4), (1, 3), (2, 4)])
    o = find_transitive_orientation(g)
    assert o is not None and verify_transitive(o)
    assert o.underlying() == g


def test_orientation_triangle():
    o = find_transitive_orientation(complete_graph(3))
    assert o == Orientation.from_arcs(3, {(0, 1), (1, 2), (0, 2)})


def test_orientation_c5_none_vs_brute():
    c5 = cycle_graph(5)
    assert find_transitive_orientation(c5) is None
    edges = c5.edges()
    found = False
    for code in range(1 << len(edges)):
        arcs = (
            e if code >> k & 1 else (e[1], e[0]) for k, e in enumerate(edges)
        )
        if verify_transitive(Orientation.from_arcs(5, arcs)):
            found = True
    assert not found


@given(graphs(max_n=7))
@settings(max_examples=40, deadline=None)
def test_orientation_sound(g):
    o = find_transitive_orientation(g)
    if o is not None:
        assert verify_transitive(o)
        assert o.underlying() == g


@given(graphs(max_n=6))
@settings(max_examples=200, deadline=None)
def test_orientation_none_exactly_when_brute_force_finds_none(g):
    edges = g.edges()
    brute = any(
        verify_transitive(
            Orientation.from_arcs(g.n, (e if code >> k & 1 else e[::-1] for k, e in enumerate(edges)))
        )
        for code in range(1 << len(edges))
    )
    assert (find_transitive_orientation(g) is not None) == brute


def ref_find_transitive_orientation(g, limits=SearchLimits(max_n=16)):
    """The backtracking recognizer the G-decomposition replaced."""
    limits.check_n(g.n)
    adj = g.adj
    budget = Budget(limits)

    def propagate(succ: list[int], pred: list[int], seed: tuple[int, int]) -> bool:
        stack = [seed]
        while stack:
            u, v = stack.pop()
            if succ[u] >> v & 1:
                continue
            if succ[v] >> u & 1 or not adj[u] >> v & 1:
                return False
            succ[u] |= 1 << v
            pred[v] |= 1 << u
            stack.extend((u, w) for w in bits(succ[v]))
            stack.extend((w, v) for w in bits(pred[u]))
        return True

    frames = [([0] * g.n, [0] * g.n, None)]
    while frames:
        succ, pred, seed = frames.pop()
        if seed is not None:
            succ, pred = list(succ), list(pred)
            if not propagate(succ, pred, seed):
                continue
        budget.tick()
        for u in range(g.n):
            # edges (u, v) with v > u that are not yet oriented either way
            free = adj[u] >> (u + 1) << (u + 1) & ~(succ[u] | pred[u])
            if free:
                v = (free & -free).bit_length() - 1
                # (u, v) is tried first, then (v, u)
                frames.append((succ, pred, (v, u)))
                frames.append((succ, pred, (u, v)))
                break
        else:
            return Orientation(g.n, tuple(succ))
    return None


@given(graphs(max_n=8))
@settings(max_examples=300, deadline=None)
def test_orientation_matches_backtracking_reference(g):
    assert find_transitive_orientation(g) == ref_find_transitive_orientation(g)


@given(
    st.integers(min_value=7, max_value=14),
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(min_value=0, max_value=10**6),
    st.randoms(use_true_random=False),
)
@settings(max_examples=150, deadline=None)
def test_orientation_matches_backtracking_reference_on_posets(n, density, seed, rnd):
    comp = complement(random_poset_graph(n, density, seed)[0])
    label = list(range(n))
    rnd.shuffle(label)
    g = build_graph(n, [(label[u], label[v]) for u, v in comp.edges()])
    o = find_transitive_orientation(g)
    assert o is not None and o == ref_find_transitive_orientation(g)


# ---------------------------------------------------------------------------
# unit intersection dimension

def udim(g):
    """unit_intersection_dimension(g), checked against the star bound
    s(g) <= 3^Udim(g): in each of d width-1 factors every leaf of an
    induced star lies in the centre's part or next to it, and two leaves
    at the same place in every factor are adjacent in g."""
    d = unit_intersection_dimension(g)
    assert largest_induced_star(g)[0] <= 3**d
    return d


def test_udim_clique():
    assert udim(complete_graph(4)) == 1


def test_udim_cobipartite():
    assert udim(two_triangles_cross()) == 1


def test_udim_star():
    assert udim(star_graph(5)) == 2


@pytest.mark.parametrize("k", range(3, 10))
def test_udim_of_a_star_is_its_ternary_leaf_code_length(k):
    # the star bound is tight on stars: a ternary code of the leaves gives
    # ceil(log3 k) factors
    assert udim(star_graph(k)) == min(d for d in range(k) if 3**d >= k)


def test_udim_requires_connected():
    with pytest.raises(InvalidArgumentError):
        unit_intersection_dimension(build_graph(4, [(0, 1), (2, 3)]))


def test_udim_below_ccw():
    for seed in range(25):
        g = random_connected_graph(6, 0.35, seed)
        if g.edge_count() == g.n * (g.n - 1) // 2:
            continue
        assert is_connected(g)
        assert udim(g) <= clique_cover_width_exact(g)[0]
    # 36 graphs at n = 8-10, each with CCW <= 2, where Udim = CCW is forced
    # (Udim = 1 iff CCW <= 1); the slack cases are below
    for n in (8, 9, 10):
        for density in (0.2, 0.35, 0.5):
            for seed in range(4):
                g = random_connected_graph(n, density, seed)
                assert udim(g) <= clique_cover_width_exact(g)[0]


def random_tree(n, seed):
    """Each vertex v > 0 joined to a uniformly drawn earlier vertex."""
    rnd = random.Random(seed)
    return build_graph(n, [(rnd.randrange(v), v) for v in range(1, n)])


@pytest.mark.parametrize(
    "g, ccw",
    [(star_graph(6), 3), (star_graph(9), 4), (random_tree(10, 7), 3), (random_tree(10, 8), 3), (random_tree(10, 11), 3)],
)
def test_udim_is_two_where_ccw_is_higher(g, ccw):
    # star_graph(6) is the first star with slack: Udim 2 against CCW 3
    assert udim(g) == 2 < ccw == clique_cover_width_exact(g)[0]


def test_udim_obeys_the_time_budget():
    # 41,698 ticks: 39,365 blocks in the walk and 2,333 for the nodes the
    # set cover pops and the last-level masks it tests; the clock is polled
    # every 4,096 ticks and after each last-level test
    with pytest.raises(LimitExceededError, match="time budget"):
        unit_intersection_dimension(star_graph(9), SearchLimits(max_n=10, time_budget_ms=1))


def test_udim_stops_within_the_time_budget_at_the_first_dimension_three():
    # star_graph(10) has Udim 3 and takes seconds: the search must stop near
    # its 500 ms budget, with the clock polled through every node it pops
    start = time.monotonic()
    with pytest.raises(LimitExceededError, match="time budget"):
        unit_intersection_dimension(star_graph(10), SearchLimits(max_n=11, time_budget_ms=500))
    assert time.monotonic() - start < 1.5


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


def ref_maximal_masks(masks: set[int], budget: Budget) -> list[int]:
    # quadratic, with no node to tick: the clock is polled once per mask
    ordered = sorted(masks, key=lambda m: (-m.bit_count(), m))
    keep: list[int] = []
    for m in ordered:
        budget.poll()
        if not any(m | k == k for k in keep):
            keep.append(m)
    return keep


def ref_min_set_cover(masks: list[int], full: int, budget: Budget) -> int:
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


def ref_set_cover(coverage: set[int], full: int) -> int:
    """The set cover the iterative deepening replaced: keep the masks that
    lie in no other, then branch and bound from len(masks) + 1 down."""
    masks = ref_maximal_masks(coverage, Budget(SearchLimits()))
    return 1 if full in masks else ref_min_set_cover(masks, full, Budget(SearchLimits()))


@composite
def mask_families(draw):
    """Masks over up to 12 elements, each element in some mask: random
    masks, the leftover elements as singletons, and sometimes a planted
    cover by up to four disjoint blocks, so that minima of 2-4 are common."""
    k = draw(st.integers(1, 12))
    full = (1 << k) - 1
    masks = set(draw(st.lists(st.integers(1, full), max_size=10)))
    if draw(st.booleans()):
        owner = draw(st.lists(st.integers(0, 3), min_size=k, max_size=k))
        masks |= {sum(1 << e for e in range(k) if owner[e] == b) for b in set(owner)}
    covered = 0
    for m in masks:
        covered |= m
    masks |= {1 << e for e in bits(full & ~covered)}
    return masks, full


@given(mask_families())
@settings(max_examples=300, deadline=None)
def test_set_cover_matches_branch_and_bound_reference(family):
    # the minimum d is found at the last level of round d, where masks are
    # tested instead of pushed
    masks, full = family
    found = oracles._min_set_cover(masks, full, Budget(SearchLimits()))
    assert found == ref_min_set_cover(sorted(masks), full, Budget(SearchLimits()))


def ref_unit_intersection_dimension(g):
    """The admissibility loop the quotient-path test replaced: every order
    of every set partition, kept when no edge spans a gap >= 2."""
    edges = g.edges()
    nonedges = complement(g).edges()
    if not nonedges:
        return 1
    coverage = set()
    for blocks in _set_partitions(g.n):
        for order in permutations(range(len(blocks))):
            part_of = [0] * g.n
            for pos, b in enumerate(order):
                for v in blocks[b]:
                    part_of[v] = pos
            if any(abs(part_of[u] - part_of[v]) > 1 for u, v in edges):
                continue
            coverage.add(sum(1 << k for k, (u, v) in enumerate(nonedges) if part_of[u] != part_of[v]))
    return ref_set_cover(coverage, (1 << len(nonedges)) - 1)


def connected_labelled_graphs(n):
    return filter(is_connected, every_graph(n))


def test_udim_matches_permutation_reference_up_to_five_vertices():
    count = 0
    for n in range(1, 6):
        for g in connected_labelled_graphs(n):
            assert udim(g) == ref_unit_intersection_dimension(g)
            count += 1
    assert count == 1 + 1 + 4 + 38 + 728


@given(graphs(min_n=6, max_n=7))
@settings(max_examples=60, deadline=None)
def test_udim_matches_permutation_reference_at_six_and_seven(g):
    if is_connected(g):
        assert udim(g) == ref_unit_intersection_dimension(g)


def ref_quotient_path_udim(g):
    """The oracle the admissible-partition walk replaced: every set
    partition of V, listed vertex by vertex as lists of block masks, kept
    when its quotient graph is a path (k - 1 edges, no degree above 2), with
    tables over all 2^n vertex masks for each block's outside neighbours and
    the non-edges inside it."""
    nonedges = complement(g).edges()
    if not nonedges:
        return 1
    full = (1 << len(nonedges)) - 1
    at = [0] * g.n
    for k, (u, v) in enumerate(nonedges):
        at[u] |= 1 << k
        at[v] |= 1 << k
    inside, touch, outside = [0] * (1 << g.n), [0] * (1 << g.n), [0] * (1 << g.n)
    for s in range(1, 1 << g.n):
        v = (s & -s).bit_length() - 1
        rest = s & (s - 1)
        inside[s] = inside[rest] | at[v] & touch[rest]
        touch[s] = touch[rest] | at[v]
        outside[s] = (outside[rest] | g.adj[v]) & ~s
    partitions = [[]]
    for v in range(g.n):
        b = 1 << v
        joined = [p[:i] + [p[i] | b] + p[i + 1:] for p in partitions for i in range(len(p))]
        partitions = joined + [p + [b] for p in partitions]
    coverage = set()
    for blocks in partitions:
        degrees = [sum(1 for c in blocks if c & outside[pm]) for pm in blocks]
        if max(degrees) <= 2 and sum(degrees) == 2 * (len(blocks) - 1):
            split = full
            for pm in blocks:
                split &= ~inside[pm]
            coverage.add(split)
    return ref_set_cover(coverage, full)


@pytest.mark.parametrize(
    "g",
    [
        path_graph(8),
        path_graph(10),
        cycle_graph(9),
        cycle_graph(10),
        star_graph(7),
        random_connected_graph(8, 0.2, 3),
        random_connected_graph(9, 0.5, 1),
        random_connected_graph(10, 0.2, 1),
        random_connected_graph(10, 0.2, 2),
        random_connected_graph(10, 0.5, 0),
        star_graph(8),
        star_graph(9),
        random_tree(10, 7),
        random_tree(10, 8),
    ],
)
def test_udim_matches_quotient_path_reference_at_eight_to_ten(g):
    assert udim(g) == ref_quotient_path_udim(g)
