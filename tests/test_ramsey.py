import json
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccwidth import (
    build_graph,
    check_intersection_bound,
    complement,
    largest_induced_star,
    ramsey_lookup,
    star_bound_from_width,
    verify_ramsey_tiny,
)
from ccwidth.errors import (
    InvalidArgumentError,
    InvalidQueryError,
    LimitExceededError,
    NotAnIntersectionError,
)
from ccwidth.cli import main
from ccwidth.generators import complete_graph, random_cobipartite
from ccwidth.graphs import Graph
from ccwidth.ramsey import _K5_WITNESS, _K8_WITNESS, RamseyVerification, _witness_avoids, good_colorings

from conftest import graphs


def test_lookup_single_target():
    assert ramsey_lookup((4,)).value == 4


def test_lookup_table_values():
    assert ramsey_lookup((3, 3)).value == 6
    assert ramsey_lookup((4, 3)).value == 9  # order-insensitive
    assert ramsey_lookup((3, 5)).value == 14
    assert ramsey_lookup((4, 4)).value == 18
    assert ramsey_lookup((3, 3, 3)).value == 17
    assert ramsey_lookup((3, 3, 4)).value == 30


def test_lookup_reductions():
    assert ramsey_lookup((2, 3, 3)).value == 6
    assert ramsey_lookup((1, 9, 9)).value == 1
    assert ramsey_lookup((2, 2)).value == 2


def test_lookup_range_and_unknown():
    ans = ramsey_lookup((3, 3, 5))
    assert ans.kind == "range" and ans.lo == 45 and ans.hi == 57
    assert ramsey_lookup((7, 7)).kind == "unknown"


def test_lookup_invalid():
    with pytest.raises(InvalidQueryError):
        ramsey_lookup(())
    with pytest.raises(InvalidQueryError):
        ramsey_lookup((0, 3))


@given(st.lists(st.integers(min_value=3, max_value=6), min_size=1, max_size=3))
@settings(max_examples=50, deadline=None)
def test_drop_two_reduction(targets):
    assert ramsey_lookup([2] + targets) == ramsey_lookup(targets)


def test_verify_three_three():
    v = verify_ramsey_tiny((3, 3))
    assert v.confirmed and v.claimed == 6


def brute_force_good_colorings(n, sizes):
    """Every 2-coloring of K_n, one bit per pair, kept when no s-set has all
    its pairs in color 1 and no t-set all in color 2; as color-1 adjacency."""
    pairs = list(combinations(range(n), 2))
    index = {pair: k for k, pair in enumerate(pairs)}
    groups = [
        (sum(1 << index[p] for p in combinations(group, 2)), color)
        for color, size in zip((1, 2), sizes)
        for group in combinations(range(n), size)
    ]
    out = set()
    for code in range(1 << len(pairs)):
        if any(code & m == (m if color == 1 else 0) for m, color in groups):
            continue
        adj = [0] * n
        for k, (u, v) in enumerate(pairs):
            if code >> k & 1:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
        out.add(tuple(adj))
    return out


@pytest.mark.parametrize("sizes", [(3, 3), (3, 4), (4, 3), (2, 3), (1, 3)])
def test_vertex_extension_finds_exactly_the_good_colorings(sizes):
    for n in range(7):
        found = good_colorings(n, sizes)
        assert len(found) == len(set(found))
        assert set(found) == brute_force_good_colorings(n, sizes), n


def test_good_colorings_of_k5_are_the_twelve_five_cycles_and_k6_has_none():
    cycles = set()
    for perm in permutations(range(1, 5)):
        order = (0, *perm)
        adj = [0] * 5
        for u, v in zip(order, order[1:] + order[:1]):
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        cycles.add(tuple(adj))
    assert len(cycles) == 12
    assert set(good_colorings(5, (3, 3))) == cycles
    assert good_colorings(6, (3, 3)) == []


def test_verify_three_three_is_unchanged():
    assert verify_ramsey_tiny((3, 3)) == RamseyVerification((3, 3), 6, True, True)


def test_ramsey_verify_tiny_report_is_unchanged(capsys):
    assert main(["ramsey", "3", "3", "--verify-tiny"]) == 0
    report = json.loads(capsys.readouterr().out)
    del report["timing_ms"]
    assert report == {
        "command": ["ramsey", "ramsey", "3", "3", "--verify-tiny"],
        "results": {
            "hi": 6,
            "kind": "exact",
            "lo": 6,
            "targets": [3, 3],
            "verification": {"lower_verified": True, "notes": [], "upper_verified": True},
        },
    }


def ref_coloring_has_mono(n, color1_edges, sizes):
    """True if some color class contains a complete subgraph of its target
    size (color 1 checked against sizes[0], color 2 against sizes[1])."""
    for color, size in ((1, sizes[0]), (2, sizes[1])):
        for group in combinations(range(n), size):
            mono = True
            for a, b in combinations(group, 2):
                in1 = (a, b) in color1_edges
                if (color == 1) != in1:
                    mono = False
                    break
            if mono:
                break
        else:
            continue
        return True
    return False


def ref_witness_avoids(n, color1_edges, sizes):
    return not ref_coloring_has_mono(n, {(min(a, b), max(a, b)) for a, b in color1_edges}, sizes)


@given(graphs(max_n=8), st.integers(min_value=0, max_value=5), st.integers(min_value=0, max_value=5), st.data())
@settings(max_examples=300, deadline=None)
def test_witness_check_matches_combinations_reference(g, s, t, data):
    # each edge listed either way round
    edges = [e if data.draw(st.booleans()) else e[::-1] for e in g.edges()]
    assert _witness_avoids(g.n, edges, (s, t)) == ref_witness_avoids(g.n, edges, (s, t))


def test_stored_witnesses_avoid_and_a_chord_breaks_k5():
    assert _witness_avoids(5, _K5_WITNESS, (3, 3))
    assert _witness_avoids(8, _K8_WITNESS, (3, 4))
    assert not _witness_avoids(5, _K5_WITNESS + [(0, 2)], (3, 3))
    assert not ref_witness_avoids(5, _K5_WITNESS + [(0, 2)], (3, 3))


def test_verify_three_four_confirmed():
    assert verify_ramsey_tiny((3, 4)) == RamseyVerification((3, 4), 9, True, True)


def test_verify_single_target():
    assert verify_ramsey_tiny((3,)).confirmed


def test_verify_infeasible():
    with pytest.raises(LimitExceededError):
        verify_ramsey_tiny((4, 4))


def test_corollary_values():
    assert star_bound_from_width(1).value == 4
    assert star_bound_from_width(2).value == 9
    assert star_bound_from_width(3).value == 30
    with pytest.raises(InvalidArgumentError):
        star_bound_from_width(0)


def test_intersection_single_factor():
    g = complete_graph(4)
    verdict = check_intersection_bound(g, [g])
    assert verdict.testable and verdict.passed


def test_intersection_precondition():
    g = complete_graph(3)
    with pytest.raises(NotAnIntersectionError):
        check_intersection_bound(g, [complement(g)])


def test_intersection_cobipartite_pairs():
    for seed in range(30):
        h1 = random_cobipartite(8, 0.5, seed)
        h2 = random_cobipartite(8, 0.5, seed + 1000)
        g = Graph(8, tuple(a & b for a, b in zip(h1.adj, h2.adj)))
        verdict = check_intersection_bound(g, [h1, h2])
        assert verdict.testable and verdict.passed
        assert largest_induced_star(g)[0] <= 5
