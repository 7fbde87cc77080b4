"""Hand-made cases for the benchmark's own checkers: each must accept a
correct output and reject the broken one."""

import pytest

from checks import (
    CheckError,
    adjacency,
    check_bounds,
    check_decomposition,
    check_exact,
    check_greedy,
    check_induced_c5,
    check_star,
    check_transitive,
    clique_cover_width,
    cover_of_width_exists,
    dot_edges,
    largest_star,
    ordered_cover_census,
    ramsey_3_3,
)

# path 0-1-2-3 and the cycle 0-1-2-3-4
P4 = adjacency(4, [(0, 1), (1, 2), (2, 3)])
C5 = adjacency(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
STAR3 = adjacency(4, [(0, 1), (0, 2), (0, 3)])  # K_{1,3}, center 0


def test_clique_cover_width_accepts_and_measures():
    assert clique_cover_width(P4, [[0, 1], [2, 3]]) == 1
    assert clique_cover_width(P4, [[0], [1], [2], [3]]) == 1
    assert clique_cover_width(P4, [[0], [2], [1], [3]]) == 2


@pytest.mark.parametrize("parts", [
    [[0, 2], [1], [3]],  # 0 and 2 are not adjacent: not a clique
    [[0, 1], [1, 2], [3]],  # vertex 1 twice
    [[0, 1], [2]],  # vertex 3 missing
    [[0, 1], [2, 3, 4]],  # vertex outside the graph
])
def test_clique_cover_width_rejects_bad_covers(parts):
    with pytest.raises(CheckError):
        clique_cover_width(P4, parts)


def test_greedy_rejects_width_that_does_not_match_the_cover():
    cover = {"parts": [[0, 1], [2, 3]]}
    star = {"center": 1, "leaves": [0, 2]}
    check_greedy(P4, {"lower": 0, "upper": 1}, cover, star)
    with pytest.raises(CheckError, match="width"):
        check_greedy(P4, {"lower": 0, "upper": 2}, cover, star)
    with pytest.raises(CheckError, match="lower"):
        check_greedy(P4, {"lower": 1, "upper": 1}, cover, star)


def test_star_rejects_non_induced_and_wrong_size():
    check_star(STAR3, 0, [1, 2, 3], 3)
    triangle = adjacency(3, [(0, 1), (0, 2), (1, 2)])
    with pytest.raises(CheckError, match="induced"):
        check_star(triangle, 0, [1, 2], 2)
    with pytest.raises(CheckError, match="leaves"):
        check_star(STAR3, 0, [1, 2], 3)
    with pytest.raises(CheckError, match="adjacent"):
        check_star(P4, 0, [1, 2], 2)


def test_induced_c5():
    check_induced_c5(C5, [0, 1, 2, 3, 4])
    chorded = adjacency(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)])
    with pytest.raises(CheckError, match="induced"):
        check_induced_c5(chorded, [0, 1, 2, 3, 4])


def test_exact_witness_and_optimality():
    cover = [[0, 1], [4], [2], [3]]
    assert clique_cover_width(C5, cover) == 2
    check_exact(C5, 2, cover, prove_optimal=True)
    assert not cover_of_width_exists(C5, 1)
    with pytest.raises(CheckError, match="width"):
        check_exact(C5, 1, cover, prove_optimal=False)
    # the trivial cover of P4 in this order has width 2, but P4 has width 1
    with pytest.raises(CheckError, match="not optimal"):
        check_exact(P4, 2, [[0], [2], [1], [3]], prove_optimal=True)


def test_bounds():
    check_bounds(1, 3)
    check_bounds(2, 5, udim=2)
    with pytest.raises(CheckError):
        check_bounds(1, 5)
    with pytest.raises(CheckError, match="Udim"):
        check_bounds(1, 3, udim=2)


def test_transitive():
    assert check_transitive(3, [(0, 1), (1, 2), (0, 2)]) == 3
    with pytest.raises(CheckError, match="transitive"):
        check_transitive(3, [(0, 1), (1, 2)])
    with pytest.raises(CheckError):
        check_transitive(2, [(0, 1), (1, 0)])


def _p4_decomposition():
    # cover 0 | 1 | 2 | 3 of P4 has width 1: one terminal factor, P4 itself,
    # with its complement {02, 03, 13} oriented by part index
    return [{
        "kind": "terminal",
        "adj": list(P4),
        "bipartition": None,
        "arcs": [(0, 2), (0, 3), (1, 3)],
        "blocks": [[0], [1], [2], [3]],
    }]


def test_decomposition_accepts_a_correct_one():
    check_decomposition(P4, [[0], [1], [2], [3]], _p4_decomposition())


def test_decomposition_rejects_factor_missing_an_edge_of_g():
    factors = _p4_decomposition()
    factors[0]["adj"] = adjacency(4, [(0, 1), (1, 2)])
    with pytest.raises(CheckError, match="contain G"):
        check_decomposition(P4, [[0], [1], [2], [3]], factors)


def test_decomposition_rejects_intersection_larger_than_g():
    # two complete factors contain P4 but intersect to K4, not to P4
    parts = [[0], [2], [1], [3]]
    assert clique_cover_width(P4, parts) == 2
    complete = adjacency(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
    factors = [
        {"kind": "co_bipartite", "adj": complete, "bipartition": [[0, 2], [1, 3]], "arcs": None, "blocks": None},
        {"kind": "terminal", "adj": complete, "bipartition": None, "arcs": [], "blocks": [[0, 1, 2, 3]]},
    ]
    with pytest.raises(CheckError, match="intersect"):
        check_decomposition(P4, parts, factors)


def test_decomposition_rejects_non_transitive_terminal_orientation():
    factors = _p4_decomposition()
    factors[0]["arcs"] = [(0, 2), (3, 0), (1, 3)]  # 1->3->0 needs 1->0, an edge
    with pytest.raises(CheckError, match="transitive|orient"):
        check_decomposition(P4, [[0], [1], [2], [3]], factors)


def _p4_width2_decomposition():
    # cover 0 | 2 | 1 | 3 of P4 has width 2; the non-edges 02 and 13 lie at
    # part distance 1 (co-bipartite factor), 03 at distance 3 (terminal)
    return [
        {"kind": "co_bipartite", "adj": adjacency(4, [(0, 1), (0, 3), (1, 2), (2, 3)]),
         "bipartition": [[0, 1], [2, 3]], "arcs": None, "blocks": None},
        {"kind": "terminal", "adj": adjacency(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]),
         "bipartition": None, "arcs": [(0, 3)], "blocks": [[0, 2], [1, 3]]},
    ]


def test_decomposition_rejects_wrong_factor_count_and_bad_bipartition():
    parts = [[0], [2], [1], [3]]
    check_decomposition(P4, parts, _p4_width2_decomposition())
    with pytest.raises(CheckError, match="factors"):
        check_decomposition(P4, parts, _p4_decomposition())
    factors = _p4_width2_decomposition()
    factors[0]["bipartition"] = [[0, 2], [1, 3]]
    with pytest.raises(CheckError, match="clique"):
        check_decomposition(P4, parts, factors)


def test_census_and_star_on_small_graphs():
    # P4: clique partitions {01,23}, {01,2,3}, {0,12,3}, {0,1,23}, {0,1,2,3}
    assert ordered_cover_census(P4) == (2 + 6 + 6 + 6 + 24, 1)
    assert largest_star(STAR3) == 3
    assert largest_star(C5) == 2
    assert ramsey_3_3() == 6


def test_dot_edges():
    text = "graph {\n  0;\n  1;\n  2;\n  0 -- 1;\n  1 -- 2;\n}\n"
    assert dot_edges(text) == adjacency(3, [(0, 1), (1, 2)])
