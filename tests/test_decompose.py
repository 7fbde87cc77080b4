import json

import pytest

from ccwidth import (
    block_cover,
    build_graph,
    clique_cover_width_exact,
    cover_width,
    decompose,
    is_unit_incomparability,
    make_cover,
    trivial_cover,
    verify_decomposition,
)
from ccwidth.decompose import (
    CO_BIPARTITE,
    TERMINAL,
    Decomposition,
    Factor,
    decomposition_from_json,
    decomposition_to_json,
)
from ccwidth.errors import InvalidArgumentError, InvalidCoverError
from ccwidth.generators import (
    complete_graph,
    cycle_graph,
    path_graph,
    random_connected_graph,
    remark_three_cliques_graph,
)
from ccwidth.graphs import Graph
from ccwidth.limits import SearchLimits
from ccwidth.oracles import Orientation


def test_block_cover_grouping():
    five = make_cover([(v,) for v in range(5)])
    assert block_cover(five, 4).parts == ((0, 1, 2, 3), (4,))
    assert block_cover(five, 1).parts == five.parts
    six = make_cover([(v,) for v in range(6)])
    assert block_cover(six, 2).parts == ((0, 1), (2, 3), (4, 5))
    with pytest.raises(InvalidArgumentError):
        block_cover(five, 0)


def test_decompose_p4_width_one():
    p4 = path_graph(4)
    d = decompose(p4, trivial_cover(p4))
    assert len(d.factors) == 1 and d.factors[0].kind == TERMINAL
    assert d.factors[0].graph == p4
    assert cover_width(d.factors[0].graph, d.factors[0].blocks) <= 1
    assert verify_decomposition(p4, d).all_passed


def test_decompose_c5_singletons():
    c5 = cycle_graph(5)
    d = decompose(c5, trivial_cover(c5))
    kinds = [f.kind for f in d.factors]
    assert kinds == [CO_BIPARTITE] * 3 + [TERMINAL]
    # all non-edges of C5 sit at part distance 2 or 3, so the terminal
    # complement is empty and the terminal factor is K5
    terminal = d.factors[-1].graph
    assert terminal.edge_count() == 10
    assert d.factors[-1].blocks.parts == ((0, 1, 2, 3), (4,))
    assert verify_decomposition(c5, d).all_passed


def test_decompose_remark_graph():
    g = remark_three_cliques_graph()
    d = decompose(g, make_cover([range(0, 4), range(4, 8), range(8, 12)]))
    assert len(d.factors) == 1
    assert verify_decomposition(g, d).all_passed


def test_decompose_degenerate_width_zero():
    k4 = complete_graph(4)
    d = decompose(k4, make_cover([range(4)]))
    assert len(d.factors) == 1
    assert d.factors[0].graph == k4
    assert verify_decomposition(k4, d).all_passed


def test_decompose_rejects_invalid_cover():
    with pytest.raises(InvalidCoverError):
        decompose(path_graph(3), make_cover([(0, 2), (1,)]))


def test_tampered_edge_fails_intersection():
    c5 = cycle_graph(5)
    d = decompose(c5, trivial_cover(c5))
    f0 = d.factors[0]
    g0 = f0.graph
    u, v = g0.edges()[0]
    adj = list(g0.adj)
    adj[u] &= ~(1 << v)
    adj[v] &= ~(1 << u)
    tampered = Decomposition(
        d.source_cover,
        (Factor(Graph(g0.n, tuple(adj)), f0.kind, f0.bipartition),) + d.factors[1:],
    )
    report = verify_decomposition(c5, tampered)
    assert not report.all_passed
    failed = {c.name for c in report.failures()}
    assert "b_intersection" in failed or "a_supergraphs" in failed


def test_overlapping_bipartition_sides_fail():
    c5 = cycle_graph(5)
    d = decompose(c5, trivial_cover(c5))
    f0 = d.factors[0]
    assert f0.bipartition == ((0, 2, 4), (1, 3))
    tampered = Decomposition(
        d.source_cover,
        (Factor(f0.graph, f0.kind, ((0, 2, 4, 1), (1, 3))),) + d.factors[1:],
    )
    failed = {c.name for c in verify_decomposition(c5, tampered).failures()}
    assert failed == {"c_cobipartite_witnesses"}


def test_factor_of_unknown_kind_fails_check_c(capsys, tmp_path):
    from ccwidth.cli import main

    # C5 (ccw 2) as its own factor, under a kind the verifier does not know:
    # checks (a), (b), (d) and (e) all hold, so only (c) can catch it
    c5 = cycle_graph(5)
    _, cover = clique_cover_width_exact(c5)
    d = decompose(c5, cover)
    assert [f.kind for f in d.factors] == [CO_BIPARTITE, TERMINAL]
    tampered = Decomposition(d.source_cover, (Factor(c5, "whatever"),) + d.factors[1:])
    failures = verify_decomposition(c5, tampered).failures()
    assert [(c.name, c.detail) for c in failures] == [
        ("c_cobipartite_witnesses", "factor 0 has unknown kind 'whatever'")
    ]

    graph, stored = tmp_path / "c5.graph", tmp_path / "decomposition.json"
    graph.write_text("p 5 5\ne 0 1\ne 1 2\ne 2 3\ne 3 4\ne 0 4\n")
    stored.write_text(decomposition_to_json(tampered))
    assert main(["verify", str(graph), "--decomposition", str(stored)]) == 4
    report = json.loads(capsys.readouterr().out)
    assert not report["results"]["all_passed"]


def test_tampered_orientation_fails():
    p4 = path_graph(4)
    d = decompose(p4, trivial_cover(p4))
    term = d.factors[-1]
    a, b = sorted(term.orientation.arcs)[0]
    flipped = (set(term.orientation.arcs) - {(a, b)}) | {(b, a)}
    tampered = Decomposition(
        d.source_cover,
        d.factors[:-1]
        + (Factor(term.graph, term.kind, None, Orientation.from_arcs(term.graph.n, flipped), term.blocks),),
    )
    report = verify_decomposition(p4, tampered)
    assert "d_terminal_orientation" in {c.name for c in report.failures()}


def test_round_trip_json():
    c5 = cycle_graph(5)
    d = decompose(c5, trivial_cover(c5))
    d2 = decomposition_from_json(decomposition_to_json(d))
    assert d2 == d


def test_random_suite_small():
    limits = SearchLimits(max_n=10)
    for seed in range(25):
        g = random_connected_graph(8, 0.35, seed)
        for cover in (trivial_cover(g), clique_cover_width_exact(g, limits)[1]):
            w = cover_width(g, cover)
            d = decompose(g, cover)
            assert len(d.factors) == max(w, 1)
            assert verify_decomposition(g, d).all_passed
            assert is_unit_incomparability(d.factors[-1].graph)


def test_optimal_cover_realizes_udim_bound():
    from ccwidth import unit_intersection_dimension

    for seed in range(10):
        g = random_connected_graph(6, 0.4, seed)
        if g.edge_count() == g.n * (g.n - 1) // 2:
            continue
        width, cover = clique_cover_width_exact(g)
        d = decompose(g, cover)
        assert len(d.factors) == width
        assert all(is_unit_incomparability(f.graph) for f in d.factors)
        assert unit_intersection_dimension(g) <= len(d.factors)


def test_empty_graph_decomposition_survives_a_json_round_trip():
    g = build_graph(0, [])
    d = decompose(g, make_cover([]))
    back = decomposition_from_json(decomposition_to_json(d))
    assert back == d and verify_decomposition(g, back).all_passed


def test_block_cover_check_measures_the_blocks_once(monkeypatch):
    from ccwidth import covers

    c5 = cycle_graph(5)
    d = decomposition_from_json(decomposition_to_json(decompose(c5, trivial_cover(c5))))
    blocks = d.factors[-1].blocks
    measured = []
    real = covers.part_masks
    monkeypatch.setattr(covers, "part_masks", lambda g, parts: measured.append(parts) or real(g, parts))
    checks = verify_decomposition(c5, d).checks
    assert [c.passed for c in checks if c.name == "e_block_cover"] == [True]
    assert sum(parts is blocks.parts for parts in measured) == 1
