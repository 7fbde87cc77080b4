import pytest
from hypothesis import given

from ccwidth import build_graph, complement, components, induced_subgraph, parse_graph, serialize_graph
from ccwidth.errors import IndexOutOfRangeError, ParseError, SelfLoopError
from ccwidth.generators import complete_graph, cycle_graph, path_graph

from conftest import graphs


def test_build_path():
    g = build_graph(3, [(0, 1), (1, 2)])
    assert g.edges() == [(0, 1), (1, 2)]
    assert g.degree(1) == 2


def test_build_complete():
    g = build_graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
    assert g.edge_count() == 6


def test_duplicate_edges_collapse():
    g = build_graph(3, [(0, 1), (1, 0), (0, 1)])
    assert g.edge_count() == 1


def test_self_loop_rejected():
    with pytest.raises(SelfLoopError):
        build_graph(2, [(0, 0)])


def test_out_of_range_rejected():
    with pytest.raises(IndexOutOfRangeError):
        build_graph(3, [(0, 9)])


def test_complement_examples():
    assert complement(complete_graph(4)).edge_count() == 0
    c4 = cycle_graph(4)
    assert complement(c4).edges() == [(0, 2), (1, 3)]
    assert complement(path_graph(3)).edges() == [(0, 2)]


def test_induced_subgraph():
    k4 = complete_graph(4)
    sub, mapping = induced_subgraph(k4, {0, 1, 2})
    assert sub.edge_count() == 3 and mapping == (0, 1, 2)
    c5 = cycle_graph(5)
    sub, _ = induced_subgraph(c5, {0, 1, 2})
    assert sub.edges() == [(0, 1), (1, 2)]
    sub, mapping = induced_subgraph(k4, set())
    assert sub.n == 0 and mapping == ()


def test_components_examples():
    g = build_graph(4, [(0, 2), (1, 3)])
    assert components(g) == [(0, 2), (1, 3)]
    assert components(complete_graph(4)) == [(0, 1, 2, 3)]
    assert components(build_graph(3, [])) == [(0,), (1,), (2,)]


def test_parse_edge_list():
    g = parse_graph("p 3 2\ne 0 1\ne 1 2")
    assert g.edges() == [(0, 1), (1, 2)]


def test_parse_json():
    g = parse_graph('{"n":4,"edges":[[0,1]]}')
    assert g.n == 4 and g.edges() == [(0, 1)]


def test_parse_picks_the_format_by_the_first_non_blank_character():
    assert parse_graph(' \n\t{"n": 2, "edges": [[0, 1]]}') == build_graph(2, [(0, 1)])
    with pytest.raises(ParseError, match="unknown line type") as exc:
        parse_graph('[{"n": 2, "edges": []}]')
    assert exc.value.line == 1


def test_parse_out_of_range():
    with pytest.raises(IndexOutOfRangeError):
        parse_graph("p 3 1\ne 0 9")


def test_parse_errors_carry_line():
    with pytest.raises(ParseError) as exc:
        parse_graph("p 3 1\nq 0 1")
    assert exc.value.line == 2


def test_serialize_empty():
    assert serialize_graph(build_graph(0, [])) == "p 0 0\n"


def test_serialize_dot():
    dot = serialize_graph(complete_graph(3), "dot")
    assert dot.startswith("graph {") and dot.count("--") == 3


@given(graphs())
def test_complement_involution(g):
    assert complement(complement(g)) == g


@given(graphs())
def test_round_trip_edge_list(g):
    assert parse_graph(serialize_graph(g, "edge-list")) == g


@given(graphs())
def test_round_trip_json(g):
    assert parse_graph(serialize_graph(g, "json")) == g


@given(graphs())
def test_components_partition(g):
    comps = components(g)
    flat = sorted(v for c in comps for v in c)
    assert flat == list(range(g.n))
    where = {v: i for i, c in enumerate(comps) for v in c}
    for u, v in g.edges():
        assert where[u] == where[v]
    from ccwidth.graphs import is_connected

    for c in comps:
        sub, _ = induced_subgraph(g, c)
        assert is_connected(sub)
