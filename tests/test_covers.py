from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccwidth import (
    OrderedCliqueCover,
    bandwidth_exact,
    build_graph,
    cover_width,
    make_cover,
    ordering_width,
    quotient_graph,
    trivial_cover,
    validate_cover,
)
from ccwidth.errors import InvalidCoverError, LimitExceededError, NotAPermutationError
from ccwidth.generators import (
    complete_graph,
    cycle_graph,
    path_graph,
    remark_three_cliques_graph,
    star_graph,
)
from ccwidth.graphs import bits, mask_of
from ccwidth.limits import SearchLimits

from conftest import graphs

P3 = path_graph(3)


def test_validate_cover_valid():
    assert validate_cover(P3, make_cover([(0, 1), (2,)])).valid


def test_validate_cover_non_clique():
    report = validate_cover(P3, make_cover([(0, 2), (1,)]))
    assert not report.valid
    assert report.non_clique_parts == ((0, (0, 2)),)


def test_validate_cover_uncovered():
    report = validate_cover(P3, make_cover([(0, 1)]))
    assert report.uncovered == (2,)


def test_validate_cover_out_of_range_singleton():
    report = validate_cover(P3, make_cover([(0,), (1,), (2,), (7,)]))
    assert not report.valid
    assert report.out_of_range == (7,)
    assert (report.uncovered, report.doubly_covered, report.non_clique_parts) == ((), (), ())
    with pytest.raises(InvalidCoverError):
        cover_width(P3, make_cover([(0,), (1,), (2,), (7,)]))


def test_cover_width_remark_graph():
    g = remark_three_cliques_graph()
    cover = make_cover([range(0, 4), range(4, 8), range(8, 12)])
    assert cover_width(g, cover) == 1


def test_cover_width_single_clique():
    assert cover_width(complete_graph(4), make_cover([range(4)])) == 0


def test_cover_width_c5_singletons():
    assert cover_width(cycle_graph(5), trivial_cover(cycle_graph(5))) == 4


def test_cover_width_rejects_invalid():
    with pytest.raises(InvalidCoverError):
        cover_width(P3, make_cover([(0, 2), (1,)]))


P4 = path_graph(4)  # 0 - 1 - 2 - 3


@pytest.mark.parametrize(
    "parts, report",
    [
        (((0, 0, 1), (2, 3)), "doubly_covered=(), non_clique_parts=((0, (0, 0)),), out_of_range=()"),
        (((0, 1), (1, 2), (3,)), "doubly_covered=(1,), non_clique_parts=(), out_of_range=()"),
        (((0, 1), (2, 3), (4,)), "doubly_covered=(), non_clique_parts=(), out_of_range=(4,)"),
        (((0, 1), (2, 3, 7)), "doubly_covered=(), non_clique_parts=((1, (2, 7)),), out_of_range=(7,)"),
        (((0, 2), (1,), (3,)), "doubly_covered=(), non_clique_parts=((0, (0, 2)),), out_of_range=()"),
    ],
    ids=["twice_in_one_part", "in_two_parts", "out_of_range", "out_of_range_in_a_part", "non_clique"],
)
def test_cover_width_rejects_with_the_full_report(parts, report):
    with pytest.raises(InvalidCoverError) as exc:
        cover_width(P4, OrderedCliqueCover(parts))
    assert str(exc.value) == f"invalid cover: CoverReport(uncovered=(), {report})"


def test_quotient_examples():
    p4 = path_graph(4)
    q = quotient_graph(p4, make_cover([(0, 1), (2, 3)]))
    assert q.n == 2 and q.edges() == [(0, 1)]
    g = remark_three_cliques_graph()
    q = quotient_graph(g, make_cover([range(0, 4), range(4, 8), range(8, 12)]))
    assert q.edges() == [(0, 1), (1, 2)]
    two_k2 = build_graph(4, [(0, 2), (1, 3)])
    q = quotient_graph(two_k2, make_cover([(0, 2), (1, 3)]))
    assert q.n == 2 and q.edge_count() == 0


def test_ordering_width():
    assert ordering_width(P3, [0, 1, 2]) == 1
    assert ordering_width(P3, [1, 0, 2]) == 2
    assert ordering_width(complete_graph(4), [2, 0, 3, 1]) == 3
    with pytest.raises(NotAPermutationError):
        ordering_width(P3, [0, 0, 1])


def test_bandwidth_path_and_clique():
    assert bandwidth_exact(path_graph(5))[0] == 1
    assert bandwidth_exact(complete_graph(6))[0] == 5


def test_bandwidth_star_matches_brute_force():
    g = star_graph(4)
    brute = min(ordering_width(g, p) for p in permutations(range(5)))
    assert bandwidth_exact(g) == (2, (1, 2, 0, 3, 4))
    assert brute == 2


def test_bandwidth_limit():
    with pytest.raises(LimitExceededError):
        bandwidth_exact(complete_graph(13))


def test_trivial_cover():
    cover = trivial_cover(P3)
    assert cover.parts == ((0,), (1,), (2,))
    assert cover_width(complete_graph(3), trivial_cover(complete_graph(3))) == 2


@given(graphs(max_n=7))
@settings(max_examples=60, deadline=None)
def test_bandwidth_equals_enumeration(g):
    exact, witness = bandwidth_exact(g)
    assert ordering_width(g, witness) == exact
    if g.n:
        brute = min(ordering_width(g, p) for p in permutations(range(g.n)))
        assert exact == brute


@given(graphs(max_n=8))
@settings(max_examples=60, deadline=None)
def test_cover_width_matches_quotient_identity_ordering(g):
    cover = trivial_cover(g)
    q = quotient_graph(g, cover)
    if q.n:
        assert cover_width(g, cover) == ordering_width(q, range(q.n))


# ---------------------------------------------------------------------------
# differential tests against the edge-list implementations that the part-mask
# kernel replaced


def ref_validate_cover(g, cover):
    seen = 0
    doubly = 0
    non_clique = []
    for i, part in enumerate(cover.parts):
        pm = mask_of(part)
        doubly |= seen & pm
        seen |= pm
        vs = sorted(part)
        witness = next(
            (
                (u, v)
                for a, u in enumerate(vs)
                for v in vs[a + 1:]
                if v >= g.n or u >= g.n or not g.has_edge(u, v)
            ),
            None,
        )
        if witness is not None:
            non_clique.append((i, witness))
    uncovered = g.full_mask() & ~seen
    return tuple(bits(uncovered)), tuple(bits(doubly)), tuple(non_clique)


def ref_cover_width(g, cover):
    part_of = cover.part_of()
    return max((abs(part_of[u] - part_of[v]) for u, v in g.edges()), default=0)


def ref_ordering_width(g, perm):
    pos = {v: i for i, v in enumerate(perm)}
    return max((abs(pos[u] - pos[v]) for u, v in g.edges()), default=0)


def ref_quotient_graph(g, cover):
    part_of = cover.part_of()
    pairs = set()
    for u, v in g.edges():
        i, j = part_of[u], part_of[v]
        if i != j:
            pairs.add((min(i, j), max(i, j)))
    return build_graph(len(cover.parts), sorted(pairs))


@st.composite
def graphs_with_parts(draw):
    """A graph with n <= 8 and an ordered list of parts that may repeat a
    vertex (within a part or across parts), miss vertices, list vertices
    >= n, or hold an empty part; about half are proper partitions of V."""
    g = draw(graphs(max_n=8))
    vertices = list(range(g.n))
    if draw(st.booleans()):
        order = draw(st.permutations(vertices))
        cuts = sorted(draw(st.sets(st.integers(1, max(g.n - 1, 1)), max_size=g.n)))
        bounds = [0] + [c for c in cuts if c < g.n] + [g.n]
        parts = [order[a:b] for a, b in zip(bounds, bounds[1:]) if b > a]
    else:
        vertex = st.integers(0, g.n + 2)
        parts = draw(st.lists(st.lists(vertex, max_size=4), max_size=g.n + 2))
    return g, make_cover(parts)


@given(graphs_with_parts())
@settings(max_examples=400, deadline=None)
def test_cover_kernel_matches_edge_list_reference(case):
    g, cover = case
    report = validate_cover(g, cover)
    ref = ref_validate_cover(g, cover)
    assert (report.uncovered, report.doubly_covered, report.non_clique_parts) == ref
    out = tuple(v for part in cover.parts for v in part if v >= g.n)
    assert report.out_of_range == tuple(sorted(set(out)))
    assert report.valid == (not any(ref) and not out)
    if report.valid:
        assert cover_width(g, cover) == ref_cover_width(g, cover)
        assert quotient_graph(g, cover) == ref_quotient_graph(g, cover)
        perm = [v for part in cover.parts for v in part]
        assert ordering_width(g, perm) == ref_ordering_width(g, perm)
    else:
        with pytest.raises(InvalidCoverError):
            cover_width(g, cover)
        with pytest.raises(InvalidCoverError):
            quotient_graph(g, cover)

