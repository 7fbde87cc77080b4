import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ccwidth import (
    Orientation,
    approximate_ccw,
    build_graph,
    clique_cover_width_exact,
    complement,
    cover_width,
    extract_star_certificate,
    find_transitive_orientation,
    greedy_layered_cover,
    largest_induced_star,
    random_poset_graph,
    validate_cover,
    validate_star,
    verify_transitive,
)
from ccwidth.errors import (
    CCWidthError,
    CertificateExtractionError,
    CyclicOrientationError,
    NotIncomparabilityError,
    NotTransitiveError,
    ParseError,
)
from ccwidth.generators import complete_graph, cycle_graph, star_graph
from ccwidth.graphs import Graph, bits
from ccwidth.limits import SearchLimits
from ccwidth.oracles import orientation_from_json, orientation_to_json


def star5_with_orientation():
    """K_{1,5} (center 0) with its complement, K5 on the leaves, oriented as
    the total order 1 < 2 < ... < 5."""
    g = star_graph(5)
    arcs = [(u, v) for u in range(1, 6) for v in range(u + 1, 6)]
    return g, Orientation.from_arcs(6, arcs)


def two_cliques_one_bridge():
    g = build_graph(4, [(0, 1), (2, 3), (0, 2)])
    ghat = find_transitive_orientation(complement(g))
    assert ghat is not None
    return g, ghat


def test_layering_star():
    g, ghat = star5_with_orientation()
    lc = greedy_layered_cover(ghat)
    assert lc.cover.parts == ((0, 1), (2,), (3,), (4,), (5,))
    assert cover_width(g, lc.cover) == 4


def test_layering_clique():
    lc = greedy_layered_cover(Orientation.from_arcs(4, ()))
    assert lc.cover.parts == ((0, 1, 2, 3),)


def test_layering_two_cliques():
    g, ghat = two_cliques_one_bridge()
    lc = greedy_layered_cover(ghat)
    assert len(lc.cover.parts) == 2
    assert cover_width(g, lc.cover) == 1
    assert validate_cover(g, lc.cover).valid


def test_layering_rejects_cycle():
    with pytest.raises(CyclicOrientationError):
        greedy_layered_cover(
            Orientation.from_arcs(3, {(0, 1), (1, 2), (2, 0)}), check=False
        )


def test_layering_rejects_non_transitive():
    with pytest.raises(NotTransitiveError):
        greedy_layered_cover(Orientation.from_arcs(3, {(0, 1), (1, 2)}))


def test_certificate_star():
    g, ghat = star5_with_orientation()
    lc = greedy_layered_cover(ghat)
    cert = extract_star_certificate(g, ghat, lc)
    assert cert.center == 0 and len(cert.leaves) == 5
    assert validate_star(g, cert)


def test_certificate_two_cliques():
    g, ghat = two_cliques_one_bridge()
    lc = greedy_layered_cover(ghat)
    cert = extract_star_certificate(g, ghat, lc)
    assert len(cert.leaves) == 2
    assert validate_star(g, cert)


def test_certificate_degenerate_for_clique():
    g = complete_graph(4)
    ghat = Orientation.from_arcs(4, ())
    cert = extract_star_certificate(g, ghat, greedy_layered_cover(ghat))
    assert len(cert.leaves) == 1  # width 0: a single edge is the certificate


def test_approx_star():
    g, ghat = star5_with_orientation()
    res = approximate_ccw(g, ghat)
    assert (res.lower, res.upper) == (2, 4)
    assert clique_cover_width_exact(g)[0] == 2


def test_approx_clique():
    res = approximate_ccw(complete_graph(4))
    assert (res.lower, res.upper) == (0, 0)


def test_approx_cobipartite():
    edges = [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (0, 3)]
    g = build_graph(6, edges)
    res = approximate_ccw(g)
    assert res.upper == 1 and res.lower >= 0
    assert clique_cover_width_exact(g)[0] == 1


def test_recognized_orientation_is_not_rechecked(monkeypatch):
    from ccwidth import incomparability

    calls = []
    real = incomparability.verify_transitive
    monkeypatch.setattr(incomparability, "verify_transitive", lambda o: calls.append(o) or real(o))
    g, _ = random_poset_graph(30, 0.2, 1)
    recognized = approximate_ccw(g)
    assert calls == []  # the recognizer's orientation is transitive by construction
    assert approximate_ccw(g, find_transitive_orientation(complement(g))) == recognized
    assert len(calls) == 1  # a passed-in orientation is still checked


def test_one_part_masks_pass_per_greedy_run(monkeypatch):
    from ccwidth import covers

    calls = []
    real = covers.part_masks
    monkeypatch.setattr(covers, "part_masks", lambda g, parts: calls.append(1) or real(g, parts))
    g, o = random_poset_graph(30, 0.2, 1)
    for orientation in (o, None):
        calls.clear()
        approximate_ccw(g, orientation)
        assert len(calls) == 1


def test_approx_rejects_non_incomparability():
    with pytest.raises(NotIncomparabilityError):
        approximate_ccw(cycle_graph(5))


def test_random_poset_extremes():
    g, ghat = random_poset_graph(6, 0.0, seed=1)
    assert g.edge_count() == 15 and not ghat.arcs
    g, ghat = random_poset_graph(6, 1.0, seed=1)
    assert g.edge_count() == 0 and len(ghat.arcs) == 15


def test_random_poset_is_incomparability():
    g, ghat = random_poset_graph(6, 0.5, seed=42)
    assert find_transitive_orientation(complement(g)) is not None
    assert ghat.underlying() == complement(g)


def test_random_poset_deterministic():
    a = random_poset_graph(12, 0.4, seed=7)
    b = random_poset_graph(12, 0.4, seed=7)
    assert a == b
    c = random_poset_graph(12, 0.4, seed=8)
    assert a != c


def test_sandwich_on_random_posets():
    for seed in range(40):
        g, ghat = random_poset_graph(14, 0.3 + 0.01 * seed, seed)
        res = approximate_ccw(g, ghat)
        s, _ = largest_induced_star(g)
        assert s - 1 >= res.upper >= -(-s // 2) - 1
        assert len(res.witness_star.leaves) == max(res.upper + 1, 1) or res.witness_star.degenerate
        assert validate_cover(g, res.witness_cover).valid


def test_two_approx_against_oracle():
    for seed in range(25):
        g, ghat = random_poset_graph(9, 0.35, seed)
        res = approximate_ccw(g, ghat)
        exact, _ = clique_cover_width_exact(g)
        assert res.lower <= exact <= res.upper
        assert res.upper <= 2 * exact + 1


# ---------------------------------------------------------------------------
# orientation files and the check of a passed-in orientation


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 14), st.sampled_from((0.0, 0.1, 0.3, 0.6, 1.0)), st.integers(0, 2**16), st.data())
def test_every_linear_extension_gives_the_same_orientation_and_result(n, density, seed, data):
    _, o = random_poset_graph(n, density, seed)
    perm = data.draw(st.permutations(range(n)))
    o = Orientation.from_arcs(n, [(perm[u], perm[v]) for u, v in o.arcs])
    g = complement(o.underlying())
    # a random linear extension: a random minimal vertex of those left, each time
    pred, left, order = o.pred(), (1 << n) - 1, []
    while left:
        order.append(data.draw(st.sampled_from([v for v in bits(left) if not pred[v] & left])))
        left ^= 1 << order[-1]
    by_written = orientation_from_json(orientation_to_json(o), g)
    by_drawn = orientation_from_json(json.dumps({"n": n, "order": order}), g)
    assert by_written == by_drawn == o
    assert approximate_ccw(g, by_written) == approximate_ccw(g, by_drawn)
    with pytest.raises(ParseError, match="'order'"):
        orientation_from_json(json.dumps({"n": n, "arcs": o.arcs}), g)


def ref_check(g, o):
    """The check approximate_ccw made of a passed-in orientation before the
    O(n) one: the arcs' underlying graph against the complement, then
    transitivity."""
    if o.underlying() != complement(g):
        raise CertificateExtractionError("orientation arcs are not exactly the complement's edges")
    if not verify_transitive(o):
        raise NotTransitiveError("orientation is not transitive")


def check_outcome(check, g, o):
    try:
        check(g, o)
    except (CertificateExtractionError, NotTransitiveError) as exc:
        return type(exc), str(exc)
    return None


@st.composite
def edited_orientations(draw):
    """A poset graph g and an orientation of its complement, its arcs
    turned at random or not, then edited up to four times: a loop, an arc
    added (an edge of g, or the reverse of an arc), an arc dropped or an
    arc flipped."""
    n = draw(st.integers(0, 9))
    g, o = random_poset_graph(n, draw(st.sampled_from((0.0, 0.2, 0.5, 1.0))), draw(st.integers(0, 2**16)))
    arcs = set(o.arcs)
    if draw(st.booleans()):
        arcs = {(u, v) if draw(st.booleans()) else (v, u) for u, v in sorted(arcs)}
    vertex = st.integers(0, max(n - 1, 0))
    for edit in draw(st.lists(st.sampled_from(["loop", "add", "drop", "flip"]), max_size=4 if n else 0)):
        if edit == "loop":
            v = draw(vertex)
            arcs.add((v, v))
        elif edit == "add":
            arcs.add((draw(vertex), draw(vertex)))
        elif arcs:
            u, v = draw(st.sampled_from(sorted(arcs)))
            arcs.discard((u, v))
            if edit == "flip":
                arcs.add((v, u))
    return g, Orientation.from_arcs(n, arcs)


# as many arcs as the complement has edges, but with an antiparallel pair
# where the edge 0-2 is missing, or on an edge of g: the underlying graph is
# what must fail
@example((Graph(3, (0, 0, 0)), Orientation.from_arcs(3, [(0, 1), (1, 0), (1, 2)])))
@example((Graph(3, (0b010, 0b101, 0b010)), Orientation.from_arcs(3, [(0, 1)])))
@settings(max_examples=400, deadline=None)
@given(edited_orientations())
def test_passed_in_orientation_check_matches_the_underlying_graph_check(case):
    g, o = case
    assert check_outcome(approximate_ccw, g, o) == check_outcome(ref_check, g, o)


@st.composite
def greedy_inputs(draw):
    """A poset graph with its orientation, or a random graph with the
    orientation of its complement by a random vertex order, or with a random
    arc set."""
    n = draw(st.integers(0, 9))
    kind = draw(st.sampled_from(["poset", "order", "arcs"]))
    if kind == "poset":
        return random_poset_graph(n, draw(st.sampled_from((0.0, 0.2, 0.5, 1.0))), draw(st.integers(0, 2**16)))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    g = build_graph(n, draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else [])
    if kind == "order":
        order = draw(st.permutations(range(n)))
        return g, orientation_from_json(json.dumps({"n": n, "order": order}), g)
    vertex = st.integers(0, max(n - 1, 0))
    return g, Orientation.from_arcs(n, draw(st.lists(st.tuples(vertex, vertex), max_size=3 * n)))


@settings(max_examples=300, deadline=None)
@given(greedy_inputs())
def test_greedy_bounds_are_certified_for_any_passed_in_orientation(case):
    g, o = case
    try:
        res = approximate_ccw(g, o)
    except CCWidthError:
        return
    cert = res.witness_star
    assert cover_width(g, res.witness_cover) == res.upper
    # a graph with no vertices has no star: its certificate is degenerate
    assert validate_star(g, cert) if g.n else cert.degenerate
    assert cert.leaf_count == res.upper + 1
    assert res.lower == max(0, -(-(res.upper + 1) // 2) - 1)
