"""Differential tests of the mask <-> pair converters, the edge-list reader,
the JSON pair-list readers and the ordered-cover enumeration against the
code they replaced, which is kept below verbatim as the reference.

Graphs reach 70 vertices, so rows cross the 64-bit word; orientations
include loops and non-transitive arc sets.  Text outputs must match byte for
byte, and bad pair lists must raise the same error for the same pair.  An
orientation file is a vertex order: every acyclic orientation must come
back from its order text, and the reference's arcs text is refused.  A
JSON document is decoded once, with read() run once: on its skeleton when
the kernel reads every edge list as the skeleton is decoded, else on its
text, with the reference's result or error either way.  A decomposition's
edge list that is the writer's text for the factor its recorded cover gives
for the graph is taken unread, again with the reference's outcome, on valid,
swapped, reordered, re-covered and tampered files.  Arc lists are read
only inside decompositions, by json and the plain loop of pair_rows, never
by the pair-text kernel.  Near-complete edge lists are written and read by
cuts of K_n's rows (RowText): its writer must give the reference's text,
and its matcher must accept exactly that text and agree with the token
kernel and the reference readers.  The width each enumerated cover carries
must be the width part_masks measures.
"""

import dataclasses
import importlib
import json
import random
import re
import tracemalloc
from contextlib import contextmanager
from itertools import combinations, compress
from operator import or_

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ccwidth import Orientation, build_graph, clique_cover_width_exact, complement, decompose, verify_transitive
from ccwidth import graphs as kernel
from ccwidth import covers as covers_mod
from ccwidth.covers import OrderedCliqueCover, cover_to_json, cover_width, make_cover, part_masks, trivial_cover
from ccwidth.decompose import (
    Decomposition,
    Factor,
    _decomposition,
    _lists_or_none,
    decomposition_from_json,
    decomposition_to_json,
    verify_decomposition,
)
from ccwidth.errors import (
    CyclicOrientationError,
    IndexOutOfRangeError,
    InvalidCoverError,
    ParseError,
    SelfLoopError,
)
from ccwidth.graphs import (
    Graph,
    bits,
    is_count,
    is_lists,
    is_pairs,
    load_json,
    parse_graph,
    read_pair_json,
    selector,
    serialize_graph,
)
from ccwidth.generators import random_connected_graph, random_unit_width_graph
from ccwidth.incomparability import greedy_layered_cover, random_poset_graph
from ccwidth.oracles import (
    _cliques_containing,
    enumerate_ordered_covers,
    find_transitive_orientation,
    orientation_from_json,
    orientation_to_json,
)

from conftest import graphs

# ---------------------------------------------------------------------------
# the replaced code


def ref_edges(self):
    """Edge list sorted by (min endpoint, max endpoint)."""
    out = []
    for u in range(self.n):
        m = self.adj[u] >> (u + 1) << (u + 1)  # neighbors above u
        for v in bits(m):
            out.append((u, v))
    return out


def ref_build_graph(n, edges):
    if n < 0:
        raise IndexOutOfRangeError("vertex count must be non-negative")
    adj = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise IndexOutOfRangeError(f"edge ({u},{v}) out of range for n={n}")
        if u == v:
            raise SelfLoopError(f"self-loop at vertex {u}")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(n, tuple(adj))


def ref_from_arcs(n, arcs):
    if n < 0:
        raise IndexOutOfRangeError("vertex count must be non-negative")
    succ = [0] * n
    for u, v in arcs:
        if not (0 <= u < n and 0 <= v < n):
            raise IndexOutOfRangeError(f"arc ({u},{v}) out of range for n={n}")
        succ[u] |= 1 << v
    return Orientation(n, tuple(succ))


def ref_arcs(self):
    """All arcs (u, v), sorted."""
    return tuple((u, v) for u, m in enumerate(self.succ) for v in bits(m))


def ref_pred(self):
    """pred[v] = bitmask of the tails of the arcs entering v."""
    pred = [0] * self.n
    for u, m in enumerate(self.succ):
        bit = 1 << u
        for v in bits(m):
            pred[v] |= bit
    return pred


def ref_verify_transitive(o):
    succ = o.succ
    for u, m in enumerate(succ):
        if m >> u & 1:
            return False
        for v in bits(m):
            if succ[v] & ~m:
                return False
    return True


def ref_is_acyclic(o):
    """True iff o has no directed cycle, loops included: strip the vertices
    with no arc from another remaining vertex until none are left."""
    pred = ref_pred(o)
    left = set(range(o.n))
    while left:
        sources = {v for v in left if not any(pred[v] >> u & 1 for u in left)}
        if not sources:
            return False
        left -= sources
    return True


def ref_pairs_text(rows, head, tail, sep=""):
    """head.format(u) + tail.format(v) for every pair (u, v) with bit v set
    in rows[u], sorted and joined by sep, with no (u, v) tuple made."""
    vs = range(len(rows))
    tails = [tail.format(v) for v in vs]
    return sep.join(
        h + (sep + h).join(compress(tails, selector(m))) for h, m in zip(map(head.format, vs), rows) if m
    )


def ref_serialize_graph(g, fmt="edge-list"):
    edges = ref_edges(g)
    if fmt == "edge-list":
        lines = [f"p {g.n} {len(edges)}"]
        lines += [f"e {u} {v}" for u, v in edges]
        return "\n".join(lines) + "\n"
    if fmt == "json":
        return json.dumps({"n": g.n, "edges": edges}, sort_keys=True)
    if fmt == "dot":
        lines = ["graph {"]
        for v in range(g.n):
            lines.append(f"  {v};")
        for u, v in edges:
            lines.append(f"  {u} -- {v};")
        lines.append("}")
        return "\n".join(lines) + "\n"
    raise ValueError(fmt)


def ref_parse_edge_list(text):
    """The line-by-line reader, building through ref_build_graph."""
    n = None
    m_declared = None
    pairs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if tokens[0] == "p":
            if n is not None:
                raise ParseError("duplicate header line", line=lineno)
            if len(tokens) != 3:
                raise ParseError("header must be 'p <n> <m>'", line=lineno)
            try:
                n, m_declared = int(tokens[1]), int(tokens[2])
            except ValueError:
                raise ParseError("non-integer header fields", line=lineno) from None
        elif tokens[0] == "e":
            if n is None:
                raise ParseError("edge line before header", line=lineno)
            if len(tokens) != 3:
                raise ParseError("edge line must be 'e <u> <v>'", line=lineno)
            try:
                u, v = int(tokens[1]), int(tokens[2])
            except ValueError:
                raise ParseError("non-integer edge endpoints", line=lineno) from None
            pairs.append((u, v))
        else:
            raise ParseError(f"unknown line type {tokens[0]!r}", line=lineno)
    if n is None:
        raise ParseError("missing header line")
    if m_declared is not None and m_declared != len(pairs):
        raise ParseError(f"header declares {m_declared} edges, found {len(pairs)}")
    return ref_build_graph(n, pairs)


def ref_parse_json_graph(text):
    obj = load_json(text, "graph", n=is_count, edges=is_pairs)
    return build_graph(obj["n"], obj["edges"])


def ref_parse_graph(text):
    """The JSON reference when the first non-blank character is "{", else
    the edge-list one: a mutated JSON text may no longer be JSON."""
    return (ref_parse_json_graph if text.lstrip().startswith("{") else ref_parse_edge_list)(text)


def ref_orientation_from_arcs_json(text, g):
    """What orientation_from_json makes of a file with an "arcs" key: the
    error of json.loads(text) or of its vertex count, else a refusal that
    names the order, whatever the arcs and g."""
    load_json(text, "orientation", n=is_count)
    raise ParseError("orientation JSON must give the vertex 'order', not 'arcs'")


def ref_decomposition_from_json(text):
    obj = load_json(text, "decomposition", cover=is_lists, factors=lambda x: type(x) is list)
    factors = []
    for fo in obj["factors"]:
        fo = load_json(
            fo, "factor", kind=lambda x: type(x) is str, bipartition=_lists_or_none, blocks=_lists_or_none
        )
        go = load_json(fo.get("graph"), "factor graph", n=is_count, edges=is_pairs)
        ori = None
        if fo.get("orientation"):
            oo = load_json(fo["orientation"], "factor orientation", n=is_count, arcs=is_pairs)
            ori = Orientation.from_arcs(oo["n"], oo["arcs"])
        bip = tuple(tuple(s) for s in fo["bipartition"]) if fo.get("bipartition") else None
        blocks = make_cover(fo["blocks"]) if fo.get("blocks") is not None else None
        factors.append(Factor(build_graph(go["n"], go["edges"]), fo["kind"], bip, ori, blocks))
    return Decomposition(make_cover(obj["cover"]), tuple(factors))


# a graph on more vertices than any decomposition file here: no file's
# cover is a cover of it, so decomposition_from_json reads every list
UNMATCHED = Graph(1000, (0,) * 1000)


def ref_orientation_to_json(o):
    return json.dumps({"n": o.n, "arcs": ref_arcs(o)}, sort_keys=True)


def ref_decomposition_to_json(d):
    factors = []
    for f in d.factors:
        factors.append(
            {
                "graph": {"n": f.graph.n, "edges": ref_edges(f.graph)},
                "kind": f.kind,
                "bipartition": f.bipartition or None,
                "orientation": {"n": f.orientation.n, "arcs": ref_arcs(f.orientation)} if f.orientation else None,
                "blocks": f.blocks.parts if f.blocks else None,
            }
        )
    return json.dumps(
        {"cover": d.source_cover.parts, "factors": factors},
        sort_keys=True,
    )


def ref_enumerate_ordered_covers(g):
    """All ordered clique covers of g, in canonical order.  Exponential; only
    meant for exhaustive desk-scale checks."""
    adj = g.adj

    def rec(remaining: int, parts: tuple[tuple[int, ...], ...]):
        if remaining == 0:
            yield OrderedCliqueCover(parts)
            return
        for part in _cliques_containing(adj, remaining, 0):
            yield from rec(remaining & ~part, parts + (tuple(bits(part)),))

    yield from rec(g.full_mask(), ())


# ---------------------------------------------------------------------------
# inputs

DENSITIES = (0.0, 0.03, 0.3, 0.7, 1.0)


@st.composite
def wide_graphs(draw, max_n=70):
    n = draw(st.integers(0, max_n))
    density = draw(st.sampled_from(DENSITIES))
    rng = random.Random(draw(st.integers(0, 2**32)))
    return ref_build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density])


@st.composite
def orientations(draw, max_n=70):
    """Arbitrary arc sets (loops and antiparallel arcs allowed) and
    transitive closures of random DAGs, under a random relabeling."""
    n = draw(st.integers(0, max_n))
    density = draw(st.sampled_from(DENSITIES))
    rng = random.Random(draw(st.integers(0, 2**32)))
    kind = draw(st.sampled_from(["arbitrary", "transitive", "transitive_plus_one"]))
    if kind == "arbitrary":
        arcs = [(u, v) for u in range(n) for v in range(n) if rng.random() < density]
        return ref_from_arcs(n, arcs)
    succ = [0] * n
    for u in range(n - 1, -1, -1):
        for v in range(u + 1, n):
            if rng.random() < density and not succ[u] >> v & 1:
                succ[u] |= 1 << v | succ[v]
    perm = list(range(n))
    rng.shuffle(perm)
    arcs = [(perm[u], perm[v]) for u in range(n) for v in bits(succ[u])]
    if kind == "transitive_plus_one" and n:
        arcs.append((rng.randrange(n), rng.randrange(n)))
    return ref_from_arcs(n, arcs)


# ---------------------------------------------------------------------------
# writers and transposes


# rows wider than one 64-bit word, every time
WIDE_GRAPH = ref_build_graph(70, [(u, v) for u in range(70) for v in range(u + 1, 70) if (u * v + v) % 3])
WIDE_ORIENTATION = ref_from_arcs(70, [(u, v) for u in range(70) for v in range(70) if (u + 2 * v) % 5 == 0])


@settings(max_examples=60, deadline=None)
@given(wide_graphs())
@example(WIDE_GRAPH)
def test_graph_edges_and_text_match_the_reference(g):
    assert g.edges() == ref_edges(g)
    for fmt in ("edge-list", "json", "dot"):
        assert serialize_graph(g, fmt) == ref_serialize_graph(g, fmt)
    assert parse_graph(serialize_graph(g)) == g


@settings(max_examples=60, deadline=None)
@given(orientations())
@example(WIDE_ORIENTATION)
def test_orientation_converters_match_the_reference(o):
    assert o.arcs == ref_arcs(o)
    assert o.pred() == ref_pred(o)
    assert verify_transitive(o) == ref_verify_transitive(o)
    g = complement(o.underlying())
    assert Orientation.from_arcs(o.n, ref_arcs(o)) == o
    with pytest.raises(ParseError, match="'order'"):
        orientation_from_json(ref_orientation_to_json(o), g)
    if ref_is_acyclic(o):
        assert orientation_from_json(orientation_to_json(o), g) == o
    else:
        with pytest.raises(CyclicOrientationError):
            orientation_to_json(o)


def test_verify_transitive_agrees_on_a_70_vertex_poset_and_a_loop():
    _, o = random_poset_graph(70, 0.1, 3)
    assert verify_transitive(o) and ref_verify_transitive(o)
    loop = Orientation(3, (0b001, 0, 0))
    assert not verify_transitive(loop) and not ref_verify_transitive(loop)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 70), st.sampled_from((0.02, 0.1, 0.3)), st.integers(0, 2**16))
def test_decomposition_json_matches_the_reference(n, density, seed):
    g, o = random_poset_graph(n, density, seed)
    for cover in (greedy_layered_cover(o).cover, trivial_cover(g)):
        d = decompose(g, cover)
        text = decomposition_to_json(d)
        assert text == ref_decomposition_to_json(d)
        assert decomposition_from_json(text, g) == d == decomposition_from_json(text, UNMATCHED)
        for f in d.factors:
            assert serialize_graph(f.graph, "dot") == ref_serialize_graph(f.graph, "dot")


# ---------------------------------------------------------------------------
# readers: the same result, or the same error for the same first bad pair


def outcome(build, n, pairs):
    try:
        return build(n, pairs)
    except (IndexOutOfRangeError, SelfLoopError) as exc:
        return type(exc), str(exc)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_readers_match_the_reference_on_bad_pairs(data):
    n = data.draw(st.integers(0, 70))
    vertex = st.integers(-3, n + 2)
    pairs = data.draw(st.lists(st.tuples(vertex, vertex), max_size=20))
    assert outcome(build_graph, n, pairs) == outcome(ref_build_graph, n, pairs)
    assert outcome(Orientation.from_arcs, n, pairs) == outcome(ref_from_arcs, n, pairs)
    # any iterable, not only a list
    assert outcome(build_graph, n, iter(pairs)) == outcome(ref_build_graph, n, pairs)


@pytest.mark.parametrize(
    "pairs, error, message",
    [
        ([(0, 1), (1, 1), (0, 9)], SelfLoopError, "self-loop at vertex 1"),
        ([(0, 1), (0, 9), (1, 1)], IndexOutOfRangeError, "edge (0,9) out of range for n=3"),
        ([(2, 2), (-1, 2)], SelfLoopError, "self-loop at vertex 2"),
        ([(-1, 2), (2, 2)], IndexOutOfRangeError, "edge (-1,2) out of range for n=3"),
        ([(0, -3)], IndexOutOfRangeError, "edge (0,-3) out of range for n=3"),
    ],
)
def test_build_graph_reports_the_first_bad_pair(pairs, error, message):
    with pytest.raises(error) as exc:
        build_graph(3, pairs)
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "build, pairs, error, message",
    [
        (build_graph, [(0, "a")], TypeError, "edge endpoints must be integers"),
        (build_graph, [(0, 1.5), (0, 9)], TypeError, "edge endpoints must be integers"),
        (build_graph, [(0, 9), (0, 1.5)], IndexOutOfRangeError, "edge (0,9) out of range for n=3"),
        (build_graph, [(None, 0), (1, 1)], TypeError, "edge endpoints must be integers"),
        (build_graph, [(1, 1), (None, 0)], SelfLoopError, "self-loop at vertex 1"),
        (Orientation.from_arcs, [(1.0, 2)], TypeError, "arc endpoints must be integers"),
        (Orientation.from_arcs, [(1, 1), ("a", 0), (0, 9)], TypeError, "arc endpoints must be integers"),
        (Orientation.from_arcs, [(0, 9), ("a", 0)], IndexOutOfRangeError, "arc (0,9) out of range for n=3"),
    ],
)
def test_a_non_integer_endpoint_raises_type_error_in_input_order(build, pairs, error, message):
    # the first bad pair wins, whatever is wrong with it
    with pytest.raises(error) as exc:
        build(3, pairs)
    assert str(exc.value) == message


def test_from_arcs_rejects_negative_vertices_and_keeps_loops():
    with pytest.raises(IndexOutOfRangeError, match=r"arc \(-1,0\) out of range for n=2"):
        Orientation.from_arcs(2, [(0, 0), (-1, 0)])
    with pytest.raises(IndexOutOfRangeError, match=r"arc \(1,-2\) out of range for n=2"):
        Orientation.from_arcs(2, [(1, -2)])
    assert Orientation.from_arcs(2, [(1, 1), (0, 1)]).succ == (0b10, 0b10)


def test_negative_vertex_in_an_edge_list_is_out_of_range():
    with pytest.raises(IndexOutOfRangeError, match=r"edge \(-1,2\) out of range for n=3"):
        parse_graph("p 3 1\ne -1 2\n")


# ---------------------------------------------------------------------------
# the edge-list reader: the same graph, or the same error on the same line

ARABIC_INDIC = str.maketrans("0123456789", "\u0660\u0661\u0662\u0663\u0664\u0665\u0666\u0667\u0668\u0669")


def numeral(tok, how):
    """tok written another way that int() reads as the same number."""
    if how == "arabic":
        return tok.translate(ARABIC_INDIC)
    return {"zero": "0" + tok, "plus": "+" + tok, "under": tok[:1] + "_" + tok[1:]}[how]


def mutate(lines, kind, i, n):
    """lines with one edit of the given kind at (or near) index i."""
    lines = list(lines)
    i = i % (len(lines) + 1)
    at = min(i, len(lines) - 1)
    if kind == "comment":
        lines.insert(i, "# a comment")
    elif kind == "tail_comment" and lines:
        lines[at] += " # tail"
    elif kind == "blank":
        lines.insert(i, "   " if i % 2 else "")
    elif kind == "tabs" and lines:
        lines[at] = "\t".join(lines[at].split(" "))
    elif kind == "pad" and lines:
        lines[at] = "  " + lines[at] + " \t"
    elif kind in ("zero", "plus", "under", "arabic") and lines:
        tokens = lines[at].split(" ")
        j = 1 + i % 2 if len(tokens) == 3 else 0
        tokens[j] = numeral(tokens[j], kind)
        lines[at] = " ".join(tokens)
    elif kind == "duplicate" and len(lines) > 1:
        lines.insert(i, lines[max(at, 1)])
    elif kind == "reverse" and lines and len(lines[at].split()) == 3:
        e, u, v = lines[at].split()
        lines[at] = f"{e} {v} {u}"
    elif kind in ("self_loop", "negative", "out_of_range"):
        # in place of an edge line where there is one, so the count still holds
        k = i % (n + 1)
        bad = {"self_loop": f"e {k} {k}", "negative": f"e -{1 + i % 3} 0", "out_of_range": f"e 0 {n + i % 3}"}
        lines[max(at, 1):max(at, 1) + 1] = [bad[kind]]
    elif kind == "wrong_m" and lines and lines[0].startswith("p ") and lines[0][-1].isdecimal():
        last = lines[0][-1]
        lines[0] = lines[0][:-1] + (last + "1" if i % 2 else str((int(last) + 1) % 10))
    elif kind == "no_header" and lines:
        del lines[0]
    elif kind == "second_header" and lines:
        lines.insert(i, lines[0])
    elif kind == "late_header" and len(lines) > 1:
        lines.insert(1 + i % (len(lines) - 1), lines.pop(0))
    elif kind == "four_fields":
        lines.insert(i, "e 1 2 3")
    elif kind == "q_line":
        lines.insert(i, "q 1 2")
    return lines


MUTATIONS = (
    "comment tail_comment blank tabs pad zero plus under arabic duplicate reverse self_loop "
    "negative out_of_range wrong_m no_header second_header late_header four_fields q_line"
).split()
LINE_BREAKS = ("\n", "\r\n", "\r", "\x0b", "\x0c", "\u2028")


def read(parse, text):
    try:
        return parse(text)
    except (ParseError, IndexOutOfRangeError, SelfLoopError) as exc:
        return type(exc), str(exc), getattr(exc, "line", None)


@settings(max_examples=300, deadline=None)
@given(wide_graphs(), st.data())
def test_edge_list_reader_matches_the_reference(g, data):
    lines = serialize_graph(g).splitlines()
    edits = data.draw(st.lists(st.tuples(st.sampled_from(MUTATIONS), st.integers(0, 10**6)), max_size=3))
    for kind, i in edits:
        lines = mutate(lines, kind, i, g.n)
    text = data.draw(st.sampled_from(LINE_BREAKS)).join(lines) + data.draw(st.sampled_from(("", "\n")))
    assert read(parse_graph, text) == read(ref_parse_edge_list, text)


@pytest.mark.parametrize(
    "text",
    [
        "",
        "p 3 0",
        "p 3 1\ne 0 1 # c",
        "p 3 1\ne 00 1",
        "p 12 1\ne 1_0 1",
        "p 3 1\ne \u0661 2",
        "p 3 1\ne 1 1",
        "p 3 1\ne 1 3",
        "p -1 0",
        "p 3 1\nq 0 1",
        "p 3 1\ne 0 1\ne 1 2",
        "p 3 x\ne 0 1",
        "e 0 1\np 3 1",
    ],
)
def test_edge_list_reader_matches_the_reference_on_hand_picked_texts(text):
    assert read(parse_graph, text) == read(ref_parse_edge_list, text)


def test_edge_list_reader_peak_memory_stays_under_ten_times_the_text():
    # K_448: 100,128 edges in the canonical form, about 1 MB of text; the
    # per-line pair list the reader used to build peaked near 16x the text,
    # and splitting the whole text into one token list costs more still
    n = 448
    full = (1 << n) - 1
    text = serialize_graph(Graph(n, tuple(full ^ 1 << v for v in range(n))))
    tracemalloc.start()
    try:
        g = parse_graph(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.edge_count() == 100_128
    assert peak < 10 * len(text), (peak, len(text))


@pytest.mark.parametrize(
    "read",
    [
        lambda: parse_graph("p 40000 0"),
        lambda: parse_graph('{"n": 40000, "edges": []}'),
        # an arcs file is refused before anything of its vertex count is made
        lambda: pytest.raises(
            ParseError, orientation_from_json, '{"n": 40000, "arcs": []}', Graph(40000, (0,) * 40000)
        ),
        lambda: parse_graph("p 40000 1\ne 0 39999\n"),
    ],
    ids=["edge-list", "json", "orientation", "one-edge"],
)
def test_readers_peak_memory_follows_the_vertices_named_not_the_header(read):
    # a table of 1 << v for every v < n holds n^2 / 2 bits, ~100 MB here
    tracemalloc.start()
    try:
        read()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10_000_000, peak


# ---------------------------------------------------------------------------
# the pair-text kernel: the same result, or the same error, at any chunk size


@contextmanager
def pair_chunk(size):
    """Run the pair-text kernel with chunks of at most size characters."""
    saved = kernel.PAIR_CHUNK
    kernel.PAIR_CHUNK = size
    try:
        yield
    finally:
        kernel.PAIR_CHUNK = saved


CHUNKS = (1, 8, 16, 37, 64, 1 << 16)


def outcome_of(read, *args):
    try:
        return read(*args)
    except Exception as exc:  # any error must be the reference's, type and message
        return type(exc), str(exc)


def test_bit_matrix_lines_read_rows_and_columns():
    matrix = "101" "000" "110"  # rows 0b110, 0b000, 0b101, last row first
    assert kernel.bit_matrix_lines(matrix, 3) == [0b110, 0b000, 0b101]
    assert kernel.bit_matrix_lines(matrix, 3, transpose=True) == [0b100, 0b001, 0b101]
    assert kernel.bit_matrix_lines(matrix.encode(), 3) == [0b110, 0b000, 0b101]
    assert kernel.bit_matrix_lines("", 0) == [] == kernel.bit_matrix_lines(b"", 0, transpose=True)


@settings(max_examples=60, deadline=None)
@given(wide_graphs(), st.sampled_from(CHUNKS[2:]))
@example(WIDE_GRAPH, 16)
def test_canonical_edge_lists_are_read_by_the_kernel_at_any_chunk_size(g, size):
    # every chunk size that holds the longest line: the kernel reads the
    # text itself, so the differential tests below do not only test the
    # line-by-line fallback
    text = serialize_graph(g)
    with pair_chunk(max(size, 2 * len(str(g.n)) + 4)):
        assert kernel._read_edge_list(text) == g or g.n * g.n > kernel.MATRIX_ROOM * len(text)


@settings(max_examples=300, deadline=None)
@given(wide_graphs(), st.data())
def test_edge_list_reader_matches_the_reference_at_any_chunk_size(g, data):
    lines = serialize_graph(g).splitlines()
    edits = data.draw(st.lists(st.tuples(st.sampled_from(MUTATIONS), st.integers(0, 10**6)), max_size=3))
    for kind, i in edits:
        lines = mutate(lines, kind, i, g.n)
    text = "\n".join(lines) + data.draw(st.sampled_from(("", "\n")))
    with pair_chunk(data.draw(st.sampled_from(CHUNKS))):
        assert read(parse_graph, text) == read(ref_parse_edge_list, text)


PAIR = re.compile(r"\[(\d+), (\d+)\]")
NUMBER = re.compile(r"-?\d+")
JSON_MUTATIONS = (
    "reorder spaces newline reverse duplicate swap out_of_range negative loop "
    "float true minus_zero triple single nul_kind extra truncate"
).split()


def mutate_json(text, kind, i, n):
    """text with one edit of the given kind at (or near) the i-th match."""
    pairs = list(PAIR.finditer(text))
    numbers = list(NUMBER.finditer(text))
    pair = pairs[i % len(pairs)] if pairs else None
    number = numbers[i % len(numbers)] if numbers else None
    if kind == "reorder":
        def backwards(obj):
            if type(obj) is dict:
                return {k: backwards(obj[k]) for k in sorted(obj, reverse=True)}
            return [backwards(x) for x in obj] if type(obj) is list else obj
        try:
            return json.dumps(backwards(json.loads(text)))
        except ValueError:
            return text
    if kind == "spaces":
        at = [m.start() for m in re.finditer(", ", text)]
        return text if not at else text[:at[i % len(at)]] + ",  " + text[at[i % len(at)] + 2:]
    if kind == "newline":
        return text.replace(": ", ":\n", 1 + i % 3)
    if kind == "truncate":
        return text[:i % (len(text) + 1)]
    if kind == "nul_kind":
        return text.replace('"kind": "co_bipartite"', '"kind": "\\u0000"', 1 + i % 2)
    if kind == "extra" and text.startswith("{"):
        # a key the readers ignore, sorted first, holding a pair list that
        # is well formed or not
        return '{"aaa": {"edges": ' + ("[[0, 1]]", "[[0, x]]", "[[0, 1], [2]]")[i % 3] + "}, " + text[1:]
    if number is not None and kind in ("out_of_range", "negative", "float", "true", "minus_zero"):
        new = {"out_of_range": str(n + i % 3), "negative": f"-{1 + i % 3}", "float": "1.0",
               "true": "true", "minus_zero": "-0"}[kind]
        return text[:number.start()] + new + text[number.end():]
    if pair is None:
        return text
    u, v = pair.groups()
    new = {"reverse": f"[{v}, {u}]", "duplicate": f"[{u}, {v}], [{u}, {v}]", "loop": f"[{u}, {u}]",
           "triple": f"[{u}, {v}, {u}]", "single": f"[{u}]"}.get(kind)
    if kind == "swap" and len(pairs) > 1:
        other = pairs[(i + 1) % len(pairs)]
        if other.start() > pair.end():
            return (text[:pair.start()] + other.group() + text[pair.end():other.start()] + pair.group()
                    + text[other.end():])
    return text if new is None else text[:pair.start()] + new + text[pair.end():]


def mutated_json(data, text, n):
    edits = data.draw(st.lists(st.tuples(st.sampled_from(JSON_MUTATIONS), st.integers(0, 10**6)), max_size=3))
    for kind, i in edits:
        text = mutate_json(text, kind, i, n)
    return text


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 40), st.sampled_from((0.02, 0.1, 0.3)), st.integers(0, 2**16), st.data())
def test_decomposition_reader_matches_the_reference(n, density, seed, data):
    g, o = random_poset_graph(n, density, seed)
    cover = data.draw(st.sampled_from((greedy_layered_cover(o).cover, trivial_cover(g))))
    text = mutated_json(data, decomposition_to_json(decompose(g, cover)), n)
    for_graph = data.draw(st.sampled_from((g, UNMATCHED)))
    with pair_chunk(data.draw(st.sampled_from(CHUNKS))):
        assert outcome_of(decomposition_from_json, text, for_graph) == outcome_of(ref_decomposition_from_json, text)


@settings(max_examples=150, deadline=None)
@given(wide_graphs(max_n=40), orientations(max_n=40), st.data())
def test_json_graph_and_arcs_readers_match_the_reference(g, o, data):
    text = mutated_json(data, serialize_graph(g, "json"), g.n)
    arcs = mutated_json(data, ref_orientation_to_json(o), o.n)
    edgeless = Graph(o.n, (0,) * o.n)  # an arcs file is refused whatever the graph
    with pair_chunk(data.draw(st.sampled_from(CHUNKS))):
        assert outcome_of(parse_graph, text) == outcome_of(ref_parse_graph, text)
        expected = outcome_of(ref_orientation_from_arcs_json, arcs, edgeless)
        assert outcome_of(orientation_from_json, arcs, edgeless) == expected


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 60), st.sampled_from((0.02, 0.1, 0.3)), st.integers(0, 2**16), st.sampled_from(CHUNKS[2:]))
def test_written_decompositions_are_read_from_their_skeleton(n, density, seed, size):
    # the pair lists of a file the writer made are read by the kernel: read()
    # runs once, on the decoded skeleton, never on the whole text
    g, o = random_poset_graph(n, density, seed)
    d = decompose(g, greedy_layered_cover(o).cover)
    text = decomposition_to_json(d)
    seen = []
    with pair_chunk(max(size, 2 * len(str(n)) + 6)):
        assert read_pair_json(text, lambda value: seen.append(type(value)) or _decomposition(value)) == d
    assert seen == [dict]


@pytest.mark.parametrize(
    "text, least_chunk",
    [
        ("p 3 2\ne 0 1\ne 1 2\n", 8),
        ("p 0 0\n", 1),
        ("p 3 1\nq 0 1\n", None),
        ("p 3 1\ne 0 1 \n", None),
        ("p 3 1\ne  0 1\n", None),
        ("p 3 1\ne 0 1", None),
        ("p 3 1\ne 0 1\n\n", None),
        ("p 3 1\ne 1 1\n", None),
        ("p 3 2\ne 0 1\n", None),
        ("p 3 2\ne 0 1 e 1 2\n", None),
        ("p 03 1\ne 0 1\n", None),
        ("p 3 1 \ne 0 1\n", None),
        ("p 3 1\ne 0 3\n", None),
        ("p 3 1\ne 0 -1\n", None),
        ("p 3 1\ne 0 1\r\n", None),
        ("p 3 1\ne 0 1\x0b", None),
    ],
)
def test_edge_list_kernel_reads_only_the_writers_form(text, least_chunk):
    # the kernel reads the text at every chunk size from least_chunk on (None:
    # never), and the result is the reference's either way
    for size in CHUNKS:
        with pair_chunk(size):
            assert (kernel._read_edge_list(text) is not None) == (least_chunk is not None and size >= least_chunk)
            assert read(parse_graph, text) == read(ref_parse_edge_list, text)


@pytest.mark.parametrize(
    "text, least_chunk",
    [
        ('{"edges": [[0, 1], [1, 2]], "n": 3}', 8),
        ('{"edges": [], "n": 3}', 1),
        ('{"edges": [[0, 1],[1, 2]], "n": 3}', None),
        ('{"edges": [[0, 1], [2]], "n": 3}', None),
        ('{"edges": [[0, 1], [1, 2, 0]], "n": 3}', None),
        ('{"edges": [[0, 1], [1, 1]], "n": 3}', None),
        ('{"edges": [[0, 1], [1, 3]], "n": 3}', None),
        ('{"edges": [[0, 1], [01, 2]], "n": 3}', None),
        ('{"edges": [[0, 1], [1, 2]], "n": 3, "x": {"edges": [[0, 1]]}}', None),
        ('{"edges": [[0, 1]], "n": 3, "x": "\\u0000"}', None),
        ('{"\\u0000": 1, "edges": [[0, 1]], "n": 3}', None),
        ('{"edges": [[0, 1]], "n": 3, "x": {"edges": "\\u00000", "n": 3}}', None),
        ('{"n": 3, "edges": [[0, 1], [1, 2]]}', 8),
        ('{"edges": [[0, 1], [1, 2]], "n": 3}\n', 8),
        ('{ "edges": [[0, 1], [1, 2]],  "n" : 3 }', 8),
        ('{"edges": [[0, 1]], "edges": [[1, 2]], "n": 3}', None),
        ('{"edges": [[0, 1], [1, 2]], "n": 3, "x": {"edges": [[0, 1]], "n": 2}}', 8),
        ('{"edges": [[0, 1], [1, 2]], "n": 3, "x": {"edges": [[0, 1]], "n": 1}}', None),
        ('{"edges": [[0, 1], [1, 2]]}', None),
        ('{"edges": [[0, 1], [1, 2]], "n": true}', None),
        ('{"edges": [[0, 1], [1, 2]], "n": -1}', None),
        ('{"edges": [[0, 1], [1, 2]], "n": %d}' % 10**30, None),
    ],
)
def test_json_kernel_reads_only_the_writers_form(text, least_chunk):
    for size in CHUNKS:
        seen = []
        with pair_chunk(size):
            assert outcome_of(parse_graph, text) == outcome_of(ref_parse_json_graph, text)
            outcome_of(read_pair_json, text, lambda value: seen.append(type(value)) or ref_parse_json_graph(value))
        assert (seen == [dict]) == (least_chunk is not None and size >= least_chunk), seen


def test_json_readers_raise_the_general_readers_error_first():
    # the terminal factor's edges hold a three-element pair, and its
    # orientation a bad n: the general reader meets the edges first, while
    # the kernel only meets them after the orientation
    g, o = random_poset_graph(7, 0.3, 1)
    text = decomposition_to_json(decompose(g, greedy_layered_cover(o).cover))
    terminal = text.rindex('"graph": {"edges": [[') + len('"graph": {"edges": [[')
    text = text[:terminal] + "0, 0, " + text[terminal:]
    text = re.sub(r'("orientation": \{"arcs": \[[^]]*(\][^]]*)*\], "n": )7', r"\g<1>-1", text)
    assert "-1" in text
    assert outcome_of(decomposition_from_json, text, g) == outcome_of(ref_decomposition_from_json, text)
    assert "'edges'" in str(outcome_of(decomposition_from_json, text, g))


@pytest.mark.parametrize("key", ["edges", "arcs"])
def test_canonical_json_with_a_large_n_and_no_pairs_stays_small(key):
    # the pair matrix of n = 5000 would take 25 MB for a 25-byte text
    text = json.dumps({key: [], "n": 5000}, sort_keys=True)
    edgeless = Graph(5000, (0,) * 5000)
    read = {
        "edges": lambda: parse_graph(text),
        "arcs": lambda: pytest.raises(ParseError, orientation_from_json, text, edgeless),
    }
    tracemalloc.start()
    try:
        read[key]()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10_000_000, peak


def test_decomposition_reader_peak_memory_stays_under_the_text_size():
    # an n = 160 decomposition with its greedy cover, about 2 MB of text: one
    # edge list is made (for g, whose lists all match) or copied out (for a
    # graph none matches) at a time, and the text is never decoded whole
    g, o = random_poset_graph(160, 0.05, 7)
    text = decomposition_to_json(decompose(g, greedy_layered_cover(o).cover))
    for for_graph in (g, UNMATCHED):
        tracemalloc.start()
        try:
            d = decomposition_from_json(text, for_graph)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(d.factors) > 10 and len(text) > 1_000_000
        assert peak < len(text), (peak, len(text), for_graph is g)


def test_a_document_the_kernel_reads_is_decoded_once_whatever_read_raises(monkeypatch):
    # the terminal orientation's "n" is -1: read() raises the reference's
    # error on the skeleton, and the 2 MB text is never decoded whole, with
    # its lists matched (for g) or read (for a graph none matches)
    g, o = random_poset_graph(160, 0.05, 7)
    text = decomposition_to_json(decompose(g, greedy_layered_cover(o).cover))
    at = text.rindex('"n": 160')
    assert text.rindex('"orientation": {') < at  # the last factor's last key
    text = text[:at] + '"n": -1' + text[at + len('"n": 160'):]
    expected = outcome_of(ref_decomposition_from_json, text)
    assert expected[0] is ParseError and "'n'" in expected[1]
    decoded = []
    real = kernel.json.loads
    monkeypatch.setattr(kernel.json, "loads", lambda s, **kw: decoded.append(len(s)) or real(s, **kw))
    for for_graph in (g, UNMATCHED):
        decoded.clear()
        assert outcome_of(decomposition_from_json, text, for_graph) == expected
        assert len(decoded) == 1 and decoded[0] < len(text) // 100, (decoded, len(text), for_graph is g)


# ---------------------------------------------------------------------------
# matched lists: a factor list that is the writer's text for the factor the
# file's cover gives is taken unread, with the reference's result either way


def decomposition_cases():
    """(g, cover) for poset graphs under greedy, exact and trivial covers,
    and for random connected graphs under exact and trivial covers."""
    for seed in range(3):
        g, o = random_poset_graph(9 + 8 * seed, 0.15, seed)
        yield g, greedy_layered_cover(o).cover
        if g.n <= 10:
            yield g, clique_cover_width_exact(g)[1]
        yield g, trivial_cover(g)
        g = random_connected_graph(8, 0.35, seed)
        yield g, clique_cover_width_exact(g)[1]
        yield g, trivial_cover(g)


def edited(text, edit):
    """The decomposition text re-encoded after edit(obj) changes its decoded
    object, in the writer's form: json.dumps writes the pair lists the
    writer does."""
    obj = json.loads(text)
    edit(obj)
    return json.dumps(obj, sort_keys=True)


def variants(g, cover, text):
    """(label, text, graph) of the file and of edits of it."""
    yield "valid", text, g
    lists = [m.span() for m in re.finditer(r'(?<="edges": )(\[\]|\[\[.*?\]\])', text)]
    if len(lists) > 1:
        (a, b), (c, d) = lists[0], lists[-1]
        yield "list replaced", text[:a] + text[c:d] + text[b:], g
        yield "factors reordered", edited(text, lambda obj: obj["factors"].reverse()), g
    for other in {make_cover(cover.parts[::-1]), trivial_cover(g)} - {cover}:
        yield "other valid cover", edited(text, lambda obj: obj.update(cover=other.parts)), g
    for bad in (cover.parts[:-1], ((g.n,),) + cover.parts, cover.parts + cover.parts[-1:]):
        yield "invalid cover", edited(text, lambda obj: obj.update(cover=bad)), g
    yield "other vertex count", text, random_connected_graph(g.n + 1, 0.5, g.n)
    for n in (g.n - 1, g.n + 1):
        yield "factor n changed", edited(text, lambda obj: obj["factors"][0]["graph"].update(n=n)), g
    pair = re.compile(r"\[\d+, \d+\](, )?").search(text, text.index('"edges": '))
    if pair:
        yield "pair dropped", text[:pair.start()] + text[pair.end():], g


@pytest.mark.parametrize("g, cover", list(decomposition_cases()))
def test_matched_lists_give_the_reference_outcome(monkeypatch, g, cover):
    d = decompose(g, cover)
    labels = []
    for label, text, h in variants(g, cover, decomposition_to_json(d)):
        assert outcome_of(decomposition_from_json, text, h) == outcome_of(ref_decomposition_from_json, text), label
        labels.append(label)
    assert {"valid", "other valid cover", "invalid cover", "other vertex count", "factor n changed",
            "pair dropped"} | ({"list replaced", "factors reordered"} if len(d.factors) > 1 else set()) <= set(labels)
    # the written file is long enough for its cover, and no list of it is read
    read = []
    real = kernel._read_rows
    monkeypatch.setattr(kernel, "_read_rows", lambda *args: read.append(1) or real(*args))
    assert decomposition_from_json(decomposition_to_json(d), g) == d
    assert read == []


def test_a_file_too_short_for_its_cover_builds_no_factor(monkeypatch):
    # one empty factor list under a valid cover of width 6 or more: a file
    # written through that cover holds every pair of g five times or more
    g, o = random_poset_graph(60, 0.1, 2)
    cover = greedy_layered_cover(o).cover
    assert cover_width(g, cover) > 5
    factor = {"bipartition": None, "blocks": None, "graph": {"edges": [], "n": 60}, "kind": "terminal",
              "orientation": None}
    text = json.dumps({"cover": cover.parts, "factors": [factor]}, sort_keys=True)
    module = importlib.import_module("ccwidth.decompose")
    built = []
    monkeypatch.setattr(module, "decompose", lambda *args: built.append(1) or decompose(*args))
    assert outcome_of(decomposition_from_json, text, g) == outcome_of(ref_decomposition_from_json, text)
    assert built == []
    assert decomposition_from_json(decomposition_to_json(decompose(g, cover)), g).source_cover == cover
    assert built == [1]


def test_verify_reads_no_list_of_a_written_file_and_one_tampered_list(monkeypatch, tmp_path, capsys):
    from ccwidth.cli import main

    g, o = random_poset_graph(60, 0.1, 2)
    d = decompose(g, greedy_layered_cover(o).cover)
    text = decomposition_to_json(d)
    assert len(d.factors) > 2
    # drop a pair of g from the first factor's list: it is read, the rest matched
    u, v = g.edges()[0]
    first = text.index('"edges": [') + len('"edges": [')
    tampered = text[:first] + text[first:].replace(f"[{u}, {v}], ", "", 1)
    assert len(tampered) < len(text)
    graph, stored = tmp_path / "g.graph", tmp_path / "decomposition.json"
    graph.write_text(serialize_graph(g))
    forms = []  # the form of each list read: the graph file's, then the decomposition's
    real = kernel._read_rows
    monkeypatch.setattr(kernel, "_read_rows", lambda *args: forms.append(args[5]) or real(*args))
    for doc, calls in ((text, 0), (tampered, 1)):
        stored.write_text(doc)
        forms.clear()
        code = main(["verify", str(graph), "--decomposition", str(stored)])
        report = json.loads(capsys.readouterr().out)
        expected = verify_decomposition(g, ref_decomposition_from_json(doc))
        assert forms == [kernel.EDGE_FORM] + [kernel.JSON_FORM] * calls
        assert code == (0 if expected.all_passed else 4) and code == 4 * calls
        assert report["results"]["checks"] == [
            {"check": c.name, "passed": c.passed, "detail": c.detail} for c in expected.checks
        ]


# ---------------------------------------------------------------------------
# near-complete pair lists: RowText writes the reference's text, and its
# matcher accepts only that text, with the kernel's rows and the reference
# readers' result

TEMPLATES = {"json": kernel.JSON_PAIR, "edge-list": kernel.EDGE_PAIR, "dot": kernel.DOT_PAIR}


@st.composite
def near_complete_graphs(draw, max_n=70):
    """Graphs at densities 0, 0.5, 0.9-1.0 and complete."""
    n = draw(st.integers(0, max_n))
    density = draw(st.sampled_from((0.0, 0.5, 0.9, 0.95, 0.98, 0.99, 1.0)))
    rng = random.Random(draw(st.integers(0, 2**32)))
    return ref_build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density])


def without(n, pairs):
    """K_n minus the given pairs."""
    return ref_build_graph(n, sorted(set(combinations(range(n), 2)) - set(pairs)))


def hand_picked_rows():
    """K_n less one pair, first or last of its row or its row's only pair
    (u = n - 2), an empty row, rows past the 64-bit word, and the complete
    graph."""
    return [
        without(8, [(0, 1)]),
        without(8, [(0, 7)]),
        without(8, [(3, 4)]),
        without(8, [(6, 7)]),
        without(8, [(5, 7), (6, 7)]),
        without(50, [(20, v) for v in range(21, 50)]),
        without(70, [(0, 69), (1, 65), (64, 65)]),
        without(70, []),
        without(2, []),
        without(2, [(0, 1)]),
    ]


def symmetric(upper):
    return tuple(map(or_, upper, kernel.transpose(upper)))


@settings(max_examples=100, deadline=None)
@given(near_complete_graphs(), near_complete_graphs(), st.sampled_from(sorted(TEMPLATES)))
def test_row_text_writes_the_reference_text(g, h, fmt):
    template = TEMPLATES[fmt]
    table = kernel.RowText(g.n, *template)
    # the table's rows, made for the first list, serve the later ones
    for rows in (g.upper(), complement(g).upper(), g.upper()):
        assert table.text(rows) == ref_pairs_text(rows, *template)
    assert serialize_graph(h, fmt) == ref_serialize_graph(h, fmt)
    assert list(kernel.pair_lists([g.upper(), h.upper(), g.upper()])) == [
        "[" + ref_pairs_text(rows, *kernel.JSON_PAIR) + "]" for rows in (g.upper(), h.upper(), g.upper())
    ]


@pytest.mark.parametrize("g", hand_picked_rows(), ids=lambda g: f"n{g.n}_m{g.edge_count()}")
@pytest.mark.parametrize("fmt", sorted(TEMPLATES))
def test_row_text_on_hand_picked_rows(g, fmt):
    template = TEMPLATES[fmt]
    text = ref_pairs_text(g.upper(), *template)
    table = kernel.RowText(g.n, *template)
    assert table.text(g.upper()) == text
    assert serialize_graph(g, fmt) == ref_serialize_graph(g, fmt)
    assert table.read(text, 0, len(text)) == list(g.upper())
    if fmt == "edge-list":  # the header's edge count is still checked
        wrong = f"p {g.n} {g.edge_count() + 1}\n" + text
        assert read(parse_graph, wrong) == read(ref_parse_edge_list, wrong)


def matched(text, n, template, lo, hi):
    """The matcher's rows for text[lo:hi]; whenever it accepts, text[lo:hi]
    is exactly what the writer makes of those rows."""
    upper = kernel.RowText(n, *template).read(text, lo, hi)
    if upper is not None:
        assert text[lo:hi] == ref_pairs_text(upper, *template)
    return upper


@settings(max_examples=300, deadline=None)
@given(near_complete_graphs(), st.data())
def test_dense_edge_list_reader_matches_the_kernel_and_the_reference(g, data):
    lines = serialize_graph(g).splitlines()
    edits = data.draw(st.lists(st.tuples(st.sampled_from(MUTATIONS), st.integers(0, 10**6)), max_size=2))
    for kind, i in edits:
        lines = mutate(lines, kind, i, g.n)
    text = "\n".join(lines) + data.draw(st.sampled_from(("", "\n")))
    assert read(parse_graph, text) == read(ref_parse_edge_list, text)
    head = text.find("\n") + 1
    upper = matched(text, g.n, kernel.EDGE_PAIR, head, len(text))
    if not edits and text.endswith("\n"):
        assert upper == list(g.upper())
    if upper is not None:
        pairs = kernel._read_pairs(g.n, kernel._edge_line_chunks(text, head, len(text)), "{}", "{}\ne")
        assert pairs is not None and pairs[0] == symmetric(upper)


@settings(max_examples=300, deadline=None)
@given(near_complete_graphs(max_n=40), st.data())
def test_dense_json_reader_matches_the_kernel_and_the_reference(g, data):
    text = mutated_json(data, serialize_graph(g, "json"), g.n)
    assert outcome_of(parse_graph, text) == outcome_of(ref_parse_graph, text)
    pairs = mutated_json(data, "[" + ref_pairs_text(g.upper(), *kernel.JSON_PAIR) + "]", g.n)
    upper = matched(pairs, g.n, kernel.JSON_PAIR, 1, len(pairs) - 1)
    if upper is not None:
        read = kernel._read_pairs(g.n, kernel._json_pair_chunks(pairs, 1, len(pairs) - 1), "[{},", "{}],")
        assert read is not None and read[0] == symmetric(upper)


@pytest.mark.parametrize(
    "text",
    [
        "e 0 2\ne 0 1\ne 1 2\n",  # tails out of order
        "e 1 2\ne 0 1\ne 0 2\n",  # rows out of order
        "e 0 1\ne 0 1\ne 0 2\ne 1 2\n",  # a pair twice
        "e 0 1\ne 0 2\ne 1 2",  # no last newline
        "e 0 1\ne 0 2\ne 2 1\n",  # a tail below its row
        "e 0 1\ne 0 2\ne 1 1\n",  # a loop
        "e 0 1\ne 0 02\ne 1 2\n",  # another numeral
        "e 0 1\ne 0 2\ne 1 2\ne 1 3\n",  # a vertex out of range
        "e 0 1\ne  0 2\ne 1 2\n",  # another separator
        "e 0 1\ne 0 2\n\ne 1 2\n",  # a blank line
    ],
)
def test_dense_matcher_declines_all_but_the_writers_form(text):
    assert kernel.RowText(3, *kernel.EDGE_PAIR).read(text, 0, len(text)) is None
    full = "p 3 3\n" + text
    assert read(parse_graph, full) == read(ref_parse_edge_list, full)


@pytest.mark.parametrize(
    "n, fmt, text, lo, hi",
    [
        (4, "edge-list", "e 1 2\ne 0 3\n", 0, 12),  # a row below the last, with a tail the last row allows
        (3, "edge-list", "e 0 1\ne 0 2\n", 0, 8),  # the region ends inside a pair
        (3, "json", "[0, 1], ", 0, 8),  # a separator with no pair after it
        (3, "json", "[0, 1]__[0, 2]", 0, 14),  # another separator
        (3, "json", "[0, 1], [0, 2],", 0, 15),
    ],
)
def test_dense_matcher_declines_text_outside_the_region_form(n, fmt, text, lo, hi):
    assert kernel.RowText(n, *TEMPLATES[fmt]).read(text, lo, hi) is None


def switch_graph(fmt, extra):
    """A graph whose pair text in fmt's template is the shortest that is
    still near complete, less `extra` more pairs, and the length of K_n's
    text.  The pairs removed join two two-digit vertices, or a one-digit
    vertex to a two-digit one, which takes one character less."""
    head, tail, sep = TEMPLATES[fmt]
    n = 90
    full = len(ref_pairs_text(without(n, []).upper(), head, tail, sep))
    short = full - -(-(kernel.DENSE - 1) * full // kernel.DENSE)  # K_n's text less the least dense length
    room = len(head.format(10) + tail.format(11) + sep)
    narrow = -short % room  # short = wide * room + narrow * (room - 1)
    wide = (short + narrow) // room - narrow
    pairs = list(combinations(range(10, n), 2))[:wide + extra] + [(0, 10 + k) for k in range(narrow)]
    return without(n, pairs), full


@pytest.mark.parametrize("extra", [0, 1])
@pytest.mark.parametrize("fmt", ["edge-list", "json"])
def test_a_list_at_the_density_switch_takes_the_dense_path_and_one_past_it_the_kernel(monkeypatch, fmt, extra):
    g, full = switch_graph(fmt, extra)
    body = len(ref_pairs_text(g.upper(), *TEMPLATES[fmt]))
    assert kernel.DENSE * (body - 1) < (kernel.DENSE - 1) * full
    assert (kernel.DENSE * body >= (kernel.DENSE - 1) * full) == (extra == 0)
    calls = []
    real = kernel.RowText.read
    monkeypatch.setattr(kernel.RowText, "read", lambda *args: calls.append(1) or real(*args))
    text = serialize_graph(g, fmt)
    reference = ref_parse_edge_list if fmt == "edge-list" else ref_parse_json_graph
    assert parse_graph(text) == g == reference(text)
    assert calls == ([1] if extra == 0 else [])


def unit_width_cover(n, seed):
    """random_unit_width_graph(n, seed) and the greedy cover of the
    orientation recognition finds for it."""
    g = random_unit_width_graph(n, seed)
    return g, greedy_layered_cover(find_transitive_orientation(complement(g))).cover


def test_arc_lists_stay_off_the_kernel(monkeypatch):
    # a width-1 cover leaves one factor, whose arcs are every non-edge of g:
    # json decodes them, and the kernel reads only the factor's edge list
    g, cover = unit_width_cover(40, 1)
    d = decompose(g, cover)
    assert len(d.factors) == 1 and len(d.factors[0].orientation.arcs) == complement(g).edge_count()
    seen = []
    real = kernel._read_rows
    monkeypatch.setattr(kernel, "_read_rows", lambda text, *args: seen.append(text) or real(text, *args))
    assert decomposition_from_json(decomposition_to_json(d), UNMATCHED) == d
    assert seen == [json.dumps(f.graph.edges()) for f in d.factors]


@pytest.mark.parametrize("fmt", sorted(TEMPLATES))
def test_pair_lists_and_a_shared_table_write_the_reference_text(fmt):
    g, h = without(9, [(0, 1)]), without(12, [(3, 4)])
    assert list(kernel.pair_lists([g.upper(), h.upper(), g.upper()])) == [json.dumps(ref_edges(x)) for x in (g, h, g)]
    table = kernel.RowText(9, *TEMPLATES[fmt])
    for x in (g, complement(g), g):
        assert serialize_graph(x, fmt, table=table) == ref_serialize_graph(x, fmt)


def test_decompose_cli_writes_the_reference_bytes_at_n_200(tmp_path, capsys):
    from ccwidth.cli import main
    from ccwidth.covers import cover_to_json

    # a poset's greedy cover, of width 10-16, and covers of width 1 and 2,
    # whose terminal factor orients every non-edge of g, or most of them
    g, o = random_poset_graph(200, 0.05, 11)
    inputs = [(g, greedy_layered_cover(o).cover), unit_width_cover(200, 0), unit_width_cover(200, 1)]
    factor_counts = []
    for k, (g, cover) in enumerate(inputs):
        (tmp_path / "g.graph").write_text(serialize_graph(g))
        (tmp_path / "cover.json").write_text(cover_to_json(cover))
        out = tmp_path / f"out{k}"
        code = main(["--out", str(out), "decompose", str(tmp_path / "g.graph"), "--cover",
                     str(tmp_path / "cover.json"), "--verify"])
        report = json.loads(capsys.readouterr().out)
        assert code == 0 and all(c["passed"] for c in report["results"]["verification"])
        d = decompose(g, cover)
        factor_counts.append(len(d.factors))
        assert (out / "decomposition.json").read_text() == ref_decomposition_to_json(d)
        for i, f in enumerate(d.factors):
            assert (out / f"factor_{i}.dot").read_text() == ref_serialize_graph(f.graph, "dot")
        assert decomposition_from_json((out / "decomposition.json").read_text(), g) == d
    assert factor_counts[0] > 10 and factor_counts[1:] == [1, 2]


# ---------------------------------------------------------------------------
# ordered-cover enumeration: the same covers in the same order


def every_graph(n):
    pairs = list(combinations(range(n), 2))
    for code in range(1 << len(pairs)):
        yield build_graph(n, [p for k, p in enumerate(pairs) if code >> k & 1])


def assert_carried_widths(g, covers):
    """The width each census cover carries is part_masks's width, and the
    width of a fresh cover of the same parts, which carries none."""
    for cover in covers:
        width = cover_width(g, cover)
        assert width == part_masks(g, cover.parts)[3] == cover_width(g, make_cover(cover.parts)), (g, cover)


def test_enumeration_matches_the_reference_on_every_graph_up_to_five_vertices():
    count = 0
    for n in range(6):
        for g in every_graph(n):
            covers = list(enumerate_ordered_covers(g))
            assert covers == list(ref_enumerate_ordered_covers(g)), g
            assert_carried_widths(g, covers)
            count += len(covers)
    assert count == 280_850


@settings(max_examples=12, deadline=None)
@given(graphs(min_n=6, max_n=7))
def test_enumeration_matches_the_reference_at_six_and_seven(g):
    covers = list(enumerate_ordered_covers(g))
    assert covers == list(ref_enumerate_ordered_covers(g))
    assert_carried_widths(g, covers)


def test_the_carried_width_changes_nothing_else_about_a_cover(monkeypatch):
    g = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 2)])
    census = list(enumerate_ordered_covers(g))
    assert all(cover.known is not None and cover.known[0] is g for cover in census)
    for cover in census:
        plain = OrderedCliqueCover(cover.parts)
        assert plain.known is None
        assert cover == plain and hash(cover) == hash(plain) and repr(cover) == repr(plain)
        assert cover_to_json(cover) == cover_to_json(plain)
        assert dataclasses.replace(cover, parts=cover.parts).known is None
    # a part of two or more vertices is a clique of g, so not one of its complement
    h = complement(g)
    merged = [cover for cover in census if len(cover.parts) < g.n]
    for cover in merged:
        with pytest.raises(InvalidCoverError):
            cover_width(h, cover)
    assert any(part_masks(h, c.parts)[3] != cover_width(g, c) for c in merged)
    # the one-vertex parts are a cover of h too, measured there
    for cover in census:
        if len(cover.parts) == g.n:
            assert cover_width(h, cover) == part_masks(h, cover.parts)[3]
    # an equal graph built separately is measured, not trusted
    twin = build_graph(5, g.edges())
    assert twin == g and twin is not g
    calls = []
    real = covers_mod.part_masks
    monkeypatch.setattr(covers_mod, "part_masks", lambda g, parts: calls.append(1) or real(g, parts))
    assert [cover_width(twin, c) for c in census] == [cover_width(g, c) for c in census]
    assert len(calls) == len(census)


def test_enumeration_of_the_empty_graph_is_one_empty_cover():
    assert list(enumerate_ordered_covers(Graph(0, ()))) == [OrderedCliqueCover(())]
