"""Immutable simple undirected graphs with bit-set adjacency.

Vertices are 0..n-1.  Adjacency is stored as one Python int bitmask per
vertex, which keeps set algebra (common neighborhoods, masks of unplaced
vertices, edge-set intersection across graphs) down to single integer ops.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator

from .errors import IndexOutOfRangeError, ParseError, SelfLoopError


def bits(mask: int) -> Iterator[int]:
    """Iterate set bit positions of a mask in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


@dataclass(frozen=True)
class Graph:
    n: int
    adj: tuple[int, ...]  # adj[v] = bitmask of neighbors of v

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def neighbors(self, v: int) -> list[int]:
        return list(bits(self.adj[v]))

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def edges(self) -> list[tuple[int, int]]:
        """Edge list sorted by (min endpoint, max endpoint)."""
        out = []
        for u in range(self.n):
            m = self.adj[u] >> (u + 1) << (u + 1)  # neighbors above u
            for v in bits(m):
                out.append((u, v))
        return out

    def edge_count(self) -> int:
        return sum(a.bit_count() for a in self.adj) // 2

    def full_mask(self) -> int:
        return (1 << self.n) - 1


def build_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
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


def complement(g: Graph) -> Graph:
    full = g.full_mask()
    return Graph(g.n, tuple((full ^ a) & ~(1 << v) for v, a in enumerate(g.adj)))


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> tuple[Graph, tuple[int, ...]]:
    """Subgraph induced on `vertices`, relabeled 0..k-1.

    Returns (subgraph, mapping) where mapping[i] is the original label of
    new vertex i; mapping is sorted ascending.
    """
    vs = sorted(set(vertices))
    for v in vs:
        if not 0 <= v < g.n:
            raise IndexOutOfRangeError(f"vertex {v} not in [0,{g.n})")
    index = {v: i for i, v in enumerate(vs)}
    adj = [0] * len(vs)
    for i, v in enumerate(vs):
        for w in bits(g.adj[v]):
            j = index.get(w)
            if j is not None:
                adj[i] |= 1 << j
    return Graph(len(vs), tuple(adj)), tuple(vs)


def components(g: Graph) -> list[tuple[int, ...]]:
    """Connected components as sorted tuples, ordered by smallest member."""
    seen = 0
    out = []
    for v in range(g.n):
        if seen >> v & 1:
            continue
        comp = 1 << v
        frontier = 1 << v
        while frontier:
            nxt = 0
            for u in bits(frontier):
                nxt |= g.adj[u]
            frontier = nxt & ~comp
            comp |= frontier
        seen |= comp
        out.append(tuple(bits(comp)))
    return out


def is_connected(g: Graph) -> bool:
    return len(components(g)) <= 1


# ---------------------------------------------------------------------------
# serialization

# shape checks for load_json, written as C-level passes because edge and arc
# lists can hold millions of entries; JSON decodes to exact int/list/dict
# types, and bool (an int subclass) is rejected as a count

def is_count(x) -> bool:
    return type(x) is int and x >= 0


def is_lists(x) -> bool:
    """A list of lists of counts."""
    if type(x) is not list or not set(map(type, x)) <= {list}:
        return False
    flat = list(chain.from_iterable(x))
    return set(map(type, flat)) <= {int} and min(flat, default=0) >= 0


def is_pairs(x) -> bool:
    return is_lists(x) and set(map(len, x)) <= {2}


def load_json(value, what: str, /, **shapes) -> dict:
    """The JSON object `value` (text, or an already decoded value) whose
    fields each pass the named shape check; a missing field reads as None.
    Raises ParseError for bad JSON, a non-object, or a field that fails.
    """
    if isinstance(value, str):
        try:
            value = json.loads(value)
        except json.JSONDecodeError as exc:
            raise ParseError(f"bad JSON: {exc.msg}", line=exc.lineno, column=exc.colno) from exc
    if not isinstance(value, dict):
        raise ParseError(f"{what} JSON must be an object")
    for key, check in shapes.items():
        if not check(value.get(key)):
            raise ParseError(f"{what} JSON has a missing or malformed {key!r}")
    return value


def parse_graph(text: str, fmt: str = "edge-list") -> Graph:
    if fmt == "json":
        obj = load_json(text, "graph", n=is_count, edges=is_pairs)
        return build_graph(obj["n"], obj["edges"])
    if fmt == "edge-list":
        return _parse_edge_list(text)
    raise ParseError(f"unknown graph format {fmt!r}")


def _parse_edge_list(text: str) -> Graph:
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
    return build_graph(n, pairs)


def serialize_graph(g: Graph, fmt: str = "edge-list", cover=None) -> str:
    edges = g.edges()
    if fmt == "edge-list":
        lines = [f"p {g.n} {len(edges)}"]
        lines += [f"e {u} {v}" for u, v in edges]
        return "\n".join(lines) + "\n"
    if fmt == "json":
        return json.dumps({"n": g.n, "edges": edges}, sort_keys=True)
    if fmt == "dot":
        lines = ["graph {"]
        if cover is not None:
            for i, part in enumerate(cover.parts):
                lines.append(f"  subgraph cluster_{i} {{")
                lines.append(f'    label="part {i}";')
                for v in part:
                    lines.append(f"    {v};")
                lines.append("  }")
        else:
            for v in range(g.n):
                lines.append(f"  {v};")
        for u, v in edges:
            lines.append(f"  {u} -- {v};")
        lines.append("}")
        return "\n".join(lines) + "\n"
    raise ParseError(f"unknown graph format {fmt!r}")
