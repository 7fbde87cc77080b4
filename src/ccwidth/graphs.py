"""Immutable simple undirected graphs with bit-set adjacency.

Vertices are 0..n-1.  Adjacency is stored as one Python int bitmask per
vertex, which keeps set algebra (common neighborhoods, masks of unplaced
vertices, edge-set intersection across graphs) down to single integer ops.
Pair lists and their text are read off the rows with C-level iteration over
each row's bit string (`selector`), not with a Python step per pair.  Edge
text is read back the same way: a chunk at a time into an n*n byte matrix,
whose rows and columns become the masks (`bit_matrix_lines`).  Near-complete
edge lists skip both: their rows are cut out of, and matched against, the
text of K_n's rows (`RowText`), with Python steps per run of missing pairs.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from itertools import accumulate, chain, compress, repeat
from operator import or_, setitem
from typing import Iterable, Iterator, Sequence

from .errors import IndexOutOfRangeError, ParseError, SelfLoopError
from .limits import MAX_VERTICES


def bits(mask: int) -> Iterator[int]:
    """Iterate set bit positions of a mask in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")


def selector(mask: int) -> bytes:
    """One byte per bit of a non-negative mask, lowest bit first: 1 where
    the bit is set, else 0.  compress(seq, selector(mask)) yields seq[v] for
    every set bit v, in ascending order, without a Python step per bit."""
    return bin(mask)[:1:-1].encode().translate(_BIT_BYTES)


def row_pairs(rows: Sequence[int]) -> list[tuple[int, int]]:
    """The pairs (u, v) with bit v set in rows[u], sorted."""
    vs = range(len(rows))
    return list(chain.from_iterable(zip(repeat(u), compress(vs, selector(m))) for u, m in enumerate(rows)))


# ---------------------------------------------------------------------------
# pair text of rows: a pair (u, v) is written head.format(u) + tail.format(v)
# and pairs are sorted and joined by a separator

JSON_PAIR = ("[{}, ", "{}]", ", ")  # the pairs of a JSON pair list, inside its brackets
EDGE_PAIR = ("e {} ", "{}\n", "")  # the edge lines of an edge list
DOT_PAIR = ("  {} -- ", "{};\n", "")  # the edge lines of a DOT graph

# near-complete: a row missing at most 1/DENSE of its pairs, a list with at least 1 - 1/DENSE of K_n's text
DENSE = 24


class RowText:
    """Pair text on n vertices in one template, and the text of K_n's rows
    in it: row u holds the pairs (u, v) for every v > u.  A row's text is
    made when first used and, if keep, kept, so one table serves every list
    of a document or command; a table for one list keeps none, which holds
    its memory to one row of K_n.  A near-complete row is written as cuts
    of its complete row, and read back by matching it against that row,
    with Python steps per run of missing pairs instead of per pair."""

    def __init__(self, n: int, head: str, tail: str, sep: str = "", keep: bool = True):
        self.n, self.sep, self.keep = n, sep, keep
        self.heads = list(map(head.format, range(n)))
        self.tails = list(map(tail.format, range(n)))
        self.head_open, self.head_close = head.split("{}")
        self.tail_close = tail.split("{}")[1]
        self.tail_at = list(accumulate(map(len, self.tails), initial=0))  # text of the tails below v
        self.rows: list[tuple[str, list[int], int] | None] = [None] * n
        self.ends: dict[int, list[int]] = {}

    def _row(self, u: int) -> tuple[str, list[int], int]:
        """Row u of K_n's text, ends and base: the pair (u, v) ends at
        ends[v + 1] - base in it, and the next pair starts len(sep) later.
        Kept in rows[u] if keep."""
        h, ls = self.heads[u], len(self.sep)
        step = len(h) + ls
        ends = self.ends.get(step)
        if ends is None:
            ends = self.ends[step] = [x * step + a - ls for x, a in enumerate(self.tail_at)]
        made = (h + (self.sep + h).join(self.tails[u + 1:]), ends, ends[u + 1] + ls)
        if self.keep:
            self.rows[u] = made
        return made

    def text(self, rows: Sequence[int]) -> str:
        """The text of every pair (u, v) with bit v set in rows[u], which
        holds only v > u, sorted, with no (u, v) tuple made: a row is its
        selected tails joined with its head, or, when at most 1/DENSE of the
        pairs above u are missing, the slices of its complete row between them."""
        n, sep, heads, tails, made = self.n, self.sep, self.heads, self.tails, self.rows
        full = (1 << n) - 1
        out = []  # runs of pairs, joined by sep within rows as between them
        for u, m in enumerate(rows):
            if not m:
                continue
            gaps = (full ^ m) >> u + 1 << u + 1
            if gaps.bit_count() * DENSE > n - u - 1:
                h = heads[u]
                out.append(h + (sep + h).join(compress(tails, selector(m))))
                continue
            row, ends, base = made[u] or self._row(u)
            at = 0  # start of the first pair after the last gap
            while gaps:
                bit = gaps & -gaps
                v = bit.bit_length() - 1
                gaps ^= bit
                if ends[v] - base > at:
                    out.append(row[at:ends[v] - base])
                at = ends[v + 1] - base + len(sep)
            if at < len(row):
                out.append(row[at:])
        return sep.join(out)

    def read(self, text: str, lo: int, hi: int) -> list[int] | None:
        """The rows, above the diagonal, whose text is text[lo:hi], or None
        if text[lo:hi] is not text that self.text writes.  The pair at p is
        read as tokens; then bisection over the complete row finds the
        longest run of its pairs that text[p:] starts with, and the next
        pair's tokens, after a separator, give the next run.  Rows must
        ascend, and tails ascend above u."""
        n, sep, ls = self.n, self.sep, len(self.sep)
        head_of = dict(zip(self.heads, range(n)))
        tail_of = dict(zip(self.tails, range(n)))
        skip, head_close, tail_close = len(self.head_open), self.head_close, self.tail_close
        startswith, find, made = text.startswith, text.find, self.rows
        rows = [0] * n
        u = least = -1  # the row read, and the least tail its next pair may have
        p = lo
        while p < hi:
            q = find(head_close, p + skip, hi) + len(head_close)
            head = head_of.get(text[p:q])
            v = tail_of.get(text[q:find(tail_close, q, hi) + len(tail_close)])
            if head is None or v is None or head < u:
                return None
            if head > u:
                u, least = head, head + 1
                row, ends, base = made[u] or self._row(u)
            if v < least:
                return None
            at = ends[v] + ls - base
            if startswith(row[at:], p):
                y = n - 1
            else:
                y, top = v, n - 2  # text[p:] starts with pairs v..y, not with v..top + 1
                while y < top:
                    mid = (y + top + 1) >> 1
                    if startswith(row[at:ends[mid + 1] - base], p):
                        y = mid
                    else:
                        top = mid - 1
            p += ends[y + 1] - base - at
            rows[u] |= (2 << y) - (1 << v)
            least = y + 1
            if p < hi:
                p += ls
                if p >= hi or not startswith(sep, p - ls):
                    return None
        return rows if p == hi else None


def transpose(rows: Sequence[int]) -> list[int]:
    """The columns of the square bit matrix with these rows: bit u of
    column v is bit v of rows[u]."""
    n = len(rows)
    return bit_matrix_lines("".join(map(f"{{:0{n}b}}".format, reversed(rows))), n, transpose=True)


def pair_lists(row_sets: Iterable[Sequence[int]]) -> list[str]:
    """The JSON text json.dumps writes for row_pairs(rows), for each rows of
    row_sets; lists on the same number of vertices share one RowText."""
    tables: dict[int, RowText] = {}
    out = []
    for rows in row_sets:
        table = tables.get(len(rows)) or tables.setdefault(len(rows), RowText(len(rows), *JSON_PAIR))
        out.append("[" + table.text(rows) + "]")
    return out


HOLE = "\0"


def splice_json(obj, texts: Iterable[str]) -> str:
    """json.dumps(obj, sort_keys=True) with each HOLE string in it replaced,
    in order of appearance, by the next of texts (JSON text itself)."""
    pieces = json.dumps(obj, sort_keys=True).split('"\\u0000"')
    return "".join(chain.from_iterable(zip(pieces, texts))) + pieces[-1]


def pair_rows(n: int, pairs: Iterable[tuple[int, int]], what: str, *, undirected: bool) -> tuple[int, ...]:
    """rows[u] = mask of every v with a pair (u, v), and of every v with a
    pair (v, u) too when undirected.  n outside 0..MAX_VERTICES raises
    IndexOutOfRangeError.  The first bad pair in input order raises: an
    endpoint outside 0..n-1 IndexOutOfRangeError, a self-loop when
    undirected SelfLoopError, an endpoint that is not an integer TypeError.
    A PairRows, which the kernel read as a JSON document was decoded, is
    already its rows; this loop serves arc lists and what the kernel declines."""
    if n < 0:
        raise IndexOutOfRangeError("vertex count must be non-negative")
    if n > MAX_VERTICES:
        raise IndexOutOfRangeError(f"vertex count {n} is above {MAX_VERTICES}")
    if type(pairs) is PairRows:
        return tuple(pairs)
    rows = [0] * n
    try:
        for u, v in pairs:
            if not (0 <= u < n and 0 <= v < n):
                raise IndexOutOfRangeError(f"{what} ({u},{v}) out of range for n={n}")
            if undirected and u == v:
                raise SelfLoopError(f"self-loop at vertex {u}")
            rows[u] |= 1 << v
            if undirected:
                rows[v] |= 1 << u
    except TypeError:
        raise TypeError(f"{what} endpoints must be integers") from None
    return tuple(rows)


# ---------------------------------------------------------------------------
# the pair-text kernel: pair text in the exact form the writers above emit is
# read a chunk at a time, with no Python step per pair; anything else is left
# to the callers' general readers, which alone raise errors

PAIR_CHUNK = 1 << 16  # characters of pair text split into tokens at once
MATRIX_ROOM = 4  # bytes of the n*n pair matrix allowed per character of text


def bit_matrix_lines(matrix, n: int, transpose: bool = False) -> list[int]:
    """The rows of an n*n bit matrix as masks, or its columns when
    transpose.  The matrix is text of "0" and "1" (str or bytes) in reverse
    order: bit v of row u is at (n-1-u)*n + n-1-v, so a row is a slice and a
    column the slice [k::n], each written highest bit first for int(..., 2)."""
    a, b = (1, n) if transpose else (n, 1)
    return [int(matrix[k * a:k * a + n * b:b], 2) for k in range(n)][::-1]


def _read_pairs(n: int, chunks: Iterable, head: str, tail: str):
    """(rows, pair count) of the undirected pairs of tokens (head.format(u),
    tail.format(v)) that the chunks yield as (heads, tails) lists.  Each
    pair sets a "1" in a bit matrix laid out for bit_matrix_lines, a head
    naming its row as a memoryview and a tail its column; rows are row |
    column.  None when a chunk is None, a token names no vertex below n, or
    a pair is a self-loop."""
    matrix = bytearray(b"0" * (n * n))
    lines = memoryview(matrix)
    # row u starts at (n-1-u)*n and column v sits n-1-v into each row
    heads = dict(zip(map(head.format, range(n)), (lines[k:k + n] for k in reversed(range(0, n * n, n or 1)))))
    tails = dict(zip(map(tail.format, range(n)), reversed(range(n))))
    count = 0
    for chunk in chunks:
        if chunk is None:
            return None
        us, vs = chunk
        try:
            any(map(setitem, map(heads.__getitem__, us), map(tails.__getitem__, vs), repeat(ord("1"))))
        except KeyError:
            return None
        count += len(us)
    if matrix[::n + 1].count(b"1"):
        return None
    return tuple(map(or_, bit_matrix_lines(matrix, n), bit_matrix_lines(matrix, n, True))), count


def _edge_line_chunks(text: str, lo: int, end: int) -> Iterator:
    """(u names, v names) of the `e u v` lines of text[lo:end], a chunk of
    whole lines at a time; None for a chunk that is not exactly such lines.
    A chunk and an extra "e", split at spaces, reads e, u, "v\ne", u,
    "v\ne", ... with every token known."""
    while lo < end:
        hi = end if end - lo <= PAIR_CHUNK else text.rfind("\n", lo, lo + PAIR_CHUNK) + 1
        tokens = (text[lo:hi] + "e").split(" ")
        if hi <= lo or not len(tokens) & 1 or tokens[0] != "e":
            yield None
            return
        yield tokens[1::2], tokens[2::2]
        lo = hi


def _json_pair_chunks(text: str, lo: int, end: int) -> Iterator:
    """(u names, v names) of the JSON pairs `[u, v], [u, v]` in text[lo:end],
    a chunk of whole pairs at a time; None for a chunk in any other form.  A
    chunk ending in "], ", split at spaces, reads "[u,", "v],", ..., ""."""
    while lo < end:
        hi = end if end - lo <= PAIR_CHUNK else text.rfind("], ", lo, lo + PAIR_CHUNK) + 3
        tokens = (text[lo:hi] + (", " if hi == end else "")).split(" ")
        if hi <= lo or tokens.pop() != "" or len(tokens) & 1:
            yield None
            return
        yield tokens[0::2], tokens[1::2]
        lo = hi


# the writers' pair template, and the kernel's chunks and (head, tail) tokens for it
EDGE_FORM = (EDGE_PAIR, _edge_line_chunks, ("{}", "{}\ne"))
JSON_FORM = (JSON_PAIR, _json_pair_chunks, ("[{},", "{}],"))


def _read_rows(text: str, lo: int, hi: int, n: int, size: int, form, tables: dict[int, RowText] | None = None):
    """(rows, pair count) of the edge list text[lo:hi] on n vertices in
    form, or None if it is not in the writers' form or its n*n pair matrix
    exceeds MATRIX_ROOM bytes per character of its size-character document.
    A near-complete list is matched against K_n's rows, in the RowText for
    n from tables, which a document's lists share, or else in one that
    keeps no row; any other, or one the match declines, goes to the kernel."""
    (head, tail, sep), chunks, tokens = form
    if n < 0 or n * n > MATRIX_ROOM * size:
        return None
    pairs = n * (n - 1) // 2
    digits = len("".join(map(str, range(n))))  # each vertex is in n - 1 pairs
    full = (n - 1) * digits + pairs * (len(head) + len(tail) - 4 + len(sep)) - len(sep)  # K_n's text length
    if pairs and DENSE * (hi - lo) >= (DENSE - 1) * full:
        table = (RowText(n, head, tail, sep, keep=False) if tables is None
                 else tables.get(n) or tables.setdefault(n, RowText(n, head, tail, sep)))
        upper = table.read(text, lo, hi)
        if upper is not None:
            return tuple(map(or_, upper, transpose(upper))), sum(map(int.bit_count, upper))
    return _read_pairs(n, chunks(text, lo, hi), *tokens)


def _read_edge_list(text: str) -> Graph | None:
    """The graph of an edge list in the exact form serialize_graph writes,
    or None for any other text, errors included."""
    head = text.find("\n")
    try:
        p, n, m = text[:head].split(" ") if head >= 0 else ()
        if p != "p" or n != str(int(n)) or m != str(int(m)):
            return None
    except ValueError:
        return None
    read = _read_rows(text, head + 1, len(text), int(n), len(text), EDGE_FORM)
    return Graph(int(n), read[0]) if read is not None and read[1] == int(m) else None


class PairRows(tuple):
    """The rows of a JSON edge list that the kernel read while its document
    was decoded, standing in for the list: a valid pair list for the "n"
    beside it, as pair_rows would read it."""

    __slots__ = ()


_PAIR_KEY = re.compile(r'"edges": \[')


def read_pair_json(text: str, read):
    """read(value) of a JSON document given as text, with one call of read.
    The "edges" lists are cut out of the text, which inverts splice_json,
    and the k-th replaced by the string HOLE + str(k).  As the skeleton left
    is decoded, each object whose "edges" is a hole and whose "n" is a count
    has its list read by the kernel into a PairRows.  If every list is read,
    read() runs on the skeleton: it then raises what it would on the text.
    Otherwise, or if the skeleton is not JSON or holds a \\u0000 escape of
    its own, read() runs on the text itself."""
    pieces, spans = [], []
    at = 0
    while (key := _PAIR_KEY.search(text, at)) is not None:  # no scan inside the lists
        lo = key.end() - 1
        hi = lo + 2 if text.startswith("[]", lo) else text.find("]]", lo) + 2
        if hi < lo + 2:
            return read(text)
        pieces += text[at:lo], json.dumps(HOLE + str(len(spans)))
        spans.append((lo, hi))
        at = hi
    pieces.append(text[at:])
    cut = "".join(pieces)
    if not spans or cut.count("\\u0000") != len(spans):
        return read(text)
    tables: dict[int, RowText] = {}
    filled = []

    def fill(obj: dict) -> dict:
        hole, n = obj.get("edges"), obj.get("n")
        if type(hole) is str and hole[:1] == HOLE and is_count(n):
            lo, hi = spans[int(hole[1:])]
            rows = _read_rows(text[lo:hi], 1, hi - lo - 1, n, len(text), JSON_FORM, tables)
            if rows is not None:
                obj["edges"] = PairRows(rows[0])
                filled.append(hole)
        return obj

    try:
        skeleton = json.loads(cut, object_hook=fill)
    except (ValueError, RecursionError):
        return read(text)
    return read(skeleton if len(filled) == len(spans) else text)


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

    def upper(self) -> list[int]:
        """upper[u] = mask of the neighbors of u above u."""
        return [a >> u + 1 << u + 1 for u, a in enumerate(self.adj)]

    def edges(self) -> list[tuple[int, int]]:
        """Edge list sorted by (min endpoint, max endpoint)."""
        return row_pairs(self.upper())

    def edge_count(self) -> int:
        return sum(a.bit_count() for a in self.adj) // 2

    def full_mask(self) -> int:
        return (1 << self.n) - 1


def build_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    return Graph(n, pair_rows(n, edges, "edge", undirected=True))


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
    """A vertex count: 0..MAX_VERTICES."""
    return type(x) is int and 0 <= x <= MAX_VERTICES


def is_lists(x) -> bool:
    """A list of lists of counts."""
    if type(x) is not list or not set(map(type, x)) <= {list}:
        return False
    flat = list(chain.from_iterable(x))
    return set(map(type, flat)) <= {int} and min(flat, default=0) >= 0 and max(flat, default=0) <= MAX_VERTICES


def is_pairs(x) -> bool:
    """A list of pairs of counts, or a PairRows, which the kernel checked
    when it read it."""
    return type(x) is PairRows or is_lists(x) and set(map(len, x)) <= {2}


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
        except ValueError as exc:  # an integer past the interpreter's digit limit
            raise ParseError(f"bad JSON: {exc}") from None
        except RecursionError:
            raise ParseError("bad JSON: nested too deeply") from None
    if not isinstance(value, dict):
        raise ParseError(f"{what} JSON must be an object")
    for key, check in shapes.items():
        if not check(value.get(key)):
            raise ParseError(f"{what} JSON has a missing or malformed {key!r}")
    return value


def parse_graph(text: str) -> Graph:
    """A JSON graph when the first non-blank character is "{", else an edge list."""
    if text.lstrip().startswith("{"):
        return read_pair_json(text, _graph_from_json)
    return _parse_edge_list(text)


def _graph_from_json(value) -> Graph:
    obj = load_json(value, "graph", n=is_count, edges=is_pairs)
    return build_graph(obj["n"], obj["edges"])


def _parse_edge_list(text: str) -> Graph:
    g = _read_edge_list(text)
    if g is not None:
        return g
    # comments, blank lines, other numerals, and every error: one step per line
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


def serialize_graph(g: Graph, fmt: str = "edge-list", table: RowText | None = None) -> str:
    """g as an edge list, JSON or DOT text.  table, a RowText in fmt's pair
    template for g.n vertices, lets graphs written together share the text
    of K_n's rows."""
    template = {"edge-list": EDGE_PAIR, "json": JSON_PAIR, "dot": DOT_PAIR}.get(fmt)
    if template is None:
        raise ParseError(f"unknown graph format {fmt!r}")
    pairs = (table or RowText(g.n, *template, keep=False)).text(g.upper())
    if fmt == "edge-list":
        return f"p {g.n} {g.edge_count()}\n" + pairs
    if fmt == "json":
        return splice_json({"n": g.n, "edges": HOLE}, ["[" + pairs + "]"])
    return "graph {\n" + "".join(f"  {v};\n" for v in range(g.n)) + pairs + "}\n"
