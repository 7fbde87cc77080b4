"""Exit-code fuzz test of the command line.  Small valid files of every kind
the tool reads (edge list, JSON graph, cover, order and arcs orientation,
decomposition) are mutated and handed to argv drawn over the subcommands and
flags, removed options included.  Every run must end with an exit code of
the contract, 0, 2, 3, 4 or 5 (argparse's own exits included), and print no
traceback.

Runs are in-process, through cli.main, and bounded: every argv carries
--limits-time 1000, and every count or size drawn is at most 30 or above
MAX_VERTICES, which the tool rejects before allocating anything that large.
"""

import contextlib
import io
import json
import re
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ccwidth.cli import main
from ccwidth.covers import cover_to_json
from ccwidth.decompose import decompose, decomposition_to_json
from ccwidth.generators import random_graph
from ccwidth.graphs import serialize_graph
from ccwidth.incomparability import greedy_layered_cover, random_poset_graph
from ccwidth.limits import MAX_VERTICES
from ccwidth.oracles import orientation_to_json

EXIT_CODES = {0, 2, 3, 4, 5}
KINDS = ("edge-list", "graph-json", "cover", "order", "arcs", "decomposition")


def valid_files(n, density, seed, poset):
    """The text of each kind of file for one poset graph on n vertices; its
    graph is swapped for a random one unless poset, which most likely the
    other files do not fit."""
    g, o = random_poset_graph(n, density, seed)
    cover = greedy_layered_cover(o).cover
    decomposition = decomposition_to_json(decompose(g, cover))
    g = g if poset else random_graph(n, density, seed)
    texts = {
        "edge-list": serialize_graph(g),
        "graph-json": serialize_graph(g, "json"),
        "cover": cover_to_json(cover),
        "order": orientation_to_json(o),
        "arcs": json.dumps({"arcs": [list(a) for a in o.arcs], "n": n}, sort_keys=True),
        "decomposition": decomposition,
    }
    return {kind: text.encode() for kind, text in texts.items()}


TOKEN = re.compile(rb'-?\d+|"[^"\n]*"|\w+|\S')
NUMBER = re.compile(rb"-?\d+")
# bytes a flip writes: none is a digit, and the space a doubled token gets
# keeps it apart, so no mutation fuses numbers into a count above 30
FLIPS = b'\xff\x00 x-."[]{},:\ne#'
MUTATIONS = ("truncate", "flip", "drop", "double", "number")
RARELY = st.integers(0, 7).map(lambda k: k == 5)  # not an end of the range, which hypothesis favours


def mutate(data, kind, i, n):
    """data with one edit of the given kind at (or near) position i."""
    if kind == "truncate":
        return data[:i % (len(data) + 1)]
    if kind == "flip":
        at = i % max(len(data), 1)
        return data[:at] + FLIPS[i % len(FLIPS):][:1] + data[at + 1:]
    spans = list((NUMBER if kind == "number" else TOKEN).finditer(data))
    if not spans:
        return data
    m = spans[i % len(spans)]
    if kind == "drop":
        return data[:m.start()] + data[m.end():]
    if kind == "double":
        return data[:m.end()] + b" " + m.group() + data[m.end():]
    new = (b"-1", str(n).encode(), b"1.5", b"true", str(10**30).encode())[i % 5]
    return data[:m.start()] + new + data[m.end():]


def counts():
    """A count or size as argv text: at most 30, or above MAX_VERTICES."""
    return st.sampled_from(tuple(range(-1, 31)) + (MAX_VERTICES + 1, 2**63, 10**21) * 8).map(str)


@st.composite
def runs(draw):
    """(argv, {file name: bytes}, stdin bytes) for one call of main; argv
    names its files relative to a directory the test fills."""
    files = valid_files(
        draw(st.integers(0, 20)), draw(st.sampled_from((0.1, 0.3, 0.6))), draw(st.integers(0, 99)), draw(st.booleans())
    )
    n = draw(st.integers(0, 20))
    written = {}

    def data(preferred):
        # mostly the kind the argument wants, and half of them unmutated, so
        # runs get past the readers too
        kind = draw(st.sampled_from((preferred,) * 18 + KINDS))
        text = files[kind]
        edits = st.lists(st.tuples(st.sampled_from(MUTATIONS), st.integers(0, 10**6)), min_size=1, max_size=3)
        for edit, i in draw(edits) if draw(st.booleans()) else ():
            text = mutate(text, edit, i, n)
        return text

    def path(preferred):
        how = draw(st.sampled_from(("file",) * 10 + ("stdin", "missing")))
        if how == "stdin":
            return "-"
        name = f"f{len(written)}"
        if how == "file":
            written[name] = data(preferred)
        return "{dir}/" + name

    def graph():
        return path(draw(st.sampled_from(("edge-list", "graph-json"))))

    command = draw(st.sampled_from(("parse", "ccw", "decompose", "verify", "star", "gen", "ramsey", "stats")))
    if command == "parse":
        to = draw(st.sampled_from(("", "edge-list", "json", "dot", "x")))
        args = [graph()] + (["--to", to] if to else [])
    elif command == "ccw":
        modes = draw(st.sampled_from((["--exact"], ["--greedy"]) * 4 + ([], ["--exact", "--greedy"])))
        extra = ["--orientation", path(draw(st.sampled_from(("order", "arcs"))))] if draw(st.booleans()) else []
        args = [graph()] + modes + extra
    elif command == "decompose":
        source = draw(st.sampled_from(("cover", "auto") * 4 + ("both", "none")))
        args = [graph()]
        args += ["--cover", path("cover")] if source in ("cover", "both") else []
        args += ["--auto"] if source in ("auto", "both") else []
        args += ["--verify"] if draw(st.booleans()) else []
    elif command == "verify":
        args = [graph()] + (["--decomposition", path("decomposition")] if not draw(RARELY) else [])
    elif command == "gen":
        kind = draw(st.sampled_from(("poset", "cobipartite", "grid", "star", "random", "tree")))
        density = draw(st.lists(st.sampled_from(("-0.5", "0", "0.3", "1", "1.5", "nan", "x")), max_size=1))
        args = [kind, draw(counts())] + density
    elif command == "ramsey":
        targets = draw(st.lists(st.sampled_from((-1, 0, 1, 2, 3, 10**21)), max_size=3)) if draw(st.booleans()) else []
        args = list(map(str, targets))
        args += ["--corollary", draw(counts())] if draw(st.booleans()) else []
        args += ["--verify-tiny"] if draw(st.booleans()) else []
    else:  # star, stats
        args = [graph()]
    options = [["--limits-time", "1000"], ["--out", "{dir}/out"]]
    options += [["--limits-n", draw(counts())]] if draw(st.booleans()) else []
    options += [["--seed", draw(counts())]] if draw(st.booleans()) else []
    if draw(RARELY):  # an option the tool no longer has
        options.append(draw(st.sampled_from((["--format", "json"], ["--format", "auto"], ["--assume-transitive"]))))
    argv = sum(draw(st.permutations(options)), []) + [command] + args
    if draw(RARELY):  # a stray flag or token after the subcommand
        argv.append(draw(st.sampled_from(("--format", "--assume-transitive", "--exact", "--bogus", "3"))))
    stdin = data(draw(st.sampled_from(KINDS)))
    return argv, written, stdin


def run(argv, stdin):
    """main(argv)'s exit code, with argparse's SystemExit, and all it printed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            mock.patch("sys.stdin", io.TextIOWrapper(io.BytesIO(stdin))):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue() + err.getvalue()


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(runs())
def test_any_file_and_argv_exit_with_a_contract_code_and_no_traceback(run_args):
    argv, written, stdin = run_args
    with tempfile.TemporaryDirectory() as tmp:
        for name, data in written.items():
            Path(tmp, name).write_bytes(data)
        code, printed = run([a.replace("{dir}", tmp) for a in argv], stdin)
    assert code in EXIT_CODES, (code, printed)
    assert "Traceback" not in printed


@pytest.mark.parametrize(
    "argv",
    [
        ["--format", "json", "parse", "-"],
        ["--format", "auto", "parse", "-"],
        ["--assume-transitive", "ccw", "-", "--greedy"],
        ["ccw", "-", "--greedy", "--assume-transitive"],
    ],
)
def test_removed_options_are_usage_errors(argv):
    code, printed = run(argv, b"p 2 1\ne 0 1\n")
    assert code == 2 and ("unrecognized arguments" in printed or "invalid choice" in printed)
