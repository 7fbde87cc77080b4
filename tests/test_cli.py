import hashlib
import io
import json
from pathlib import Path

import pytest

from ccwidth.cli import main
from ccwidth.generators import complete_graph, grid_graph, star_graph
from ccwidth.graphs import serialize_graph


@pytest.fixture()
def k4_file(tmp_path):
    path = tmp_path / "k4.graph"
    path.write_text(serialize_graph(complete_graph(4)))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_parse_roundtrip(capsys, k4_file):
    code, report = run(capsys, ["parse", k4_file, "--to", "json"])
    assert code == 0
    assert report["results"]["n"] == 4 and report["results"]["m"] == 6


def test_parse_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.graph"
    bad.write_text("p 2 1\ne 0 5")
    code, report = run(capsys, ["parse", str(bad)])
    assert code == 2 and "error" in report


def test_ccw_exact_clique(capsys, k4_file, tmp_path):
    code, report = run(capsys, ["--out", str(tmp_path), "ccw", k4_file, "--exact"])
    assert code == 0
    assert report["results"]["ccw"] == 0
    witness = json.loads((tmp_path / "ccw_witness_cover.json").read_text())
    assert witness["parts"] == [[0, 1, 2, 3]]


def test_ccw_exact_limit_exit(capsys, tmp_path):
    big = tmp_path / "big.graph"
    big.write_text(serialize_graph(complete_graph(30)))
    code, _ = run(capsys, ["--out", str(tmp_path), "ccw", str(big), "--exact"])
    assert code == 3


def test_ccw_greedy_star_interval(capsys, tmp_path):
    graph_path = tmp_path / "star.graph"
    graph_path.write_text(serialize_graph(star_graph(5)))
    code, report = run(capsys, ["--out", str(tmp_path), "ccw", str(graph_path), "--greedy"])
    assert code == 0
    assert report["results"] == {"lower": 2, "upper": 4}


def test_ccw_greedy_recognition_failure(capsys, tmp_path):
    from ccwidth.generators import cycle_graph

    path = tmp_path / "c5.graph"
    path.write_text(serialize_graph(cycle_graph(5)))
    code, _ = run(capsys, ["--out", str(tmp_path), "ccw", str(path), "--greedy"])
    assert code == 5


def test_decompose_and_verify(capsys, tmp_path):
    from ccwidth.generators import cycle_graph

    path = tmp_path / "c5.graph"
    path.write_text(serialize_graph(cycle_graph(5)))
    cover_path = tmp_path / "cover.json"
    cover_path.write_text(json.dumps({"parts": [[0], [1], [2], [3], [4]]}))
    code, report = run(
        capsys,
        ["--out", str(tmp_path), "decompose", str(path), "--cover", str(cover_path), "--verify"],
    )
    assert code == 0
    assert report["results"]["factor_count"] == 4
    assert all(c["passed"] for c in report["results"]["verification"])

    code, report = run(
        capsys,
        ["verify", str(path), "--decomposition", str(tmp_path / "decomposition.json")],
    )
    assert code == 0 and report["results"]["all_passed"]

    # tamper: drop an edge from the first factor
    stored = json.loads((tmp_path / "decomposition.json").read_text())
    stored["factors"][0]["graph"]["edges"].pop()
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(stored))
    code, report = run(capsys, ["verify", str(path), "--decomposition", str(tampered)])
    assert code == 4 and not report["results"]["all_passed"]

    # tamper: give the first factor one vertex more than the graph
    stored = json.loads((tmp_path / "decomposition.json").read_text())
    stored["factors"][0]["graph"]["n"] = 6
    tampered.write_text(json.dumps(stored))
    code, report = run(capsys, ["verify", str(path), "--decomposition", str(tampered)])
    assert code == 4 and not report["results"]["all_passed"]


def test_star_on_grid(capsys, tmp_path):
    path = tmp_path / "grid.graph"
    path.write_text(serialize_graph(grid_graph(4, 4)))
    code, report = run(capsys, ["star", str(path)])
    assert code == 0 and report["results"]["star_leaves"] == 4


def test_gen_poset_deterministic(capsys, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        code, _ = run(capsys, ["--seed", "7", "--out", str(out), "gen", "poset", "20", "0.5"])
        assert code == 0
    name = "poset_20_7.graph.json"
    assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    oname = "poset_20_7.orientation.json"
    assert (out1 / oname).read_bytes() == (out2 / oname).read_bytes()


def test_ramsey_corollary(capsys):
    code, report = run(capsys, ["ramsey", "--corollary", "2"])
    assert code == 0
    assert report["results"]["ramsey"] == 9 and report["results"]["star_bound"] == 8


def test_ramsey_verify_tiny(capsys):
    code, report = run(capsys, ["ramsey", "3", "3", "--verify-tiny"])
    assert code == 0
    assert report["results"]["verification"]["upper_verified"]


def test_stats(capsys, k4_file):
    code, report = run(capsys, ["stats", k4_file])
    assert code == 0
    assert report["results"]["components"] == 1 and report["results"]["max_degree"] == 3


def test_report_stable_excluding_timing(capsys, k4_file, tmp_path):
    _, r1 = run(capsys, ["--out", str(tmp_path), "ccw", k4_file, "--exact"])
    _, r2 = run(capsys, ["--out", str(tmp_path), "ccw", k4_file, "--exact"])
    r1.pop("timing_ms")
    r2.pop("timing_ms")
    assert r1 == r2


def test_greedy_recognizes_a_120_vertex_poset(capsys, tmp_path):
    # recognition forces hundreds of implication classes here; a recursive
    # search overflowed the interpreter stack
    from ccwidth import random_poset_graph, validate_cover
    from ccwidth.covers import cover_from_json, cover_width

    g, _ = random_poset_graph(120, 0.05, 1)
    path = tmp_path / "poset.graph"
    path.write_text(serialize_graph(g))
    code, report = run(capsys, ["--out", str(tmp_path), "ccw", str(path), "--greedy"])
    assert code == 0
    cover = cover_from_json((tmp_path / "greedy_cover.json").read_text())
    assert validate_cover(g, cover).valid
    assert cover_width(g, cover) == report["results"]["upper"]


def test_greedy_recognizes_a_300_vertex_poset_at_the_default_limits(capsys, tmp_path):
    from ccwidth import random_poset_graph
    from ccwidth.covers import cover_from_json, cover_width

    g, _ = random_poset_graph(300, 0.05, 1)
    path = tmp_path / "poset.graph"
    path.write_text(serialize_graph(g))
    code, report = run(capsys, ["--out", str(tmp_path), "ccw", str(path), "--greedy"])
    assert code == 0
    cover = cover_from_json((tmp_path / "greedy_cover.json").read_text())
    assert cover_width(g, cover) == report["results"]["upper"]


def test_decompose_auto_uses_the_greedy_cover_on_a_40_vertex_poset(capsys, tmp_path):
    from ccwidth import random_poset_graph

    g, _ = random_poset_graph(40, 0.1, 1)
    path = tmp_path / "poset.graph"
    path.write_text(serialize_graph(g))
    argv = ["--out", str(tmp_path), "decompose", str(path), "--auto", "--verify"]
    code, report = run(capsys, argv)
    assert code == 0
    assert report["results"]["cover_source"] == "greedy"
    assert all(c["passed"] for c in report["results"]["verification"])


def test_decompose_auto_does_not_recheck_the_recognized_orientation(capsys, tmp_path, monkeypatch):
    from ccwidth import incomparability, random_poset_graph

    calls = []
    real = incomparability.verify_transitive
    monkeypatch.setattr(incomparability, "verify_transitive", lambda o: calls.append(o) or real(o))
    g, _ = random_poset_graph(40, 0.1, 1)
    path = tmp_path / "poset.graph"
    path.write_text(serialize_graph(g))
    code, report = run(capsys, ["--out", str(tmp_path), "decompose", str(path), "--auto", "--verify"])
    assert code == 0 and report["results"]["cover_source"] == "greedy"
    assert calls == []  # the recognizer's orientation is transitive by construction


def test_decompose_checks_and_measures_the_cover_in_one_part_masks_pass(capsys, tmp_path, monkeypatch):
    from ccwidth import covers, random_poset_graph
    from ccwidth.incomparability import greedy_layered_cover

    g, o = random_poset_graph(40, 0.1, 1)
    cover = greedy_layered_cover(o).cover
    width = covers.cover_width(g, cover)
    (tmp_path / "poset.graph").write_text(serialize_graph(g))
    (tmp_path / "cover.json").write_text(covers.cover_to_json(cover))
    calls = []
    real = covers.part_masks
    monkeypatch.setattr(covers, "part_masks", lambda g, parts: calls.append(1) or real(g, parts))
    argv = ["--out", str(tmp_path), "decompose", str(tmp_path / "poset.graph"), "--cover", str(tmp_path / "cover.json")]
    code, report = run(capsys, argv)
    assert code == 0 and report["results"]["width"] == width > 1
    assert len(calls) == 1


def test_greedy_rejects_a_c5_component_beside_a_75_vertex_poset(capsys, tmp_path):
    from ccwidth import build_graph, random_poset_graph

    g, _ = random_poset_graph(75, 0.1, 1)
    c5 = [(75 + i, 75 + (i + 1) % 5) for i in range(5)]
    path = tmp_path / "poset_c5.graph"
    path.write_text(serialize_graph(build_graph(80, g.edges() + c5)))
    code, report = run(capsys, ["--out", str(tmp_path), "ccw", str(path), "--greedy"])
    assert code == 5 and "error" in report


def ten_vertex_poset(tmp_path):
    from ccwidth import random_poset_graph

    g, _ = random_poset_graph(10, 0.3, 2)
    path = tmp_path / "poset.graph"
    path.write_text(serialize_graph(g))
    return str(path)


@pytest.mark.parametrize(
    "kind, text",
    [
        ("graph", '{"n": true, "edges": []}'),
        ("cover", '{"parts": 5}'),
        ("orientation", '{"n": 10, "arcs": [[0]]}'),
        ("orientation", '{"n": 10, "arcs": [[0, 99]]}'),
        ("orientation", '{"n": 10, "order": [0, 1, 2, 3, 4, 5, 6, 7, 8, 10]}'),
        ("orientation", '{"n": 10, "order": [0, 1, 2, 3, 4, 5, 6, 7, 8]}'),
        ("orientation", '{"n": 10, "order": [0, 0, 2, 3, 4, 5, 6, 7, 8, 9]}'),
        ("orientation", '{"n": 10, "order": [-1, 1, 2, 3, 4, 5, 6, 7, 8, 9]}'),
        ("orientation", '{"n": 10, "order": [true, 0, 2, 3, 4, 5, 6, 7, 8, 9]}'),
        ("orientation", '{"n": 10, "order": "0123456789"}'),
        ("orientation", '{"n": 10, "order": [0, 1, 2, 3, 4, 5, 6, 7, 8, 9], "arcs": []}'),
        # an integer past the interpreter's 4,300-digit limit, and nesting past its recursion limit
        pytest.param("graph", '{"edges": [], "n": ' + "9" * 5000 + "}", id="graph-5000-digit-n"),
        pytest.param("cover", '{"parts": [[' + "9" * 5000 + "]]}", id="cover-5000-digit-vertex"),
        pytest.param("json", "[" * 100_000, id="json-100000-nested-lists"),
    ],
)
def test_malformed_input_files_exit_2(capsys, tmp_path, kind, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    graph = ten_vertex_poset(tmp_path)
    argv = {
        "graph": ["parse", str(bad)],
        "json": ["--format", "json", "parse", str(bad)],
        "cover": ["decompose", graph, "--cover", str(bad)],
        "orientation": ["ccw", graph, "--greedy", "--orientation", str(bad)],
    }[kind]
    code = main(["--out", str(tmp_path)] + argv)
    out, err = capsys.readouterr()
    assert code == 2
    assert "Traceback" not in out + err
    assert "error" in json.loads(out)


@pytest.mark.parametrize(
    "kind, data",
    [
        ("graph", b"p 2 1\ne 0 \xff\n"),
        ("stdin", b"p 2 1\ne 0 \xff\n"),
        ("cover", b'{"parts": [[0, 1, 2, 3, 4, 5, 6, 7, 8, 9]]}\xff'),
        ("orientation", b'{"n": 10, "arcs": [\xff]}'),
        ("decomposition", b"\xfe\xff"),
    ],
)
def test_non_utf8_input_files_exit_2(capsys, monkeypatch, tmp_path, kind, data):
    bad = tmp_path / "bad"
    bad.write_bytes(data)
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data)))
    graph = ten_vertex_poset(tmp_path)
    argv = {
        "graph": ["stats", str(bad)],
        "stdin": ["stats", "-"],
        "cover": ["decompose", graph, "--cover", str(bad)],
        "orientation": ["ccw", graph, "--greedy", "--orientation", str(bad)],
        "decomposition": ["verify", graph, "--decomposition", str(bad)],
    }[kind]
    code = main(["--out", str(tmp_path)] + argv)
    out, err = capsys.readouterr()
    assert code == 2
    assert "Traceback" not in out + err
    assert "not UTF-8" in json.loads(out)["error"]


def test_stdin_and_crlf_files_give_the_digest_of_the_lf_text(capsys, monkeypatch, tmp_path):
    text = "p 3 2\n# a path\ne 0 1\ne 1 2\n"
    digest = hashlib.sha256(text.encode()).hexdigest()
    crlf = tmp_path / "crlf.graph"
    crlf.write_bytes(text.replace("\n", "\r\n").encode())
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(text.replace("\n", "\r").encode())))
    for path in (str(crlf), "-"):
        code, report = run(capsys, ["parse", path])
        assert code == 0 and report["input_digest"] == digest
        assert report["results"] == {"n": 3, "m": 2}


@pytest.mark.parametrize(
    "argv",
    [
        ["ramsey", "--corollary", "0"],
        ["--limits-n", "-1", "ccw", "{k4}", "--exact"],
        ["--limits-n", "0", "ccw", "{k4}", "--exact"],
        ["--limits-n", "0", "ccw", "{k4}", "--greedy"],
        ["--limits-n", "0", "stats", "{k4}"],
        ["stats", "{tmp}/missing.graph"],
    ],
)
def test_invalid_arguments_and_missing_files_exit_2(capsys, tmp_path, k4_file, argv):
    argv = [a.format(k4=k4_file, tmp=tmp_path) for a in argv]
    code, report = run(capsys, ["--out", str(tmp_path)] + argv)
    assert code == 2 and "error" in report


@pytest.mark.parametrize("n", [8, 12])
def test_orientation_vertex_count_must_match_the_graph(capsys, tmp_path, n):
    graph = ten_vertex_poset(tmp_path)
    ori = tmp_path / "o.json"
    argv = ["--out", str(tmp_path), "ccw", graph, "--greedy", "--orientation", str(ori)]
    for text in (json.dumps({"n": n, "arcs": []}), json.dumps({"n": n, "order": list(range(n))})):
        ori.write_text(text)
        code, report = run(capsys, argv + ["--assume-transitive"])
        assert code == 4 and "vertices" in report["error"]


def test_an_order_that_orients_the_complement_intransitively_exits_4(capsys, tmp_path):
    # g has the one edge 0-2, so the order 0, 1, 2 orients its complement as
    # 0 -> 1 -> 2 with no arc 0 -> 2: the umbrella 0 < 1 < 2 over edge 0-2
    graph = tmp_path / "g.graph"
    graph.write_text("p 3 1\ne 0 2\n")
    ori = tmp_path / "o.json"
    ori.write_text('{"n": 3, "order": [0, 1, 2]}')
    argv = ["--out", str(tmp_path), "ccw", str(graph), "--greedy", "--orientation", str(ori)]
    code, report = run(capsys, argv)
    assert code == 4 and report["error"] == "orientation is not transitive"
    ori.write_text('{"n": 3, "order": [1, 0, 2]}')
    code, report = run(capsys, argv)
    assert code == 0 and report["results"] == {"lower": 0, "upper": 0}


def test_gen_poset_order_file_and_an_arcs_file_give_the_same_greedy_run(capsys, tmp_path):
    from ccwidth import random_poset_graph

    out = str(tmp_path)
    code, report = run(capsys, ["--out", out, "gen", "poset", "300", "0.05"])
    assert code == 0
    graph, ori = report["witnesses"]["graph"], report["witnesses"]["orientation"]
    assert set(json.loads(Path(ori).read_text())) == {"n", "order"}
    argv = ["--out", out, "ccw", graph, "--greedy", "--orientation", ori]

    def greedy_run():
        code, report = run(capsys, argv)
        assert code == 0
        report.pop("timing_ms")
        return report, [Path(p).read_bytes() for p in sorted(report["witnesses"].values())]

    by_order = greedy_run()
    # the generator's orientation as an arcs file, at the same path
    _, o = random_poset_graph(300, 0.05, 0)
    Path(ori).write_text(json.dumps({"n": o.n, "arcs": o.arcs}))
    assert greedy_run() == by_order


def test_orientation_arcs_must_be_the_complement_edges(capsys, tmp_path):
    from ccwidth import random_poset_graph

    _, o = random_poset_graph(10, 0.3, 2)
    ori = tmp_path / "o.json"
    # one complement edge left unoriented
    ori.write_text(json.dumps({"n": 10, "arcs": o.arcs[1:]}))
    graph = ten_vertex_poset(tmp_path)
    code, report = run(
        capsys, ["--out", str(tmp_path), "ccw", graph, "--greedy", "--orientation", str(ori)]
    )
    assert code == 4 and "complement" in report["error"]


def test_decompose_cover_with_a_vertex_outside_the_graph_exits_2(capsys, tmp_path):
    graph = tmp_path / "p3.graph"
    graph.write_text("p 3 2\ne 0 1\ne 1 2\n")
    cover = tmp_path / "cover.json"
    cover.write_text('{"parts": [[0], [1], [2], [7]]}')
    argv = ["--out", str(tmp_path), "decompose", str(graph), "--cover", str(cover), "--verify"]
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 2
    assert "Traceback" not in out + err
    assert "7" in json.loads(out)["error"]
    assert not (tmp_path / "decomposition.json").exists()


def test_main_reuses_one_parser_and_keeps_no_state_between_calls(capsys, tmp_path, monkeypatch):
    from ccwidth import cli
    from ccwidth.generators import cycle_graph

    graph = tmp_path / "c5.graph"
    graph.write_text(serialize_graph(cycle_graph(5)))
    cover = tmp_path / "cover.json"
    cover.write_text(json.dumps({"parts": [[0], [1], [2], [3], [4]]}))
    out, g, c = str(tmp_path), str(graph), str(cover)
    runs = [
        ["--out", out, "--limits-n", "4", "ccw", g, "--exact"],
        ["--out", out, "ccw", g, "--exact"],
        ["--format", "edge-list", "stats", g],
        ["--out", out, "decompose", g, "--cover", c, "--verify"],
        ["parse", g, "--to", "dot"],
        ["parse", g],
        ["ramsey", "3", "3", "--verify-tiny"],
        ["ramsey", "--corollary", "2"],
    ]

    def reports():
        out = []
        for argv in runs:
            code = cli.main(argv)
            report = json.loads(capsys.readouterr().out)
            report.pop("timing_ms")
            out.append((code, report))
        return out

    shared = reports()
    assert cli._parser() is cli._parser()
    # flags of one call do not carry into the next
    assert [code for code, _ in shared[:2]] == [3, 0]
    assert "serialized" in shared[4][1]["results"] and "serialized" not in shared[5][1]["results"]
    assert "verification" in shared[6][1]["results"] and "kind" in shared[7][1]["results"]
    # the same reports as with a parser built afresh for every call
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    assert reports() == shared


def test_negative_vertex_in_an_edge_list_file_exits_2(capsys, tmp_path):
    path = tmp_path / "neg.graph"
    path.write_text("p 3 1\ne -1 2\n")
    code = main(["stats", str(path)])
    out, err = capsys.readouterr()
    assert code == 2 and "Traceback" not in out + err
    assert json.loads(out)["error"] == "edge (-1,2) out of range for n=3"
