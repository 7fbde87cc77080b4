"""The four workloads: how each makes its inputs from a seed, what one job
calls, and how each job's outputs are checked.

Inputs are made with the package's own generators and written with its own
serializers during set-up.  Every job calls ccwidth.cli.main in-process, or a
public library function where the CLI has no command.  Functions are looked
up on their module at call time, so the tracer's wrappers see them.

Call k of a job writes its witnesses under <work>/out/<k>; the runner checks
a job before it runs the next one, so jobs can share these directories.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass
from importlib import import_module
from typing import Callable

import checks
from checks import CheckError

# the package's __init__ re-exports decompose(), which hides the submodule
# of that name from attribute access; import_module returns the modules
cli_mod, covers, decompose_mod, generators, graphs, incomparability, oracles = (
    import_module(f"ccwidth.{name}")
    for name in ("cli", "covers", "decompose", "generators", "graphs", "incomparability", "oracles")
)

EXIT_OK = 0
EXIT_RECOGNIZE = 5


@dataclass
class CliResult:
    code: int
    stdout: str

    def report(self) -> dict:
        return json.loads(self.stdout)


def cli(argv: list[str]) -> CliResult:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_mod.main(argv)
    return CliResult(code, buf.getvalue())


@dataclass
class Job:
    """A fixed bundle of calls.  run() is the timed part; check(outputs)
    verifies what run() returned and raises CheckError on a wrong output."""

    name: str
    run: Callable[[], list]
    check: Callable[[list], None]


def _write(path: str, text: str) -> str:
    with open(path, "w") as fh:
        fh.write(text)
    return path


def _load(path: str):
    with open(path) as fh:
        return json.load(fh)


def _expect(result: CliResult, code: int, what: str) -> dict:
    if result.code != code:
        raise CheckError(f"{what}: exit {result.code}, expected {code}")
    return result.report()


def _outdir(work: str, k: int) -> str:
    path = os.path.join(work, "out", str(k))
    os.makedirs(path, exist_ok=True)
    return path


def _check_greedy_call(res: CliResult, adj: list[int], what: str) -> None:
    report = _expect(res, EXIT_OK, what)
    cover = _load(report["witnesses"]["cover"])
    star = _load(report["witnesses"]["star"])
    checks.check_greedy(adj, report["results"], cover, star)


# ---------------------------------------------------------------------------
# greedy_oriented: ccw --greedy --orientation FILE on large poset graphs.
# Dense DAGs make the complement orientation large, so verify_transitive
# dominates; sparse ones leave a dense graph where cover_width and the star
# extraction dominate.

ORIENTED_MAKEUP = [  # (n, arc probability of the random DAG before closure)
    (300, 0.05), (300, 0.01), (350, 0.03), (350, 0.08), (400, 0.02),
    (400, 0.05), (450, 0.01), (450, 0.03), (500, 0.005), (500, 0.02),
]


def greedy_oriented(seed: int, work: str) -> list[Job]:
    rng = random.Random(seed)
    out = _outdir(work, 0)
    jobs = []
    for i, (n, d) in enumerate(ORIENTED_MAKEUP):
        s = rng.randrange(1 << 30)
        g, o = generators.random_poset_graph(n, d, s)
        gpath = _write(os.path.join(work, f"poset_{i}.graph"), graphs.serialize_graph(g, "edge-list"))
        opath = _write(os.path.join(work, f"poset_{i}.orientation.json"), oracles.orientation_to_json(o))
        argv = ["--out", out, "ccw", gpath, "--greedy", "--orientation", opath]
        adj = list(g.adj)
        jobs.append(Job(
            f"oriented_{i}",
            lambda argv=argv: [cli(argv)],
            lambda outputs, adj=adj: _check_greedy_call(outputs[0], adj, "ccw --greedy --orientation"),
        ))
    return jobs


# ---------------------------------------------------------------------------
# exact_desk: the exponential oracles at desk scale.  Per job:
#  - ccw --exact --limits-n 16 and star on a random connected graph, n = 12..14;
#  - on a random connected 7-vertex graph with a fixed edge count: the unit
#    intersection dimension, the width of every ordered cover, and decompose
#    plus verify_decomposition of the exact witness;
#  - backtracking recognition under the default cap of 16 vertices: ccw
#    --greedy on a 16-vertex poset graph, and on a 16-vertex graph with a
#    planted induced C5, which must exit 5;
#  - ramsey 3 3 --verify-tiny.
# The 7-vertex graphs take their edge count from DESK_SMALL_EDGES: the number
# of ordered covers, which sets the cost of the cover loop, follows the edge
# count closely, so fixing it keeps one seed's job mix like another's.

DESK_SIZES = [12, 13, 14]
DESK_DENSITY = 0.3
DESK_SMALL_EDGES = [10, 11, 12, 13, 14]  # 7 vertices; cycled over the jobs
DESK_POSET = (16, 0.1)
DESK_JOBS = 15


def _connected_with_edges(n: int, m: int, rng: random.Random):
    """Uniform random spanning tree order plus random extra edges, m in all."""
    order = list(range(n))
    rng.shuffle(order)
    edges = set()
    for i in range(1, n):
        u, v = order[rng.randrange(i)], order[i]
        edges.add((min(u, v), max(u, v)))
    rest = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in edges]
    edges.update(rng.sample(rest, m - len(edges)))
    return graphs.build_graph(n, sorted(edges))


def _plant_inside(adj: list[int], rng: random.Random) -> tuple[list[int], list[int]]:
    """Rewire five random vertices into an induced C5."""
    cycle = rng.sample(range(len(adj)), 5)
    cm = 0
    for v in cycle:
        cm |= 1 << v
    adj = [a & ~cm if v in cycle else a for v, a in enumerate(adj)]
    for i, v in enumerate(cycle):
        w = cycle[(i + 1) % 5]
        adj[v] |= 1 << w
        adj[w] |= 1 << v
    return adj, cycle


def _add_disjoint(adj: list[int]) -> tuple[list[int], list[int]]:
    """Append a C5 as a component of its own, on the five highest labels."""
    n = len(adj)
    cycle = list(range(n, n + 5))
    adj = list(adj) + [0] * 5
    for i, v in enumerate(cycle):
        w = cycle[(i + 1) % 5]
        adj[v] |= 1 << w
        adj[w] |= 1 << v
    return adj, cycle


def _edge_list(adj: list[int]) -> str:
    n = len(adj)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if adj[u] >> v & 1]
    return graphs.serialize_graph(graphs.build_graph(n, edges), "edge-list")


def _small_graph_bundle(g):
    udim = oracles.unit_intersection_dimension(g)
    count = 0
    best = g.n
    for cover in oracles.enumerate_ordered_covers(g):
        count += 1
        best = min(best, covers.cover_width(g, cover))
    width, witness = oracles.clique_cover_width_exact(g)
    d = decompose_mod.decompose(g, witness)
    verdict = decompose_mod.verify_decomposition(g, d)
    return udim, count, best, width, witness, d, verdict


def exact_desk(seed: int, work: str) -> list[Job]:
    rng = random.Random(seed)
    jobs = []
    for j in range(DESK_JOBS):
        n = DESK_SIZES[j % len(DESK_SIZES)]
        m = DESK_SMALL_EDGES[j % len(DESK_SMALL_EDGES)]
        s_big, s_poset, s_c5 = (rng.randrange(1 << 30) for _ in range(3))
        big = generators.random_connected_graph(n, DESK_DENSITY, s_big)
        small = _connected_with_edges(7, m, rng)
        poset, _ = generators.random_poset_graph(*DESK_POSET, s_poset)
        if j % 2 == 0:
            base, _ = generators.random_poset_graph(*DESK_POSET, s_c5)
            c5_adj, cycle = _plant_inside(list(base.adj), rng)
        else:
            base, _ = generators.random_poset_graph(DESK_POSET[0] - 5, DESK_POSET[1], s_c5)
            c5_adj, cycle = _add_disjoint(list(base.adj))
        big_path = _write(os.path.join(work, f"desk_{j}.graph"), graphs.serialize_graph(big, "edge-list"))
        poset_path = _write(os.path.join(work, f"desk_{j}_poset.graph"), graphs.serialize_graph(poset, "edge-list"))
        c5_path = _write(os.path.join(work, f"desk_{j}_c5.graph"), _edge_list(c5_adj))
        argvs = [
            ["--limits-n", "16", "--out", _outdir(work, 0), "ccw", big_path, "--exact"],
            ["--out", _outdir(work, 1), "star", big_path],
            ["--out", _outdir(work, 2), "ccw", poset_path, "--greedy"],
            ["--out", _outdir(work, 3), "ccw", c5_path, "--greedy"],
            ["--out", _outdir(work, 4), "ramsey", "3", "3", "--verify-tiny"],
        ]

        def run(argvs=argvs, small=small):
            return [cli(a) for a in argvs[:4]] + [_small_graph_bundle(small), cli(argvs[4])]

        jobs.append(Job(
            f"desk_{j}", run,
            lambda outputs, big=list(big.adj), small=list(small.adj), poset=list(poset.adj), c5=(c5_adj, cycle):
                _check_desk(outputs, big, small, poset, c5),
        ))
    return jobs


def _check_desk(outputs: list, big: list[int], small: list[int], poset: list[int], c5) -> None:
    exact, star, greedy, reject, bundle, ramsey = outputs
    report = _expect(exact, EXIT_OK, "ccw --exact")
    ccw = report["results"]["ccw"]
    checks.check_exact(big, ccw, _load(report["witnesses"]["cover"])["parts"], prove_optimal=True)

    report = _expect(star, EXIT_OK, "star")
    s = report["results"]["star_leaves"]
    cert = report["results"]["certificate"]
    checks.check_star(big, cert["center"], cert["leaves"], s)
    largest = checks.largest_star(big)
    if s != largest:
        raise CheckError(f"star reports {s} leaves, the largest induced star has {largest}")
    checks.check_bounds(ccw, s)

    _check_greedy_call(greedy, poset, "ccw --greedy on a poset graph")
    c5_adj, cycle = c5
    checks.check_induced_c5(c5_adj, cycle)
    _expect(reject, EXIT_RECOGNIZE, "ccw --greedy on a graph with a planted C5")

    udim, count, best, width, witness, d, verdict = bundle
    census = checks.ordered_cover_census(small)
    if (count, best) != census:
        raise CheckError(f"{count} ordered covers with minimum width {best}; expected {census}")
    checks.check_exact(small, width, witness.parts, prove_optimal=False)
    if width != best:
        raise CheckError(f"exact ccw {width} differs from the minimum over all covers {best}")
    checks.check_bounds(width, checks.largest_star(small), udim=udim)
    checks.check_decomposition(small, witness.parts, [
        {
            "kind": f.kind,
            "adj": list(f.graph.adj),
            "bipartition": f.bipartition,
            "arcs": f.orientation.arcs if f.orientation else None,
            "blocks": f.blocks.parts if f.blocks else None,
        }
        for f in d.factors
    ])
    if not verdict.all_passed:
        raise CheckError(f"verify_decomposition failed on a valid decomposition: {verdict.failures()}")

    report = _expect(ramsey, EXIT_OK, "ramsey 3 3 --verify-tiny")
    res = report["results"]
    r33 = checks.ramsey_3_3()
    if (res["kind"], res["lo"], res["hi"]) != ("exact", r33, r33) or not res["verification"]["lower_verified"]:
        raise CheckError(f"ramsey 3 3 reports {res}, R(3,3) = {r33}")


# ---------------------------------------------------------------------------
# decompose_roundtrip: decompose --cover greedy_cover.json --verify, then
# verify --decomposition decomposition.json, on poset graphs whose greedy
# covers have width 10..16.  Witness writes and reads do most of the work.

# half the inputs share the middle size, so the job median is a median of
# like jobs rather than the time of whichever input sorts into the middle
ROUNDTRIP_MAKEUP = [(n, 0.05) for n in (120, 140, 160, 160, 160, 160, 180, 200)] * 2


def decompose_roundtrip(seed: int, work: str) -> list[Job]:
    rng = random.Random(seed)
    out = _outdir(work, 0)
    jobs = []
    for i, (n, d) in enumerate(ROUNDTRIP_MAKEUP):
        s = rng.randrange(1 << 30)
        g, o = generators.random_poset_graph(n, d, s)
        cover = incomparability.greedy_layered_cover(o, check=False).cover
        gpath = _write(os.path.join(work, f"poset_{i}.graph"), graphs.serialize_graph(g, "edge-list"))
        cpath = _write(os.path.join(work, f"poset_{i}.greedy_cover.json"), covers.cover_to_json(cover))
        argvs = [
            ["--out", out, "decompose", gpath, "--cover", cpath, "--verify"],
            ["--out", out, "verify", gpath, "--decomposition", os.path.join(out, "decomposition.json")],
        ]
        jobs.append(Job(
            f"roundtrip_{i}",
            lambda argvs=argvs: [cli(a) for a in argvs],
            lambda outputs, adj=list(g.adj), parts=cover.parts: _check_roundtrip(outputs, adj, parts),
        ))
    return jobs


def _check_roundtrip(outputs: list, adj: list[int], parts) -> None:
    """Reported width and factor count, decompose's own verification,
    decomposition.json (which must record the given cover) and every
    factor's DOT file, then the verify command's verdict."""
    dec, ver = outputs
    report = _expect(dec, EXIT_OK, "decompose --cover --verify")
    res = report["results"]
    width = checks.clique_cover_width(adj, parts)
    if res["width"] != width or res["factor_count"] != max(width, 1):
        raise CheckError(f"decompose reports width {res['width']} with {res['factor_count']} factors; cover width is {width}")
    if not all(c["passed"] for c in res["verification"]):
        raise CheckError("decompose --verify reports a failed check on a valid cover")
    obj = _load(report["witnesses"]["decomposition"])
    if obj["cover"] != [list(p) for p in parts]:
        raise CheckError("decomposition.json does not record the given cover")
    factors = checks.factors_from_json(obj, len(adj))
    checks.check_decomposition(adj, parts, factors)
    for i, f in enumerate(factors):
        with open(report["witnesses"][f"factor_{i}"]) as fh:
            if checks.dot_edges(fh.read()) != f["adj"]:
                raise CheckError(f"factor_{i}.dot differs from factor {i} of decomposition.json")
    report = _expect(ver, EXIT_OK, "verify --decomposition")
    if not report["results"]["all_passed"]:
        raise CheckError("verify rejects the decomposition it wrote")


WORKLOADS = {
    "greedy_oriented": greedy_oriented,
    "exact_desk": exact_desk,
    "decompose_roundtrip": decompose_roundtrip,
}
