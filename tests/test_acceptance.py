"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import json
import time

from ccwidth import (
    check_intersection_bound,
    clique_cover_width_exact,
    cover_width,
    decompose,
    enumerate_ordered_covers,
    is_unit_incomparability,
    largest_induced_star,
    trivial_cover,
    unit_intersection_dimension,
    validate_cover,
    validate_star,
    verify_decomposition,
    verify_ramsey_tiny,
)
from ccwidth.cli import main as cli_main
from ccwidth.generators import (
    complete_graph,
    grid_graph,
    random_cobipartite,
    random_connected_graph,
    random_poset_graph,
    random_transitive_dag,
    random_unit_width_graph,
    remark_three_cliques_graph,
)
from ccwidth.graphs import Graph, build_graph, serialize_graph
from ccwidth.incomparability import approximate_ccw, greedy_layered_cover
from ccwidth.limits import SearchLimits
from ccwidth.ramsey import star_bound_from_width


def report(criterion, passed, detail=""):
    line = f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert passed, line


def ceil_half(x):
    return -(-x // 2)


def test_criterion_1_paper_example_regressions():
    started = time.perf_counter()
    k6 = complete_graph(6)
    ok = clique_cover_width_exact(k6)[0] == 0
    ok &= unit_intersection_dimension(k6) == 1

    cobip = build_graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (0, 3)])
    ok &= largest_induced_star(cobip)[0] == 2
    ok &= clique_cover_width_exact(cobip)[0] == 1

    remark = remark_three_cliques_graph()
    ok &= largest_induced_star(remark)[0] == 3
    ok &= clique_cover_width_exact(remark, SearchLimits(max_n=12))[0] == 1

    ok &= largest_induced_star(grid_graph(4, 4))[0] == 4
    elapsed = time.perf_counter() - started
    report(1, ok and elapsed < 4.0, f"paper-example regressions, {elapsed:.2f}s")


def test_criterion_2_decomposition_suite():
    started = time.perf_counter()
    limits = SearchLimits(max_n=10)
    violations = 0
    runs = 0
    for seed in range(200):
        n = 4 + seed % 9  # 4..12
        g = random_connected_graph(n, 0.25 + (seed % 5) * 0.12, seed)
        covers = [trivial_cover(g)]
        if n <= limits.max_n:
            covers.append(clique_cover_width_exact(g, limits)[1])
        for cover in covers:
            runs += 1
            w = cover_width(g, cover)
            d = decompose(g, cover)
            if len(d.factors) != max(w, 1):
                violations += 1
                continue
            if not verify_decomposition(g, d).all_passed:
                violations += 1
                continue
            if not is_unit_incomparability(d.factors[-1].graph, SearchLimits(max_n=12)):
                violations += 1
    elapsed = time.perf_counter() - started
    report(
        2,
        violations == 0 and elapsed < 120,
        f"{runs} decompositions verified, {violations} violations, {elapsed:.1f}s",
    )


def test_criterion_3_observation_width_lower_bound():
    started = time.perf_counter()
    violations = 0
    covers_checked = 0
    for seed in range(500):
        n = 3 + seed % 4  # 3..6
        g = random_connected_graph(n, 0.3 + (seed % 4) * 0.15, seed)
        s, _ = largest_induced_star(g)
        bound = ceil_half(s) - 1
        for cover in enumerate_ordered_covers(g):
            covers_checked += 1
            if cover_width(g, cover) < bound:
                violations += 1
    elapsed = time.perf_counter() - started
    report(
        3,
        violations == 0 and elapsed < 300,
        f"{covers_checked} ordered covers across 500 graphs, {violations} violations, {elapsed:.1f}s",
    )


def test_criterion_4_greedy_sandwich_suite():
    started = time.perf_counter()
    violations = []
    for seed in range(200):
        n = 6 + seed % 35  # 6..40
        density = 0.15 + (seed % 7) * 0.1
        g, ghat = random_poset_graph(n, density, seed)
        if g.edge_count() == 0:
            continue
        res = approximate_ccw(g, ghat)
        s, _ = largest_induced_star(g)
        if not (s - 1 >= res.upper >= ceil_half(s) - 1):
            violations.append((seed, "sandwich"))
        cert = res.witness_star
        if not (validate_star(g, cert) and len(cert.leaves) == res.upper + 1):
            violations.append((seed, "certificate"))
        if n <= 10:
            exact, _ = clique_cover_width_exact(g)
            if res.upper > 2 * exact + 1:
                violations.append((seed, "two-approx"))
            if ceil_half(s) - 1 > exact:
                violations.append((seed, "lower-bound"))
    elapsed = time.perf_counter() - started
    report(
        4,
        not violations and elapsed < 180,
        f"200 poset graphs, violations={violations[:3]}, {elapsed:.1f}s",
    )


def test_criterion_5_layering_scales_linearly():
    small = random_transitive_dag(446, 1.0, seed=5)  # |V| + |arcs| ~ 1e5
    big = random_transitive_dag(1414, 1.0, seed=5)  # |V| + |arcs| ~ 1e6

    def best_time(orientation):
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            greedy_layered_cover(orientation, check=False)
            best = min(best, time.perf_counter() - t0)
        return best

    t_small = best_time(small)
    t_big = best_time(big)
    ratio = t_big / t_small
    report(
        5,
        5 <= ratio <= 20,
        f"sizes {446 + len(small.arcs)} vs {1414 + len(big.arcs)}, "
        f"times {t_small * 1000:.0f}ms vs {t_big * 1000:.0f}ms, ratio {ratio:.1f}",
    )


def test_criterion_6_ramsey_suite():
    started = time.perf_counter()
    v = verify_ramsey_tiny((3, 3))
    ok = v.confirmed
    enum_elapsed = time.perf_counter() - started
    ok &= enum_elapsed < 10

    # s <= 3 whenever the clique cover width is exactly 1
    bound = star_bound_from_width(1).value - 1
    checked = 0
    seed = 0
    while checked < 300 and seed < 3000:
        n = 4 + seed % 5  # 4..8
        g = random_unit_width_graph(n, seed)
        seed += 1
        if clique_cover_width_exact(g, SearchLimits(max_n=8))[0] != 1:
            continue
        checked += 1
        if largest_induced_star(g)[0] > bound:
            ok = False
    ok &= checked >= 300

    pair_failures = 0
    for s in range(100):
        n = 6 + s % 5  # 6..10
        h1 = random_cobipartite(n, 0.5, s)
        h2 = random_cobipartite(n, 0.5, s + 5000)
        g = Graph(n, tuple(a & b for a, b in zip(h1.adj, h2.adj)))
        verdict = check_intersection_bound(g, [h1, h2])
        if not (verdict.testable and verdict.passed and verdict.star_size <= 5):
            pair_failures += 1
    elapsed = time.perf_counter() - started
    report(
        6,
        ok and pair_failures == 0,
        f"R(3,3) enum {enum_elapsed:.1f}s, {checked} width-1 graphs, "
        f"{pair_failures} factor-pair failures, total {elapsed:.1f}s",
    )


def test_criterion_7_dimension_below_width_constructively():
    started = time.perf_counter()
    violations = 0
    checked = 0
    seed = 0
    while checked < 100 and seed < 1000:
        n = 4 + seed % 4  # 4..7
        g = random_connected_graph(n, 0.3 + (seed % 4) * 0.15, seed)
        seed += 1
        if g.edge_count() == g.n * (g.n - 1) // 2:
            continue  # cliques excluded
        checked += 1
        width, cover = clique_cover_width_exact(g)
        dim = unit_intersection_dimension(g)
        if dim > width:
            violations += 1
            continue
        d = decompose(g, cover)
        if len(d.factors) != width:
            violations += 1
            continue
        if not all(is_unit_incomparability(f.graph) for f in d.factors):
            violations += 1
    elapsed = time.perf_counter() - started
    report(
        7,
        violations == 0 and checked == 100 and elapsed < 600,
        f"{checked} connected non-clique graphs, {violations} violations, {elapsed:.1f}s",
    )


def test_criterion_8_witness_determinism(tmp_path, capsys):
    from ccwidth.generators import cycle_graph, star_graph

    inputs = tmp_path / "inputs"
    inputs.mkdir()
    star_path = inputs / "star.graph"
    star_path.write_text(serialize_graph(star_graph(5)))
    c5_path = inputs / "c5.graph"
    c5_path.write_text(serialize_graph(cycle_graph(5)))

    def run_all(out_dir):
        commands = [
            ["--out", str(out_dir), "ccw", str(star_path), "--exact"],
            ["--out", str(out_dir), "ccw", str(star_path), "--greedy"],
            ["--out", str(out_dir), "decompose", str(c5_path), "--auto", "--verify"],
            ["--seed", "11", "--out", str(out_dir), "gen", "poset", "25", "0.4"],
            ["--seed", "11", "--out", str(out_dir), "gen", "cobipartite", "10", "0.5"],
        ]
        for argv in commands:
            assert cli_main(argv) == 0
        capsys.readouterr()

    run1, run2 = tmp_path / "run1", tmp_path / "run2"
    run_all(run1)
    run_all(run2)
    names1 = sorted(p.name for p in run1.iterdir())
    names2 = sorted(p.name for p in run2.iterdir())
    identical = names1 == names2 and all(
        (run1 / name).read_bytes() == (run2 / name).read_bytes() for name in names1
    )
    report(8, identical, f"{len(names1)} witness files byte-identical across reruns")
