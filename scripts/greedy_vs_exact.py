#!/usr/bin/env python3
"""Compare the greedy layered-cover width against the exact clique cover width.

Samples random incomparability graphs at oracle scale and reports how often
the greedy upper bound is tight, one off, or worse, together with the
largest-induced-star lower bound, and the median and maximum time of the
exact search.  --limits-n sets the exact search's vertex cap (the default
cap of CCW_LIMITS otherwise), e.g.

    PYTHONPATH=src python3 scripts/greedy_vs_exact.py --n 20 --density 0.1 --trials 8 --limits-n 20
"""

import argparse
import collections
import statistics
import time

from ccwidth import SearchLimits, approximate_ccw, clique_cover_width_exact, largest_induced_star
from ccwidth.errors import LimitExceededError
from ccwidth.incomparability import random_poset_graph
from ccwidth.limits import CCW_LIMITS


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=9)
    ap.add_argument("--trials", type=int, default=100)
    ap.add_argument("--density", type=float, default=0.4)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--limits-n", type=int, default=CCW_LIMITS.max_n, help="vertex cap of the exact search")
    args = ap.parse_args()
    limits = SearchLimits(max_n=args.limits_n)

    gaps = collections.Counter()
    times = []
    worst = None
    for t in range(args.trials):
        g, ghat = random_poset_graph(args.n, args.density, args.seed + t)
        if g.edge_count() == 0:
            continue
        start = time.perf_counter()
        try:
            exact, _ = clique_cover_width_exact(g, limits)
        except LimitExceededError as exc:
            raise SystemExit(f"exact search on seed {args.seed + t}: {exc}") from None
        times.append(time.perf_counter() - start)
        res = approximate_ccw(g, ghat)
        s, _ = largest_induced_star(g)
        gap = res.upper - exact
        gaps[gap] += 1
        if worst is None or gap > worst[0]:
            worst = (gap, args.seed + t, exact, res.upper, res.lower, s)

    total = sum(gaps.values())
    print(f"{total} graphs, n={args.n}, density={args.density}")
    if times:
        print(f"exact ccw time: median {statistics.median(times):.4f} s, max {max(times):.4f} s")
    for gap in sorted(gaps):
        print(f"  greedy - exact = {gap}: {gaps[gap]:>4} ({100 * gaps[gap] / total:.0f}%)")
    if worst:
        gap, seed, exact, upper, lower, s = worst
        print(
            f"worst case: seed={seed} exact={exact} greedy={upper} "
            f"lower={lower} star_leaves={s}"
        )


if __name__ == "__main__":
    main()
