"""Resource caps: the vertex count of any graph, and the limits of the
exponential-time exact searches.

Every exact oracle but the induced-star search takes a SearchLimits (a
vertex cap and a time budget) and counts its nodes against NODE_BUDGET;
exceeding any cap raises LimitExceededError rather than silently
approximating.  The induced-star search takes no limits: `stats` caps it
at STATS_STAR_MAX_N vertices, and `star` runs it uncapped.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .errors import InvalidArgumentError, LimitExceededError

# the most vertices a graph, an orientation or a generated instance may
# have, far above what any command can process: a larger count in a file or
# an argument is rejected before anything of that size is allocated
MAX_VERTICES = 1 << 24

# the most nodes one exact search may expand
NODE_BUDGET = 50_000_000

# the most vertices on which `stats` runs the exact induced-star search
STATS_STAR_MAX_N = 32


@dataclass(frozen=True)
class SearchLimits:
    max_n: int = 10
    time_budget_ms: int = 600_000

    def __post_init__(self):
        if self.max_n <= 0 or self.time_budget_ms <= 0:
            raise InvalidArgumentError("all search limits must be positive")

    def check_n(self, n: int) -> None:
        if n > self.max_n:
            raise LimitExceededError(f"instance has {n} vertices, cap is {self.max_n}")


class Budget:
    """Mutable countdown used inside a single search invocation."""

    __slots__ = ("nodes_left", "deadline")

    def __init__(self, limits: SearchLimits):
        self.nodes_left = NODE_BUDGET
        self.deadline = time.monotonic_ns() + limits.time_budget_ms * 1_000_000

    def tick(self, cost: int = 1) -> None:
        self.nodes_left -= cost
        if self.nodes_left <= 0:
            raise LimitExceededError("search node budget exhausted")
        # monotonic_ns() is cheap but not free; only poll occasionally
        if self.nodes_left % 4096 == 0:
            self.poll()

    def poll(self) -> None:
        """Raise once the time budget is spent: tick calls this every 4,096
        nodes, a search that does work between ticks calls it itself."""
        if time.monotonic_ns() > self.deadline:
            raise LimitExceededError("search time budget exhausted")


BANDWIDTH_LIMITS = SearchLimits(max_n=12)
CCW_LIMITS = SearchLimits(max_n=19)
UDIM_LIMITS = SearchLimits(max_n=10)
