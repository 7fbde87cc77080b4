"""Per-layer tracing for the benchmark, installed from outside the package.

Tracer.install() replaces each public function listed in LAYERS, in every
ccwidth module that holds it, by a wrapper that records a span, and puts a
counting Budget subclass into ccwidth.oracles.  uninstall() restores the
originals.  Nothing in the package knows about tracing; the untraced run
never installs it.

Spans are aggregated in memory per call path (job, parent path, name): the
record keeps the number of calls, the first start, the last end, the summed
duration and the summed duration of its child spans, so the cover_width
calls of one job make one record rather than tens of thousands.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import time

from importlib import import_module

import ccwidth

# import_module, because the package re-exports decompose() over the
# attribute that would name its submodule
cli, covers, decompose, generators, graphs, incomparability, oracles, ramsey = (
    import_module(f"ccwidth.{name}")
    for name in ("cli", "covers", "decompose", "generators", "graphs", "incomparability", "oracles", "ramsey")
)

# span name -> (module that defines the function, function name)
LAYERS = {
    "cli.main": (cli, "main"),
    "graphs.parse_graph": (graphs, "parse_graph"),
    "graphs.serialize_graph": (graphs, "serialize_graph"),
    "graphs.complement": (graphs, "complement"),
    "graphs.build_graph": (graphs, "build_graph"),
    "generators.random_poset_graph": (incomparability, "random_poset_graph"),
    "covers.cover_width": (covers, "cover_width"),
    "covers.validate_cover": (covers, "validate_cover"),
    "covers.cover_to_json": (covers, "cover_to_json"),
    "covers.cover_from_json": (covers, "cover_from_json"),
    "oracles.orientation_from_json": (oracles, "orientation_from_json"),
    "oracles.verify_transitive": (oracles, "verify_transitive"),
    "oracles.find_transitive_orientation": (oracles, "find_transitive_orientation"),
    "oracles.clique_cover_width_exact": (oracles, "clique_cover_width_exact"),
    "oracles.largest_induced_star": (oracles, "largest_induced_star"),
    "oracles.unit_intersection_dimension": (oracles, "unit_intersection_dimension"),
    "oracles.enumerate_ordered_covers": (oracles, "enumerate_ordered_covers"),
    "incomparability.greedy_layered_cover": (incomparability, "greedy_layered_cover"),
    "incomparability.extract_star_certificate": (incomparability, "extract_star_certificate"),
    "incomparability.approximate_ccw": (incomparability, "approximate_ccw"),
    "decompose.decompose": (decompose, "decompose"),
    "decompose.verify_decomposition": (decompose, "verify_decomposition"),
    "decompose.decomposition_to_json": (decompose, "decomposition_to_json"),
    "decompose.decomposition_from_json": (decompose, "decomposition_from_json"),
    "ramsey.verify_ramsey_tiny": (ramsey, "verify_ramsey_tiny"),
}

MODULES = (ccwidth, cli, covers, decompose, generators, graphs, incomparability, oracles, ramsey)


class _Record:
    __slots__ = ("calls", "start", "end", "total", "child")

    def __init__(self, start: float):
        self.calls = 0
        self.start = start
        self.end = start
        self.total = 0.0
        self.child = 0.0


class Tracer:
    """Span recorder; install() and uninstall() patch and restore the package."""

    def __init__(self):
        self.records: dict[tuple, _Record] = {}
        self.nodes: dict[str, int] = {}  # root span -> Budget ticks under it
        self._stack: list[list] = []  # [path, start, child time]
        self._patched: list[tuple] = []

    # -- spans ----------------------------------------------------------------

    def _enter(self, name: str) -> None:
        parent = self._stack[-1][0] if self._stack else ()
        self._stack.append([parent + (name,), time.perf_counter(), 0.0])

    def _exit(self) -> None:
        path, start, child = self._stack.pop()
        end = time.perf_counter()
        rec = self.records.get(path)
        if rec is None:
            rec = self.records[path] = _Record(start)
        rec.calls += 1
        rec.end = end
        rec.total += end - start
        rec.child += child
        if self._stack:
            self._stack[-1][2] += end - start

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around the with-block (job and set-up roots)."""
        self._enter(name)
        try:
            yield
        finally:
            self._exit()

    def _wrap(self, name: str, fn):
        tracer = self
        if inspect.isgeneratorfunction(fn):
            # time spent inside the generator between its yields, as one span
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    tracer._enter(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer._exit()
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit()

        return wrapper

    # -- install / uninstall --------------------------------------------------

    def install(self) -> None:
        for name, (module, attr) in LAYERS.items():
            original = getattr(module, attr)
            wrapped = self._wrap(name, original)
            for m in MODULES:
                if getattr(m, attr, None) is original:
                    self._patched.append((m, attr, original))
                    setattr(m, attr, wrapped)
        tracer = self
        base = oracles.Budget

        class CountingBudget(base):
            __slots__ = ()

            def tick(self, cost: int = 1) -> None:
                root = tracer._stack[0][0][0] if tracer._stack else "-"
                tracer.nodes[root] = tracer.nodes.get(root, 0) + cost
                base.tick(self, cost)

        self._patched.append((oracles, "Budget", base))
        oracles.Budget = CountingBudget

    def uninstall(self) -> None:
        for m, attr, original in reversed(self._patched):
            setattr(m, attr, original)
        self._patched.clear()

    # -- results --------------------------------------------------------------

    def self_ms(self, root_prefix: str) -> dict[str, float]:
        """Summed self time in ms per span name, over roots starting with
        root_prefix."""
        out: dict[str, float] = {}
        for path, rec in self.records.items():
            if path[0].startswith(root_prefix) and len(path) > 1:
                out[path[-1]] = out.get(path[-1], 0.0) + (rec.total - rec.child) * 1000
        return out

    def calls(self, root_prefix: str) -> dict[str, int]:
        out: dict[str, int] = {}
        for path, rec in self.records.items():
            if path[0].startswith(root_prefix) and len(path) > 1:
                out[path[-1]] = out.get(path[-1], 0) + rec.calls
        return out

    def node_count(self, root_prefix: str) -> int:
        return sum(c for root, c in self.nodes.items() if root.startswith(root_prefix))

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for key, rec in self.records.items():
                fh.write(json.dumps({
                    "root": key[0],
                    "span": "/".join(key[1:]) or key[0],
                    "parent": "/".join(key[1:-1]) or (key[0] if len(key) > 1 else None),
                    "calls": rec.calls,
                    "start_s": rec.start,
                    "end_s": rec.end,
                    "dur_ms": round(rec.total * 1000, 4),
                    "self_ms": round((rec.total - rec.child) * 1000, 4),
                }) + "\n")
            for root, count in self.nodes.items():
                fh.write(json.dumps({"root": root, "budget_ticks": count}) + "\n")

