"""Benchmark runner for the ccwidth toolkit.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout: the package is imported from
src/ccwidth next to this directory.  One client in one process and one
thread runs jobs as a closed loop, a whole round of the workload's input
list at a time, until the jobs have taken S seconds.  Every job's outputs are
checked: in the first round by the independent checkers in checks.py, in
later rounds by comparing them byte for byte with the checked first round.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  With --trace 0 the metrics are the end-to-end ones;
with --trace 1 they are the per-layer ones, from rounds that alternate
between untraced and traced (the difference of their job medians is the
tracing overhead).  Spans of the traced rounds go to
perfbench/work/trace-<workload>-<seed>.jsonl.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_PASSES = 3  # set-up is repeated and its median reported


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def fingerprint(outputs) -> tuple[str, int]:
    """Digest of a job's outputs (exit codes, reports without timing_ms,
    witness file bytes, library results) and the witness bytes written."""
    from workloads import CliResult

    h = hashlib.sha256()
    written = 0
    for out in outputs:
        if isinstance(out, CliResult):
            report = out.report()
            report.pop("timing_ms", None)
            h.update(f"{out.code}:{json.dumps(report, sort_keys=True)}".encode())
            for path in sorted(report.get("witnesses", {}).values()):
                with open(path, "rb") as fh:
                    data = fh.read()
                written += len(data)
                h.update(data)
        else:
            h.update(repr(out).encode())
    return h.hexdigest(), written


class Runner:
    def __init__(self, jobs):
        self.jobs = jobs
        self.verified: dict[str, tuple[str, int]] = {}
        self.failed = 0
        self.wrong = 0
        self.witness_bytes = 0

    def round(self, times: list, tracer=None) -> bool:
        """Run every job once, appending the times of those that completed;
        False if any job raised."""
        completed = True
        for job in self.jobs:
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    outputs = job.run()
                else:
                    with tracer.span(f"job:{job.name}"):
                        outputs = job.run()
            except Exception:
                traceback.print_exc(file=sys.stderr)
                self.failed += 1
                completed = False
                continue
            times.append(time.perf_counter() - t0)
            self._verify(job, outputs)
        return completed

    def _verify(self, job, outputs) -> None:
        from checks import CheckError

        try:
            digest, written = fingerprint(outputs)
            if job.name not in self.verified:
                job.check(outputs)
                self.verified[job.name] = (digest, written)
            elif self.verified[job.name][0] != digest:
                raise CheckError("outputs differ from the checked outputs of the first round")
            self.witness_bytes += written
        except (CheckError, KeyError, ValueError, OSError) as exc:
            print(f"{job.name}: wrong output: {exc!r}", file=sys.stderr)
            self.wrong += 1


def set_up(build, seed: int, work: str, tracer=None):
    """Make the workload's inputs SETUP_PASSES times; returns the jobs of the
    last pass and the median pass time."""
    durations = []
    for k in range(SETUP_PASSES):
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        t0 = time.perf_counter()
        if tracer is None:
            jobs = build(seed, work)
        else:
            with tracer.span(f"setup:{k}"):
                jobs = build(seed, work)
        durations.append(time.perf_counter() - t0)
    return jobs, statistics.median(durations)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "ccwidth")):
        print(f"no package source at {os.path.join(ROOT, 'src', 'ccwidth')}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import ccwidth  # noqa: F401
    import workloads

    import_s = time.perf_counter() - STARTED
    build = workloads.WORKLOADS.get(args.workload)
    if build is None:
        print(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    work = os.path.join(HERE, "work", f"{args.workload}-{args.seed}-{os.getpid()}")
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        tracer.install()
    try:
        jobs, setup_s = set_up(build, args.seed, work, tracer)
        # keep the cyclic collector's full passes off the harness's own
        # long-lived objects: only what the program allocates is scanned
        gc.freeze()
        runner = Runner(jobs)
        if tracer is None:
            result = measure(runner, args.seconds, import_s + setup_s)
        else:
            tracer.uninstall()
            result = measure_traced(runner, args.seconds, tracer)
            tracer.write_jsonl(os.path.join(HERE, "work", f"trace-{args.workload}-{args.seed}.jsonl"))
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)
    if result is None:
        print("no job completed; no figures to report", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


def _summary(runner, times, metrics) -> dict:
    return {
        "correct": runner.wrong == 0,
        "attempted": len(times) + runner.failed,
        "failed": runner.failed,
        "metrics": metrics,
    }


def measure(runner, seconds: float, setup_s: float) -> dict | None:
    times: list[float] = []
    while sum(times) < seconds and runner.round(times):
        pass
    jobs = len(times)
    if not jobs:
        return None
    metrics = {
        "setup_s": setup_s,
        "job_p50_ms": statistics.median(times) * 1000,
        "jobs_per_s": jobs / sum(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "witness_kb_per_job": runner.witness_bytes / jobs / 1000,
    }
    units = {"setup_s": "s", "job_p50_ms": "ms", "jobs_per_s": "1/s", "peak_rss_mb": "MB", "witness_kb_per_job": "KB"}
    return _summary(runner, times, {k: {"value": v, "unit": units[k]} for k, v in metrics.items()})


def measure_traced(runner, seconds: float, tracer) -> dict | None:
    from spans import LAYERS

    plain: list[float] = []
    traced: list[float] = []
    while sum(plain) + sum(traced) < seconds:
        completed = runner.round(plain)
        tracer.install()
        try:
            completed = runner.round(traced, tracer) and completed
        finally:
            tracer.uninstall()
        if not completed:
            break
    jobs = len(traced)
    if not jobs or not plain:
        return None
    self_ms = tracer.self_ms("job:")
    setup_ms = tracer.self_ms("setup:")
    calls = tracer.calls("job:")
    metrics = {}
    for name in sorted(LAYERS):
        if name == "generators.random_poset_graph":  # runs in set-up only
            value = setup_ms.get(name, 0.0) / SETUP_PASSES
        else:
            value = self_ms.get(name, 0.0) / jobs
        metrics["cli.self_ms" if name == "cli.main" else f"{name}_ms"] = {"value": value, "unit": "ms"}
    metrics["covers.cover_width_calls"] = {"value": calls.get("covers.cover_width", 0) / jobs, "unit": "count"}
    metrics["oracles.search_nodes"] = {"value": tracer.node_count("job:") / jobs, "unit": "count"}
    p50 = statistics.median(traced) * 1000
    metrics["trace.job_p50_ms"] = {"value": p50, "unit": "ms"}
    metrics["trace.overhead_ms"] = {"value": p50 - statistics.median(plain) * 1000, "unit": "ms"}
    return _summary(runner, plain + traced, metrics)


if __name__ == "__main__":
    sys.exit(main())
