"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload regex_equiv --seed 1 --seconds 35 --trace 0

Run from the repository root; the library is imported from `src/`.  One client
issues queries in a closed loop, single-threaded, in whole rounds of the
workload's query mix, while the measured query time plus one mean round stays
within `--seconds`.  Query times are reported at a reference host speed: a
fixed kernel timed between queries (see `perfbench/speed.py`) rescales them,
and the per-query limit is in the same reference seconds; set-up time is
rescaled the same way by a fixed import kernel.  With `--trace 0` the last line
reports the end-to-end metrics; with `--trace 1` every query is run untraced
and then traced, and the last line reports per-layer metrics (per-query means)
plus the tracing overhead.  `--workload all` runs every workload, each in its
own process, and prefixes the metric names with the workload.

`failed` counts queries that raised; a query cut off by the per-query limit is
undecided, which `decided_share` reports.  Exits 1 on a wrong verdict and 2 on
bad usage or a missing library.
"""
from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent


class QueryTimeout(BaseException):
    """Raised by the alarm; a BaseException so library `except Exception`
    handlers cannot swallow it."""


def _on_alarm(signum, frame):
    raise QueryTimeout()


def timed_call(fn, limit: float):
    """(status, outcome, seconds) of fn() under an in-process time limit."""
    start = perf_counter()
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, limit)
            outcome = fn()
            return "ok", outcome, perf_counter() - start
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except QueryTimeout:
        return "timeout", None, perf_counter() - start
    except Exception as err:  # the query failed; the run goes on
        return "error", err, perf_counter() - start


def percentile(values: list[float], p: float) -> float:
    ordered = sorted(values)
    rank = p / 100 * (len(ordered) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def purge_library() -> None:
    for name in [m for m in sys.modules if m == "coalgex" or m.startswith("coalgex.")]:
        del sys.modules[name]


def run(workload, seed: int, seconds: float, limit: float, trace: bool,
        lib, ctx, speed, max_queries: int | None = None) -> dict:
    """Closed-loop run; returns per-query records and traced aggregates.

    `seconds` bounds the wall-clock query time; `limit` and every recorded
    time are in reference seconds of `speed`."""
    from perfbench.tracing import Tracer, term_sizes
    from perfbench.workloads import Mismatch

    tracer = Tracer() if trace else None
    traced_lib = tracer.traced_library(lib) if trace else None
    records = []
    wrong: list[str] = []
    layer_time: Counter = Counter()
    layer_count: Counter = Counter()
    traced_seconds: list[float] = []
    busy = 0.0
    cache: dict = {}
    rounds = 0
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        for batch in workload.rounds(seed):
            for q in batch:
                if max_queries is not None and len(records) >= max_queries:
                    break
                factor = speed.factor()
                status, outcome, elapsed = timed_call(lambda: workload.run(q, lib, ctx), limit / factor)
                busy += elapsed
                record = {"label": q.label, "status": status, "seconds": elapsed * factor,
                          "wall_seconds": elapsed}
                if status == "ok":
                    try:
                        workload.check(q, outcome, lib, cache)
                    except Mismatch as err:
                        wrong.append(str(err))
                elif status == "error":
                    record["error"] = f"{type(outcome).__name__}: {outcome}"[:200]
                if trace:
                    factor = speed.factor()
                    with tracer.patched():
                        tracer.begin(len(records))
                        t_status, t_outcome, t_elapsed = timed_call(
                            lambda: workload.run(q, traced_lib, ctx), limit / factor)
                        self_time, counts, kept = tracer.end()
                    busy += t_elapsed
                    traced_seconds.append(tracer.root_seconds() * factor)
                    layer_time.update({span: t * factor for span, t in self_time.items()})
                    layer_count.update(counts)
                    for term in kept:
                        tree, dag = term_sizes(term)
                        layer_count["extraction.term_tree_nodes"] += tree
                        layer_count["extraction.term_dag_nodes"] += dag
                    record["traced_status"] = t_status
                    if status == t_status == "ok" and workload.verdict(outcome) != workload.verdict(t_outcome):
                        wrong.append(f"{q.label}: traced verdict differs from untraced verdict")
                records.append(record)
            else:
                rounds += 1
                if max_queries is not None:
                    if len(records) < max_queries:
                        continue
                elif busy + busy / rounds <= seconds:
                    continue
            break
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return {
        "records": records,
        "wrong": wrong,
        "rounds": rounds,
        "busy": busy,
        "layer_time": layer_time,
        "layer_count": layer_count,
        "traced_seconds": traced_seconds,
        "host_speed": speed.host_speed(),
    }


# per-layer metric -> span names whose self time it sums
SELF_TIME_METRICS = {
    "bench.client_ms": ("query",),
    "cli.main_ms": ("cli.main",),
    "documents.read_ms": ("documents.read",),
    "documents.write_ms": ("documents.write",),
    "instances.parse_regex_ms": ("instances.parse_regex",),
    "instances.regex_to_det_ms": ("instances.regex_to_det",),
    "typecheck.typecheck_ms": ("typecheck.typecheck",),
    "derivative.delta_ms": ("derivative.delta",),
    "expr.term_key_ms": ("expr.term_key",),
    "synthesis.synthesize_ms": ("synthesis.synthesize",),
    "synthesis.normal_form_ms": ("synthesis.acie_normal_form",),
    "equivalence.equiv_ms": ("equivalence.equiv",),
    "equivalence.bisim_ms": ("equivalence.bisimilar", "equivalence.greatest_bisimulation"),
    "equivalence.minimize_ms": ("equivalence.minimize",),
    "extraction.extract_ms": ("extraction.extract",),
}

# per-layer metric -> call or result counter
COUNT_METRICS = {
    "derivative.delta_calls": "derivative.delta",
    "expr.term_key_calls": "expr.term_key",
    "synthesis.synthesize_calls": "synthesis.synthesize",
    "synthesis.states": "synthesis.states",
    "synthesis.normal_form_calls": "synthesis.acie_normal_form",
    "equivalence.pair_checks": "equivalence.pair_checks",
    "equivalence.relation_pairs": "equivalence.relation_pairs",
    "equivalence.states_after_min": "equivalence.states_after_min",
    "extraction.extract_calls": "extraction.extract",
    "extraction.term_tree_nodes": "extraction.term_tree_nodes",
    "extraction.term_dag_nodes": "extraction.term_dag_nodes",
}


def end_to_end(result: dict, limit: float, p: float) -> tuple[dict, list[str]]:
    records = result["records"]
    n = len(records)
    decided = sum(r["status"] == "ok" for r in records)
    # an undecided query misses the latency limit whatever its own time
    latency = [r["seconds"] if r["status"] == "ok" else max(r["seconds"], limit) for r in records]
    metrics = {
        "verdict_p50_ms": (percentile(latency, 50) * 1000, "ms"),
        "verdict_tail_ms": (percentile(latency, p) * 1000, "ms"),
        "queries_per_s": (decided / sum(r["seconds"] for r in records), "1/s"),
        "decided_share": (decided / n, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    beyond = sum(1 for x in latency if x > percentile(latency, p))
    undecided = n - decided
    short = "" if beyond - undecided >= 10 else "; fewer than 10 of them decided"
    wall_p50 = percentile([r["wall_seconds"] for r in records], 50) * 1000
    notes = [
        f"verdict_tail_ms is p{p:g} ({beyond} of {n} samples beyond it, {undecided} of them undecided{short})",
        f"samples: {n} queries in {result['rounds']} rounds, {result['busy']:.2f} s measured",
        f"host speed {result['host_speed']:.3f} of the reference; wall-clock verdict p50 {wall_p50:.4f} ms",
    ]
    return metrics, notes


def per_layer(result: dict) -> dict:
    n = max(len(result["records"]), 1)
    layer_time, layer_count = result["layer_time"], result["layer_count"]
    metrics = {}
    for metric, spans in SELF_TIME_METRICS.items():
        metrics[metric] = (sum(layer_time.get(s, 0.0) for s in spans) * 1000 / n, "ms")
    for metric, counter in COUNT_METRICS.items():
        metrics[metric] = (layer_count.get(counter, 0) / n, "count")
    traced = sum(result["traced_seconds"]) * 1000 / n
    untraced = sum(r["seconds"] for r in result["records"]) * 1000 / n
    metrics["trace.query_ms"] = (traced, "ms")
    metrics["trace.untraced_ms"] = (untraced, "ms")
    metrics["trace.overhead_ms"] = (traced - untraced, "ms")
    metrics["bench.host_speed"] = (result["host_speed"], "ratio")
    return metrics


def measure(name: str, design: dict, seed: int, seconds: float, trace: bool) -> dict:
    """Set up and run one workload, print its report, return its result line."""
    from perfbench import workloads
    from perfbench.speed import Speed, import_seconds

    spec = design["workloads"][name]
    speed = Speed(design["calibration"]["reference_s"])
    work_root = HERE / ".work"
    work_root.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=work_root)
    try:
        workload = workloads.make(name, design, workdir)
        setup_seconds, kernel_seconds = [], []
        for _ in range(design["setup_repeats"]):
            kernel_seconds.append(import_seconds())
            purge_library()
            start = perf_counter()
            lib = workloads.load_library()
            ctx = workload.setup(lib)
            setup_seconds.append(perf_counter() - start)
        gc.collect()  # drop the discarded imports before anything is timed
        result = run(workload, seed, seconds, spec["limit_s"], trace, lib, ctx, speed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass

    records = result["records"]
    statuses = [r["status"] for r in records]
    e2e, notes = end_to_end(result, spec["limit_s"], spec["tail_percentile"])
    setup_wall = statistics.median(setup_seconds)
    setup_factor = design["calibration"]["import_reference_s"] / statistics.median(kernel_seconds)
    e2e["setup_s"] = (setup_wall * setup_factor, "s")
    notes.append(f"set-up: wall-clock median {setup_wall:.4f} s, import speed {setup_factor:.3f} of the reference")
    n = len(records)
    samples = {"queries_per_s": statuses.count("ok"), "peak_rss_mb": 1, "setup_s": len(setup_seconds)}
    print(f"workload {name}, seed {seed}, closed loop, 1 client, "
          f"per-query limit {spec['limit_s']} reference s")
    print(f"attempted {n}, decided {statuses.count('ok')}, "
          f"timed out {statuses.count('timeout')}, errored {statuses.count('error')}")
    for note in notes:
        print(note)
    for metric, (value, unit) in e2e.items():
        print(f"  {metric:<16} {value:12.4f} {unit:<6} samples {samples.get(metric, n)}")
    for r in records:
        if r["status"] == "error":
            print(f"errored: {r['label']}: {r['error']}")
    chosen = e2e
    if trace:
        chosen = per_layer(result)
        print(f"per-layer means over {n} traced queries:")
        for metric, (value, unit) in chosen.items():
            print(f"  {metric:<30} {value:14.4f} {unit}")
    for message in result["wrong"]:
        print(f"WRONG: {message}")
    return {
        "correct": not result["wrong"],
        "attempted": n,
        "failed": statuses.count("error"),
        "metrics": {metric: {"value": value, "unit": unit} for metric, (value, unit) in chosen.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "coalgex" / "__init__.py").is_file():
        print(f"error: no coalgex sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    with open(HERE / "design.json", encoding="utf-8") as handle:
        design = json.load(handle)
    names = list(design["workloads"]) if args.workload == "all" else [args.workload]
    for name in names:
        if name not in design["workloads"]:
            print(f"error: unknown workload {name!r}", file=sys.stderr)
            return 2

    if len(names) == 1:
        line = measure(names[0], design, args.seed, args.seconds, bool(args.trace))
    else:
        # one process per workload, so each reports its own peak memory
        results = {}
        for name in names:
            child = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                capture_output=True, text=True, check=False,
            )
            sys.stdout.write(child.stdout)
            sys.stderr.write(child.stderr)
            if not child.stdout.strip():
                return child.returncode or 2
            results[name] = json.loads(child.stdout.strip().splitlines()[-1])
        line = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": value
                        for name, r in results.items() for metric, value in r["metrics"].items()},
        }
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
