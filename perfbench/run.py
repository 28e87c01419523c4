"""End-to-end benchmark of the lettercost solver.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from any directory; the library is imported from the src/ directory next
to this one, never from an installed copy. One client drives the library in
a closed loop: each call (solve with the library defaults, plus the exact
optimum on `verify`) starts when the previous one has returned. The seed
fixes the instances; workloads.py says how.

--trace 0 measures end-to-end metrics. The first pass over the instance list
always completes; further passes run until S seconds have gone, so every
instance is timed at least once and its latency is the median of its
calls. Each call is bracketed by probes of a fixed reference workload and
its wall time is scaled to the reference host's speed (speed.py), because
the host's own speed drifts by up to 1.5x within a run. An operation is one
instance: its first call is fully checked and every later call must
reproduce it exactly. Quality and failure metrics are per instance, hence
the same on every run of one seed.

--trace 1 makes one pass with spans around public calls and replays each
solve stage by stage (replay.py), for the per-layer metrics; the spans are
written to .perfbench_out/spans-WORKLOAD-SEED.json. Span times are raw wall
time.

Every output is checked (check.py) outside the timed calls. An instance
whose call raises or whose output fails a check is a failed operation. The
last line of output is one JSON object: correct, attempted, failed and the
metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

import check  # noqa: E402  (this directory is on sys.path as the script's own)
import speed  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 5
VISIT_SECONDS = 0.2  # a visit to an instance repeats calls up to this long
VISIT_CALLS = 5  # or this many calls
TAIL_BEYOND = 10  # the tail is the highest percentile with this many instances above it

END_TO_END = {
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "throughput_words_s": "1/s",
    "success_rate": "ratio",
    "cost_over_lb_mean": "ratio",
    "cost_over_opt_max": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Per-layer metrics: mean per traced instance, except cli.load_instance_s
# (total over the workload's files) and bench.trace_overhead (percent).
PER_LAYER = {
    "driver.solve_s": "s",
    "driver.search_s": "s",
    "driver.search_explored": "count",
    "driver.search_leaves": "count",
    "driver.search_leaf_fraction": "ratio",
    "cost_graph.build_s": "s",
    "cost_graph.nodes": "count",
    "cost_graph.arcs": "count",
    "core.normalize_s": "s",
    "driver.group_words_s": "s",
    "driver.groups": "count",
    "kprefix.construct_s": "s",
    "kprefix.ops": "count",
    "kprefix.materialize_s": "s",
    "convert.convert_s": "s",
    "convert.rewritten": "count",
    "core.reorder_s": "s",
    "core.costs_s": "s",
    "driver.tiny_s": "s",
    "driver.tiny_candidates": "count",
    "core.is_prefix_free_s": "s",
    "core.is_prefix_free_failed": "count",
    "oracles.exact_s": "s",
    "oracles.exact_nodes": "count",
    "cli.load_instance_s": "s",
    "bench.trace_overhead": "%",
}

# failure types broken out in the error summary; other exceptions by name
FAILURE_TYPES = ("RecursionError", "BudgetExceeded", "wrong_output")


class Item:
    """One instance of the run: its spec, the loaded instance, and the
    verdict and result fingerprint of its first (fully checked) operation."""

    def __init__(self, spec: workloads.Spec, instance):
        self.spec = spec
        self.instance = instance
        self.latencies: list[float] = []  # scaled to the reference host
        self.raw: list[float] = []  # wall time
        self.failure: str | None = None
        self.fingerprint = None
        self.cost_over_lb: Fraction | None = None
        self.cost_over_ref: Fraction | None = None


def judge(item: Item, workload: str, report, exact) -> str | None:
    """Check one output from scratch; record its quality ratios. Returns the
    failure reason, or None."""
    from lettercost import C_TOTAL

    spec = item.spec
    bad = check.check_code(
        report.code.codewords, spec.costs, spec.weights, report.total_cost, report.lower_bound
    )
    if bad is None and exact is not None:
        bad = check.check_ratio(
            report.total_cost,
            exact.optimal_code.codewords,
            exact.optimal_cost,
            spec.costs,
            spec.weights,
            1 + C_TOTAL * spec.epsilon,
        )
    if bad is None:
        item.cost_over_lb = report.total_cost / report.lower_bound
        # against the exact optimum where the workload computes it; elsewhere
        # the lower bound, which never exceeds the optimum
        ref = exact.optimal_cost if exact is not None else report.lower_bound
        item.cost_over_ref = report.total_cost / ref
    return bad


def fingerprint(report, exact):
    return (
        report.code.codewords,
        report.total_cost,
        report.lower_bound,
        exact.optimal_cost if exact is not None else None,
    )


def attempt(workload: str, item: Item) -> tuple[float, object, str | None]:
    """Time one closed-loop call: solve with the library defaults, and on
    verify also the exact optimum. Returns (seconds, (report, oracle result
    or None) or None, failure type or None)."""
    from lettercost import BudgetExceeded, exact_optimal, solve

    instance = item.instance
    start = time.perf_counter()
    try:
        report = solve(instance)
        out = (report, exact_optimal(instance) if workload == "verify" else None)
        failure = None
    except (RecursionError, BudgetExceeded) as exc:
        out, failure = None, type(exc).__name__
    except Exception as exc:  # the loop must go on; the failure is counted by type
        out, failure = None, type(exc).__name__
        print("operation failed: %r" % exc, file=sys.stderr)
    return time.perf_counter() - start, out, failure


def record(workload: str, item: Item, out, failure: str | None) -> None:
    """Check one call. The first call on an instance is fully checked and
    sets its verdict; a later call that does not reproduce it exactly turns
    the verdict into wrong_output."""
    fp = fingerprint(*out) if out is not None else ("raised", failure)
    if item.fingerprint is None:
        if out is not None:
            reason = judge(item, workload, *out)
            if reason is not None:
                print("wrong output: %s" % reason, file=sys.stderr)
                failure = "wrong_output"
        item.fingerprint, item.failure = fp, failure
    elif fp != item.fingerprint:
        print("call did not reproduce the first output", file=sys.stderr)
        item.failure = "wrong_output"


def verdict(items: list[Item]) -> dict:
    """correct, attempted and failed over the distinct instances."""
    return {
        "correct": all(it.failure != "wrong_output" for it in items),
        "attempted": len(items),
        "failed": sum(it.failure is not None for it in items),
    }


def measure(workload: str, items: list[Item], seconds: float) -> dict:
    """Closed loop over the instance list until one full pass is done and
    `seconds` have gone. Each visit to an instance calls it back to back
    until VISIT_SECONDS have gone or VISIT_CALLS calls are made, so a cheap
    instance is timed as many times as its latency's noise needs. A
    reference probe runs before the first call and after every call, so
    every call lies between two."""
    calls = []  # (item, wall seconds)
    probes = [speed.probe()]
    start = time.perf_counter()
    visits = 0
    while visits < len(items) or time.perf_counter() - start < seconds:
        item = items[visits % len(items)]
        spent = 0.0
        for _ in range(VISIT_CALLS):
            took, out, failure = attempt(workload, item)
            probes.append(speed.probe())
            calls.append((item, took))
            record(workload, item, out, failure)
            spent += took
            if spent >= VISIT_SECONDS:
                break
        visits += 1
    elapsed = time.perf_counter() - start
    for k, (item, took) in enumerate(calls):
        item.raw.append(took)
        item.latencies.append(speed.scaled(took, probes[k], probes[k + 1]))

    per_instance = sorted(statistics.median(it.latencies) for it in items)
    n = len(per_instance)
    tail_index = n - TAIL_BEYOND - 1 if n > TAIL_BEYOND else n - 1
    ok = [it for it in items if it.failure is None]
    metrics = {
        "latency_p50_s": statistics.median(per_instance),
        "latency_tail_s": per_instance[tail_index],
        "throughput_words_s": sum(it.spec.n for it in ok) / sum(per_instance),
        "success_rate": len(ok) / n,
        "cost_over_lb_mean": float(sum(it.cost_over_lb for it in ok) / len(ok)) if ok else 0.0,
        "cost_over_opt_max": float(max(it.cost_over_ref for it in ok)) if ok else 0.0,
    }
    info = {
        "tail_percentile": 100.0 * (tail_index + 1) / n,
        "calls": len(calls),
        "elapsed": elapsed,
        "raw_p50": statistics.median(statistics.median(it.raw) for it in items),
        "probe_p50": statistics.median(probes),
    }
    return dict(verdict(items), metrics=metrics, info=info)


def trace(workload: str, items: list[Item], tracer) -> dict:
    """One pass with spans and stage replays. Each instance is also solved
    once without a span, for the overhead; which of the two calls goes first
    is a fixed coin flip per instance, so it cannot follow the grid."""
    import replay
    from lettercost import exact_optimal, solve

    bare_total = traced_total = 0.0
    for req, item in enumerate(items):
        instance = item.instance

        def bare() -> float:
            start = time.perf_counter()
            try:
                kept = solve(instance)  # freed after the clock stops, as in the traced call
            except Exception:  # the same failure is recorded by the traced call
                kept = None
            took = time.perf_counter() - start
            del kept
            return took

        bare_first = random.Random(req).random() < 0.5
        if bare_first:
            bare_total += bare()
        report, failure = None, None
        with tracer.span(req, "driver.solve") as rec:
            try:
                report = solve(instance)
            except Exception as exc:  # counted by type, like the untraced loop
                failure = type(exc).__name__
        traced_total += rec["end"] - rec["start"]
        if not bare_first:
            bare_total += bare()

        exact = None
        if report is not None and workload == "verify":
            with tracer.span(req, "oracles.exact"):
                exact = exact_optimal(instance)
            tracer.count(req, "oracles.exact_nodes", exact.nodes_explored)

        if report is not None and report.mode == "main":
            replay.replay_main(tracer, req, instance, report)
        elif report is not None and report.mode == "tiny":
            replay.replay_tiny(tracer, req, instance, report)
        elif failure == "RecursionError" and workload == "tiny":
            replay.replay_tiny(tracer, req, instance, None)

        record(workload, item, (report, exact) if report is not None else None, failure)

    metrics = dict.fromkeys(PER_LAYER, 0.0)
    for req in range(len(items)):
        spans = tracer.durations(req)
        solve_s = spans.get("driver.solve", 0.0)
        per = {"driver.solve_s": solve_s}
        if "kprefix.construct" in spans:
            per["driver.search_s"] = solve_s - sum(spans.get(s, 0.0) for s in replay.MAIN_STAGES)
        for name, secs in spans.items():
            key = name + "_s"
            if key in PER_LAYER and key not in per:
                per[key] = secs
        per.update(tracer.counts.get(req, {}))
        for key, value in per.items():
            if key in metrics:
                metrics[key] += value / len(items)
    metrics["cli.load_instance_s"] = sum(
        rec["end"] - rec["start"] for rec in tracer.spans if rec["name"] == "cli.load_instance"
    )
    metrics["bench.trace_overhead"] = 100.0 * (traced_total - bare_total) / bare_total
    return dict(verdict(items), metrics=metrics, info={})


def setup_time(manifest: str) -> float:
    """Median over fresh interpreters of import plus loading every file,
    scaled to the reference host."""
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC), manifest],
            capture_output=True,
            text=True,
            timeout=150,
            check=True,
        )
        samples.append(float(proc.stdout.split()[-1]))
    return statistics.median(samples)


def run(workload: str, seed: int, seconds: float, traced: bool, specs=None) -> dict:
    """Generate, set up, run one workload; returns the result object plus an
    "info" dict for the human-readable summary. `specs` overrides the
    generated list (the benchmark's own tests pass a few small instances)."""
    if specs is None:
        specs = workloads.generate(workload, seed)
    scratch = ROOT / ".perfbench_tmp" / ("%s-%d-%d" % (workload, seed, os.getpid()))
    try:
        paths = workloads.write_instances(specs, str(scratch))
        if not traced:
            setup_s = setup_time(str(scratch / "manifest.json"))

        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        import replay
        from lettercost.cli import load_instance

        tracer = replay.Tracer()
        items = []
        for req, (path, spec) in enumerate(zip(paths, specs)):
            with tracer.span(req, "cli.load_instance"):
                loaded = load_instance(path, spec.epsilon)
            items.append(Item(spec, loaded.instance))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass  # another run is using it

    if traced:
        result = trace(workload, items, tracer)
        result["info"]["tracer"] = tracer
    else:
        result = measure(workload, items, seconds)
        result["metrics"]["setup_s"] = setup_s
        result["metrics"]["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["info"]["instances"] = len(items)
    result["info"]["errors"] = Counter(it.failure for it in items if it.failure is not None)
    return result


def summary(workload: str, seed: int, result: dict, traced: bool) -> list[str]:
    info = result["info"]
    units = PER_LAYER if traced else END_TO_END
    lines = ["workload %s, seed %d: %s" % (workload, seed, workloads.WHY[workload])]
    if traced:
        lines.append("  traced pass over %d instances" % info["instances"])
    else:
        lines.append(
            "  %d instances, %d calls (%.2f per instance) in %.1f s, 1 client, closed loop"
            % (info["instances"], info["calls"], info["calls"] / info["instances"], info["elapsed"])
        )
        lines.append(
            "  times scaled to the reference host: reference probe median %.3g ms here (%.3g ms there),"
            " unscaled latency_p50 %.6g s"
            % (1e3 * info["probe_p50"], 1e3 * speed.REFERENCE_S, info["raw_p50"])
        )
    for name, value in result["metrics"].items():
        line = "  %-28s %.6g %s" % (name, value, units[name])
        if name == "latency_tail_s":
            line += "  (p%.1f over %d instances)" % (info["tail_percentile"], info["instances"])
        lines.append(line)
    errors = info["errors"]
    parts = ["%s %d" % (kind, errors.get(kind, 0)) for kind in FAILURE_TYPES]
    parts += ["%s %d" % (kind, cnt) for kind, cnt in sorted(errors.items()) if kind not in FAILURE_TYPES]
    lines.append(
        "  error_rate %.6g of %d instances: %s"
        % (sum(errors.values()) / info["instances"], info["instances"], ", ".join(parts))
    )
    return lines


def result_line(result: dict, traced: bool) -> str:
    """The JSON object the benchmark ends its output with."""
    units = PER_LAYER if traced else END_TO_END
    metrics = {k: {"value": v, "unit": units[k]} for k, v in result["metrics"].items()}
    return json.dumps(
        {
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": metrics,
        }
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "lettercost" / "__init__.py").is_file():
        print("error: no lettercost sources at %s" % SRC, file=sys.stderr)
        return 2

    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    if args.trace:
        tracer = result["info"]["tracer"]
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        with open(out_dir / ("spans-%s-%d.json" % (args.workload, args.seed)), "w") as fh:
            json.dump({"spans": tracer.spans, "counts": tracer.counts}, fh)
    for line in summary(args.workload, args.seed, result, bool(args.trace)):
        print(line)
    print(result_line(result, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
