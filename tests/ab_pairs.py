"""Alternated parent and change runs of the benchmark, and their verdict.

    python3 tests/ab_pairs.py PARENT_DIR CHANGE_DIR --workload W --seed S --pairs N

PARENT_DIR and CHANGE_DIR are two checkouts of the repository. Each pair
runs the benchmark command of BENCHMARK.json with `--trace 0` for the
benchmark's run_seconds once in each checkout, with
PYTHONDONTWRITEBYTECODE=1; the parent runs first in the first pair and the
side that runs first switches every pair. One line per run is printed as it
ends, from the last line of its output, its JSON result.

Then each side's failed operations, summed over its runs, and per
end-to-end metric of CHANGE_DIR's BENCHMARK.json (only read): each side's
median and quartiles, the pairs the change wins (ties count for neither
side), and a verdict. It is a gain when there are at least ten pairs, the
change wins at least nine tenths of them, its median is better than the parent's by more than
the distance between the parent's quartiles, and its runs failed no more
operations than the parent's; a regression when its median is worse than
the parent's by more than the metric's bound, a fraction of the parent's
median; unresolved when the distance between the parent's quartiles is
wider than that bound, unless every run of the change reads better than
every run of the parent; otherwise flat.

Exits 1, naming the side and the pair, when a run fails or its last line
is not a result. Not collected by pytest; tests/test_ab_pairs.py covers the
summary.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

GAIN_SHARE = 0.9  # a gain needs the change to win this share of the pairs
GAIN_PAIRS = 10  # and at least this many pairs


class RunFailed(Exception):
    pass


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), inclusive method."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def verdict(
    parent: list[float], change: list[float], better: str, bound: float, more_failed: bool = False
) -> tuple[int, str]:
    """The change's wins over the pairs and the verdict on one metric;
    more_failed says the change's runs failed more operations."""
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    p1, p_med, p3 = quartiles(parent)
    c_med = quartiles(change)[1]
    gain = sign * (c_med - p_med)
    if len(parent) >= GAIN_PAIRS and wins >= GAIN_SHARE * len(parent) and gain > p3 - p1 and not more_failed:
        return wins, "gain"
    if -gain > bound * abs(p_med):
        return wins, "regression"
    apart = min(sign * c for c in change) > max(sign * p for p in parent)
    if p3 - p1 > bound * abs(p_med) and not apart:
        return wins, "unresolved"
    return wins, "flat"


def summary(parent: list[dict], change: list[dict], end_to_end: list[dict]) -> list[str]:
    """The failed operations of each side, then one line per end-to-end
    metric, from the runs' values in pair order: medians, quartiles, wins
    and the verdict."""
    p_failed, c_failed = sum(run["failed"] for run in parent), sum(run["failed"] for run in change)
    lines = ["failed operations  parent %d  change %d" % (p_failed, c_failed)]
    for spec in end_to_end:
        name = spec["name"]
        p = [run[name] for run in parent]
        c = [run[name] for run in change]
        wins, word = verdict(p, c, spec["better"], spec["bound"], c_failed > p_failed)
        (p1, pm, p3), (c1, cm, c3) = quartiles(p), quartiles(c)
        lines.append(
            "%-20s parent %.6g [%.6g, %.6g]  change %.6g [%.6g, %.6g]  change wins %d of %d  %s"
            % (name, pm, p1, p3, cm, c1, c3, wins, len(p), word)
        )
    return lines


def run_once(checkout: Path, command: list[str], names: list[str], workload: str, seed: int, seconds: float) -> dict:
    """The values of the named metrics and the failed operations ("failed")
    from one --trace 0 run in a checkout."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    argv = command + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0:
        raise RunFailed("exit status %d: %s" % (proc.returncode, proc.stderr.strip()[-300:]))
    try:
        result = json.loads(lines[-1])
        return {"failed": int(result["failed"]), **{name: float(result["metrics"][name]["value"]) for name in names}}
    except (IndexError, ValueError, KeyError, TypeError):
        raise RunFailed("last line is not a result: %r" % (lines[-1][:200] if lines else "")) from None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    args = parser.parse_args(argv)
    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    sides = {"parent": args.parent, "change": args.change}
    results: dict[str, list[dict]] = {"parent": [], "change": []}
    shown = [spec["name"] for spec in bench["end_to_end"]]
    for pair in range(1, args.pairs + 1):
        order = ("parent", "change") if pair % 2 else ("change", "parent")
        for side in order:
            try:
                values = run_once(sides[side], bench["command"], shown, args.workload, args.seed, bench["run_seconds"])
            except RunFailed as exc:
                print("error: %s run of pair %d failed: %s" % (side, pair, exc), file=sys.stderr)
                return 1
            results[side].append(values)
            shows = " ".join("%s=%.6g" % (n, values[n]) for n in ["failed", *shown])
            print("pair %d %-6s %s" % (pair, side, shows), flush=True)
    for line in summary(results["parent"], results["change"], bench["end_to_end"]):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
