"""Fingerprint solve's outputs on the benchmark workloads, to diff a refactor.

    PYTHONPATH=src python tests/dump_outputs.py 3 8

For each seed and each workload of perfbench/workloads.py, every instance is
solved through the public API with the library defaults. One sha256 line per
workload and seed covers, per instance in run order, the codewords,
total_cost, lower_bound, kprefix_cost, mode, the cost graph's node and arc
counts, the group count, guess_count and explored, or the name of the
exception raised; the line also gives the explored total, the leaves total
(guess_count summed: the search's leaves, or on the tiny path the run
lengths priced), the exceptions raised, and a second sha256 ("results") over the same fields
without guess_count and explored, which stays put when a change moves only
the search's effort or the length of the tiny path's run-length ladder.
After each such line a "cli" line gives one sha256
over the stdout and exit code of `lettercost solve FILE --epsilon EPS --emit
tsv`, run in-process on each of the workload's instance files, and the name
of any exception that escaped, so a change to the loader or the printer can
be diffed the same way, and a second sha256 ("cli results") over the same
output without its "# guesses" line, which stays put when a change moves
only the search's effort. Run it before and after a change that must not
change results and diff the output. The file's name keeps pytest from
collecting it.
"""

from __future__ import annotations

import hashlib
import io
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402

from lettercost import Instance, LetterCosts, cli, solve  # noqa: E402


def outcome(spec: workloads.Spec) -> tuple[str, str, int, int, str | None]:
    """The instance's result as text, the same without the search's effort,
    the nodes its search explored, its guess_count, and the name of the
    exception it raised, if any."""
    instance, _ = Instance.from_weights(spec.weights, LetterCosts(spec.costs), spec.epsilon)
    try:
        rep = solve(instance)
    except Exception as exc:  # the exception's name is part of the output
        name = type(exc).__name__
        return "raised %s" % name, "raised %s" % name, 0, 0, name
    results = (
        rep.code.codewords,
        rep.total_cost,
        rep.lower_bound,
        rep.kprefix_cost,
        rep.mode,
        rep.graph_nodes,
        rep.graph_arcs,
        rep.group_count,
    )
    effort = (rep.guess_count, rep.explored)
    return repr(results + effort), repr(results), rep.explored, rep.guess_count, None


def dump(workload: str, seed: int) -> str:
    digest, results_digest = hashlib.sha256(), hashlib.sha256()
    explored = leaves = 0
    raised: list[str] = []
    specs = workloads.generate(workload, seed)
    for spec in specs:
        text, results, nodes, guesses, exc = outcome(spec)
        digest.update(text.encode() + b"\n")
        results_digest.update(results.encode() + b"\n")
        explored += nodes
        leaves += guesses
        if exc is not None:
            raised.append("%s at n=%d" % (exc, spec.n))
    return (
        "%s seed %d: %d instances, explored %d, leaves %d, raised [%s], sha256 %s,"
        " results sha256 %s"
    ) % (
        workload,
        seed,
        len(specs),
        explored,
        leaves,
        ", ".join(raised),
        digest.hexdigest(),
        results_digest.hexdigest(),
    )


def dump_cli(workload: str, seed: int) -> str:
    digest, results_digest = hashlib.sha256(), hashlib.sha256()
    raised: list[str] = []
    specs = workloads.generate(workload, seed)
    with tempfile.TemporaryDirectory() as scratch:
        paths = workloads.write_instances(specs, scratch)
        for path, spec in zip(paths, specs):
            argv = ["solve", path, "--epsilon", str(spec.epsilon), "--emit", "tsv"]
            out = io.StringIO()
            try:
                with redirect_stdout(out), redirect_stderr(io.StringIO()):
                    code = cli.main(argv)
            except Exception as exc:  # the exception's name is part of the output
                code = type(exc).__name__
                raised.append("%s at n=%d" % (code, spec.n))
            text = out.getvalue()
            results = "".join(
                line for line in text.splitlines(True) if not line.startswith("# guesses\t")
            )
            digest.update(b"%s\n%s\n" % (str(code).encode(), text.encode()))
            results_digest.update(b"%s\n%s\n" % (str(code).encode(), results.encode()))
    return "%s seed %d cli: %d files, raised [%s], sha256 %s, cli results sha256 %s" % (
        workload,
        seed,
        len(specs),
        ", ".join(raised),
        digest.hexdigest(),
        results_digest.hexdigest(),
    )


def main(argv: list[str]) -> int:
    seeds = [int(a) for a in argv] or [3, 8]
    for seed in seeds:
        for workload in workloads.GENERATORS:
            print(dump(workload, seed), flush=True)
            print(dump_cli(workload, seed), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
