"""Command line front end.

Instance files are plain text: line 1 holds the letter costs, line 2 the word
weights (not necessarily sorted), and an optional line 3 the alphabet glyphs,
one distinct glyph per letter (default a, b, c, ... assigned to letters in
increasing cost order; more than 26 letters need the line). Numbers may be
integers, decimals, or fractions like 2/3.

Exit codes: 0 success; 1 a usage, parse or validation failure, with a
one-line message; 2 guess budget exceeded; 3 a failed check: `verify` found
the ratio to the optimum outside [1, bound], or `graph-stats` found the cost
graph over its size bounds.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from fractions import Fraction

from .core import GLYPHS, Instance, InstanceError, LetterCosts, normalize, runs_to_str
from .cost_graph import build_cost_graph
from .driver import (
    C_TOTAL,
    DEFAULT_BUDGET,
    BudgetExceeded,
    CodeReport,
    choose_k,
    group_words,
    solve,
)
from .oracles import exact_optimal


class ParseError(ValueError):
    def __init__(self, line: int, column: int, message: str):
        self.line = line
        self.column = column
        super().__init__("line %d, column %d: %s" % (line, column, message))


@dataclass
class LoadedInstance:
    instance: Instance
    order: list[int]  # order[i] = input position of sorted word i
    glyphs: str  # glyph per sorted letter
    raw_weights: list[int | Fraction]


def _parse_numbers(text: str, line_no: int) -> list[int | Fraction]:
    """The numbers on one line: ints for plain ASCII digit strings, the usual
    case, and Fractions for every other number Fraction() accepts."""
    values: list[int | Fraction] = []
    col = 1
    for token in text.split():
        col = text.index(token, col - 1) + 1
        if token.isascii() and token.isdigit():
            values.append(int(token))
        else:
            try:
                values.append(Fraction(token))
            except (ValueError, ZeroDivisionError):
                raise ParseError(line_no, col, "cannot parse %r as a number" % token)
        col += len(token)
    return values


def load_instance(path: str, epsilon: Fraction) -> LoadedInstance:
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise ParseError(0, 0, str(exc))
    lines = [ln for ln in lines if ln.strip() and not ln.lstrip().startswith("#")]
    if len(lines) < 2:
        raise ParseError(1, 1, "need a letter-cost line and a weight line")
    costs = _parse_numbers(lines[0], 1)
    weights = _parse_numbers(lines[1], 2)
    if not costs:
        raise ParseError(1, 1, "no letter costs")
    if not weights:
        raise ParseError(2, 1, "no word weights")
    if len(lines) >= 3:
        glyphs = "".join(lines[2].split())
        if len(glyphs) != len(costs):
            raise ParseError(3, 1, "expected %d glyphs" % len(costs))
        for i, glyph in enumerate(glyphs):
            if glyph in glyphs[:i]:
                col = lines[2].index(glyph, lines[2].index(glyph) + 1) + 1
                raise ParseError(3, col, "glyph %r repeats; the code would not decode" % glyph)
    elif len(costs) > len(GLYPHS):
        raise ParseError(
            3, 1, "%d letters need a glyph line; there are %d default glyphs" % (len(costs), len(GLYPHS))
        )
    else:
        glyphs = GLYPHS[: len(costs)]
    letter_order = sorted(range(len(costs)), key=lambda i: (costs[i], i))
    sorted_costs = [costs[i] for i in letter_order]
    sorted_glyphs = "".join(glyphs[i] for i in letter_order)
    try:
        letters = LetterCosts(sorted_costs)
    except InstanceError as exc:
        raise ParseError(1, 1, str(exc))
    try:
        instance, order = Instance.from_weights(weights, letters, epsilon)
    except InstanceError as exc:
        raise ParseError(2, 1, str(exc))
    return LoadedInstance(instance, order, sorted_glyphs, weights)


def fmt(x) -> str:
    f = Fraction(x)
    if f.denominator == 1:
        return str(f.numerator)
    return "%s (%.6g)" % (f, float(f))


def _sorted_positions(loaded: LoadedInstance) -> list[int]:
    """The sorted position of each word, in input order."""
    inverse = [0] * len(loaded.order)
    for sorted_i, input_i in enumerate(loaded.order):
        inverse[input_i] = sorted_i
    return inverse


def _emit_code(loaded: LoadedInstance, report: CodeReport, emit: str) -> None:
    costs = report.code.costs()
    rows = []
    for input_i, si in enumerate(_sorted_positions(loaded)):
        runs = report.code.codewords[si]
        cost = costs[si]
        rows.append(
            (
                str(input_i + 1),
                str(Fraction(loaded.raw_weights[input_i])),
                runs_to_str(runs, loaded.glyphs),
                fmt(cost),
            )
        )
    if emit == "tsv":
        print("word\tweight\tcodeword\tcost")
        for row in rows:
            print("\t".join(row))
        print("# total_cost\t%s" % fmt(report.total_cost))
        print("# lower_bound\t%s" % fmt(report.lower_bound))
        print("# guesses\t%d" % report.guess_count)
    else:
        header = ("word", "weight", "codeword", "cost")
        widths = [max(len(r[i]) for r in rows + [header]) for i in range(4)]
        line = "  ".join(h.ljust(w) for h, w in zip(header, widths))
        print(line)
        print("-" * len(line))
        for row in rows:
            print("  ".join(v.ljust(w) for v, w in zip(row, widths)))
        print()
        print("total cost (input scale): %s" % fmt(report.total_cost))
        print("normalized cost:          %s" % fmt(report.normalized_cost))
        print("lower bound (input scale): %s" % fmt(report.lower_bound))
        print("certified ratio bound:    %s" % fmt(report.ratio_bound_used))
        print("guesses evaluated:        %d" % report.guess_count)
        if report.k is not None:
            print("k: %s   epsilon': %s" % (fmt(report.k), fmt(report.epsilon_prime)))
    print("elapsed: %.3fs" % report.elapsed, file=sys.stderr)


def cmd_solve(args) -> int:
    loaded = load_instance(args.path, args.epsilon)
    report = solve(loaded.instance, budget=args.budget)
    _emit_code(loaded, report, args.emit)
    return 0


def cmd_exact(args) -> int:
    loaded = load_instance(args.path, Fraction(1))
    result = exact_optimal(loaded.instance)
    costs = result.optimal_code.costs()
    for input_i, si in enumerate(_sorted_positions(loaded)):
        print(
            "%d\t%s\t%s"
            % (
                input_i + 1,
                runs_to_str(result.optimal_code.codewords[si], loaded.glyphs),
                fmt(costs[si]),
            )
        )
    print("optimal cost (input scale): %s" % fmt(result.optimal_cost))
    return 0


def cmd_verify(args) -> int:
    loaded = load_instance(args.path, args.epsilon)
    report = solve(loaded.instance, budget=args.budget)
    exact = exact_optimal(loaded.instance)
    ratio = Fraction(report.total_cost, exact.optimal_cost)
    bound = 1 + C_TOTAL * loaded.instance.epsilon
    print("solver cost:  %s" % fmt(report.total_cost))
    print("optimal cost: %s" % fmt(exact.optimal_cost))
    print("ratio: %s" % fmt(ratio))
    print("bound: %s" % fmt(bound))
    if ratio > bound or ratio < 1:
        print("FAIL: ratio outside [1, bound]")
        return 3
    print("PASS")
    return 0


def cmd_graph_stats(args) -> int:
    loaded = load_instance(args.path, args.epsilon)
    norm = normalize(loaded.instance)
    k = choose_k(norm.epsilon_prime)
    graph = build_cost_graph(norm, k)
    grouping = group_words(norm, k)
    n = loaded.instance.n
    d = len(norm.distinct_q)
    node_bound = n * k / norm.epsilon_prime
    print("n: %d  d: %d" % (n, d))
    print("k: %s  epsilon': %s  quantum: %s" % (fmt(k), fmt(norm.epsilon_prime), fmt(norm.cost_quantum)))
    print("levels: %d" % graph.level_count)
    print("nodes: %d (bound %s)" % (graph.node_count, fmt(node_bound)))
    print("arcs: %d (bound %d)" % (graph.arc_count, d * graph.node_count))
    print("groups: %d (bound %s)" % (grouping.group_count, fmt(1 + 4 * k / norm.epsilon_prime**2)))
    ok = graph.node_count <= node_bound and graph.arc_count <= d * graph.node_count
    print("PASS" if ok else "FAIL")
    return 0 if ok else 3


def _epsilon(value: str) -> Fraction:
    eps = Fraction(value)
    if not 0 < eps <= 1:
        raise argparse.ArgumentTypeError("epsilon must lie in (0, 1]")
    return eps


class _Parser(argparse.ArgumentParser):
    """Reports a usage error on one line and exits 1, as for a bad file;
    argparse's own exit code 2 means an exhausted budget here."""

    def error(self, message):
        self.exit(1, "%s: error: %s (see %s -h)\n" % (self.prog, message, self.prog))


def main(argv=None) -> int:
    parser = _Parser(
        prog="lettercost",
        description="Near-optimal prefix codes for alphabets with unequal letter costs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="build a near-optimal prefix code")
    p.add_argument("path")
    p.add_argument("--epsilon", type=_epsilon, default=Fraction(1, 4))
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--emit", choices=("table", "tsv"), default="table")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("exact", help="exact optimum by a signature search (n <= 10)")
    p.add_argument("path")
    p.set_defaults(func=cmd_exact)

    p = sub.add_parser("verify", help="solve and compare against the exact optimum")
    p.add_argument("path")
    p.add_argument("--epsilon", type=_epsilon, default=Fraction(1, 4))
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("graph-stats", help="cost graph size against its bounds")
    p.add_argument("path")
    p.add_argument("--epsilon", type=_epsilon, default=Fraction(1, 4))
    p.set_defaults(func=cmd_graph_stats)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, InstanceError, BudgetExceeded) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2 if isinstance(exc, BudgetExceeded) else 1


if __name__ == "__main__":
    sys.exit(main())
