"""Command line front end.

Instance files are plain text: line 1 holds the letter costs, line 2 the word
weights (not necessarily sorted), and an optional line 3 the alphabet glyphs,
one distinct glyph per letter in the order of the cost line (default a, b,
c, ... in that order; more than 26 letters need the line). Numbers may be
integers, decimals, or fractions like 2/3. Blank lines are skipped, but error
messages number lines as the file does, blank lines included; there are no
comment lines, so a line starting with # is data, and a fourth line is an
error. A line of plain ASCII digits is parsed in one pass; a line with any
other number form is parsed token by token, which also places any error.

Exit codes: 0 success; 1 a usage, parse or validation failure, with a
one-line message; 2 budget exceeded, by the search's nodes, the count
table's entries or bits (`graph-stats` charges the table at the default
budget), the tiny path's run-length ladder steps or the exact oracle's
settled states or kept signatures, or a MemoryError that escaped those
charges, with a one-line message; 3 a failed check: `verify` found the
ratio to the optimum outside [1, bound], or `graph-stats` found the cost
graph or the grouping over its size bounds.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from decimal import Context
from fractions import Fraction
from itertools import chain

from .core import GLYPHS, CodeAssignment, Instance, InstanceError, LetterCosts, _exact_text
from .driver import DEFAULT_BUDGET, BudgetExceeded, CodeReport, _setup, solve
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
    """The numbers on one line: ints for plain ASCII digit strings, and
    Fractions for every other number Fraction() accepts. A line of plain
    digits only, the usual weight line, is converted in one pass; any other
    line goes token by token, which places a bad token at its column."""
    tokens = text.split()
    digits = "".join(tokens)
    if digits.isascii() and digits.isdigit():
        try:
            return list(map(int, tokens))
        except ValueError:  # past int()'s digit limit; placed below
            pass
    values: list[int | Fraction] = []
    col = 1
    for token in tokens:
        col = text.index(token, col - 1) + 1
        try:
            if token.isascii() and token.isdigit():
                values.append(int(token))
            else:
                values.append(Fraction(token))
        except (ValueError, ZeroDivisionError):
            raise ParseError(line_no, col, "cannot parse %r as a number" % token)
        col += len(token)
    return values


def load_instance(path: str, epsilon: Fraction) -> LoadedInstance:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(0, 0, str(exc))
    # (line number in the file, text) of each line that is not blank
    lines = [(no, ln) for no, ln in enumerate(text.splitlines(), 1) if ln and not ln.isspace()]
    if len(lines) < 2:
        raise ParseError(1, 1, "need a letter-cost line and a weight line")
    (cost_no, cost_line), (weight_no, weight_line) = lines[:2]
    costs = _parse_numbers(cost_line, cost_no)
    weights = _parse_numbers(weight_line, weight_no)
    if len(lines) >= 3:
        glyph_no, glyph_line = lines[2]
        glyphs = "".join(glyph_line.split())
        if len(glyphs) != len(costs):
            raise ParseError(glyph_no, 1, "expected %d glyphs" % len(costs))
        for i, glyph in enumerate(glyphs):
            if glyph in glyphs[:i]:
                col = glyph_line.index(glyph, glyph_line.index(glyph) + 1) + 1
                message = "glyph %r repeats; the code would not decode" % glyph
                raise ParseError(glyph_no, col, message)
    elif len(costs) > len(GLYPHS):
        raise ParseError(
            weight_no + 1,
            1,
            "%d letters need a glyph line; there are %d default glyphs" % (len(costs), len(GLYPHS)),
        )
    else:
        glyphs = GLYPHS[: len(costs)]
    if len(lines) > 3:
        raise ParseError(lines[3][0], 1, "expected at most 3 lines: letter costs, weights, glyphs")
    letter_order = sorted(range(len(costs)), key=lambda i: (costs[i], i))
    sorted_costs = [costs[i] for i in letter_order]
    sorted_glyphs = "".join(glyphs[i] for i in letter_order)
    try:
        letters = LetterCosts(sorted_costs)
    except InstanceError as exc:
        raise ParseError(cost_no, 1, str(exc))
    try:
        instance, order = Instance.from_weights(weights, letters, epsilon)
    except InstanceError as exc:
        raise ParseError(weight_no, 1, str(exc))
    return LoadedInstance(instance, order, sorted_glyphs, weights)


def fmt(x) -> str:
    f = Fraction(x)
    if f.denominator == 1:
        return _exact_text(f)
    try:
        approx = "%.6g" % float(f)
    except OverflowError:  # past a float's range: round to 6 digits in decimal
        approx = format(Context(prec=6).divide(f.numerator, f.denominator).normalize(), "g")
    return "%s (%s)" % (_exact_text(f), approx)


def _code_columns(loaded: LoadedInstance, code: CodeAssignment) -> tuple[list[str], list[str]]:
    """Each word's codeword and cost as text, in input order."""
    costs, scale = code.costs_int(), code.letters.scale
    # codewords share few distinct costs; each is formatted once
    cost_text = {c: fmt(Fraction(c, scale)) for c in set(costs)}
    codewords = code.codewords
    # each distinct (letter, repeat) run is spelled once
    spell = {run: loaded.glyphs[run[0]] * run[1] for run in set(chain.from_iterable(codewords))}
    positions = [0] * len(loaded.order)  # the sorted position of each word, in input order
    for sorted_i, input_i in enumerate(loaded.order):
        positions[input_i] = sorted_i
    return (
        ["".join(map(spell.__getitem__, codewords[si])) for si in positions],
        [cost_text[costs[si]] for si in positions],
    )


def _emit_code(loaded: LoadedInstance, report: CodeReport, emit: str) -> None:
    try:
        weights = list(map(str, loaded.raw_weights))
    except ValueError:  # a weight past str()'s digit limit
        weights = list(map(_exact_text, loaded.raw_weights))
    columns = ([str(i) for i in range(1, len(weights) + 1)], weights, *_code_columns(loaded, report.code))
    header = ("word", "weight", "codeword", "cost")
    if emit == "tsv":
        template = "\t".join(["%s"] * 4)
        print(template % header)
        print("\n".join(map(template.__mod__, zip(*columns))))
        print("# total_cost\t%s" % fmt(report.total_cost))
        print("# lower_bound\t%s" % fmt(report.lower_bound))
        print("# guesses\t%d" % report.guess_count)
    else:
        widths = [max(len(h), *map(len, col)) for h, col in zip(header, columns)]
        template = "  ".join("%%-%ds" % w for w in widths)
        line = template % header
        print(line)
        print("-" * len(line))
        print("\n".join(map(template.__mod__, zip(*columns))))
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
    result = exact_optimal(loaded.instance, args.budget)
    codewords, costs = _code_columns(loaded, result.optimal_code)
    for input_i, row in enumerate(zip(codewords, costs), 1):
        print("%d\t%s\t%s" % (input_i, *row))
    print("optimal cost (input scale): %s" % fmt(result.optimal_cost))
    return 0


def cmd_verify(args) -> int:
    loaded = load_instance(args.path, args.epsilon)
    # the oracle first, so an instance too large for it fails before solve runs
    exact = exact_optimal(loaded.instance, args.budget)
    report = solve(loaded.instance, budget=args.budget)
    ratio = Fraction(report.total_cost, exact.optimal_cost)
    bound = report.ratio_bound_used
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
    # set up as solve sets up, the count table charged at the default budget
    norm, k, graph, grouping = _setup(loaded.instance, DEFAULT_BUDGET)
    n = loaded.instance.n
    d = len(norm.distinct_q)
    node_bound = n * k / norm.epsilon_prime
    print("n: %d  d: %d" % (n, d))
    print("k: %s  epsilon': %s  quantum: %s" % (fmt(k), fmt(norm.epsilon_prime), fmt(norm.cost_quantum)))
    print("levels: %d" % graph.level_count)
    print("nodes: %d (bound %s)" % (graph.node_count, fmt(node_bound)))
    print("arcs: %d (bound %d)" % (graph.arc_count, d * graph.node_count))
    group_bound = 1 + 4 * k / norm.epsilon_prime**2
    print("groups: %d (bound %s)" % (grouping.group_count, fmt(group_bound)))
    ok = (
        graph.node_count <= node_bound
        and graph.arc_count <= d * graph.node_count
        and grouping.group_count <= group_bound
    )
    print("PASS" if ok else "FAIL")
    return 0 if ok else 3


def _epsilon(value: str) -> Fraction:
    try:
        eps = Fraction(value)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError("invalid epsilon value: %r" % value)
    if not 0 < eps <= 1:
        raise argparse.ArgumentTypeError("epsilon must lie in (0, 1]")
    return eps


def _budget(value: str) -> int:
    try:
        budget = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError("invalid int value: %r" % value)
    if budget < 1:
        raise argparse.ArgumentTypeError("budget must be a positive integer")
    return budget


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
    p.add_argument("--budget", type=_budget, default=DEFAULT_BUDGET)
    p.add_argument("--emit", choices=("table", "tsv"), default="table")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("exact", help="exact optimum by a signature search (n <= 10)")
    p.add_argument("path")
    p.add_argument("--budget", type=_budget, default=DEFAULT_BUDGET)
    p.set_defaults(func=cmd_exact)

    p = sub.add_parser("verify", help="solve and compare against the exact optimum")
    p.add_argument("path")
    p.add_argument("--epsilon", type=_epsilon, default=Fraction(1, 4))
    p.add_argument("--budget", type=_budget, default=DEFAULT_BUDGET)
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
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
