"""Output checker, independent of the library under test.

Every check recomputes from the instance file's numbers and the returned
codewords alone. Prefix-freeness uses sort-and-compare-neighbours: in
lexicographic order a codeword that prefixes another also prefixes its
immediate successor, so one linear scan after a sort finds every violation
without recursion (the library's own trie walk recurses once per letter).

Each function returns None when the output is right, otherwise a one-line
reason.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

Runs = Sequence[tuple[int, int]]


def _spell(runs: Runs, r: int) -> str | None:
    parts = []
    for let, rep in runs:
        if not 0 <= let < r or rep < 1:
            return None
        parts.append(chr(0x61 + let) * rep)
    return "".join(parts)


def prefix_violation(codewords: Sequence[Runs], r: int) -> str | None:
    """Reason the codewords are not a prefix-free set over r letters, or None."""
    words = []
    for runs in codewords:
        word = _spell(runs, r)
        if not word:
            return "empty or malformed codeword %r" % (runs,)
        words.append(word)
    words.sort()
    for a, b in zip(words, words[1:]):
        if b.startswith(a):
            return "codeword of %d letters is a prefix of another" % len(a)
    return None


def code_cost(codewords: Sequence[Runs], costs: Sequence[Fraction], weights: Sequence[int]) -> Fraction:
    """Sum over words of weight times codeword cost; codeword i goes to the
    i-th heaviest word."""
    # whole numbers over a common denominator keep this exact and fast
    denominator = math.lcm(*(Fraction(c).denominator for c in costs))
    scaled = [int(c * denominator) for c in costs]
    total = 0
    for w, runs in zip(sorted(weights, reverse=True), codewords):
        total += w * sum(scaled[let] * rep for let, rep in runs)
    return Fraction(total, denominator)


def lower_bound(costs: Sequence[Fraction], weights: Sequence[int]) -> Fraction:
    """Every codeword but the heaviest word's holds a letter costing at least
    the second-cheapest letter."""
    return (sum(weights) - max(weights)) * costs[1]


def check_code(
    codewords: Sequence[Runs],
    costs: Sequence[Fraction],
    weights: Sequence[int],
    total_cost: Fraction,
    reported_lower_bound: Fraction,
) -> str | None:
    """Check one solve result against the instance it came from."""
    if len(codewords) != len(weights):
        return "%d codewords for %d words" % (len(codewords), len(weights))
    bad = prefix_violation(codewords, len(costs))
    if bad:
        return bad
    cost = code_cost(codewords, costs, weights)
    if cost != total_cost:
        return "reported cost %s, codewords cost %s" % (total_cost, cost)
    lb = lower_bound(costs, weights)
    if reported_lower_bound != lb:
        return "reported lower bound %s, expected %s" % (reported_lower_bound, lb)
    if total_cost < lb:
        return "cost %s below the lower bound %s" % (total_cost, lb)
    return None


def check_ratio(
    total_cost: Fraction,
    optimal_codewords: Sequence[Runs],
    optimal_cost: Fraction,
    costs: Sequence[Fraction],
    weights: Sequence[int],
    ratio_limit: Fraction,
) -> str | None:
    """Check the exact oracle's code, then 1 <= solve / optimum <= ratio_limit."""
    bad = check_code(optimal_codewords, costs, weights, optimal_cost, lower_bound(costs, weights))
    if bad:
        return "oracle: " + bad
    ratio = total_cost / optimal_cost
    if not 1 <= ratio <= ratio_limit:
        return "ratio %s outside [1, %s]" % (ratio, ratio_limit)
    return None
