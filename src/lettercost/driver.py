"""End-to-end solver: parameter choice, grouping, guess search, conversion.

The solve pipeline conditions the instance, picks the prefix-relaxation
horizon k, builds the cost graph, partitions words into probability groups,
and searches over constraint tuples (level-0 codeword size plus a monotone
assignment of a group prefix to levels; unassigned groups fall to the cost->=k
tail). The search keeps the cheapest leaf's leveled code as its (cost,
count) picks: the level-0 codeword, each placed group at its level's target
cost, and the tail batches the leaf walked. solve builds that code from the
picks and converts it into a true prefix code. Every step from the
tiny-letter test to the report works in ints, cross-multiplied where it
compares ratios, and each reported value is made as one Fraction.

The search is depth-first over assignments in increasing level order with an
admissible bound (accumulated cost plus remaining probability times the
current level cost), so it returns exactly the minimum that exhaustive
enumeration over the same guess space would, while skipping guesses that
provably cannot win. Feasibility of a partial assignment is checked with
closed-form free-string counts: with S prefix-free, the number of cost-c
strings with no prefix in S equals count(c) minus sum over members x of
count(c - cost(x)). The cost graph computes this count (CostGraph.free) and
walks it past k for the tail (CostGraph.tail). construct_leveled, which
rebuilds a code from a guess, uses the same two, so for the winning guess it
returns the picks that solve builds its code from.

The search works in Python ints: the instance's integer weights (its
probabilities times their common denominator) times costs in quanta, so
partial costs and bounds are ints; the result is turned back into a Fraction
once. Each search node owns a list of remaining capacities (free strings at
a live level's target cost) that starts at the lowest level its groups may
use. The list stops at the node's reach: the first level j at which any
leaf that puts a later group on j costs at least the incumbent. Such a leaf
carries at least the last group's weight at T_j and the rest at the node's
lowest target or above, so no leaf that could still win is cut, and the
completion bound charges words beyond the reach at cost k. A child's reach
is never past its parent's. Placing a group at live level i gives the
child's capacities as the parent's entries minus a row size * count(T_j -
T_i), built only as far as the reaches that asked for it. From the last
gap in the targets searched on (from the first level if there is none),
they step by eps_q to the end, so there T_j - T_i = (j - i) * eps_q and
all those levels share one row per group size, size * count(d * eps_q) at
the level d further on; only the levels before that gap keep a row per
(level, size). A child is entered with its parent's list and its row and
reads its completion bound from their differences, most often from the
first few; it returns at once unless that bound is below the incumbent,
and only then builds its own list, in one pass. Nothing is undone on
return. The root is entered the same way, from the free strings at the
live targets up to its reach and the row of the level-0 codeword, so one
loop computes every bound.

All level-0 sizes share one incumbent, searched in increasing order; it is
replaced only by a strictly cheaper guess, so ties go to the smaller level-0
size and the earlier depth-first order, exactly as if each size were
searched alone and the results compared. The incumbent starts as the
all-tail guess (every word on the n cheapest strings of cost >= k, always
consistent) valued one above its cost V, the classical branch-and-bound
start from a known feasible solution (Land and Doig, 1960). Size 0 is
searched first and its all-tail leaf costs V, so the seed never outlasts
that search; until a leaf there costs at most V, no bound, break or reach
cuts anything, since each is at most the total weight times k <= V.

That seed is far above the optimum, and a search from it spends most of its
nodes finding a good incumbent. So _Search.minimize first searches size 0
once over a coarser grouping: group 0 alone, the other groups merged two at
a time (a last odd one alone), on every live level. A leaf of that pass puts
both groups of a pair on one live level, or on the tail, and the same
assignment is a leaf of the full search with the same value. Its capacity
checks pass there too: a + b words fit in cap exactly when a do and b fit in
the cap - a * count(0) that are left, and every later level loses
(a + b) * count(T_j - T_i) either way. The pass reaches its all-tail leaf, so
it ends with the value W <= V of a real leaf, and the full pass, over every
level-0 size, starts from W + 1. A search seeded above the optimum m reaches
its first leaf of cost m, since every cut is admissible for leaves cheaper
than the incumbent, and keeps it, since ties never replace. So the full pass
returns the leaf that the search from V + 1 returns, with the same codes,
ties and costs, and cuts only nodes that cannot win. The pass is skipped
when pairing would merge nothing (two groups or fewer).

Instances whose cheapest letter costs at most epsilon/n skip all of the above
and take solve's tiny branch (_solve_tiny), a direct candidate construction.
Its candidate families are arithmetic progressions of integer costs with one
common step, so their merged cost order is a short list of strided runs of ranks
(_tiny_segments). Inside every c1-window the active families keep one order,
by the fixed key (cost mod c1, family, -start window, letter), so one sweep
over the families' start and end windows yields the runs, with no sort per
window. Each run length is priced from two tables per stride, built once:
S, the prefix sums of the weights along each residue class, and P, the
prefix sums of S, since sum(u * w[q + u], u < k) = (k - 1) * S[q + k] -
(P[q + k] - P[q + 1]). That is work that does not grow with n, and the code
is built, as slices, for the cheapest run length only. The run lengths end
at the first one >= n: from there on every pool holds the same words but
a^i0, whose cost only grows, so no later run length costs less.
"""

from __future__ import annotations

import math
import time
from bisect import bisect_left, insort
from dataclasses import dataclass
from itertools import accumulate, groupby, islice
from fractions import Fraction
from operator import itemgetter, mul, sub
from typing import Iterator, Sequence

from .convert import convert_to_prefix
from .core import (
    CodeAssignment,
    Instance,
    InstanceError,
    NormalizedInstance,
    Runs,
    _unchecked,
    is_prefix_free,
    normalize,
    reorder,
)
from .cost_graph import CostGraph, build_cost_graph
from .kprefix import LeveledCode

# Frozen end-to-end approximation constant: measured over the random
# verification corpus (n <= 8, r <= 3, integer costs <= 4,
# eps in {0.2, 0.3, 0.5}) and rounded up with margin. solve's cost never
# exceeded (1 + C_TOTAL * eps) times the exact optimum on that corpus.
C_TOTAL = Fraction(1)

DEFAULT_BUDGET = 10**7

# count tables up to this many entries are built whatever the budget: they
# take milliseconds, so a small budget still cuts the search itself. A longer
# table is charged to the budget, one unit per entry, before it is built
TABLE_ALLOWANCE = 2**12


class BudgetExceeded(RuntimeError):
    """The solve grew past the configured budget: the guess search's nodes,
    or, before the search starts, the cost graph's count table."""

    def __init__(self, explored: int, budget: int, message: str | None = None):
        self.explored = explored
        self.budget = budget
        super().__init__(
            message
            or "guess search exceeded budget (%d nodes explored, budget %d)" % (explored, budget)
        )


# ---------------------------------------------------------------------------
# parameter choice and grouping


def choose_k(epsilon: Fraction) -> Fraction:
    """Smallest k = 1 + m*epsilon whose conversion overhead is at most 2*epsilon.

    The overhead factor (5 + 2*log2(k))/k is decreasing, so the test holds
    from some m on: doubling m brackets the first such m and bisection finds
    it, in O(log(k/epsilon)) tests. Smaller epsilon always yields the same or
    larger k.
    """
    eps = epsilon if isinstance(epsilon, (int, Fraction)) else Fraction(epsilon)
    if not 0 < eps <= 1:
        raise InstanceError("epsilon must lie in (0, 1]")
    # k = top / den; int true division is correctly rounded, as float() of a
    # Fraction is, so each test sees the same float k without Fraction arithmetic
    num, den = eps.numerator, eps.denominator
    limit = 2.0 * (num / den)

    def fits(m: int) -> bool:
        kf = (den + m * num) / den
        return (5.0 + 2.0 * math.log2(kf)) / kf <= limit

    # once the doubling stops, m = hi passes and m = lo fails (lo = 0: none
    # below hi); bisection keeps both
    lo, hi = 0, 1
    while not fits(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if fits(mid):
            hi = mid
        else:
            lo = mid
    return Fraction(den + hi * num, den)


def _k_q(norm: NormalizedInstance, k: Fraction) -> int:
    """The horizon k in quanta, rounded up: the count table's last cost."""
    return -(-k.numerator * norm.unit_q // k.denominator)


def _charged_cost_graph(
    norm: NormalizedInstance, k: Fraction, budget: int, epsilon: Fraction
) -> CostGraph:
    """build_cost_graph(norm, k), unless its count table, one entry per
    quantum from 0 to k_q, holds more than max(budget, TABLE_ALLOWANCE)
    entries: then BudgetExceeded, before the table is built. epsilon is the
    caller's, for the message."""
    entries = _k_q(norm, k) + 1
    if entries > max(budget, TABLE_ALLOWANCE):
        raise BudgetExceeded(
            0,
            budget,
            "cost graph needs %d count-table entries at epsilon %s, over budget %d"
            % (entries, epsilon, budget),
        )
    return build_cost_graph(norm, k)


@dataclass(frozen=True)
class Grouping:
    """Contiguous partition of the sorted word list.

    The most probable word is always alone in the first group; further words
    above the singleton threshold get their own groups; the rest are packed
    greedily so every packed group's probability stays at most
    (1 - p1) * eps^2 / k.
    """

    norm: NormalizedInstance
    ranges: tuple[tuple[int, int], ...]  # half-open word index ranges

    @property
    def group_count(self) -> int:
        return len(self.ranges)


def group_words(norm: NormalizedInstance, k: Fraction) -> Grouping:
    ws = norm.instance.weights_int
    scale = norm.instance.scale
    n = len(ws)
    eps = norm.epsilon_prime
    # the packing cap (1 - p1) * eps^2 / k in integer weights is num / den, so
    # weights are compared with it cross-multiplied; the singleton threshold
    # is half the cap
    num = (scale - ws[0]) * eps.numerator**2 * k.denominator
    den = eps.denominator**2 * k.numerator
    # the groups run contiguously from (0, 1) to n, and a packed group weighs
    # at most the cap. The words after the first weigh k / eps^2 caps; a
    # later singleton weighs over half a cap and two adjacent packed groups
    # over one, so there are fewer than 2 + 2k / eps^2 <= 1 + 4k / eps^2 groups
    ranges: list[tuple[int, int]] = [(0, 1)]
    i = 1
    while i < n and 2 * ws[i] * den > num:
        ranges.append((i, i + 1))
        i += 1
    while i < n:
        j, acc = i, 0
        while j < n and (acc + ws[j]) * den <= num:
            acc += ws[j]
            j += 1
        ranges.append((i, j))
        i = j
    return Grouping(norm, tuple(ranges))


# ---------------------------------------------------------------------------
# guess enumeration


def level0_size_candidates(norm: NormalizedInstance) -> list[int]:
    """Candidate sizes for the sub-unit-cost codeword (a run of the cheapest
    letter): 0, every size up to ceil(1/eps), then geometrically spaced sizes,
    plus the largest size still costing under 1."""
    l1_q, unit_q = norm.letters_q[0], norm.unit_q
    f_max = (unit_q - 1) // l1_q  # largest f with f * l1 < 1
    if f_max <= 0:
        return [0]
    num, den = norm.epsilon_prime.numerator, norm.epsilon_prime.denominator
    base = -(-den // num)  # ceil(1 / eps)
    out = set(range(0, min(base, f_max) + 1))
    # (1 + eps)^j / eps = top / bottom, kept in ints
    top, bottom = num + den, num
    while True:
        size = -(-top // bottom)
        if size > f_max:
            break
        out.add(size)
        top *= num + den
        bottom *= den
    out.add(f_max)
    return sorted(out)


def guess_stream_size(grouping: Grouping, k: Fraction, epsilon: Fraction) -> int:
    """Closed-form size of the raw guess stream over the cost graph's levels
    at horizon k = 1 + m*epsilon: one per eps_q quanta from the unit to k,
    which makes m levels unless epsilon is finer than the cost grid."""
    norm = grouping.norm
    levels = (_k_q(norm, k) - norm.unit_q) // norm.eps_q
    g = grouping.group_count
    maps = sum(math.comb(levels + t - 1, t) for t in range(g + 1))
    return maps * len(level0_size_candidates(norm))


# ---------------------------------------------------------------------------
# branch-and-bound search over guesses


@dataclass
class _Search:
    norm: NormalizedInstance
    graph: CostGraph
    grouping: Grouping
    budget: int
    explored: int = 0
    leaves: int = 0

    def __post_init__(self):
        g = self.graph
        self.targets = g.live_targets
        # row[j - lpos] = size * count(T_j - T_lpos) is what a group of size
        # words placed at live level lpos takes from the capacity of live
        # level j >= lpos (count(0) == 1 covers j == lpos), as far as the
        # reaches that asked for it. It is keyed by (lpos, size), or by size
        # alone where the targets step by eps_q from lpos to the end (run);
        # it does not depend on the grouping, so every pass shares it
        self.rows: dict[int | tuple[int, int], list[int]] = {}
        ws = self.norm.instance.weights_int
        self.prefix_w = [0, *accumulate(ws)]
        self.n = len(ws)
        self._group(self.grouping.ranges)
        # the incumbent: [value in weight-scaled quanta, its code's (cost,
        # how_many) picks in word order]. It starts as the all-tail guess
        # (every word on the n cheapest strings of cost >= k) valued one above
        # its cost, so any leaf costing no more replaces it; this walk counts
        # toward neither explored nor the budget
        batches = g.tail(self.n, [])
        self.best: list = [self._tail_value(batches, 0) + 1, batches]

    def _group(self, ranges: Sequence[tuple[int, int]]) -> None:
        """Search with these contiguous word ranges as the groups: their
        sizes, their weights and, per position, the weight from there on."""
        prefix = self.prefix_w
        self.ranges = ranges
        self.sizes = [e - s for s, e in ranges]
        self.group_w = [prefix[e] - prefix[s] for s, e in ranges]
        self.rest_w = [*accumulate(reversed(self.group_w), initial=0)][::-1]

    def _reach(self, lpos: int, partial: int, rest: int, best: int) -> int:
        """End of the live levels that a leaf cheaper than best can still use,
        below a node whose unplaced groups weigh rest in all and go to live
        levels from lpos on. If one of them goes to level j, every later one
        goes to j or above, or to the tail; that suffix weighs at least the
        last group, w_last, so such a leaf costs at least
        partial + (rest - w_last) * T_lpos + w_last * T_j."""
        w_last = self.group_w[-1]
        need = best - partial - (rest - w_last) * self.targets[lpos]
        return bisect_left(self.targets, -(-need // w_last), lpos)

    def _tail_value(self, batches: list[tuple[int, int]], first_word: int) -> int:
        """Cost of giving words first_word.. the (cost, how_many) tail
        batches in order."""
        value = 0
        prefix, w = self.prefix_w, first_word
        for c, take in batches:
            value += (prefix[w + take] - prefix[w]) * c
            w += take
        return value

    def run(self, f0: int) -> None:
        """Search the guesses with level-0 size f0 against the incumbent,
        which changes only on a strictly cheaper guess, so ties keep the
        earlier f0 and the earlier depth-first order. Unassigned trailing
        groups are tail."""
        g = self.graph
        counts, k_q, eps_q = g.counts, g.k_q, g.eps_q
        sizes, ranges = self.sizes, self.ranges
        group_w, rest_w = self.group_w, self.rest_w
        targets, rows, reach = self.targets, self.rows, self._reach
        n, prefix = self.n, self.prefix_w
        total = prefix[n]
        L = len(targets)
        G = len(sizes)
        # from live level grid on, the targets searched step by eps_q (they
        # step by at least that, so a suffix does when it spans its length
        # less one times eps_q), and those levels share one row per size
        grid = bisect_left(
            range(L), True, key=lambda i: targets[-1] - targets[i] == (L - 1 - i) * eps_q
        )
        f0_cost = f0 * self.norm.letters_q[0]
        start = 1 if f0 > 0 else 0
        base = group_w[0] * f0_cost
        # (cost, how_many) of the codewords below k: the level-0 codeword,
        # then (target, size) per placed group, in nondecreasing target order
        placed: list[tuple[int, int]] = [(f0_cost, 1)] if f0 > 0 else []
        best = self.best
        budget, explored = self.budget, self.explored

        def bump() -> None:
            nonlocal explored
            explored += 1
            if explored > budget:
                raise BudgetExceeded(explored, budget)

        def leaf(gpos: int, partial: int) -> None:
            self.leaves += 1
            first_word = ranges[gpos][0] if gpos < G else n
            batches = g.tail(n - first_word, placed, bump)
            if batches is None:
                return
            value = partial + self._tail_value(batches, first_word)
            if value < best[0]:
                best[:] = value, placed + batches

        def dfs(
            gpos: int, lpos: int, partial: int, parent: list[int], lpos_min: int, hi: int, row
        ) -> None:
            """Search below the node that has cost partial so far and puts
            groups gpos.. on live levels lpos.. or the tail. Its capacities,
            up to its reach hi, are parent[j - lpos_min] - row[j - lpos] at
            live level j: those of its parent, whose list starts at
            lpos_min, less what the group just placed takes from each. Its
            list is built only if its bound is below the incumbent."""
            nonlocal explored
            # the admissible bound: partial, plus words from the group's
            # first on filled into these capacities, which later placements
            # only shrink, and the rest at cost k, since a leaf cheaper than
            # the incumbent can put them nowhere but the tail. It is most
            # often decided by the first few levels
            value, w = partial, ranges[gpos][0]
            for j in range(lpos, hi):
                cap = parent[j - lpos_min] - row[j - lpos]
                if cap > 0:
                    end = w + cap
                    if end >= n:
                        value += (total - prefix[w]) * targets[j]
                        break
                    value += (prefix[end] - prefix[w]) * targets[j]
                    w = end
            else:
                value += (total - prefix[w]) * k_q
            if value >= best[0]:
                return
            caps = list(map(sub, islice(parent, lpos - lpos_min, hi - lpos_min), row))
            lpos_min = lpos
            size, gw, rest = sizes[gpos], group_w[gpos], rest_w[gpos]
            last = gpos + 1 == G
            for lpos in range(lpos_min, L):
                explored += 1
                if explored > budget:
                    raise BudgetExceeded(explored, budget)
                target = targets[lpos]
                # fires at or before the end of caps
                if partial + rest * target >= best[0]:
                    break
                if size > caps[lpos - lpos_min]:
                    continue
                child_partial = partial + gw * target
                placed.append((target, size))
                if last:
                    leaf(G, child_partial)
                else:
                    # the child's capacities run to its reach, which is
                    # never past this node's; its row, what the group takes
                    # from each, is cached as far as the reaches that asked
                    hi = reach(lpos, partial, rest, best[0])
                    key = size if lpos >= grid else (lpos, size)
                    row = rows.get(key, ())
                    if len(row) < hi - lpos:
                        row = rows[key] = [size * counts[tj - target] for tj in targets[lpos:hi]]
                    dfs(gpos + 1, lpos, child_partial, caps, lpos_min, hi, row)
                placed.pop()
            # remaining groups fall to the tail
            if partial + rest * k_q < best[0]:
                leaf(gpos, partial)

        try:
            if start == G:
                leaf(G, base)
            else:
                # the root enters like a child: the free strings at the live
                # targets up to its reach, less those under the level-0
                # codeword
                hi = reach(0, base, rest_w[start], best[0])
                free = [counts[t] for t in targets[:hi]]
                row0 = [counts[t - f0_cost] for t in targets[:hi]] if f0 > 0 else [0] * hi
                dfs(start, 0, base, free, 0, hi, row0)
        finally:
            self.explored = explored
            # dfs refers to itself through its cell; without this the search
            # state would wait for a full garbage collection
            del dfs

    def minimize(self) -> None:
        """Search every level-0 size against one incumbent, seeded by a pass
        at size 0 over a coarser grouping: group 0 alone and the others
        merged two at a time. That pass ends on a real leaf's value W, and
        the full pass starts from W + 1, so that it keeps its own first
        cheapest leaf. The budget, explored and leaves cover both."""
        ranges = self.grouping.ranges
        if len(ranges) > 2:
            last = len(ranges) - 1
            pairs = [(ranges[i][0], ranges[min(i + 1, last)][1]) for i in range(1, last + 1, 2)]
            self._group([ranges[0], *pairs])
            self.run(0)
            self.best[0] += 1
            self._group(ranges)
        for f0 in level0_size_candidates(self.norm):
            self.run(f0)


# ---------------------------------------------------------------------------
# reports


@dataclass
class CodeReport:
    """Chosen code plus the certificates the caller cares about.

    total_cost and lower_bound are in the caller's scale: raw weights times
    original letter costs. normalized_cost divides out the second letter cost
    and the weight total, the scale in which lower_bound reads as 1 - p1.

    guess_count counts the guesses the search reached as leaves on the main
    path, and the run lengths priced on the tiny path
    (tiny_run_length_candidates).
    """

    code: CodeAssignment
    total_cost: Fraction
    lower_bound: Fraction
    ratio_bound_used: Fraction
    guess_count: int
    elapsed: float
    mode: str
    normalized_cost: Fraction
    epsilon_prime: Fraction | None = None
    k: Fraction | None = None
    group_count: int | None = None
    graph_nodes: int | None = None
    graph_arcs: int | None = None
    explored: int = 0
    kprefix_cost: Fraction | None = None


def _finish_report(
    instance: Instance,
    code: CodeAssignment,
    value: int,
    *,
    mode: str,
    ratio_bound: Fraction,
    guess_count: int,
    started: float,
    **extra,
) -> CodeReport:
    """The report on an ordered code whose probability-weighted cost, as
    code_cost gives it, is value / (instance.scale * letters.scale). The
    lower bound is (1 - p1) * l2 (oracles.lower_bound), and both it and the
    total cost are in the caller's scale, times the weight total."""
    scale, ws = instance.scale, instance.weights_int
    c2 = instance.letters.costs_int[1]
    total_num, total_den = instance.weight_total.numerator, instance.weight_total.denominator
    den = scale * instance.letters.scale * total_den
    return CodeReport(
        code=code,
        total_cost=Fraction(value * total_num, den),
        lower_bound=Fraction((scale - ws[0]) * c2 * total_num, den),
        ratio_bound_used=ratio_bound,
        guess_count=guess_count,
        elapsed=time.perf_counter() - started,
        mode=mode,
        normalized_cost=Fraction(value, scale * c2),
        **extra,
    )


def _cheapest_is_tiny(instance: Instance) -> bool:
    """Whether the cheapest letter costs at most epsilon/n once the second
    letter is scaled to 1: c1 / c2 * n <= epsilon, cross-multiplied."""
    c1, c2 = instance.letters.costs_int[:2]
    eps = instance.epsilon
    return c1 * instance.n * eps.denominator <= eps.numerator * c2


# ---------------------------------------------------------------------------
# the two solvers


def tiny_run_length_candidates(instance: Instance) -> list[int]:
    """Run lengths i0 to try: distinct floor((1+eps)^j), up to the first one
    >= n. No later run length is cheaper: from that rung on, every pool is
    the words b a^j b, the n words a^j x a^n for each x, and a^i0, whose
    cost i0 * c1 only grows; so a later pool's n cheapest strings cost at
    least as much, rank by rank.

    When n * eps <= 1 the ladder is 1, 2, ..., n, returned with no powers
    built: while (1+eps)^j < n <= 1/eps, the step to (1+eps)^(j+1) adds
    eps * (1+eps)^j < 1, so the floors climb by at most one and the first
    that is >= n is n."""
    n, eps = instance.n, instance.epsilon
    if n * eps.numerator <= eps.denominator:
        return list(range(1, n + 1))
    out = [1]
    # (1+eps)^j = top / bottom, kept in ints
    top = bottom = 1
    while out[-1] < n:
        top *= eps.numerator + eps.denominator
        bottom *= eps.denominator
        i0 = top // bottom
        if i0 > out[-1]:
            out.append(i0)
    return out


def _tiny_segments(
    costs_int: Sequence[int], n: int, i0: int
) -> Iterator[tuple[int, int, int, int, int, int, int]]:
    """The n cheapest tiny-path candidates for run length i0, in the order
    (cost, family, j, letter), as strided runs of ranks: (first rank, stride,
    count, first cost, family, first j, letter) per run, for the candidates
    a^j (family 0), b a^j b (1) and a^j x a^n (2), costs times letters.scale.

    Every family is an arithmetic progression with step c1: a^i0 one point,
    b a^j b n terms from 2 c2, and a^j x a^n min(i0, n) terms from cx + n c1
    for each letter x >= 1. A family whose first cost is c fills the
    c1-windows c // c1 on, one term each, at the same cost mod c1, and its j
    at window w is its first j plus w - c // c1. So inside every window the
    active families keep one order, by the fixed key (cost mod c1, family,
    -start window, letter): only letters' a^j x a^n share a family, and of
    two of them at the same cost mod c1 the later start has the smaller j.
    One sweep over the families' start and end windows keeps the active ones
    in that order, inserted at their start and dropped at their end; between
    two such windows each of the m active families occupies ranks first,
    first + m, ... There are at most 2(r + 1) such windows, so at most 2r + 1
    segments.
    """
    c1, c2 = costs_int[:2]
    # (cost mod c1, family, -start window, letter, first j, end window); a
    # family's cost rises with j, so none has more than n terms among the n
    # cheapest
    spans = [(0, 0, -i0, 0, i0, i0 + 1)]
    start, res = divmod(2 * c2, c1)
    spans.append((res, 1, -start, 0, 0, start + n))
    terms = min(i0, n)
    for x, cx in enumerate(costs_int[1:], 1):
        start, res = divmod(cx + n * c1, c1)
        spans.append((res, 2, -start, x, 0, start + terms))
    spans.sort()
    # (window, k) where span k starts, (window, ~k) where it ends
    events = sorted(
        [(-span[2], k) for k, span in enumerate(spans)]
        + [(span[5], ~k) for k, span in enumerate(spans)]
    )
    active: list[int] = []  # indices into spans, in key order
    rank = 0
    lo = events[0][0]
    for hi, k in events:
        if hi > lo:
            m = len(active)
            for first, s in enumerate(active, rank):
                if first >= n:
                    return
                res, family, neg_start, x, j, _ = spans[s]
                count = min(hi - lo, -((first - n) // m))
                yield first, m, count, lo * c1 + res, family, j + lo + neg_start, x
            rank += m * (hi - lo)
            lo = hi
        if k < 0:
            active.remove(~k)
        else:
            insort(active, k)


def _tiny_values(instance: Instance, run_lengths: Sequence[int]) -> list[int]:
    """_tiny_pool's code cost for each run length, without building its code.

    A run with first rank f, stride a, count k and first cost c costs
    c * sum(w) + c1 * sum(u * w) over the weights w of ranks f + u a, u < k.
    Along each residue class of stride a (position q in the class), S
    (w_sums) holds the prefix sums of the weights and P (p_sums) the prefix
    sums of S, built once per stride; from q = f // a, sum(w) = S[q + k] -
    S[q] and
    sum(u * w) = (k - 1) * S[q + k] - (P[q + k] - P[q + 1])."""
    ws = instance.weights_int
    costs = instance.letters.costs_int
    c1 = costs[0]
    sums: dict[int, list[tuple[list[int], list[int]]]] = {}
    values = []
    for i0 in run_lengths:
        value = 0
        for first, a, count, cost, _, _, _ in _tiny_segments(costs, instance.n, i0):
            tables = sums.get(a)
            if tables is None:
                tables = sums[a] = []
                for s in range(a):
                    w_sums = [0, *accumulate(ws[s::a])]
                    tables.append((w_sums, [0, *accumulate(w_sums)]))
            w_sums, p_sums = tables[first % a]
            q = first // a
            end = q + count
            value += cost * (w_sums[end] - w_sums[q]) + c1 * (
                (count - 1) * w_sums[end] - p_sums[end] + p_sums[q + 1]
            )
        values.append(value)
    return values


def _tiny_pool(instance: Instance, i0: int) -> CodeAssignment:
    """The code made of the n cheapest candidate strings for run length i0,
    in cost order and priced from _tiny_segments."""
    n = instance.n
    costs = instance.letters.costs_int
    c1 = costs[0]
    prices = [0] * n
    words: list = [None] * n
    bb, tail = (1, 1), (0, n)
    for first, a, count, cost, family, j, x in _tiny_segments(costs, n, i0):
        ranks = slice(first, first + a * count, a)
        prices[ranks] = range(cost, cost + count * c1, c1)
        js = range(j, j + count)
        if family == 0:
            words[first] = ((0, j),)
        elif family == 1:
            words[ranks] = [(bb, (0, jj), bb) if jj else ((1, 2),) for jj in js]
        else:
            xx = (x, 1)
            words[ranks] = [((0, jj), xx, tail) if jj else (xx, tail) for jj in js]
    # distinct and prefix free by construction (see _solve_tiny)
    code = _unchecked(
        CodeAssignment,
        codewords=tuple(words),
        letters=instance.letters,
        _costs_int=tuple(prices),
    )
    return code


def tiny_candidate_code(
    instance: Instance, i0: int
) -> tuple[Fraction, list[Runs], list[Fraction]]:
    """The ordered code made of the n cheapest strings among: the run a^i0,
    the bracketed runs b a^j b (j < n), and a^j x a^n for every non-cheapest
    letter x and j < i0. Returns (cost, codewords, per-word costs), all in
    units of the second letter cost."""
    code = _tiny_pool(instance, i0)
    c2 = instance.letters.costs_int[1]
    prices = code.costs_int()
    value = sum(map(mul, instance.weights_int, prices))
    costs = [Fraction(c, c2) for c in prices]
    return Fraction(value, instance.scale * c2), list(code.codewords), costs


def _solve_tiny(instance: Instance, started: float) -> CodeReport:
    """solve's direct construction for instances whose cheapest letter is
    very cheap (cost at most epsilon/n once the second letter is scaled to
    1), which solve has checked. started is solve's clock reading.

    Prices every candidate run length, up to the first one >= n
    (tiny_run_length_candidates), and builds the code of the cheapest, which
    costs at most (1 + epsilon) times the optimum. guess_count is the number
    of run lengths priced.

    The code is made of candidates a^i0, b a^j b with j < n, and a^j x a^n
    with j < i0 and x not a, and is prefix free by construction: any two of
    them differ at a letter both have. a^i0 has an a where a^j x a^n has x.
    Two words a^j x a^n differ at their first letter other than a. Two words
    that start with b, b a^j b or b a^n, differ at letter j + 2 of the
    shorter, which is b in b a^j b and a in every longer one, since j < n.
    Any other two words differ at their first letter.
    """
    n = instance.n
    eps = instance.epsilon
    i0_candidates = tiny_run_length_candidates(instance)
    # every candidate's cost has the same denominator, so its numerator
    # decides; index keeps the first of equal values, the smallest run length
    values = _tiny_values(instance, i0_candidates)
    value = min(values)
    code = _tiny_pool(instance, i0_candidates[values.index(value)])
    # The code is prefix free by construction, but this check stays: at
    # n = 500-512 it raises RecursionError in is_prefix_free, and
    # perfbench/test_perfbench.py::test_tiny_recursion_band_counts_as_failure
    # pins that failure, which sets the tiny workload's tail and success rate.
    # It goes together with that test, once is_prefix_free no longer recurses
    # and the benchmark is changed to match
    if n <= 512:
        assert is_prefix_free(code.codewords)
    return _finish_report(
        instance,
        code,
        value,
        mode="tiny",
        ratio_bound=1 + eps,
        guess_count=len(i0_candidates),
        started=started,
        epsilon_prime=eps,
    )


def solve(instance: Instance, *, budget: int = DEFAULT_BUDGET) -> CodeReport:
    """Find a prefix code of cost within a (1 + O(epsilon)) factor of optimal.

    Keeps the minimum-cost leveled code over all guesses at choose_k's
    horizon, the one for which the ratio bound holds, as the search found it,
    then converts it to a prefix code. Takes the tiny-letter path
    (_solve_tiny) when the cheapest letter is at most epsilon/n after
    scaling the second letter cost to 1.
    """
    started = time.perf_counter()
    if instance.n == 1:
        code = CodeAssignment((((0, 1),),), instance.letters)
        return _finish_report(
            instance,
            code,
            code.costs_int()[0] * instance.weights_int[0],
            mode="single",
            ratio_bound=Fraction(1),
            guess_count=1,
            started=started,
        )

    if _cheapest_is_tiny(instance):
        return _solve_tiny(instance, started)

    norm = normalize(instance)
    eps = norm.epsilon_prime
    k = choose_k(eps)
    graph = _charged_cost_graph(norm, k, budget, instance.epsilon)
    grouping = group_words(norm, k)

    search = _Search(norm, graph, grouping, budget)
    search.minimize()
    value, picks = search.best
    # the search's value is in weight-scaled quanta
    kprefix_cost = Fraction(value, instance.scale * norm.unit_q)

    # the search places groups in nondecreasing level order, so groups that
    # share a level are consecutive picks at its target; merged, each level is
    # one pick, as construct_leveled makes it
    merged = [(c, sum(cnt for _, cnt in run)) for c, run in groupby(picks, itemgetter(0))]
    leveled = LeveledCode(norm, graph, merged)
    prefix_code = convert_to_prefix(leveled, k)
    code = reorder(CodeAssignment(prefix_code.codewords, instance.letters))
    # 1 + C_TOTAL * epsilon, as one Fraction
    given = instance.epsilon
    den = C_TOTAL.denominator * given.denominator
    report = _finish_report(
        instance,
        code,
        sum(map(mul, instance.weights_int, code.costs_int())),
        mode="main",
        ratio_bound=Fraction(den + C_TOTAL.numerator * given.numerator, den),
        guess_count=search.leaves,
        started=started,
        epsilon_prime=eps,
        k=k,
        group_count=grouping.group_count,
        graph_nodes=graph.node_count,
        graph_arcs=graph.arc_count,
        explored=search.explored,
        kprefix_cost=kprefix_cost,
    )
    return report
