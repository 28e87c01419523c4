"""Graph of achievable codeword costs and free-string counting.

Costs live on normalize's integer grid, whose quantum is the gcd of the
letter costs. The horizon k = 1 + m*eps' is kept exact, and need not be a
grid cost when eps' is finer than the grid: `k_q`, the first grid cost at or
above k, starts the tail, and a cost is below k exactly when it is below
k_q. The graph's nodes are the achievable string costs in [0, k]; an arc
joins c to c + w for every distinct letter cost w, carrying the number of
letters of that cost. `counts[c]` is the number of strings of cost exactly
c, which identifies the nodes (count > 0) and the live levels (a level's one
admissible cost has count > 0), and gives every free-string count in closed
form: for a prefix-free set S, the strings of cost c with no prefix in S
number count(c) - sum over x in S of count(c - cost(x)). `CostGraph.free`
computes it and `CostGraph.tail` walks it past k; the guess search and the
leveled construction both use these two.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from fractions import Fraction
from itertools import compress
from typing import Callable, Iterable, Sequence

from .core import InstanceError, NormalizedInstance, Rational


class CostGraph:
    """Achievable codeword costs up to k, with string counts per cost. k_q is
    the horizon in quanta, an int or a Fraction between two grid costs.
    Raises InstanceError when more than one letter costs less than the unit."""

    def __init__(
        self,
        distinct_q: Sequence[tuple[int, int]],
        unit_q: int,
        eps_q: int,
        k_q: Rational,
        quantum: Fraction,
    ):
        if k_q < unit_q:
            raise InstanceError("k must be at least 1")
        self.distinct_q = tuple(distinct_q)
        # then every string cheaper than the unit is a run of the cheapest
        # letter, one string per cost, as level 0 and _materialize expect
        if sum(mult for c, mult in self.distinct_q if c < unit_q) > 1:
            raise InstanceError("at most one letter may cost less than the unit")
        self.unit_q = unit_q
        self.eps_q = eps_q
        self.k = k_q * quantum  # the exact horizon
        last = math.floor(k_q)  # the last grid cost <= k
        k_q = self.k_q = math.ceil(k_q)
        self.quantum = quantum
        self.max_letter_q = max(c for c, _ in self.distinct_q)
        self.level_count = (k_q - unit_q) // eps_q
        # counts[c] = number of strings of cost c; extended past k on demand
        self.counts: list[int] = [1]
        self.count(k_q)
        # level i >= 1 admits one codeword cost, level_target(i), and is live
        # when some string has that cost; the targets step by eps_q from
        # level_target(1) to k_q - 1
        first = unit_q + eps_q - 1
        self.live_targets = list(compress(range(first, k_q, eps_q), self.counts[first:k_q:eps_q]))
        self.nodes_q = list(compress(range(last + 1), self.counts))
        self.node_count = len(self.nodes_q)
        # an arc of cost w leaves every node c <= k - w
        self.arc_count = sum(bisect_right(self.nodes_q, last - w) for w, _ in self.distinct_q)

    def count(self, c: int) -> int:
        """Number of strings of cost c (c in quantum units; negative -> 0),
        filling the table through c on first use."""
        if c < 0:
            return 0
        cs = self.counts
        if c >= len(cs):
            for x in range(len(cs), c + 1):
                total = 0
                for w, mult in self.distinct_q:
                    if w <= x:
                        total += mult * cs[x - w]
                cs.append(total)
        return cs[c]

    def level_of(self, cost_q: int) -> int | None:
        if cost_q >= self.k_q:
            return None
        if cost_q < self.unit_q:
            return 0
        return (cost_q - self.unit_q) // self.eps_q + 1

    def level_target(self, i: int) -> int:
        """The one admissible codeword cost on level i >= 1."""
        return self.unit_q + i * self.eps_q - 1

    def free(self, c: int, blockers: Iterable[tuple[int, int]]) -> int:
        """Strings of cost c with no prefix in a prefix-free set S, given as
        (cost_q, how_many) blockers: count(c) minus, per member x of S,
        count(c - cost(x)), the strings of cost c that extend x."""
        free = self.count(c)
        counts = self.counts
        for t, m in blockers:
            if t <= c:
                free -= m * counts[c - t]
        return free

    def tail(
        self,
        m: int,
        blockers: Sequence[tuple[int, int]],
        step: Callable[[], None] | None = None,
    ) -> list[tuple[int, int]] | None:
        """The m cheapest strings of cost >= k with no prefix in S, as
        (cost_q, how_many) batches in increasing cost order; None when fewer
        than m exist. Every member of S costs less than k.

        Walks the costs from k up, calling step once per cost visited. No
        member of S costs k or more, so there the free count at c is the sum,
        over the letters, of the free counts at c minus the letter's cost:
        max_letter zeros in a row from k on make every later count zero. A
        free string extended by the cheapest letter is free, so the walk can
        stop short only before its first batch.
        """
        k_q, top = self.k_q, self.max_letter_q
        batches: list[tuple[int, int]] = []
        c = k_q
        while m > 0:
            if step is not None:
                step()
            free = self.free(c, blockers)
            if free > 0:
                take = min(m, free)
                batches.append((c, take))
                m -= take
            elif not batches and c >= k_q + top - 1:
                return None
            c += 1
        return batches


def build_cost_graph(norm: NormalizedInstance, k: Rational) -> CostGraph:
    """Breadth-style enumeration of all codeword costs in [0, k], for
    k = 1 + m*epsilon' with m an integer."""
    # k = kn / kd and epsilon' = en / ed, compared cross-multiplied
    kn, kd = k.numerator, k.denominator
    en, ed = norm.epsilon_prime.numerator, norm.epsilon_prime.denominator
    unit_q = norm.unit_q
    if (kn - kd) * ed % (kd * en):
        raise InstanceError("k-1 must be an integer multiple of epsilon")
    # the cheapest letter costs letters_q[0] / unit_q
    if norm.letters_q[0] * norm.n * ed <= en * unit_q:
        raise InstanceError(
            "cheapest letter cost is at most eps/n; solve takes the tiny-letter path"
        )
    return CostGraph(
        norm.distinct_q, unit_q, norm.eps_q, Fraction(kn * unit_q, kd), Fraction(1, unit_q)
    )
