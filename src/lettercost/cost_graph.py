"""Graph of achievable codeword costs and free-string counting.

Costs live on an integer grid of quantum units. The graph's nodes are the
achievable string costs in [0, k]; an arc joins c to c + w for every distinct
letter cost w, carrying the number of letters of that cost. `counts[c]` is
the number of strings of cost exactly c, which both identifies the nodes
(count > 0) and drives every free-string recurrence.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .core import CodewordTrie, InstanceError, NormalizedInstance, as_runs, runs_cost_q


@dataclass(frozen=True)
class Inconsistent:
    """Non-exceptional 'no such code' outcome; the guess search treats it as data."""

    reason: str = ""

    def __bool__(self) -> bool:
        return False


class CostGraph:
    """Achievable codeword costs up to k, with string counts per cost."""

    def __init__(
        self,
        distinct_q: Sequence[tuple[int, int]],
        unit_q: int,
        eps_q: int,
        k_q: int,
        quantum: Fraction,
        n: int | None = None,
    ):
        if (k_q - unit_q) % eps_q != 0:
            raise InstanceError("k-1 must be an integer multiple of epsilon")
        if k_q < unit_q:
            raise InstanceError("k must be at least 1")
        self.distinct_q = tuple(distinct_q)
        self.unit_q = unit_q
        self.eps_q = eps_q
        self.k_q = k_q
        self.quantum = quantum
        self.max_letter_q = max(c for c, _ in self.distinct_q)
        self.level_count = (k_q - unit_q) // eps_q
        # counts[c] = number of strings of cost c; extended past k on demand
        self.counts: list[int] = [1]
        self._extend_counts(k_q)
        self._assert_level0_structure()
        self.nodes_q = [c for c in range(k_q + 1) if self.counts[c] > 0]
        self.node_count = len(self.nodes_q)
        self.arc_count = sum(
            1
            for c in self.nodes_q
            for w, _ in self.distinct_q
            if c + w <= k_q
        )
        if n is not None and n >= 2:
            bound = Fraction(n * k_q, eps_q)
            assert self.node_count <= bound, "node count exceeds n*k/eps"
            assert self.arc_count <= len(self.distinct_q) * self.node_count

    @staticmethod
    def for_instance(norm: NormalizedInstance, k: Fraction) -> "CostGraph":
        k_q = k / norm.cost_quantum
        if k_q.denominator != 1:
            raise InstanceError("k must be a multiple of the cost quantum")
        eps = norm.epsilon_prime
        if norm.instance.letters.costs[0] * norm.n <= eps:
            raise InstanceError(
                "cheapest letter cost is at most eps/n; use the tiny-letter solver"
            )
        return CostGraph(
            norm.distinct_q,
            norm.unit_q,
            norm.eps_q,
            k_q.numerator,
            norm.cost_quantum,
            n=norm.n,
        )

    def _extend_counts(self, upto: int) -> None:
        cs = self.counts
        for c in range(len(cs), upto + 1):
            total = 0
            for w, mult in self.distinct_q:
                if w <= c:
                    total += mult * cs[c - w]
            cs.append(total)

    def count(self, c: int) -> int:
        """Number of strings of cost c (c in quantum units; negative -> 0)."""
        if c < 0:
            return 0
        if c >= len(self.counts):
            self._extend_counts(c)
        return self.counts[c]

    def _assert_level0_structure(self) -> None:
        # every sub-unit achievable cost is a run of the cheapest letter
        l1 = self.distinct_q[0][0]
        for c in range(min(self.unit_q, self.k_q + 1)):
            if self.counts[c] > 0:
                assert c % l1 == 0 and self.counts[c] == 1, (
                    "cost %d below the unit is not a cheapest-letter run" % c
                )

    def level_of(self, cost_q: int) -> int | None:
        if cost_q >= self.k_q:
            return None
        if cost_q < self.unit_q:
            return 0
        return (cost_q - self.unit_q) // self.eps_q + 1

    def level_target(self, i: int) -> int:
        """The one admissible codeword cost on level i >= 1."""
        return self.unit_q + i * self.eps_q - 1

    def node_costs(self) -> list[Fraction]:
        return [c * self.quantum for c in self.nodes_q]


def build_cost_graph(norm: NormalizedInstance, k: Fraction) -> CostGraph:
    """Breadth-style enumeration of all codeword costs in [0, k]."""
    return CostGraph.for_instance(norm, Fraction(k))


@dataclass
class FreeStringTable:
    """v[c] = number of strings of cost c with no prefix in the codeword set."""

    graph: CostGraph
    v: list[int]

    def value(self, c: int) -> int:
        return self.v[c] if 0 <= c < len(self.v) else 0

    def decrement(self, c: int, amount: int) -> None:
        if self.v[c] < amount:
            raise InstanceError("free-string count underflow at cost %d" % c)
        self.v[c] -= amount


def count_free_strings(graph: CostGraph, codewords) -> FreeStringTable:
    """Exact free-string counts for every cost node, given the current set S.

    S may be a CodewordTrie (costs in quantum units) or an iterable of
    codewords; S must be prefix-free and every member must cost at most k.
    A string is free when no element of S is a prefix of it (itself included).
    """
    blocked: dict[int, int] = {}
    if isinstance(codewords, CodewordTrie):
        costs = codewords.cost_multiset_q()
    else:
        costs = [runs_cost_q(as_runs(w), _letters_q(graph)) for w in codewords]
    for c in costs:
        if c > graph.k_q:
            raise InstanceError("codeword cost beyond the graph frontier")
        blocked[c] = blocked.get(c, 0) + 1

    v = [0] * (graph.k_q + 1)
    v[0] = 1 - blocked.get(0, 0)
    for c in range(1, graph.k_q + 1):
        total = 0
        for w, mult in graph.distinct_q:
            if w <= c:
                total += mult * v[c - w]
        total -= blocked.get(c, 0)
        if total < 0:
            raise InstanceError("codeword set is not prefix-free")
        v[c] = total
    return FreeStringTable(graph, v)


def _letters_q(graph: CostGraph) -> list[int]:
    out: list[int] = []
    for w, mult in graph.distinct_q:
        out.extend([w] * mult)
    return out


def extend_beyond_k(
    graph: CostGraph, table: FreeStringTable, m: int
) -> list[tuple[int, int]] | Inconsistent:
    """The m cheapest strings of cost >= k with no prefix of cost < k in S.

    Returned as (cost_q, how_many) batches in increasing cost order; within a
    cost the concrete strings are resolved later by the trie materializer.
    Signals Inconsistent when fewer than m eligible strings exist at any cost.
    """
    if m <= 0:
        return []
    picks: list[tuple[int, int]] = []
    remaining = m
    ext: dict[int, int] = {}

    last_nonzero = -graph.max_letter_q - 1
    for c in range(graph.k_q + 1):
        if table.value(c) > 0:
            last_nonzero = c

    def val(c: int) -> int:
        if c < 0:
            return 0
        if c <= graph.k_q:
            return table.value(c)
        return ext.get(c, 0)

    c = graph.k_q
    while remaining > 0:
        if c > graph.k_q:
            total = 0
            for w, mult in graph.distinct_q:
                total += mult * val(c - w)
            ext[c] = total
        count_here = val(c)
        if count_here > 0:
            last_nonzero = c
            take = min(remaining, count_here)
            picks.append((c, take))
            remaining -= take
        if c - last_nonzero > graph.max_letter_q:
            return Inconsistent("only %d of %d tail codewords exist" % (m - remaining, m))
        c += 1
    return picks
