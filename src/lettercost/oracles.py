"""Ground-truth solvers for small instances and classical baselines.

exact_optimal performs branch and bound over ordered prefix codes: candidate
codewords are enumerated in (cost, lexicographic) order, each word in turn
takes a candidate no cheaper than its predecessor's, and a branch dies when
its accumulated cost plus the cheapest possible completion (per-word cheapest
remaining candidates, conflicts ignored) cannot beat the incumbent. The
structural bound cost >= (1 - p1) * l2 sanity-checks the result.

huffman_equal_costs is the classical greedy merge, valid only when every
letter costs the same; it cross-checks exact_optimal on that subfamily.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .core import (
    CodeAssignment,
    Instance,
    InstanceError,
    Runs,
    runs_from_letters,
)

MAX_ORACLE_WORDS = 10


@dataclass(frozen=True)
class OracleResult:
    optimal_cost: Fraction  # raw scale: original letter costs times raw weights
    optimal_code: CodeAssignment
    nodes_explored: int

    @property
    def normalized_cost(self) -> Fraction:
        letters = self.optimal_code.letters
        return self.optimal_cost / letters.costs[1]


def exact_optimal(
    instance: Instance,
    depth_cap: int | None = None,
) -> OracleResult:
    """Exact minimum-cost prefix code over codewords of at most depth_cap letters.

    depth_cap defaults to 2n. The search itself never needs codewords longer
    than n-1 letters: a code trie with a single-child internal node contracts
    to a strictly cheaper prefix code, so some optimal trie has at most n-1
    internal nodes and hence depth at most n-1. Candidates are therefore
    enumerated up to min(depth_cap, n-1) letters without changing the result.
    Raises InstanceError when no prefix code of n words fits in depth_cap
    letters.

    The search runs in integers: codeword costs times letters.scale and
    probabilities times instance.scale, so every partial cost, bound and
    incumbent is the true value times the one positive constant
    instance.scale * letters.scale, and compares the same way.
    """
    n = instance.n
    if n > MAX_ORACLE_WORDS:
        raise InstanceError("instance too large for the exact oracle (n=%d)" % n)
    if depth_cap is None:
        depth_cap = 2 * n
    letters = instance.letters
    costs = letters.costs_int
    weights = instance.weights_int
    r = letters.r

    # initial incumbent: the n cheapest codewords of one common length
    # (all the same length, hence prefix-free); no shorter length holds n
    depth = 1
    while r**depth < n:
        depth += 1
    if depth_cap < depth:
        raise InstanceError(
            "no prefix code of %d words has codewords of at most %d letters" % (n, depth_cap)
        )
    best_words = sorted(
        itertools.product(range(r), repeat=depth),
        key=lambda w: (sum(costs[let] for let in w), w),
    )[:n]
    best = sum(weights[i] * sum(costs[let] for let in w) for i, w in enumerate(best_words))
    nodes = 0

    # every string of at most word_cap letters, streamed in (cost, lex)
    # order: pool_words[i] is the i-th string, pool_costs[i] its cost
    word_cap = min(depth_cap, max(n - 1, 1))
    heap = [(c, (let,)) for let, c in enumerate(costs)]
    heapq.heapify(heap)
    pool_costs: list[int] = []
    pool_words: list[tuple[int, ...]] = []

    def ensure(count: int) -> bool:
        """Grow the pool to `count` strings; False if there are fewer."""
        while len(pool_costs) < count:
            if not heap:
                return False
            cost, word = heapq.heappop(heap)
            pool_costs.append(cost)
            pool_words.append(word)
            if len(word) < word_cap:
                for let, c in enumerate(costs):
                    heapq.heappush(heap, (cost + c, word + (let,)))
        return True

    def conflicts(word: tuple[int, ...], chosen: list[tuple[int, ...]]) -> bool:
        # word cannot be a prefix of a chosen word: those come earlier in
        # (cost, lex) order, and a proper prefix costs strictly less
        for other in chosen:
            if word[: len(other)] == other:
                return True
        return False

    chosen: list[tuple[int, ...]] = []

    def dfs(word_i: int, min_idx: int, partial: int) -> None:
        nonlocal best, best_words, nodes
        if word_i == n:
            if partial < best:
                best = partial
                best_words = list(chosen)
            return
        remaining = n - word_i
        rest = weights[word_i:]
        weight = rest[0]
        idx = min_idx
        while True:
            nodes += 1
            if not ensure(idx + remaining):
                return
            # cheapest conceivable completion for words word_i..: each takes
            # the next candidate in pool order, conflicts ignored
            bound = sum(map(mul, rest, pool_costs[idx : idx + remaining]))
            if partial + bound >= best:
                return  # candidates only get costlier from here
            word = pool_words[idx]
            if not conflicts(word, chosen):
                chosen.append(word)
                dfs(word_i + 1, idx + 1, partial + weight * pool_costs[idx])
                chosen.pop()
            idx += 1

    dfs(0, 0, 0)

    codewords = tuple(runs_from_letters(w) for w in best_words)
    assignment = CodeAssignment(codewords, letters)
    # cost >= (1 - p1) * l2, both sides times instance.scale * letters.scale
    assert best >= (instance.scale - weights[0]) * costs[1]
    cost = Fraction(best, instance.scale * letters.scale)
    return OracleResult(cost * instance.weight_total, assignment, nodes)


def huffman_equal_costs(instance: Instance) -> OracleResult:
    """Classical greedy merge; requires every letter cost to be equal.

    Merges integer weights (probabilities times instance.scale), ties broken
    by entry index, and builds the cost once from the codeword lengths.
    """
    letters = instance.letters
    if len(set(letters.costs_int)) != 1:
        raise InstanceError("letter costs are not all equal")
    r = letters.r
    n = instance.n
    weights = instance.weights_int

    # pad with zero-weight dummies so the r-ary merge comes out full
    pad = 0
    while (n + pad - 1) % (r - 1) != 0:
        pad += 1
    heap = [(w, i) for i, w in enumerate(weights)] + [(0, n + j) for j in range(pad)]
    heapq.heapify(heap)
    groups: dict[int, list[int]] = {i: [i] if i < n else [] for i in range(n + pad)}
    counter = n + pad
    depth = [0] * n
    while len(heap) > 1:
        members: list[int] = []
        total = 0
        for _ in range(min(r, len(heap))):
            w, i = heapq.heappop(heap)
            total += w
            members.extend(groups.pop(i))
        for m in members:
            depth[m] += 1
        groups[counter] = members
        heapq.heappush(heap, (total, counter))
        counter += 1

    # canonical codeword allocation: word i takes the i-th smallest depth,
    # which keeps the assignment ordered (same depth multiset, same cost);
    # a lone word still takes one letter
    depths = sorted(depth) if n > 1 else [1]
    available: list[tuple[int, ...]] = [()]
    cur_len = 0
    codewords: list[Runs] = []
    for d in depths:
        while cur_len < d:
            available = [w + (let,) for w in available for let in range(r)]
            cur_len += 1
        codewords.append(runs_from_letters(available.pop(0)))
    assignment = CodeAssignment(tuple(codewords), letters)
    value = sum(w * d for w, d in zip(weights, depths)) * letters.costs_int[0]
    cost = Fraction(value, instance.scale * letters.scale)
    return OracleResult(cost * instance.weight_total, assignment, nodes_explored=counter)


def lower_bound(instance: Instance) -> Fraction:
    """1 - p1: every codeword but at most one carries a letter of cost >= l2,
    so the code costs at least this much in units of the second letter cost."""
    return Fraction(instance.scale - instance.weights_int[0], instance.scale)
