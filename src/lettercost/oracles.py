"""Ground-truth solvers for small instances and classical baselines.

exact_optimal builds an optimal code tree one cost level at a time, cheapest
level first, by Dijkstra's algorithm over truncated-tree signatures (Golin
and Rote, IEEE Trans. IT 44(5), 1998). A signature is the number of words
placed so far, heaviest first, plus the pending tree nodes as (offset, count)
pairs measured from the level being decided. At that level some nodes become
leaves for the next words and the others are expanded, one child per letter.
Only the cheapest pending nodes that the unplaced words can still use are
kept, so the signatures are few. Climbing to the next nonempty level charges
the weight of the unplaced words times the gap, so every edge but the last
costs a positive amount and the first time the search settles the finished
signature its distance is the optimum. The winning leaf counts are then
replayed on actual strings. The structural bound cost >= (1 - p1) * l2
sanity-checks the result.

huffman_equal_costs is the classical greedy merge, valid only when every
letter costs the same; it cross-checks exact_optimal on that subfamily.
"""

from __future__ import annotations

import heapq
import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .core import (
    CodeAssignment,
    Instance,
    InstanceError,
    Runs,
    runs_from_letters,
)

MAX_ORACLE_WORDS = 10

# a signature: (words placed, ((offset, count), ...)) with offsets ascending
Signature = tuple[int, tuple[tuple[int, int], ...]]


@dataclass(frozen=True)
class OracleResult:
    optimal_cost: Fraction  # raw scale: original letter costs times raw weights
    optimal_code: CodeAssignment
    nodes_explored: int  # exact_optimal: states settled; huffman: items pushed on its heap

    @property
    def normalized_cost(self) -> Fraction:
        letters = self.optimal_code.letters
        return self.optimal_cost / letters.costs[1]


def exact_optimal(instance: Instance) -> OracleResult:
    """Exact minimum-cost prefix code, ordered: word i gets the i-th cheapest
    codeword.

    Word m's codeword sits on a leaf of the code tree. Going up the cost
    levels of the tree, the words placed so far are the heaviest ones, and
    the search state is the signature (m, pending nodes). The start is the
    root already expanded, since a codeword is never empty. A move at a level
    with w0 nodes takes x of them as leaves for words m..m+x-1 and expands
    min(w0 - x, n - m - x) of the rest: an expanded node that no word uses
    costs nothing, so expanding fewer never helps. Then only the n - m - x
    cheapest pending nodes are kept, as the words left use at most that many
    disjoint subtrees and a cheaper node holds any subtree a costlier one
    does. nodes_explored counts the states settled.

    Everything runs in integers: codeword costs times letters.scale and
    probabilities times instance.scale, with one Fraction for the result.
    Raises InstanceError above MAX_ORACLE_WORDS words.
    """
    n = instance.n
    if n > MAX_ORACLE_WORDS:
        raise InstanceError("instance too large for the exact oracle (n=%d)" % n)
    letters = instance.letters
    costs = letters.costs_int
    weights = instance.weights_int
    by_cost = sorted(Counter(costs).items())
    # unplaced[m]: weight of words m.., charged per unit of cost climbed
    unplaced = list(itertools.accumulate(reversed(weights), initial=0))[::-1]

    def climb(rest, expand: int, keep: int):
        """(gap, pending) after expanding `expand` nodes at the current level,
        rest being the nodes above it: the `keep` cheapest, with offsets from
        the cheapest one, which lies `gap` above the current level. None when
        no node is left."""
        nodes = dict(rest)
        if expand:
            for c, mult in by_cost:
                nodes[c] = nodes.get(c, 0) + expand * mult
        if not nodes:
            return None
        offsets = sorted(nodes)
        gap = offsets[0]
        pending = []
        for off in offsets:
            cnt = nodes[off]
            if cnt >= keep:
                pending.append((off - gap, keep))
                break
            pending.append((off - gap, cnt))
            keep -= cnt
        return gap, tuple(pending)

    gap, pending = climb((), 1, n)
    start: Signature = (0, pending)
    goal: Signature = (n, ())
    dist = {start: unplaced[0] * gap}
    came_from: dict[Signature, tuple[Signature, int]] = {}
    tie = itertools.count()  # equal distances settle in insertion order
    heap = [(dist[start], next(tie), start)]
    settled = 0
    while True:
        d, _, state = heapq.heappop(heap)
        if d > dist[state]:
            continue  # superseded by a shorter path
        settled += 1
        if state == goal:
            break
        m, pending = state
        w0 = pending[0][1]
        rest = pending[1:]
        for x in range(min(w0, n - m) + 1):
            left = n - m - x
            if left == 0:
                nxt, nd = goal, d
            else:
                moved = climb(rest, min(w0 - x, left), left)
                if moved is None:
                    continue
                gap, after = moved
                nxt, nd = (m + x, after), d + unplaced[m + x] * gap
            if nd < dist.get(nxt, nd + 1):
                dist[nxt] = nd
                came_from[nxt] = (state, x)
                heapq.heappush(heap, (nd, next(tie), nxt))
    best = d

    leaf_counts = []
    while state != start:
        state, x = came_from[state]
        leaf_counts.append(x)
    leaf_counts.reverse()

    # replay on strings: nodes as (cost, letters), so each level's nodes go
    # in letter order, leaves first, and truncation keeps the same counts
    frontier = sorted((c, (let,)) for let, c in enumerate(costs))[:n]
    words: list[tuple[int, ...]] = []
    for x in leaf_counts:
        level = frontier[0][0]
        w0 = sum(1 for c, _ in frontier if c == level)
        left = n - len(words) - x
        words.extend(word for _, word in frontier[:x])
        expand = frontier[x : x + min(w0 - x, left)]
        children = [(c + cl, word + (let,)) for c, word in expand for let, cl in enumerate(costs)]
        frontier = sorted(frontier[w0:] + children)[:left]

    codewords = tuple(runs_from_letters(w) for w in words)
    assignment = CodeAssignment(codewords, letters)
    assert sum(w * c for w, c in zip(weights, assignment.costs_int())) == best
    # cost >= (1 - p1) * l2, both sides times instance.scale * letters.scale
    assert best >= (instance.scale - weights[0]) * costs[1]
    cost = Fraction(best, instance.scale * letters.scale)
    return OracleResult(cost * instance.weight_total, assignment, settled)


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
