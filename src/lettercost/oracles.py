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
replayed on actual strings.
"""

from __future__ import annotations

import heapq
import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .core import CodeAssignment, Instance, InstanceError, runs_from_letters
from .driver import DEFAULT_BUDGET, BudgetExceeded

MAX_ORACLE_WORDS = 10
# past this many signature records the search stops: at ~0.8 KB a record
# with its heap entries, 2^20 of them keep it under ~1 GB
MAX_ORACLE_SIGNATURES = 2**20

# a signature: (words placed, ((offset, count), ...)) with offsets ascending
Signature = tuple[int, tuple[tuple[int, int], ...]]


@dataclass(frozen=True)
class OracleResult:
    optimal_cost: Fraction  # raw scale: original letter costs times raw weights
    optimal_code: CodeAssignment
    nodes_explored: int  # signatures settled

    @property
    def normalized_cost(self) -> Fraction:
        letters = self.optimal_code.letters
        return self.optimal_cost / letters.costs[1]


def exact_optimal(instance: Instance, budget: int = DEFAULT_BUDGET) -> OracleResult:
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
    does. nodes_explored counts the states settled; past budget of them, or
    past MAX_ORACLE_SIGNATURES signatures kept, BudgetExceeded.

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
    # unplaced[m]: weight of words m.., charged per unit of cost climbed
    unplaced = list(itertools.accumulate(reversed(weights), initial=0))[::-1]
    mults = dict(Counter(costs))
    # (offset, pending count, letter count) at each letter cost
    children = {c: (c, 0, mult) for c, mult in mults.items()}

    # the start: the root already expanded, its n cheapest children kept
    gap, keep, pending = min(mults), n, []
    for c in sorted(mults):
        pending.append((c - gap, min(mults[c], keep)))
        keep -= mults[c]
        if keep <= 0:
            break
    start: Signature = (0, tuple(pending))
    goal: Signature = (n, ())
    # each reached signature's record: (distance, predecessor, leaf count)
    records: dict[Signature, tuple[int, Signature | None, int]] = {
        start: (unplaced[0] * gap, None, 0)
    }
    tie = itertools.count()  # equal distances settle in insertion order
    heap = [(records[start][0], next(tie), start)]
    settled = 0
    while True:
        d, _, state = heapq.heappop(heap)
        if d > records[state][0]:
            continue  # superseded by a shorter path
        settled += 1
        if settled > budget:
            raise BudgetExceeded(
                settled,
                budget,
                "exact oracle exceeded budget (%d states settled, budget %d)" % (settled, budget),
            )
        if len(records) > MAX_ORACLE_SIGNATURES:
            raise BudgetExceeded(
                settled,
                budget,
                "exact oracle kept %d signatures, over its bound of %d (%d states settled)"
                % (len(records), MAX_ORACLE_SIGNATURES, settled),
            )
        if state == goal:
            break
        m, pending = state
        w0 = pending[0][1]
        # the other pending nodes and the children of the expanded ones,
        # merged once as (offset, pending count, letter count) in offset
        # order; each move expands its own count of nodes, and one walk over
        # the merged list keeps the cheapest that the words left can use
        nodes = children.copy()
        for off, count in pending[1:]:
            nodes[off] = (off, count, mults.get(off, 0))
        merged = sorted(nodes.values())
        left = n - m
        for x in range(min(w0, left) + 1):
            keep = left - x
            if keep == 0:
                nxt, nd = goal, d
            else:
                expand = min(w0 - x, keep)
                gap = None
                after = []
                for off, count, mult in merged:
                    count += expand * mult
                    if count:
                        if gap is None:
                            gap = off
                        if count >= keep:
                            after.append((off - gap, keep))
                            break
                        after.append((off - gap, count))
                        keep -= count
                if gap is None:
                    continue  # no node left
                nxt, nd = (m + x, tuple(after)), d + unplaced[m + x] * gap
            if nd < records.get(nxt, (nd + 1,))[0]:
                records[nxt] = (nd, state, x)
                heapq.heappush(heap, (nd, next(tie), nxt))

    leaf_counts = []
    while state != start:
        _, state, x = records[state]
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
    cost = Fraction(d, instance.scale * letters.scale)
    return OracleResult(cost * instance.weight_total, CodeAssignment(codewords, letters), settled)


def lower_bound(instance: Instance) -> Fraction:
    """1 - p1: every codeword but at most one carries a letter of cost >= l2,
    so the code costs at least this much in units of the second letter cost."""
    return Fraction(instance.scale - instance.weights_int[0], instance.scale)
