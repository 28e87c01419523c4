"""Construction of minimum-cost leveled codes under per-level count constraints.

Given the cost graph and a constraint tuple (the level-0 codeword size plus a
codeword count per level), build a code that is k-prefix free, has exactly the
requested number of codewords at each level's single admissible cost, and
completes to n codewords with the cheapest strings of cost >= k. Among all
codes meeting the constraints, the result has minimum cost; when none exists
the result is the Inconsistent value, a routine outcome for the guess search.
Feasibility uses the cost graph's closed-form free-string count, the one the
guess search uses: each level's request is checked against CostGraph.free at
its target cost, and the tail comes from the same CostGraph.tail walk.

Codewords are kept implicit as (cost, how_many) selections, so construction
cost never depends on total codeword length. Concrete codewords materialize
lazily: each selection takes the first free strings of its cost in
letter-index order, found by a depth-first walk with an explicit stack whose
frames carry their prefix as runs. Only the paths of blocking codewords (cost
< k) are kept in a trie; off it every string is free, so the free count of a
subtree is a plain string count. Python stack depth does not grow with
codeword length.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .core import (
    InstanceError,
    NormalizedInstance,
    Runs,
    runs_cost_q,
)
from .cost_graph import CostGraph, Inconsistent


class OpCounter:
    """Cheap unit-of-work counter for the runtime scaling checks."""

    __slots__ = ("count",)

    def __init__(self):
        self.count = 0

    def bump(self, amount: int = 1) -> None:
        self.count += amount


@dataclass(frozen=True)
class Guess:
    """Constraint tuple: level-0 codeword size, plus counts for levels >= 1.

    f0 is the letter count of the single sub-unit-cost codeword (0 for none);
    level_counts holds (level index, codeword count) pairs, ascending, with
    zero-count levels omitted.
    """

    f0: int
    level_counts: tuple[tuple[int, int], ...] = ()

    @property
    def level_words(self) -> int:
        return sum(cnt for _, cnt in self.level_counts)

    def codeword_total(self) -> int:
        return self.level_words + (1 if self.f0 > 0 else 0)

    def fits(self, n: int) -> bool:
        return self.codeword_total() <= n


@dataclass
class LeveledCode:
    """A leveled k-prefix code in implicit form.

    level_picks: (level, cost_q, count) per nonempty level, ascending;
    tail_picks: (cost_q, count) batches of cost >= k, ascending.
    Word i receives the i-th codeword in this cost order (most probable word
    first), with the level-0 codeword, when present, cheapest of all.
    """

    norm: NormalizedInstance
    graph: CostGraph
    guess: Guess
    n: int
    level_picks: list[tuple[int, int, int]]
    tail_picks: list[tuple[int, int]]
    _codewords: list[Runs] | None = field(default=None, repr=False)

    @property
    def word_costs_q(self) -> list[int]:
        out = []
        if self.guess.f0 > 0:
            out.append(self.guess.f0 * self.norm.letters_q[0])
        for _, cost_q, count in self.level_picks:
            out.extend([cost_q] * count)
        for cost_q, count in self.tail_picks:
            out.extend([cost_q] * count)
        return out

    def cost_for(self, probabilities):
        """Probability-weighted cost in normalized cost units."""
        costs = self.word_costs_q
        return sum(p * c for p, c in zip(probabilities, costs)) * self.graph.quantum

    @property
    def codewords(self) -> list[Runs]:
        """Materialized codewords in word order (cheapest first)."""
        if self._codewords is None:
            self._codewords = _materialize(self)
        return self._codewords


def construct_leveled(
    norm: NormalizedInstance,
    graph: CostGraph,
    guess: Guess,
    n: int,
    ops: OpCounter | None = None,
) -> LeveledCode | Inconsistent:
    """Build a minimum-cost leveled k-prefix code consistent with the guess.

    Checks each level's request against the free strings at its target cost,
    in increasing level order, with the level-0 run and the lower levels'
    codewords as blockers; then completes with the cheapest eligible strings
    of cost >= k. ops, when given, counts one per level checked and one per
    cost the tail walk visits.
    """
    bump = ops.bump if ops is not None else None
    l1_q = norm.letters_q[0]
    if guess.f0 < 0 or any(c < 0 for _, c in guess.level_counts):
        raise InstanceError("guess counts must be nonnegative")
    if not guess.fits(n):
        return Inconsistent("guess places more codewords than words")
    if guess.f0 > 0 and guess.f0 * l1_q >= graph.unit_q:
        return Inconsistent("level-0 codeword size %d costs at least 1" % guess.f0)

    wanted = dict(guess.level_counts)
    if any(not 1 <= lvl <= graph.level_count for lvl in wanted):
        return Inconsistent("guess names a level outside 1..%d" % graph.level_count)

    # (cost_q, how_many) of every codeword below k chosen so far
    blockers: list[tuple[int, int]] = [(guess.f0 * l1_q, 1)] if guess.f0 > 0 else []
    level_picks: list[tuple[int, int, int]] = []
    for lvl, count in sorted(wanted.items()):
        if count == 0:
            continue
        if bump:
            bump()
        target = graph.level_target(lvl)
        if graph.free(target, blockers) < count:
            return Inconsistent("level %d cannot host %d codewords" % (lvl, count))
        blockers.append((target, count))
        level_picks.append((lvl, target, count))

    missing = n - guess.codeword_total()
    tail = graph.tail(missing, blockers, bump)
    if tail is None:
        return Inconsistent("fewer than %d tail codewords exist" % missing)
    return LeveledCode(norm, graph, guess, n, level_picks, tail)


# ---------------------------------------------------------------------------
# materialization of implicit selections into concrete codewords


class _MatNode:
    """A trie node on the path of a blocking codeword (cost < k)."""

    __slots__ = ("children", "blocking", "blocked")

    def __init__(self):
        self.children: dict[int, "_MatNode"] = {}
        self.blocking = False  # a codeword of cost < k ends here
        self.blocked: dict[int, int] = {}  # cost -> blocking codewords below


class _Materializer:
    """Resolves (cost, count) selections into the first `count` free strings of
    that cost in letter-index order (letters are sorted by cost, so cheaper
    letters come first).

    The trie holds only the paths of blocking codewords. Counts of candidate
    continuations come from the graph's string counts minus the continuations
    cut off by blocking marks; below a string that is not in the trie nothing
    is marked, so every continuation is free. Marks of cost >= k do not block,
    matching the relaxed prefix rule for the tail, so tail selections add no
    nodes.
    """

    def __init__(self, graph: CostGraph, letters_q: Sequence[int]):
        self.graph = graph
        self.letters_q = letters_q
        self.root = _MatNode()

    def mark(self, runs: Runs) -> None:
        """Record a blocking codeword: mark the end of its path and count it at
        every proper prefix, under its cost."""
        total = runs_cost_q(runs, self.letters_q)
        node = self.root
        for let, rep in runs:
            for _ in range(rep):
                node.blocked[total] = node.blocked.get(total, 0) + 1
                nxt = node.children.get(let)
                if nxt is None:
                    nxt = node.children[let] = _MatNode()
                node = nxt
        assert not node.blocking, "codeword selected twice"
        node.blocking = True

    def select(self, cost_q: int, take: int, blocking: bool) -> list[Runs]:
        """The first `take` free strings of cost cost_q, marked when blocking.

        A depth-first walk with an explicit stack. A frame is [trie node (None
        off the trie), remaining cost, strings still wanted below it, its
        prefix as runs, next letter to try]; a frame that has handed out all it
        wants is dropped before its last child is entered, so the stack holds
        only the prefixes that still branch.

        A blocking codeword of cost c below a child cuts off count(cost_q - c)
        of the child's continuations. Selections come in increasing cost
        order (the level-0 run, the levels, then the tail, which marks
        nothing), so no mark costs more than cost_q; the root counts every
        mark.
        """
        assert max(self.root.blocked, default=0) <= cost_q, "selections out of cost order"
        letters_q = self.letters_q
        r = len(letters_q)
        self.graph.count(cost_q)  # extends the string counts to every cost read below
        count = self.graph.counts
        out: list[Runs] = []
        stack: list[list] = [[self.root, cost_q, take, (), 0]]
        while stack:
            frame = stack[-1]
            node, budget, want, runs, let = frame
            if let == r or letters_q[let] > budget:  # letters are sorted by cost
                stack.pop()
                continue
            frame[4] = let + 1
            rest = budget - letters_q[let]
            avail = count[rest]
            child = node.children.get(let) if node is not None else None
            if child is not None:
                if child.blocking:
                    continue
                for c, cnt in child.blocked.items():
                    avail -= cnt * count[cost_q - c]
            if avail <= 0:
                continue
            if avail >= want:  # this child supplies the rest; the frame is done
                avail = want
                stack.pop()
            else:
                frame[2] = want - avail
            if runs and runs[-1][0] == let:
                runs = runs[:-1] + ((let, runs[-1][1] + 1),)
            else:
                runs = runs + ((let, 1),)
            if rest:
                stack.append([child, rest, avail, runs, 0])
            else:
                out.append(runs)
                if blocking:
                    self.mark(runs)
        assert len(out) == take, "materialization found %d of %d codewords" % (len(out), take)
        return out


def _materialize(code: LeveledCode) -> list[Runs]:
    mat = _Materializer(code.graph, code.norm.letters_q)
    words: list[Runs] = []
    if code.guess.f0 > 0:
        runs = ((0, code.guess.f0),)
        mat.mark(runs)
        words.append(runs)
    for _, cost_q, count in code.level_picks:
        words.extend(mat.select(cost_q, count, blocking=True))
    for cost_q, count in code.tail_picks:
        words.extend(mat.select(cost_q, count, blocking=False))
    assert len(words) == code.n
    return words
