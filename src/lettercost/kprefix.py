"""Construction of minimum-cost leveled codes under per-level count constraints.

Given the cost graph and a constraint tuple (the level-0 codeword size plus a
codeword count per level), build a code that is k-prefix free, has exactly the
requested number of codewords at each level's single admissible cost, and
completes to n codewords with the cheapest strings of cost >= k. Among all
codes meeting the constraints, the result has minimum cost; when none exists
the result is the falsy Inconsistent value, not an exception. solve does not
call it: the guess search values guesses with the same counts and keeps the
cheapest one's picks, from which solve makes its LeveledCode directly.
construct_leveled rebuilds a code from a guess, for callers that hold only
the guess. Feasibility uses the cost graph's closed-form free-string count,
the one the guess search uses: each level's request is checked against
CostGraph.free at its target cost, and the tail comes from the same
CostGraph.tail walk, so for the search's winning guess it returns the picks
that solve builds its code from.

A code is kept as (cost, how_many) picks, the pairs CostGraph.free and
CostGraph.tail take, so construction cost never depends on codeword length.
Codewords materialize lazily: each pick takes the first free strings of its
cost in letter-index order, found by a depth-first walk with an explicit
stack whose frames carry their prefix as runs. The blocking codewords (cost
< k) are kept as per-cost sets of runs, with no node per letter, so neither
Python stack depth nor memory grows with codeword length in letters. The
walk of a tail pick stops at each string's shortest prefix alpha of cost
>= k and appends the first strings of the remaining cost from a suffix table
per cost, which every pick of the code shares. The code keeps one
materialized value, its codewords with that split and the suffix tables,
and convert_to_prefix reads it, so the escape conversion splices each alpha
and each suffix once.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator, Sequence

from .core import (
    InstanceError,
    NormalizedInstance,
    Runs,
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


# a materialized code: its codewords in word order; each tail codeword's split
# at its shortest prefix alpha of cost >= k, as (alpha, suffix cost, how many
# suffixes) in word order; and the suffix strings of each cost in letter order
Materialized = tuple[list[Runs], list[tuple[Runs, int, int]], dict[int, list[Runs]]]


@dataclass
class LeveledCode:
    """A leveled k-prefix code in implicit form.

    picks: (cost_q, count) pairs in increasing cost order: the level-0 run,
    when present, then each nonempty level at its target cost, then the tail
    batches of cost >= k. Word i receives the i-th codeword in this order
    (most probable word first).
    """

    norm: NormalizedInstance
    graph: CostGraph
    picks: list[tuple[int, int]]
    # _materialize's value, made on first use
    _materialized: Materialized | None = field(default=None, init=False, compare=False, repr=False)

    @property
    def word_costs_q(self) -> list[int]:
        return [cost_q for cost_q, count in self.picks for _ in range(count)]

    @property
    def codewords(self) -> list[Runs]:
        """Materialized codewords in word order (cheapest first). Raises
        InstanceError when a pick asks for more free strings than exist."""
        return self._parts()[0]

    def _parts(self) -> Materialized:
        """The materialized code: codewords, tail splits and suffix tables."""
        if self._materialized is None:
            self._materialized = _materialize(self)
        return self._materialized


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
    for lvl, count in sorted(wanted.items()):
        if count == 0:
            continue
        if bump:
            bump()
        target = graph.level_target(lvl)
        if graph.free(target, blockers) < count:
            return Inconsistent("level %d cannot host %d codewords" % (lvl, count))
        blockers.append((target, count))

    missing = n - guess.codeword_total()
    tail = graph.tail(missing, blockers, bump)
    if tail is None:
        return Inconsistent("fewer than %d tail codewords exist" % missing)
    return LeveledCode(norm, graph, blockers + tail)


# ---------------------------------------------------------------------------
# materialization of implicit picks into concrete codewords


def _walk(
    letters_q: Sequence[int],
    count: list[int],
    cost_q: int,
    cut_q: int,
    blocked: dict[int, set[Runs]],
) -> Iterator[tuple[Runs, int]]:
    """Yield (prefix, rest) pairs in letter-index order: each string of cost
    cost_q with no blocking prefix, as (string, 0), except that a prefix whose
    cost reaches cut_q is yielded with the cost `rest` its strings still need,
    and not walked below.

    One depth-first walk on an explicit stack of (prefix runs, remaining cost,
    next letter) frames. It cuts a prefix with no string of the remaining
    cost below it or that is a blocking codeword. Below a prefix that is not
    cut, some string of the cost either is free or has a blocking prefix
    below it, so the walk goes no deeper than the strings it yields and the
    blocking codewords.
    """
    r = len(letters_q)
    # a frame tries one letter, which fits its remaining cost (a string of
    # that cost exists); the frame for the next letter goes below the
    # child's, so the walk goes in letter order
    stack = [((), cost_q, 0)]
    while stack:
        runs, budget, let = stack.pop()
        if let + 1 < r and letters_q[let + 1] <= budget:  # letters are sorted by cost
            stack.append((runs, budget, let + 1))
        rest = budget - letters_q[let]
        if not count[rest]:
            continue
        if runs and runs[-1][0] == let:
            runs = runs[:-1] + ((let, runs[-1][1] + 1),)
        else:
            runs = runs + ((let, 1),)
        spent = cost_q - rest
        marks = blocked.get(spent)
        if marks is not None and runs in marks:
            continue
        if rest and spent < cut_q:
            stack.append((runs, rest, 0))
        else:
            yield runs, rest


def _materialize(code: LeveledCode) -> Materialized:
    """Resolve each (cost, count) pick into the first `count` free strings of
    its cost in letter-index order (letters are sorted by cost, so cheaper
    letters come first), in word order.

    A string is free when no blocking codeword is a prefix of it. A pick
    blocks later picks exactly when its cost is below k, the relaxed prefix
    rule. Below cost 1 each cost holds one string, a cheapest-letter run
    (CostGraph checks this), so the level-0 pick's walk finds a^f0. Blocking
    codewords are kept as sets of runs keyed by cost, so a prefix is looked
    up only when its cost is a key. A subtree whose strings are all blocked
    is walked again by each later pick whose strings sort after it.

    A string of cost >= k is alpha + beta, alpha its shortest prefix of cost
    >= k. Every blocking codeword costs less than k, so only alpha decides
    whether the string is free, and since such prefixes are prefix free,
    letter order is (alpha, beta) order. So a tail pick's walk stops at each
    free alpha and pairs it with the first strings of the remaining cost,
    taken from a suffix table per cost. The tables are shared by every pick
    of the code and are filled lazily by the same walk with no blockers, so
    none holds more strings than one pick asked of it. Returns the codewords,
    each alpha with its table's cost and how many of its strings it took, and
    the tables' strings.
    """
    letters_q = code.norm.letters_q
    graph = code.graph
    k_q = graph.k_q
    blocked: dict[int, set[Runs]] = {}
    # suffix tables: cost -> (its first strings in letter order, each as
    # (beta, first letter, first run length, beta past its first run), and
    # the walk that yields the rest); cost 0 holds only the empty string,
    # which a walk, starting from a letter, cannot yield
    tables: dict[int, tuple[list[tuple[Runs, int, int, Runs]], Iterator]] = {
        0: ([((), -1, 0, ())], iter(()))
    }
    tails: list[tuple[Runs, int, int]] = []
    words: list[Runs] = []
    for cost_q, take in code.picks:
        graph.count(cost_q)  # extends the string counts to every cost read below
        count = graph.counts
        walk = _walk(letters_q, count, cost_q, k_q, blocked)
        if cost_q < k_q:
            out = [runs for runs, _ in itertools.islice(walk, take)]
            blocked.setdefault(cost_q, set()).update(out)
        else:
            out = []
            for alpha, rest in walk:
                table = tables.get(rest)
                if table is None:
                    table = tables[rest] = ([], _walk(letters_q, count, rest, rest, {}))
                rows, more = table
                used = take - len(out)
                if used > len(rows):
                    rows.extend(
                        (beta, beta[0][0], beta[0][1], beta[1:])
                        for beta, _ in itertools.islice(more, used - len(rows))
                    )
                    used = min(used, len(rows))
                tails.append((alpha, rest, used))
                # alpha + beta, with runs merged at the seam; alpha with its
                # last run lengthened is made once per length
                let, rep = alpha[-1]
                heads: dict[int, Runs] = {}
                for beta, first, first_rep, beta_rest in rows[:used]:
                    if first == let:
                        head = heads.get(first_rep)
                        if head is None:
                            head = heads[first_rep] = alpha[:-1] + ((let, rep + first_rep),)
                        out.append(head + beta_rest)
                    else:
                        out.append(alpha + beta)
                if len(out) == take:
                    break
        if len(out) < take:
            raise InstanceError(
                "a pick asks for %d strings of cost %d quanta; only %d are free"
                % (take, cost_q, len(out))
            )
        words.extend(out)
    return words, tails, {rest: [row[0] for row in rows] for rest, (rows, _) in tables.items()}
