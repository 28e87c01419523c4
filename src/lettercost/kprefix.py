"""Construction of minimum-cost leveled codes under per-level count constraints.

Given the cost graph and a constraint tuple (the level-0 codeword size plus a
codeword count per level), build a code that is k-prefix free, has exactly the
requested number of codewords at each level's single admissible cost, and
completes to n codewords with the cheapest strings of cost >= k. Among all
codes meeting the constraints, the result has minimum cost; when none exists
it raises InstanceError, as it does for a malformed guess. solve does not
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
cost in letter-index order, found by two depth-first walks in that order,
each on an explicit stack whose frames carry their prefix as runs. The
first fills every pick below k at once. Its codewords block, kept as
per-cost sets of runs with no node per letter, so neither Python stack depth
nor memory grows with codeword length in letters. The second yields each
free string's shortest prefix alpha of cost >= k once, to each tail pick
still wanting strings that extends it, which appends the first strings of
the remaining cost from a suffix table per cost that all picks share. A
walk enters a prefix only while a pick wanting strings extends it. The code
keeps one materialized value: codewords, that split and the tables.

convert_to_prefix then makes a true prefix code. Codewords cheaper than k
pass through; a codeword alpha + beta of cost >= k becomes
(alpha + enc(i) without its final 'b') + ('b' + beta + 'b'), runs merged
inside each part. The escape block enc(i) spells out, in doubled binary, the
count i of second letters in beta, so its end ("ab") is unmistakable and no
codeword is a prefix of another; total cost grows by at most the factor
1 + l2*(5 + 2*log2(k))/k. From the materialized value, the first part is
built once per alpha and count, the second once per suffix, and each
codeword is one tuple concatenation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Collection, Iterator, Sequence

from .core import (
    CodeAssignment,
    InstanceError,
    NormalizedInstance,
    Rational,
    Runs,
    _unchecked,
    runs_from_letters,
)
from .cost_graph import CostGraph


class OpCounter:
    """Cheap unit-of-work counter for the runtime scaling checks."""

    __slots__ = ("count",)

    def __init__(self):
        self.count = 0

    def bump(self) -> None:
        self.count += 1


@dataclass(frozen=True)
class Guess:
    """Constraint tuple: level-0 codeword size, plus counts for levels >= 1.

    f0 is the letter count of the single sub-unit-cost codeword (0 for none);
    level_counts holds (level index, codeword count) pairs, ascending, with
    zero-count levels omitted.
    """

    f0: int
    level_counts: tuple[tuple[int, int], ...] = ()


# a materialized code: its codewords in word order; each tail codeword's split
# at its shortest prefix alpha of cost >= k, as (alpha, suffix cost, how many
# suffixes) in word order; and per suffix cost, its rows in letter order, each
# (beta, first letter, first run length, beta past its first run), and the walk
# that yields the rest
SuffixRow = tuple[Runs, int, int, Runs]
Materialized = tuple[tuple[Runs, ...], list[tuple[Runs, int, int]], dict[int, tuple[list[SuffixRow], Iterator]]]


@dataclass
class LeveledCode:
    """A leveled k-prefix code in implicit form.

    picks: (cost_q, count) pairs in increasing cost order: the level-0 run,
    when present, then each nonempty level at its target cost, then the tail
    batches of cost >= k. Word i receives the i-th codeword in this order
    (most probable word first). Raises InstanceError unless the costs are
    positive and strictly increasing and the counts nonnegative: two picks
    of one cost >= k take the same strings, a pick below k blocks only the
    picks after it, and convert_to_prefix repairs neither. The codewords
    are made on first use, all picks at once, and kept.
    """

    norm: NormalizedInstance
    graph: CostGraph
    picks: list[tuple[int, int]]
    # _materialize's value, made on first use
    _materialized: Materialized | None = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        for (last, _), (cost_q, count) in itertools.pairwise([(0, 0), *self.picks]):
            if cost_q <= last or count < 0:
                raise InstanceError(
                    "picks need rising positive costs and nonnegative counts: (%d, %d) after"
                    " cost %d" % (cost_q, count, last)
                )

    @property
    def word_costs_q(self) -> list[int]:
        return [cost_q for cost_q, count in self.picks for _ in range(count)]

    @property
    def codewords(self) -> tuple[Runs, ...]:
        """Materialized codewords in word order (cheapest first), as the
        tuple the code keeps. Raises InstanceError, naming the first such
        pick, when a pick asks for more free strings than exist."""
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
) -> LeveledCode:
    """Build a minimum-cost leveled k-prefix code consistent with the guess.

    Checks each level's request against the free strings at its target cost,
    in increasing level order, with the level-0 run and the lower levels'
    codewords as blockers; then completes with the cheapest eligible strings
    of cost >= k. Raises InstanceError when the guess is malformed or no
    code meets it. ops, when given, counts one per level checked and one per
    cost the tail walk visits.
    """
    bump = ops.bump if ops is not None else None
    l1_q = norm.letters_q[0]
    if guess.f0 < 0 or any(c < 0 for _, c in guess.level_counts):
        raise InstanceError("guess counts must be nonnegative")
    missing = n - sum(c for _, c in guess.level_counts) - (1 if guess.f0 > 0 else 0)
    if missing < 0:
        raise InstanceError("guess places more codewords than words")
    if guess.f0 > 0 and guess.f0 * l1_q >= graph.unit_q:
        raise InstanceError("level-0 codeword size %d costs at least 1" % guess.f0)

    wanted = sorted(guess.level_counts)
    if any(not 1 <= lvl <= graph.level_count for lvl, _ in wanted):
        raise InstanceError("guess names a level outside 1..%d" % graph.level_count)
    for (lvl, _), (nxt, _) in itertools.pairwise(wanted):
        if lvl == nxt:
            raise InstanceError("guess names level %d twice" % lvl)

    # (cost_q, how_many) of every codeword below k chosen so far
    blockers: list[tuple[int, int]] = [(guess.f0 * l1_q, 1)] if guess.f0 > 0 else []
    for lvl, count in wanted:
        if count == 0:
            continue
        if bump:
            bump()
        target = graph.level_target(lvl)
        if graph.free(target, blockers) < count:
            raise InstanceError("level %d cannot host %d codewords" % (lvl, count))
        blockers.append((target, count))

    tail = graph.tail(missing, blockers, bump)
    if tail is None:
        raise InstanceError("fewer than %d tail codewords exist" % missing)
    return LeveledCode(norm, graph, blockers + tail)


# ---------------------------------------------------------------------------
# materialization of implicit picks into concrete codewords


def _prefixes(
    letters_q: Sequence[int], count: list[int], wanted: Collection[int], cut_q: int, blocked: dict[int, set[Runs]]
) -> Iterator[tuple[Runs, int]]:
    """Yield (prefix, its cost) in letter-index order for each prefix with
    no blocking prefix and no yielded proper prefix whose cost is in wanted
    or at least cut_q. The walk skips a prefix that no string of a cost in
    wanted extends, with all its extensions, so it goes no deeper than the
    prefixes it yields and the blocking codewords, and each prefix it enters
    is one that a walk for a single wanted cost enters too. The caller may
    drop costs from wanted between yields. One depth-first walk on an
    explicit stack of (prefix runs, cost, next letter) frames.
    """
    r, top = len(letters_q), max(wanted, default=0)
    # a frame tries one letter; the frame for the next letter goes below the
    # child's, so the walk goes in letter order
    stack = [((), 0, 0)]
    while stack:
        runs, spent, let = stack.pop()
        if let + 1 < r and spent + letters_q[let + 1] <= top:  # letters are sorted by cost
            stack.append((runs, spent, let + 1))
        spent += letters_q[let]
        if spent > top or not count[top - spent]:  # the dearest cost extends the most prefixes
            for cost_q in wanted:
                if cost_q >= spent and count[cost_q - spent]:
                    break
            else:
                continue
        if runs and runs[-1][0] == let:
            runs = runs[:-1] + ((let, runs[-1][1] + 1),)
        else:
            runs = runs + ((let, 1),)
        marks = blocked.get(spent)
        if marks is not None and runs in marks:
            continue
        if spent >= cut_q or spent in wanted:
            yield runs, spent
            if top not in wanted:
                top = max(wanted, default=0)
        else:
            stack.append((runs, spent, 0))


def _check_full(picks: list[tuple[int, int]], taken: dict[int, list[Runs]]) -> None:
    """Raise InstanceError at the first pick that took fewer strings than it asked."""
    for cost_q, take in picks:
        if len(taken[cost_q]) < take:
            free = len(taken[cost_q])
            raise InstanceError("a pick asks for %d strings of cost %d quanta; only %d are free" % (take, cost_q, free))


def _materialize(code: LeveledCode) -> Materialized:
    """Resolve each (cost, count) pick into the first `count` free strings of
    its cost in letter-index order (letters are sorted by cost, so cheaper
    letters come first), in word order.

    A string is free when no blocking codeword is a prefix of it. A pick
    blocks later picks exactly when its cost is below k, the relaxed prefix
    rule. Below cost 1 each cost holds one string, a cheapest-letter run
    (CostGraph checks this), so the level-0 pick finds a^f0. One walk fills
    every pick below k, taking a string of a pick's cost while that pick
    wants strings and entering no taken string's subtree. It reaches a
    string after its prefixes, so each pick takes what it would take after
    the picks before it, and no subtree is walked twice. A pick left short
    raises before the tail is built.

    A string of cost >= k is alpha + beta, alpha its shortest prefix of cost
    >= k. Every blocking codeword costs less than k, so only alpha decides
    whether the string is free, and since such prefixes are prefix free,
    letter order is (alpha, beta) order. A second walk yields the free
    alphas that some tail pick still wanting strings extends, and each such
    pick pairs the alpha with the first strings of the remaining cost (the
    empty string alone when the alpha has the pick's cost), from suffix
    tables that every pick shares and that a walk with no blockers fills
    lazily, so none holds more strings than one pick asked of it.
    Returns the codewords, each alpha with its table's cost and how many of
    its strings it took, and the tables' strings.
    """
    letters_q = code.norm.letters_q
    graph = code.graph
    k_q = graph.k_q
    graph.count(code.picks[-1][0] if code.picks else 0)  # extends the counts to every cost read below
    count = graph.counts
    below = [(cost_q, take) for cost_q, take in code.picks if cost_q < k_q]
    tail = code.picks[len(below) :]
    taken: dict[int, list[Runs]] = {cost_q: [] for cost_q, _ in code.picks}
    # strings each pick below k still wants, the dearest first (tried first)
    left = {cost_q: take for cost_q, take in reversed(below) if take}
    for runs, cost_q in _prefixes(letters_q, count, left, k_q, {}):
        taken[cost_q].append(runs)
        left[cost_q] -= 1
        if not left[cost_q]:
            del left[cost_q]
            if not left:
                break
    _check_full(below, taken)

    # suffix tables, as in Materialized; cost 0 holds only the empty string,
    # which a walk, starting from a letter, cannot yield
    tables: dict[int, tuple[list[SuffixRow], Iterator]] = {0: ([((), -1, 0, ())], iter(()))}
    splits: dict[int, list[tuple[Runs, int, int]]] = {cost_q: [] for cost_q, _ in tail}
    # per tail pick still wanting strings, the dearest first: its count, codewords and splits
    left = {cost_q: (take, taken[cost_q], splits[cost_q]) for cost_q, take in reversed(tail) if take}
    blocked = {cost_q: set(out) for cost_q, out in taken.items() if cost_q < k_q} if left else {}
    for alpha, a in _prefixes(letters_q, count, left, k_q, blocked):
        # alpha + beta, with runs merged at the seam; alpha with its last
        # run lengthened is made once per length
        let, rep = alpha[-1]
        heads: dict[int, Runs] = {}
        full = False
        for cost_q, (take, out, split) in left.items():
            rest = cost_q - a
            if rest < 0 or not count[rest]:
                continue
            if not rest:  # alpha is a codeword of the pick's cost
                split.append((alpha, 0, 1))
                out.append(alpha)
                full = full or len(out) == take
                continue
            table = tables.get(rest)
            if table is None:
                table = tables[rest] = ([], _prefixes(letters_q, count, (rest,), rest, {}))
            rows, more_rows = table
            used = take - len(out)
            if used > len(rows):
                rows.extend(
                    (beta, beta[0][0], beta[0][1], beta[1:])
                    for beta, _ in itertools.islice(more_rows, used - len(rows))
                )
                used = min(used, len(rows))
            split.append((alpha, rest, used))
            for beta, first, first_rep, beta_rest in rows[:used]:
                if first == let:
                    head = heads.get(first_rep)
                    if head is None:
                        head = heads[first_rep] = alpha[:-1] + ((let, rep + first_rep),)
                    out.append(head + beta_rest)
                else:
                    out.append(alpha + beta)
            full = full or len(out) == take
        if full:
            for cost_q in [cost_q for cost_q, (take, out, _) in left.items() if len(out) == take]:
                del left[cost_q]
            if not left:
                break
    _check_full(tail, taken)
    words = tuple(itertools.chain.from_iterable(taken[cost_q] for cost_q, _ in code.picks))
    return words, list(itertools.chain.from_iterable(splits.values())), tables


# ---------------------------------------------------------------------------
# conversion to a prefix code by escape blocks


def enc(i: int) -> Runs:
    """Escape block for a count i: doubled binary digits, then the pair 'ab'."""
    if i < 0:
        raise InstanceError("enc expects a nonnegative count")
    letters: list[int] = []
    if i > 0:
        for bit in bin(i)[2:]:
            digit = 1 if bit == "1" else 0
            letters.extend((digit, digit))
    letters.extend((0, 1))
    return runs_from_letters(letters)


def _escape_suffix(beta: Runs) -> Runs:
    """'b' + beta + 'b', with runs merged at both ends."""
    if not beta:
        return ((1, 2),)
    head, last = beta[0], beta[-1]
    if len(beta) == 1:
        if head[0] == 1:
            return ((1, head[1] + 2),)
        return ((1, 1), head, (1, 1))
    head = ((1, head[1] + 1),) if head[0] == 1 else ((1, 1), head)
    last = ((1, last[1] + 1),) if last[0] == 1 else (last, (1, 1))
    return head + beta[1:-1] + last


def convert_to_prefix(code: LeveledCode, k: Rational) -> CodeAssignment:
    """Convert a leveled code, k-prefix free by construction, to a prefix code.

    k must be the horizon the code's cost graph was built at. Codewords of
    cost < k are returned unchanged; the rest are converted in quanta, from
    the code's materialized value: the split of each at alpha, and the
    suffix tables.
    """
    graph = code.graph
    if Fraction(k) != graph.k:
        raise InstanceError("k %s is not the code's horizon %s" % (k, graph.k))
    words, tails, tables = code._parts()
    # picks rise in cost, so the codewords below k come first and pass as they are
    out = list(words[: sum(count for cost_q, count in code.picks if cost_q < graph.k_q)])
    # per suffix beta: its second-letter count i and 'b' + beta + 'b'
    suffixes = {
        rest: [
            (sum(rep for let, rep in beta if let == 1), _escape_suffix(beta)) for beta, _, _, _ in rows
        ]
        for rest, (rows, _) in tables.items()
    }
    blocks: dict[int, Runs] = {}  # enc(i) without its final 'b'
    for alpha, rest, used in tails:
        let, rep = alpha[-1]
        heads: dict[int, Runs] = {}  # alpha + enc(i) without its final 'b'
        for i, tail in suffixes[rest][:used]:
            head = heads.get(i)
            if head is None:
                block = blocks.get(i)
                if block is None:
                    block = blocks[i] = enc(i)[:-1]
                # enc(i) starts with a doubled digit or the final 'a'
                if block[0][0] == let:
                    head = alpha[:-1] + ((let, rep + block[0][1]),) + block[1:]
                else:
                    head = alpha + block
                heads[i] = head
            # the head ends in 'a' and the tail starts with 'b': no seam to merge
            out.append(head + tail)
    letters = code.norm.instance.letters
    # a prefix code made from distinct runs: nothing to check again
    return _unchecked(CodeAssignment, codewords=tuple(out), letters=letters, _costs_int=None)
