"""Domain types and cost arithmetic for prefix coding with unequal letter costs.

Words to be encoded carry probabilities; codewords are strings over an
alphabet whose letters have (possibly unequal) positive rational costs.
Everything here is exact. `LetterCosts.costs_int` is every letter cost
times `LetterCosts.scale`, the lcm of the cost denominators, computed once
next to the `Fraction` costs. An `Instance` stores its words only as ints:
`Instance.weights_int` is every probability times `Instance.scale`, the lcm
of the probability denominators, and `Instance.probabilities` is a
`Fraction` view derived on request. Costs, weights, sorts and validations
inside the library run on these ints, and a `Fraction` is made only for a
value the API returns. `normalize` computes the conditioned letter costs in
ints, once, on one grid whose quantum is the gcd of the letter costs, and
`NormalizedInstance` keeps them there: every codeword cost is a whole number
of quanta, no coarser grid holds them all, and the guess search and the
leveled construction work in integer quantum units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction
from itertools import groupby
from operator import ge
from typing import Iterable, Sequence

GLYPHS = "abcdefghijklmnopqrstuvwxyz"

Rational = Fraction | int
# A codeword is canonical runs of letters, ((letter, repeat), ...): each repeat
# at least 1 and no two adjacent runs of one letter, so a string has one
# spelling. Runs keep long cheap-letter chains O(1) instead of O(length).
Runs = tuple[tuple[int, int], ...]


class InstanceError(ValueError):
    """Raised for structurally invalid problem inputs."""


# ---------------------------------------------------------------------------
# codeword helpers


def runs_from_letters(letters: Iterable[int]) -> Runs:
    return tuple((let, len(list(run))) for let, run in groupby(letters))


def runs_from_str(s: str) -> Runs:
    return runs_from_letters(GLYPHS.index(ch) for ch in s)


def runs_to_str(runs: Runs, glyphs: str = GLYPHS) -> str:
    return "".join(glyphs[let] * rep for let, rep in runs)


def _exact_text(x: Rational) -> str:
    """str(Fraction(x)) with every digit: str() of an int stops at
    sys.get_int_max_str_digits() digits, and str() of a Decimal does not."""
    f = Fraction(x)
    text = str(Decimal(f.numerator))
    return text if f.denominator == 1 else "%s/%s" % (text, Decimal(f.denominator))


# ---------------------------------------------------------------------------
# letter costs and instances


@dataclass(frozen=True)
class LetterCosts:
    """Sorted positive letter costs of an encoding alphabet (r >= 2).

    scale is the lcm of the cost denominators and costs_int holds each cost
    times scale, so an integer sum over costs_int is a codeword cost times
    scale.
    """

    costs: tuple[Fraction, ...]
    scale: int = field(init=False, repr=False)
    costs_int: tuple[int, ...] = field(init=False, repr=False)

    def __init__(self, costs: Sequence[Rational]):
        cs = tuple(Fraction(c) for c in costs)
        if len(cs) < 2:
            raise InstanceError("need at least 2 letters")
        if any(c <= 0 for c in cs):
            raise InstanceError("letter costs must be strictly positive")
        if any(cs[i] > cs[i + 1] for i in range(len(cs) - 1)):
            raise InstanceError("letter costs must be sorted nondecreasing")
        scale = math.lcm(*(c.denominator for c in cs))
        object.__setattr__(self, "costs", cs)
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "costs_int", tuple(c.numerator * (scale // c.denominator) for c in cs))


@dataclass(frozen=True, init=False)
class Instance:
    """Problem input: sorted word probabilities, letter costs, accuracy epsilon.

    Word i has probability weights_int[i] / scale, scale the lcm of the
    probability denominators: for integer weights, the raw weights and their
    total over their gcd. `probabilities` is a Fraction view made on request.
    """

    weights_int: tuple[int, ...]
    scale: int
    letters: LetterCosts
    epsilon: Fraction
    weight_total: Fraction  # sum of the raw input weights

    def __init__(
        self,
        probabilities: Sequence[Rational],
        letters: LetterCosts,
        epsilon: Rational,
        weight_total: Rational = 1,
    ):
        # Fraction(p) would copy a Fraction, at ~1 us per word
        ps = [p if type(p) is Fraction else Fraction(p) for p in probabilities]
        scale = math.lcm(*(p.denominator for p in ps))
        ws = tuple(p.numerator * (scale // p.denominator) for p in ps)
        # a frozen dataclass: its fields are set once, here
        vars(self).update(
            weights_int=ws,
            scale=scale,
            letters=letters,
            epsilon=Fraction(epsilon),
            weight_total=Fraction(weight_total),
        )
        self._check()

    def _check(self) -> None:
        """The one validation of an instance, run on its integer weights."""
        ws = self.weights_int
        if not ws:
            raise InstanceError("need at least one word")
        if min(ws) <= 0:
            raise InstanceError("probabilities must be strictly positive")
        if not all(map(ge, ws, ws[1:])):
            raise InstanceError("probabilities must be sorted nonincreasing")
        if sum(ws) != self.scale:
            raise InstanceError("probabilities must sum to 1")
        if not (0 < self.epsilon <= 1):
            raise InstanceError("epsilon must lie in (0, 1]")

    @property
    def probabilities(self) -> tuple[Fraction, ...]:
        """The word probabilities, weights_int[i] / scale, made on request."""
        return tuple(Fraction(w, self.scale) for w in self.weights_int)

    @property
    def n(self) -> int:
        return len(self.weights_int)

    @staticmethod
    def from_weights(
        weights: Sequence[Rational],
        letters: LetterCosts,
        epsilon: Rational,
    ) -> tuple["Instance", list[int]]:
        """Normalize raw positive weights to probabilities.

        Returns the instance plus `order`, where order[i] is the input position
        of the i-th (sorted) word, for mapping results back.
        """
        ints = list(weights)
        if {*map(type, ints)} <= {int}:
            # the usual input: ints already, with no denominators to clear
            den = 1
            if ints and min(ints) <= 0:
                raise InstanceError("weights must be strictly positive")
        else:
            ws = [w if isinstance(w, int) else Fraction(w) for w in ints]
            if any(w <= 0 for w in ws):
                raise InstanceError("weights must be strictly positive")
            # ints stand in for the weights: each one times the lcm of their denominators
            den = math.lcm(*(w.denominator for w in ws))
            ints = [w.numerator * (den // w.denominator) for w in ws]
        total = sum(ints)
        # a stable sort: equal weights keep their input order, as the key (-w, i) would
        order = sorted(range(len(ints)), key=ints.__getitem__, reverse=True)
        # dividing the ints and their total by the ints' gcd leaves the lcm of
        # the reduced probability denominators; no words (gcd 0) fail the check
        g = math.gcd(*ints) or 1
        if g != 1:
            ints = [w // g for w in ints]
        instance = _unchecked(
            Instance,
            weights_int=tuple(map(ints.__getitem__, order)),
            scale=total // g,
            letters=letters,
            epsilon=Fraction(epsilon),
            weight_total=Fraction(total, den),
        )
        instance._check()
        return instance, order


def _unchecked(cls, **values):
    """A frozen dataclass instance made from values already known to be valid,
    skipping the checks and derived views of its __init__ or __post_init__."""
    obj = object.__new__(cls)
    for name, value in values.items():
        object.__setattr__(obj, name, value)
    return obj


@dataclass(frozen=True, init=False)
class NormalizedInstance:
    """Instance after the cost conditioning reduction; normalize makes it.

    Every cost lies on one integer grid: letters_q holds the letter costs in
    quanta, with gcd 1, and unit_q is the second letter's cost, 1, in quanta,
    so the quantum is 1/unit_q and every codeword cost is a whole number of
    quanta. Every letter cost but the cheapest is a multiple of
    epsilon_prime, which is a multiple or a divisor of the cheapest. eps_q is
    a level's width in quanta: epsilon_prime in quanta, or 1 when
    epsilon_prime is finer than the grid, where each level holds at most one
    grid cost.
    """

    instance: Instance  # the normalized letters, with epsilon_prime as epsilon
    letters_q: tuple[int, ...]
    unit_q: int
    eps_q: int

    @property
    def n(self) -> int:
        return self.instance.n

    @property
    def epsilon_prime(self) -> Fraction:
        return self.instance.epsilon

    @property
    def cost_quantum(self) -> Fraction:
        return Fraction(1, self.unit_q)

    @property
    def distinct_q(self) -> tuple[tuple[int, int], ...]:
        """(cost in quanta, multiplicity) per distinct letter cost."""
        return tuple((c, len(list(run))) for c, run in groupby(self.letters_q))


def normalize(instance: Instance) -> NormalizedInstance:
    """Condition letter costs so all codeword costs share one quantum.

    Steps: scale so the second letter costs 1; shrink epsilon to the nearest
    multiple-or-divisor of the cheapest cost; round every other cost up to a
    multiple of the shrunk epsilon; rescale so the second letter costs 1 again.
    Cost distortion of any code is at most a factor 1+epsilon; epsilon shrinks
    by at most a factor 2(1+epsilon).

    The costs are computed in ints, in units of l1/a, where the shrunk
    epsilon is e units: e*l1 with a = 1, or l1/a with a = ceil(l1/epsilon)
    and e = 1. The quantum is the gcd of the letter costs in these units,
    which is the unit itself unless e = 1.
    """
    c = instance.letters.costs_int
    eps = instance.epsilon
    # epsilon / l1 = num / den, with l1 = c[0] / c[1] after the first step
    num, den = eps.numerator * c[1], eps.denominator * c[0]
    if num >= den:
        a, e = 1, num // den  # largest multiple of l1 that is <= eps
    else:
        a, e = -(-den // num), 1  # largest divisor of l1 that is <= eps
    units = [a] + [-(-a * x // (e * c[0])) * e for x in c[1:]]
    g = math.gcd(*units)
    letters_q = tuple(x // g for x in units)
    unit_q = letters_q[1]
    # the letters cost letters_q / unit_q, sorted and positive; their gcd is
    # 1 and unit_q is one of them, so the lcm of their denominators is unit_q
    letters = _unchecked(
        LetterCosts,
        costs=tuple([Fraction(x, unit_q) for x in letters_q]),
        scale=unit_q,
        costs_int=letters_q,
    )
    # the same words, already checked (epsilon_prime <= epsilon stays in (0, 1])
    norm_inst = _unchecked(
        Instance,
        weights_int=instance.weights_int,
        scale=instance.scale,
        letters=letters,
        epsilon=Fraction(e, units[1]),
        weight_total=instance.weight_total,
    )
    # g > 1 only when e = 1: epsilon_prime is then 1/g quanta
    return _unchecked(
        NormalizedInstance,
        instance=norm_inst,
        letters_q=letters_q,
        unit_q=unit_q,
        eps_q=max(e // g, 1),
    )


# ---------------------------------------------------------------------------
# cost evaluation


def codeword_cost(word: Runs, letters: LetterCosts) -> Fraction:
    """Sum of the letter costs of a codeword in runs; the empty word () costs 0."""
    return CodeAssignment((word,), letters).costs()[0]


def _price_int(codewords: Iterable[Runs], letters: LetterCosts) -> tuple[int, ...]:
    """Codeword costs times letters.scale. Anything but canonical runs, such as
    a str, letter indices, a letter outside the alphabet (negative ones too),
    a letter or repeat that is not an int, a repeat below 1 or two adjacent
    runs of one letter, raises InstanceError."""
    cost_of = letters.costs_int  # a tuple, which no float letter indexes
    costs, let = [], 0
    try:
        for runs in codewords:
            total = 0
            prev = -1
            for let, rep in runs:
                total += cost_of[let] * rep
                if rep < 1 or let == prev or let < 0:
                    raise ValueError
                prev = let
            # only () spells the empty word; a repeat that is no int makes no int total
            if type(total) is not int or not total and runs != ():
                raise ValueError
            costs.append(total)
    except (IndexError, TypeError, ValueError):
        # let is the failing run's letter, or one in range that passed
        if type(let) is int and not 0 <= let < len(cost_of):
            raise InstanceError("letter index %r out of range" % (let,)) from None
        raise InstanceError("codeword %r is not in canonical runs" % (runs,)) from None
    return tuple(costs)


@dataclass(frozen=True)
class CodeAssignment:
    """Word index -> codeword map; position i holds the codeword of word i.
    The constructor refuses codewords that are not canonical runs or not
    distinct; builders of codes valid by construction use core._unchecked."""

    codewords: tuple[Runs, ...]
    letters: LetterCosts
    # codeword costs times letters.scale, from the constructor or on first use
    _costs_int: tuple[int, ...] | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        cws = tuple(self.codewords)
        object.__setattr__(self, "codewords", cws)
        object.__setattr__(self, "_costs_int", _price_int(cws, self.letters))
        # canonical runs spell each string one way, so distinct runs are distinct strings
        try:
            if len(set(cws)) != len(cws):
                raise InstanceError("codewords must be distinct (injective map)")
        except TypeError:  # a codeword or a run given as a list
            raise InstanceError("codewords must be tuples of (letter, repeat) tuples") from None

    @property
    def n(self) -> int:
        return len(self.codewords)

    def costs(self) -> list[Fraction]:
        scale = self.letters.scale
        costs = self.costs_int()
        # codewords share few distinct costs, and a Fraction is immutable
        as_fraction = {c: Fraction(c, scale) for c in set(costs)}
        return [as_fraction[c] for c in costs]

    def costs_int(self) -> list[int]:
        """Codeword costs times letters.scale."""
        if self._costs_int is None:
            object.__setattr__(self, "_costs_int", _price_int(self.codewords, self.letters))
        return list(self._costs_int)

    @property
    def ordered(self) -> bool:
        cs = self.costs_int()
        return all(a <= b for a, b in zip(cs, cs[1:]))

    def strings(self) -> list[str]:
        return [runs_to_str(c) for c in self.codewords]


def code_cost(assignment: CodeAssignment, instance: Instance) -> Fraction:
    """Probability-weighted cost of the code, in the instance's probability scale."""
    if assignment.n != instance.n:
        raise InstanceError(
            "assignment covers %d words, instance has %d" % (assignment.n, instance.n)
        )
    value = sum(w * c for w, c in zip(instance.weights_int, assignment.costs_int()))
    return Fraction(value, instance.scale * assignment.letters.scale)


def reorder(assignment: CodeAssignment) -> CodeAssignment:
    """Reassign the same codewords so cheaper ones go to more probable words.

    Stable: cost ties keep the original word order. Never increases the cost
    of any instance whose probabilities are sorted nonincreasing.
    """
    cws = assignment.codewords
    costs = assignment.costs_int()
    # a stable sort: the same order as the key (cost, index)
    by_cost = sorted(range(len(cws)), key=costs.__getitem__)
    # a permutation of a valid assignment is valid, so it is not checked again
    return _unchecked(
        CodeAssignment,
        codewords=tuple([cws[i] for i in by_cost]),
        letters=assignment.letters,
        _costs_int=tuple([costs[i] for i in by_cost]),
    )


# ---------------------------------------------------------------------------
# the prefix-freeness predicate, over a letter-level trie of plain dicts


def _has_violation(items: list[Runs]) -> bool:
    """Some codeword is a prefix of another or equals it.

    Builds a letter-level trie with one dict per node: a node maps each
    letter to its child and keeps, under the key None, which no letter
    equals, how many codewords end there. The walk recurses once per letter,
    so a codeword longer than the interpreter's recursion limit (~1,000
    letters by default) raises RecursionError.
    """
    root: dict = {}
    for runs in items:
        node = root
        for let, rep in runs:
            for _ in range(rep):
                nxt = node.get(let)
                if nxt is None:
                    nxt = node[let] = {}
                node = nxt
        node[None] = node.get(None, 0) + 1

    def dfs(node: dict, marked_above: bool) -> bool:
        # the trie is dropped after this walk, so the count comes off its
        # node and the loop below sees only children
        marks = node.pop(None, 0)
        if marks and (marked_above or marks >= 2):
            return True  # a codeword above prefixes this one, or a duplicate
        for child in node.values():
            if dfs(child, marked_above or marks > 0):
                return True
        return False

    return dfs(root, False)


def is_prefix_free(words: Iterable[Runs]) -> bool:
    """True when no codeword (in runs) is a prefix of any other (duplicates count)."""
    return not _has_violation(list(words))
