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
value the API returns. After `normalize` every codeword cost is also an
integer multiple of a single cost quantum, so the guess search and the
leveled construction work in integer quantum units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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


def runs_from_str(s: str, glyphs: str = GLYPHS) -> Runs:
    return runs_from_letters(glyphs.index(ch) for ch in s)


def runs_to_str(runs: Runs, glyphs: str = GLYPHS) -> str:
    return "".join(glyphs[let] * rep for let, rep in runs)


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

    @property
    def r(self) -> int:
        return len(self.costs)


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


@dataclass(frozen=True)
class NormalizedInstance:
    """Instance after the cost conditioning reduction.

    Invariants: second cheapest letter costs exactly 1; every letter cost with
    index >= 2 is an integer multiple of epsilon_prime; epsilon_prime is an
    integer multiple or divisor of the cheapest cost; hence every codeword
    cost is an integer multiple of cost_quantum = min(l1, epsilon_prime).
    """

    instance: Instance
    epsilon_prime: Fraction
    cost_quantum: Fraction

    # integer quantum-unit views, derived in __post_init__
    letters_q: tuple[int, ...] = field(init=False)
    unit_q: int = field(init=False)  # the cost value 1 in quantum units
    eps_q: int = field(init=False)  # epsilon_prime in quantum units

    def __post_init__(self):
        costs = self.instance.letters.costs
        if costs[1] != 1:
            raise InstanceError("normalized second letter cost must be 1")
        q = self.cost_quantum
        lq = []
        for c in costs:
            m = c / q
            if m.denominator != 1:
                raise InstanceError("letter cost %s is not a multiple of the quantum" % c)
            lq.append(m.numerator)
        eq = self.epsilon_prime / q
        uq = 1 / q
        if eq.denominator != 1 or uq.denominator != 1:
            raise InstanceError("epsilon/unit not multiples of the quantum")
        for c in costs[1:]:
            if (c / self.epsilon_prime).denominator != 1:
                raise InstanceError("cost %s not a multiple of epsilon_prime" % c)
        ratio = self.epsilon_prime / costs[0]
        if ratio.denominator != 1 and (1 / ratio).denominator != 1:
            raise InstanceError("epsilon_prime neither multiple nor divisor of l1")
        object.__setattr__(self, "letters_q", tuple(lq))
        object.__setattr__(self, "unit_q", uq.numerator)
        object.__setattr__(self, "eps_q", eq.numerator)

    @property
    def n(self) -> int:
        return self.instance.n

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
    """
    eps = instance.epsilon
    costs = instance.letters.costs
    s1 = costs[1]
    step1 = [c / s1 for c in costs]

    l1 = step1[0]
    if eps >= l1:
        eps2 = (eps / l1).__floor__() * l1  # largest multiple of l1 that is <= eps
    else:
        eps2 = l1 / -((-l1) // eps)  # largest divisor of l1 that is <= eps

    step3 = [step1[0]] + [-((-c) // eps2) * eps2 for c in step1[1:]]

    s4 = step3[1]
    final = [c / s4 for c in step3]
    eps_prime = eps2 / s4
    quantum = min(final[0], eps_prime)

    # the same words, already checked (eps_prime <= epsilon stays in (0, 1])
    norm_inst = _unchecked(
        Instance,
        weights_int=instance.weights_int,
        scale=instance.scale,
        letters=LetterCosts(final),
        epsilon=eps_prime,
        weight_total=instance.weight_total,
    )
    return NormalizedInstance(
        instance=norm_inst,
        epsilon_prime=eps_prime,
        cost_quantum=quantum,
    )


# ---------------------------------------------------------------------------
# cost evaluation


def codeword_cost(word: Runs, letters: LetterCosts) -> Fraction:
    """Sum of the letter costs of a codeword in runs; the empty word () costs 0."""
    return Fraction(_price_int((word,), letters)[0], letters.scale)


def _price_int(codewords: Iterable[Runs], letters: LetterCosts) -> tuple[int, ...]:
    """Codeword costs times letters.scale. Anything but canonical runs, such as
    a str, letter indices, a letter outside the alphabet (negative ones too),
    a repeat below 1 or two adjacent runs of one letter, raises InstanceError."""
    cost_of = dict(enumerate(letters.costs_int))
    costs = []
    try:
        for runs in codewords:
            total = 0
            prev = -1
            for let, rep in runs:
                total += cost_of[let] * rep
                if rep < 1 or let == prev:
                    raise ValueError
                prev = let
            if not total and runs != ():  # only () spells the empty word
                raise ValueError
            costs.append(total)
    except KeyError as err:
        raise InstanceError("letter index %r out of range" % (err.args[0],)) from None
    except (TypeError, ValueError):
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
        if len(set(cws)) != len(cws):
            raise InstanceError("codewords must be distinct (injective map)")

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

    def strings(self, glyphs: str = GLYPHS) -> list[str]:
        return [runs_to_str(c, glyphs) for c in self.codewords]


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
# the prefix-freeness predicate and the codeword trie


class TrieNode:
    __slots__ = ("children", "marks")

    def __init__(self):
        self.children: dict[int, "TrieNode"] = {}
        self.marks = 0  # how many codewords end exactly here


class CodewordTrie:
    """Letter-level trie over codewords."""

    def __init__(self):
        self.root = TrieNode()

    def insert(self, runs: Runs) -> None:
        node = self.root
        for let, rep in runs:
            for _ in range(rep):
                nxt = node.children.get(let)
                if nxt is None:
                    nxt = node.children[let] = TrieNode()
                node = nxt
        node.marks += 1


def _has_violation(items: list[Runs]) -> bool:
    """Some codeword is a prefix of another or equals it."""
    trie = CodewordTrie()
    for runs in items:
        trie.insert(runs)

    def dfs(node: TrieNode, marked_above: bool) -> bool:
        if node.marks and (marked_above or node.marks >= 2):
            return True  # a codeword above prefixes this one, or a duplicate
        for child in node.children.values():
            if dfs(child, marked_above or node.marks > 0):
                return True
        return False

    return dfs(trie.root, False)


def is_prefix_free(words: Iterable[Runs]) -> bool:
    """True when no codeword (in runs) is a prefix of any other (duplicates count)."""
    return not _has_violation(list(words))
