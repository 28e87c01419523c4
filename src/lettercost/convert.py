"""Turn a k-prefix code into a true prefix code with a self-delimiting escape.

Codewords cheaper than k pass through untouched. A codeword of cost >= k is
split at its first prefix alpha whose cost reaches k; the remainder beta is
re-attached behind an escape block enc(i) that spells out, in doubled binary,
how many second-letter occurrences beta contains, and a final second letter is
appended. Doubling every digit makes the block's end ("ab") unmistakable, so
distinct codewords can no longer be prefixes of one another. Total cost grows
by at most the factor 1 + l2*(5 + 2*log2(k))/k.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .core import (
    CodeAssignment,
    InstanceError,
    Runs,
    _unchecked,
    is_k_prefix_free,
    runs_from_letters,
)
from .kprefix import LeveledCode


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


def _transform(runs: Runs, letter_costs: Sequence[int], k: int, blocks: dict[int, Runs]) -> Runs:
    """alpha + enc(i) + beta + 'b' for one codeword of cost >= k, with runs
    merged at the seams.

    alpha is the shortest prefix of cost >= k, beta the rest, and i the number
    of second letters in beta. Costs are integers; blocks memoizes enc(i).
    """
    acc = 0
    for idx, (let, rep) in enumerate(runs):
        w = letter_costs[let]
        if acc + w * rep >= k:
            break
        acc += w * rep
    else:
        raise InstanceError("codeword cost is below k; nothing to split")
    need = -((acc - k) // w)  # alpha ends inside this run: ceil((k - acc) / w) letters
    beta = runs[idx + 1 :]
    if need < rep:
        beta = ((let, rep - need),) + beta
    i = 0
    for b_let, b_rep in beta:
        if b_let == 1:
            i += b_rep
    block = blocks.get(i)
    if block is None:
        block = blocks[i] = enc(i)
    # enc(i) starts with a doubled digit or the final 'a', and ends with one 'b'
    first = block[0]
    if first[0] == let:
        out = runs[:idx] + ((let, need + first[1]),) + block[1:-1]
    else:
        out = runs[:idx] + ((let, need), first) + block[1:-1]
    if not beta:
        return out + ((1, 2),)
    head, last = beta[0], beta[-1]
    if len(beta) == 1:
        if head[0] == 1:
            return out + ((1, head[1] + 2),)
        return out + ((1, 1), head, (1, 1))
    head = ((1, head[1] + 1),) if head[0] == 1 else ((1, 1), head)
    last = ((1, last[1] + 1),) if last[0] == 1 else (last, (1, 1))
    return out + head + beta[1:-1] + last


def convert_to_prefix(code, k) -> CodeAssignment:
    """Convert a k-prefix code (LeveledCode or CodeAssignment) to a prefix code.

    Codewords of cost < k are returned unchanged. Raises when a plain
    CodeAssignment input is not k-prefix free; leveled codes are k-prefix free
    by construction and skip that scan. Both inputs are converted in integer
    costs: quanta for a leveled code, letters.scale units for an assignment.
    """
    if isinstance(code, LeveledCode):
        letters = code.norm.instance.letters
        k_int = code.graph.k_q
        if k_int < code.graph.unit_q:
            raise InstanceError("conversion requires k >= 1")
        letter_costs = code.norm.letters_q
        costs = code.word_costs_q
    elif isinstance(code, CodeAssignment):
        letters = code.letters
        k = Fraction(k)
        if k < 1:
            raise InstanceError("conversion requires k >= 1")
        if not is_k_prefix_free(code.codewords, k, letters):
            raise InstanceError("input code is not k-prefix free")
        # an integer cost reaches k * scale exactly when it reaches its ceiling
        k_int = math.ceil(k * letters.scale)
        letter_costs = letters.costs_int
        costs = code.costs_int()
    else:
        raise InstanceError("expected a LeveledCode or CodeAssignment")
    blocks: dict[int, Runs] = {}
    out = tuple(
        _transform(runs, letter_costs, k_int, blocks) if cost >= k_int else runs
        for runs, cost in zip(code.codewords, costs)
    )
    # a prefix code made from distinct runs: nothing to check again
    return _unchecked(CodeAssignment, codewords=out, letters=letters, _costs_int=None)
