"""Turn a leveled k-prefix code into a true prefix code with a self-delimiting escape.

Codewords cheaper than k pass through untouched. A codeword of cost >= k is
split at its first prefix alpha whose cost reaches k; the remainder beta is
re-attached behind an escape block enc(i) that spells out, in doubled binary,
how many second-letter occurrences beta contains, and a final second letter is
appended. Doubling every digit makes the block's end ("ab") unmistakable, so
distinct codewords can no longer be prefixes of one another. Total cost grows
by at most the factor 1 + l2*(5 + 2*log2(k))/k.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .core import (
    CodeAssignment,
    InstanceError,
    Rational,
    Runs,
    _unchecked,
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


def convert_to_prefix(code: LeveledCode, k: Rational) -> CodeAssignment:
    """Convert a leveled code, k-prefix free by construction, to a prefix code.

    k must be the horizon the code's cost graph was built at. Codewords of
    cost < k are returned unchanged; the rest are converted in quanta.
    """
    graph = code.graph
    horizon = graph.k_q * graph.quantum
    if Fraction(k) != horizon:
        raise InstanceError("k %s is not the code's horizon %s" % (k, horizon))
    k_q, letters_q = graph.k_q, code.norm.letters_q
    blocks: dict[int, Runs] = {}
    out = tuple(
        _transform(runs, letters_q, k_q, blocks) if cost >= k_q else runs
        for runs, cost in zip(code.codewords, code.word_costs_q)
    )
    letters = code.norm.instance.letters
    # a prefix code made from distinct runs: nothing to check again
    return _unchecked(CodeAssignment, codewords=out, letters=letters, _costs_int=None)
