"""Turn a leveled k-prefix code into a true prefix code with a self-delimiting escape.

Codewords cheaper than k pass through untouched. A codeword of cost >= k is
split at its first prefix alpha whose cost reaches k; the remainder beta is
re-attached behind an escape block enc(i) that spells out, in doubled binary,
how many second-letter occurrences beta contains, and a final second letter is
appended. Doubling every digit makes the block's end ("ab") unmistakable, so
distinct codewords can no longer be prefixes of one another. Total cost grows
by at most the factor 1 + l2*(5 + 2*log2(k))/k.

The leveled code records each tail codeword as alpha plus a suffix beta from
a table shared by the whole code, so the converted codeword is
(alpha + enc(i) without its final 'b') + ('b' + beta + 'b'), runs merged
inside each part. The first part is built once per alpha and count i, the
second once per suffix, and each codeword is one tuple concatenation.
"""

from __future__ import annotations

from fractions import Fraction

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
    out = words[: sum(count for cost_q, count in code.picks if cost_q < graph.k_q)]
    # per suffix beta: its second-letter count i and 'b' + beta + 'b'
    suffixes = {
        rest: [(sum(rep for let, rep in beta if let == 1), _escape_suffix(beta)) for beta in betas]
        for rest, betas in tables.items()
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
