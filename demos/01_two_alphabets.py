"""One set of frequencies, two alphabets, two very different optimal codes.

Four words with weights 2, 2, 1, 1. Over a standard binary alphabet every
letter costs 1 and the optimum is the complete depth-2 code. Give the second
letter cost 3 instead, and the optimum suddenly prefers long runs of the
cheap letter.
"""

from fractions import Fraction

from lettercost import (
    Instance,
    LetterCosts,
    codeword_cost,
    exact_optimal,
    is_prefix_free,
    lower_bound,
    solve,
)
from lettercost.core import runs_from_str

weights = [2, 2, 1, 1]

for costs in ([1, 1], [1, 3]):
    letters = LetterCosts(costs)
    instance, _ = Instance.from_weights(weights, letters, Fraction(1, 4))

    print(f"letter costs {costs}")
    report = solve(instance)
    exact = exact_optimal(instance)

    print(f"  solver code : {report.code.strings()}")
    print(f"  exact code  : {exact.optimal_code.strings()}")
    print(f"  total cost  : {report.total_cost} (optimal {exact.optimal_cost})")
    print(f"  lower bound : {report.lower_bound}")
    assert is_prefix_free(report.code.codewords)
    assert report.total_cost == exact.optimal_cost
    print()

# the skewed optimum really does pay 3 per 'b' and 1 per 'a'
letters = LetterCosts([1, 3])
for word in ["aaa", "aab", "ab", "b"]:
    print(f"cost({word}) = {codeword_cost(runs_from_str(word), letters)}")

print()
print("lower bound logic: all but one codeword carries a letter of cost >= 1,")
instance, _ = Instance.from_weights(weights, letters, Fraction(1, 4))
print(f"so cost >= 1 - p1 = {lower_bound(instance)} in second-letter units.")
