"""A tour of the machinery: normalization, the cost graph, free-string counts,
level selection, and the escape blocks that finish the job.
"""

from fractions import Fraction

from lettercost import (
    Guess,
    Instance,
    LetterCosts,
    build_cost_graph,
    choose_k,
    construct_leveled,
    convert_to_prefix,
    enc,
    group_words,
    normalize,
)
from lettercost.core import runs_to_str

instance, _ = Instance.from_weights(
    [8, 5, 4, 2, 1, 1], LetterCosts([1, 3]), Fraction(1, 2)
)

# 1. condition the costs so every codeword cost sits on one quantum grid
norm = normalize(instance)
print("normalized letter costs:", norm.instance.letters.costs)
print("epsilon after conditioning:", norm.epsilon_prime)
print("cost quantum:", norm.cost_quantum)

# 2. the horizon k balances conversion overhead against search size
k = choose_k(norm.epsilon_prime)
print("\nhorizon k =", k)

# 3. the graph of achievable codeword costs up to k
graph = build_cost_graph(norm, k)
print("cost graph: %d nodes, %d arcs, %d levels" % (
    graph.node_count, graph.arc_count, graph.level_count))
print("strings per cost (first 8 nodes):",
      [(str(c * graph.quantum), graph.count(c)) for c in graph.nodes_q[:8]])

# 4. words cluster into probability groups that share a level
grouping = group_words(norm, k)
print("\ngroups (half-open word ranges):", grouping.ranges)

# 5. free-string counts drive feasibility of a constraint tuple; the taken
# codewords are given as (cost in quanta, how many) pairs
taken = [(norm.letters_q[0], 1)]  # the codeword 'a'
print("\nwith 'a' taken, free strings cost 1..2:",
      graph.free(norm.unit_q, taken), graph.free(2 * norm.unit_q, taken))

# 6. build one leveled code by hand and convert it
# (level 1 can host only one codeword here: the a-run blocks the other slot)
guess = Guess(2, ((1, 1), (7, 2)))
code = construct_leveled(norm, graph, guess, 6)
print("\nhand-picked guess ->", [runs_to_str(w) for w in code.codewords])
prefix_code = convert_to_prefix(code, k)
print("after conversion   ->", prefix_code.strings())

# 7. the escape block is a doubled-binary counter ending in 'ab'
print("\nescape blocks:", {i: runs_to_str(enc(i)) for i in range(5)})
