"""Independent reference oracles and generators shared by the tests.

The brute-force oracles enumerate explicitly, string by string. The
recurrence references count free strings the sequential way the library did
before it used the closed form, cost by cost in increasing order. The
branch-and-bound reference finds the exact optimum the way the library did
before its signature search, candidate string by candidate string, and
huffman_cost finds it by the greedy merge when every letter costs the same.
The materialization and splice references build a leveled code's codewords
and their escape conversion the way the library did before it split tail
strings into a prefix and a shared suffix: one walk per pick down to whole
strings, then one pass over each converted codeword's runs. The tiny-path
references price and build a run length's code the way the library did
before it walked the candidates as strided runs: one sorted pool of all
candidates, cut at n. All stay
independent of the library's counting, construction, conversion and oracle
paths. search_minimum, by contrast, runs the library's own guess search, at
any horizon k.
"""

from collections import Counter
from fractions import Fraction
import heapq
import itertools
import math
from operator import mul
import random

from lettercost import (
    CodeAssignment,
    Instance,
    InstanceError,
    LetterCosts,
    OracleResult,
    build_cost_graph,
    driver,
    enc,
    group_words,
    normalize,
)
from lettercost.core import _unchecked, runs_from_letters


def all_strings_up_to_cost(costs, cap):
    """Every nonempty letter tuple whose cost is at most cap, by brute DFS.
    Costs are summed in the type given: ints stay ints."""
    out = []
    stack = [((), 0)]
    while stack:
        word, c = stack.pop()
        for let in range(len(costs)):
            nc = c + costs[let]
            if nc <= cap:
                nw = word + (let,)
                out.append((nw, nc))
                stack.append((nw, nc))
    return out


def strings_of_cost(costs, target):
    return [w for w, c in all_strings_up_to_cost(costs, target) if c == target]


def count_free_brute(costs, blocked_words, target):
    """Number of cost-`target` strings with no prefix among blocked_words."""
    blocked = [tuple(b) for b in blocked_words]

    def has_blocked_prefix(word):
        return any(word[: len(b)] == b for b in blocked)

    return sum(1 for w in strings_of_cost(costs, target) if not has_blocked_prefix(w))


def blocker_pairs(words, letters_q):
    """The (cost_q, how_many) blockers of a codeword set, as CostGraph.free
    takes them: its members' costs in quanta, letter by letter, counted."""
    costs = Counter(sum(letters_q[let] * rep for let, rep in word) for word in words)
    return sorted(costs.items())


def leveled_setup(costs, eps, k, n):
    """(norm, graph) for n equally likely words over the given letter costs,
    with the cost graph built at horizon k."""
    probs = tuple(Fraction(1, n) for _ in range(n))
    norm = normalize(Instance(probs, LetterCosts(costs), Fraction(eps)))
    return norm, build_cost_graph(norm, Fraction(k))


def leveled_cost(code):
    """Probability-weighted cost of a LeveledCode in normalized cost units:
    the weighted sum over word_costs_q that solve asserts, as a Fraction."""
    instance = code.norm.instance
    value = sum(map(mul, instance.weights_int, code.word_costs_q))
    return Fraction(value, instance.scale) * code.graph.quantum


def search_minimum(norm, k):
    """kprefix cost of the cheapest guess at horizon k: driver._Search over
    every level-0 size, run as solve runs it at choose_k's horizon."""
    graph = build_cost_graph(norm, k)
    search = driver._Search(norm, graph, group_words(norm, k), driver.DEFAULT_BUDGET)
    for f0 in driver.level0_size_candidates(norm):
        search.run(f0)
    return Fraction(search.best[0], norm.instance.scale) * graph.quantum


def huffman_cost(instance):
    """Optimal code cost, in the instance's raw scale, when every letter costs
    the same: the classical r-ary greedy merge, padded with zero weights so
    every merge takes r items, summing the merged weights. A lone word takes
    one letter."""
    letters = instance.letters
    r, c = letters.r, letters.costs_int[0]
    assert set(letters.costs_int) == {c}
    heap = list(instance.weights_int)
    heap += [0] * (-(len(heap) - 1) % (r - 1))
    heapq.heapify(heap)
    total = heap[0] if len(heap) == 1 else 0
    while len(heap) > 1:
        merged = sum(heapq.heappop(heap) for _ in range(r))
        total += merged
        heapq.heappush(heap, merged)
    return Fraction(total * c, instance.scale * letters.scale) * instance.weight_total


def is_prefix_free_pairwise(words):
    """O(m^2) reference predicate over letter tuples or strings."""
    ws = [tuple(w) for w in words]
    for i, a in enumerate(ws):
        for j, b in enumerate(ws):
            if i != j and b[: len(a)] == a:
                return False
    return True


def is_prefix_free_sorted(codewords):
    """Reference predicate over runs, with no recursion: spelled out and
    sorted, a codeword that is a prefix of another, or equal to it, is a
    prefix of the one that follows it."""
    spelled = sorted("".join(chr(let) * rep for let, rep in runs) for runs in codewords)
    return not any(b.startswith(a) for a, b in zip(spelled, spelled[1:]))


def is_k_prefix_free_pairwise(codewords, k, costs):
    """O(m^2) reference: no codeword of cost below k is a prefix of another
    (duplicates count). Codewords are runs; costs[let] is the cost of letter
    let, in the unit of k."""
    ws = [tuple(let for let, rep in w for _ in range(rep)) for w in codewords]
    for i, a in enumerate(ws):
        if sum(costs[let] for let in a) >= k:
            continue
        for j, b in enumerate(ws):
            if i != j and b[: len(a)] == a:
                return False
    return True


def fraction_codeword_cost(runs, costs):
    """Codeword cost summed in Fractions, letter by letter run."""
    return sum((Fraction(costs[let]) * rep for let, rep in runs), Fraction(0))


def fraction_reorder(codewords, costs):
    """Codewords sorted on the key (Fraction cost, index)."""
    order = sorted(
        range(len(codewords)), key=lambda i: (fraction_codeword_cost(codewords[i], costs), i)
    )
    return tuple(codewords[i] for i in order)


def fraction_code_cost(codewords, costs, probabilities):
    """Probability-weighted code cost summed in Fractions."""
    return sum(
        (p * fraction_codeword_cost(c, costs) for p, c in zip(probabilities, codewords)),
        Fraction(0),
    )


def fraction_instance_words(weights):
    """(weights_int, scale, probabilities) that an Instance of the raw weights
    holds, worked out in Fractions: each weight over the total, sorted
    nonincreasing, scale the lcm of their denominators and weights_int each
    probability times scale."""
    ws = [Fraction(w) for w in weights]
    total = sum(ws)
    probs = tuple(sorted((w / total for w in ws), reverse=True))
    scale = math.lcm(*(p.denominator for p in probs))
    return tuple(p.numerator * (scale // p.denominator) for p in probs), scale, probs


def random_instance(rng: random.Random, max_n=8, max_r=3, max_cost=4, eps_choices=None):
    n = rng.randint(1, max_n)
    r = rng.randint(2, max_r)
    costs = sorted(rng.randint(1, max_cost) for _ in range(r))
    weights = [rng.randint(1, 9) for _ in range(n)]
    eps = rng.choice(eps_choices or [Fraction(1, 5), Fraction(3, 10), Fraction(1, 2)])
    inst, _ = Instance.from_weights(weights, LetterCosts(costs), eps)
    return inst


def choose_k_scan(epsilon):
    """driver.choose_k by a linear scan of the grid 1 + m*epsilon: the first
    m whose overhead test passes, with the same float test."""
    num, den = epsilon.numerator, epsilon.denominator
    limit = 2.0 * (num / den)
    m = 1
    while True:
        top = den + m * num
        kf = top / den
        if (5.0 + 2.0 * math.log2(kf)) / kf <= limit:
            return Fraction(top, den)
        m += 1


def tuples_to_runs(words):
    return [runs_from_letters(w) for w in words]


def brute_force_leveled_minimum(norm, graph, guess, n):
    """Minimum cost over every leveled k-prefix code consistent with the guess,
    by explicit enumeration of level codeword subsets.

    Enumerates in integers: letter costs in quanta (each normalized cost
    divided by the cost quantum) and integer weights (probabilities times
    instance.scale); one Fraction is made for the result."""
    import itertools

    quantum = norm.cost_quantum
    in_quanta = [c / quantum for c in norm.instance.letters.costs]
    assert all(c.denominator == 1 for c in in_quanta)
    costs_q = [c.numerator for c in in_quanta]
    weights = norm.instance.weights_int
    k_q = graph.k_q
    universe = all_strings_up_to_cost(costs_q, k_q + 2 * norm.unit_q)
    tail = [(word, cost) for word, cost in universe if cost >= k_q]

    by_cost_q = {}
    for word, cost in universe:
        by_cost_q.setdefault(cost, []).append(word)

    level0 = ()
    if guess.f0 > 0:
        if guess.f0 * costs_q[0] >= norm.unit_q:
            return None
        level0 = ((0,) * guess.f0,)

    pools = []
    for lvl, cnt in guess.level_counts:
        target = graph.level_target(lvl)
        pools.append((target, cnt, by_cost_q.get(target, [])))

    tail_needed = n - guess.codeword_total()
    if tail_needed < 0:
        return None

    best = None
    for combo in itertools.product(
        *[itertools.combinations(pool, cnt) for _, cnt, pool in pools]
    ):
        chosen = list(level0)
        for group in combo:
            chosen.extend(group)
        if not is_prefix_free_pairwise(chosen):
            continue
        # eligible tail strings: cost >= k, no chosen prefix (all of cost < k)
        eligible = [
            cost for word, cost in tail if not any(word[: len(s)] == s for s in chosen)
        ]
        eligible.sort()
        if len(eligible) < tail_needed:
            continue
        word_costs = sorted(
            [sum(costs_q[let] for let in w) for w in chosen] + eligible[:tail_needed]
        )
        total = sum(w * c for w, c in zip(weights, word_costs))
        if best is None or total < best:
            best = total
    return None if best is None else Fraction(best, norm.instance.scale) * quantum


def free_counts_recurrence(distinct_q, k_q, costs_q):
    """Free-string counts at costs 0..k_q for a codeword set given by its
    costs in quanta, by the recurrence v[c] = sum over letters of
    v[c - letter cost] minus the members of cost c."""
    blocked = Counter(costs_q)
    v = [1 - blocked[0]]
    for c in range(1, k_q + 1):
        v.append(sum(mult * v[c - w] for w, mult in distinct_q if w <= c) - blocked[c])
    return v


def tail_recurrence(distinct_q, v, m):
    """The m cheapest strings past the table's end (cost >= k_q = len(v) - 1)
    as (cost, how_many) batches, extending the recurrence; None when fewer
    exist. The walk gives up once the cost is more than max_letter past the
    last nonzero count, the table's own entries included."""
    if m <= 0:
        return []
    k_q = len(v) - 1
    top = max(w for w, _ in distinct_q)
    ext = list(v)
    last_nonzero = -top - 1
    for c, value in enumerate(v):
        if value > 0:
            last_nonzero = c
    picks = []
    c = k_q
    while m > 0:
        if c > k_q:
            ext.append(sum(mult * ext[c - w] for w, mult in distinct_q if w <= c))
        if ext[c] > 0:
            last_nonzero = c
            take = min(m, ext[c])
            picks.append((c, take))
            m -= take
        if c - last_nonzero > top:
            return None
        c += 1
    return picks


def leveled_recurrence(norm, graph, guess, n):
    """construct_leveled's picks by the recurrence: one pass over the costs
    1..k_q that subtracts the level-0 run at its cost and reserves each
    level's codewords at its target as the pass reaches it; None where no
    code meets the guess."""
    distinct_q, k_q = graph.distinct_q, graph.k_q
    l1_q = norm.letters_q[0]
    if guess.codeword_total() > n:
        return None
    if guess.f0 > 0 and guess.f0 * l1_q >= norm.unit_q:
        return None
    wanted = dict(guess.level_counts)
    levels = (k_q - norm.unit_q) // norm.eps_q
    if any(not 1 <= lvl <= levels for lvl in wanted):
        return None
    level_at = {norm.unit_q + i * norm.eps_q - 1: i for i in range(1, levels + 1)}
    blocked0 = guess.f0 * l1_q if guess.f0 > 0 else -1
    v = [1]
    picks = []
    for c in range(1, k_q + 1):
        total = sum(mult * v[c - w] for w, mult in distinct_q if w <= c)
        if c == blocked0:
            total -= 1
            picks.append((c, 1))
        want = wanted.get(level_at.get(c), 0)
        if want > 0:
            if total < want:
                return None
            total -= want
            picks.append((c, want))
        v.append(total)
    tail = tail_recurrence(distinct_q, v, n - guess.codeword_total())
    return None if tail is None else picks + tail


def exact_optimal_reference(instance):
    """Exact optimum by branch and bound over ordered prefix codes, as an
    OracleResult whose nodes_explored counts candidates tried.

    Candidate codewords stream in (cost, lexicographic) order, each word in
    turn takes a candidate after its predecessor's, and a branch dies when
    its cost plus the cheapest conceivable completion (each remaining word
    on the next candidate, conflicts ignored) cannot beat the incumbent. A
    code trie with a single-child internal node contracts to a strictly
    cheaper code, so candidates stop at n - 1 letters. Runs in integers, like
    the library: costs times letters.scale, probabilities times scale.
    """
    n = instance.n
    letters = instance.letters
    costs = letters.costs_int
    weights = instance.weights_int
    r = letters.r

    # initial incumbent: the n cheapest codewords of one common length
    depth = 1
    while r**depth < n:
        depth += 1
    best_words = sorted(
        itertools.product(range(r), repeat=depth),
        key=lambda w: (sum(costs[let] for let in w), w),
    )[:n]
    best = sum(weights[i] * sum(costs[let] for let in w) for i, w in enumerate(best_words))
    nodes = 0

    word_cap = max(n - 1, 1)
    heap = [(c, (let,)) for let, c in enumerate(costs)]
    heapq.heapify(heap)
    pool_costs = []
    pool_words = []

    def ensure(count):
        while len(pool_costs) < count:
            if not heap:
                return False
            cost, word = heapq.heappop(heap)
            pool_costs.append(cost)
            pool_words.append(word)
            if len(word) < word_cap:
                for let, c in enumerate(costs):
                    heapq.heappush(heap, (cost + c, word + (let,)))
        return True

    chosen = []

    def dfs(word_i, min_idx, partial):
        nonlocal best, best_words, nodes
        if word_i == n:
            if partial < best:
                best = partial
                best_words = list(chosen)
            return
        remaining = n - word_i
        rest = weights[word_i:]
        idx = min_idx
        while True:
            nodes += 1
            if not ensure(idx + remaining):
                return
            bound = sum(map(mul, rest, pool_costs[idx : idx + remaining]))
            if partial + bound >= best:
                return
            word = pool_words[idx]
            # a chosen word comes earlier in (cost, lex) order, so only it
            # can be a prefix of this one
            if not any(word[: len(other)] == other for other in chosen):
                chosen.append(word)
                dfs(word_i + 1, idx + 1, partial + rest[0] * pool_costs[idx])
                chosen.pop()
            idx += 1

    dfs(0, 0, 0)
    code = CodeAssignment(tuple(runs_from_letters(w) for w in best_words), letters)
    cost = Fraction(best, instance.scale * letters.scale) * instance.weight_total
    return OracleResult(cost, code, nodes)


def materialize_reference(code):
    """A LeveledCode's codewords: each (cost, count) pick walked down to the
    first `count` strings of its cost in letter order, with no blocking
    codeword as a prefix. The codewords of the picks below k block; they are
    kept as per-cost sets of runs."""
    letters_q = code.norm.letters_q
    r = len(letters_q)
    graph = code.graph
    blocked = {}
    words = []
    for cost_q, take in code.picks:
        graph.count(cost_q)  # extends the string counts to every cost read below
        count = graph.counts
        out = []
        stack = [((), cost_q, 0)]
        while stack:
            runs, budget, let = stack.pop()
            if let + 1 < r and letters_q[let + 1] <= budget:
                stack.append((runs, budget, let + 1))
            rest = budget - letters_q[let]
            if not count[rest]:
                continue
            if runs and runs[-1][0] == let:
                runs = runs[:-1] + ((let, runs[-1][1] + 1),)
            else:
                runs = runs + ((let, 1),)
            marks = blocked.get(cost_q - rest)
            if marks is not None and runs in marks:
                continue
            if rest:
                stack.append((runs, rest, 0))
            else:
                out.append(runs)
                if len(out) == take:
                    break
        assert len(out) == take
        if cost_q < graph.k_q:
            blocked.setdefault(cost_q, set()).update(out)
        words.extend(out)
    return words


def transform_reference(runs, letter_costs, k, blocks):
    """alpha + enc(i) + beta + 'b' for one codeword of cost >= k, with runs
    merged at the seams, in one pass over its runs. alpha is the shortest
    prefix of cost >= k, beta the rest, and i the number of second letters
    in beta. Costs are integers; blocks memoizes enc(i)."""
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


def convert_reference(code):
    """The escape conversion of a LeveledCode, from materialize_reference's
    codewords: those of cost >= k pass through transform_reference, in quanta."""
    k_q, letters_q = code.graph.k_q, code.norm.letters_q
    blocks = {}
    return tuple(
        transform_reference(runs, letters_q, k_q, blocks) if cost >= k_q else runs
        for runs, cost in zip(materialize_reference(code), code.word_costs_q)
    )


def tiny_value_reference(instance, i0):
    """The cost of tiny_pool_reference's code, times instance.scale *
    letters.scale, from one sort of every candidate's bare cost: entries of
    equal cost give the same sum whichever of them is kept."""
    n = instance.n
    costs = instance.letters.costs_int
    c1, c2 = costs[:2]
    pool = sorted(
        itertools.chain(
            (i0 * c1,),
            range(2 * c2, 2 * c2 + n * c1, c1),
            *(range(cx + n * c1, cx + (n + min(i0, n)) * c1, c1) for cx in costs[1:]),
        )
    )
    return sum(map(mul, instance.weights_int, pool))


def tiny_pool_reference(instance, i0):
    """(value, code) of the n cheapest tiny-path candidates for run length i0:
    every (cost, family, j, letter) entry of a^i0 (family 0), b a^j b for
    j < n (1) and a^j x a^n for j < min(i0, n) (2) sorted as a tuple, then
    cut at n."""
    n = instance.n
    costs = instance.letters.costs_int
    c1, c2 = costs[:2]
    pool = [(i0 * c1, 0, i0, 0)]
    pool.extend((2 * c2 + jj * c1, 1, jj, 0) for jj in range(n))
    for x in range(1, len(costs)):
        pool.extend((jj * c1 + costs[x] + n * c1, 2, jj, x) for jj in range(min(i0, n)))
    pool.sort()
    words = []
    for _, family, jj, x in pool[:n]:
        if family == 0:
            words.append(((0, jj),))
        elif family == 1:
            words.append(((1, 1), (0, jj), (1, 1)) if jj else ((1, 2),))
        else:
            words.append(((0, jj), (x, 1), (0, n)) if jj else ((x, 1), (0, n)))
    prices = tuple(e[0] for e in pool[:n])
    code = _unchecked(
        CodeAssignment, codewords=tuple(words), letters=instance.letters, _costs_int=prices
    )
    return sum(map(mul, instance.weights_int, prices)), code
