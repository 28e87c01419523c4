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
candidates, cut at n. The reference loader reads an instance file the way
the command line did before it parsed whole lines and built instances in
bulk: token by token, and every weight through a Fraction. The layout scans
list a cost graph's live levels, nodes and arcs the way the library did
before the graph computed them in one pass each: level by level, cost by
cost and arc by arc. fraction_normalize conditions the letter costs the way
the library did before its quantum was the gcd of the letter costs: in
Fractions, with the finer quantum min(l1, epsilon'). fraction_level0_sizes,
fraction_group_ranges and fraction_graph_refusals work out the level-0
sizes, the groups and the cost graph's refusals the way the library did
before it kept them in ints: in Fractions. All stay
independent of the library's counting, construction, conversion and oracle
paths. single_pass_minimize runs the guess search the way the library did
before it took a first pass to seed its incumbent: one pass, from the
all-tail incumbent. every_other_level_minimize runs it the way the library
did before that first pass merged the groups in pairs: a first pass over
every other live level, then the full one. reference_run runs one pass of
it the way the library did before each node checked its children's bounds
before building their capacity lists. search_minimum, by contrast, runs
the library's own guess search, at any horizon k, and solved_leveled_code
records the leveled code that solve itself converts.
"""

from bisect import bisect_left
from collections import Counter
from fractions import Fraction
import heapq
import itertools
import math
from operator import mul
import random

from lettercost import (
    GLYPHS,
    CodeAssignment,
    Instance,
    InstanceError,
    LetterCosts,
    OracleResult,
    build_cost_graph,
    convert_to_prefix,
    driver,
    enc,
    group_words,
    normalize,
    solve,
)
from lettercost.cli import ParseError
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


def guess_words(guess):
    """The codewords a guess places below k: its level-0 run, when it has
    one, and every level's count."""
    return sum(cnt for _, cnt in guess.level_counts) + (1 if guess.f0 > 0 else 0)


def leveled_cost(code):
    """Probability-weighted cost of a LeveledCode in normalized cost units:
    the weighted sum over word_costs_q, as a Fraction, that equals the
    search's value on the code solve builds (test_driver.py, TestHandOver)."""
    instance = code.norm.instance
    value = sum(map(mul, instance.weights_int, code.word_costs_q))
    return Fraction(value, instance.scale) * code.graph.quantum


def search_minimum(norm, k):
    """kprefix cost of the cheapest guess at horizon k: driver._Search's
    minimize, as solve runs it at choose_k's horizon."""
    graph = build_cost_graph(norm, k)
    search = driver._Search(norm, graph, group_words(norm, k), driver.DEFAULT_BUDGET)
    search.minimize()
    return Fraction(search.best[0], norm.instance.scale) * graph.quantum


def single_pass_minimize(search):
    """driver._Search.minimize the way the library ran it before the search
    took a first pass to seed its incumbent: one pass over all live levels,
    each level-0 size in increasing order, from the all-tail incumbent."""
    for f0 in driver.level0_size_candidates(search.norm):
        search.run(f0)


def every_other_level_minimize(search):
    """driver._Search.minimize the way the library ran it before its first
    pass merged the groups in pairs: every level-0 size over every other live
    level only, then over all of them from that pass's best value plus one.
    Rows before the last gap in the targets are keyed by position in them,
    so each pass has its own; run finds that gap in the targets it searches."""
    sizes = driver.level0_size_candidates(search.norm)
    live = search.targets
    search.targets, search.rows = live[::2], {}
    for f0 in sizes:
        search.run(f0)
    search.best[0] += 1
    search.targets, search.rows = live, {}
    for f0 in sizes:
        search.run(f0)


def reference_run(search, f0):
    """driver._Search.run the way the library ran it before each node
    checked its children's bounds from its own capacities: every child's
    capacity list built in full, up to its reach, and its bound checked on
    entry; the root's list from CostGraph.free on every live level, cut at
    its reach; a row over every live level above its own. It reads the
    search's grouping, targets, incumbent and budget and updates explored
    and leaves, but keeps its own rows."""
    g = search.graph
    counts = g.counts
    sizes, ranges = search.sizes, search.ranges
    group_w, rest_w = search.group_w, search.rest_w
    targets, n, prefix = search.targets, search.n, search.prefix_w
    best = search.best
    L, G = len(targets), len(sizes)
    f0_cost = f0 * search.norm.letters_q[0]
    start = 1 if f0 > 0 else 0
    base = group_w[0] * f0_cost
    placed = [(f0_cost, 1)] if f0 > 0 else []
    rows = {}

    def bump():
        search.explored += 1
        if search.explored > search.budget:
            raise driver.BudgetExceeded(search.explored, search.budget)

    def reach(lpos, partial, rest, incumbent):
        w_last = group_w[-1]
        need = incumbent - partial - (rest - w_last) * targets[lpos]
        return bisect_left(targets, -(-need // w_last), lpos)

    def completion_bound(caps, lpos_min, first_word):
        value, w = 0, first_word
        for cap, target in zip(caps, itertools.islice(targets, lpos_min, None)):
            if cap > 0:
                end = w + cap
                if end >= n:
                    return value + (prefix[n] - prefix[w]) * target
                value += (prefix[end] - prefix[w]) * target
                w = end
        return value + (prefix[n] - prefix[w]) * g.k_q

    def tail_value(batches, w):
        value = 0
        for c, take in batches:
            value += (prefix[w + take] - prefix[w]) * c
            w += take
        return value

    def leaf(gpos, partial):
        search.leaves += 1
        first_word = ranges[gpos][0] if gpos < G else n
        batches = g.tail(n - first_word, placed, bump)
        if batches is None:
            return
        value = partial + tail_value(batches, first_word)
        if value < best[0]:
            best[:] = value, placed + batches

    def dfs(gpos, lpos_min, partial, caps):
        if gpos == G:
            leaf(gpos, partial)
            return
        size, gw, rest = sizes[gpos], group_w[gpos], rest_w[gpos]
        if partial + completion_bound(caps, lpos_min, ranges[gpos][0]) >= best[0]:
            return
        for lpos in range(lpos_min, L):
            bump()
            target = targets[lpos]
            if partial + rest * target >= best[0]:
                break
            at = lpos - lpos_min
            if size > caps[at]:
                continue
            child = []
            if gpos + 1 < G:
                hi = reach(lpos, partial, rest, best[0])
                row = rows.get((lpos, size))
                if row is None:
                    row = rows[lpos, size] = [size * counts[tj - target] for tj in targets[lpos:]]
                child = [c - r for c, r in zip(caps[at : hi - lpos_min], row)]
            placed.append((target, size))
            dfs(gpos + 1, lpos, partial + gw * target, child)
            placed.pop()
        if partial + rest * g.k_q < best[0]:
            leaf(gpos, partial)

    root = [g.free(t, placed) for t in targets]
    del root[reach(0, base, rest_w[start], best[0]) :]
    dfs(start, 0, base, root)


def solved_leveled_code(monkeypatch, instance):
    """The leveled code that solve hands to convert_to_prefix on the main
    path, recorded at that call."""
    handed = []

    def convert(code, k):
        handed.append(code)
        return convert_to_prefix(code, k)

    with monkeypatch.context() as patch:
        patch.setattr(driver, "convert_to_prefix", convert)
        assert solve(instance).mode == "main"
    (code,) = handed
    return code


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


def fraction_normalize(instance):
    """normalize's letter costs, epsilon' and cost quantum, worked out in
    Fractions the way the library did before it took the gcd of the letter
    costs as the quantum: the quantum is min(l1, epsilon')."""
    eps = instance.epsilon
    costs = instance.letters.costs
    step1 = [c / costs[1] for c in costs]
    l1 = step1[0]
    if eps >= l1:
        eps2 = (eps / l1).__floor__() * l1  # largest multiple of l1 that is <= eps
    else:
        eps2 = l1 / -((-l1) // eps)  # largest divisor of l1 that is <= eps
    step3 = [l1] + [-((-c) // eps2) * eps2 for c in step1[1:]]
    final = [c / step3[1] for c in step3]
    eps_prime = eps2 / step3[1]
    return final, eps_prime, min(final[0], eps_prime)


def fraction_level0_sizes(norm):
    """driver.level0_size_candidates the way the library computed it before
    it kept (1 + eps')^j / eps' in ints: each size a Fraction power,
    rounded up."""
    f_max = (norm.unit_q - 1) // norm.letters_q[0]
    if f_max <= 0:
        return [0]
    eps = norm.epsilon_prime
    out = set(range(0, min(math.ceil(1 / eps), f_max) + 1))
    j = 1
    while True:
        size = math.ceil((1 + eps) ** j / eps)
        if size > f_max:
            break
        out.add(size)
        j += 1
    out.add(f_max)
    return sorted(out)


def fraction_group_ranges(norm, k):
    """driver.group_words' ranges the way the library worked them out before
    it compared integer weights with the packing cap cross-multiplied: the
    cap (1 - p1) * eps'^2 / k a Fraction, and every word's probability and
    every packed group's a Fraction compared with it."""
    probs = norm.instance.probabilities
    eps = norm.epsilon_prime
    cap = (1 - probs[0]) * eps * eps / Fraction(k)
    n = len(probs)
    ranges = [(0, 1)]
    i = 1
    while i < n and probs[i] > cap / 2:
        ranges.append((i, i + 1))
        i += 1
    while i < n:
        j, acc = i, Fraction(0)
        while j < n and acc + probs[j] <= cap:
            acc += probs[j]
            j += 1
        ranges.append((i, j))
        i = j
    return tuple(ranges)


def fraction_graph_refusals(norm, k):
    """build_cost_graph's two refusals worked out in Fractions, the way the
    library did before it cross-multiplied ints: (k - 1 is no multiple of
    eps', the cheapest letter costs at most eps'/n)."""
    eps = norm.epsilon_prime
    return (
        ((Fraction(k) - 1) / eps).denominator != 1,
        norm.instance.letters.costs[0] * norm.n <= eps,
    )


def fraction_grid(instance):
    """(distinct_q, unit_q, eps_q, quantum) of fraction_normalize's grid:
    every cost in its quanta, which must come out whole."""
    final, eps_prime, quantum = fraction_normalize(instance)
    in_quanta = [c / quantum for c in [*final, 1, eps_prime]]
    assert all(c.denominator == 1 for c in in_quanta)
    *letters_q, unit_q, eps_q = [c.numerator for c in in_quanta]
    distinct_q = tuple(sorted(Counter(letters_q).items()))
    return distinct_q, unit_q, eps_q, quantum


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

    tail_needed = n - guess_words(guess)
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


def live_targets_scan(graph):
    """The target costs of the graph's live levels, level by level, the way
    the guess search listed them before the graph did: level_target(i) for
    every level i, kept where a string has that cost."""
    levels = range(1, graph.level_count + 1)
    return [t for t in map(graph.level_target, levels) if graph.count(t) > 0]


def nodes_scan(graph):
    """The graph's node costs, cost by cost over the grid costs up to k."""
    return [c for c in range(graph.k_q + 1) if c * graph.quantum <= graph.k and graph.count(c) > 0]


def arc_count_scan(graph):
    """The graph's arcs, one per node and distinct letter cost that stays
    within k, counted one by one."""
    within = graph.k / graph.quantum
    return sum(1 for c in nodes_scan(graph) for w, _ in graph.distinct_q if c + w <= within)


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
    if guess_words(guess) > n:
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
    tail = tail_recurrence(distinct_q, v, n - guess_words(guess))
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


def saturating_ladder_reference(instance):
    """The tiny path's run lengths as they once were: distinct
    floor((1+eps)^j), until a^i0 can no longer be among the n cheapest
    candidates (i0 >= n and i0 * c1 > 2 * c2 + n * c1)."""
    n, eps = instance.n, instance.epsilon
    c1, c2 = instance.letters.costs_int[:2]
    out = []
    top = bottom = 1
    while True:
        i0 = top // bottom
        if not out or i0 > out[-1]:
            out.append(i0)
            if i0 >= n and i0 * c1 > 2 * c2 + n * c1:
                break
        top *= eps.numerator + eps.denominator
        bottom *= eps.denominator
    return out


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


def parse_numbers_reference(text, line_no):
    """The numbers on one line, token by token: an int for plain ASCII
    digits, else a Fraction; a token that is neither raises ParseError at
    its column."""
    values = []
    col = 1
    for token in text.split():
        col = text.index(token, col - 1) + 1
        try:
            if token.isascii() and token.isdigit():
                values.append(int(token))
            else:
                values.append(Fraction(token))
        except (ValueError, ZeroDivisionError):
            raise ParseError(line_no, col, "cannot parse %r as a number" % token)
        col += len(token)
    return values


def weights_reference(weights):
    """(weights_int, scale, weight_total, order) of Instance.from_weights,
    with every weight made a Fraction: the ints are the weights times the
    lcm of their denominators, sorted on the key (-w, input position) and
    divided by their gcd."""
    ws = [Fraction(w) for w in weights]
    if any(w <= 0 for w in ws):
        raise InstanceError("weights must be strictly positive")
    den = math.lcm(*(w.denominator for w in ws))
    ints = [w.numerator * (den // w.denominator) for w in ws]
    order = sorted(range(len(ints)), key=lambda i: (-ints[i], i))
    g = math.gcd(*ints)
    return tuple(ints[i] // g for i in order), sum(ints) // g, Fraction(sum(ints), den), order


def load_reference(text):
    """What cli.load_instance reads from an instance file's text, as
    (weights_int, scale, weight_total, order, glyphs, raw_weights); raises
    the ParseError that load_instance raises. Lines are numbered as in the
    file, blank lines included."""
    lines = [(no, ln) for no, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    if len(lines) < 2:
        raise ParseError(1, 1, "need a letter-cost line and a weight line")
    costs = parse_numbers_reference(lines[0][1], lines[0][0])
    weights = parse_numbers_reference(lines[1][1], lines[1][0])
    if len(lines) >= 3:
        no, line = lines[2]
        glyphs = "".join(line.split())
        if len(glyphs) != len(costs):
            raise ParseError(no, 1, "expected %d glyphs" % len(costs))
        for i, glyph in enumerate(glyphs):
            if glyph in glyphs[:i]:
                col = line.index(glyph, line.index(glyph) + 1) + 1
                raise ParseError(no, col, "glyph %r repeats; the code would not decode" % glyph)
    elif len(costs) > len(GLYPHS):
        raise ParseError(
            lines[1][0] + 1,
            1,
            "%d letters need a glyph line; there are %d default glyphs" % (len(costs), len(GLYPHS)),
        )
    else:
        glyphs = GLYPHS[: len(costs)]
    if len(lines) > 3:
        raise ParseError(lines[3][0], 1, "expected at most 3 lines: letter costs, weights, glyphs")
    letter_order = sorted(range(len(costs)), key=lambda i: (costs[i], i))
    try:
        LetterCosts([costs[i] for i in letter_order])
    except InstanceError as exc:
        raise ParseError(lines[0][0], 1, str(exc))
    try:
        words = weights_reference(weights)
    except InstanceError as exc:
        raise ParseError(lines[1][0], 1, str(exc))
    return words + ("".join(glyphs[i] for i in letter_order), weights)
