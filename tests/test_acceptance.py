"""Acceptance suite: one check per shipped guarantee, one PASS line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria complete. Random corpora are seeded, so every run checks the same
instances and the frozen approximation constant stays meaningful.
"""

import itertools
import math
import random
import time
from fractions import Fraction as F

from lettercost import (
    C_TOTAL,
    Guess,
    Instance,
    InstanceError,
    LetterCosts,
    build_cost_graph,
    construct_leveled,
    convert_to_prefix,
    exact_optimal,
    is_prefix_free,
    normalize,
    solve,
)
from lettercost.cost_graph import CostGraph
from lettercost.driver import group_words

import bench
from helpers import (
    blocker_pairs,
    brute_force_leveled_minimum,
    count_free_brute,
    guess_words,
    leveled_cost,
)


def test_criterion_1_figure_pair_reproduction():
    for costs, expected in [([1, 1], 12), ([1, 3], 21)]:
        inst, _ = Instance.from_weights([2, 2, 1, 1], LetterCosts(costs), F(1, 4))
        t0 = time.perf_counter()
        rep = solve(inst)
        elapsed = time.perf_counter() - t0
        assert rep.total_cost == expected
        assert exact_optimal(inst).optimal_cost == expected
        assert elapsed < 1.0
    print("criterion 1 PASS: reference instances cost exactly 12 and 21")


def test_criterion_2_approximation_ratio_suite():
    rng = random.Random(2024)
    t0 = time.perf_counter()
    worst = F(0)
    for _ in range(200):
        n = rng.randint(1, 8)
        r = rng.randint(2, 3)
        costs = sorted(rng.randint(1, 4) for _ in range(r))
        weights = [rng.randint(1, 9) for _ in range(n)]
        eps = rng.choice([F(1, 5), F(3, 10), F(1, 2)])
        inst, _ = Instance.from_weights(weights, LetterCosts(costs), eps)
        rep = solve(inst)
        exact = exact_optimal(inst)
        ratio = F(rep.total_cost, exact.optimal_cost)
        assert ratio >= 1, (costs, weights, eps)
        assert ratio <= 1 + C_TOTAL * eps, (costs, weights, eps, ratio)
        worst = max(worst, (ratio - 1) / eps)
    elapsed = time.perf_counter() - t0
    assert elapsed < 600
    print(
        "criterion 2 PASS: 200 instances within 1+%s*eps in %.1fs "
        "(worst excess %.3f*eps)" % (C_TOTAL, elapsed, float(worst))
    )


def test_criterion_3_conversion_bound():
    rng = random.Random(3030)
    produced = 0
    while produced < 500:
        costs = rng.choice([[1, 1], [1, 2], [1, 3], [F(1, 2), 1], [1, 1, 2], [1, 2, 2]])
        eps = rng.choice([F(1, 2), F(1)])
        n = rng.randint(2, 10)
        probs = tuple(F(1, n) for _ in range(n))
        norm = normalize(Instance(probs, LetterCosts(costs), eps))
        if norm.instance.letters.costs[0] * n <= norm.epsilon_prime:
            continue
        k = 1 + rng.randint(1, 4) * norm.epsilon_prime
        graph = build_cost_graph(norm, k)
        counts = {}
        for _ in range(rng.randint(0, 2)):
            lvl = rng.randint(1, graph.level_count)
            counts[lvl] = counts.get(lvl, 0) + rng.randint(1, 2)
        try:
            code = construct_leveled(norm, graph, Guess(0, tuple(sorted(counts.items()))), n)
        except InstanceError:
            continue
        produced += 1
        out = convert_to_prefix(code, k)
        assert is_prefix_free(out.codewords)
        total_in = sum(cq * norm.cost_quantum for cq in code.word_costs_q)
        total_out = sum(out.costs())
        bound = 1 + (5 + 2 * math.log2(float(k))) / float(k)
        assert float(total_out / total_in) <= bound + 1e-12, (costs, k)
    print("criterion 3 PASS: 500 conversions prefix-free and within the hard bound")


def test_criterion_4_counting_recurrence_oracle():
    rng = random.Random(4040)
    checked = 0
    while checked < 50:
        if rng.random() < 0.5:
            costs = sorted([F(1, 2), rng.choice([1, F(3, 2), 2])])
        else:
            r = rng.randint(2, 3)
            costs = sorted(rng.choice([1, 2, 3]) for _ in range(r))
        quantum = F(1, 2) if any(c.denominator == 2 for c in map(F, costs)) else F(1)
        k = rng.randint(2, 6)
        k_q = int(k / quantum)
        costs_q = [int(F(c) / quantum) for c in costs]
        distinct = []
        for c in costs_q:
            if distinct and distinct[-1][0] == c:
                distinct[-1] = (c, distinct[-1][1] + 1)
            else:
                distinct.append((c, 1))
        graph = CostGraph(tuple(distinct), int(1 / quantum), int(1 / quantum), k_q, quantum)

        blocked = []
        for cand in [(0,), (0, 0), (1,), (1, 0), (0, 1), (1, 1)]:
            if max(cand) >= len(costs):
                continue
            if sum(costs_q[let] for let in cand) > k_q:
                continue
            if rng.random() < 0.35 and not any(
                cand[: len(b)] == b or b[: len(cand)] == cand for b in blocked
            ):
                blocked.append(cand)
        blockers = blocker_pairs([tuple((let, 1) for let in b) for b in blocked], costs_q)
        for cq in range(k_q + 1):
            expected = 1 if cq == 0 else count_free_brute(costs, blocked, cq * quantum)
            assert graph.free(cq, blockers) == expected, (costs, blocked, cq)
        checked += 1
    print("criterion 4 PASS: free-string counts equal brute force on 50 cost sets")


def test_criterion_5_leveled_construction_optimality():
    corpus = [
        ([1, 1], F(1), F(2)),
        ([1, 1], F(1), F(3)),
        ([1, 2], F(1), F(3)),
        ([F(1, 2), 1], F(1, 2), F(2)),
        ([F(1, 2), 1], F(1, 2), F(3)),
    ]
    checked = 0
    for costs, eps, k in corpus:
        for n in range(2, 6):
            probs = tuple(F(w, (n * (n + 1)) // 2) for w in range(n, 0, -1))
            norm = normalize(Instance(probs, LetterCosts(costs), eps))
            if norm.instance.letters.costs[0] * n <= norm.epsilon_prime:
                continue
            graph = build_cost_graph(norm, k)
            f0_options = [0] + [
                f for f in range(1, 4) if f * norm.letters_q[0] < norm.unit_q
            ]
            for f0 in f0_options:
                for raw in itertools.product(range(n + 1), repeat=graph.level_count):
                    if sum(raw) > n:
                        continue
                    guess = Guess(f0, tuple((i + 1, c) for i, c in enumerate(raw) if c))
                    if guess_words(guess) > n:
                        continue
                    brute = brute_force_leveled_minimum(norm, graph, guess, n)
                    try:
                        code = construct_leveled(norm, graph, guess, n)
                    except InstanceError:
                        assert brute is None, (costs, k, n, guess)
                    else:
                        assert brute is not None
                        assert leveled_cost(code) == brute
                        checked += 1
    assert checked > 100
    print(
        "criterion 5 PASS: construction matches brute-force minimum on %d "
        "consistent guesses" % checked
    )


def test_criterion_6_structural_bounds():
    rng = random.Random(6060)
    runs = 0
    while runs < 40:
        n = rng.randint(2, 10)
        r = rng.randint(2, 3)
        costs = sorted(rng.randint(1, 4) for _ in range(r))
        weights = [rng.randint(1, 9) for _ in range(n)]
        eps = rng.choice([F(1, 5), F(3, 10), F(1, 2), F(1)])
        inst, _ = Instance.from_weights(weights, LetterCosts(costs), eps)
        rep = solve(inst)
        assert rep.normalized_cost >= 1 - inst.probabilities[0]
        if rep.mode != "main":
            continue
        norm = normalize(inst)
        e = norm.epsilon_prime
        k = rep.k
        grouping = group_words(norm, k)
        assert grouping.group_count <= 1 + 4 * k / (e * e)
        pack = (1 - inst.probabilities[0]) * e * e / k
        for s, t in grouping.ranges:
            if t - s > 1:
                assert F(sum(inst.weights_int[s:t]), inst.scale) <= pack
        assert rep.graph_nodes <= n * k / e
        assert rep.graph_arcs <= len(norm.distinct_q) * rep.graph_nodes
        runs += 1
    print("criterion 6 PASS: grouping, graph, and lower-bound invariants on 40 runs")


def test_criterion_7_tiny_cheapest_letter():
    rng = random.Random(7070)
    checked = 0
    while checked < 50:
        n = rng.randint(1, 8)
        eps = rng.choice([F(3, 10), F(1, 2)])
        denom = rng.randint(math.ceil(n / eps), 8 * math.ceil(n / eps))
        l1 = F(1, denom)
        r = rng.randint(2, 3)
        costs = [l1, 1] + ([rng.randint(1, 2)] * (r - 2))
        weights = [rng.randint(1, 9) for _ in range(n)]
        inst, _ = Instance.from_weights(weights, LetterCosts(sorted(map(F, costs))), eps)
        if inst.letters.costs[0] / inst.letters.costs[1] * n > eps:
            continue
        rep = solve(inst)
        assert rep.mode == "tiny" or n == 1
        assert is_prefix_free(rep.code.codewords)
        exact = exact_optimal(inst)
        assert exact.optimal_cost <= rep.total_cost <= (1 + eps) * exact.optimal_cost
        checked += 1
    print("criterion 7 PASS: 50 tiny-letter instances within (1+eps) of optimal")


def test_criterion_8_runtime_scaling():
    t0 = time.perf_counter()
    build = bench.kprefix_ladder()
    conv = bench.convert_ladder()
    elapsed = time.perf_counter() - t0
    for name, results in (("construction", build), ("conversion", conv)):
        for factor in bench.growth_factors(results):
            assert factor <= 2.5, (name, results)
    assert elapsed < 300
    print(
        "criterion 8 PASS: ladders to n=%d grew at most x%.2f per doubling "
        "(%.1fs)" % (build[-1][0], max(bench.growth_factors(build) + bench.growth_factors(conv)), elapsed)
    )
