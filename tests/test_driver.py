import gc
import hashlib
import itertools
import math
import random
import sys
import time
import tracemalloc
from bisect import bisect_left
from fractions import Fraction as F
from operator import mul

import pytest

from lettercost import (
    C_TOTAL,
    BudgetExceeded,
    Grouping,
    Guess,
    Instance,
    InstanceError,
    LetterCosts,
    LeveledCode,
    build_cost_graph,
    choose_k,
    code_cost,
    construct_leveled,
    exact_optimal,
    group_words,
    is_prefix_free,
    normalize,
    solve,
)
from lettercost import driver, oracles
from lettercost.core import _price_int, runs_to_str
from lettercost.cost_graph import CostGraph
from lettercost.driver import (
    _tiny_pool,
    _tiny_segments,
    _tiny_values,
    guess_stream_size,
    level0_size_candidates,
    tiny_candidate_code,
    tiny_run_length_candidates,
)

from helpers import (
    capacity_sum_run,
    choose_k_scan,
    every_other_level_minimize,
    huffman_cost,
    is_prefix_free_sorted,
    loop_group_ranges,
    random_instance,
    reach_run,
    reference_run,
    saturating_ladder_reference,
    search_minimum,
    single_pass_minimize,
    solved_leveled_code,
    tiny_pool_reference,
    tiny_value_reference,
)


def long_codeword_instance(n=600):
    """Zipf-like weights over letter costs [2 eps / n, 1] at eps 1/2: the main
    path with codewords of hundreds of letters (up to 900 at n = 600)."""
    eps = F(1, 2)
    weights = [max(1, 100000 // (i + 1)) for i in range(n)]
    return Instance.from_weights(weights, LetterCosts([2 * eps / n, 1]), eps)


def stack_depth():
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth += 1
        frame = frame.f_back
    return depth


def recorded_search(searches, minimize=None, run=None):
    """driver._Search, appending each search it makes to searches; minimize
    and run, if given, stand in for _Search.minimize and _Search.run."""

    class Recorded(driver._Search):
        def __post_init__(self):
            super().__post_init__()
            searches.append(self)

    if minimize is not None:
        Recorded.minimize = minimize
    if run is not None:
        Recorded.run = run
    return Recorded


def recorded_solves(monkeypatch, instances, minimize=None, budget=driver.DEFAULT_BUDGET, run=None):
    """solve's report on each instance, with the search it ran; minimize and
    run, if given, stand in for _Search.minimize and _Search.run."""
    searches = []
    with monkeypatch.context() as patch:
        patch.setattr(driver, "_Search", recorded_search(searches, minimize, run))
        reports = [solve(inst, budget=budget) for inst in instances]
    assert len(searches) == len(reports)
    return list(zip(reports, searches))


def budget_cut(monkeypatch, instance, budget, run=None):
    """(explored, leaves, incumbent) of the search that solve ran on instance
    when the budget cut it; run, if given, stands in for _Search.run."""
    searches = []
    with monkeypatch.context() as patch:
        patch.setattr(driver, "_Search", recorded_search(searches, run=run))
        with pytest.raises(BudgetExceeded) as err:
            solve(instance, budget=budget)
    (search,) = searches
    assert search.explored == err.value.explored
    return search.explored, search.leaves, search.best


class TestChooseK:
    def test_policy_holds_and_is_minimal(self):
        for eps in [F(1), F(1, 2), F(1, 4), F(1, 6), F(1, 8)]:
            k = choose_k(eps)
            assert ((k - 1) / eps).denominator == 1
            assert (5 + 2 * math.log2(float(k))) / float(k) <= 2 * float(eps)
            prev = k - eps
            if prev > 1:
                assert (5 + 2 * math.log2(float(prev))) / float(prev) > 2 * float(eps)

    def test_monotone_in_epsilon(self):
        ks = [choose_k(F(1, d)) for d in (1, 2, 4, 8, 16)]
        assert all(a <= b for a, b in zip(ks, ks[1:]))
        # and past a float's range, where the test runs in log2 on the ints
        ks = [choose_k(F(1, 10**e)) for e in (305, 306, 310, 400)]
        assert all(a < b for a, b in zip(ks, ks[1:])) and ks[1] > 2**1024

    def test_known_values(self):
        assert choose_k(F(1)) == 5
        assert choose_k(F(1, 2)) == F(25, 2)
        assert choose_k(F(1, 4)) == F(119, 4)
        assert choose_k(F(1, 1000)) == F(8255577, 500)
        assert choose_k(F(1, 10**6)) == F(6799235264893, 250000)

    @pytest.mark.parametrize("eps", [F(0), F(-1, 2), F(3, 2)])
    def test_rejects_epsilon_outside_the_unit_interval(self, eps):
        with pytest.raises(InstanceError, match=r"epsilon must lie in \(0, 1\]"):
            choose_k(eps)

    def test_matches_linear_scan(self):
        # the bisection returns the first grid point the scan would: every
        # a/b with b <= 64, plus random epsilons in [1/150, 1] with large
        # denominators (the scan takes ~0.1 s at 1/150)
        rng = random.Random(47)
        epsilons = {F(a, b) for b in range(1, 65) for a in range(1, b + 1)}
        epsilons |= {F(rng.randint(10**9 // 150, 10**9), 10**9) for _ in range(60)}
        for eps in epsilons:
            assert choose_k(eps) == choose_k_scan(eps), eps

    def test_small_epsilon_takes_logarithmic_steps(self, monkeypatch):
        # the answer is m = 7 * 10**7 grid points up, which a linear scan
        # would test one by one; doubling then bisection tests ~2 log2(m)
        tests = []
        log2 = math.log2

        def counted(x):
            tests.append(x)
            assert len(tests) <= 60, "choose_k scans the grid"
            return log2(x)

        monkeypatch.setattr(math, "log2", counted)
        eps = F(1, 2000)
        k = choose_k(eps)
        monkeypatch.undo()
        assert len(tests) <= 2 * math.log2((k - 1) / eps) + 2
        assert ((k - 1) / eps).denominator == 1
        assert (5 + 2 * math.log2(float(k))) / float(k) <= 2 * float(eps)
        assert (5 + 2 * math.log2(float(k - eps))) / float(k - eps) > 2 * float(eps)


class TestGrouping:
    def test_all_singletons(self):
        inst = Instance(
            (F(4, 10), F(3, 10), F(2, 10), F(1, 10)), LetterCosts([1, 1]), F(1, 2)
        )
        g = group_words(normalize(inst), F(3))
        assert g.ranges == ((0, 1), (1, 2), (2, 3), (3, 4))

    def test_heavy_head_packed_rest(self):
        probs = (F(1, 2),) + tuple([F(1, 100)] * 50)
        g = group_words(normalize(Instance(probs, LetterCosts([1, 1]), F(1, 2))), F(3))
        assert g.group_count == 14
        assert [e - s for s, e in g.ranges] == [1] + [4] * 12 + [2]

    def test_singleton_threshold_is_half_the_cap(self):
        # cap (1 - p1) * eps^2 / k = 1/24: above 1/48 a word is a singleton,
        # at 1/48 it is packed, two to a group
        probs = (F(1, 2), F(1, 40)) + (F(1, 48),) * 22 + (F(1, 60),)
        g = group_words(normalize(Instance(probs, LetterCosts([1, 1]), F(1, 2))), F(3))
        assert g.ranges[:3] == ((0, 1), (1, 2), (2, 4))
        assert [e - s for s, e in g.ranges] == [1, 1] + [2] * 11 + [1]

    def test_single_word(self):
        g = group_words(normalize(Instance((F(1),), LetterCosts([1, 1]), F(1, 2))), F(3))
        assert g.ranges == ((0, 1),)

    def test_bisection_packs_as_the_word_loop(self):
        # one bisection over prefix sums ends each packed group where adding
        # word by word did: on random, all-equal, heavy-headed and Zipf
        # weights, n = 1 and 2 among them
        rng = random.Random(3201)
        packed = singletons = 0
        for trial in range(400):
            n = rng.choice([1, 2, 3, rng.randint(4, 60), rng.randint(100, 2000)])
            weights = (
                [rng.randint(1, 10**6) for _ in range(n)],
                [7] * n,
                [rng.randint(10**6, 10**7) for _ in range(rng.randint(1, 5))]
                + [rng.randint(1, 100) for _ in range(n)],
                [10**6 // (i + 1) + 1 for i in range(n)],
            )[trial % 4]
            costs = rng.choice([[1, 1], [1, 2], [1, 1, 2], [2, 3, 4], [1, 3], [F(1, 2), 1]])
            inst, _ = Instance.from_weights(weights, LetterCosts(costs), F(1, rng.randint(1, 8)))
            norm = normalize(inst)
            eps = norm.epsilon_prime
            for k in (choose_k(eps), 1 + eps, 1 + 7 * eps):
                ranges = group_words(norm, k).ranges
                assert ranges == loop_group_ranges(norm, k)
                packed += any(e - s > 1 for s, e in ranges)
                # packed words weigh at most half the cap, so a one-word
                # group between the first and the last is a singleton
                singletons += any(e - s == 1 for s, e in ranges[1:-1])
        assert packed > 0 and singletons > 0

    def test_bounds_on_random_instances(self):
        rng = random.Random(71)
        for _ in range(25):
            inst = random_instance(rng)
            norm = normalize(inst)
            k = choose_k(norm.epsilon_prime)
            g = group_words(norm, k)
            eps = norm.epsilon_prime
            # the first word alone, then contiguous ranges that cover every word
            assert g.ranges[0] == (0, 1)
            assert all(e0 == s1 for (_, e0), (s1, _) in zip(g.ranges, g.ranges[1:]))
            assert g.ranges[-1][1] == inst.n
            cap = (norm.instance.scale - norm.instance.weights_int[0]) * eps * eps / k
            for s, e in g.ranges:
                w = sum(norm.instance.weights_int[s:e])
                assert e - s == 1 or w <= cap, "packed group exceeds the probability cap"
            assert g.group_count <= 1 + 4 * k / (eps * eps)


class TestGuessEnumeration:
    def make_grouping(self, costs, eps, probs, ranges):
        norm = normalize(Instance(probs, LetterCosts(costs), F(eps)))
        return Grouping(norm, ranges), norm

    def test_two_groups_two_levels(self):
        g, norm = self.make_grouping([1, 1], 1, (F(1, 2), F(1, 2)), ((0, 1), (1, 2)))
        # one level-0 size (the cheapest letter costs 1) times the monotone
        # maps of a group prefix onto levels 1..2: (), (1,), (2,), (1, 1),
        # (1, 2) and (2, 2)
        assert guess_stream_size(g, F(3), norm.epsilon_prime) == 6
        # at eps 1/2 every codeword cost is still a whole number: the grid is
        # coarser than eps, a level is one quantum wide, and below k = 2 the
        # cost graph has the one level 1: (), (1,) and (1, 1)
        g, norm = self.make_grouping([1, 1], F(1, 2), (F(1, 2), F(1, 2)), ((0, 1), (1, 2)))
        assert build_cost_graph(norm, F(2)).level_count == 1
        assert guess_stream_size(g, F(2), norm.epsilon_prime) == 3

    def test_level0_candidates(self):
        norm = normalize(Instance((F(1),), LetterCosts([F(1, 8), 1]), F(1, 2)))
        cands = level0_size_candidates(norm)
        assert cands[0] == 0
        assert 7 in cands  # the largest size still costing under 1
        assert all(f * F(1, 8) < 1 for f in cands)
        norm2 = normalize(Instance((F(1),), LetterCosts([1, 1]), F(1, 2)))
        assert level0_size_candidates(norm2) == [0]


class TestSolve:
    def test_figure_binary(self):
        inst, _ = Instance.from_weights([2, 2, 1, 1], LetterCosts([1, 1]), F(1, 4))
        t0 = time.perf_counter()
        rep = solve(inst)
        assert time.perf_counter() - t0 < 1.0
        assert rep.total_cost == 12
        assert is_prefix_free(rep.code.codewords)

    def test_figure_skewed(self):
        inst, _ = Instance.from_weights([2, 2, 1, 1], LetterCosts([1, 3]), F(1, 4))
        t0 = time.perf_counter()
        rep = solve(inst)
        assert time.perf_counter() - t0 < 1.0
        assert rep.total_cost == 21

    def test_single_word(self):
        inst = Instance((F(1),), LetterCosts([F(1, 2), 1]), F(1, 2))
        rep = solve(inst)
        assert rep.code.strings() == ["a"]
        assert rep.total_cost == F(1, 2)

    def test_budget_abort(self):
        inst, _ = Instance.from_weights([2, 2, 1, 1], LetterCosts([1, 3]), F(1, 4))
        with pytest.raises(BudgetExceeded) as err:
            solve(inst, budget=2)
        assert err.value.explored > 2

    def test_budget_counts_every_node(self):
        # the search is sequential, so the budget cuts at an exact node count
        inst, _ = Instance.from_weights([5, 3, 2, 2, 1], LetterCosts([1, 2]), F(1, 2))
        rep = solve(inst)
        assert solve(inst, budget=rep.explored).code == rep.code
        with pytest.raises(BudgetExceeded) as err:
            solve(inst, budget=rep.explored - 1)
        assert err.value.explored == err.value.budget + 1

    def test_count_table_charged_to_budget(self, monkeypatch):
        # the count table holds one entry per quantum up to k_q; past the
        # budget the solve stops before building it, with no node explored
        def refuse(norm, k):
            raise AssertionError("the cost graph was built")

        monkeypatch.setattr(driver, "build_cost_graph", refuse)
        for costs, eps, entries in (
            ([2, 3, 4], F(1, 1000), 16_545_777),
            ([1, 2], F(1, 10**6), 54_393_884),
        ):
            inst, _ = Instance.from_weights([1, 2, 3], LetterCosts(costs), eps)
            with pytest.raises(BudgetExceeded) as err:
                solve(inst)
            assert (err.value.explored, err.value.budget) == (0, driver.DEFAULT_BUDGET)
            assert str(err.value) == (
                "cost graph needs %d count-table entries at epsilon %s, over budget %d"
                % (entries, eps, driver.DEFAULT_BUDGET)
            )
        # past the allowance a budget below the table's 33,024 entries stops
        # the solve too, but a table within it is built whatever the budget,
        # so a small budget cuts the search itself
        inst, _ = Instance.from_weights([1, 2, 3], LetterCosts([1, 2]), F(1, 1000))
        with pytest.raises(BudgetExceeded, match="needs 33024 count-table entries"):
            solve(inst, budget=33_023)
        monkeypatch.undo()
        inst, _ = Instance.from_weights([1, 2, 3], LetterCosts([1, 2]), F(1, 100))  # 2,566 entries
        with pytest.raises(BudgetExceeded) as err:
            solve(inst, budget=1)
        assert err.value.explored == 2

    def test_search_depth_at_thousands_of_groups(self):
        # Zipf weights over 1 2 at eps 1/10 make 3,075 groups; the search
        # recurses once per group it places, and the budget must stop it
        # before Python's recursion limit does
        weights = [10**7 // (i + 1) + 1 for i in range(4096)]
        inst, _ = Instance.from_weights(weights, LetterCosts([1, 2]), F(1, 10))
        norm = normalize(inst)
        assert group_words(norm, choose_k(norm.epsilon_prime)).group_count == 3075
        with pytest.raises(BudgetExceeded) as err:
            solve(inst, budget=10**5)
        assert err.value.explored == 10**5 + 1

    def test_zipf_thirty_two_words_within_small_budget(self):
        # with a first pass over every other live level the search explored
        # 361,004 nodes here and raised BudgetExceeded at this budget; the
        # first pass over the paired groups finds the same code in 163,567
        weights = [10**7 // (i + 1) + 1 for i in range(32)]
        inst, _ = Instance.from_weights(weights, LetterCosts([1, 2]), F(1, 2))
        rep = solve(inst, budget=200_000)
        codewords = hashlib.sha256(repr(rep.code.codewords).encode()).hexdigest()
        assert codewords == "e885083292943e87eecc53ff80668e5bf99a6dea1f1f875bd2a894546483dc5d"
        assert (rep.total_cost, rep.kprefix_cost) == (243256022, F(121628011, 40584972))

    def test_thirty_words_over_one_three_within_budget(self, monkeypatch):
        # one pass over every live level explored 11,861,690 nodes here, past
        # the default budget, before it settled on the picks whose sha256 is
        # recorded below; a first pass to seed the incumbent brings the same
        # picks within 10**6 nodes (132,867 with the groups merged in pairs)
        rng = random.Random(30)
        weights = [rng.randint(1, 1000) for _ in range(30)]
        inst, _ = Instance.from_weights(weights, LetterCosts([1, 3]), F(1, 2))
        ((rep, search),) = recorded_solves(monkeypatch, [inst], budget=10**6)
        picks = hashlib.sha256(repr(search.best).encode()).hexdigest()
        assert picks == "446dfa3f88d07b6539c7673a80c017c17c68b3638e0bbdf64d74fb79708a11b4"
        assert search.best[0] == 114370 and rep.kprefix_cost == F(22874, 8343)

    def test_main_path_leaves_no_cyclic_garbage(self):
        # the search's closures go by reference counting, without waiting for
        # a full collection
        instance, _ = Instance.from_weights([1000 // i for i in range(1, 200)], LetterCosts([1, 2]), F(1))
        gc.collect()
        gc.disable()
        try:
            assert solve(instance).mode == "main"
            garbage = gc.collect()
        finally:
            gc.enable()
        assert garbage == 0

    def test_materializer_memory_does_not_grow_with_codeword_length(self, monkeypatch):
        # blocking codewords are kept as runs, not as one node per letter; a
        # per-letter trie peaks at ~36 MB here, with codewords of up to 900
        # letters
        instance, _ = long_codeword_instance()
        code = solved_leveled_code(monkeypatch, instance)
        # a first pass fills the interpreter's free lists, so the peak below
        # does not depend on which tests ran before
        LeveledCode(code.norm, code.graph, code.picks).codewords
        fresh = LeveledCode(code.norm, code.graph, code.picks)
        tracemalloc.start()
        try:
            words = fresh.codewords
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert words == code.codewords
        assert peak < 4 * 2**20, peak

    def test_stack_depth_does_not_grow_with_codeword_length(self):
        # the materializer walks an explicit stack; a recursive walk needs one
        # frame per letter, 900 here
        instance, _ = long_codeword_instance()
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(stack_depth() + 150)
        try:
            rep = solve(instance)
        finally:
            sys.setrecursionlimit(limit)
        assert rep.mode == "main"
        assert max(sum(r for _, r in w) for w in rep.code.codewords) == 900

    def test_structural_bounds_reported(self):
        inst, _ = Instance.from_weights([4, 3, 2, 1], LetterCosts([1, 2]), F(1, 2))
        rep = solve(inst)
        norm = normalize(inst)
        k = rep.k
        assert rep.graph_nodes <= inst.n * k / norm.epsilon_prime
        assert rep.graph_arcs <= len(norm.distinct_q) * rep.graph_nodes
        assert rep.normalized_cost >= 1 - inst.probabilities[0]

    def test_fractions_only_at_the_boundary(self, monkeypatch):
        # loading and solving n = 2048 integer weights builds a number of
        # Fractions that does not grow with n; one per word would be 2048
        rng = random.Random(2048)
        weights = [max(1, int(100000 / (i + 1) ** 0.9 * rng.uniform(0.9, 1.1))) for i in range(2048)]
        letters = LetterCosts([1, 2])
        made = []
        new = F.__new__

        def counting_new(cls, *args, **kwargs):
            made.append(cls)
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(F, "__new__", counting_new)
        inst, _ = Instance.from_weights(weights, letters, 1)
        rep = solve(inst)
        monkeypatch.undo()
        assert rep.mode == "main"
        assert len(made) <= 100


class TestHandOver:
    # solve makes its leveled code from the picks of the search's cheapest
    # leaf; the guess those picks spell, built by construct_leveled, must
    # give the very same picks

    @staticmethod
    def rebuilt_guess(code):
        """The guess a leveled code's picks below k spell: f0 from the pick
        cheaper than the unit, a level per pick from CostGraph.level_of."""
        graph = code.graph
        f0, counts = 0, []
        for cost_q, count in code.picks:
            if cost_q < graph.unit_q:
                assert count == 1
                f0 = cost_q // code.norm.letters_q[0]
            elif cost_q < graph.k_q:
                counts.append((graph.level_of(cost_q), count))
        return Guess(f0, tuple(counts))

    @staticmethod
    def instances():
        rng = random.Random(18)
        for costs in ([1, 2], [1, 3], [2, 3, 4], [1, 1, 2]):
            for eps in (F(1, 2), F(1, 3), F(1, 4), F(1, 5)):
                for _ in range(3):
                    n = rng.randint(2, 12)
                    weights = [rng.randint(1, 60) for _ in range(n)]
                    yield Instance.from_weights(weights, LetterCosts(costs), eps)[0]
        for costs, n in (([1, 2], 1024), ([1, 1, 2], 2048)):
            zipf = [int(10**6 / (i + 1) ** 0.9) + rng.randint(1, 100) for i in range(n)]
            yield Instance.from_weights(zipf, LetterCosts(costs), 1)[0]

    def test_picks_equal_the_rebuilt_guess(self, monkeypatch):
        searches = []

        class Recorded(driver._Search):
            def __post_init__(self):
                super().__post_init__()
                searches.append(self)

        monkeypatch.setattr(driver, "_Search", Recorded)
        with_f0 = shared_level = 0
        for inst in self.instances():
            code = solved_leveled_code(monkeypatch, inst)
            guess = self.rebuilt_guess(code)
            rebuilt = construct_leveled(code.norm, code.graph, guess, inst.n)
            assert rebuilt.picks == code.picks, (inst.letters, inst.epsilon, inst.n)
            # the leveled code costs what the search valued its guess at
            value = sum(map(mul, inst.weights_int, code.word_costs_q))
            assert value == searches[-1].best[0]
            with_f0 += guess.f0 > 0
            # the search's own picks hold one entry per placed group
            shared_level += len(searches[-1].best[1]) > len(code.picks)
        assert with_f0 >= 3 and shared_level >= 3, (with_f0, shared_level)


class TestLiveLevels:
    def test_solve_lists_no_level_itself(self, monkeypatch):
        # the cost graph lists its live levels; solve never asks for a
        # level's target, over every alphabet of the benchmark workloads
        def refuse(graph, i):
            raise AssertionError("level_target(%d) called" % i)

        monkeypatch.setattr(CostGraph, "level_target", refuse)
        rng = random.Random(21)
        for costs in ([1, 2], [1, 3], [2, 3, 4], [1, 1, 2]):
            for eps in (F(1), F(1, 2), F(3, 10), F(1, 4), F(1, 5)):
                weights = [rng.randint(1, 1000) for _ in range(rng.randint(6, 12))]
                instance, _ = Instance.from_weights(weights, LetterCosts(costs), eps)
                assert solve(instance).mode == "main"
        for costs in ([1, 2], [1, 1, 2]):
            zipf = [10**6 // (i + 1) + rng.randint(1, 9) for i in range(1024)]
            instance, _ = Instance.from_weights(zipf, LetterCosts(costs), F(1))
            assert solve(instance).mode == "main"


def tiny_corpus():
    """150 random tiny-path instances, n 1..300 over 2-5 letters, then three
    shaped like the tiny benchmark workload above the n <= 512 self-check.
    Equal letter costs, costs a multiple of c1 apart and costs near
    2 c2 - n c1 make ties inside a window between families and between
    letters x, which the tuple order breaks."""
    rng = random.Random(17)
    for _ in range(150):
        n = rng.randint(1, 300)
        eps = rng.choice([F(1, 2), F(3, 10), F(1)])
        l1 = eps / (n * rng.randint(1, 4))
        rest = []
        for _ in range(rng.randint(0, 3)):  # r = 2..5 letters
            rest.append(rng.choice([
                F(1),
                1 + rng.randint(0, 3 * n) * l1,
                max(F(1), 2 - (n + rng.randint(-3, 3)) * l1),
                1 + F(rng.randint(0, 6), rng.randint(1, 4)),
            ]))
        letters = LetterCosts(sorted([l1, F(1), *rest]))
        weights = [rng.randint(1, 10**40) for _ in range(n)]
        yield Instance.from_weights(weights, letters, eps)[0]
    # as perfbench's tiny workload: cheapest letter eps/(4n) under 1 or 1 2,
    # eps 1/2, shuffled Zipf-like weights with jitter
    eps = F(1, 2)
    for n, rest in ((613, [1]), (811, [1, 2]), (1024, [1])):
        weights = [max(1, int(10**6 / (i + 1) ** 0.8 * rng.uniform(0.5, 1.5))) for i in range(n)]
        rng.shuffle(weights)
        yield Instance.from_weights(weights, LetterCosts([eps / (4 * n), *rest]), eps)[0]


def assert_tiny_code_is_cheapest(inst, ladder, values):
    """solve's code and total_cost on a tiny-path instance are those of the
    first cheapest run length on ladder, given each rung's
    tiny_value_reference."""
    best = min(values)
    _, code = tiny_pool_reference(inst, ladder[values.index(best)])
    rep = solve(inst)
    assert rep.code.codewords == code.codewords, (inst.letters, inst.n)
    scale = inst.scale * inst.letters.scale
    assert rep.total_cost == F(best, scale) * inst.weight_total, (inst.letters, inst.n)


class TestTiny:
    def test_smallest_run_length_candidate(self):
        inst = Instance(
            (F(6, 10), F(3, 10), F(1, 10)), LetterCosts([F(1, 1000), 1]), F(1, 2)
        )
        cost, words, costs = tiny_candidate_code(inst, 1)
        assert [runs_to_str(w) for w in words] == ["a", "baaa", "bb"]
        assert costs == [F(1, 1000), F(1003, 1000), F(2)]

    def test_run_length_ladder(self):
        inst = Instance(
            tuple([F(1, 10)] * 10), LetterCosts([F(1, 100), 1]), F(1, 2)
        )
        assert tiny_run_length_candidates(inst) == [1, 2, 3, 5, 7, 11]

    def test_single_word(self):
        inst = Instance((F(1),), LetterCosts([F(1, 100), 1]), F(1, 2))
        rep = solve(inst)
        assert rep.code.strings() == ["a"]
        assert rep.total_cost == F(1, 100)

    def test_random_within_bound(self):
        rng = random.Random(81)
        for _ in range(15):
            n = rng.randint(2, 8)
            l1 = F(1, rng.randint(3 * n, 12 * n))
            eps = rng.choice([F(1, 2), F(3, 10)])
            if l1 * n > eps:
                continue
            weights = [rng.randint(1, 9) for _ in range(n)]
            inst, _ = Instance.from_weights(weights, LetterCosts([l1, 1]), eps)
            rep = solve(inst)
            assert rep.mode == "tiny"
            assert is_prefix_free(rep.code.codewords)
            exact = exact_optimal(inst)
            assert exact.optimal_cost <= rep.total_cost <= (1 + eps) * exact.optimal_cost

    def test_run_length_values_match_built_codes(self):
        # the integer price of every run length equals the cost of the pool
        # built for it, and the solver returns the first cheapest code
        rng = random.Random(66)
        below = above = 0
        for _ in range(60):
            n = rng.randint(1, 60)
            eps = rng.choice([F(1, 2), F(3, 10), F(1)])
            l2 = F(rng.randint(1, 6), rng.randint(1, 3))
            extra = rng.randint(0, 2)  # r = 2..4 letters
            rest = sorted(l2 + F(rng.randint(0, 6), rng.randint(1, 4)) for _ in range(extra))
            letters = LetterCosts([l2 * eps / (n * rng.randint(1, 8)), l2, *rest])
            weights = [rng.randint(1, 5) for _ in range(n)]
            inst, _ = Instance.from_weights(weights, letters, eps)
            candidates = tiny_run_length_candidates(inst)
            prices = [_tiny_pool(inst, i0).costs_int() for i0 in candidates]
            values = [sum(map(mul, inst.weights_int, p)) for p in prices]
            assert _tiny_values(inst, candidates) == values, (letters, weights)
            below += sum(i0 < n for i0 in candidates)
            above += sum(i0 > n for i0 in candidates)
            codes = [tiny_candidate_code(inst, i0) for i0 in candidates]
            best = min(codes, key=lambda code: code[0])
            rep = solve(inst)
            assert rep.code.codewords == tuple(best[1])
            assert rep.total_cost == best[0] * l2 * inst.weight_total
            assert rep.guess_count == len(candidates)
        assert below > 100 and above > 50

    def test_codes_above_the_self_check(self):
        # the tiny path checks its code only up to n = 512; above that its
        # code and the candidate codes of other run lengths must be distinct,
        # prefix free, ordered and priced as built. The shortest run length
        # is always among them: short ones keep many b a^j b words, which
        # solve's code seldom has
        rng = random.Random(16)
        for _ in range(10):
            n = rng.randint(513, 1100)
            eps = rng.choice([F(1, 2), F(3, 10), F(1)])
            rest = sorted(F(rng.randint(1, 8), rng.randint(1, 3)) for _ in range(rng.randint(0, 2)))
            letters = LetterCosts([eps / (n * rng.randint(1, 8)), 1, *(1 + c for c in rest)])
            weights = [rng.randint(1, 10**6) for _ in range(n)]
            inst, _ = Instance.from_weights(weights, letters, eps)
            candidates = tiny_run_length_candidates(inst)
            codes = [solve(inst).code]
            for i0 in [candidates[0], *rng.sample(candidates[1:], 2)]:
                codes.append(_tiny_pool(inst, i0))
            for code in codes:
                assert len(set(code.codewords)) == n
                assert is_prefix_free_sorted(code.codewords)
                assert code.costs_int() == list(_price_int(code.codewords, letters))
                assert code.ordered

    def test_closed_form_matches_sorted_pool(self, monkeypatch):
        # the strided walk prices and builds every run length's code as one
        # sort of the whole candidate pool would: same values, codewords,
        # prices and order, over the old saturating ladder, which runs on
        # past the first run length >= n. The tiny path's self-check walks
        # a per-letter trie, ~0.1 s per code here; the sorted check is the
        # same test, in a tenth of the time
        monkeypatch.setattr(driver, "is_prefix_free", is_prefix_free_sorted)
        for inst in tiny_corpus():
            letters, n = inst.letters, inst.n
            ladder = saturating_ladder_reference(inst)
            first = bisect_left(ladder, n)
            assert tiny_run_length_candidates(inst) == ladder[: first + 1], (letters, n)
            expected = [tiny_value_reference(inst, i0) for i0 in ladder]
            assert _tiny_values(inst, ladder) == expected, (letters, n)
            # no run length past the first one >= n is cheaper: from there on
            # the pools differ only in a^i0, which grows
            tail = expected[first:]
            assert tail == sorted(tail), (letters, n)
            assert_tiny_code_is_cheapest(inst, ladder, expected)
            for i0, value in zip(ladder, expected):
                ref_value, ref = tiny_pool_reference(inst, i0)
                got = _tiny_pool(inst, i0)
                got_value = sum(map(mul, inst.weights_int, got.costs_int()))
                assert got_value == ref_value == value
                assert got.codewords == ref.codewords, (letters, n, i0)
                assert got.costs_int() == list(ref._costs_int), (letters, n, i0)

    def test_segment_count_does_not_grow_with_n(self):
        # every run of a segment starts at the segment's first window, so the
        # distinct first windows count the segments: at most 2r + 1 whatever
        # n is, and the runs cover ranks 0..n-1 once each
        for rest in ([2], [3, 3], [2, 5, 7], [3, 4, 4, 9]):
            for e in range(8, 15):
                n = 2**e
                letters = LetterCosts([F(1, 2 * n), *rest])
                inst = Instance.from_weights([1] * n, letters, F(1, 2))[0]
                c1, r = letters.costs_int[0], len(letters.costs)
                for i0 in tiny_run_length_candidates(inst):
                    runs = list(_tiny_segments(letters.costs_int, n, i0))
                    assert len({cost // c1 for _, _, _, cost, *_ in runs}) <= 2 * r + 1
                    ranks = [f + a * u for f, a, k, *_ in runs for u in range(k)]
                    assert sorted(ranks) == list(range(n))

    def test_builds_entries_for_one_run_length(self, monkeypatch):
        built = []

        def counted(instance, i0):
            built.append(i0)
            return _tiny_pool(instance, i0)

        monkeypatch.setattr(driver, "_tiny_pool", counted)
        inst, _ = Instance.from_weights(
            list(range(40, 0, -1)), LetterCosts([F(1, 200), 1, 2]), F(1, 2)
        )
        rep = solve(inst)
        assert rep.mode == "tiny"
        assert len(tiny_run_length_candidates(inst)) > 1
        assert len(built) == 1

    def test_prices_run_lengths_through_the_first_at_least_n(self, monkeypatch):
        priced = []

        def recorded(instance, run_lengths):
            priced.append(list(run_lengths))
            return _tiny_values(instance, run_lengths)

        monkeypatch.setattr(driver, "_tiny_values", recorded)
        n = 40
        inst, _ = Instance.from_weights(
            list(range(n, 0, -1)), LetterCosts([F(1, 200), 1, 2]), F(1, 2)
        )
        ladder = tiny_run_length_candidates(inst)
        assert ladder[-2] < n <= ladder[-1]
        rep = solve(inst)
        assert rep.mode == "tiny"
        assert priced == [ladder]
        assert rep.guess_count == len(ladder)
        assert rep.total_cost == code_cost(rep.code, inst) * inst.weight_total

    def test_ladder_has_at_most_n_rungs(self):
        # the rungs are distinct ints and all but the last are below n. The
        # old saturating ladder had ln(2 c2 / c1) / eps rungs: 38,073 on
        # 1/10^7 1 at eps 1/4000 with seven words, built in seconds
        for inst in tiny_corpus():
            assert len(tiny_run_length_candidates(inst)) <= inst.n
        weights = list(range(7, 0, -1))
        for costs, eps in (
            ([F(1, 10**6), 1, 1], F(1, 1000)),
            ([F(1, 10**6), 1], F(1, 2000)),
            ([F(1, 10**7), 1], F(1, 4000)),
        ):
            inst, _ = Instance.from_weights(weights, LetterCosts(costs), eps)
            assert len(tiny_run_length_candidates(inst)) <= inst.n
        # the last one's code is still the cheapest over the old ladder
        ladder = saturating_ladder_reference(inst)
        assert len(ladder) == 38073
        assert_tiny_code_is_cheapest(
            inst, ladder, [tiny_value_reference(inst, i0) for i0 in ladder]
        )

    def test_ladder_is_one_to_n_when_n_eps_at_most_one(self):
        # there each step of (1+eps)^j adds less than one before a rung
        # reaches n, so the ladder is 1..n, returned without building
        # powers: 1/10^9 1 with seven words once spent 3 s in the ladder at
        # eps 1/20000 and did not finish in 120 s at eps 1/10^5
        weights = list(range(7, 0, -1))
        for eps in (F(1, 20000), F(1, 10**5)):
            inst, _ = Instance.from_weights(weights, LetterCosts([F(1, 10**9), 1]), eps)
            assert tiny_run_length_candidates(inst) == list(range(1, 8))
            rep = solve(inst)
            assert rep.mode == "tiny" and rep.guess_count == 7
        # the stepped reference agrees on seeded cases with n * eps <= 1,
        # six of them at n * eps == 1; eps stays >= 1/2000, where the
        # saturating reference takes under a second
        rng = random.Random(30)
        cases = [(F(1, n), n) for n in (1, 2, 5, 64, 999, 2000)]
        for _ in range(30):
            eps = F(rng.randint(1, 9), rng.randint(9, 2000))
            cases.append((eps, rng.randint(1, math.floor(1 / eps))))
        for eps, n in cases:
            letters = LetterCosts([eps / (n * rng.randint(1, 4)), 1, rng.choice([1, 2, 3])])
            inst, _ = Instance.from_weights([rng.randint(1, 99) for _ in range(n)], letters, eps)
            assert n * eps <= 1
            ladder = saturating_ladder_reference(inst)
            expected = ladder[: bisect_left(ladder, n) + 1]
            assert expected == list(range(1, n + 1)), (eps, n)
            assert tiny_run_length_candidates(inst) == expected, (eps, n)

    def test_dispatching(self):
        # at the boundary l1 = eps*l2/n the solver takes the tiny path
        inst = Instance(
            tuple([F(1, 4)] * 4), LetterCosts([F(1, 8), 1]), F(1, 2)
        )
        rep = solve(inst)
        assert rep.mode == "tiny"

    def test_boundary_agreement(self):
        # just above the boundary (l1 * n = 9/16 > eps) solve takes the main
        # path, but the tiny path's candidate codes still price the
        # instance; the two costs stay within a (1+eps)^2 factor of each
        # other
        eps = F(1, 2)
        n = 4
        l1 = eps / n + F(1, 64)
        inst = Instance(tuple([F(1, n)] * n), LetterCosts([l1, 1]), eps)
        main = solve(inst)
        assert main.mode == "main"
        best = min(tiny_candidate_code(inst, i0)[0] for i0 in tiny_run_length_candidates(inst))
        tiny_cost = best * inst.letters.costs[1] * inst.weight_total
        ratio = max(main.total_cost / tiny_cost, tiny_cost / main.total_cost)
        assert ratio <= (1 + eps) ** 2


def enumerated_minimum(norm, k, n):
    """kprefix cost of the cheapest guess, by plain enumeration of every
    level-0 size and monotone group-to-level map, each built in full and
    priced in integer weights times costs in quanta."""
    graph = build_cost_graph(norm, k)
    weights = norm.instance.weights_int
    sizes = [e - s for s, e in group_words(norm, k).ranges]
    best = None
    for f0 in level0_size_candidates(norm):
        skip = 1 if f0 > 0 else 0  # group 1 sits on level 0 then
        usable = sizes[skip:]
        for t in range(len(usable) + 1):
            for levels in itertools.combinations_with_replacement(
                range(1, graph.level_count + 1), t
            ):
                counts = {}
                for lvl, size in zip(levels, usable[:t]):
                    counts[lvl] = counts.get(lvl, 0) + size
                guess = Guess(f0, tuple(sorted(counts.items())))
                try:
                    code = construct_leveled(norm, graph, guess, n)
                except InstanceError:
                    continue
                cost = sum(map(mul, weights, code.word_costs_q))
                if best is None or cost < best:
                    best = cost
    return None if best is None else F(best, norm.instance.scale) * graph.quantum


def takes_main_path(inst):
    """solve's dispatch: the main path unless the cheapest letter costs at
    most epsilon/n once the second costs 1."""
    return inst.letters.costs[0] * inst.n > inst.epsilon * inst.letters.costs[1]


class TestSearchEquivalence:
    # the pruned depth-first search must return exactly the minimum that
    # plain enumeration over every guess finds, at horizons other than
    # choose_k's too
    def test_search_matches_full_enumeration(self):
        rng = random.Random(111)
        checked = 0
        while checked < 30:
            n = rng.randint(2, 7)
            costs = rng.choice([[1, 1], [1, 2], [F(1, 2), 1], [1, 1, 2]])
            weights = [rng.randint(1, 9) for _ in range(n)]
            eps = rng.choice([F(1, 2), F(1)])
            inst, _ = Instance.from_weights(weights, LetterCosts(costs), eps)
            norm = normalize(inst)
            if norm.instance.letters.costs[0] * n <= norm.epsilon_prime:
                continue
            k = 1 + rng.randint(2, 5) * norm.epsilon_prime
            if not takes_main_path(inst):
                continue
            best = enumerated_minimum(norm, k, n)
            assert best is not None
            assert search_minimum(norm, k) == best, (costs, weights, eps, k)
            checked += 1
        # the first leaf in depth-first order costs more than the all-tail
        # guess (2356 against 2340 and 2652 against 2420 in the search's
        # units), so the seeded incumbent must outlast it
        for weights, eps, want in (
            ([8, 51, 25, 58, 32, 20, 28, 44], F(1, 4), F(555, 266)),
            ([48, 83, 19, 13, 77, 89, 71, 60, 42, 21, 7], F(1, 2), F(1181, 530)),
        ):
            inst, _ = Instance.from_weights(weights, LetterCosts([1, 1, 2]), eps)
            assert takes_main_path(inst)
            assert search_minimum(normalize(inst), F(2)) == want
            assert want == enumerated_minimum(normalize(inst), F(2), len(weights))

    def test_reach_limit_on_many_live_levels(self, monkeypatch):
        # 20-22 live levels at n <= 4: each node's list ends where its own
        # completion bound says no cheaper leaf can go, most of them short of
        # the last live level, and the result must not move. The search
        # builds each list from islice(parent, ..., hi - lpos_min), so the
        # list's end is the caller's hi
        ends = []

        def recorded(parent, start, stop):
            caller = sys._getframe(1).f_locals
            ends.append(caller["hi"] < len(caller["targets"]))
            return itertools.islice(parent, start, stop)

        monkeypatch.setattr(driver, "islice", recorded)
        rng = random.Random(112)
        alphabets = ([1, 2], [F(1, 2), 1], [1, 3], [2, 3, 4], [F(2, 3), 1], [1, 1, 2])
        checked = 0
        while checked < 10:
            n = rng.randint(2, 4)
            costs = alphabets[checked % len(alphabets)]
            weights = [rng.randint(1, 30) for _ in range(n)]
            eps = rng.choice([F(1, 2), F(1), F(1, 4)])
            inst, _ = Instance.from_weights(weights, LetterCosts(costs), eps)
            norm = normalize(inst)
            if norm.instance.letters.costs[0] * n <= norm.epsilon_prime:
                continue
            k = 1 + rng.randint(20, 22) * norm.epsilon_prime
            graph = build_cost_graph(norm, k)
            levels = range(1, graph.level_count + 1)
            if sum(graph.count(graph.level_target(i)) > 0 for i in levels) < 20:
                continue
            assert takes_main_path(inst)
            assert search_minimum(norm, k) == enumerated_minimum(norm, k, n), (costs, weights, eps, k)
            checked += 1
        assert sum(ends) > 30
        assert sum(ends) * 2 > len(ends)

    # the first pass over the groups merged in pairs must leave the full
    # search's result as one pass alone finds it: the same value, the same
    # picks among equal-cost leaves, and so the same code
    ALPHABETS = ([1, 2], [1, 3], [2, 3, 4], [1, 1, 2], [1, 2, 2, 5], [F(1, 2), 1], [1, 1])

    @classmethod
    def differential_corpus(cls, count):
        # weights from 1..1 and 1..2 make equal-cost leaves common
        rng = random.Random(22)
        while count:
            costs = cls.ALPHABETS[count % len(cls.ALPHABETS)]
            n = rng.randint(2, 11)
            eps = rng.choice((F(1), F(1, 2), F(1, 3), F(1, 4), F(1, 5)))
            top = rng.choice((1, 2, 1000))
            weights = [rng.randint(1, top) for _ in range(n)]
            inst, _ = Instance.from_weights(weights, LetterCosts(costs), eps)
            if takes_main_path(inst):
                count -= 1
                yield inst

    def test_two_passes_match_single_pass(self, monkeypatch):
        corpus = list(self.differential_corpus(1000))
        ran = recorded_solves(monkeypatch, corpus)
        reference = recorded_solves(monkeypatch, corpus, single_pass_minimize)
        for inst, (rep, search), (want, single) in zip(corpus, ran, reference):
            assert search.best == single.best, (inst.letters.costs, inst.weights_int, inst.epsilon)
            assert rep.code == want.code
            assert (rep.total_cost, rep.kprefix_cost) == (want.total_cost, want.kprefix_cost)
        alphabets = {inst.letters.costs for inst in corpus}
        assert len(alphabets) == len(self.ALPHABETS)

    def test_first_pass_cuts_tail_shape_nodes(self, monkeypatch):
        # one pass alone explored 78,139 nodes over this corpus; with the
        # first pass over the paired groups the search explored 12,956, and
        # fewer on every instance
        corpus = list(TestGoldenOutput.tail_shapes_corpus())
        ran = recorded_solves(monkeypatch, corpus)
        reference = recorded_solves(monkeypatch, corpus, single_pass_minimize)
        for (rep, _), (want, _) in zip(ran, reference):
            assert rep.code == want.code
            assert rep.explored < want.explored
        assert sum(rep.explored for rep, _ in ran) * 3 < sum(want.explored for want, _ in reference)

    def test_paired_pass_cuts_nodes_against_every_other_level(self, monkeypatch):
        # a first pass over every other live level explored 21,874 nodes over
        # this corpus in all, against 12,956 after the paired groups' pass
        corpus = list(TestGoldenOutput.tail_shapes_corpus())
        ran = recorded_solves(monkeypatch, corpus)
        reference = recorded_solves(monkeypatch, corpus, every_other_level_minimize)
        for (rep, search), (want, other) in zip(ran, reference):
            assert search.best == other.best
            assert rep.explored < want.explored
        assert sum(rep.explored for rep, _ in ran) * 100 <= 65 * sum(want.explored for want, _ in reference)

    # the search must visit the same nodes in the same order as a plain
    # recursion over the same list-end rule that builds every child's list in
    # full and checks its bound on entry: the same incumbent, node count and
    # leaf count everywhere
    def test_search_matches_parent_search(self, monkeypatch):
        corpus = [*self.differential_corpus(1000), *TestGoldenOutput.tail_shapes_corpus()]
        ran = recorded_solves(monkeypatch, corpus)
        reference = recorded_solves(monkeypatch, corpus, run=reference_run)
        for inst, (_, search), (_, parent) in zip(corpus, ran, reference):
            assert (search.best, search.explored, search.leaves) == (
                parent.best,
                parent.explored,
                parent.leaves,
            ), (inst.letters.costs, inst.weights_int, inst.epsilon)

    def test_budget_cut_matches_parent_search(self, monkeypatch):
        # the budget cuts both searches at the same node, with the same
        # incumbent and leaf count, early, midway and one node short
        corpus = list(TestGoldenOutput.tail_shapes_corpus())[::3]
        for (rep, _), inst in zip(recorded_solves(monkeypatch, corpus), corpus):
            for budget in (rep.explored // 8, rep.explored // 2, rep.explored - 1):
                cut = budget_cut(monkeypatch, inst, budget)
                assert cut[0] == budget + 1
                assert cut == budget_cut(monkeypatch, inst, budget, reference_run)

    # counting the words on lower levels against each level's capacity
    # tightens the completion bound and keeps it admissible: the same first
    # cheapest leaf, so the same code and costs, and on no instance more
    # nodes. Under the sum of capacities the search explored 111,147 nodes
    # over the differential corpus and 12,956 over the tail shapes; with the
    # linked levels counted, 93,269 and 10,265
    def test_linked_bound_matches_capacity_sum_bound(self, monkeypatch):
        sums = []
        corpora = (self.differential_corpus(1000), TestGoldenOutput.tail_shapes_corpus())
        for corpus in map(list, corpora):
            ran = recorded_solves(monkeypatch, corpus)
            reference = recorded_solves(monkeypatch, corpus, run=capacity_sum_run)
            for inst, (rep, search), (want, old) in zip(corpus, ran, reference):
                where = (inst.letters.costs, inst.weights_int, inst.epsilon)
                assert search.best == old.best, where
                assert rep.code == want.code, where
                assert (rep.total_cost, rep.kprefix_cost) == (want.total_cost, want.kprefix_cost)
                assert rep.explored <= want.explored, where
            sums.append(
                (sum(rep.explored for rep, _ in ran), sum(want.explored for want, _ in reference))
            )
        (ran_diff, old_diff), (ran_tail, old_tail) = sums
        assert ran_diff * 100 <= 85 * old_diff
        assert ran_tail * 100 <= 80 * old_tail

    # ending each node's list where its own completion bound says no cheaper
    # leaf can go, rather than at the reach its parent priced for it, leaves
    # every bound at least as high and cuts only nodes that cannot win: the
    # same first cheapest leaf, so the same code and costs, and on no
    # instance more nodes. With lists ending at the reach the search explored
    # 93,269 nodes over the differential corpus and 10,265 over the tail
    # shapes; with the list-end rule, 90,445 and 10,169
    def test_list_end_matches_reach_search(self, monkeypatch):
        sums = []
        corpora = (self.differential_corpus(1000), TestGoldenOutput.tail_shapes_corpus())
        for corpus in map(list, corpora):
            ran = recorded_solves(monkeypatch, corpus)
            reference = recorded_solves(monkeypatch, corpus, run=reach_run)
            for inst, (rep, search), (want, old) in zip(corpus, ran, reference):
                where = (inst.letters.costs, inst.weights_int, inst.epsilon)
                assert search.best == old.best, where
                assert rep.code == want.code, where
                assert (rep.total_cost, rep.kprefix_cost) == (want.total_cost, want.kprefix_cost)
                assert rep.explored <= want.explored, where
            sums.append(
                (sum(rep.explored for rep, _ in ran), sum(want.explored for want, _ in reference))
            )
        assert all(ran_total < old_total for ran_total, old_total in sums)

    def test_hard_zipf_instance_solves_within_budget(self):
        # 989,601 nodes under the sum of capacities; 166,965 with the linked
        # levels counted, and 166,455 with each list ending where its node's
        # bound says no cheaper leaf can go
        weights = [10**7 // (i + 1) + 1 for i in range(32)]
        inst, _ = Instance.from_weights(weights, LetterCosts([1, 3]), F(1, 2))
        rep = solve(inst, budget=250_000)
        assert rep.mode == "main"
        assert rep.total_cost == 306357520
        assert rep.kprefix_cost == F(76589380, 30438729)


class TestGoldenOutput:
    # sha256 over (codewords, total_cost, lower_bound, kprefix_cost) of every
    # instance in the corpus, as solve produced them before the search kept
    # one incumbent across level-0 sizes; it pins tie-breaking between
    # equal-cost guesses, which the cost-only checks above do not
    DIGEST = "1c0acab4554622c0c01e67c5f32e498a879750574b9cbd5cffd1f9ea06f43a52"

    @staticmethod
    def corpus():
        rng = random.Random(20020)
        alphabets = ([1, 2], [1, 3], [2, 3, 4], [1, 1, 2])
        epsilons = (F(1, 2), F(1, 4), F(1, 5))
        for i in range(24):
            n = rng.randint(6, 10)
            weights = [rng.randint(1, 60) for _ in range(n)]
            inst, _ = Instance.from_weights(
                weights, LetterCosts(alphabets[i % 4]), epsilons[i % 3]
            )
            yield inst

    def test_solve_reproduces_recorded_outputs(self):
        digest = hashlib.sha256()
        for inst in self.corpus():
            rep = solve(inst)
            assert rep.mode == "main"
            digest.update(
                repr(
                    (rep.code.codewords, rep.total_cost, rep.lower_bound, rep.kprefix_cost)
                ).encode()
            )
        assert digest.hexdigest() == self.DIGEST

    # sha256 over (order, codewords, total_cost, lower_bound, normalized_cost,
    # kprefix_cost) of every instance below, as the Fraction-based library
    # produced them; it pins the integer cost, weight and sort paths
    INTEGER_PATHS_DIGEST = "fca29cee291d8440eb743204c2c985e153ca7afb150f1eb4c454580328ab2b62"

    @staticmethod
    def integer_paths_corpus():
        rng = random.Random(20030)
        # codebook-shaped: Zipf-like integer counts at eps 1
        for n, costs in ((640, [1, 2]), (1100, [1, 1, 2])):
            weights = [
                max(1, int(100000 / (i + 1) ** 0.9 * rng.uniform(0.9, 1.1))) for i in range(n)
            ]
            rng.shuffle(weights)
            yield weights, costs, F(1)
        # tiny path: cheapest letter at most eps/n, self-checked up to n = 512
        for n, costs, eps in ((220, [F(1, 1000), 1], F(1, 2)), (380, [F(1, 2000), 1, 2], F(1))):
            yield [rng.randint(1, 500) for _ in range(n)], costs, eps
        yield [rng.randint(1, 500) for _ in range(560)], [F(1, 3000), 1], F(1, 2)
        # non-integer input: rational letter costs, decimal and fractional weights
        rational = [F(1, 3), 1, F(5, 2)]
        yield [F("%d.%02d" % (rng.randint(0, 3), rng.randint(1, 99))) for _ in range(40)], rational, F(1)
        yield [F(rng.randint(1, 30), rng.randint(1, 7)) for _ in range(30)], rational, F(1)
        yield [F(rng.randint(1, 30), rng.randint(1, 7)) for _ in range(10)], rational, F(1, 2)

    def test_integer_paths_reproduce_recorded_outputs(self):
        digest = hashlib.sha256()
        modes = []
        for weights, costs, eps in self.integer_paths_corpus():
            inst, order = Instance.from_weights(weights, LetterCosts(costs), eps)
            rep = solve(inst)
            modes.append(rep.mode)
            digest.update(
                repr(
                    (
                        order,
                        rep.code.codewords,
                        rep.total_cost,
                        rep.lower_bound,
                        rep.normalized_cost,
                        rep.kprefix_cost,
                    )
                ).encode()
            )
        assert modes == ["main"] * 2 + ["tiny"] * 3 + ["main"] * 3
        assert digest.hexdigest() == self.INTEGER_PATHS_DIGEST

    # sha256 over (order, codewords, total_cost, lower_bound, normalized_cost,
    # kprefix_cost) of long_codeword_instance(), as the recursive trie walker
    # produced it; it pins the order in which strings are materialized
    LONG_CODEWORDS_DIGEST = "0f1788807e96c0965845bc78bf637838843d7d162bc43e9f7b0d0d8dcf6862fb"

    def test_long_codewords_reproduce_recorded_output(self):
        inst, order = long_codeword_instance()
        rep = solve(inst)
        assert rep.mode == "main"
        record = (
            order,
            rep.code.codewords,
            rep.total_cost,
            rep.lower_bound,
            rep.normalized_cost,
            rep.kprefix_cost,
        )
        assert hashlib.sha256(repr(record).encode()).hexdigest() == self.LONG_CODEWORDS_DIGEST

    # per instance of tail_shapes_corpus(): sha256 over (codewords,
    # total_cost, kprefix_cost) and the search's explored node count, as solve
    # produced them before capacity lists stopped at an improving leaf's
    # reach; outputs must not move, and the search may visit fewer nodes only
    TAIL_SHAPES = (
        ("071a325cda4fd76059df38d1e20a9f79ab317fe9163ec51968009f0828d2ba5f", 3003),
        ("0ad4b570d819ddd636484f11d62ce4719373e27b08ed16582442b721d46b7092", 4625),
        ("1a81f6ac1384858c4d81a1ce79d1d7b9cdec3074a49fb44ab448a37caf246692", 7464),
        ("29bceff0b6dcea5d01fb3a5569207349d15f02da766fccaed5197af90d46dff7", 13120),
        ("35ce7262b4caacc525e996aeae368c6a7ab9acccdec2577af1fd41f30494138c", 3221),
        ("13da1eef1ce554c024b87ffd3addace9884547b6f74a3460afab5f1bce7ba139", 5197),
        ("3c207b801b6e87b9ec56b6dce439ebe5265eacee85e24d92395b1d1116ded50a", 9123),
        ("879210a975efb93d4f55275743a4bb9a8b12994d73cfdb7bcf82b2110b1b8fd6", 16090),
        ("b019a73a82c0ab1cd40a13f0343cb9600d872813aacb84e42b6d38c550c8083b", 1386),
        ("25f535042594402be8d2221a5dc413be998e5bb8bfc8158fb150f0d461f1a560", 1540),
        ("a50abd93e864494c96fd8eadfb67de71c45ee877472d4cefd197125e09d5038f", 2727),
        ("cba4b76dcdd7a77fcc286e0b5810c693508a9b3f01a489daa219619d20629287", 3765),
        ("89beb9f0350f69a11d5d1c9e1cb724b3155619de24505a9af0e1e506fcc21bca", 990),
        ("cbddf633841ce2de58fcf289b46f28e6f244ec935c6663e09cee2776862534ff", 1085),
        ("d6fb6f5c5c810289090be1083a4a1530bf713b2faa14f1ec8cb7c82d0eef5adf", 2369),
        ("ea7925c1d09bfe6e57d616c1ef28b61b5561dd17e53a83cbad79a1f9984dc950", 2522),
    )

    @staticmethod
    def tail_shapes_corpus():
        # the search workload's slowest shapes, with 143-189 live levels
        rng = random.Random(20070)
        for costs in ([1, 3], [2, 3, 4]):
            for eps in (F(1, 4), F(1, 5)):
                for n in (10, 11, 12, 13):
                    weights = [rng.randint(1, 60) for _ in range(n)]
                    yield Instance.from_weights(weights, LetterCosts(costs), eps)[0]

    def test_tail_shapes_reproduce_outputs_within_node_counts(self):
        corpus = list(self.tail_shapes_corpus())
        assert len(corpus) == len(self.TAIL_SHAPES)
        for inst, (digest, explored) in zip(corpus, self.TAIL_SHAPES):
            rep = solve(inst)
            record = (rep.code.codewords, rep.total_cost, rep.kprefix_cost)
            assert hashlib.sha256(repr(record).encode()).hexdigest() == digest
            assert rep.explored <= explored


class TestEndToEnd:
    def test_guarantee_at_ten_words(self):
        # the search alphabets at the verify epsilons, plus tiny cheapest
        # letters, at MAX_ORACLE_WORDS words; worst excess (cost/opt - 1)/eps
        # per path
        rng = random.Random(20122)
        n = 10
        cases = []
        for costs in ([1, 2], [1, 3], [2, 3, 4], [1, 1, 2]):
            for eps in (F(1, 2), F(1, 4), F(1, 5)):
                for _ in range(4):
                    cases.append((LetterCosts(costs), eps))
        for eps in (F(1, 2), F(1, 4), F(1, 5)):
            for extra in ([], [2], [], [2]):
                cases.append((LetterCosts([eps / rng.randint(4 * n, 16 * n), 1] + extra), eps))
        worst = {"main": F(0), "tiny": F(0)}
        ran = {"main": 0, "tiny": 0}
        for letters, eps in cases:
            weights = [rng.randint(1, 1000) for _ in range(n)]
            inst, _ = Instance.from_weights(weights, letters, eps)
            rep = solve(inst)
            ratio = F(rep.total_cost, exact_optimal(inst).optimal_cost)
            assert 1 <= ratio <= 1 + C_TOTAL * eps, (letters.costs, weights, eps)
            worst[rep.mode] = max(worst[rep.mode], (ratio - 1) / eps)
            ran[rep.mode] += 1
        assert ran == {"main": 48, "tiny": 12}
        print("worst excess at n=%d: main %s*eps, tiny %s*eps" % (n, worst["main"], worst["tiny"]))

    def test_guarantee_on_equal_letter_costs(self):
        # Huffman's greedy merge is optimal when every letter costs the same,
        # so the guarantee is checked far past the exact oracle's reach. At
        # eps 1/2 some cases exhaust the budget; they stay in the grid
        rng = random.Random(4096)
        cases = []
        for costs in ([1, 1], [1, 1, 1], [2, 2, 2, 2]):
            for n in (64, 1024, 4096):
                zipf = [10**7 // (i + 1) + 1 for i in range(n)]
                drawn = [rng.randint(1, 10**6) for _ in range(n)]
                cases += [(costs, zipf), (costs, drawn)]
        for eps, budget, least in ((F(1), driver.DEFAULT_BUDGET, 18), (F(1, 2), 10**5, 8)):
            returned = 0
            for costs, weights in cases:
                inst, _ = Instance.from_weights(weights, LetterCosts(costs), eps)
                try:
                    rep = solve(inst, budget=budget)
                except BudgetExceeded:
                    continue
                returned += 1
                assert rep.total_cost <= (1 + C_TOTAL * eps) * huffman_cost(inst), (costs, inst.n, eps)
            assert returned >= least, eps

    def test_guarantee_at_thirty_two_words_on_unequal_costs(self, monkeypatch):
        # the exact oracle settles these in well under a second each once
        # its word cap is lifted, so the guarantee is checked at n = 32 on
        # unequal letter costs: Zipf-like weights with per-seed jitter
        monkeypatch.setattr(oracles, "MAX_ORACLE_WORDS", 32)
        rng = random.Random(3232)
        n = 32
        worst = F(0)
        for costs in ([1, 2], [1, 3], [2, 3, 4], [1, 1, 2]):
            for eps in (F(1), F(1, 2)):
                weights = [10**6 * rng.randint(90, 110) // (100 * (i + 1)) + 1 for i in range(n)]
                inst, _ = Instance.from_weights(weights, LetterCosts(costs), eps)
                rep = solve(inst, budget=10**6)
                assert rep.mode == "main"
                opt = exact_optimal(inst, budget=10**6).optimal_cost
                ratio = F(rep.total_cost, opt)
                assert 1 <= ratio <= 1 + C_TOTAL * eps, (costs, weights, eps)
                worst = max(worst, ratio)
        print("worst ratio at n=%d on unequal costs: %.4f" % (n, worst))

    def test_ratio_and_witness_sample(self):
        rng = random.Random(91)
        for _ in range(25):
            inst = random_instance(rng, max_n=6)
            rep = solve(inst)
            exact = exact_optimal(inst)
            ratio = F(rep.total_cost, exact.optimal_cost)
            assert 1 <= ratio <= 1 + inst.epsilon
            if rep.mode == "main" and rep.kprefix_cost is not None:
                # chosen leveled code is near the optimal code before conversion
                norm = normalize(inst)
                slack = (1 + norm.epsilon_prime) * (1 + inst.epsilon)
                assert rep.kprefix_cost <= slack * exact.normalized_cost
