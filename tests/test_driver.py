import gc
import hashlib
import math
import random
import sys
import time
from fractions import Fraction as F

import pytest

from lettercost import (
    BudgetExceeded,
    Grouping,
    Instance,
    InstanceError,
    LetterCosts,
    choose_k,
    enumerate_guesses,
    exact_optimal,
    group_words,
    is_prefix_free,
    normalize,
    solve,
    solve_tiny_ell1,
)
from lettercost import driver
from lettercost.core import runs_to_str
from lettercost.driver import (
    _tiny_pool,
    _tiny_value,
    guess_stream_size,
    level0_size_candidates,
    tiny_candidate_code,
    tiny_run_length_candidates,
)
from lettercost.kprefix import _MatNode

from helpers import random_instance


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

    def test_known_values(self):
        assert choose_k(F(1)) == 5
        assert choose_k(F(1, 2)) == F(25, 2)


class TestGrouping:
    def test_all_singletons(self):
        inst = Instance(
            (F(4, 10), F(3, 10), F(2, 10), F(1, 10)), LetterCosts([1, 1]), F(1, 2)
        )
        g = group_words(normalize(inst), F(3))
        assert g.ranges == ((0, 1), (1, 2), (2, 3), (3, 4))
        assert g.singleton_prefix == 4

    def test_heavy_head_packed_rest(self):
        probs = (F(1, 2),) + tuple([F(1, 100)] * 50)
        g = group_words(normalize(Instance(probs, LetterCosts([1, 1]), F(1, 2))), F(3))
        assert g.group_count == 14
        assert g.sizes == (1,) + (4,) * 12 + (2,)

    def test_singleton_threshold_is_half_the_cap(self):
        # cap (1 - p1) * eps^2 / k = 1/24: above 1/48 a word is a singleton,
        # at 1/48 it is packed, two to a group
        probs = (F(1, 2), F(1, 40)) + (F(1, 48),) * 22 + (F(1, 60),)
        g = group_words(normalize(Instance(probs, LetterCosts([1, 1]), F(1, 2))), F(3))
        assert g.singleton_prefix == 2
        assert g.sizes == (1, 1) + (2,) * 11 + (1,)

    def test_single_word(self):
        g = group_words(normalize(Instance((F(1),), LetterCosts([1, 1]), F(1, 2))), F(3))
        assert g.ranges == ((0, 1),)

    def test_bounds_on_random_instances(self):
        rng = random.Random(71)
        for _ in range(25):
            inst = random_instance(rng)
            norm = normalize(inst)
            k = choose_k(norm.epsilon_prime)
            g = group_words(norm, k)  # group_words asserts its own invariants
            eps = norm.epsilon_prime
            assert g.group_count <= 1 + 4 * k / (eps * eps)


class TestGuessEnumeration:
    def make_grouping(self, costs, eps, probs, ranges):
        norm = normalize(Instance(probs, LetterCosts(costs), F(eps)))
        sizes = tuple(e - s for s, e in ranges)
        gp = tuple(sum(probs[s:e], F(0)) for s, e in ranges)
        return Grouping(norm, F(2), ranges, 1, gp), norm

    def test_one_group_one_level(self):
        g, norm = self.make_grouping(
            [F(1, 2), 1], F(1, 2), (F(1),), ((0, 1),)
        )
        guesses = list(enumerate_guesses(g, F(3, 2), norm.epsilon_prime, 1))
        assert len(guesses) == 4
        assert {(gu.f0, gu.level_counts) for gu in guesses} == {
            (0, ()),
            (0, ((1, 1),)),
            (1, ()),
            (1, ((1, 1),)),
        }

    def test_no_levels_edge(self):
        g, norm = self.make_grouping([F(1, 2), 1], F(1, 2), (F(1),), ((0, 1),))
        guesses = list(enumerate_guesses(g, F(1), norm.epsilon_prime, 1))
        # only the empty assignment per level-0 size candidate
        assert [gu.level_counts for gu in guesses] == [(), ()]

    def test_two_groups_two_levels(self):
        g, norm = self.make_grouping(
            [1, 1], F(1, 2), (F(1, 2), F(1, 2)), ((0, 1), (1, 2))
        )
        guesses = list(enumerate_guesses(g, F(2), norm.epsilon_prime, 2))
        assert len(guesses) == 6
        assert guess_stream_size(g, F(2), norm.epsilon_prime) == 6

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

    def test_main_path_leaves_no_cyclic_garbage(self):
        # the materializer's trie and the search's closures go by reference
        # counting, without waiting for a full collection
        instance, _ = Instance.from_weights([1000 // i for i in range(1, 200)], LetterCosts([1, 2]), F(1))
        gc.collect()
        gc.disable()
        try:
            assert solve(instance).mode == "main"
            tries = sum(isinstance(o, _MatNode) for o in gc.get_objects())
            garbage = gc.collect()
        finally:
            gc.enable()
        assert (tries, garbage) == (0, 0)

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

    def test_k_override(self):
        inst, _ = Instance.from_weights([2, 1, 1], LetterCosts([1, 1]), F(1, 2))
        rep = solve(inst, k_override=F(3))
        assert rep.k == 3
        assert rep.total_cost >= exact_optimal(inst).optimal_cost

    def test_structural_bounds_reported(self):
        inst, _ = Instance.from_weights([4, 3, 2, 1], LetterCosts([1, 2]), F(1, 2))
        rep = solve(inst)
        norm = normalize(inst)
        k = rep.k
        assert rep.graph_nodes <= inst.n * k / norm.epsilon_prime
        assert rep.graph_arcs <= norm.d * rep.graph_nodes
        assert rep.normalized_cost >= 1 - inst.probabilities[0]


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
        assert tiny_run_length_candidates(inst)[:6] == [1, 2, 3, 5, 7, 11]

    def test_single_word(self):
        inst = Instance((F(1),), LetterCosts([F(1, 100), 1]), F(1, 2))
        rep = solve_tiny_ell1(inst)
        assert rep.code.strings() == ["a"]
        assert rep.total_cost == F(1, 100)

    def test_precondition_enforced(self):
        inst = Instance((F(1, 2), F(1, 2)), LetterCosts([1, 1]), F(1, 2))
        with pytest.raises(InstanceError):
            solve_tiny_ell1(inst)

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
            rep = solve_tiny_ell1(inst)
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
            for i0 in candidates:
                assert _tiny_value(inst, i0) == _tiny_pool(inst, i0)[0], (letters, weights, i0)
            below += sum(i0 < n for i0 in candidates)
            above += sum(i0 > n for i0 in candidates)
            codes = [tiny_candidate_code(inst, i0) for i0 in candidates]
            best = min(codes, key=lambda code: code[0])
            rep = solve_tiny_ell1(inst)
            assert rep.code.codewords == tuple(best[1])
            assert rep.total_cost == best[0] * l2 * inst.weight_total
            assert rep.guess_count == len(candidates)
        assert below > 100 and above > 50

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

    def test_dispatching(self):
        # at the boundary l1 = eps*l2/n the solver takes the tiny path
        inst = Instance(
            tuple([F(1, 4)] * 4), LetterCosts([F(1, 8), 1]), F(1, 2)
        )
        rep = solve(inst)
        assert rep.mode == "tiny"

    def test_boundary_agreement(self):
        # just above the boundary both paths run; their costs stay within
        # a (1+eps)^2 factor of each other
        eps = F(1, 2)
        n = 4
        l1 = eps / n + F(1, 64)
        inst = Instance(tuple([F(1, n)] * n), LetterCosts([l1, 1]), eps)
        main = solve(inst, force_main=True)
        assert main.mode == "main"
        tiny = solve_tiny_ell1(inst, check=False)
        ratio = max(
            F(main.total_cost, tiny.total_cost), F(tiny.total_cost, main.total_cost)
        )
        assert ratio <= (1 + eps) ** 2


class TestSearchEquivalence:
    def test_search_matches_full_enumeration(self):
        # the pruned depth-first search must return exactly the minimum that
        # plain enumeration over every guess finds
        import itertools

        from lettercost import Guess, Inconsistent, build_cost_graph, construct_leveled
        from lettercost.cost_graph import Inconsistent as Inc

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
            rep = solve(inst, k_override=k)
            if rep.mode != "main":
                continue

            graph = build_cost_graph(norm, k)
            grouping = group_words(norm, k)
            sizes = grouping.sizes
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
                        code = construct_leveled(norm, graph, guess, n)
                        if isinstance(code, (Inconsistent, Inc)):
                            continue
                        cost = code.cost_for(norm.instance.probabilities)
                        if best is None or cost < best:
                            best = cost
            assert best is not None
            assert rep.kprefix_cost == best, (costs, weights, eps, k)
            checked += 1


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


class TestEndToEnd:
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
