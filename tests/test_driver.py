import gc
import hashlib
import itertools
import math
import random
import sys
import time
import tracemalloc
from fractions import Fraction as F
from operator import mul

import pytest

from lettercost import (
    C_TOTAL,
    BudgetExceeded,
    Grouping,
    Guess,
    Inconsistent,
    Instance,
    InstanceError,
    LetterCosts,
    LeveledCode,
    build_cost_graph,
    choose_k,
    construct_leveled,
    exact_optimal,
    group_words,
    is_prefix_free,
    normalize,
    solve,
    solve_tiny_ell1,
)
from lettercost import driver
from lettercost.core import _price_int, runs_to_str
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
    choose_k_scan,
    is_prefix_free_sorted,
    random_instance,
    search_minimum,
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
        assert g.sizes == (1,) + (4,) * 12 + (2,)

    def test_singleton_threshold_is_half_the_cap(self):
        # cap (1 - p1) * eps^2 / k = 1/24: above 1/48 a word is a singleton,
        # at 1/48 it is packed, two to a group
        probs = (F(1, 2), F(1, 40)) + (F(1, 48),) * 22 + (F(1, 60),)
        g = group_words(normalize(Instance(probs, LetterCosts([1, 1]), F(1, 2))), F(3))
        assert g.ranges[:3] == ((0, 1), (1, 2), (2, 4))
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
        ws = norm.instance.weights_int
        return Grouping(norm, ranges, tuple(sum(ws[s:e]) for s, e in ranges)), norm

    def test_two_groups_two_levels(self):
        g, norm = self.make_grouping(
            [1, 1], F(1, 2), (F(1, 2), F(1, 2)), ((0, 1), (1, 2))
        )
        # one level-0 size (the cheapest letter costs 1) times the monotone
        # maps of a group prefix onto levels 1..2: (), (1,), (2,), (1, 1),
        # (1, 2) and (2, 2)
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
        built = []

        def construct(*args):
            built.append(construct_leveled(*args))
            return built[-1]

        instance, _ = long_codeword_instance()
        monkeypatch.setattr(driver, "construct_leveled", construct)
        assert solve(instance).mode == "main"
        code = built[-1]
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
            values = [_tiny_pool(inst, i0)[0] for i0 in candidates]
            assert _tiny_values(inst, candidates) == values, (letters, weights)
            below += sum(i0 < n for i0 in candidates)
            above += sum(i0 > n for i0 in candidates)
            codes = [tiny_candidate_code(inst, i0) for i0 in candidates]
            best = min(codes, key=lambda code: code[0])
            rep = solve_tiny_ell1(inst)
            assert rep.code.codewords == tuple(best[1])
            assert rep.total_cost == best[0] * l2 * inst.weight_total
            assert rep.guess_count == len(candidates)
        assert below > 100 and above > 50

    def test_codes_above_the_self_check(self):
        # solve_tiny_ell1 checks its code only up to n = 512; above that its
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
            codes = [solve_tiny_ell1(inst).code]
            for i0 in [candidates[0], *rng.sample(candidates[1:], 2)]:
                codes.append(_tiny_pool(inst, i0)[1])
            for code in codes:
                assert len(set(code.codewords)) == n
                assert is_prefix_free_sorted(code.codewords)
                assert code.costs_int() == list(_price_int(code.codewords, letters))
                assert code.ordered

    def test_closed_form_matches_sorted_pool(self):
        # the strided walk prices and builds every run length's code as one
        # sort of the whole candidate pool would: same values, codewords,
        # prices and order. Equal letter costs, costs a multiple of c1 apart
        # and costs near 2 c2 - n c1 make ties inside a window between
        # families and between letters x, which the tuple order breaks
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
            inst, _ = Instance.from_weights(weights, letters, eps)
            candidates = tiny_run_length_candidates(inst)
            expected = [tiny_value_reference(inst, i0) for i0 in candidates]
            assert _tiny_values(inst, candidates) == expected, (letters, n)
            for i0, value in zip(candidates, expected):
                ref_value, ref = tiny_pool_reference(inst, i0)
                got_value, got = _tiny_pool(inst, i0)
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

    def test_dispatching(self):
        # at the boundary l1 = eps*l2/n the solver takes the tiny path
        inst = Instance(
            tuple([F(1, 4)] * 4), LetterCosts([F(1, 8), 1]), F(1, 2)
        )
        rep = solve(inst)
        assert rep.mode == "tiny"

    def test_boundary_agreement(self):
        # just above the boundary (l1 * n = 9/16 > eps) solve takes the main
        # path and solve_tiny_ell1 refuses the instance, but the tiny path's
        # candidate codes still price it; the two costs stay within a
        # (1+eps)^2 factor of each other
        eps = F(1, 2)
        n = 4
        l1 = eps / n + F(1, 64)
        inst = Instance(tuple([F(1, n)] * n), LetterCosts([l1, 1]), eps)
        main = solve(inst)
        assert main.mode == "main"
        with pytest.raises(InstanceError):
            solve_tiny_ell1(inst)
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
    sizes = group_words(norm, k).sizes
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
                if isinstance(code, Inconsistent):
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
        # 20-22 live levels at n <= 4: the incumbent cuts most capacity lists
        # short of the last live level, and the result must not move
        reaches = []
        reach = driver._Search._reach

        def recorded(self, lpos, partial, rest, best):
            hi = reach(self, lpos, partial, rest, best)
            reaches.append(hi < len(self.live))
            return hi

        monkeypatch.setattr(driver._Search, "_reach", recorded)
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
        assert sum(reaches) > 30


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
