import itertools
import random
from fractions import Fraction as F

import pytest

from lettercost import (
    Guess,
    Instance,
    InstanceError,
    LetterCosts,
    build_cost_graph,
    choose_k,
    construct_leveled,
    convert_to_prefix,
    normalize,
)
from lettercost.core import runs_to_str
from lettercost import kprefix
from lettercost.kprefix import LeveledCode

from helpers import (
    blocker_pairs,
    brute_force_leveled_minimum,
    free_counts_recurrence,
    guess_words,
    is_k_prefix_free_pairwise,
    leveled_cost,
    leveled_recurrence,
    leveled_setup,
    strings_of_cost,
)


class TestConstruct:
    def test_three_words(self):
        norm, graph = leveled_setup([1, 1], 1, 3, 4)
        code = construct_leveled(norm, graph, Guess(0, ((1, 1), (2, 2))), 3)
        assert isinstance(code, LeveledCode)
        assert [runs_to_str(c) for c in code.codewords] == ["a", "ba", "bb"]
        assert code.word_costs_q == [1, 2, 2]

    def test_fourth_word_impossible(self):
        norm, graph = leveled_setup([1, 1], 1, 3, 4)
        with pytest.raises(InstanceError, match="fewer than 1 tail codewords exist"):
            construct_leveled(norm, graph, Guess(0, ((1, 1), (2, 2))), 4)

    def test_two_singles(self):
        norm, graph = leveled_setup([1, 1], 1, 3, 4)
        code = construct_leveled(norm, graph, Guess(0, ((1, 2),)), 2)
        assert [runs_to_str(c) for c in code.codewords] == ["a", "b"]

    def test_level_zero_codeword(self):
        norm, graph = leveled_setup([F(1, 2), 1], F(1, 2), 2, 4)
        code = construct_leveled(norm, graph, Guess(1, ((1, 1),)), 2)
        assert isinstance(code, LeveledCode)
        words = [runs_to_str(c) for c in code.codewords]
        assert words[0] == "a"
        assert words[1] == "b"  # the run aa is blocked by the level-0 codeword
        assert is_k_prefix_free_pairwise(code.codewords, 2, norm.instance.letters.costs)

    @pytest.mark.parametrize("guess", [Guess(-1), Guess(0, ((1, -1),))])
    def test_negative_guess_count(self, guess):
        norm, graph = leveled_setup([1, 1], 1, 3, 4)
        with pytest.raises(InstanceError, match="guess counts must be nonnegative"):
            construct_leveled(norm, graph, guess, 4)

    def test_overfull_guess(self):
        norm, graph = leveled_setup([1, 1], 1, 3, 4)
        with pytest.raises(InstanceError, match="guess places more codewords than words"):
            construct_leveled(norm, graph, Guess(0, ((1, 2), (2, 4))), 3)

    def test_level_outside_the_graph(self):
        norm, graph = leveled_setup([1, 1], 1, 3, 4)
        assert graph.level_count == 2
        for lvl in (0, 3):
            with pytest.raises(InstanceError, match=r"guess names a level outside 1\.\.2"):
                construct_leveled(norm, graph, Guess(0, ((lvl, 1),)), 4)

    def test_repeated_level(self):
        # a level named twice once kept only its last count while the tail
        # was sized from both, giving 7 codewords for 8 words
        inst, _ = Instance.from_weights([5, 4, 3, 3, 2, 2, 1, 1], LetterCosts([1, 2]), F(1, 2))
        norm = normalize(inst)
        graph = build_cost_graph(norm, choose_k(norm.epsilon_prime))
        with pytest.raises(InstanceError, match="guess names level 1 twice"):
            construct_leveled(norm, graph, Guess(0, ((1, 1), (1, 1))), 8)
        # in any order
        with pytest.raises(InstanceError, match="guess names level 2 twice"):
            construct_leveled(norm, graph, Guess(0, ((2, 1), (1, 1), (2, 0))), 8)

    def test_materializing_keeps_equality(self):
        # the materialized value is a cache, not part of the code: it neither
        # makes two equal codes unequal nor can be passed in
        norm = normalize(Instance(tuple([F(1, 8)] * 8), LetterCosts([1, 2]), 1))
        graph = build_cost_graph(norm, choose_k(norm.epsilon_prime))
        a, b = (construct_leveled(norm, graph, Guess(0), 8) for _ in range(2))
        assert a == b
        a.codewords
        assert a == b
        with pytest.raises(TypeError):
            LeveledCode(norm, graph, a.picks, _codewords=a.codewords)
        with pytest.raises(TypeError):
            LeveledCode(norm, graph, a.picks, _materialized=a._parts())

    def test_codewords_cannot_be_changed_by_the_caller(self):
        # the code hands out the codewords it keeps, so they are a tuple: a
        # caller's edit would reach every later codewords and conversion
        inst, _ = Instance.from_weights([8, 7, 6, 5, 4, 3, 2, 1], LetterCosts([1, 2]), 1)
        norm = normalize(inst)
        k = choose_k(norm.epsilon_prime)
        graph = build_cost_graph(norm, k)
        code = construct_leveled(norm, graph, Guess(1), 8)
        converted = convert_to_prefix(code, k).codewords
        words = code.codewords
        assert words[0] == ((0, 1),)
        with pytest.raises(TypeError):
            words[0] = ((1, 5),)
        assert code.codewords == words and code.codewords[0] == ((0, 1),)
        assert convert_to_prefix(code, k).codewords == converted
        assert converted[0] == ((0, 1),)

    def test_level0_size_too_costly(self):
        norm, graph = leveled_setup([F(1, 2), 1], F(1, 2), 2, 4)
        with pytest.raises(InstanceError, match="level-0 codeword size 2 costs at least 1"):
            construct_leveled(norm, graph, Guess(2, ()), 4)


class TestSelect:
    def test_noop(self):
        # a zero count reserves nothing: no pick, and the code of no request
        norm, graph = leveled_setup([1, 1], 1, 3, 4)
        code = construct_leveled(norm, graph, Guess(0, ((1, 0),)), 2)
        assert all(cost_q >= graph.k_q for cost_q, _ in code.picks)
        assert code.picks == construct_leveled(norm, graph, Guess(0, ()), 2).picks

    def test_materialization_order(self):
        norm, graph = leveled_setup([1, 1], 1, 3, 4)
        code = construct_leveled(norm, graph, Guess(0, ((2, 3),)), 3)
        assert [runs_to_str(c) for c in code.codewords] == ["aa", "ab", "ba"]

    def test_consume_all(self):
        norm, graph = leveled_setup([1, 1], 1, 3, 4)
        assert graph.free(2, []) == 4
        code = construct_leveled(norm, graph, Guess(0, ((2, 4),)), 4)
        assert code.picks == [(2, 4)]
        assert graph.free(2, [(2, 4)]) == 0
        # the four cost-2 strings block every longer one: no fifth codeword
        with pytest.raises(InstanceError, match="fewer than 1 tail codewords exist"):
            construct_leveled(norm, graph, Guess(0, ((2, 4),)), 5)

    def test_insufficient(self):
        norm, graph = leveled_setup([1, 1], 1, 3, 4)
        assert graph.free(1, []) == 2
        with pytest.raises(InstanceError, match="level 1 cannot host 3 codewords"):
            construct_leveled(norm, graph, Guess(0, ((1, 3),)), 3)
        # a lower level's codewords count against a higher level
        assert graph.free(2, [(1, 1)]) == 2
        with pytest.raises(InstanceError, match="level 2 cannot host 3 codewords"):
            construct_leveled(norm, graph, Guess(0, ((1, 1), (2, 3))), 4)

    def test_pick_past_the_free_strings_is_an_error(self):
        # a pick made by hand, not by the search or construct_leveled, may
        # ask for more strings of its cost than exist
        inst, _ = Instance.from_weights([5, 3, 2, 1], LetterCosts([1, 2]), 1)
        norm = normalize(inst)
        graph = build_cost_graph(norm, choose_k(norm.epsilon_prime))
        code = LeveledCode(norm, graph, [(graph.live_targets[0], 1000)])
        with pytest.raises(InstanceError, match="asks for 1000 strings"):
            code.codewords
        # after another pick below k and before tail picks, one of them short
        # too, the message still names the first short pick
        first, second = graph.live_targets[:2]
        for tail in ([(graph.k_q, 1)], [(graph.k_q, 10**6)]):
            code = LeveledCode(norm, graph, [(first, 1), (second, 1000), *tail])
            with pytest.raises(InstanceError, match="asks for 1000 strings of cost %d quanta" % second):
                code.codewords

    def test_a_short_pick_below_k_raises_before_the_tail_is_walked(self, monkeypatch):
        inst, _ = Instance.from_weights([5, 3, 2, 1], LetterCosts([1, 2]), 1)
        norm = normalize(inst)
        graph = build_cost_graph(norm, choose_k(norm.epsilon_prime))
        walks = []
        walk = kprefix._prefixes
        monkeypatch.setattr(kprefix, "_prefixes", lambda *args: walks.append(list(args[2])) or walk(*args))
        code = LeveledCode(norm, graph, [(graph.live_targets[0], 1000), (graph.k_q, 10**6)])
        with pytest.raises(InstanceError, match="asks for 1000 strings"):
            code.codewords
        assert walks == [[graph.live_targets[0]]]


class TestStructure:
    def test_random_outputs_leveled_and_kprefix_free(self):
        rng = random.Random(51)
        for _ in range(40):
            costs = rng.choice([[1, 1], [1, 2], [F(1, 2), 1]])
            eps = rng.choice([F(1, 2), F(1)])
            n = rng.randint(2, 6)
            probs = tuple(F(1, n) for _ in range(n))
            norm = normalize(Instance(probs, LetterCosts(costs), eps))
            if norm.instance.letters.costs[0] * n <= norm.epsilon_prime:
                continue
            k = 1 + rng.randint(2, 6) * norm.epsilon_prime
            graph = build_cost_graph(norm, k)
            counts = {}
            for _ in range(rng.randint(0, 3)):
                lvl = rng.randint(1, graph.level_count)
                counts[lvl] = counts.get(lvl, 0) + rng.randint(1, 2)
            guess = Guess(0, tuple(sorted(counts.items())))
            try:
                code = construct_leveled(norm, graph, guess, n)
            except InstanceError:
                continue
            assert is_k_prefix_free_pairwise(code.codewords, k, norm.instance.letters.costs)
            # leveled: the picks below k are the guess's levels, each at its
            # target cost, and the picks rise in cost
            below = [(cost_q, cnt) for cost_q, cnt in code.picks if cost_q < graph.k_q]
            assert below == [(graph.level_target(lvl), cnt) for lvl, cnt in guess.level_counts]
            costs_q = [cost_q for cost_q, _ in code.picks]
            assert costs_q == sorted(set(costs_q))

    def test_level0_uniqueness(self):
        # with a level-0 size given, the code holds exactly that one codeword
        # below unit cost, a run of the cheapest letter, and nothing else in a*
        norm, graph = leveled_setup([F(1, 4), 1], F(1, 2), 2, 6)
        code = construct_leveled(norm, graph, Guess(2, ((2, 2),)), 5)
        assert isinstance(code, LeveledCode)
        letters = norm.instance.letters
        sub_unit = [c for c in code.codewords if sum(
            letters.costs[let] * rep for let, rep in c) < 1]
        assert sub_unit == [((0, 2),)]
        pure_runs = [c for c in code.codewords if all(let == 0 for let, _ in c)]
        assert pure_runs == [((0, 2),)]

    def test_level0_run_is_the_first_codeword(self):
        # the level-0 pick is walked like any other; below cost 1 its cost
        # holds one string, so the walk finds the run a^f0, for every size
        checked = 0
        for costs in ([1, 2], [1, 3]):
            for eps in (F(1), F(1, 2), F(1, 4)):
                norm, graph = leveled_setup(costs, eps, 1 + 2 * eps, 6)
                f_max = (norm.unit_q - 1) // norm.letters_q[0]
                assert f_max >= 1
                for f0 in range(1, f_max + 1):
                    code = construct_leveled(norm, graph, Guess(f0, ()), 6)
                    assert isinstance(code, LeveledCode), (costs, eps, f0)
                    assert code.picks[0] == (f0 * norm.letters_q[0], 1)
                    assert code.codewords[0] == ((0, f0),)
                    checked += 1
        assert checked == 9

    def test_affine_counts_match_table(self):
        # closed form count(c) - sum over S of count(c - cost(x)) equals the
        # sequential recurrence for the sets the constructor builds
        norm, graph = leveled_setup([F(1, 2), 1], F(1, 2), 3, 6)
        guess = Guess(0, ((1, 1), (3, 2)))
        code = construct_leveled(norm, graph, guess, 6)
        assert isinstance(code, LeveledCode)
        level_picks = [(cost_q, cnt) for cost_q, cnt in code.picks if cost_q < graph.k_q]
        level_words = sum(cnt for _, cnt in level_picks)
        # the blockers from the codewords' own costs are the picks below k
        blocked = blocker_pairs(code.codewords[:level_words], norm.letters_q)
        assert blocked == level_picks
        costs_q = [cost_q for cost_q, cnt in blocked for _ in range(cnt)]
        reference = free_counts_recurrence(graph.distinct_q, graph.k_q, costs_q)
        for c in range(graph.k_q + 1):
            affine = graph.count(c) - sum(
                cnt * graph.count(c - bc) for bc, cnt in blocked
            )
            assert graph.free(c, blocked) == affine == reference[c]


class TestRecurrenceReference:
    def test_matches_recurrence_on_random_guesses(self):
        # the closed form against the sequential recurrence it replaced, on
        # random level-0 sizes and level requests: below capacity, at it
        # (complete sets, whose tails run short) and one above it
        rng = random.Random(181)
        alphabets = [
            [F(1, 2), 1],
            [1, 1, 2],
            [2, 3, 4],
            [1, 1],
            [1, 2],
            [1, 3],
            [F(1, 3), 1],
            [1, 2, 2],
        ]
        seen = dict.fromkeys(
            ("feasible", "level short", "tail short", "tail spans costs", "level-0 run"), 0
        )
        for trial in range(480):
            costs = alphabets[trial % len(alphabets)]
            eps = rng.choice([F(1, 3), F(1, 2), F(1)])
            probs = tuple(F(1, 16) for _ in range(16))
            norm = normalize(Instance(probs, LetterCosts(costs), eps))
            graph = build_cost_graph(norm, 1 + rng.randint(1, 5) * norm.epsilon_prime)
            f0_max = (norm.unit_q - 1) // norm.letters_q[0]
            f0 = rng.randint(0, f0_max) if f0_max > 0 and rng.random() < 0.5 else 0
            blocked_q = [f0 * norm.letters_q[0]] if f0 else []
            counts = {}
            for lvl in range(1, graph.level_count + 1):
                target = graph.level_target(lvl)
                cap = free_counts_recurrence(graph.distinct_q, graph.k_q, blocked_q)[target]
                pick = rng.random()
                if pick < 0.4 or cap <= 0:
                    continue
                cnt = cap if pick < 0.75 else cap + 1 if pick < 0.8 else rng.randint(1, cap)
                counts[lvl] = cnt
                blocked_q += [target] * cnt
            guess = Guess(f0, tuple(sorted(counts.items())))
            n = guess_words(guess) + rng.randint(0, 6)
            seen["level-0 run"] += f0 > 0
            expected = leveled_recurrence(norm, graph, guess, n)
            where = (costs, eps, graph.k_q, guess, n)
            if expected is None:
                with pytest.raises(InstanceError, match="cannot host|tail codewords"):
                    construct_leveled(norm, graph, guess, n)
                levels_fit = leveled_recurrence(norm, graph, guess, guess_words(guess))
                seen["tail short" if levels_fit else "level short"] += 1
            else:
                got = construct_leveled(norm, graph, guess, n)
                assert got.picks == expected, where
                seen["feasible"] += 1
                seen["tail spans costs"] += sum(c >= graph.k_q for c, _ in got.picks) > 1
        assert min(seen.values()) >= 20, seen


class TestMaterializationOrder:
    def test_first_free_strings_in_letter_order(self):
        # each pick holds the first `count` strings of its cost, in
        # letter-index order, that have no blocking prefix: no codeword below
        # k chosen before it (the level-0 run, then the level picks in order)
        rng = random.Random(131)
        alphabets = [[1, 1], [1, 2], [1, 3], [F(1, 2), 1], [F(1, 3), 1], [1, 1, 2]]
        checked = 0
        while checked < 60:
            costs = rng.choice(alphabets)
            eps = rng.choice([F(1, 2), F(1)])
            n = rng.randint(2, 14)
            norm = normalize(Instance(tuple(F(1, n) for _ in range(n)), LetterCosts(costs), eps))
            if norm.instance.letters.costs[0] * n <= norm.epsilon_prime:
                continue
            graph = build_cost_graph(norm, 1 + rng.randint(1, 4) * norm.epsilon_prime)
            f0_max = (norm.unit_q - 1) // norm.letters_q[0]
            f0 = rng.randint(0, f0_max) if f0_max > 0 else 0
            counts = {}
            for _ in range(rng.randint(0, 3)):
                lvl = rng.randint(1, graph.level_count)
                counts[lvl] = counts.get(lvl, 0) + rng.randint(1, 3)
            try:
                code = construct_leveled(norm, graph, Guess(f0, tuple(sorted(counts.items()))), n)
            except InstanceError:
                continue
            if any(graph.count(c) > 3000 for c, _ in code.picks):
                continue
            blocking = []
            expected = []
            for cost_q, count in code.picks:
                free = [
                    s
                    for s in sorted(strings_of_cost(norm.letters_q, cost_q))
                    if not any(s[: len(b)] == b for b in blocking)
                ]
                expected.extend(free[:count])
                if cost_q < graph.k_q:
                    blocking.extend(free[:count])
            got = [tuple(let for let, rep in w for _ in range(rep)) for w in code.codewords]
            assert got == expected, (costs, eps, graph.k_q, f0, counts)
            checked += 1


class TestScale:
    def test_materializer_at_moderate_scale(self):
        # a few hundred words across levels and tail, fully materialized and
        # re-verified by the standalone predicate
        n = 400
        probs = tuple(F(1, n) for _ in range(n))
        norm = normalize(Instance(probs, LetterCosts([F(1, 4), 1]), F(1, 2)))
        graph = build_cost_graph(norm, F(7, 2))
        counts = {}
        placed = []
        words = 0
        for lvl in range(1, graph.level_count + 1):
            target = graph.level_target(lvl)
            cap = graph.count(target) - sum(
                c * graph.count(target - t) for t, c in placed
            )
            take = min(max(cap // 2, 0), (3 * n) // 4 - words)
            if take > 0:
                counts[lvl] = take
                placed.append((target, take))
                words += take
        code = construct_leveled(
            norm, graph, Guess(0, tuple(sorted(counts.items()))), n
        )
        assert isinstance(code, LeveledCode)
        assert len(code.codewords) == n
        assert is_k_prefix_free_pairwise(code.codewords, F(7, 2), norm.instance.letters.costs)
        costs_q = [
            sum(norm.letters_q[let] * rep for let, rep in w) for w in code.codewords
        ]
        assert costs_q == code.word_costs_q


class TestOptimality:
    def test_matches_bruteforce_on_micro_corpus(self):
        corpus = [
            ([1, 1], F(1), F(2)),
            ([1, 1], F(1), F(3)),
            ([1, 2], F(1), F(3)),
            ([F(1, 2), 1], F(1, 2), F(2)),
            ([F(1, 2), 1], F(1, 2), F(5, 2)),
        ]
        for costs, eps, k in corpus:
            for n in range(2, 6):
                probs = tuple(
                    F(w, (n * (n + 1)) // 2) for w in range(n, 0, -1)
                )
                norm = normalize(Instance(probs, LetterCosts(costs), eps))
                if norm.instance.letters.costs[0] * n <= norm.epsilon_prime:
                    continue
                graph = build_cost_graph(norm, k)
                f0_options = [0] + [
                    f
                    for f in range(1, 4)
                    if f * norm.letters_q[0] < norm.unit_q
                ]
                level_options = []
                for counts in itertools.product(
                    range(n + 1), repeat=graph.level_count
                ):
                    if sum(counts) <= n:
                        level_options.append(
                            tuple((i + 1, c) for i, c in enumerate(counts) if c)
                        )
                for f0 in f0_options:
                    for level_counts in level_options:
                        guess = Guess(f0, level_counts)
                        if guess_words(guess) > n:
                            continue
                        brute = brute_force_leveled_minimum(norm, graph, guess, n)
                        try:
                            code = construct_leveled(norm, graph, guess, n)
                        except InstanceError:
                            assert brute is None, (costs, k, n, guess)
                        else:
                            got = leveled_cost(code)
                            assert brute is not None, (costs, k, n, guess)
                            assert got == brute, (costs, k, n, guess)
