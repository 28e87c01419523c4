import math
import random
from fractions import Fraction as F

import pytest

from lettercost import (
    CodeAssignment,
    Instance,
    InstanceError,
    LetterCosts,
    NormalizedInstance,
    code_cost,
    codeword_cost,
    exact_optimal,
    is_prefix_free,
    normalize,
    reorder,
    solve,
)
from lettercost.core import runs_from_str, runs_to_str
from lettercost.driver import (
    _tiny_pool,
    _tiny_values,
    tiny_candidate_code,
    tiny_run_length_candidates,
)

from helpers import (
    fraction_code_cost,
    fraction_instance_words,
    fraction_normalize,
    fraction_codeword_cost,
    fraction_reorder,
    is_prefix_free_pairwise,
    is_prefix_free_sorted,
    tuples_to_runs,
)


def inst(probs, costs, eps):
    return Instance(tuple(F(p) for p in probs), LetterCosts(costs), F(eps))


ONE = (F(1),)


class TestNormalize:
    def test_already_conforming(self):
        norm = normalize(inst(ONE, [1, 1], F(1, 2)))
        assert norm.instance.letters.costs == (F(1), F(1))
        assert norm.epsilon_prime == F(1, 2)
        # every codeword cost is a whole number, so the grid is no finer
        assert norm.cost_quantum == 1
        assert (norm.letters_q, norm.unit_q, norm.eps_q) == ((1, 1), 1, 1)

    def test_one_three(self):
        norm = normalize(inst(ONE, [1, 3], F(1, 2)))
        assert norm.instance.letters.costs == (F(1, 3), F(1))
        assert norm.epsilon_prime == F(1, 3)

    def test_uniform_scaling(self):
        instance = inst(ONE, [2, 2], F(1, 4))
        norm = normalize(instance)
        assert norm.instance.letters.costs == (F(1), F(1))
        assert norm.epsilon_prime == F(1, 4)
        # normalize never rounds the cheapest letter, so its two costs give
        # the scale factor
        assert instance.letters.costs[0] / norm.instance.letters.costs[0] == 2

    def test_rejects_bad_epsilon(self):
        with pytest.raises(InstanceError):
            inst(ONE, [1, 1], F(0))
        with pytest.raises(InstanceError):
            inst(ONE, [1, 1], F(3, 2))

    def test_epsilon_shrink_bounded(self):
        rng = random.Random(11)
        for _ in range(40):
            costs = sorted(F(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(rng.randint(2, 4)))
            eps = F(rng.randint(1, 10), 10)
            norm = normalize(inst(ONE, costs, eps))
            assert norm.epsilon_prime >= eps / (2 * (1 + eps))
            assert norm.epsilon_prime <= eps

    def test_value_idempotent(self):
        rng = random.Random(12)
        for _ in range(30):
            costs = sorted(F(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(rng.randint(2, 4)))
            norm = normalize(inst(ONE, costs, F(rng.randint(1, 10), 10)))
            again = normalize(norm.instance)
            assert again.instance.letters.costs == norm.instance.letters.costs
            assert again.epsilon_prime == norm.epsilon_prime

    def test_cost_distortion_bounded(self):
        # every code's cost under normalized letters, mapped back by the scale
        # factor, is within a (1+eps) factor above its original cost
        import itertools

        rng = random.Random(13)
        for _ in range(15):
            r = rng.randint(2, 3)
            costs = sorted(F(rng.randint(1, 9), rng.randint(1, 3)) for _ in range(r))
            eps = F(rng.randint(1, 10), 10)
            instance = inst(ONE, costs, eps)
            norm = normalize(instance)
            # normalize never rounds the cheapest letter, so its two costs
            # give the factor that maps normalized costs back
            scale_factor = costs[0] / norm.instance.letters.costs[0]
            for length in range(1, 5):
                for word in itertools.product(range(r), repeat=length):
                    cost = sum(costs[let] for let in word)
                    norm_cost = sum(norm.instance.letters.costs[let] for let in word)
                    mapped = norm_cost * scale_factor
                    assert cost <= mapped <= (1 + eps) * cost

    def test_matches_the_fraction_reference(self):
        # the same letter costs and epsilon' as in Fractions; the quantum is
        # the gcd of the letter costs, a multiple of min(l1, epsilon') that
        # equals it when epsilon' >= l1
        rng = random.Random(14)
        coarser = 0
        for _ in range(200):
            costs = sorted(F(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(rng.randint(2, 4)))
            instance = inst(ONE, costs, F(1, rng.randint(1, 30)))
            norm = normalize(instance)
            final, eps_prime, quantum = fraction_normalize(instance)
            assert list(norm.instance.letters.costs) == final
            assert norm.epsilon_prime == eps_prime
            assert norm.letters_q == tuple(c / norm.cost_quantum for c in final)
            assert math.gcd(*norm.letters_q) == 1
            assert (norm.cost_quantum / quantum).denominator == 1
            if eps_prime >= final[0]:
                assert norm.cost_quantum == quantum
                assert norm.eps_q * quantum == eps_prime
            else:
                assert norm.eps_q == 1
            coarser += norm.cost_quantum > quantum
        assert coarser > 0

    def test_only_normalize_makes_one(self):
        # its fields are normalize's ints, with no checks of their own, so
        # nothing else can build one, not even from valid values
        norm = normalize(inst(ONE, [1, 2], F(1, 4)))
        with pytest.raises(TypeError):
            NormalizedInstance(instance=norm.instance, epsilon_prime=F(1, 4), cost_quantum=F(1, 4))
        with pytest.raises(TypeError):
            NormalizedInstance(instance=norm.instance, letters_q=(1, 2), unit_q=2, eps_q=1)

    def test_quantum_divides_everything(self):
        norm = normalize(inst(ONE, [F(3, 7), 1, 2], F(1, 3)))
        for c in norm.instance.letters.costs:
            assert (c / norm.cost_quantum).denominator == 1
        assert (norm.epsilon_prime / norm.cost_quantum).denominator == 1


class TestCodewordCost:
    LETTERS13 = LetterCosts([1, 3])

    def test_figure_pair(self):
        assert codeword_cost(runs_from_str("ab"), self.LETTERS13) == 4
        assert codeword_cost(runs_from_str("aaa"), self.LETTERS13) == 3

    def test_empty(self):
        assert codeword_cost(runs_from_str(""), self.LETTERS13) == 0

    def test_bad_letter(self):
        # a negative index must not wrap around to the last letter
        for bad in (5, 2, -1):
            with pytest.raises(InstanceError, match="out of range"):
                codeword_cost(((bad, 1),), self.LETTERS13)
            with pytest.raises(InstanceError, match="out of range"):
                CodeAssignment((((0, 1),), ((bad, 1),)), self.LETTERS13)


class TestPrefixFree:
    def test_binary_block(self):
        assert is_prefix_free(map(runs_from_str, ["aa", "ab", "ba", "bb"]))

    def test_figure_code(self):
        assert is_prefix_free(map(runs_from_str, ["aaa", "aab", "ab", "b"]))

    def test_nested(self):
        assert not is_prefix_free(map(runs_from_str, ["a", "ab"]))
        assert not is_prefix_free(map(runs_from_str, ["ab", "a"]))

    def test_duplicates(self):
        assert not is_prefix_free(map(runs_from_str, ["ab", "ab"]))

    def test_matches_pairwise_bruteforce(self):
        rng = random.Random(21)
        for _ in range(60):
            m = rng.randint(1, 50)
            words = [
                tuple(rng.randint(0, 1) for _ in range(rng.randint(1, 6)))
                for _ in range(m)
            ]
            assert is_prefix_free(tuples_to_runs(words)) == is_prefix_free_pairwise(words)

    def test_tiny_codes_with_long_runs(self):
        # the tiny path's codes hold runs of hundreds of the cheapest letter;
        # up to n = 450 their longest codeword stays below the recursion limit
        def extended(runs, let):
            if runs[-1][0] == let:
                return runs[:-1] + ((let, runs[-1][1] + 1),)
            return runs + ((let, 1),)

        eps = F(1, 2)
        for n, others in ((200, [1]), (330, [1, 2]), (450, [1, 3])):
            letters = LetterCosts([eps / (4 * n)] + others)
            weights = [10**6 // (i + 1) for i in range(n)]
            instance, _ = Instance.from_weights(weights, letters, eps)
            candidates = tiny_run_length_candidates(instance)
            values = _tiny_values(instance, candidates)
            words = list(_tiny_pool(instance, candidates[values.index(min(values))]).codewords)
            longest = max(words, key=lambda runs: sum(rep for _, rep in runs))
            assert max(rep for runs in words for _, rep in runs) >= n
            for code, expected in (
                (words, True),
                (words + [longest], False),
                (words + [extended(longest, 0)], False),
                (words + [extended(words[n // 2], 1)], False),
            ):
                assert is_prefix_free(code) is expected, (n, len(code))
                assert is_prefix_free_sorted(code) is expected, (n, len(code))


class TestCanonicalRuns:
    """A codeword is canonical runs: letter indices in the alphabet, repeats
    of at least 1, and no two adjacent runs of one letter."""

    LETTERS12 = LetterCosts([1, 2])

    @pytest.mark.parametrize(
        "word",
        [
            "ab",  # a str: runs_from_str turns it into runs
            "",
            (0, 1),  # letter indices: runs_from_letters turns them into runs
            (0, 0, 1),
            ((0, 1), (0, 1)),  # aa, which is ((0, 2),)
            ((0, 0), (1, 1)),
            ((0, -3),),
            ((2, 1),),  # letter index r
            ((-1, 1),),
            ((1, 1), (0, 2), (0, 1)),
            ((0, 1.5),),  # a repeat or a letter that is not an int
            ((0, F(1)),),
            ((0.0, 1),),
            [(0, 1)],  # a codeword or a run given as a list
            ([0, 1],),
        ],
    )
    def test_malformed_codewords_are_refused(self, word):
        with pytest.raises(InstanceError):
            codeword_cost(word, self.LETTERS12)
        with pytest.raises(InstanceError):
            CodeAssignment((((1, 1),), word), self.LETTERS12)

    def test_found_codes_are_refused_where_they_are_made(self):
        # both spell aa, and a repeat of -3 priced -3 and spelled the empty word
        for codewords in ([((0, 1), (0, 1)), ((0, 2),)], [((0, -3),)]):
            with pytest.raises(InstanceError, match="canonical"):
                CodeAssignment(codewords, self.LETTERS12)
        with pytest.raises(InstanceError, match="distinct"):
            CodeAssignment([((1, 1),), ((0, 2),), ((1, 1),)], self.LETTERS12)

    def test_canonical_codewords_are_kept(self):
        code = CodeAssignment([(), ((1, 1), (0, 2), (1, 3))], self.LETTERS12)
        assert code.codewords == ((), ((1, 1), (0, 2), (1, 3)))
        assert code.costs_int() == [0, 10]

    @staticmethod
    def assert_rewraps(code):
        again = CodeAssignment(code.codewords, code.letters)
        assert again.codewords == code.codewords
        assert again.costs_int() == code.costs_int()

    def test_main_path_codes_are_canonical(self):
        # solve builds its code from convert_to_prefix and reorder unchecked
        rng = random.Random(2020)
        zipf_ns = {(1, 2): (256, 2048), (1, 3): (256, 2048), (2, 3, 4): (24,), (1, 1, 2): (256, 2048)}
        for costs, ns in zipf_ns.items():
            letters = LetterCosts(costs)
            for n in ns:
                weights = [10**6 // (i + 1) + rng.randint(1, 9) for i in range(n)]
                instance, _ = Instance.from_weights(weights, letters, F(1))
                self.assert_rewraps(solve(instance).code)
            for eps in (F(1, 2), F(1, 3), F(1, 4), F(1, 5)):
                weights = [rng.randint(1, 1000) for _ in range(rng.randint(2, 10))]
                instance, _ = Instance.from_weights(weights, letters, eps)
                report = solve(instance)
                assert report.mode == "main"
                self.assert_rewraps(report.code)

    def test_tiny_path_codes_are_canonical(self):
        # every candidate code that _tiny_pool builds, and solve's above n = 512
        rng = random.Random(2121)
        for n, others in ((20, [1, 2]), (100, [1, 3, 3]), (300, [1, 2, 5]), (700, [1, 4]), (1024, [1, 1, 2])):
            eps = F(1, rng.randint(1, 5))
            letters = LetterCosts([eps / (4 * n)] + others)
            weights = [10**6 // (i + 1) + rng.randint(0, 3) for i in range(n)]
            instance, _ = Instance.from_weights(weights, letters, eps)
            if n <= 300:
                c2 = letters.costs_int[1]
                for i0 in tiny_run_length_candidates(instance):
                    _, words, costs = tiny_candidate_code(instance, i0)
                    again = CodeAssignment(words, letters)
                    assert [F(c, c2) for c in again.costs_int()] == costs
            else:
                report = solve(instance)
                assert report.mode == "tiny"
                self.assert_rewraps(report.code)

    def test_exact_optimal_codes_are_canonical(self):
        rng = random.Random(2222)
        for costs in ([1, 1], [1, 2], [1, 3], [2, 3, 4], [1, 1, 2], [F(1, 8), 1]):
            for _ in range(3):
                weights = [rng.randint(1, 100) for _ in range(rng.randint(2, 10))]
                instance, _ = Instance.from_weights(weights, LetterCosts(costs), F(1))
                self.assert_rewraps(exact_optimal(instance).optimal_code)


class TestCodeCost:
    def test_figure_binary(self):
        instance, _ = Instance.from_weights([2, 2, 1, 1], LetterCosts([1, 1]), F(1, 4))
        code = CodeAssignment(tuple(runs_from_str(w) for w in ["aa", "ab", "ba", "bb"]), instance.letters)
        assert code_cost(code, instance) * instance.weight_total == 12

    def test_figure_skewed(self):
        instance, _ = Instance.from_weights([2, 2, 1, 1], LetterCosts([1, 3]), F(1, 4))
        code = CodeAssignment(tuple(runs_from_str(w) for w in ["aaa", "b", "ab", "aab"]), instance.letters)
        assert code_cost(code, instance) * instance.weight_total == 21

    def test_single_word(self):
        instance = inst(ONE, [1, 2], F(1, 2))
        code = CodeAssignment((runs_from_str("a"),), instance.letters)
        assert code_cost(code, instance) == 1

    def test_size_mismatch(self):
        instance = inst([F(1, 2), F(1, 2)], [1, 2], F(1, 2))
        code = CodeAssignment((runs_from_str("a"),), instance.letters)
        with pytest.raises(InstanceError):
            code_cost(code, instance)


class TestReorder:
    def test_swap(self):
        letters = LetterCosts([1, 1])
        code = CodeAssignment((runs_from_str("aa"), runs_from_str("b")), letters)
        fixed = reorder(code)
        assert fixed.strings() == ["b", "aa"]
        assert fixed.ordered

    def test_figure_ordering(self):
        instance, _ = Instance.from_weights([2, 2, 1, 1], LetterCosts([1, 3]), F(1, 4))
        code = CodeAssignment(
            tuple(runs_from_str(w) for w in ["b", "ab", "aab", "aaa"]), instance.letters
        )
        fixed = reorder(code)
        # costs 3,3,4,5: the two cost-3 words go to the two heaviest words
        assert code_cost(fixed, instance) * instance.weight_total == 21
        assert [str(codeword_cost(c, instance.letters)) for c in fixed.codewords] == ["3", "3", "4", "5"]

    def test_idempotent_on_ordered(self):
        letters = LetterCosts([1, 2])
        code = CodeAssignment((runs_from_str("a"), runs_from_str("b")), letters)
        assert reorder(code).codewords == code.codewords

    def test_never_increases_cost(self):
        rng = random.Random(31)
        letters = LetterCosts([1, 2])
        base = ["a", "ba", "bb", "ab"]
        for _ in range(30):
            shuffled = base[:]
            rng.shuffle(shuffled)
            probs = sorted((F(rng.randint(1, 9), 20) for _ in range(4)), reverse=True)
            total = sum(probs)
            instance = Instance(tuple(p / total for p in probs), letters, F(1, 2))
            code = CodeAssignment(tuple(runs_from_str(w) for w in shuffled), letters)
            assert code_cost(reorder(code), instance) <= code_cost(code, instance)

    def test_stable_ties(self):
        letters = LetterCosts([1, 1])
        code = CodeAssignment((runs_from_str("aa"), runs_from_str("ab")), letters)
        assert reorder(code).strings() == ["aa", "ab"]


class TestIntegerViews:
    @staticmethod
    def random_runs(rng, r):
        runs, prev = [], None
        for _ in range(rng.randint(0, 5)):
            let = rng.choice([x for x in range(r) if x != prev])
            runs.append((let, rng.choice([1, 1, 2, 3, 40])))
            prev = let
        return tuple(runs)

    def test_views_scale_the_fractions(self):
        letters = LetterCosts([F(1, 3), 1, F(5, 2)])
        assert (letters.scale, letters.costs_int) == (6, (2, 6, 15))
        instance, _ = Instance.from_weights([F("0.5"), 2, F(3, 4)], letters, F(1))
        assert instance.scale == 13
        assert instance.weights_int == (8, 3, 2)
        assert [F(w, instance.scale) for w in instance.weights_int] == list(instance.probabilities)

    def test_matches_fraction_reference(self):
        rng = random.Random(4242)
        for _ in range(150):
            r = rng.randint(2, 4)
            costs = sorted(F(rng.randint(1, 30), rng.randint(1, 12)) for _ in range(r))
            letters = LetterCosts(costs)
            n = rng.randint(1, 12)
            words = set()
            while len(words) < n:
                words.add(self.random_runs(rng, r))
            words = tuple(words)
            weights = [F(rng.randint(1, 50), rng.randint(1, 6)) for _ in range(n)]
            instance, _ = Instance.from_weights(weights, letters, F(1, 2))
            code = CodeAssignment(words, letters)
            ref = [fraction_codeword_cost(w, costs) for w in words]
            assert [codeword_cost(w, letters) for w in words] == ref
            assert code.costs() == ref
            fixed = reorder(code)
            assert fixed.codewords == fraction_reorder(words, costs)
            assert fixed.costs() == sorted(ref)
            assert code_cost(code, instance) == fraction_code_cost(
                words, costs, instance.probabilities
            )

    def test_instance_checks_run_on_the_integer_weights(self):
        letters = LetterCosts([1, 2])
        with pytest.raises(InstanceError, match="sum to 1"):
            Instance((F(1, 2), F(1, 3)), letters, F(1))
        with pytest.raises(InstanceError, match="nonincreasing"):
            Instance((F(1, 3), F(2, 3)), letters, F(1))
        with pytest.raises(InstanceError, match="positive"):
            Instance((F(3, 2), F(-1, 2)), letters, F(1))
        with pytest.raises(InstanceError, match="at least one word"):
            Instance((), letters, F(1))
        for eps in (F(0), F(3, 2)):
            with pytest.raises(InstanceError, match="epsilon"):
                Instance((F(1),), letters, eps)

    @pytest.mark.parametrize(
        "costs, message",
        [
            ([1], "at least 2 letters"),
            ([0, 1], "strictly positive"),
            ([2, 1], "sorted nondecreasing"),
        ],
    )
    def test_letter_costs_checks(self, costs, message):
        with pytest.raises(InstanceError, match=message):
            LetterCosts(costs)

    def test_from_weights_checks(self):
        letters = LetterCosts([1, 2])
        for weights in ([2, 0], [3, -1], [F(1, 2), F(-1, 3)]):
            with pytest.raises(InstanceError, match="weights must be strictly positive"):
                Instance.from_weights(weights, letters, F(1))
        with pytest.raises(InstanceError, match="at least one word"):
            Instance.from_weights([], letters, F(1))
        for eps in (F(0), F(3, 2)):
            with pytest.raises(InstanceError, match="epsilon"):
                Instance.from_weights([2, 1], letters, eps)

    def test_both_constructors_match_fraction_reference(self):
        rng = random.Random(9090)
        letters = LetterCosts([1, 2])
        cases = [
            [4, 2, 2],  # common factor: scale 4, weights (2, 1, 1)
            [1],
            [7, 7, 7],
            [3, 1, 2],
            [F("0.5"), F("0.25"), F("1.75")],
            [F(1, 3), F(1, 6), F(2, 9)],
            [F(3, 2), 6, F(9, 4)],
        ]
        for _ in range(40):
            factor = rng.choice([1, 2, 6, 1000])
            n = rng.randint(1, 12)
            cases.append([factor * rng.randint(1, 30) for _ in range(n)])
            cases.append([F("%d.%03d" % (rng.randint(0, 5), rng.randint(1, 999))) for _ in range(n)])
            cases.append([F(rng.randint(1, 40), rng.randint(1, 9)) for _ in range(n)])
        for weights in cases:
            ws, scale, probs = fraction_instance_words(weights)
            loaded, order = Instance.from_weights(weights, letters, F(1, 2))
            made = Instance(probs, letters, F(1, 2), loaded.weight_total)
            for instance in (loaded, made):
                assert (instance.weights_int, instance.scale) == (ws, scale), weights
                assert instance.probabilities == probs
            assert loaded == made
            assert repr(loaded) == repr(made)
            assert [F(weights[i]) for i in order] == sorted(map(F, weights), reverse=True)
        loaded, _ = Instance.from_weights([4, 2, 2], letters, F(1, 2))
        assert (loaded.weights_int, loaded.scale, loaded.weight_total) == ((2, 1, 1), 4, 8)
        assert repr(loaded) == (
            "Instance(weights_int=(2, 1, 1), scale=4, "
            "letters=LetterCosts(costs=(Fraction(1, 1), Fraction(2, 1))), "
            "epsilon=Fraction(1, 2), weight_total=Fraction(8, 1))"
        )


class TestRuns:
    def test_roundtrip(self):
        for s in ["a", "aab", "abba", "bbbb"]:
            assert runs_to_str(runs_from_str(s)) == s
