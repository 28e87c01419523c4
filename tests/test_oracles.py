import hashlib
import random
from fractions import Fraction as F

import pytest

from lettercost import (
    BudgetExceeded,
    Instance,
    InstanceError,
    LetterCosts,
    exact_optimal,
    is_prefix_free,
    lower_bound,
)
from lettercost import oracles

from helpers import climb_exact_optimal, exact_optimal_reference, huffman_cost, random_instance


class TestExactOptimal:
    def test_figure_binary(self):
        inst, _ = Instance.from_weights([2, 2, 1, 1], LetterCosts([1, 1]), F(1, 4))
        res = exact_optimal(inst)
        assert res.optimal_cost == 12

    def test_figure_skewed(self):
        inst, _ = Instance.from_weights([2, 2, 1, 1], LetterCosts([1, 3]), F(1, 4))
        res = exact_optimal(inst)
        assert res.optimal_cost == 21
        assert sorted(res.optimal_code.strings()) == ["aaa", "aab", "ab", "b"]

    def test_single_word(self):
        inst = Instance((F(1),), LetterCosts([F(1, 2), 1]), F(1, 2))
        res = exact_optimal(inst)
        assert res.optimal_cost == F(1, 2)
        assert res.optimal_code.strings() == ["a"]

    def test_too_large(self):
        probs = tuple([F(1, 12)] * 12)
        with pytest.raises(InstanceError):
            exact_optimal(Instance(probs, LetterCosts([1, 1]), F(1, 2)))

    def test_budget_counts_settled_states(self):
        # four equal words over 1/10^6 1 settle 750,012 states at the default
        # budget; a small budget stops the search at the first state past it
        inst, _ = Instance.from_weights([1] * 4, LetterCosts([F(1, 10**6), 1]), F(1, 2))
        with pytest.raises(BudgetExceeded) as err:
            exact_optimal(inst, budget=1000)
        assert (err.value.explored, err.value.budget) == (1001, 1000)
        assert str(err.value) == "exact oracle exceeded budget (1001 states settled, budget 1000)"
        # a budget of exactly the states an instance settles is enough
        small, _ = Instance.from_weights([2, 2, 1, 1], LetterCosts([1, 3]), F(1, 4))
        settled = exact_optimal(small).nodes_explored
        assert exact_optimal(small, budget=settled).optimal_cost == 21
        with pytest.raises(BudgetExceeded):
            exact_optimal(small, budget=settled - 1)

    def test_signature_bound(self, monkeypatch):
        # past MAX_ORACLE_SIGNATURES records the search stops, whatever the
        # state budget; four equal words over 1/10^5 1 keep far more than 1,000
        monkeypatch.setattr(oracles, "MAX_ORACLE_SIGNATURES", 1000)
        inst, _ = Instance.from_weights([1] * 4, LetterCosts([F(1, 10**5), 1]), F(1, 2))
        with pytest.raises(BudgetExceeded) as err:
            exact_optimal(inst)
        assert (err.value.explored, err.value.budget) == (998, oracles.DEFAULT_BUDGET)
        assert str(err.value) == (
            "exact oracle kept 1001 signatures, over its bound of 1000 (998 states settled)"
        )
        # an instance that keeps fewer records is solved as before
        small, _ = Instance.from_weights([2, 2, 1, 1], LetterCosts([1, 3]), F(1, 4))
        assert exact_optimal(small).optimal_cost == 21

    def test_output_well_formed(self):
        rng = random.Random(101)
        for _ in range(20):
            inst = random_instance(rng, max_n=6)
            res = exact_optimal(inst)
            assert is_prefix_free(res.optimal_code.codewords)
            assert res.optimal_code.ordered
            assert res.normalized_cost >= lower_bound(inst)

    def test_invariant_under_equal_probability_permutation(self):
        letters = LetterCosts([1, 2])
        a = Instance((F(1, 3),) * 3, letters, F(1, 2))
        cost = exact_optimal(a).optimal_cost
        # permuting equal probabilities changes nothing observable
        assert exact_optimal(a).optimal_cost == cost

    def test_monotone_in_extra_word(self):
        rng = random.Random(102)
        for _ in range(10):
            n = rng.randint(2, 5)
            weights = sorted((rng.randint(2, 9) for _ in range(n)), reverse=True)
            letters = LetterCosts([1, rng.randint(1, 3)])
            base, _ = Instance.from_weights(weights, letters, F(1, 2))
            bigger, _ = Instance.from_weights(weights + [F(1, 1000)], letters, F(1, 2))
            # adding a nearly weightless word never lowers the optimal cost
            assert exact_optimal(bigger).optimal_cost >= exact_optimal(base).optimal_cost


class TestAgainstReference:
    """The signature search against the branch-and-bound reference."""

    FAMILIES = (
        [1, 2],
        [1, 3],
        [2, 3, 4],
        [1, 1, 2],
        [1, 1],
        [3, 3, 3],
        [F(1, 3), 1, F(5, 2)],
    )

    @staticmethod
    def check_code(inst, res):
        """An ordered prefix code of n words whose weighted codeword costs
        sum to optimal_cost."""
        code = res.optimal_code
        assert code.n == inst.n
        assert is_prefix_free(code.codewords)
        assert code.ordered
        weighted = sum(p * c for p, c in zip(inst.probabilities, code.costs()))
        assert weighted * inst.weight_total == res.optimal_cost

    @staticmethod
    def corpus():
        rng = random.Random(20120)
        for n in range(1, 9):
            for costs in TestAgainstReference.FAMILIES:
                weights = [rng.randint(1, 60) for _ in range(n)]
                yield Instance.from_weights(weights, LetterCosts(costs), F(1, 2))[0]
            # tiny cheapest letters, with and without a third letter
            for extra in ([], [2]):
                tiny = LetterCosts([F(1, rng.randint(2 * n, 16 * n)), 1] + extra)
                weights = [rng.randint(1, 9) for _ in range(n)]
                yield Instance.from_weights(weights, tiny, F(1, 2))[0]

    def test_matches_branch_and_bound(self):
        checked = 0
        for inst in self.corpus():
            res = exact_optimal(inst)
            ref = exact_optimal_reference(inst)
            assert res.optimal_cost == ref.optimal_cost, (inst.letters.costs, inst.weights_int)
            self.check_code(inst, res)
            checked += 1
        assert checked == 8 * (len(self.FAMILIES) + 2)

    def test_tiny_letter_reach(self):
        # letters shaped like (1, 137, 137, 411); here (1, 159, 159, 477),
        # where the branch-and-bound tries 9.6M candidates and the signature
        # search settles 200 states
        rng = random.Random(20121)
        n = 10
        tiny = LetterCosts([F(1, rng.randint(10 * n, 16 * n)), 1, 1, 3])
        weights = [rng.randint(1, 60) for _ in range(n)]
        inst, _ = Instance.from_weights(weights, tiny, F(1, 2))
        res = exact_optimal(inst)
        assert res.nodes_explored <= 5000
        self.check_code(inst, res)
        assert res.normalized_cost >= lower_bound(inst)


class TestAgainstPerMoveWalk:
    def test_merged_walk_matches_per_move_walk(self, monkeypatch):
        # one merged walk per settled signature derives the moves that a
        # sorted dict per move gave, so the states, their pushes and their
        # order stay the same: the same nodes_explored, code and cost
        monkeypatch.setattr(oracles, "MAX_ORACLE_WORDS", 12)
        rng = random.Random(20130)
        settled = 0
        for _ in range(300):
            inst = random_instance(rng, max_n=12, max_r=4, max_cost=5)
            res, ref = exact_optimal(inst), climb_exact_optimal(inst)
            where = (inst.letters.costs, inst.weights_int)
            assert res.nodes_explored == ref.nodes_explored, where
            assert res.optimal_code == ref.optimal_code, where
            assert res.optimal_cost == ref.optimal_cost, where
            settled += res.nodes_explored
        assert settled > 10_000


class TestHuffman:
    """exact_optimal where every letter costs the same, so the optimum is the
    classical Huffman code's cost."""

    def test_figure_binary(self):
        inst, _ = Instance.from_weights([2, 2, 1, 1], LetterCosts([1, 1]), F(1, 4))
        res = exact_optimal(inst)
        assert res.optimal_cost == 12

    def test_two_even_words(self):
        inst = Instance((F(1, 2), F(1, 2)), LetterCosts([1, 1]), F(1, 2))
        assert exact_optimal(inst).optimal_cost == 1

    def test_four_letters_four_words(self):
        inst = Instance((F(1, 4),) * 4, LetterCosts([1, 1, 1, 1]), F(1, 2))
        res = exact_optimal(inst)
        assert res.optimal_cost == 1
        assert sorted(res.optimal_code.strings()) == ["a", "b", "c", "d"]

    def test_matches_exact_on_random_equal_cost_instances(self):
        rng = random.Random(104)
        for _ in range(20):
            n = rng.randint(1, 8)
            r = rng.randint(2, 3)
            c = rng.randint(1, 3)
            weights = [rng.randint(1, 9) for _ in range(n)]
            inst, _ = Instance.from_weights(weights, LetterCosts([c] * r), F(1, 2))
            e = exact_optimal(inst)
            assert e.optimal_cost == huffman_cost(inst), (weights, r, c)
            assert is_prefix_free(e.optimal_code.codewords)
            assert e.optimal_code.ordered


class TestLowerBound:
    def test_simple(self):
        inst = Instance((F(1, 2), F(1, 4), F(1, 4)), LetterCosts([1, 1]), F(1, 2))
        assert lower_bound(inst) == F(1, 2)

    def test_degenerate(self):
        inst = Instance((F(1),), LetterCosts([1, 1]), F(1, 2))
        assert lower_bound(inst) == 0

    def test_figure_reference(self):
        inst, _ = Instance.from_weights([2, 2, 1, 1], LetterCosts([1, 3]), F(1, 4))
        lb = lower_bound(inst)
        assert lb == F(2, 3)
        res = exact_optimal(inst)
        assert res.normalized_cost >= lb


class TestGoldenOutput:
    # sha256 over (optimal_cost, codewords, nodes_explored) of every call
    # below; it pins the signature search's tie-breaking, its replay on
    # strings and its count of settled states, which the cost-only checks
    # above do not
    EXACT_DIGEST = "aa34654344bd4868e024195b60620470ba2049d3dfecebde7981bb73200e98ae"
    # sha256 over optimal_cost alone of every exact_corpus call, as the
    # branch-and-bound oracle gave it: any exact method must reproduce it
    EXACT_COST_DIGEST = "7a4426e94861e7a932ec2b2de539f9446ce2f7b8c24df640e9f5d975746495a4"

    @staticmethod
    def exact_corpus():
        rng = random.Random(20050)
        # the verify alphabets at n 6-8
        for alphabet in ([1, 2], [1, 3], [2, 3, 4], [1, 1, 2]):
            for n in (6, 7, 8):
                weights = [rng.randint(1, 60) for _ in range(n)]
                yield Instance.from_weights(weights, LetterCosts(alphabet), F(1, 2))[0]
        # rational letter costs, fractional weights
        rational = LetterCosts([F(1, 3), 1, F(5, 2)])
        for n in (6, 7):
            weights = [F(rng.randint(1, 30), rng.randint(1, 7)) for _ in range(n - 1)] + [F(1, 1000)]
            yield Instance.from_weights(weights, rational, F(1, 2))[0]
        # tiny cheapest letter, shaped like acceptance criterion 7
        for n, extra in ((7, []), (8, [2])):
            tiny = LetterCosts([F(1, rng.randint(2 * n, 16 * n)), 1] + extra)
            weights = [rng.randint(1, 9) for _ in range(n)]
            yield Instance.from_weights(weights, tiny, F(1, 2))[0]

    @staticmethod
    def fingerprint(digest, res):
        digest.update(
            repr((res.optimal_cost, res.optimal_code.codewords, res.nodes_explored)).encode()
        )

    def test_exact_optimal_reproduces_recorded_outputs(self):
        digest = hashlib.sha256()
        for inst in self.exact_corpus():
            self.fingerprint(digest, exact_optimal(inst))
        assert digest.hexdigest() == self.EXACT_DIGEST

    def test_exact_optimal_reproduces_recorded_costs(self):
        digest = hashlib.sha256()
        for inst in self.exact_corpus():
            digest.update(repr(exact_optimal(inst).optimal_cost).encode())
        assert digest.hexdigest() == self.EXACT_COST_DIGEST
