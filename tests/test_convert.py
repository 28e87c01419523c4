import math
import random
import tracemalloc
from fractions import Fraction as F

import pytest

from lettercost import (
    Guess,
    Instance,
    InstanceError,
    LetterCosts,
    LeveledCode,
    build_cost_graph,
    choose_k,
    construct_leveled,
    convert_to_prefix,
    enc,
    is_prefix_free,
    normalize,
)
from lettercost.core import runs_from_letters, runs_to_str

from bench import _filled_guess, _uniform_instance
from helpers import convert_reference, leveled_setup, materialize_reference, solved_leveled_code


class TestEnc:
    def test_zero(self):
        assert runs_to_str(enc(0)) == "ab"

    def test_one(self):
        assert runs_to_str(enc(1)) == "bbab"

    def test_two(self):
        assert runs_to_str(enc(2)) == "bbaaab"

    def test_doubled_digits(self):
        for i in range(1, 40):
            s = runs_to_str(enc(i))
            assert s.endswith("ab")
            body = s[:-2]
            assert len(body) % 2 == 0
            assert all(body[j] == body[j + 1] for j in range(0, len(body), 2))
            bits = "".join("1" if body[j] == "b" else "0" for j in range(0, len(body), 2))
            assert int(bits, 2) == i

    def test_length(self):
        for i in range(1, 40):
            assert sum(r for _, r in enc(i)) == 2 * math.floor(math.log2(i)) + 4

    def test_negative(self):
        with pytest.raises(InstanceError):
            enc(-1)


class TestWorkedConversions:
    def convert_one(self, word, k):
        # the all-tail code over letters a and b of cost 1 holds the cheapest
        # strings of cost >= k in letter order: at k = 2, aa ab ba bb aaa aab
        norm, graph = leveled_setup([1, 1], 1, k, 6)
        code = construct_leveled(norm, graph, Guess(0, ()), 6)
        converted = convert_to_prefix(code, k).strings()
        return dict(zip(map(runs_to_str, code.codewords), converted))[word]

    def test_split_with_suffix(self):
        assert self.convert_one("aab", 2) == "aabbabbb"

    def test_empty_suffix(self):
        assert self.convert_one("aa", 2) == "aaabb"

    def test_untouched_below_k(self):
        # every codeword of this leveled code costs less than k = 3
        norm, graph = leveled_setup([1, 1], 1, 3, 4)
        code = construct_leveled(norm, graph, Guess(0, ((1, 1), (2, 2))), 3)
        assert convert_to_prefix(code, 3).strings() == ["a", "ba", "bb"]

    def test_rejects_small_k(self):
        norm, graph = leveled_setup([1, 1], 1, 3, 4)
        code = construct_leveled(norm, graph, Guess(0, ()), 2)
        with pytest.raises(InstanceError):
            convert_to_prefix(code, F(1, 2))

    def test_rejects_k_other_than_the_horizon(self):
        # the code is k-prefix free at the horizon its cost graph was built
        # at, and its tail starts there; any other k is refused
        norm, graph = leveled_setup([F(1, 2), 1], F(1, 2), F(5, 2), 4)
        code = construct_leveled(norm, graph, Guess(0, ((1, 1),)), 4)
        assert isinstance(code, LeveledCode)
        for k in (2, 3, F(9, 4), F(5, 2) + norm.cost_quantum):
            with pytest.raises(InstanceError, match="horizon"):
                convert_to_prefix(code, k)
        assert is_prefix_free(convert_to_prefix(code, F(5, 2)).codewords)

    def test_never_sees_picks_out_of_cost_order(self):
        # hand-made picks that once reached the conversion: aaaaaa, aa, aba,
        # with aa a prefix of aaaaaa, came out unchanged; two tail picks of
        # one cost gave one codeword twice; a pick of cost 0 gave a codeword
        # of cost k. The code itself now refuses them
        inst, _ = Instance.from_weights([5, 4, 3], LetterCosts([1, 2]), F(1, 2))
        norm = normalize(inst)
        k = choose_k(norm.epsilon_prime)
        graph = build_cost_graph(norm, k)
        assert graph.k_q == 25
        for picks in (
            [(6, 1), (2, 1), (4, 1)],
            [(25, 1), (25, 1), (26, 1)],
            [(0, 1), (25, 2)],
            [(2, -1), (4, 4)],
        ):
            with pytest.raises(InstanceError, match="rising positive costs"):
                convert_to_prefix(LeveledCode(norm, graph, picks), k)
        # the same picks in cost order make a prefix code
        code = LeveledCode(norm, graph, [(2, 1), (4, 1), (6, 1)])
        assert [runs_to_str(w) for w in code.codewords] == ["aa", "aba", "abba"]
        assert is_prefix_free(convert_to_prefix(code, k).codewords)


def random_kprefix_codes(rng, count):
    """Yield (LeveledCode, k, norm) built from random instances and guesses."""
    produced = 0
    while produced < count:
        costs = rng.choice([[1, 1], [1, 2], [1, 3], [F(1, 2), 1], [1, 1, 2]])
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
            lvl = rng.randint(1, max(1, graph.level_count))
            counts[lvl] = counts.get(lvl, 0) + rng.randint(1, 2)
        guess = Guess(0, tuple(sorted(counts.items())))
        try:
            code = construct_leveled(norm, graph, guess, n)
        except InstanceError:
            continue
        produced += 1
        yield code, k, norm


class TestConversionGuarantees:
    def test_random_corpus(self):
        rng = random.Random(61)
        for code, k, norm in random_kprefix_codes(rng, 80):
            letters = norm.instance.letters
            out = convert_to_prefix(code, k)
            assert is_prefix_free(out.codewords)
            in_costs = [cq * norm.cost_quantum for cq in code.word_costs_q]
            out_costs = out.costs()
            total_in = sum(in_costs)
            total_out = sum(out_costs)
            bound = 1 + (5 + 2 * math.log2(float(k))) / float(k)
            assert float(total_out / total_in) <= bound + 1e-12
            for ci, co in zip(in_costs, out_costs):
                if co == ci:
                    continue
                assert ci >= k
                per_word = ci + 5 + 2 * math.log2(float(ci))
                assert float(co) <= per_word + 1e-12

    def test_matches_letter_level_splice(self):
        # the one-pass run splice equals alpha + enc(i) + beta + b spelled out
        # letter by letter, with canonical runs
        rng = random.Random(67)
        rewritten = 0
        for code, k, norm in random_kprefix_codes(rng, 80):
            letters = norm.instance.letters
            expected = []
            for runs in code.codewords:
                spelled = [let for let, rep in runs for _ in range(rep)]
                cost, cut = F(0), 0
                while cut < len(spelled) and cost < k:
                    cost += letters.costs[spelled[cut]]
                    cut += 1
                if cost < k:
                    expected.append(runs)
                    continue
                beta = spelled[cut:]
                block = [let for let, rep in enc(beta.count(1)) for _ in range(rep)]
                expected.append(runs_from_letters(spelled[:cut] + block + beta + [1]))
                rewritten += 1
            assert convert_to_prefix(code, k).codewords == tuple(expected)
        assert rewritten > 200


def horizon_code(costs, eps, n, guess_for):
    """The leveled code of n equally likely words at choose_k's horizon, for
    the guess guess_for(norm, graph, n)."""
    norm = normalize(_uniform_instance(n, costs, eps))
    graph = build_cost_graph(norm, choose_k(norm.epsilon_prime))
    code = construct_leveled(norm, graph, guess_for(norm, graph, n), n)
    assert isinstance(code, LeveledCode)
    return code


def all_tail(norm, graph, n):
    return Guess(0, ())


class TestAgainstReference:
    # codes with thousands of tail codewords, whose picks share suffix tables
    # and ask more of them pick after pick

    def check(self, code):
        assert code.codewords == materialize_reference(code)
        assert convert_to_prefix(code, code.graph.k).codewords == convert_reference(code)

    def test_solve_codes(self, monkeypatch):
        for costs in ([1, 2], [1, 1, 2]):
            for n in (1024, 2048):
                zipf = [10**6 // (i + 1) + 1 for i in range(n)]
                instance, _ = Instance.from_weights(zipf, LetterCosts(costs), 1)
                self.check(solved_leveled_code(monkeypatch, instance))

    def test_all_tail_codes(self):
        # at eps 1/4 every tail string costs k; at eps 1 the tails span
        # several costs, and on 1 2 and 1 1 2 alphas of two costs share tables
        shared = 0
        for costs, eps in (
            ([1, 1], F(1, 4)),
            ([1, 2], F(1, 4)),
            ([1, 3], F(1, 4)),
            ([2, 3, 4], F(1, 4)),
            ([F(1, 8), 1], F(1, 2)),
            ([1, 1], 1),
            ([1, 2], 1),
            ([1, 3], 1),
            ([1, 1, 2], 1),
        ):
            code = horizon_code(costs, eps, 4096, all_tail)
            self.check(code)
            alpha_costs = {}
            for alpha, rest, _ in code._parts()[1]:
                cost_q = sum(code.norm.letters_q[let] * rep for let, rep in alpha)
                alpha_costs.setdefault(rest, set()).add(cost_q)
            shared += sum(len(costs_q) > 1 for costs_q in alpha_costs.values())
        assert shared > 0

    def test_level_heavy_codes(self):
        for costs, eps in (([F(1, 8), 1], F(1, 2)), ([2, 3, 4], F(1, 4)), ([1, 2], F(1, 4))):
            code = horizon_code(costs, eps, 1024, _filled_guess)
            assert any(cost_q < code.graph.k_q for cost_q, _ in code.picks)
            self.check(code)


def test_memory_is_bounded_by_the_codewords():
    # suffix tables hold only the strings the picks took; a walk of every
    # tail string down to its last letter peaks at ~5.3 MB here
    n = 16384
    norm = normalize(_uniform_instance(n, [1, 1], 1))
    k = choose_k(norm.epsilon_prime)
    graph = build_cost_graph(norm, k)
    # a first pass fills the interpreter's free lists, so the peak below does
    # not depend on which tests ran before
    convert_to_prefix(construct_leveled(norm, graph, Guess(0, ()), n), k)
    code = construct_leveled(norm, graph, Guess(0, ()), n)
    tracemalloc.start()
    try:
        converted = convert_to_prefix(code, k)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(converted.codewords) == n
    assert peak < 4 * 2**20, peak
