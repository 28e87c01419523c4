import random
from fractions import Fraction as F

import pytest

from lettercost import (
    Instance,
    InstanceError,
    LetterCosts,
    build_cost_graph,
    normalize,
)
from lettercost.core import runs_from_str
from lettercost.cost_graph import CostGraph

from helpers import blocker_pairs, count_free_brute, random_instance

FOUR = (F(1, 4),) * 4  # enough words to stay out of the tiny-letter regime


def norm_for(costs, eps):
    return normalize(Instance(FOUR, LetterCosts(costs), F(eps)))


class TestBuild:
    def test_binary_unit(self):
        norm = norm_for([1, 1], 1)
        graph = build_cost_graph(norm, F(3))
        assert [c * graph.quantum for c in graph.nodes_q] == [0, 1, 2, 3]
        assert graph.distinct_q == ((1, 2),)  # one arc kind, multiplicity 2
        assert graph.level_count == 2

    def test_raw_one_two(self):
        # costs (1,2) without forcing the second letter to 1
        graph = CostGraph(((1, 1), (2, 1)), unit_q=1, eps_q=1, k_q=4, quantum=F(1))
        assert [c for c in graph.nodes_q] == [0, 1, 2, 3, 4]
        assert graph.counts[:5] == [1, 1, 2, 3, 5]

    def test_half_unit(self):
        norm = norm_for([F(1, 2), 1], F(1, 2))
        graph = build_cost_graph(norm, F(2))
        assert [c * graph.quantum for c in graph.nodes_q] == [0, F(1, 2), 1, F(3, 2), 2]
        assert [graph.level_of(c) for c in graph.nodes_q] == [0, 0, 1, 2, None]
        assert graph.level_target(1) == 2  # cost 1 = 1 + eps - min(l1, eps)

    def test_rejects_tiny_cheap_letter(self):
        probs = tuple([F(1, 10)] * 10)
        norm = normalize(Instance(probs, LetterCosts([F(1, 100), 1]), F(1, 2)))
        with pytest.raises(InstanceError):
            build_cost_graph(norm, F(3))

    def test_rejects_misaligned_k(self):
        norm = norm_for([1, 1], 1)
        with pytest.raises(InstanceError):
            build_cost_graph(norm, F(5, 2))

    def test_size_bounds_random(self):
        rng = random.Random(41)
        checked = 0
        while checked < 20:
            inst = random_instance(rng)
            if inst.n < 2:
                continue
            norm = normalize(inst)
            if norm.instance.letters.costs[0] * norm.n <= norm.epsilon_prime:
                continue
            k = 1 + rng.randint(1, 8) * norm.epsilon_prime
            graph = build_cost_graph(norm, k)
            assert graph.node_count <= norm.n * k / norm.epsilon_prime
            assert graph.arc_count <= len(norm.distinct_q) * graph.node_count
            checked += 1


class TestFreeStrings:
    """CostGraph.free, with the codeword set S given as (cost_q, how_many)
    blocker pairs built from its members' costs."""

    def test_fibonacci_counts(self):
        graph = CostGraph(((1, 1), (2, 1)), unit_q=1, eps_q=1, k_q=4, quantum=F(1))
        assert [graph.free(c, []) for c in range(5)] == [1, 1, 2, 3, 5]

    def test_blocked_by_single_letter(self):
        norm = norm_for([1, 1], 1)
        graph = build_cost_graph(norm, F(3))
        blockers = blocker_pairs([runs_from_str("a")], norm.letters_q)
        assert graph.free(1, blockers) == 1
        assert graph.free(2, blockers) == 2

    def test_powers_of_two(self):
        norm = norm_for([1, 1], 1)
        graph = build_cost_graph(norm, F(5))
        assert [graph.free(c, []) for c in range(6)] == [2**c for c in range(6)]

    def test_matches_bruteforce_random(self):
        rng = random.Random(42)
        for _ in range(25):
            costs = sorted(rng.choice([F(1, 2), 1, 2]) for _ in range(2))
            if costs[1] != 1:
                costs = [c / costs[1] for c in costs]
            eps = rng.choice([F(1, 2), F(1)])
            norm = norm_for(costs, eps)
            k = 1 + rng.randint(1, 4) * norm.epsilon_prime
            graph = CostGraph(
                norm.distinct_q,
                norm.unit_q,
                norm.eps_q,
                int(k / norm.cost_quantum),
                norm.cost_quantum,
            )
            # block a random prefix-free set of short strings
            blocked = []
            for cand in [(0,), (0, 0), (1,), (1, 0), (0, 1)]:
                cost_q = sum(norm.letters_q[let] for let in cand)
                if cost_q <= graph.k_q and rng.random() < 0.4:
                    if not any(
                        cand[: len(b)] == b or b[: len(cand)] == cand for b in blocked
                    ):
                        blocked.append(cand)
            blockers = blocker_pairs(
                [tuple((let, 1) for let in b) for b in blocked], norm.letters_q
            )
            scaled_costs = norm.instance.letters.costs
            for c in range(graph.k_q + 1):
                expected = count_free_brute(
                    scaled_costs, blocked, c * norm.cost_quantum
                )
                if c == 0:
                    expected = 1  # the empty string, which brute force skips
                assert graph.free(c, blockers) == expected, (costs, blocked, c)


class TestExtendBeyondK:
    """The tail walk past k, CostGraph.tail, with S given as blocker pairs."""

    def graph(self, k):
        return build_cost_graph(norm_for([1, 1], 1), F(k))

    def test_shortfall_when_everything_blocked(self):
        graph = self.graph(3)
        steps = []
        # a, ba and bb: every string of cost >= 3 has one of them as a prefix
        assert graph.tail(1, [(1, 1), (2, 2)], lambda: steps.append(1)) is None
        # no string of cost 3 is free; one zero from k on, as many as the
        # largest letter cost, makes every later count zero
        assert len(steps) == 1

    def test_two_cheapest(self):
        graph = self.graph(2)
        assert graph.tail(2, [(1, 1)]) == [(2, 2)]  # ba and bb, both of cost 2

    def test_zero_request(self):
        graph = self.graph(2)
        steps = []
        assert graph.tail(0, [], lambda: steps.append(1)) == []
        assert steps == []

    def test_spans_multiple_costs(self):
        graph = self.graph(2)
        steps = []
        assert graph.tail(6, [], lambda: steps.append(1)) == [(2, 4), (3, 2)]
        assert len(steps) == 2
