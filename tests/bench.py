"""Doubling-ladder harnesses for the runtime scaling checks.

Operation counts, not wall time, so the checks are stable on any machine:
construction counts the levels it checks and the costs its tail walk
visits, conversion counts run segments touched. Both should grow at most
~2x per doubling of n.
"""

from __future__ import annotations

import time
from fractions import Fraction

from lettercost import (
    Guess,
    Instance,
    LetterCosts,
    LeveledCode,
    build_cost_graph,
    choose_k,
    construct_leveled,
    convert_to_prefix,
    normalize,
)
from lettercost.kprefix import OpCounter


def _uniform_instance(n: int, costs, epsilon) -> Instance:
    probs = [Fraction(1, n)] * n
    return Instance(tuple(probs), LetterCosts(costs), Fraction(epsilon))


def _filled_guess(norm, graph, n: int) -> Guess:
    """Greedy level fill: place words at the cheapest levels up to capacity,
    leaving at least a quarter of them for the tail."""
    placed: list[tuple[int, int]] = []
    spent = 0
    budget_words = max(1, (3 * n) // 4)
    for lvl in range(1, graph.level_count + 1):
        target = graph.level_target(lvl)
        cap = graph.count(target)
        for t, cnt in placed:
            cap -= cnt * graph.count(target - t)
        # leave half of each level free so deeper levels keep exponential room
        take = min(cap // 2, budget_words - spent)
        if take > 0:
            placed.append((target, take))
            spent += take
        if spent >= budget_words:
            break
    return Guess(0, tuple((graph.level_of(t), c) for t, c in placed))


def kprefix_ladder(exponents=(10, 11, 12, 13, 14)) -> list[tuple[int, int, float]]:
    """(n, ops, seconds) for leveled-code construction at doubling n."""
    out = []
    for e in exponents:
        n = 2**e
        inst = _uniform_instance(n, [Fraction(1, 8), 1], Fraction(1, 2))
        norm = normalize(inst)
        k = choose_k(norm.epsilon_prime)
        graph = build_cost_graph(norm, k)
        guess = _filled_guess(norm, graph, n)
        ops = OpCounter()
        t0 = time.perf_counter()
        construct_leveled(norm, graph, guess, n, ops=ops)
        took = time.perf_counter() - t0
        out.append((n, ops.count, took))
    return out


def convert_ladder(exponents=(10, 11, 12, 13, 14)) -> list[tuple[int, int, float]]:
    """(n, ops, seconds) for k-prefix -> prefix conversion at doubling n.

    The input codes are tail-heavy so nearly every codeword is rewritten."""
    out = []
    for e in exponents:
        n = 2**e
        inst = _uniform_instance(n, [1, 1], Fraction(1))
        norm = normalize(inst)
        k = choose_k(norm.epsilon_prime)
        graph = build_cost_graph(norm, k)
        code = construct_leveled(norm, graph, Guess(0, ()), n)
        assert isinstance(code, LeveledCode)
        code.codewords  # materialize outside the timed region
        t0 = time.perf_counter()
        converted = convert_to_prefix(code, k)
        took = time.perf_counter() - t0
        ops = sum(len(r) for r in code.codewords) + sum(
            len(r) for r in converted.codewords
        )
        out.append((n, ops, took))
    return out


def growth_factors(results) -> list[float]:
    return [
        results[i + 1][1] / results[i][1] if results[i][1] else float("inf")
        for i in range(len(results) - 1)
    ]
