"""solve's set-up and finish in ints, against the Fraction formulas they
replaced, and a count of the Fractions one solve makes.

The random cases draw 2-6 letters from a small pool of int and fraction
costs, so costs repeat, and epsilon from 1 down to 1/30.
"""

import random
from fractions import Fraction as F

import pytest

from lettercost import (
    Instance,
    InstanceError,
    LetterCosts,
    build_cost_graph,
    choose_k,
    code_cost,
    driver,
    group_words,
    normalize,
    solve,
)
from lettercost.oracles import lower_bound

from helpers import (
    fraction_graph_refusals,
    fraction_group_ranges,
    fraction_level0_sizes,
    free_counts_recurrence,
)

COSTS = (1, 2, 3, 4, F(1, 2), F(3, 2), F(2, 3), F(5, 4), F(7, 3), F(1, 40))


def random_instance(rng, max_n=12):
    costs = sorted(rng.choice(COSTS) for _ in range(rng.randint(2, 6)))
    den = rng.randint(1, 30)
    weights = [rng.randint(1, 50) for _ in range(rng.randint(1, max_n))]
    inst, _ = Instance.from_weights(weights, LetterCosts(costs), F(rng.randint(1, den), den))
    return inst


def corpus(seed, count, max_n=12):
    rng = random.Random(seed)
    return [random_instance(rng, max_n) for _ in range(count)]


def test_normalized_letters_match_the_public_constructor():
    # normalize builds its letters unchecked, with scale unit_q and
    # costs_int letters_q; the constructor must agree on every field
    for inst in corpus(2801, 300):
        norm = normalize(inst)
        letters = norm.instance.letters
        public = LetterCosts([F(x, norm.unit_q) for x in norm.letters_q])
        assert (letters.costs, letters.scale, letters.costs_int) == (
            public.costs,
            public.scale,
            public.costs_int,
        )


def test_level0_sizes_and_groups_match_the_fraction_formulas():
    for inst in corpus(2802, 300):
        norm = normalize(inst)
        assert driver.level0_size_candidates(norm) == fraction_level0_sizes(norm)
        eps = norm.epsilon_prime
        for k in (choose_k(eps), 1 + eps, 1 + 7 * eps):
            assert group_words(norm, k).ranges == fraction_group_ranges(norm, k)


def test_graph_refusals_and_counts_match_the_fraction_formulas():
    rng = random.Random(2803)
    built = refused = 0
    for inst in corpus(2804, 300):
        norm = normalize(inst)
        eps = norm.epsilon_prime
        k = 1 + rng.randint(1, 4) * eps
        for k in (k, k + eps / rng.randint(2, 5), F(2)):
            misaligned, tiny = fraction_graph_refusals(norm, k)
            if misaligned or tiny:
                refused += 1
                reason = "k-1 must" if misaligned else "cheapest letter cost is at most"
                with pytest.raises(InstanceError, match=reason):
                    build_cost_graph(norm, k)
                continue
            built += 1
            graph = build_cost_graph(norm, k)
            # the table through k, then past it, against the per-letter loop
            end = graph.k_q + graph.max_letter_q + 3
            graph.count(end)
            assert graph.counts == free_counts_recurrence(graph.distinct_q, end, [])
    assert built > 100 and refused > 100


def test_report_fields_match_the_fraction_formulas():
    # the one integer tiny-letter test dispatches as the Fraction test did,
    # and each reported field is the Fraction formula's value
    modes = set()
    for inst in corpus(2805, 120, max_n=8):
        letters = inst.letters
        tiny = letters.costs[0] / letters.costs[1] * inst.n <= inst.epsilon
        assert driver._cheapest_is_tiny(inst) == tiny
        try:
            report = solve(inst, budget=20_000)
        except driver.BudgetExceeded:
            continue
        modes.add(report.mode)
        assert report.mode == ("single" if inst.n == 1 else "tiny" if tiny else "main")
        cost = code_cost(report.code, inst)
        l2 = letters.costs[1]
        assert report.total_cost == inst.weight_total * cost
        assert report.lower_bound == lower_bound(inst) * l2 * inst.weight_total
        assert report.normalized_cost == cost / l2
        if report.mode == "main":
            assert report.ratio_bound_used == 1 + driver.C_TOTAL * inst.epsilon
    assert modes == {"single", "tiny", "main"}


def fractions_made(monkeypatch, inst):
    """The Fractions one solve of inst constructs, and its mode."""
    made = []
    new = F.__new__

    def counted(cls, *args, **kwargs):
        made.append(cls)
        return new(cls, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(F, "__new__", counted)
        mode = solve(inst).mode
    return len(made), mode


def test_a_solve_makes_a_fixed_number_of_fractions(monkeypatch):
    # ints inside, a Fraction only for a value the report returns or a
    # public field: the set-up in Fractions made 35 per main-path solve at
    # n = 8 and 12 tiny-path ones, and more Fraction arithmetic besides
    for n in (8, 12):
        inst, _ = Instance.from_weights(range(1, n + 1), LetterCosts([1, 3]), F(1, 4))
        made, mode = fractions_made(monkeypatch, inst)
        assert mode == "main" and made <= 15, (n, made)
    inst, _ = Instance.from_weights(range(1, 301), LetterCosts([F(1, 10**4), 1]), F(1, 2))
    made, mode = fractions_made(monkeypatch, inst)
    assert mode == "tiny" and made <= 5, made
