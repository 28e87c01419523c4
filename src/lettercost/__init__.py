"""Prefix-free codes over alphabets with unequal letter costs.

Builds codes whose probability-weighted cost is within a (1 + O(epsilon))
factor of the optimum, in time polynomial in the number of words for each
fixed epsilon, together with exact small-instance oracles that verify the
guarantee.
"""

from .core import (
    CodeAssignment,
    GLYPHS,
    Instance,
    InstanceError,
    LetterCosts,
    NormalizedInstance,
    code_cost,
    codeword_cost,
    is_prefix_free,
    normalize,
    reorder,
)
from .cost_graph import CostGraph, build_cost_graph
from .kprefix import Guess, LeveledCode, construct_leveled, convert_to_prefix, enc
from .driver import (
    BudgetExceeded,
    C_TOTAL,
    CodeReport,
    Grouping,
    choose_k,
    group_words,
    solve,
)
from .oracles import OracleResult, exact_optimal, lower_bound

__all__ = [
    "BudgetExceeded",
    "C_TOTAL",
    "CodeAssignment",
    "CodeReport",
    "CostGraph",
    "GLYPHS",
    "Grouping",
    "Guess",
    "Instance",
    "InstanceError",
    "LetterCosts",
    "LeveledCode",
    "NormalizedInstance",
    "OracleResult",
    "build_cost_graph",
    "choose_k",
    "code_cost",
    "codeword_cost",
    "construct_leveled",
    "convert_to_prefix",
    "enc",
    "exact_optimal",
    "group_words",
    "is_prefix_free",
    "lower_bound",
    "normalize",
    "reorder",
    "solve",
]
