"""The public surface: lettercost.__all__, and the names README retired."""

import inspect
import re
from pathlib import Path

import lettercost

README = Path(__file__).resolve().parent.parent / "README.md"

PUBLIC = [
    "BudgetExceeded",
    "C_TOTAL",
    "CodeAssignment",
    "CodeReport",
    "CostGraph",
    "GLYPHS",
    "Grouping",
    "Guess",
    "Inconsistent",
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
    "solve_tiny_ell1",
]


def removed_names():
    """The names in the first column of README's "Removed names" table."""
    section = README.read_text().split("### Removed names", 1)[1].split("\n#", 1)[0]
    names = []
    for line in section.splitlines():
        if line.startswith("| `"):
            names += re.findall(r"`([^`]+)`", line.split("|")[1])
    return names


def still_there(name):
    """Whether a dotted path from lettercost, optionally ending in a keyword
    argument as `f(arg=...)`, still resolves."""
    path, _, arg = name.partition("(")
    *parents, last = path.split(".")
    obj = lettercost
    for part in parents:
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    if not (hasattr(obj, last) or last in getattr(obj, "__dataclass_fields__", {})):
        return False
    return not arg or arg.split("=")[0] in inspect.signature(getattr(obj, last)).parameters


def test_all_is_pinned():
    assert lettercost.__all__ == PUBLIC
    assert all(hasattr(lettercost, name) for name in PUBLIC)


def test_removed_names_stay_removed():
    names = removed_names()
    assert "huffman_equal_costs" in names and "solve(k_override=...)" in names
    assert "is_k_prefix_free" in names and "LeveledCode.level_picks" in names
    assert "LeveledCode.guess" in names and "core.codeword_cost_int" in names
    assert "NormalizedInstance.scale_factor" in names and "Grouping.singleton_prefix" in names
    for name in names:
        assert re.fullmatch(r"[A-Za-z_][\w.]*(\(\w+=\.\.\.\))?", name), name
    assert [name for name in names if still_there(name)] == []


def test_still_there_sees_live_names():
    # the check above means something only if a live name would fail it
    for name in ("solve", "core.CodewordTrie", "Grouping.ranges", "solve(budget=...)"):
        assert still_there(name), name
