"""Seeded robustness of `lettercost solve`, run in-process.

Each case writes an instance file with edge values: epsilon from 1 down to
1/1000000, equal letter costs, fraction and decimal costs, 40-digit and
duplicate weights, 2-6 letters, a cheapest letter small enough for the
tiny-letter path, blank lines and glyph lines. The word count is capped per
case, and `--budget` keeps every search and every count table short. A case
either exits 0 with a TSV code that is prefix free and whose `# total_cost`
line is the cost recomputed from the printed codewords, or exits 1, 2 or 3
with one line on stderr and nothing on stdout. An exception that escapes
`cli.main` fails the case. Two more tests pin the two ways memory ends on
one line: a count table charged by its bits before it is built, and a
MemoryError that escapes anyway. Epsilons so small that k passes a float's
range, or that the table's entry count passes str()'s digit limit, exit 2
on one line too, before choose_k runs, as does a table whose bits pass a
float's range under a huge budget, and a tiny-path run-length ladder whose
steps pass the budget.
"""

import hashlib
import io
import random
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest

from helpers import is_prefix_free_sorted
from lettercost import GLYPHS, cli, driver
from lettercost.cli import main
from lettercost.core import runs_from_letters

EPSILONS = ["1", "1/2", "0.5", "1/3", "1/4", "0.2", "1/8", "1/100", "1/1000", "1/1000000"]
BUDGET = 20000


def letter_costs(rng):
    r = rng.randint(2, 6)
    kind = rng.choice(["equal", "ints", "fractions", "decimals", "tiny"])
    if kind == "equal":
        return [rng.choice(["1", "2", "3/2"])] * r
    if kind == "ints":
        return [str(rng.randint(1, 5)) for _ in range(r)]
    if kind == "fractions":
        return ["%d/%d" % (rng.randint(1, 9), rng.randint(1, 4)) for _ in range(r)]
    if kind == "decimals":
        return ["%d.%d" % (rng.randint(0, 3), rng.randint(1, 99)) for _ in range(r)]
    # a cheapest letter far below eps/n after the second letter is scaled to 1
    cheapest = "1/%d" % rng.choice([1000, 4096, 10**6])
    return [cheapest] + [str(rng.randint(1, 3)) for _ in range(r - 1)]


def weights(rng, n):
    kind = rng.choice(["ints", "huge", "duplicates", "mixed"])
    if kind == "ints":
        return [str(rng.randint(1, 10**6)) for _ in range(n)]
    if kind == "huge":
        return [str(rng.randrange(10**39, 10**40)) for _ in range(n)]
    if kind == "duplicates":
        return [str(rng.choice([1, 7, 7, 1000])) for _ in range(n)]
    forms = [
        "%d" % rng.randint(1, 99),
        "%d/%d" % (rng.randint(1, 99), rng.randint(1, 9)),
        "0.%d" % rng.randint(1, 99),
    ]
    return [rng.choice(forms) for _ in range(n)]


def blank(rng):
    return rng.choice(["", "", "\n", " \n\n"])


def case(rng):
    """(file text, epsilon, input costs, glyphs per input letter or None)."""
    eps = rng.choice(EPSILONS)
    # fewer words where the search has more levels to place them on
    cap = 40 if Fraction(eps) >= Fraction(1, 2) else 12
    costs = letter_costs(rng)
    words = weights(rng, rng.randint(1, cap))
    text = blank(rng) + " ".join(costs) + "\n" + blank(rng) + " ".join(words) + "\n"
    glyphs = None
    if rng.random() < 0.3:
        glyphs = rng.sample(".-*+=o", len(costs))
        text += blank(rng) + " ".join(glyphs) + "\n"
    return text + blank(rng), eps, costs, glyphs, words


def glyph_costs(costs, glyphs):
    """Each printed glyph's letter cost. The glyph line names the letters in
    the order of the cost line, and so do the default glyphs a, b, c, ..."""
    return dict(zip(glyphs or GLYPHS, map(Fraction, costs)))


def value(text):
    """A printed number: an integer, or a fraction followed by its float."""
    return Fraction(text.split(" (")[0])


def run(*argv):
    """`lettercost *argv` in-process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("seed", range(60))
def test_solve_ends_in_a_checked_code_or_an_exit_code(tmp_path, seed):
    rng = random.Random("cli-robust:%d" % seed)
    text, eps, costs, glyphs, words = case(rng)
    path = tmp_path / "instance.txt"
    path.write_text(text)
    code, out, err = run("solve", str(path), "--epsilon", eps, "--budget", str(BUDGET), "--emit", "tsv")
    assert err.count("\n") == 1 and "Traceback" not in err
    if code != 0:
        assert code in (1, 2, 3) and out == "" and err.startswith("error: "), (code, err)
        return
    lines = out.splitlines()
    assert lines[0] == "word\tweight\tcodeword\tcost"
    rows = [line.split("\t") for line in lines[1 : 1 + len(words)]]
    footer = dict(line.split("\t") for line in lines[1 + len(words) :])
    assert set(footer) == {"# total_cost", "# lower_bound", "# guesses"}
    cost_of = glyph_costs(costs, glyphs)
    index = {glyph: i for i, glyph in enumerate(cost_of)}
    total = Fraction(0)
    for i, (word, weight, codeword, cost) in enumerate(rows):
        assert int(word) == i + 1 and value(weight) == Fraction(words[i])
        priced = sum((cost_of[glyph] for glyph in codeword), Fraction(0))
        assert priced == value(cost)
        total += Fraction(words[i]) * priced
    assert value(footer["# total_cost"]) == total
    spelled = [runs_from_letters(index[glyph] for glyph in row[2]) for row in rows]
    assert len(spelled) == len(words) and is_prefix_free_sorted(spelled)


def test_count_table_bits_are_charged(tmp_path, monkeypatch):
    # weights 1 1 over letters 1 2: at eps 1/10000 the table's 402,364
    # entries are within the default budget, but they would hold about
    # 5.6 * 10^10 bits (~7 GB); both commands refuse before building it. A
    # letter past the table's last cost adds no strings to it, nor bits
    path = tmp_path / "two.txt"
    path.write_text("1 2\n1 1\n")
    far = tmp_path / "far.txt"
    far.write_text("1 2 1%s\n1 1\n" % ("0" * 400))

    def refuse(norm, k):
        raise AssertionError("the cost graph was built")

    monkeypatch.setattr(driver, "build_cost_graph", refuse)
    for command in ("solve", "graph-stats"):
        for instance in (path, far):
            started = time.perf_counter()
            code, out, err = run(command, str(instance), "--epsilon", "1/10000")
            assert time.perf_counter() - started < 1
            assert (code, out) == (2, "")
            assert err == (
                "error: cost graph's count table needs about 56198030823 bits at epsilon"
                " 1/10000, over the allowance of 2147483648 bits\n"
            )
    # at eps 1/1000 its 33,024 entries hold about 3.8 * 10^8 bits (45 MiB):
    # built and solved, with the code and cost it always had
    monkeypatch.undo()
    code, out, err = run("solve", str(path), "--epsilon", "1/1000", "--emit", "tsv")
    assert code == 0
    assert out == (
        "word\tweight\tcodeword\tcost\n1\t1\ta\t1\n2\t1\tb\t2\n"
        "# total_cost\t3\n# lower_bound\t2\n# guesses\t2\n"
    )


def test_memory_error_exits_2(tmp_path, monkeypatch):
    # a MemoryError that escapes every charge still ends on one line
    def exhausted(instance, budget):
        raise MemoryError

    monkeypatch.setattr(cli, "solve", exhausted)
    path = tmp_path / "two.txt"
    path.write_text("1 2\n1 1\n")
    code, out, err = run("solve", str(path))
    assert (code, out, err) == (2, "", "error: out of memory\n")


@pytest.mark.parametrize("command", ["solve", "graph-stats"])
@pytest.mark.parametrize("eps", ["1e-310", "1e-400", "1e-5000", "1e-20000"])
def test_tiny_epsilon_exits_2(tmp_path, command, eps, monkeypatch):
    # k is past a float's range; from 1e-5000 the table's entry count and the
    # epsilon's denominator are past str()'s digit limit. The lower bound
    # 5 / (2*eps) on k refuses the table before choose_k, whose tests take
    # seconds at 1e-20000
    def refuse(epsilon):
        raise AssertionError("choose_k ran")

    monkeypatch.setattr(driver, "choose_k", refuse)
    path = tmp_path / "five.txt"
    path.write_text("1 2\n5 4 3 2 1\n")
    code, out, err = run(command, str(path), "--epsilon", eps)
    assert (code, out) == (2, "")
    assert err.count("\n") == 1, err[:200]
    assert err.startswith("error: cost graph needs more than "), err[:200]


def test_bits_charged_past_a_float(tmp_path):
    # a 401-digit budget passes the entry charge at 1e-310; the table's bits,
    # past a float's range, are still charged, and exit 2 on one line
    path = tmp_path / "five.txt"
    path.write_text("1 2\n5 4 3 2 1\n")
    code, out, err = run("solve", str(path), "--epsilon", "1e-310", "--budget", "1" + "0" * 400)
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and err.startswith("error: cost graph's count table needs about ")


def test_tiny_ladder_is_charged(tmp_path):
    # 4,100 equal weights over 1/10^9 1 at eps 1/4000: the tiny path's ladder
    # steps through 4,099 powers of 1 + eps on exact big ints, ~1.4 s. At
    # --budget 1000 it stops at its 1,001st step; at the default budget it
    # solves to the code it always had
    path = tmp_path / "ladder.txt"
    path.write_text("1/1000000000 1\n" + " ".join(["1"] * 4100) + "\n")
    started = time.perf_counter()
    code, out, err = run("solve", str(path), "--epsilon", "1/4000", "--budget", "1000")
    assert time.perf_counter() - started < 0.5
    assert (code, out) == (2, "")
    assert err == "error: tiny path's run-length ladder exceeded budget (1001 steps, budget 1000)\n"
    code, out, err = run("solve", str(path), "--epsilon", "1/4000", "--emit", "tsv")
    assert code == 0
    assert out.endswith(
        "# total_cost\t81980504177/20000000 (4099.03)\n# lower_bound\t4099\n# guesses\t4099\n"
    )
    digest = "466fbea9f9d166a8fdc9d5319b6639b434fff407d57874c888339c8a2e0dedc6"
    assert hashlib.sha256(out.encode()).hexdigest() == digest
