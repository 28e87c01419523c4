import io
import math
from contextlib import redirect_stderr, redirect_stdout
from decimal import Decimal
from fractions import Fraction as F

import pytest

from lettercost import cli, codeword_cost, driver, Grouping, LetterCosts, solve
from lettercost.cli import main
from lettercost.core import CodeAssignment, runs_from_str


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse exits on a usage error
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def figure_skewed(tmp_path):
    path = tmp_path / "skewed.txt"
    path.write_text("1 3\n2 2 1 1\n")
    return str(path)


@pytest.fixture
def figure_binary(tmp_path):
    path = tmp_path / "binary.txt"
    path.write_text("1 1\n2 2 1 1\n")
    return str(path)


class TestSolve:
    def test_figure_skewed_total(self, figure_skewed):
        code, out, _ = run_cli("solve", figure_skewed, "--epsilon", "0.25")
        assert code == 0
        assert "total cost (input scale): 21" in out

    def test_figure_binary_total(self, figure_binary):
        code, out, _ = run_cli("solve", figure_binary, "--epsilon", "0.25")
        assert code == 0
        assert "total cost (input scale): 12" in out

    def test_deterministic_output(self, figure_skewed):
        _, first, _ = run_cli("solve", figure_skewed, "--epsilon", "0.25")
        _, second, _ = run_cli("solve", figure_skewed, "--epsilon", "0.25")
        assert first == second

    def test_tsv_roundtrip(self, figure_skewed):
        code, out, _ = run_cli("solve", figure_skewed, "--epsilon", "0.25", "--emit", "tsv")
        assert code == 0
        lines = [ln for ln in out.splitlines() if ln and not ln.startswith("#")]
        rows = [ln.split("\t") for ln in lines[1:]]
        letters = LetterCosts([1, 3])
        total = F(0)
        for _, weight, codeword, cost in rows:
            scored = codeword_cost(runs_from_str(codeword), letters)
            assert scored == F(cost)
            total += F(weight) * scored
        footer = {ln.split("\t")[0]: ln.split("\t")[1] for ln in out.splitlines() if ln.startswith("#")}
        assert F(footer["# total_cost"]) == total == 21

    def test_unsorted_weights_map_back(self, tmp_path):
        path = tmp_path / "unsorted.txt"
        path.write_text("1 1\n1 2 2 1\n")
        code, out, _ = run_cli("solve", str(path), "--epsilon", "0.25", "--emit", "tsv")
        assert code == 0
        rows = [ln.split("\t") for ln in out.splitlines() if ln and not ln.startswith(("#", "word"))]
        weights = [r[1] for r in rows]
        assert weights == ["1", "2", "2", "1"]
        costs = [F(r[3]) for r in rows]
        assert costs[1] <= costs[0] and costs[2] <= costs[3]

    def test_custom_glyphs(self, tmp_path):
        path = tmp_path / "tele.txt"
        path.write_text("1 2\n5 3 2\n. -\n")
        code, out, _ = run_cli("solve", str(path), "--epsilon", "0.5", "--emit", "tsv")
        assert code == 0
        body = [ln for ln in out.splitlines() if ln and not ln.startswith(("#", "word"))]
        assert all(set(row.split("\t")[2]) <= {".", "-"} for row in body)

    def test_budget_exit_code(self, figure_skewed):
        code, _, err = run_cli("solve", figure_skewed, "--epsilon", "0.25", "--budget", "2")
        assert code == 2
        assert "budget" in err

    def test_budget_message_names_explored_and_budget(self, figure_skewed):
        # the search stops at the first node past the budget and prints no code
        code, out, err = run_cli("solve", figure_skewed, "--epsilon", "0.25", "--budget", "5")
        assert code == 2
        assert out == ""
        assert "error: guess search exceeded budget (6 nodes explored, budget 5)\n" in err
        assert "epsilon" not in err

    def test_count_table_past_budget_exits_2(self, tmp_path):
        # 16,545,777 count-table entries over letters 2 3 4 at eps 1/1000:
        # refused at once, on one line, before the table is built
        path = tmp_path / "three.txt"
        path.write_text("2 3 4\n1 2 3\n")
        code, out, err = run_cli("solve", str(path), "--epsilon", "1/1000")
        assert code == 2
        assert out == ""
        assert err == (
            "error: cost graph needs 16545777 count-table entries at epsilon 1/1000,"
            " over budget 10000000\n"
        )

    def test_small_epsilon_table_size(self, tmp_path, monkeypatch):
        # a size check, not a timing one: over letters 1 2 at eps 1/1000 the
        # quantum is 1/2, the gcd of the letter costs, so the count table
        # runs to k_q = 33,023 quanta; on a grid of quantum 1/1000 it would
        # hold 16,511,155 entries, 33,021 of them at live levels
        path = tmp_path / "three.txt"
        path.write_text("1 2\n1 2 3\n")
        graphs = []
        build = driver.build_cost_graph

        def recorded(norm, k):
            graphs.append(build(norm, k))
            return graphs[-1]

        monkeypatch.setattr(driver, "build_cost_graph", recorded)
        totals = []
        for eps in ("1/100", "1/1000"):
            code, out, _ = run_cli("solve", str(path), "--epsilon", eps, "--emit", "tsv")
            assert code == 0
            totals += [ln for ln in out.splitlines() if ln.startswith("# total_cost")]
        assert totals == ["# total_cost\t13"] * 2
        graph = graphs[-1]
        assert len(graph.counts) == 33_024
        assert len(graph.live_targets) == 33_021


class TestUsageErrors:
    # exit code 2 means an exhausted budget, so a bad option exits 1, with
    # argparse's message on one line
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--epsilon", "2"], "argument --epsilon: epsilon must lie in (0, 1]"),
            (["--budget", "x"], "argument --budget: invalid int value: 'x'"),
            (["--k", "1"], "unrecognized arguments: --k 1"),
            (["--epsilon", "1/0"], "argument --epsilon: invalid epsilon value: '1/0'"),
            (["--epsilon", "x"], "argument --epsilon: invalid epsilon value: 'x'"),
        ],
    )
    def test_bad_option_exits_1(self, figure_skewed, argv, message):
        code, out, err = run_cli("solve", figure_skewed, *argv)
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1
        assert message in err

    @pytest.mark.parametrize("command", ["solve", "verify"])
    @pytest.mark.parametrize("budget", ["0", "-1"])
    def test_budget_must_be_positive(self, figure_skewed, command, budget):
        # not an exhausted budget (exit 2) but a usage error
        code, out, err = run_cli(command, figure_skewed, "--budget", budget)
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1
        assert "argument --budget: budget must be a positive integer" in err


class TestOutputCost:
    # the output prices the code once, not once per row; costs() prices
    # through costs_int(), so counting costs_int() counts both; calls made
    # inside solve and exact_optimal are not counted
    @pytest.fixture
    def output_costs_calls(self, monkeypatch):
        calls = []
        original = CodeAssignment.costs_int

        def counted(self):
            calls.append(1)
            return original(self)

        def uncounted(fn):
            def run(*args, **kwargs):
                result = fn(*args, **kwargs)
                calls.clear()
                return result

            return run

        monkeypatch.setattr(CodeAssignment, "costs_int", counted)
        monkeypatch.setattr(cli, "solve", uncounted(cli.solve))
        monkeypatch.setattr(cli, "exact_optimal", uncounted(cli.exact_optimal))
        return calls

    def test_solve_tsv_costs_once(self, tmp_path, output_costs_calls):
        path = tmp_path / "zipf.txt"
        path.write_text("1 2\n" + " ".join(str(1000 // i) for i in range(1, 41)) + "\n")
        code, out, _ = run_cli("solve", str(path), "--epsilon", "1", "--emit", "tsv")
        assert code == 0
        assert len([ln for ln in out.splitlines() if not ln.startswith(("#", "word"))]) == 40
        assert len(output_costs_calls) == 1

    def test_exact_costs_once(self, figure_skewed, output_costs_calls):
        code, out, _ = run_cli("exact", figure_skewed)
        assert code == 0
        assert len(out.splitlines()) == 5
        assert len(output_costs_calls) == 1


class TestParsing:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        code, _, err = run_cli("solve", str(path))
        assert code == 1
        assert "line 1" in err

    def test_bad_token_position(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1 zz\n1 1\n")
        code, _, err = run_cli("solve", str(path))
        assert code == 1
        assert "line 1, column 3" in err

    def test_number_forms(self):
        # plain ASCII digits take the int fast path; every other form gives
        # the value Fraction() gives it
        values = cli._parse_numbers("7 +4 3.0 1e3 2/7 1_000 \u0661\u0662 0.25", 2)
        assert values == [7, 4, 3, 1000, F(2, 7), 1000, 12, F(1, 4)]
        assert type(values[0]) is int

    @pytest.mark.parametrize("token", ["x", "1/0", "\u00b2"])
    def test_bad_number_column(self, token):
        # a superscript digit passes str.isdigit but is no number
        with pytest.raises(cli.ParseError) as exc:
            cli._parse_numbers("12  " + token + " 5", 2)
        assert (exc.value.line, exc.value.column) == (2, 5)

    def test_negative_weight(self, tmp_path):
        path = tmp_path / "neg.txt"
        path.write_text("1 1\n2 -1\n")
        code, _, err = run_cli("solve", str(path))
        assert code == 1

    def test_missing_file(self, tmp_path):
        code, _, err = run_cli("solve", str(tmp_path / "nothing.txt"))
        assert code == 1

    def test_glyph_count_mismatch(self, tmp_path):
        path = tmp_path / "glyphs.txt"
        path.write_text("1 1\n1 1\nabc\n")
        code, _, err = run_cli("solve", str(path))
        assert code == 1


    @pytest.mark.parametrize(
        "text, where",
        [
            ("1 1\n3 -2 1\n", "line 2, column 1: weights must be strictly positive"),
            ("1 1\n1 0 1\n", "line 2, column 1: weights must be strictly positive"),
            ("0 1\n1 1\n", "line 1, column 1: letter costs must be strictly positive"),
            ("1\n1 1\n", "line 1, column 1: need at least 2 letters"),
        ],
    )
    def test_validation_error_lines(self, tmp_path, text, where):
        # weight errors point at the weight line, letter-cost errors at the
        # letter-cost line
        path = tmp_path / "invalid.txt"
        path.write_text(text)
        code, out, err = run_cli("solve", str(path))
        assert code == 1
        assert out == "" and err == "error: %s\n" % where

    @pytest.mark.parametrize("command", ["solve", "verify"])
    def test_more_letters_than_default_glyphs(self, tmp_path, command):
        path = tmp_path / "wide.txt"
        path.write_text(" ".join(["1"] * 28) + "\n1 1\n")
        code, out, err = run_cli(command, str(path))
        assert code == 1
        assert out == "" and err.count("\n") == 1
        assert err.startswith("error: line 3, column 1: 28 letters need a glyph line")

    def test_glyph_line_names_many_letters(self, tmp_path):
        glyphs = "abcdefghijklmnopqrstuvwxyzAB"
        path = tmp_path / "wide.txt"
        path.write_text(" ".join(["1"] * 27 + ["2"]) + "\n3 1\n" + glyphs + "\n")
        code, out, _ = run_cli("solve", str(path), "--emit", "tsv")
        assert code == 0
        rows = [ln.split("\t") for ln in out.splitlines()[1:3]]
        assert [row[2] for row in rows] == ["a", "b"]

    @pytest.mark.parametrize("glyph_line, column", [("aa", 2), ("a b a", 5), (". - .", 5)])
    def test_repeated_glyph(self, tmp_path, glyph_line, column):
        # a code printed with a repeated glyph could not be decoded
        path = tmp_path / "glyphs.txt"
        letters = len("".join(glyph_line.split()))
        path.write_text(" ".join(["1"] * letters) + "\n1 1\n" + glyph_line + "\n")
        code, out, err = run_cli("solve", str(path))
        assert code == 1
        assert out == "" and err.count("\n") == 1
        assert err.startswith("error: line 3, column %d: glyph" % column)

    def test_hash_line_is_a_glyph_line(self, tmp_path):
        # there are no comment lines: #- names the glyphs # and -
        path = tmp_path / "hash.txt"
        path.write_text("1 2\n3 1\n\n#-\n")
        code, out, _ = run_cli("solve", str(path), "--emit", "tsv")
        assert code == 0
        rows = [ln.split("\t") for ln in out.splitlines()[1:3]]
        assert [row[2] for row in rows] == ["#", "-"]

    @pytest.mark.parametrize(
        "text, where",
        [
            ("1 2\n3 1\nab\n# note\n", "line 4, column 1: expected at most 3 lines"),
            ("# note\n1 2\n3 1\nab\n", "line 1, column 1: cannot parse '#'"),
        ],
    )
    def test_stray_line_is_an_error(self, tmp_path, text, where):
        # a line that was meant as a comment fails at its line
        path = tmp_path / "stray.txt"
        path.write_text(text)
        code, out, err = run_cli("solve", str(path))
        assert code == 1
        assert out == "" and err.count("\n") == 1
        assert err.startswith("error: " + where)

    @pytest.mark.parametrize(
        "text, where",
        [
            ("\n1 2\n\n3 -1\n", "line 4, column 1: weights must be strictly positive"),
            ("\n\n0 1\n1 1\n", "line 3, column 1: letter costs must be strictly positive"),
            ("1 1\n\n \t\n2 x\n", "line 4, column 3: cannot parse 'x' as a number"),
            ("1 1\n\n1 1\n\nabc\n", "line 5, column 1: expected 2 glyphs"),
            ("1 2\n\n3 1\n\naa\n", "line 5, column 2: glyph 'a' repeats"),
            ("1 2\n3 1\n\nab\n\n#\n", "line 6, column 1: expected at most 3 lines"),
            (" ".join(["1"] * 28) + "\n\n1 1\n", "line 4, column 1: 28 letters need a glyph line"),
        ],
    )
    def test_lines_count_blank_lines(self, tmp_path, text, where):
        # every error names the line as the file numbers it, blank lines included
        path = tmp_path / "blanks.txt"
        path.write_text(text)
        code, out, err = run_cli("solve", str(path))
        assert code == 1
        assert out == "" and err.count("\n") == 1
        assert err.startswith("error: " + where)

    def test_digit_limit_is_a_parse_error(self, tmp_path):
        # a weight past int()'s digit limit is placed like any bad token
        path = tmp_path / "long.txt"
        path.write_text("1 2\n3 " + "9" * 5000 + "\n")
        code, out, err = run_cli("solve", str(path))
        assert code == 1
        assert out == "" and err.count("\n") == 1
        assert err.startswith("error: line 2, column 3: cannot parse '999")


class TestOtherCommands:
    def test_exact(self, figure_skewed):
        code, out, _ = run_cli("exact", figure_skewed)
        assert code == 0
        assert "optimal cost (input scale): 21" in out

    def test_verify_pass(self, figure_binary):
        code, out, _ = run_cli("verify", figure_binary, "--epsilon", "0.25")
        assert code == 0
        assert "ratio: 1" in out
        assert "PASS" in out

    def test_verify_prints_the_bound_the_solver_certified(self, tmp_path, monkeypatch):
        # the cheapest letter, 1/100 of the second, is below eps/n: the
        # tiny-letter path certifies 1 + eps by its own proof, whatever
        # C_TOTAL the main path uses
        tiny = tmp_path / "tiny.txt"
        tiny.write_text("1 100\n5 4 3 2 1\n")
        assert solve(cli.load_instance(str(tiny), F(1, 2)).instance).mode == "tiny"
        monkeypatch.setattr(driver, "C_TOTAL", F(2))
        code, out, _ = run_cli("verify", str(tiny), "--epsilon", "0.5")
        assert code == 0 and out.endswith("bound: 3/2 (1.5)\nPASS\n")
        path = tmp_path / "main.txt"
        path.write_text("1 2\n5 4 3 2 1\n")
        code, out, _ = run_cli("verify", str(path), "--epsilon", "0.5")
        assert code == 0 and out.endswith("bound: 2\nPASS\n")

    def test_verify_asks_the_oracle_first(self, tmp_path, monkeypatch):
        # an instance too large for the exact oracle fails before solve runs
        path = tmp_path / "eleven.txt"
        path.write_text("1 2\n" + " ".join(str(11 - i) for i in range(11)) + "\n")

        def refuse(*args, **kwargs):
            raise AssertionError("solve called")

        monkeypatch.setattr(cli, "solve", refuse)
        code, out, err = run_cli("verify", str(path), "--epsilon", "0.5")
        assert code == 1
        assert out == ""
        assert err == "error: instance too large for the exact oracle (n=11)\n"

    def test_graph_stats(self, figure_skewed):
        code, out, _ = run_cli("graph-stats", figure_skewed, "--epsilon", "0.25")
        assert code == 0
        assert "nodes:" in out and "PASS" in out

    def test_graph_stats_checks_the_group_bound(self, figure_skewed, monkeypatch):
        # a grouping past 1 + 4k/eps'^2 groups fails the check, though the
        # cost graph is within its bounds
        def too_many(norm, k):
            count = math.floor(1 + 4 * k / norm.epsilon_prime**2) + 1
            return Grouping(norm, ((0, 1),) * count)

        monkeypatch.setattr(cli, "group_words", too_many)
        code, out, _ = run_cli("graph-stats", figure_skewed, "--epsilon", "1")
        assert code == 3
        assert out.endswith("FAIL\n")

    def test_graph_stats_charges_the_count_table(self, tmp_path, monkeypatch):
        # the 16,545,777 entries over letters 2 3 4 at eps 1/1000 are over
        # the default budget, as in solve: refused before the table is built
        def refuse(norm, k):
            raise AssertionError("the cost graph was built")

        monkeypatch.setattr(driver, "build_cost_graph", refuse)
        path = tmp_path / "three.txt"
        path.write_text("2 3 4\n1 2 3\n")
        code, out, err = run_cli("graph-stats", str(path), "--epsilon", "1/1000")
        assert code == 2
        assert out == ""
        assert err == (
            "error: cost graph needs 16545777 count-table entries at epsilon 1/1000,"
            " over budget 10000000\n"
        )


class TestLongNumbers:
    """Values past str()'s 4,300-digit limit for ints print in full."""

    NINES = "9" * 4300  # str() takes this many digits, but not their sum

    @pytest.fixture
    def nines(self, tmp_path):
        path = tmp_path / "nines.txt"
        path.write_text("1 2\n%s %s\n" % (self.NINES, self.NINES))
        return str(path)

    @staticmethod
    def value(out, label):
        """The Decimal printed after `label` on its line of `out`."""
        line = next(ln for ln in out.splitlines() if ln.startswith(label))
        return Decimal(line[len(label) :].strip())

    def test_solve_prints_totals_in_full(self, nines):
        report = solve(cli.load_instance(nines, F(1)).instance)
        total, lower = report.total_cost, report.lower_bound
        assert total.denominator == lower.denominator == 1
        code, out, err = run_cli("solve", nines, "--epsilon", "1", "--emit", "tsv")
        assert code == 0 and "Traceback" not in err
        assert self.value(out, "# total_cost") == Decimal(total.numerator)
        assert self.value(out, "# lower_bound") == Decimal(lower.numerator)
        assert [row.split("\t")[1] for row in out.splitlines()[1:3]] == [self.NINES] * 2
        code, out, err = run_cli("solve", nines, "--epsilon", "1")
        assert code == 0 and "Traceback" not in err
        assert self.value(out, "total cost (input scale):") == Decimal(total.numerator)

    def test_exact_and_verify(self, nines):
        code, out, _ = run_cli("exact", nines)
        assert code == 0
        # a and b, costs 1 and 2, on two equal weights
        assert self.value(out, "optimal cost (input scale):") == Decimal(3 * int(self.NINES))
        code, out, _ = run_cli("verify", nines, "--epsilon", "1")
        assert code == 0 and out.endswith("PASS\n")

    def test_fraction_past_float_range(self, tmp_path):
        # a weight of 4,401 digits, and costs of denominator 3 past a float's range
        path = tmp_path / "big.txt"
        path.write_text("1 2\n1e4400 1/3\n")
        for argv in (["solve", "--epsilon", "1", "--emit", "tsv"], ["exact"], ["verify"]):
            code, out, err = run_cli(argv[0], str(path), *argv[1:])
            assert code == 0 and "Traceback" not in err, argv
        code, out, _ = run_cli("solve", str(path), "--epsilon", "1", "--emit", "tsv")
        assert out.splitlines()[1].split("\t")[1] == "1" + "0" * 4400
        # 3 * 10**4400 + 4 over 3, rounded to 6 digits as %.6g rounds a float
        assert out.splitlines()[3] == "# total_cost\t3%s4/3 (1e+4400)" % ("0" * 4399)

    def test_fmt_matches_str_within_the_limit(self):
        for x in (0, 7, 10**40 + 3, F(2, 3), F(-5, 7), F(10**300, 3)):
            f = F(x)
            assert cli.fmt(x) == (str(f) if f.denominator == 1 else "%s (%.6g)" % (f, float(f)))
