import json
import sys

import ab_pairs

SPECS = [
    {"name": "throughput_words_s", "better": "higher", "bound": 0.25},
    {"name": "latency_p50_s", "better": "lower", "bound": 0.25},
]


def runs(values, name):
    return [{name: v} for v in values]


class TestVerdict:
    def test_gain_needs_nine_tenths_of_the_pairs_and_the_parents_spread(self):
        parent = [100, 101, 99, 102, 98, 100, 101, 99, 100, 100]
        assert ab_pairs.verdict(parent, [v + 10 for v in parent], "higher", 0.25) == (10, "gain")
        # 9 of 10 wins still count; a loss in the other direction is fine
        change = [v + 10 for v in parent[:9]] + [90]
        assert ab_pairs.verdict(parent, change, "higher", 0.25) == (9, "gain")
        # 8 of 10 is flat, however large the medians' gap
        change = [v + 50 for v in parent[:8]] + [90, 90]
        assert ab_pairs.verdict(parent, change, "higher", 0.25) == (8, "flat")
        # every pair won, but by less than the parent's quartile spread
        assert ab_pairs.verdict(parent, [v + 0.5 for v in parent], "higher", 0.25) == (10, "flat")

    def test_lower_is_better_and_ties_count_for_neither(self):
        parent = [5.0] * 10
        assert ab_pairs.verdict(parent, [4.0] * 10, "lower", 0.25) == (10, "gain")
        assert ab_pairs.verdict(parent, [5.0] * 10, "lower", 0.25) == (0, "flat")

    def test_regression_is_a_median_worse_than_the_bound(self):
        parent = [1.0, 1.1, 0.9, 1.0]
        assert ab_pairs.verdict(parent, [1.3, 1.4, 1.2, 1.3], "lower", 0.25) == (0, "regression")
        assert ab_pairs.verdict(parent, [1.2, 1.3, 1.1, 1.2], "lower", 0.25) == (0, "flat")
        assert ab_pairs.verdict([10.0] * 3, [7.0] * 3, "higher", 0.25) == (0, "regression")

    def test_a_spread_wider_than_the_bound_is_unresolved(self):
        # the parent's quartiles lie 0.6 apart, wider than a bound of 0.25
        # of its median 1.0
        parent = [0.6, 1.4, 0.7, 1.3, 1.0]
        assert ab_pairs.verdict(parent, [0.9, 1.3, 0.8, 1.2, 1.0], "lower", 0.25) == (2, "unresolved")
        # a median worse than the bound is still a regression
        assert ab_pairs.verdict(parent, [1.5, 1.6, 1.4, 1.5, 1.3], "lower", 0.25) == (0, "regression")
        # every change run better than every parent run: not unresolved,
        # though the medians lie less than the parent's spread apart
        assert ab_pairs.verdict(parent, [0.5, 0.55, 0.45, 0.5, 0.52], "lower", 0.25) == (5, "flat")

    def test_more_failures_refuse_a_gain(self):
        parent = [100, 101, 99, 102, 98, 100, 101, 99, 100, 100]
        change = [v + 10 for v in parent]
        assert ab_pairs.verdict(parent, change, "higher", 0.25, more_failed=True) == (10, "flat")

    def test_fewer_than_ten_pairs_claim_no_gain(self):
        assert ab_pairs.quartiles([3.0]) == (3.0, 3.0, 3.0)
        assert ab_pairs.verdict([3.0], [2.0], "lower", 0.25) == (1, "flat")
        assert ab_pairs.verdict([5.0] * 9, [4.0] * 9, "lower", 0.25) == (9, "flat")
        assert ab_pairs.verdict([5.0] * 3, [7.0] * 3, "lower", 0.25) == (0, "regression")


def test_summary_lines():
    name, other = SPECS[0]["name"], SPECS[1]["name"]
    parent = [dict(a, failed=0, **b) for a, b in zip(runs([100, 104, 96, 100] * 3, name), runs([2.0] * 12, other))]
    change = [dict(a, failed=0, **b) for a, b in zip(runs([120, 121, 119, 120] * 3, name), runs([2.6] * 12, other))]
    lines = ab_pairs.summary(parent, change, SPECS)
    assert lines[0] == "failed operations  parent 0  change 0"
    assert lines[1].startswith("throughput_words_s   parent 100 [99, 101]  change 120 [119.75, 120.25]")
    assert lines[1].endswith("change wins 12 of 12  gain")
    assert lines[2].endswith("change wins 0 of 12  regression")
    # one more failed operation on the change's side: no gain
    change[2]["failed"] = 1
    lines = ab_pairs.summary(parent, change, SPECS)
    assert lines[0] == "failed operations  parent 0  change 1"
    assert lines[1].endswith("change wins 12 of 12  flat")


def test_a_run_without_a_result_names_its_side_and_pair(tmp_path, capsys):
    # stand-in checkouts whose benchmark command prints a canned last line
    result = {"correct": 1, "attempted": 1, "failed": 0,
              "metrics": {s["name"]: {"value": 1.0, "unit": "s"} for s in SPECS}}
    sides = {}
    for side, last in (("parent", json.dumps(result)), ("change", "Traceback ...")):
        root = tmp_path / side
        root.mkdir()
        (root / "stub.py").write_text("print('summary')\nprint(%r)\n" % last)
        bench = {"command": [sys.executable, "stub.py"], "run_seconds": 1, "end_to_end": SPECS}
        (root / "BENCHMARK.json").write_text(json.dumps(bench))
        sides[side] = str(root)
    argv = [sides["parent"], sides["change"], "--workload", "w", "--seed", "1", "--pairs", "2"]
    assert ab_pairs.main(argv) == 1
    captured = capsys.readouterr()
    assert "pair 1 parent failed=0 throughput_words_s=1 latency_p50_s=1" in captured.out
    assert "error: change run of pair 1 failed: last line is not a result" in captured.err
    # both sides end in a result: one line per run, then the summary
    (tmp_path / "change" / "stub.py").write_text((tmp_path / "parent" / "stub.py").read_text())
    assert ab_pairs.main(argv) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.split()[:3] for line in out[:4]] == [
        ["pair", "1", "parent"], ["pair", "1", "change"], ["pair", "2", "change"], ["pair", "2", "parent"]
    ]
    assert out[4] == "failed operations  parent 0  change 0"
    assert out[5].endswith("change wins 0 of 2  flat")
