"""The benchmark's own tests: generator, checker, replay and printout.

Each workload runs end to end on a handful of its smallest instances, so the
whole file takes seconds.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from collections import Counter
from fractions import Fraction

import pytest

import check
import run
import speed
import workloads

sys.path.insert(0, str(run.SRC))

from lettercost import Instance, LetterCosts, solve  # noqa: E402
from lettercost.cli import load_instance  # noqa: E402

import replay  # noqa: E402


def smallest(workload, count=3, seed=1):
    return sorted(workloads.generate(workload, seed), key=lambda s: s.n)[:count]


class TestGenerator:
    def test_same_seed_same_instances(self):
        for name in workloads.GENERATORS:
            assert workloads.generate(name, 7) == workloads.generate(name, 7)
            assert workloads.generate(name, 7) != workloads.generate(name, 8)

    def test_grids(self):
        search = Counter(s.n for s in workloads.generate("search", 1))
        assert search == {8: 12, 10: 12, 12: 12}
        codebook = [s.n for s in workloads.generate("codebook", 1)]
        assert min(codebook) == 1024 and max(codebook) == 4096
        tiny = workloads.generate("tiny", 1)
        assert any(490 <= s.n <= 512 for s in tiny), "the n<=512 recursion band is covered"
        for s in tiny:
            assert s.costs[0] / s.costs[1] * s.n <= s.epsilon
        verify = Counter(s.n for s in workloads.generate("verify", 1))
        assert verify == {n: 8 for n in range(6, 10)}

    def test_files_load_through_the_cli(self, tmp_path):
        specs = smallest("tiny", 2) + smallest("search", 2)
        paths = workloads.write_instances(specs, str(tmp_path))
        for path, spec in zip(paths, specs):
            loaded = load_instance(path, spec.epsilon)
            assert loaded.instance.n == spec.n
            assert loaded.instance.letters.costs == spec.costs
            assert sorted(loaded.raw_weights) == sorted(spec.weights)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert [Fraction(e) for _, e in manifest] == [s.epsilon for s in specs]


class TestChecker:
    def solved(self):
        spec = smallest("search", 1)[0]
        instance, _ = Instance.from_weights(list(spec.weights), LetterCosts(spec.costs), spec.epsilon)
        return spec, solve(instance)

    def test_accepts_solve_output(self):
        spec, report = self.solved()
        assert check.check_code(
            report.code.codewords, spec.costs, spec.weights, report.total_cost, report.lower_bound
        ) is None

    def test_rejects_wrong_outputs(self):
        spec, report = self.solved()
        words = list(report.code.codewords)
        args = (spec.costs, spec.weights, report.total_cost, report.lower_bound)
        assert "prefix" in check.check_code([words[0], words[0] + ((1, 1),)] + words[2:], *args)
        assert "codewords for" in check.check_code(words[:-1], *args)
        assert "reported cost" in check.check_code(
            words, spec.costs, spec.weights, report.total_cost + 1, report.lower_bound
        )
        assert "lower bound" in check.check_code(
            words, spec.costs, spec.weights, report.total_cost, report.lower_bound + 1
        )
        assert "ratio" in check.check_ratio(
            report.total_cost * 2, words, report.total_cost, spec.costs, spec.weights, Fraction(3, 2)
        )

    def test_prefix_check_takes_long_codewords(self):
        long_words = [((0, 5000), (1, 1)), ((0, 5001),), ((1, 2),)]
        assert check.prefix_violation(long_words, 2) is None
        assert check.prefix_violation(long_words + [((0, 5000),)], 2) is not None


class TestReplay:
    def test_detects_a_code_solve_did_not_return(self):
        spec = smallest("codebook", 1)[0]
        instance, _ = Instance.from_weights(list(spec.weights), LetterCosts(spec.costs), spec.epsilon)
        report = solve(instance)
        tracer = replay.Tracer()
        replay.replay_main(tracer, 0, instance, report)
        words = report.code.codewords
        swapped = dataclasses.replace(report.code, codewords=(words[1], words[0]) + words[2:])
        with pytest.raises(replay.ReplayMismatch):
            replay.replay_main(tracer, 1, instance, dataclasses.replace(report, code=swapped))


@pytest.mark.parametrize("workload", sorted(workloads.GENERATORS))
def test_short_run(workload):
    specs = smallest(workload)
    plain = run.run(workload, 1, 0, False, specs=specs)
    assert plain["correct"] and plain["failed"] == 0
    assert plain["attempted"] == len(specs)
    assert set(plain["metrics"]) == set(run.END_TO_END)
    assert all(v > 0 for v in plain["metrics"].values())

    traced = run.run(workload, 1, 0, True, specs=specs)
    assert traced["correct"] and traced["attempted"] == len(specs)
    assert set(traced["metrics"]) == set(run.PER_LAYER)
    if workload == "tiny":
        assert traced["metrics"]["driver.tiny_s"] > 0
    else:
        assert traced["metrics"]["driver.search_s"] > 0
        assert traced["metrics"]["kprefix.construct_s"] > 0
    assert (traced["metrics"]["oracles.exact_s"] > 0) == (workload == "verify")

    for result, is_traced in ((plain, False), (traced, True)):
        lines = run.summary(workload, 1, result, is_traced)
        for name in result["metrics"]:
            assert any(line.split()[0] == name for line in lines[1:])
        last = json.loads(run.result_line(result, is_traced))
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        units = run.PER_LAYER if is_traced else run.END_TO_END
        assert {k: v["unit"] for k, v in last["metrics"].items()} == units


class TestSpeed:
    def test_scaling_is_relative_to_the_reference_host(self):
        assert speed.scaled(1.0, speed.REFERENCE_S, speed.REFERENCE_S) == pytest.approx(1.0)
        # a host twice as slow as the reference halves the scaled time
        slow = 2 * speed.REFERENCE_S
        assert speed.scaled(1.0, slow, slow) == pytest.approx(0.5)

    def test_probe_restores_the_garbage_collector(self):
        import gc

        assert speed.probe() > 0 and gc.isenabled()
        gc.disable()
        try:
            speed.probe()
            assert not gc.isenabled()
        finally:
            gc.enable()


def test_tiny_recursion_band_counts_as_failure():
    spec = next(s for s in workloads.generate("tiny", 1) if s.n == 512)
    result = run.run("tiny", 1, 0, True, specs=[spec])
    assert result["correct"] and result["failed"] == 1
    assert result["info"]["errors"] == {"RecursionError": 1}
    assert result["metrics"]["core.is_prefix_free_failed"] == 1


def test_refuses_to_run_without_the_library(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in ("run.py", "workloads.py", "check.py", "replay.py", "setup_probe.py", "speed.py"):
        shutil.copy(run.HERE / name, bench / name)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "search", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_lists_what_run_reports():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["perfbench"]
    assert {w["name"] for w in spec["workloads"]} == set(workloads.GENERATORS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
