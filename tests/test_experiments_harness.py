"""Smoke tests for the experiment harness and reporting utilities."""

import json
from pathlib import Path

import pytest

from repro.baselines import GreedyChehabCompiler, ScalarCompiler
from repro.experiments import (
    BenchmarkRunner,
    format_table,
    geometric_mean,
    results_to_rows,
    run_motivating_example,
    write_csv,
)
from repro.compiler.registry import build_compiler
from repro.experiments.reporting import series_by_compiler
from repro.kernels import benchmark_by_name
from repro.kernels.registry import benchmark_suite

#: Rule names the default ``chehab-rl`` compiler applies to each suite
#: kernel, recorded before the policy's encoder went ``[CLS]``-only.
RECORDED_RL_SEQUENCES = Path(__file__).parent / "data" / "chehab_rl_rule_sequences.json"


@pytest.fixture(scope="module")
def small_results():
    benchmarks = [benchmark_by_name("dot_product_4"), benchmark_by_name("l2_distance_4")]
    runner = BenchmarkRunner({"CHEHAB": GreedyChehabCompiler(), "Initial": ScalarCompiler()})
    return runner, runner.run(benchmarks)


class TestDefaultAgent:
    def test_chehab_rl_applies_the_recorded_rule_sequences(self):
        compiler = build_compiler("chehab-rl")
        observed = {
            benchmark.name: [
                step.rule_name
                for step in compiler.compile_expression(benchmark.expression()).rewrite_steps
            ]
            for benchmark in benchmark_suite()
        }
        assert observed == json.loads(RECORDED_RL_SEQUENCES.read_text())


class TestRunner:
    def test_results_cover_every_pair(self, small_results):
        _runner, results = small_results
        assert len(results) == 4
        assert all(result.correct for result in results)

    def test_optimized_compiler_wins(self, small_results):
        runner, results = small_results
        ratio = runner.summarize_ratio(results, "execution_latency_ms", "Initial", "CHEHAB")
        assert ratio > 1.0

    def test_geometric_mean(self):
        assert geometric_mean([2.0, 8.0]) == pytest.approx(4.0)
        assert geometric_mean([]) == 0.0

    def test_series_by_compiler(self, small_results):
        _runner, results = small_results
        series = series_by_compiler(results, "consumed_noise_budget")
        assert set(series) == {"CHEHAB", "Initial"}
        assert set(series["CHEHAB"]) == {"dot_product_4", "l2_distance_4"}

    def test_empty_runner_rejected(self):
        with pytest.raises(ValueError):
            BenchmarkRunner({})


class TestReporting:
    def test_rows_and_table(self, small_results):
        _runner, results = small_results
        rows = results_to_rows(results)
        table = format_table(rows, ["benchmark", "compiler", "execution_latency_ms"], title="demo")
        assert "demo" in table and "dot_product_4" in table

    def test_write_csv(self, tmp_path, small_results):
        _runner, results = small_results
        path = tmp_path / "out" / "results.csv"
        write_csv(results_to_rows(results), path)
        content = path.read_text()
        assert "benchmark" in content.splitlines()[0]
        assert len(content.splitlines()) == 5

    def test_write_empty_csv_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_csv([], tmp_path / "empty.csv")


class TestMotivatingExample:
    def test_paper_toy_costs(self):
        result = run_motivating_example()
        assert result.scalar_cost == pytest.approx(9.1)
        assert result.first_vectorization_cost == pytest.approx(8.1)
        assert result.second_vectorization_cost == pytest.approx(10.1)
        # The first vectorization is the beneficial one; the second is worse
        # than the scalar form -- not all vectorizations are equal.
        assert result.first_vectorization_cost < result.scalar_cost < result.second_vectorization_cost
        assert 0.0 <= result.compiled_cost_improvement <= 1.0
