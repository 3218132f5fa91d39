"""Tests for the command-line interface."""

from __future__ import annotations

import json
import threading
import time
import urllib.request

import pytest

from repro.cli import build_parser, main
from repro.datasets import dumps, save_dataset
from repro.generators import uniform_dataset


@pytest.fixture
def dataset_file(tmp_path, paper_example_dataset):
    return save_dataset(paper_example_dataset, tmp_path / "example.txt")


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_aggregate_defaults(self):
        args = build_parser().parse_args(["aggregate", "file.txt"])
        assert args.algorithm == "BioConsert"
        assert args.normalize is None

    def test_version_flag(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_batch_defaults(self):
        args = build_parser().parse_args(["batch", "table5"])
        assert args.experiments == ["table5"]
        assert args.backend == "serial"
        assert args.workers is None
        assert not args.no_cache


class TestAggregateCommand:
    def test_aggregate_prints_consensus(self, dataset_file, capsys):
        assert main(["aggregate", str(dataset_file), "--algorithm", "BordaCount"]) == 0
        output = capsys.readouterr().out
        assert "BordaCount" in output
        assert "consensus:" in output

    def test_aggregate_incomplete_dataset_auto_unifies(self, tmp_path, raw_table3_dataset, capsys):
        path = save_dataset(raw_table3_dataset, tmp_path / "raw.txt")
        assert main(["aggregate", str(path), "--algorithm", "BordaCount"]) == 0
        assert "consensus:" in capsys.readouterr().out

    def test_aggregate_with_normalization(self, tmp_path, raw_table3_dataset, capsys):
        path = save_dataset(raw_table3_dataset, tmp_path / "raw.txt")
        assert main(
            ["aggregate", str(path), "--normalize", "projection", "--algorithm", "BordaCount"]
        ) == 0
        assert "consensus:" in capsys.readouterr().out


class TestOtherCommands:
    def test_describe(self, dataset_file, capsys):
        assert main(["describe", str(dataset_file)]) == 0
        output = capsys.readouterr().out
        assert "num_rankings: 3" in output

    def test_recommend(self, dataset_file, capsys):
        assert main(["recommend", str(dataset_file)]) == 0
        assert "BioConsert" in capsys.readouterr().out

    def test_generate_to_stdout(self, capsys):
        assert main(["generate", "uniform", "-m", "3", "-n", "5", "--seed", "1"]) == 0
        output = capsys.readouterr().out
        assert output.count("[[") == 3

    def test_generate_markov_to_file(self, tmp_path, capsys):
        target = tmp_path / "markov.txt"
        assert main(
            ["generate", "markov", "-m", "3", "-n", "6", "-t", "20", "--seed", "1",
             "-o", str(target)]
        ) == 0
        assert target.exists()
        assert "wrote 3 rankings" in capsys.readouterr().out

    def test_generate_unified_topk(self, capsys):
        assert main(
            ["generate", "unified-topk", "-m", "3", "-n", "12", "-k", "4", "-t", "50",
             "--seed", "1"]
        ) == 0
        assert "[[" in capsys.readouterr().out

    def test_catalogue(self, capsys):
        assert main(["catalogue"]) == 0
        output = capsys.readouterr().out
        assert "Table 1" in output
        assert "BioConsert" in output

    def test_experiment_figure3_smoke(self, capsys):
        assert main(["experiment", "figure3", "--scale", "smoke", "--seed", "1"]) == 0
        assert "Figure 3" in capsys.readouterr().out


class TestBatchCommand:
    def _batch(self, tmp_path, *extra):
        return [
            "batch",
            "figure6",
            "--scale",
            "smoke",
            "--seed",
            "1",
            "--cache-dir",
            str(tmp_path / "cache"),
            *extra,
        ]

    def test_batch_cold_then_warm(self, tmp_path, capsys):
        assert main(self._batch(tmp_path)) == 0
        cold = capsys.readouterr().out
        assert "Figure 6" in cold
        assert "engine summary:" in cold
        assert "from cache:  0" in cold

        assert main(self._batch(tmp_path)) == 0
        warm = capsys.readouterr().out
        assert "executed:    0" in warm
        assert "hit rate:    100.0%" in warm
        # The warm re-run prints the exact same experiment table.
        assert cold.split("engine summary:")[0] == warm.split("engine summary:")[0]

    def test_batch_parallel_backend_matches_serial(self, tmp_path, capsys):
        """`--backend process --workers 4` prints byte-identical tables.

        Uses table5, whose table (like Table 4's) carries no wall-clock
        column: timings are the one thing the determinism guarantee
        excludes (figure6's time column differs across backends).
        """
        command = ["batch", "table5", "--scale", "smoke", "--seed", "1"]
        assert main(
            [*command, "--cache-dir", str(tmp_path / "a"), "--backend", "serial"]
        ) == 0
        serial = capsys.readouterr().out.split("engine summary:")[0]
        assert main(
            [*command, "--cache-dir", str(tmp_path / "b"),
             "--backend", "process", "--workers", "4"]
        ) == 0
        process = capsys.readouterr().out.split("engine summary:")[0]
        assert serial == process

    def test_batch_no_cache(self, tmp_path, capsys):
        assert main(self._batch(tmp_path, "--no-cache")) == 0
        assert "cache dir" not in capsys.readouterr().out
        assert not (tmp_path / "cache").exists()


class TestCacheCommand:
    def test_stats_and_clear(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        assert main(
            ["batch", "figure6", "--scale", "smoke", "--seed", "1",
             "--cache-dir", cache_dir]
        ) == 0
        capsys.readouterr()

        assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        stats = capsys.readouterr().out
        assert "entries:" in stats and "entries: 0" not in stats

        assert main(["cache", "clear", "--cache-dir", cache_dir]) == 0
        assert "removed" in capsys.readouterr().out

        assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        assert "entries: 0" in capsys.readouterr().out

    def test_clear_single_algorithm(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        assert main(
            ["batch", "figure6", "--scale", "smoke", "--seed", "1",
             "--cache-dir", cache_dir]
        ) == 0
        capsys.readouterr()
        assert main(
            ["cache", "clear", "--cache-dir", cache_dir, "--algorithm", "BioConsert"]
        ) == 0
        output = capsys.readouterr().out
        assert "'BioConsert'" in output


class TestPortfolioCommand:
    def test_portfolio_prints_winner_and_consensus(self, dataset_file, capsys):
        assert main(
            ["portfolio", str(dataset_file), "--budget", "0.5", "--seed", "1"]
        ) == 0
        output = capsys.readouterr().out
        assert "winner:" in output
        assert "members:" in output
        assert "consensus:" in output

    def test_portfolio_respects_budget_against_exponential_solvers(self, tmp_path, capsys):
        # Default-scale-sized dataset: the exact solver alone would blow a
        # 0.5 s budget, so the portfolio must skip it and still answer.
        dataset = uniform_dataset(7, 20, 11)
        path = save_dataset(dataset, tmp_path / "big.txt")
        assert main(
            ["portfolio", str(path), "--budget", "0.5",
             "--priority", "optimality", "--seed", "1"]
        ) == 0
        output = capsys.readouterr().out
        assert "skipped" in output  # the exact member never started
        assert "consensus:" in output

    def test_portfolio_explicit_candidates(self, dataset_file, capsys):
        assert main(
            ["portfolio", str(dataset_file), "--budget", "1.0",
             "--algorithms", "BordaCount", "Chanas", "--seed", "2"]
        ) == 0
        output = capsys.readouterr().out
        assert "Chanas" in output and "BordaCount" in output


class TestServeCommand:
    def test_serve_cold_then_warm(self, tmp_path, capsys):
        command = [
            "serve", "--scenario", "mallows-ties-diffuse", "--requests", "10",
            "--budget", "0.1", "--batch-size", "4", "--seed", "3",
            "--cache-dir", str(tmp_path / "cache"),
            "--output", str(tmp_path / "load.json"),
        ]
        assert main(command) == 0
        cold = capsys.readouterr().out
        assert "service load" in cold
        assert "hit rate:" in cold
        assert (tmp_path / "load.json").exists()

        assert main(command[:-2]) == 0  # warm re-run, no --output
        warm = capsys.readouterr().out
        assert "hit rate:          100.0%" in warm

    def test_serve_no_cache(self, tmp_path, capsys):
        assert main(
            ["serve", "--scenario", "mallows-ties-diffuse", "--requests", "6",
             "--budget", "0.1", "--no-cache", "--seed", "3"]
        ) == 0
        assert "by source:" in capsys.readouterr().out


class TestServeHttpCommand:
    def test_drains_after_max_requests_and_prints_counts(self, tmp_path, capsys):
        port_file = tmp_path / "port"
        answers = []

        def client():
            for _ in range(500):
                if port_file.exists() and port_file.read_text().endswith("\n"):
                    break
                time.sleep(0.01)
            body = json.dumps(
                {"dataset": dumps(uniform_dataset(4, 6, 1), include_header=False)}
            ).encode()
            url = f"http://127.0.0.1:{int(port_file.read_text())}/aggregate"
            with urllib.request.urlopen(url, data=body, timeout=30) as response:
                answers.append(json.load(response))

        thread = threading.Thread(target=client)
        thread.start()
        code = main(
            ["serve-http", "--port", "0", "--port-file", str(port_file),
             "--shards", "1", "--max-requests", "1", "--budget", "0.05",
             "--cache-dir", str(tmp_path / "cache")]
        )
        thread.join()
        assert code == 0
        assert answers and answers[0]["status"] == "ok"
        output = capsys.readouterr().out
        assert "drained — requests=1 ok=1 rejected=0" in output
        assert not port_file.exists()


class TestScenarioRunFailures:
    def test_failed_runs_exit_nonzero(self, tmp_path, capsys):
        from repro.workloads import register_scenario, unregister_scenario

        @register_scenario(
            "cli-test-failing",
            family="uniform",
            description="datasets too large for the DP solver (test only)",
            expected={"complete": True},
        )
        def _build(scale, rng, index):
            return uniform_dataset(3, 18, int(rng.integers(2**31)))

        try:
            code = main(
                ["scenarios", "run", "--scenario", "cli-test-failing",
                 "--algorithms", "ExactSubsetDP", "--matrix", "smoke",
                 "--no-cache", "--output", str(tmp_path / "report.json")]
            )
        finally:
            unregister_scenario("cli-test-failing")
        assert code == 3
        captured = capsys.readouterr()
        assert "run(s) failed" in captured.err
        assert "ExactSubsetDP" in captured.err

    def test_shape_violation_exits_nonzero(self, tmp_path, capsys):
        from repro.workloads import register_scenario, unregister_scenario

        @register_scenario(
            "cli-test-misshapen",
            family="uniform",
            description="expected shape can never hold (test only)",
            expected={"complete": True, "min_elements": 999},
        )
        def _build(scale, rng, index):
            return uniform_dataset(3, 5, int(rng.integers(2**31)))

        try:
            code = main(
                ["scenarios", "run", "--scenario", "cli-test-misshapen",
                 "--matrix", "smoke", "--no-cache",
                 "--output", str(tmp_path / "report.json")]
            )
        finally:
            unregister_scenario("cli-test-misshapen")
        assert code == 2
        assert "scenario validation failed" in capsys.readouterr().err
