"""P-PREP — per-run dataset preparation vs. the shared PreparedDataset plan.

Times the pipeline change of the shared-plan PR: the seed path rebuilt the
O(m·n²) pairwise weight matrices inside *every* ``aggregate()`` call (once
per algorithm, again for the post-run Kemeny score), while the plan path
builds one :class:`repro.core.PreparedDataset` per dataset and threads it
through the whole algorithm batch.

Three benchmark families:

* **cold multi-algorithm batch** at figure-2 scale (m = 7 rankings, n on
  the paper's scaling grid up to n = 500): the *prepared catalog* — the
  algorithms whose kernels this PR moved onto the plan (BordaCount,
  CopelandMethod, MEDRank 0.5/0.7, Pick-a-Perm, RepeatChoice, KwikSort) —
  run back-to-back on one fresh dataset.  The seed cell replays the
  pre-plan pipeline exactly: fresh ``PairwiseWeights`` per call, the seed
  scalar kernels (the test suite's oracles, ``tests/oracles``),
  tensor-path scoring.  The plan cell builds the plan once
  (inside the timed region — the batch is cold) and aggregates through it.
* **ExactSubsetDP** at n = 12/14: the pure-Python ``n·2^n`` rowsum loops
  and per-subset popcount walks of the seed kernel (``ExactSubsetDPOracle``)
  against the NumPy bitmask subset-sum DP.
* **ExactSubsetDP level pass** at n = 13, m = 50 (n = 9 at smoke): the
  per-state loop (``ExactSubsetDPStateLoopOracle``, one Python iteration
  per subset) against the level-synchronous kernel, which scores every
  (state, submask) pair of one popcount level in fixed-size blocks.

Outputs of both paths are asserted identical in the same run.  At
``--scale default`` (and above) the acceptance floors are enforced: the
cold batch must be ≥ 5× faster at the figure-2 grid cells (n = 400, 500),
ExactSubsetDP ≥ 2× at n = 12 and the level pass ≥ 3× at n = 13; the run
fails if they regress.  The ``smoke`` grid keeps CI runs in seconds and
asserts output equality only (shared CI runners make absolute timings
unreliable).

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_prepared_reuse.py \
        --benchmark-only -s
    # or, standalone:
    PYTHONPATH=src python benchmarks/bench_prepared_reuse.py --scale smoke
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time
from pathlib import Path

from repro.algorithms.exact_dp import ExactSubsetDP
from repro.algorithms.registry import make_algorithm
from repro.core.kemeny import generalized_kemeny_score
from repro.core.pairwise import PairwiseWeights
from repro.core.prepared import plan_build_count, prepare_rankings
from repro.experiments.report import format_table
from repro.generators.uniform import uniform_dataset

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from oracles import (  # noqa: E402
    BordaCountOracle,
    CopelandMethodOracle,
    ExactSubsetDPOracle,
    ExactSubsetDPStateLoopOracle,
    KwikSortOracle,
    MEDRankOracle,
    PickAPermOracle,
    RepeatChoiceOracle,
)

_DEFAULT_OUTPUT = Path(__file__).resolve().parent / "BENCH_prepare.json"

# The algorithms whose hot paths consume the shared plan (dense positional
# kernels, vectorised pivot placement, batched candidate scoring).  MC4 and
# FaginDyn run through the plan too but are dominated by their own
# iteration/DP cost, so they are not part of the asserted batch.
PREPARED_SUITE: tuple[str, ...] = (
    "BordaCount",
    "CopelandMethod",
    "MEDRank(0.5)",
    "MEDRank(0.7)",
    "Pick-a-Perm",
    "RepeatChoice",
    "KwikSort",
)

# The seed kernel of every suite member, configured as the registry entry.
_SEED_KERNELS = {
    "BordaCount": lambda seed: BordaCountOracle(seed=seed),
    "CopelandMethod": lambda seed: CopelandMethodOracle(seed=seed),
    "MEDRank(0.5)": lambda seed: MEDRankOracle(0.5, seed=seed),
    "MEDRank(0.7)": lambda seed: MEDRankOracle(0.7, seed=seed),
    "Pick-a-Perm": lambda seed: PickAPermOracle(seed=seed),
    "RepeatChoice": lambda seed: RepeatChoiceOracle(seed=seed),
    "KwikSort": lambda seed: KwikSortOracle(seed=seed),
}

# (n, m) batch cells per scale; m = 7 as in the paper's figure 2, n on the
# paper grid (which tops out at n = 400; 500 matches the "rankings of up to
# 500 elements" the paper's dataset description quotes).
_BATCH_GRID = {
    "smoke": [(60, 7), (100, 7)],
    "default": [(200, 7), (400, 7), (500, 7)],
    "paper": [(100, 7), (200, 7), (300, 7), (400, 7), (500, 7)],
}
_DP_GRID = {
    "smoke": [9],
    "default": [12, 14],
    "paper": [12, 14],
}
# (n, m) of the level-pass cell per scale: the size of batch-paper's
# largest exact gap dataset.
_LEVEL_GRID = {
    "smoke": [(9, 50)],
    "default": [(13, 50)],
    "paper": [(13, 50)],
}
# Speedup floors asserted at scale "default" and above.
_BATCH_FLOORS = {400: 5.0, 500: 5.0}
_DP_FLOORS = {12: 2.0}
_LEVEL_FLOORS = {13: 3.0}
_FLOORS = {
    "prepared_batch": _BATCH_FLOORS,
    "exact_subset_dp": _DP_FLOORS,
    "exact_subset_dp_levels": _LEVEL_FLOORS,
}

_BENCH_SEED_OFFSET = 77


def _median_seconds(function, repeats: int) -> float:
    timings = []
    for _ in range(repeats):
        start = time.perf_counter()
        function()
        timings.append(time.perf_counter() - start)
    return statistics.median(timings)


def _seed_batch(rankings, algorithm_seed: int) -> int:
    """The pre-plan pipeline: per-call weights build, seed kernels,
    tensor-path scoring — exactly what ``aggregate()`` did at the seed."""
    total = 0
    for name in PREPARED_SUITE:
        algorithm = _SEED_KERNELS[name](algorithm_seed)
        weights = PairwiseWeights(rankings)
        consensus = algorithm._aggregate(rankings, weights)
        total += generalized_kemeny_score(consensus, rankings)
    return total


def _plan_batch(rankings, algorithm_seed: int) -> int:
    """The shared-plan pipeline, cold: one plan build, then the whole suite."""
    total = 0
    plan = prepare_rankings(rankings)
    for name in PREPARED_SUITE:
        result = make_algorithm(name, seed=algorithm_seed).aggregate(
            rankings, prepared=plan
        )
        total += result.score
    return total


def _bench_batches(grid, bench_seed: int):
    cells = []
    for n, m in grid:
        dataset = uniform_dataset(m, n, rng=bench_seed, name=f"prep_batch_n{n}_m{m}")
        rankings = list(dataset.rankings)
        algorithm_seed = bench_seed + _BENCH_SEED_OFFSET
        builds_before = plan_build_count()
        total_plan = _plan_batch(rankings, algorithm_seed)
        builds = plan_build_count() - builds_before
        total_seed = _seed_batch(rankings, algorithm_seed)
        assert total_plan == total_seed, (
            f"plan batch diverged from the seed pipeline at (n={n}, m={m}): "
            f"{total_plan} != {total_seed}"
        )
        repeats = 5
        seconds_seed = _median_seconds(
            lambda: _seed_batch(rankings, algorithm_seed), repeats
        )
        seconds_plan = _median_seconds(
            lambda: _plan_batch(rankings, algorithm_seed), repeats
        )
        cells.append(
            {
                "kernel": "prepared_batch",
                "n": n,
                "m": m,
                "algorithms": list(PREPARED_SUITE),
                "plan_builds_per_batch": builds,
                "seconds_seed_median": seconds_seed,
                "seconds_prepared_median": seconds_plan,
                "speedup": seconds_seed / seconds_plan,
                "identical_output": True,
                "repeats": repeats,
            }
        )
    return cells


def _bench_dp_cell(kernel: str, reference, n: int, m: int, bench_seed: int, *, repeats: int):
    """Time ``ExactSubsetDP`` against the ``reference`` kernel on one
    uniform dataset, after asserting that both return the same solution."""
    dataset = uniform_dataset(m, n, rng=bench_seed + 1, name=f"prep_dp_n{n}")
    rankings = list(dataset.rankings)
    bitmask = ExactSubsetDP()
    result_bitmask = bitmask.aggregate(rankings)   # warm-up + output check
    result_reference = reference.aggregate(rankings)
    assert result_bitmask.consensus.buckets == result_reference.consensus.buckets
    assert result_bitmask.score == result_reference.score
    seconds_bitmask = _median_seconds(lambda: bitmask.aggregate(rankings), repeats)
    seconds_reference = _median_seconds(lambda: reference.aggregate(rankings), repeats)
    return {
        "kernel": kernel,
        "n": n,
        "m": m,
        "seconds_seed_median": seconds_reference,
        "seconds_prepared_median": seconds_bitmask,
        "speedup": seconds_reference / seconds_bitmask,
        "identical_output": True,
        "repeats": repeats,
    }


def run_prepared_benchmark(scale_name: str, bench_seed: int = 2015) -> dict:
    """Run the full grid for ``scale_name`` and return the JSON payload."""
    batch_grid = _BATCH_GRID.get(scale_name, _BATCH_GRID["smoke"])
    dp_grid = _DP_GRID.get(scale_name, _DP_GRID["smoke"])
    level_grid = _LEVEL_GRID.get(scale_name, _LEVEL_GRID["smoke"])
    cells = _bench_batches(batch_grid, bench_seed)
    cells += [
        _bench_dp_cell("exact_subset_dp", ExactSubsetDPOracle(), n, 7, bench_seed,
                       repeats=1 if n >= 12 else 3)
        for n in dp_grid
    ]
    cells += [
        _bench_dp_cell("exact_subset_dp_levels", ExactSubsetDPStateLoopOracle(), n, m,
                       bench_seed, repeats=5)
        for n, m in level_grid
    ]
    payload = {
        "schema": "repro-bench-prepare/1",
        "scale": scale_name,
        "seed": bench_seed,
        "batch_suite": list(PREPARED_SUITE),
        "floors": {
            kernel: {str(n): floor for n, floor in floors.items()}
            for kernel, floors in _FLOORS.items()
        },
        "cells": cells,
    }
    if scale_name != "smoke":
        for cell in cells:
            floor = _FLOORS[cell["kernel"]].get(cell["n"])
            if floor is not None:
                assert cell["speedup"] >= floor, (
                    f"{cell['kernel']} at (n={cell['n']}, m={cell['m']}) regressed: "
                    f"{cell['speedup']:.1f}x < required {floor:.0f}x"
                )
        for cell in cells:
            if cell["kernel"] == "prepared_batch":
                assert cell["plan_builds_per_batch"] == 1, (
                    f"cold batch at (n={cell['n']}, m={cell['m']}) built "
                    f"{cell['plan_builds_per_batch']} plans; expected exactly 1"
                )
    return payload


def write_payload(payload: dict, output: Path | None = None) -> Path:
    # An explicit output path (e.g. --output) beats the ambient env var.
    if output is not None:
        path = Path(output)
    else:
        path = Path(os.environ.get("REPRO_BENCH_PREPARE_JSON", _DEFAULT_OUTPUT))
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return path


def _print_payload(payload: dict) -> None:
    rows = [
        {
            "kernel": cell["kernel"],
            "n": cell["n"],
            "m": cell["m"],
            "seed": f"{cell['seconds_seed_median']:.4f}s",
            "prepared": f"{cell['seconds_prepared_median']:.4f}s",
            "speedup": f"{cell['speedup']:.1f}x",
        }
        for cell in payload["cells"]
    ]
    print()
    print(
        format_table(
            rows,
            [
                ("kernel", "Kernel"),
                ("n", "n"),
                ("m", "m"),
                ("seed", "Seed (median)"),
                ("prepared", "Prepared (median)"),
                ("speedup", "Speedup"),
            ],
            title="Prepared plans — per-run rebuilds vs shared PreparedDataset",
        )
    )


def bench_prepared_reuse(benchmark, bench_scale, bench_seed):
    """pytest-benchmark entry point: one timed pass over the whole grid."""
    payload = benchmark.pedantic(
        lambda: run_prepared_benchmark(bench_scale.name, bench_seed),
        rounds=1,
        iterations=1,
    )
    path = write_payload(payload)
    _print_payload(payload)
    print(f"machine-readable timings written to {path}")


def main() -> None:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", default=os.environ.get("REPRO_BENCH_SCALE", "smoke"))
    parser.add_argument("--seed", type=int, default=2015)
    parser.add_argument("--output", type=Path, default=None)
    arguments = parser.parse_args()
    payload = run_prepared_benchmark(arguments.scale, arguments.seed)
    path = write_payload(payload, arguments.output)
    _print_payload(payload)
    print(f"machine-readable timings written to {path}")


if __name__ == "__main__":
    main()
