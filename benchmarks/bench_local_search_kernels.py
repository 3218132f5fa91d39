"""K-KERN — seed reference kernels vs. the dense array kernels.

Times the hot paths this repository moved onto :mod:`repro.core.arrays`
against the seed implementations, which live on as the test suite's scalar
oracles (``tests/oracles``):

* **BioConsert** end-to-end aggregation, the seed list-of-buckets sweep
  (``BioConsertOracle``) against the bucket-id vector + segment sums;
* **Chanas** end-to-end aggregation, the element-by-element list sort pass
  (``ChanasOracle``) against the gap-cost table;
* **chanas-warm** at (n=200, m=50), a completed warm-started Chanas run
  after one ranking is replaced — the search a live repair runs — on the
  same two sort passes;
* **pairwise_distance_matrix**, the per-pair oracle loop against the
  batched all-pairs tensor kernel;
* **bioconsert-multistart** at (n=100, m=50), the lockstep lanes of
  ``BioConsert().aggregate`` against the same starts searched one lane at a
  time through ``anytime_refine``, each sweep scored.

Every (kernel, n, m) cell is timed over a few repeats and the **median**
timings are written to a machine-readable ``BENCH_kernels.json`` (path
overridable through ``REPRO_BENCH_KERNELS_JSON``) so future PRs can track
the performance trajectory.  Outputs of both paths are asserted identical
in the same run — the speedups are never bought with a different result.

At ``REPRO_BENCH_SCALE=default`` (and above) the grid includes the
acceptance cells of the PR that introduced the array layer — BioConsert at
(n=200, m=20) must be ≥ 5× faster than the seed kernel and
``pairwise_distance_matrix`` over 50 rankings of n=200 must be ≥ 10×
faster, the lockstep multi-start BioConsert at (n=100, m=50) must be
≥ 3× faster than its starts run one at a time, and Chanas at (n=200, m=20)
must be ≥ 2× faster than its oracle — and the run fails if those floors
regress.  The ``smoke`` grid
keeps CI runs in seconds and does not assert speedup floors (shared CI
runners make absolute timings unreliable), only output equality.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_local_search_kernels.py \
        --benchmark-only -s
    # or, standalone:
    PYTHONPATH=src python benchmarks/bench_local_search_kernels.py --scale smoke
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from repro.algorithms import BioConsert, Chanas
from repro.core import PairwiseWeights, pairwise_distance_matrix
from repro.experiments.report import format_table
from repro.generators.uniform import uniform_dataset

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from oracles import (  # noqa: E402
    BioConsertOracle,
    ChanasOracle,
    pairwise_distance_matrix_reference,
)

_DEFAULT_OUTPUT = Path(__file__).resolve().parent / "BENCH_kernels.json"

# (n, m) grids per scale.  The default/paper grids contain the acceptance
# cells: BioConsert (200, 20) and the 50×n=200 distance matrix.
_LOCAL_SEARCH_GRID = {
    "smoke": [(40, 8), (60, 10)],
    "default": [(60, 10), (120, 15), (200, 20)],
    "paper": [(60, 10), (120, 15), (200, 20), (300, 20)],
}
_DISTANCE_GRID = {
    "smoke": [(100, 20)],
    "default": [(100, 20), (200, 50)],
    "paper": [(100, 20), (200, 50), (400, 100)],
}
# The lockstep multi-start cell (n, m): every scale runs it.
_MULTISTART_CELL = (100, 50)
# The warm-started Chanas cell (n, m): every scale runs it.
_CHANAS_WARM_CELL = (200, 50)
# Speedup floors (vs. the seed implementation, or vs. one start at a time
# for the multi-start cell) asserted per acceptance cell at scale "default"
# and above.
_SPEEDUP_FLOORS = {
    ("bioconsert", 200, 20): 5.0,
    ("pairwise_distance_matrix", 200, 50): 10.0,
    ("bioconsert-multistart", 100, 50): 3.0,
    ("chanas", 200, 20): 2.0,
}


def _seed_distance_matrix(rankings) -> np.ndarray:
    """The seed ``pairwise_distance_matrix``: one call per pair, each call
    re-encoding both rankings over ``list(domain)`` and materialising
    ``np.triu_indices`` — the baseline the acceptance floors refer to.

    (The oracle ``pairwise_distance_matrix_reference`` per-pair loop
    is itself faster than this seed path: it benefits from the cached dense
    encodings and the triu-free counting kernel, and is timed separately.)
    """
    m = len(rankings)
    matrix = np.zeros((m, m), dtype=np.int64)
    for i in range(m):
        for j in range(i + 1, m):
            r, s = rankings[i], rankings[j]
            elements = list(r.domain)
            pos_r = np.fromiter((r.position_of(e) for e in elements), dtype=np.int64)
            pos_s = np.fromiter((s.position_of(e) for e in elements), dtype=np.int64)
            n = pos_r.shape[0]
            if n < 2:
                continue
            diff_r = np.sign(pos_r[:, None] - pos_r[None, :])
            diff_s = np.sign(pos_s[:, None] - pos_s[None, :])
            upper = np.triu_indices(n, k=1)
            dr = diff_r[upper]
            ds = diff_s[upper]
            distance = int(
                np.count_nonzero(dr * ds < 0) + np.count_nonzero((dr == 0) ^ (ds == 0))
            )
            matrix[i, j] = matrix[j, i] = distance
    return matrix


def _median_seconds(function, repeats: int) -> float:
    timings = []
    for _ in range(repeats):
        start = time.perf_counter()
        function()
        timings.append(time.perf_counter() - start)
    return statistics.median(timings)


def _repeats_for(n: int, m: int) -> int:
    # Keep big reference cells affordable: one timing is enough when the
    # expected speedup dwarfs run-to-run noise.
    return 1 if n * m >= 2400 else 3


def _bench_local_search(arrays, reference, kernel_name: str, grid, bench_seed: int):
    cells = []
    for n, m in grid:
        dataset = uniform_dataset(m, n, rng=bench_seed, name=f"kern_{kernel_name}_n{n}_m{m}")
        result_arrays = arrays.aggregate(dataset)      # warm-up + output check
        result_reference = reference.aggregate(dataset)
        assert result_arrays.consensus == result_reference.consensus
        assert result_arrays.score == result_reference.score
        repeats = _repeats_for(n, m)
        seconds_arrays = _median_seconds(lambda: arrays.aggregate(dataset), repeats)
        seconds_reference = _median_seconds(lambda: reference.aggregate(dataset), repeats)
        cells.append(
            {
                "kernel": kernel_name,
                "n": n,
                "m": m,
                "seconds_reference_median": seconds_reference,
                "seconds_arrays_median": seconds_arrays,
                "speedup": seconds_reference / seconds_arrays,
                "identical_output": True,
                "repeats": repeats,
            }
        )
    return cells


def _bench_distance_matrix(grid, bench_seed: int):
    cells = []
    for n, m in grid:
        dataset = uniform_dataset(m, n, rng=bench_seed + 1, name=f"kern_dist_n{n}_m{m}")
        rankings = list(dataset.rankings)
        batched = pairwise_distance_matrix(rankings)
        assert (batched == pairwise_distance_matrix_reference(rankings)).all()
        assert (batched == _seed_distance_matrix(rankings)).all()
        repeats = 3
        seconds_arrays = _median_seconds(lambda: pairwise_distance_matrix(rankings), repeats)
        seconds_reference = _median_seconds(
            lambda: pairwise_distance_matrix_reference(rankings), repeats
        )
        seconds_seed = _median_seconds(lambda: _seed_distance_matrix(rankings), repeats)
        cells.append(
            {
                "kernel": "pairwise_distance_matrix",
                "n": n,
                "m": m,
                "seconds_seed_median": seconds_seed,
                "seconds_reference_median": seconds_reference,
                "seconds_arrays_median": seconds_arrays,
                "speedup": seconds_seed / seconds_arrays,
                "speedup_vs_reference": seconds_reference / seconds_arrays,
                "identical_output": True,
                "repeats": repeats,
            }
        )
    return cells


def _one_start_at_a_time(rankings, weights):
    """BioConsert's starts searched one lane at a time, best score kept.

    Each start's trajectory is drained through ``anytime_refine`` (one
    scored sweep per item); the earliest start wins score ties, as in
    ``BioConsert().aggregate``.
    """
    algorithm = BioConsert()
    best, best_score = None, None
    for start in dict.fromkeys(rankings):
        for candidate, score in algorithm.anytime_refine(start, weights):
            pass
        if best_score is None or score < best_score:
            best, best_score = candidate, score
    return best, best_score


def _bench_multistart(bench_seed: int):
    n, m = _MULTISTART_CELL
    dataset = uniform_dataset(m, n, rng=bench_seed + 2, name=f"kern_multistart_n{n}_m{m}")
    rankings = list(dataset.rankings)
    weights = PairwiseWeights(rankings)
    lanes = BioConsert()
    result = lanes.aggregate(dataset)  # warm-up (builds the plan) + output check
    consensus, score = _one_start_at_a_time(rankings, weights)
    assert result.consensus.buckets == consensus.buckets
    assert result.score == score
    repeats = _repeats_for(n, m)
    seconds_lanes = _median_seconds(lambda: lanes.aggregate(dataset), repeats)
    seconds_one_at_a_time = _median_seconds(
        lambda: _one_start_at_a_time(rankings, weights), repeats
    )
    return [
        {
            "kernel": "bioconsert-multistart",
            "n": n,
            "m": m,
            "seconds_reference_median": seconds_one_at_a_time,
            "seconds_arrays_median": seconds_lanes,
            "speedup": seconds_one_at_a_time / seconds_lanes,
            "identical_output": True,
            "repeats": repeats,
        }
    ]


def _warm_chanas_run(algorithm, rankings, weights, initial):
    """A completed warm-started anytime run: the ``initial`` trajectory,
    then the cold Borda one, as a live repair without a budget runs them."""
    controller = algorithm.begin_anytime(rankings, weights, initial=initial)
    while controller.step():
        pass
    return controller.result()


def _bench_chanas_warm(bench_seed: int):
    n, m = _CHANAS_WARM_CELL
    dataset = uniform_dataset(m, n, rng=bench_seed + 3, name=f"kern_chanas_warm_n{n}_m{m}")
    rankings = list(dataset.rankings)
    previous = Chanas().aggregate(rankings).consensus
    rankings[0] = uniform_dataset(1, n, rng=bench_seed + 4, name="replacement").rankings[0]
    weights = PairwiseWeights(rankings)
    arrays, reference = Chanas(), ChanasOracle()
    result = _warm_chanas_run(arrays, rankings, weights, previous)  # warm-up + output check
    result_reference = _warm_chanas_run(reference, rankings, weights, previous)
    assert result.consensus.buckets == result_reference.consensus.buckets
    assert result.score == result_reference.score
    assert result.details["steps"] == result_reference.details["steps"]
    repeats = 3
    seconds_arrays = _median_seconds(
        lambda: _warm_chanas_run(arrays, rankings, weights, previous), repeats
    )
    seconds_reference = _median_seconds(
        lambda: _warm_chanas_run(reference, rankings, weights, previous), repeats
    )
    return [
        {
            "kernel": "chanas-warm",
            "n": n,
            "m": m,
            "seconds_reference_median": seconds_reference,
            "seconds_arrays_median": seconds_arrays,
            "speedup": seconds_reference / seconds_arrays,
            "identical_output": True,
            "repeats": repeats,
        }
    ]


def run_kernel_benchmark(scale_name: str, bench_seed: int = 2015) -> dict:
    """Run the full grid for ``scale_name`` and return the JSON payload."""
    local_grid = _LOCAL_SEARCH_GRID.get(scale_name, _LOCAL_SEARCH_GRID["smoke"])
    distance_grid = _DISTANCE_GRID.get(scale_name, _DISTANCE_GRID["smoke"])
    cells = []
    cells += _bench_local_search(
        BioConsert(), BioConsertOracle(), "bioconsert", local_grid, bench_seed
    )
    cells += _bench_local_search(
        Chanas(), ChanasOracle(), "chanas", local_grid, bench_seed
    )
    cells += _bench_distance_matrix(distance_grid, bench_seed)
    cells += _bench_multistart(bench_seed)
    cells += _bench_chanas_warm(bench_seed)
    payload = {
        "schema": "repro-bench-kernels/1",
        "scale": scale_name,
        "seed": bench_seed,
        "cells": cells,
    }
    if scale_name != "smoke":
        for cell in cells:
            floor = _SPEEDUP_FLOORS.get((cell["kernel"], cell["n"], cell["m"]))
            if floor is not None:
                assert cell["speedup"] >= floor, (
                    f"{cell['kernel']} at (n={cell['n']}, m={cell['m']}) regressed: "
                    f"{cell['speedup']:.1f}x < required {floor:.0f}x"
                )
    return payload


def write_payload(payload: dict, output: Path | None = None) -> Path:
    # An explicit output path (e.g. --output) beats the ambient env var.
    if output is not None:
        path = Path(output)
    else:
        path = Path(os.environ.get("REPRO_BENCH_KERNELS_JSON", _DEFAULT_OUTPUT))
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return path


def _print_payload(payload: dict) -> None:
    rows = [
        {
            "kernel": cell["kernel"],
            "n": cell["n"],
            "m": cell["m"],
            "seed": (
                f"{cell['seconds_seed_median']:.4f}s"
                if "seconds_seed_median" in cell
                else f"{cell['seconds_reference_median']:.4f}s"
            ),
            "arrays": f"{cell['seconds_arrays_median']:.4f}s",
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
                ("arrays", "Arrays (median)"),
                ("speedup", "Speedup"),
            ],
            title="Kernels — seed implementations vs dense array kernels",
        )
    )


def bench_local_search_kernels(benchmark, bench_scale, bench_seed):
    """pytest-benchmark entry point: one timed pass over the whole grid."""
    payload = benchmark.pedantic(
        lambda: run_kernel_benchmark(bench_scale.name, bench_seed),
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
    payload = run_kernel_benchmark(arguments.scale, arguments.seed)
    path = write_payload(payload, arguments.output)
    _print_payload(payload)
    print(f"machine-readable timings written to {path}")


if __name__ == "__main__":
    main()
