"""LIVE — streaming mutation cost and warm-started consensus repair.

Exercises the two performance contracts of the live-dataset layer
(:class:`~repro.core.LiveDataset` + anytime warm starts):

* **delta maintenance** — a single streamed mutation (``update_ranking``)
  refreshes the O(n²) pairwise-weight planes by subtracting/adding the
  touched ranking's comparison plane instead of re-running the full
  O(m·n²) preparation.  The benchmark replays a stream of updates over a
  uniform dataset with ``m >= 200`` rankings, timing each delta against a
  from-scratch ``prepare_rankings`` rebuild of the same content, and
  asserts the median delta is at least **10× faster** (the acceptance
  floor of the PR that introduced live datasets).  It also re-checks the
  correctness contract: the maintained planes stay byte-identical to the
  rebuild.
* **warm repair** — after one mutation invalidates a converged consensus,
  an anytime search warm-started from the stale consensus must reach the
  cold run's final generalized Kemeny score in at most **50 %** of the
  cold run's wall-clock.  The benchmark steps both controllers explicitly
  and records the time-to-target.
* **invalidation** — each acknowledged write purges the cached answers of
  the old content with ``ResultCache.invalidate(dataset_fingerprint=...)``.
  The benchmark invalidates one fingerprint holding 3 records in disk
  tiers that also hold 20 and then 2,000 unrelated records, timing the
  call and counting the record files it opens.  Through the cache's
  dataset index it must open exactly the 3 matching records at both sizes
  — a deterministic count, not a timing ceiling.

Results are written to a machine-readable ``BENCH_live.json`` (path
overridable through ``REPRO_BENCH_LIVE_JSON``); the floors and the
expected open count are embedded in the payload and asserted at every
scale.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_live_updates.py \
        --benchmark-only -s
    # or, standalone:
    PYTHONPATH=src python benchmarks/bench_live_updates.py --scale smoke
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.algorithms import BioConsert
from repro.algorithms.anytime import run_anytime
from repro.core import LiveDataset, prepare_rankings
from repro.core.kemeny import generalized_kemeny_score_from_weights
from repro.engine import ResultCache
from repro.experiments.report import format_table
from repro.generators import uniform_dataset

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from oracles import count_record_opens  # noqa: E402

_DEFAULT_OUTPUT = Path(__file__).resolve().parent / "BENCH_live.json"

# A streamed delta must beat a full O(m·n²) rebuild by at least this much.
_DELTA_SPEEDUP_FLOOR = 10.0

# Warm repair must reach the cold final score within this fraction of the
# cold run's wall-clock.
_WARM_FRACTION_CEILING = 0.5

# Invalidating one fingerprint opens only its own records, however many
# unrelated records share the disk tier.
_INVALIDATION_TARGET_RECORDS = 3
_INVALIDATION_UNRELATED_RECORDS = (20, 2000)


@dataclass(frozen=True)
class LiveBenchProfile:
    """Scale knobs for the live-update benchmark."""

    num_rankings: int
    num_elements: int
    num_mutations: int
    seed: int = 2015

    def describe(self) -> dict:
        """Flat dict for the JSON payload."""
        return {
            "num_rankings": self.num_rankings,
            "num_elements": self.num_elements,
            "num_mutations": self.num_mutations,
            "seed": self.seed,
        }


# The delta floor is stated at m >= 200, so even the smoke profile keeps
# that many rankings; the per-mutation work is O(n²), seconds overall.
_PROFILES = {
    "smoke": LiveBenchProfile(num_rankings=200, num_elements=12, num_mutations=16),
    "default": LiveBenchProfile(num_rankings=400, num_elements=20, num_mutations=32),
    "paper": LiveBenchProfile(num_rankings=1000, num_elements=30, num_mutations=64),
}


def _measure_deltas(live: LiveDataset, profile: LiveBenchProfile) -> dict:
    """Replay ``num_mutations`` updates, timing delta vs full rebuild."""
    delta_seconds: list[float] = []
    rebuild_seconds: list[float] = []
    size = len(live)
    for step in range(profile.num_mutations):
        replacement = live[(step * 7 + 3) % size]
        start = time.perf_counter()
        live.update_ranking(step % size, replacement)
        delta_seconds.append(time.perf_counter() - start)

        start = time.perf_counter()
        fresh = prepare_rankings(list(live.rankings))
        rebuild_seconds.append(time.perf_counter() - start)

    maintained = live.prepared()
    weights_match = bool(
        np.array_equal(maintained.weights.before_matrix, fresh.weights.before_matrix)
        and np.array_equal(maintained.weights.tied_matrix, fresh.weights.tied_matrix)
    )
    median_delta = statistics.median(delta_seconds)
    median_rebuild = statistics.median(rebuild_seconds)
    return {
        "mutations": profile.num_mutations,
        "median_delta_seconds": median_delta,
        "median_rebuild_seconds": median_rebuild,
        "max_delta_seconds": max(delta_seconds),
        "speedup": median_rebuild / max(median_delta, 1e-12),
        "weights_match_rebuild": weights_match,
    }


def _run_to_exhaustion(controller) -> tuple[float, int]:
    """Drive a controller until it finishes; returns (wall, steps)."""
    start = time.perf_counter()
    while controller.step():
        pass
    return time.perf_counter() - start, controller.steps


def _run_to_target(controller, target: int) -> tuple[float, int, bool]:
    """Step until ``best_score <= target``; returns (wall, steps, reached)."""
    start = time.perf_counter()
    while controller.step():
        if controller.best_score is not None and controller.best_score <= target:
            return time.perf_counter() - start, controller.steps, True
    reached = controller.best_score is not None and controller.best_score <= target
    return time.perf_counter() - start, controller.steps, reached


def _measure_warm_repair(live: LiveDataset, profile: LiveBenchProfile) -> dict:
    """Time a cold run vs a warm-started repair after one mutation."""
    algorithm = BioConsert()
    previous = run_anytime(algorithm, live.snapshot(), None).consensus

    # One streamed write invalidates the converged consensus.
    live.update_ranking(0, live[len(live) // 2])
    snapshot = live.snapshot()
    stale_score = generalized_kemeny_score_from_weights(
        previous, snapshot.pairwise_weights()
    )

    cold = algorithm.begin_anytime(snapshot)
    cold_wall, cold_steps = _run_to_exhaustion(cold)
    cold_score = cold.best_score

    warm = algorithm.begin_anytime(snapshot, initial=previous)
    warm_wall, warm_steps, reached = _run_to_target(warm, cold_score)
    return {
        "cold_wall_seconds": cold_wall,
        "cold_steps": cold_steps,
        "cold_score": int(cold_score),
        "stale_score": int(stale_score),
        "warm_seconds_to_cold_score": warm_wall,
        "warm_steps_to_cold_score": warm_steps,
        "warm_reached_cold_score": reached,
        "fraction_of_cold": warm_wall / max(cold_wall, 1e-12),
    }


def _cache_record(fingerprint: str, score: int) -> dict:
    """A record shaped like the ones the serving frontend stores."""
    return {
        "kind": "algorithm",
        "algorithm": "BordaCount",
        "dataset_name": fingerprint,
        "dataset_fingerprint": fingerprint,
        "score": score,
        "elapsed_seconds": 0.001,
        "within_budget": True,
        "error": None,
    }


def _measure_invalidation() -> dict:
    """Time one fingerprint invalidation beside few and many unrelated records."""
    sizes = []
    with tempfile.TemporaryDirectory(prefix="bench-live-cache-") as workdir:
        for unrelated in _INVALIDATION_UNRELATED_RECORDS:
            cache = ResultCache(Path(workdir) / f"cache-{unrelated}")
            for index in range(unrelated):
                cache.store(f"{index:06d}-other", _cache_record(f"other-{index}", index))
            for index in range(_INVALIDATION_TARGET_RECORDS):
                cache.store(f"{index:06d}-target", _cache_record("target", index))
            with count_record_opens(cache.directory) as opened:
                start = time.perf_counter()
                removed = cache.invalidate(dataset_fingerprint="target")
                seconds = time.perf_counter() - start
            sizes.append({
                "unrelated_records": unrelated,
                "removed": removed,
                "seconds": seconds,
                "records_opened": opened[0],
            })
    return {"target_records": _INVALIDATION_TARGET_RECORDS, "sizes": sizes}


def run_live_benchmark(scale_name: str, seed: int = 2015) -> dict:
    """Run both phases at ``scale_name`` and assemble the asserted payload."""
    try:
        profile = _PROFILES[scale_name]
    except KeyError:
        raise SystemExit(
            f"unknown scale {scale_name!r}; expected one of {sorted(_PROFILES)}"
        ) from None
    if seed != profile.seed:
        profile = LiveBenchProfile(**{**profile.describe(), "seed": seed})

    base = uniform_dataset(
        profile.num_rankings, profile.num_elements, rng=profile.seed, name="live-bench"
    )
    delta = _measure_deltas(LiveDataset(base.rankings, name="live-delta"), profile)
    warm = _measure_warm_repair(LiveDataset(base.rankings, name="live-warm"), profile)
    invalidation = _measure_invalidation()

    assert delta["weights_match_rebuild"], (
        "delta-maintained planes diverged from the from-scratch rebuild"
    )
    assert delta["speedup"] >= _DELTA_SPEEDUP_FLOOR, (
        f"delta-update floor regressed: rebuild {delta['median_rebuild_seconds']:.6f}s"
        f" vs delta {delta['median_delta_seconds']:.6f}s"
        f" = {delta['speedup']:.1f}× (< {_DELTA_SPEEDUP_FLOOR}×)"
    )
    assert warm["warm_reached_cold_score"], (
        "warm repair never reached the cold final score"
    )
    assert warm["fraction_of_cold"] <= _WARM_FRACTION_CEILING, (
        f"warm-repair floor regressed: reached the cold score "
        f"{warm['cold_score']} in {warm['warm_seconds_to_cold_score']:.4f}s, "
        f"{warm['fraction_of_cold']:.2%} of the cold run's "
        f"{warm['cold_wall_seconds']:.4f}s (> {_WARM_FRACTION_CEILING:.0%})"
    )
    for size in invalidation["sizes"]:
        assert size["removed"] == _INVALIDATION_TARGET_RECORDS, size
        assert size["records_opened"] == _INVALIDATION_TARGET_RECORDS, (
            f"fingerprint invalidation opened {size['records_opened']} records "
            f"beside {size['unrelated_records']} unrelated ones "
            f"(expected {_INVALIDATION_TARGET_RECORDS})"
        )

    return {
        "benchmark": "live-updates",
        "scale": scale_name,
        "profile": profile.describe(),
        "delta": delta,
        "delta_speedup_floor": _DELTA_SPEEDUP_FLOOR,
        "warm_repair": warm,
        "warm_fraction_ceiling": _WARM_FRACTION_CEILING,
        "invalidation": invalidation,
    }


def write_payload(payload: dict, output: Path | None = None) -> Path:
    """Write the machine-readable timings; returns the path written."""
    if output is None:
        override = os.environ.get("REPRO_BENCH_LIVE_JSON")
        output = Path(override) if override else _DEFAULT_OUTPUT
    output.parent.mkdir(parents=True, exist_ok=True)
    output.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return output


def _print_payload(payload: dict) -> None:
    delta = payload["delta"]
    warm = payload["warm_repair"]
    rows = [
        {
            "phase": "delta update",
            "work": f"{delta['mutations']} mutations",
            "time": f"{1000.0 * delta['median_delta_seconds']:.3f} ms",
            "versus": f"rebuild {1000.0 * delta['median_rebuild_seconds']:.3f} ms",
            "verdict": f"{delta['speedup']:.0f}× (floor "
            f"{payload['delta_speedup_floor']:.0f}×)",
        },
        {
            "phase": "warm repair",
            "work": f"{warm['warm_steps_to_cold_score']} steps",
            "time": f"{1000.0 * warm['warm_seconds_to_cold_score']:.3f} ms",
            "versus": f"cold {1000.0 * warm['cold_wall_seconds']:.3f} ms",
            "verdict": f"{warm['fraction_of_cold']:.1%} (ceiling "
            f"{payload['warm_fraction_ceiling']:.0%})",
        },
    ]
    invalidation = payload["invalidation"]
    for size in invalidation["sizes"]:
        rows.append({
            "phase": "invalidation",
            "work": f"{invalidation['target_records']} of "
            f"{invalidation['target_records'] + size['unrelated_records']} records",
            "time": f"{1000.0 * size['seconds']:.3f} ms",
            "versus": f"{size['unrelated_records']} unrelated",
            "verdict": f"opened {size['records_opened']} "
            f"(want {invalidation['target_records']})",
        })
    profile = payload["profile"]
    print(
        format_table(
            rows,
            [
                ("phase", "Phase"),
                ("work", "Work"),
                ("time", "Time"),
                ("versus", "Versus"),
                ("verdict", "Verdict"),
            ],
            title=(
                f"Live updates — scale={payload['scale']}, "
                f"m={profile['num_rankings']}, n={profile['num_elements']}"
            ),
        )
    )


def bench_live_updates(benchmark, bench_seed):
    """pytest-benchmark entry point: one timed pass over both phases."""
    scale_name = os.environ.get("REPRO_BENCH_SCALE", "smoke")
    payload = benchmark.pedantic(
        lambda: run_live_benchmark(scale_name, bench_seed),
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
    payload = run_live_benchmark(arguments.scale, arguments.seed)
    path = write_payload(payload, arguments.output)
    _print_payload(payload)
    print(f"machine-readable timings written to {path}")


if __name__ == "__main__":
    main()
