"""SERVICE — request throughput and cold/warm latency of the serving layer.

Replays a Zipf-skewed load schedule (see :mod:`repro.workloads.http_load`)
through the :class:`~repro.service.ServiceFrontend` with
:func:`~repro.workloads.run_inprocess_load` three times over the same
cache directory:

* **cold**  — empty cache: every distinct dataset is computed (portfolio
  race under the per-request budget), repeats are coalesced or served by
  the freshly warmed tiers;
* **disk-warm** — a new frontend process over the same directory: nothing
  is computed, first touches hit the disk tier and are promoted;
* **memory-warm** — the same frontend again: pure in-memory LRU hits.

The medians per phase are written to a machine-readable
``BENCH_service.json`` (path overridable through
``REPRO_BENCH_SERVICE_JSON``).  The run asserts the serving contract: warm
phases compute nothing, every phase answers every request, and the warm
per-request latency is at least 10× below the cold one (the acceptance
floor of the PR that introduced the service layer; asserted at every
scale — the cold phase runs full aggregations, so the gap is orders of
magnitude in practice).

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_service_throughput.py \
        --benchmark-only -s
    # or, standalone:
    PYTHONPATH=src python benchmarks/bench_service_throughput.py --scale smoke
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
from pathlib import Path

from repro.experiments.report import format_table
from repro.service import ServiceFrontend
from repro.workloads import (
    HttpLoadProfile,
    build_http_schedule,
    run_inprocess_load,
)

_DEFAULT_OUTPUT = Path(__file__).resolve().parent / "BENCH_service.json"

# Warm requests must be at least this much faster than cold ones.
_WARM_SPEEDUP_FLOOR = 10.0

_PROFILES = {
    "smoke": HttpLoadProfile(
        scenarios=("mallows-ties-diffuse", "markov-similarity"),
        scale="smoke",
        num_requests=40,
        budget_seconds=0.25,
        concurrency=8,
        seed=2015,
    ),
    "default": HttpLoadProfile(
        scenarios=("mallows-ties-diffuse", "markov-similarity", "uniform-ties"),
        scale="default",
        num_requests=200,
        budget_seconds=0.5,
        concurrency=16,
        seed=2015,
    ),
    "paper": HttpLoadProfile(
        scenarios=(
            "mallows-ties-diffuse",
            "markov-similarity",
            "uniform-ties",
            "biomedical-like",
        ),
        scale="default",
        num_requests=1000,
        budget_seconds=0.5,
        concurrency=32,
        seed=2015,
    ),
}


def _phase(report: dict) -> dict:
    """Per-phase latency/source statistics of one in-process load report."""
    latency = report["latency_seconds"]
    return {
        "requests": report["completed"],
        "wall_seconds": report["wall_seconds"],
        "throughput_rps": report["throughput_rps"],
        "latency_median_seconds": latency["p50"],
        "latency_mean_seconds": latency["mean"],
        "latency_max_seconds": latency["max"],
        "by_source": report["by_source"],
    }


def run_service_benchmark(scale_name: str, seed: int = 2015) -> dict:
    """Run the cold / disk-warm / memory-warm phases and assemble the payload."""
    try:
        profile = _PROFILES[scale_name]
    except KeyError:
        raise SystemExit(
            f"unknown scale {scale_name!r}; expected one of {sorted(_PROFILES)}"
        ) from None
    if seed != profile.seed:
        profile = HttpLoadProfile(**{**profile.describe(), "seed": seed,
                                     "scenarios": profile.scenarios})
    schedule = build_http_schedule(profile)

    cache_dir = Path(tempfile.mkdtemp(prefix="repro-bench-service-"))
    try:
        cold_frontend = ServiceFrontend(
            cache_dir, default_budget_seconds=profile.budget_seconds, seed=seed
        )
        cold = _phase(run_inprocess_load(schedule, cold_frontend))

        # New frontend over the same directory: empty memory tier, warm disk.
        disk_frontend = ServiceFrontend(
            cache_dir, default_budget_seconds=profile.budget_seconds, seed=seed
        )
        disk_warm = _phase(run_inprocess_load(schedule, disk_frontend))

        # Same frontend again: every key now sits in the memory LRU.
        memory_warm = _phase(run_inprocess_load(schedule, disk_frontend))
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)

    # Serving contract: warm phases execute nothing.
    assert disk_warm["by_source"].get("computed", 0) == 0, disk_warm
    assert memory_warm["by_source"].get("computed", 0) == 0, memory_warm
    assert cold["requests"] == disk_warm["requests"] == memory_warm["requests"]

    # Cold latency is dominated by the computed requests; compare medians of
    # the whole stream only when they are non-degenerate, otherwise compare
    # means (a heavily skewed stream can have a cache-hit median even cold).
    cold_latency = max(cold["latency_median_seconds"], cold["latency_mean_seconds"])
    warm_latency = max(
        min(disk_warm["latency_median_seconds"], memory_warm["latency_median_seconds"]),
        1e-9,
    )
    speedup = cold_latency / warm_latency
    assert speedup >= _WARM_SPEEDUP_FLOOR, (
        f"warm-cache latency floor regressed: cold {cold_latency:.6f}s vs "
        f"warm {warm_latency:.6f}s = {speedup:.1f}× (< {_WARM_SPEEDUP_FLOOR}×)"
    )

    return {
        "benchmark": "service-throughput",
        "scale": scale_name,
        "profile": profile.describe(),
        "warm_speedup": speedup,
        "warm_speedup_floor": _WARM_SPEEDUP_FLOOR,
        "phases": {
            "cold": cold,
            "disk_warm": disk_warm,
            "memory_warm": memory_warm,
        },
    }


def write_payload(payload: dict, output: Path | None = None) -> Path:
    """Write the machine-readable timings; returns the path written."""
    if output is None:
        override = os.environ.get("REPRO_BENCH_SERVICE_JSON")
        output = Path(override) if override else _DEFAULT_OUTPUT
    output.parent.mkdir(parents=True, exist_ok=True)
    output.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return output


def _print_payload(payload: dict) -> None:
    rows = []
    for phase, stats in payload["phases"].items():
        rows.append(
            {
                "phase": phase,
                "requests": stats["requests"],
                "throughput": f"{stats['throughput_rps']:.0f} req/s",
                "median": f"{1000.0 * stats['latency_median_seconds']:.3f} ms",
                "mean": f"{1000.0 * stats['latency_mean_seconds']:.3f} ms",
                "sources": ", ".join(
                    f"{name}={count}" for name, count in stats["by_source"].items()
                ),
            }
        )
    print(
        format_table(
            rows,
            [
                ("phase", "Phase"),
                ("requests", "Requests"),
                ("throughput", "Throughput"),
                ("median", "Median"),
                ("mean", "Mean"),
                ("sources", "By source"),
            ],
            title=(
                f"Service throughput — scale={payload['scale']}, "
                f"warm speedup {payload['warm_speedup']:.0f}× "
                f"(floor {payload['warm_speedup_floor']:.0f}×)"
            ),
        )
    )


def bench_service_throughput(benchmark, bench_seed):
    """pytest-benchmark entry point: one timed pass over the three phases."""
    scale_name = os.environ.get("REPRO_BENCH_SCALE", "smoke")
    payload = benchmark.pedantic(
        lambda: run_service_benchmark(scale_name, bench_seed),
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
    payload = run_service_benchmark(arguments.scale, arguments.seed)
    path = write_payload(payload, arguments.output)
    _print_payload(payload)
    print(f"machine-readable timings written to {path}")


if __name__ == "__main__":
    main()
