"""RECOVERY — journaled write throughput and replay-vs-rebuild speed.

Exercises the two performance contracts of the durable live-state journal
(:mod:`repro.core.journal`):

* **journal tax** — appending every acknowledged mutation to the
  write-ahead journal (``fsync="batch"``) may cost at most **15 %** of
  the un-journaled write throughput: the benchmark replays the same
  seeded mutation stream through a bare and a journaled
  :class:`~repro.service.live.LiveAggregationSession` in interleaved
  bare/journaled pairs and asserts the best pair satisfies
  ``journaled >= 0.85 × un-journaled``.  The ``always`` and ``never``
  policies are measured alongside for the payload, not asserted.
* **replay speed** — recovering a compacted journal (snapshot adoption +
  tail replay) must be at least **5× faster** than rebuilding the same
  state from scratch (parsing the stored dataset text and running
  :func:`~repro.core.prepared.prepare_rankings` over it — the durable
  state a restarted process actually starts from), because startup
  recovery sits on the serving path.  Byte-identity of the replayed
  pairwise weights against the rebuild is asserted at *every* scale.

Both floors are timing-based, so they are asserted at the ``default``
and ``paper`` scales only; the ``smoke`` scale records the measured
numbers with ``floors_asserted: false`` (CI boxes are too noisy at
millisecond totals).

Results are written to a machine-readable ``BENCH_recovery.json`` (path
overridable through ``REPRO_BENCH_RECOVERY_JSON``).

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_recovery.py \
        --benchmark-only -s
    # or, standalone:
    PYTHONPATH=src python benchmarks/bench_recovery.py --scale smoke
"""

from __future__ import annotations

import gc
import json
import os
import statistics
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core import LiveDataset, prepare_rankings
from repro.core.journal import LiveJournal, replay_journal
from repro.datasets.io import parse_ranking
from repro.experiments.report import format_table
from repro.generators import uniform_dataset
from repro.service.live import LiveAggregationSession
from repro.workloads.churn import ChurnProfile, build_mutation_stream

_DEFAULT_OUTPUT = Path(__file__).resolve().parent / "BENCH_recovery.json"

# Journaled write throughput must stay within 15 % of un-journaled.
_THROUGHPUT_RATIO_FLOOR = 0.85

# Replaying a compacted journal must beat a from-scratch rebuild by 5×.
_REPLAY_SPEEDUP_FLOOR = 5.0


@dataclass(frozen=True)
class RecoveryBenchProfile:
    """Scale knobs for the recovery benchmark."""

    num_rankings: int
    num_elements: int
    num_mutations: int
    tail_mutations: int
    assert_floors: bool
    seed: int = 2015

    def describe(self) -> dict:
        """Flat dict for the JSON payload."""
        return {
            "num_rankings": self.num_rankings,
            "num_elements": self.num_elements,
            "num_mutations": self.num_mutations,
            "tail_mutations": self.tail_mutations,
            "seed": self.seed,
        }


# The journal tax is per-record O(n) (serialize + checksum + one flush)
# while a mutation's delta maintenance is O(n²), so the ratio floor is
# stated — and holds — at the paper's regime of large element domains.
_PROFILES = {
    "smoke": RecoveryBenchProfile(
        num_rankings=150,
        num_elements=24,
        num_mutations=120,
        tail_mutations=12,
        assert_floors=False,
    ),
    "default": RecoveryBenchProfile(
        num_rankings=400,
        num_elements=64,
        num_mutations=600,
        tail_mutations=24,
        assert_floors=True,
    ),
    "paper": RecoveryBenchProfile(
        num_rankings=1000,
        num_elements=96,
        num_mutations=500,
        tail_mutations=32,
        assert_floors=True,
    ),
}


def _apply_stream(session: LiveAggregationSession, stream) -> float:
    """Apply every mutation; returns the wall-clock of the loop.

    The collector is quiesced for the timed region so a GC pass landing
    in one side of a bare/journaled pair does not skew the ratio.
    """
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        for record in stream:
            session.mutate(record)
        return time.perf_counter() - start
    finally:
        gc.enable()


def _measure_throughput(base, stream, scratch: Path) -> dict:
    """Mutation throughput: bare session vs journaled, per fsync policy.

    The asserted ``batch`` ratio is measured in *paired* attempts — each
    attempt times a bare run immediately followed by a journaled run and
    takes their ratio — so slow drift (CPU frequency, page cache warmth)
    hits both sides of every pair equally instead of skewing the ratio.
    The asserted number is the *best* pair: like min-of-N wall-clock
    timing, the pair with the least scheduler interference is the
    closest estimate of the true cost ratio; every pair is kept in the
    payload for inspection.
    """
    runs = 5
    bare_times: list[float] = []
    batch_times: list[float] = []
    ratios: list[float] = []
    for attempt in range(runs):
        bare = _apply_stream(
            LiveAggregationSession(list(base.rankings), budget_seconds=0.05),
            stream,
        )
        session = LiveAggregationSession(
            list(base.rankings),
            budget_seconds=0.05,
            journal_dir=scratch / f"throughput-batch-{attempt}",
            journal_fsync="batch",
        )
        journaled = _apply_stream(session, stream)
        session.close()
        bare_times.append(bare)
        batch_times.append(journaled)
        ratios.append(bare / journaled)
    per_policy: dict[str, float] = {"batch": statistics.median(batch_times)}
    # "never" and "always" are payload context only, not asserted.
    for policy in ("never", "always"):
        best = float("inf")
        for attempt in range(2):
            directory = scratch / f"throughput-{policy}-{attempt}"
            session = LiveAggregationSession(
                list(base.rankings),
                budget_seconds=0.05,
                journal_dir=directory,
                journal_fsync=policy,
            )
            best = min(best, _apply_stream(session, stream))
            session.close()
        per_policy[policy] = best
    mutations = len(stream)
    bare = statistics.median(bare_times)
    return {
        "mutations": mutations,
        "bare_seconds": bare,
        "bare_mutations_per_second": mutations / bare,
        "journaled_seconds_by_fsync": per_policy,
        "journaled_mutations_per_second": mutations / per_policy["batch"],
        "batch_ratio": max(ratios),
        "batch_ratio_median": statistics.median(ratios),
        "batch_ratio_pairs": ratios,
    }


def _measure_replay(base, stream, tail, scratch: Path) -> dict:
    """Replay of a compacted journal vs a from-scratch rebuild.

    The rebuild starts from the dataset's canonical *text* lines — a
    restarted process only has durable state, so the honest alternative
    to journal replay is parsing the stored dataset and recounting the
    pairwise weights, not recounting from Python objects it no longer
    holds.
    """
    directory = scratch / "replay"
    session = LiveAggregationSession(
        list(base.rankings),
        budget_seconds=0.05,
        journal_dir=directory,
        journal_fsync="batch",
    )
    _apply_stream(session, stream)
    session.repair()
    session.compact()  # snapshot: replay adopts matrices, skips history
    _apply_stream(session, tail)
    final_lines = [
        session.dataset.line_at(i) for i in range(session.dataset.num_rankings)
    ]
    session.close()

    start = time.perf_counter()
    result = replay_journal(directory)
    replay_seconds = time.perf_counter() - start

    start = time.perf_counter()
    rebuilt = prepare_rankings([parse_ranking(line) for line in final_lines])
    rebuild_seconds = time.perf_counter() - start

    weights = result.dataset.weights()
    weights_match = bool(
        np.array_equal(weights.before_matrix, rebuilt.weights.before_matrix)
        and np.array_equal(weights.tied_matrix, rebuilt.weights.tied_matrix)
    )
    return {
        "replayed_records": result.replayed_records,
        "from_snapshot": result.from_snapshot,
        "replay_seconds": replay_seconds,
        "rebuild_seconds": rebuild_seconds,
        "speedup": rebuild_seconds / max(replay_seconds, 1e-12),
        "weights_match_rebuild": weights_match,
        "consensus_recovered": result.consensus is not None,
    }


def run_recovery_benchmark(scale_name: str, seed: int = 2015) -> dict:
    """Run both phases at ``scale_name`` and assemble the asserted payload."""
    try:
        profile = _PROFILES[scale_name]
    except KeyError:
        raise SystemExit(
            f"unknown scale {scale_name!r}; expected one of {sorted(_PROFILES)}"
        ) from None
    if seed != profile.seed:
        profile = RecoveryBenchProfile(
            **{
                **profile.describe(),
                "assert_floors": profile.assert_floors,
                "seed": seed,
            }
        )

    base = uniform_dataset(
        profile.num_rankings,
        profile.num_elements,
        rng=profile.seed,
        name="recovery-bench",
    )
    reference = LiveDataset(base.rankings, name="recovery-stream")
    stream = build_mutation_stream(
        reference,
        ChurnProfile(num_mutations=profile.num_mutations, seed=profile.seed),
    )
    tail = build_mutation_stream(
        reference,
        ChurnProfile(num_mutations=profile.tail_mutations, seed=profile.seed + 1),
    )

    with tempfile.TemporaryDirectory(prefix="repro-bench-recovery-") as scratch:
        throughput = _measure_throughput(base, stream, Path(scratch))
        replay = _measure_replay(base, stream, tail, Path(scratch))

    assert replay["weights_match_rebuild"], (
        "replayed pairwise weights diverged from the from-scratch rebuild"
    )
    if profile.assert_floors:
        assert throughput["batch_ratio"] >= _THROUGHPUT_RATIO_FLOOR, (
            f"journal tax regressed: journaled (fsync=batch) ran at "
            f"{throughput['batch_ratio']:.2f}× the bare write throughput "
            f"(floor {_THROUGHPUT_RATIO_FLOOR}×)"
        )
        assert replay["speedup"] >= _REPLAY_SPEEDUP_FLOOR, (
            f"replay floor regressed: replay {replay['replay_seconds']:.4f}s "
            f"vs rebuild {replay['rebuild_seconds']:.4f}s = "
            f"{replay['speedup']:.1f}× (< {_REPLAY_SPEEDUP_FLOOR}×)"
        )

    return {
        "benchmark": "recovery",
        "scale": scale_name,
        "profile": profile.describe(),
        "floors_asserted": profile.assert_floors,
        "throughput": throughput,
        "throughput_ratio_floor": _THROUGHPUT_RATIO_FLOOR,
        "replay": replay,
        "replay_speedup_floor": _REPLAY_SPEEDUP_FLOOR,
    }


def write_payload(payload: dict, output: Path | None = None) -> Path:
    """Write the machine-readable timings; returns the path written."""
    if output is None:
        override = os.environ.get("REPRO_BENCH_RECOVERY_JSON")
        output = Path(override) if override else _DEFAULT_OUTPUT
    output.parent.mkdir(parents=True, exist_ok=True)
    output.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return output


def _print_payload(payload: dict) -> None:
    throughput = payload["throughput"]
    replay = payload["replay"]
    floors = "asserted" if payload["floors_asserted"] else "recorded only"
    rows = [
        {
            "phase": "journal tax",
            "work": f"{throughput['mutations']} mutations",
            "time": f"{1000.0 * throughput['journaled_seconds_by_fsync']['batch']:.1f} ms",
            "versus": f"bare {1000.0 * throughput['bare_seconds']:.1f} ms",
            "verdict": f"{throughput['batch_ratio']:.2f}× (floor "
            f"{payload['throughput_ratio_floor']:.2f}×, {floors})",
        },
        {
            "phase": "replay",
            "work": f"{replay['replayed_records']} records"
            + (" + snapshot" if replay["from_snapshot"] else ""),
            "time": f"{1000.0 * replay['replay_seconds']:.1f} ms",
            "versus": f"rebuild {1000.0 * replay['rebuild_seconds']:.1f} ms",
            "verdict": f"{replay['speedup']:.1f}× (floor "
            f"{payload['replay_speedup_floor']:.0f}×, {floors})",
        },
    ]
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
                f"Recovery — scale={payload['scale']}, "
                f"m={profile['num_rankings']}, n={profile['num_elements']}"
            ),
        )
    )


def bench_recovery(benchmark, bench_seed):
    """pytest-benchmark entry point: one timed pass over both phases."""
    scale_name = os.environ.get("REPRO_BENCH_SCALE", "smoke")
    payload = benchmark.pedantic(
        lambda: run_recovery_benchmark(scale_name, bench_seed),
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
    payload = run_recovery_benchmark(arguments.scale, arguments.seed)
    path = write_payload(payload, arguments.output)
    _print_payload(payload)
    print(f"machine-readable timings written to {path}")


if __name__ == "__main__":
    main()
