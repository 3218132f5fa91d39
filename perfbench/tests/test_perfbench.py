"""The benchmark's own tests: seeded inputs, output checks, metric names.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import inputs as inp  # noqa: E402
from perfbench.checks import (  # noqa: E402
    CheckFailure,
    answer_digest,
    check_answer,
    check_session,
)
from perfbench.client import Sample  # noqa: E402
from perfbench.layers import layer_metrics  # noqa: E402
from perfbench.speed import CoreSpeed, WallClock  # noqa: E402
from perfbench.workloads import Outcome, check_hits  # noqa: E402
from repro.algorithms.registry import make_algorithm  # noqa: E402
from repro.datasets.io import loads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


# --------------------------------------------------------------------------- #
# Same seed, same bytes
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("make", [
    lambda seed: inp.warm_inputs(seed, 4).digest(),
    lambda seed: inp.cold_inputs(seed, 2).digest(),
    # cold members drawn past the supply drawn up front
    lambda seed: inp._digest([inp.cold_inputs(seed, 1).member(k).text for k in range(40, 44)]),
    lambda seed: inp.live_inputs(seed, 2).digest(),
    lambda seed: inp.batch_digest(inp.batch_inputs(seed)),
], ids=["serve-warm", "serve-cold", "serve-cold-on-demand", "live-churn", "batch-paper"])
def test_same_seed_gives_identical_inputs_and_schedules(make):
    assert make(7) == make(7)
    assert make(7) != make(8)


def test_open_loop_arrivals_keep_the_rate_in_every_round():
    first, again = inp.warm_inputs(3, 8), inp.warm_inputs(3, 8)
    assert first.arrivals == again.arrivals
    open_seconds = 8 / inp.ROUNDS * (1 - inp.WARM_CLOSED_SHARE)
    for arrivals in first.arrivals:
        offsets = [offset for offset, _ in arrivals]
        assert offsets == sorted(offsets) and 0 <= offsets[0] and offsets[-1] < open_seconds
        assert len(offsets) == int(inp.WARM_OPEN_LOOP_RPS * open_seconds)


def test_zipf_stream_holds_exact_shares_in_every_block():
    stream = inp.zipf_stream(inp.rng_for(1, "t"), 32, 1.0, 400, cycle=200)
    first, second = stream[:200], stream[200:]
    assert sorted(first) == sorted(second) and first != second
    assert first.count(0) > first.count(1) > first.count(5)


def test_every_batch_edit_changes_the_same_dataset():
    job = inp.batch_inputs(4)
    assert {edit["dataset"] for edit in job["edits"]} == {
        [d["name"] for d in job["datasets"]].index(f"exact-uniform-m50-n{inp.BATCH_EDITED_N}")
    }


# --------------------------------------------------------------------------- #
# Core speed
# --------------------------------------------------------------------------- #
def test_reference_seconds_follow_the_core_speed_of_the_interval():
    times = [0.05 * k for k in range(200)]  # 10 s of readings
    speed = CoreSpeed(times, [1.0 if t < 5.0 else 0.5 for t in times])
    assert speed.reference_seconds(1.0, 3.0) == pytest.approx(2.0)
    assert speed.reference_seconds(6.0, 9.0) == pytest.approx(1.5)
    assert speed.speed(4.0, 6.0) == pytest.approx(0.75, abs=0.03)
    # an interval shorter than the readings' spacing uses the nearest ones
    assert speed.speed(20.0, 20.001) == pytest.approx(0.5)
    assert WallClock().reference_seconds(6.0, 9.0) == 3.0


# --------------------------------------------------------------------------- #
# Tampered answers are rejected
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def answered():
    base = inp.make_base("uniform", 8, 12, inp.rng_for(1, "test"))
    member = inp.make_member("m", 0, base, inp.rng_for(1, "member"))
    result = make_algorithm("BordaCount").aggregate(loads(member.text))
    payload = {
        "status": "ok",
        "request_id": "r1",
        "algorithm": "BordaCount",
        "score": int(result.score),
        "consensus": [sorted(bucket) for bucket in result.consensus.buckets],
    }
    return base, member, payload


def test_a_correct_answer_passes(answered):
    base, member, payload = answered
    assert check_answer(payload, member, base) == payload["score"]


@pytest.mark.parametrize("tamper", [
    lambda p: p.update(score=p["score"] + 1),
    lambda p: p["consensus"][0].pop() if len(p["consensus"][0]) > 1 else p["consensus"].pop(0),
    lambda p: p["consensus"].append([p["consensus"][0][0]]),
    lambda p: p["consensus"].insert(1, []),
    lambda p: p.update(consensus=None),
    lambda p: p.update(status="failed"),
], ids=["wrong-score", "missing-element", "duplicate-element", "empty-bucket",
        "no-consensus", "failed-status"])
def test_a_tampered_answer_is_rejected(answered, tamper):
    base, member, payload = answered
    tampered = json.loads(json.dumps(payload))
    tamper(tampered)
    with pytest.raises(CheckFailure):
        check_answer(tampered, member, base)


def test_a_hit_that_differs_from_the_primed_answer_is_rejected(answered):
    base, member, payload = answered
    primed = {0: answer_digest(payload)}
    hit = dict(payload, source="memory")
    check_hits([Sample(0, "r", 200, hit, 0.01)], [member], [base], primed, "t")
    other = dict(hit, score=payload["score"] + 2)
    with pytest.raises(CheckFailure):
        check_hits([Sample(0, "r", 200, other, 0.01)], [member], [base], primed, "t")
    recomputed = dict(payload, source="computed")
    with pytest.raises(CheckFailure):
        check_hits([Sample(0, "r", 200, recomputed, 0.01)], [member], [base], primed, "t")


def test_a_session_that_differs_from_the_replay_is_rejected():
    from perfbench.checks import replay
    from repro.core.ranking import Ranking
    from repro.core.kemeny import generalized_kemeny_score_from_weights

    probe = inp.probe_inputs()
    ops = [op for op in probe.ops[:6] if op["op"] != "repair"]
    live = replay(probe.initial, ops)
    consensus = [list(range(live.num_elements))]
    served = {
        "fingerprint": live.content_fingerprint(),
        "num_rankings": live.num_rankings,
        "consensus": consensus,
        "score": int(generalized_kemeny_score_from_weights(
            Ranking(consensus), live.snapshot().prepared().weights)),
    }
    check_session(served, probe.initial, ops, "ok")
    with pytest.raises(CheckFailure):
        check_session(served, probe.initial, ops[:-1], "lost write")
    with pytest.raises(CheckFailure):
        check_session(dict(served, score=served["score"] - 1), probe.initial, ops, "score")


# --------------------------------------------------------------------------- #
# Printed metric names match BENCHMARK.json
# --------------------------------------------------------------------------- #
def test_layer_report_names_every_per_layer_metric(tmp_path):
    trace = tmp_path / "trace.jsonl"
    trace.write_text("")
    values = layer_metrics(Outcome({}, 0, 0, trace=trace, windows=[(0.0, 1.0)]))
    values.update({f"overhead.{m['name']}": 0.0 for m in BENCHMARK["end_to_end"]})
    assert set(values) == {m["name"] for m in BENCHMARK["per_layer"]}


def test_spec_names_the_metrics_and_workloads_of_benchmark_json():
    from perfbench.layers import ALGORITHMS, metric_name

    spec = json.loads((ROOT / "perfbench" / "spec.json").read_text())
    workloads = {w["name"] for w in BENCHMARK["workloads"]}
    assert set(spec["workloads"]) == workloads
    end_to_end = {m["name"] for m in BENCHMARK["end_to_end"]}
    assert set(spec["end_to_end"]) == end_to_end
    for meaning in spec["end_to_end"].values():
        assert set(meaning) in ({"all"}, workloads)
    names = set()
    for group in spec["per_layer"]:
        for name in group["metrics"]:
            if name == "algorithms.<name>.aggregate_ms":
                names |= {f"algorithms.{metric_name(a)}.aggregate_ms"
                          for a in ALGORITHMS + ("other",)}
            elif name == "overhead.<metric>":
                names |= {f"overhead.{m}" for m in end_to_end}
            else:
                names.add(name)
    assert names == {m["name"] for m in BENCHMARK["per_layer"]}


def run_benchmark(cwd: Path, *arguments: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *arguments],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("workload", ["serve-cold", "batch-paper"])
def test_printed_end_to_end_metrics_match_benchmark_json(workload):
    done = run_benchmark(ROOT, "--workload", workload, "--seed", "3",
                         "--seconds", "1", "--trace", "0")
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_benchmark(tmp_path, "--workload", "serve-warm", "--seed", "1",
                         "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
