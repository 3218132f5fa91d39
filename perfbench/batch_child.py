"""Benchmark-owned batch program: ``ExecutionEngine.run`` on a paper-shaped job.

Usage: ``python perfbench/batch_child.py WORKDIR``.  After its imports the
child writes ``WORKDIR/ready`` (the end of set-up) and waits for commands
on stdin: ``run`` executes ``WORKDIR/job.json`` and writes
``WORKDIR/result.json`` then ``WORKDIR/done``; ``exit`` ends the process.

The job has two parts, each one ``ExecutionEngine.run``: the *paper* part
(the suite on the m=50, n=100 datasets) and the *gap* part (the suite and
the exact reference on the small datasets).  It runs in rounds; each round
has three timed phases, all on the serial backend:

1. a cold pass — both parts against a fresh ``ResultCache`` with the
   worker plan cache cleared, so every run and every plan build executes;
2. cached passes — both parts again, on fresh dataset objects, against the
   populated cache (only fingerprinting and cache reads remain);
3. edits — one ranking of the edited exact-reference dataset changes; the
   edit is acknowledged once the cache no longer holds the stale dataset's
   records (``ResultCache.invalidate``), and the gap part is then run
   again, which recomputes only the edited dataset.

Every phase records its [start, end] on CLOCK_MONOTONIC, so the benchmark
can convert it to reference seconds (``perfbench/speed.py``).
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from repro.algorithms.registry import make_algorithm  # noqa: E402
from repro.core.kemeny import generalized_kemeny_score  # noqa: E402
from repro.core.prepared import clear_plan_cache  # noqa: E402
from repro.core.ranking import Ranking  # noqa: E402
from repro.datasets.dataset import Dataset  # noqa: E402
from repro.engine.backends import SerialBackend  # noqa: E402
from repro.engine.cache import ResultCache  # noqa: E402
from repro.engine.engine import ExecutionEngine  # noqa: E402
from repro.engine.fingerprint import dataset_fingerprint  # noqa: E402
from repro.engine.job import BatchJob  # noqa: E402

ALGORITHM_SEED = 2015
PARTS = ("paper", "gap")  # one engine run each: m=50/n=100 datasets, exact-reference ones
CACHED_SHARE = 0.25  # of a round's seconds, spent on cached passes


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def build_datasets(job: dict) -> list[Dataset]:
    return [
        Dataset([Ranking(buckets) for buckets in entry["rankings"]], name=entry["name"])
        for entry in job["datasets"]
    ]


def build_job(job: dict, datasets: list[Dataset]) -> BatchJob:
    return BatchJob.from_algorithms(
        datasets,
        {name: make_algorithm(name, seed=ALGORITHM_SEED) for name in job["suite"]},
        exact_algorithm=make_algorithm(job["exact"], seed=ALGORITHM_SEED),
        exact_max_elements=16,
        record_features=False,
    )


def score_ratio(reports) -> float:
    """Mean of score / best known score (the exact optimum where solved)."""
    runs = [run for report in reports for run in report.runs if run.score is not None]
    best: dict[str, int] = {}
    for run in runs:
        best[run.dataset] = min(best.get(run.dataset, run.score), run.score)
    for report in reports:
        best.update(report.optimal_scores)
    ratios = [run.score / best[run.dataset] if best[run.dataset] else 1.0 for run in runs]
    return sum(ratios) / len(ratios)


def check_report(report, errors: list[str]) -> None:
    """No algorithm may score below the exact optimum of its dataset."""
    for run in report.runs:
        optimum = report.optimal_scores.get(run.dataset)
        if optimum is not None and run.score is not None and run.score < optimum:
            errors.append(
                f"{run.algorithm} scored {run.score} below the exact optimum "
                f"{optimum} on {run.dataset}"
            )


def verify_answers(job: dict, reports, errors: list[str]) -> None:
    """Outside the timed window: re-run the suite on every dataset.

    The engine report carries scores only, so each algorithm is run once
    more directly; its consensus must be a complete ranking with ties over
    the domain and its score, recomputed from the rankings, must equal the
    score the cold pass reported.  The m=50, n=100 datasets have no exact
    optimum, so this is the only check of their answers.
    """
    reported = {(run.algorithm, run.dataset): run.score
                for report in reports for run in report.runs}
    for dataset in build_datasets(job):
        domain = set(dataset.rankings[0].domain)
        for name in job["suite"]:
            result = make_algorithm(name, seed=ALGORITHM_SEED).aggregate(dataset)
            flat = [e for bucket in result.consensus.buckets for e in bucket]
            if len(flat) != len(domain) or set(flat) != domain:
                errors.append(f"{name} on {dataset.name}: incomplete consensus")
            score = generalized_kemeny_score(result.consensus, dataset.rankings)
            if score != reported.get((name, dataset.name)):
                errors.append(
                    f"{name} on {dataset.name}: recomputed score {score} != "
                    f"reported {reported.get((name, dataset.name))}"
                )


def split(job: dict, datasets: list[Dataset]) -> dict[str, list[Dataset]]:
    """The job's two parts: the paper datasets and the gap (exact) datasets."""
    return {part: [d for d, entry in zip(datasets, job["datasets"])
                   if entry["exact"] == (part == "gap")] for part in PARTS}


def run_round(job: dict, workdir: Path, index: int, state: dict) -> dict:
    """One round: a cold pass, cached passes, then this round's edits."""
    errors, windows = state["errors"], state["windows"]
    # 1. cold pass: fresh cache, cleared plan cache; each part is one engine run.
    clear_plan_cache()
    engine = ExecutionEngine(SerialBackend(), cache=ResultCache(workdir / f"cache-{index}"))
    cold: dict = {"runs": {}, "windows": {}, "run_seconds": {}}
    fingerprints = {}
    for part, datasets in split(job, build_datasets(job)).items():
        batch = build_job(job, datasets)
        start = now()
        report = engine.run(batch)
        end = now()
        windows.append([start, end])
        cold["runs"][part] = batch.num_runs
        cold["windows"][part] = [start, end]
        cold["run_seconds"][part] = [run.elapsed_seconds for run in report.runs]
        state["failed"] += sum(1 for run in report.runs
                               if run.error is not None or run.score is None)
        state["operations"] += batch.num_runs
        state["attempted"] += batch.num_runs
        check_report(report, errors)
        fingerprints[part] = report.result_fingerprint()
        state["reports"][part] = report
    cold["score_ratio"] = score_ratio(state["reports"].values())
    if state.setdefault("fingerprints", fingerprints) != fingerprints:
        errors.append("two cold passes gave different report fingerprints")

    # 2. cached passes on the populated cache, fresh dataset objects each.
    cached_runs, cached_elapsed, cached_windows = 0, 0.0, []
    while cached_elapsed < CACHED_SHARE * float(job["seconds"]) / job["rounds"]:
        for part, datasets in split(job, build_datasets(job)).items():
            batch = build_job(job, datasets)
            start = now()
            report = engine.run(batch)
            end = now()
            windows.append([start, end])
            cached_windows.append([start, end])
            cached_elapsed += end - start
            cached_runs += batch.num_runs
            if report.executed_runs:
                errors.append(f"cached pass executed {report.executed_runs} runs")
            if report.result_fingerprint() != fingerprints[part]:
                errors.append(f"cached {part} pass fingerprint differs from the cold pass")
    state["operations"] += cached_runs
    state["attempted"] += cached_runs

    # 3. edits: invalidate the stale records, then run the gap part again.
    datasets = build_datasets(job)
    mutate_windows, repair_windows = [], []
    per_round = len(job["edits"]) // job["rounds"]
    for edit in job["edits"][index * per_round:(index + 1) * per_round]:
        old = datasets[edit["dataset"]]
        rankings = list(old.rankings)
        rankings[edit["index"]] = Ranking(edit["ranking"])
        start = now()
        engine.cache.invalidate(dataset_fingerprint=dataset_fingerprint(old))
        mutate_windows.append([start, now()])
        datasets[edit["dataset"]] = Dataset(rankings, name=old.name)
        batch = build_job(job, split(job, datasets)["gap"])
        start = now()
        report = engine.run(batch)
        repair_windows.append([start, now()])
        if report.executed_runs != len(job["suite"]) + 1:
            errors.append(
                f"edit re-ran {report.executed_runs} runs, expected "
                f"{len(job['suite']) + 1}"
            )
        state["failed"] += sum(1 for run in report.runs if run.error is not None)
        state["attempted"] += 2
        check_report(report, errors)
    return {**cold, "cached_runs": cached_runs, "cached_windows": cached_windows,
            "mutate_windows": mutate_windows, "repair_windows": repair_windows}


def run(workdir: Path) -> dict:
    job = json.loads((workdir / "job.json").read_text())
    state = {"errors": [], "windows": [], "failed": 0, "attempted": 0, "operations": 0,
             "reports": {}}
    rounds = [run_round(job, workdir, index, state) for index in range(job["rounds"])]
    verify_answers(job, state["reports"].values(), state["errors"])
    return {
        "rounds": rounds,
        "fingerprint": ":".join(state["fingerprints"][part] for part in PARTS),
        "windows": state["windows"],
        "operations": state["operations"],
        "attempted": state["attempted"],
        "failed": state["failed"],
        "errors": state["errors"],
    }


def main(argv: list[str]) -> int:
    workdir = Path(argv[0])
    (workdir / "ready").write_text("ready\n")
    for line in sys.stdin:
        command = line.strip()
        if command == "run":
            result = run(workdir)
            (workdir / "result.json").write_text(json.dumps(result))
            (workdir / "done").write_text("done\n")
        elif command == "exit":
            break
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
