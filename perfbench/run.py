"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload serve-warm --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the program untraced and prints every end-to-end
metric of ``BENCHMARK.json``.  ``--trace 1`` runs the same seed twice —
untraced, then through ``perfbench/launcher.py`` — and prints every
per-layer metric, including ``overhead.<metric>``: traced minus untraced
for each end-to-end metric.  Human-readable lines come first; the last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  A failed output check prints
``"correct": false`` without numbers and exits 1.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORK = ROOT / ".perfbench-work"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def report(outcome, label: str) -> None:
    """Human-readable summary of one measured run (stdout, before the JSON)."""
    print(f"[{label}] attempted={outcome.attempted} failed={outcome.failed} {outcome.notes}")
    for name, value in sorted(outcome.metrics.items()):
        print(f"[{label}]   {name} = {value:.6g}  (wall time: {outcome.wall[name]:.6g})")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print("error: the program sources (src/repro) are not next to perfbench/",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.checks import CheckFailure
    from perfbench.layers import layer_metrics
    from perfbench.workloads import WORKLOADS, Context, run_workload

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)

    def measure(traced: bool):
        ctx = Context(ROOT, work / ("traced" if traced else "untraced"),
                      args.seed, args.seconds, traced)
        outcome = run_workload(args.workload, ctx)
        report(outcome, "traced" if traced else "untraced")
        return outcome

    try:
        untraced = measure(False)
        outcomes = [untraced]
        if args.trace:
            traced = measure(True)
            outcomes.append(traced)
            values = layer_metrics(traced)
            for name in end_to_end:
                values[f"overhead.{name}"] = traced.metrics[name] - untraced.metrics[name]
            units = per_layer
        else:
            values, units = untraced.metrics, end_to_end
    except CheckFailure as failure:
        print(f"output check failed: {failure}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    except Exception:  # noqa: BLE001 — no result line when the run broke
        traceback.print_exc()
        return 1
    missing = sorted(set(units) - set(values))
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    result = {
        "correct": True,
        "attempted": sum(o.attempted for o in outcomes),
        "failed": sum(o.failed for o in outcomes),
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
