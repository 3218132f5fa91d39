"""Scenario workload subsystem.

Turns the ad-hoc dataset regimes of the paper's evaluation into a named,
versioned scenario catalog, adds new ranking families (Mallows-with-ties,
skew-controlled Plackett–Luce, adversarial regimes), and drives
(scenario × algorithm × scale) grids through the batch execution engine
with shard-level batching and aliasing-proof cache keys.

Quickstart
----------

>>> from repro.workloads import ScenarioMatrix, get_scenario, scenario_names
>>> scenario_names()                                      # doctest: +ELLIPSIS
['biomedical-like', 'disjoint-shards', ...]
>>> datasets = get_scenario("mallows-ties-diffuse").build("smoke", 7)
>>> report = ScenarioMatrix(scale="smoke").run()          # doctest: +SKIP
>>> report.write("workloads_report.json")                 # doctest: +SKIP
"""

from .churn import ChurnProfile, build_mutation_stream, run_churn_load
from .http_load import (
    HttpLoadProfile,
    HttpSchedule,
    ScheduledRequest,
    build_http_schedule,
    drive_http_load,
    run_inprocess_load,
)
from .matrix import DEFAULT_MATRIX_ALGORITHMS, ScenarioMatrix
from .recovery import KillRestartProfile, run_kill_restart_churn
from .report import MatrixReport, ScenarioResult, deterministic_payload
from .scenario import (
    SCENARIO_SCALES,
    Scenario,
    ScenarioScale,
    ScenarioShapeError,
    get_scenario,
    get_scenario_scale,
    list_scenarios,
    register_scenario,
    scenario_names,
    unregister_scenario,
)

__all__ = [
    "Scenario",
    "ScenarioScale",
    "ScenarioShapeError",
    "SCENARIO_SCALES",
    "get_scenario_scale",
    "register_scenario",
    "unregister_scenario",
    "scenario_names",
    "get_scenario",
    "list_scenarios",
    "ScenarioMatrix",
    "DEFAULT_MATRIX_ALGORITHMS",
    "MatrixReport",
    "ScenarioResult",
    "deterministic_payload",
    "ChurnProfile",
    "build_mutation_stream",
    "run_churn_load",
    "KillRestartProfile",
    "run_kill_restart_churn",
    "HttpLoadProfile",
    "HttpSchedule",
    "ScheduledRequest",
    "build_http_schedule",
    "drive_http_load",
    "run_inprocess_load",
]
