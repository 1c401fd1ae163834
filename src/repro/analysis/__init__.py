"""Analysis and experiment-harness utilities.

The modules here turn raw algorithm outputs (route results, baseline
attempts, simulation traces) into summary rows for the benchmark and report
tables: delivery rates, hop counts, stretch against the shortest path,
header overhead and memory usage, with basic statistics over repeated
trials and a plain-text table renderer.  On top of that sit the scenario
harness (:mod:`repro.analysis.experiments`), the sharded parallel sweep
orchestrator (:mod:`repro.analysis.runner`) and the differential
conformance suite (:mod:`repro.analysis.conformance`).
"""

from repro.analysis.metrics import (
    RoutingObservation,
    delivery_rate,
    observation_from_attempt,
    observation_from_route,
    stretch,
)
from repro.analysis.reporting import format_table
from repro.analysis.experiments import (
    ExperimentResult,
    ExperimentTable,
    ScenarioSpec,
    build_scenario,
    build_schedule,
    dynamic_schedule_scenarios,
    is_dynamic_scenario,
    is_streamed_scenario,
    reference_run_parameter_sweep,
    structured_scenarios,
    unit_disk_scenarios,
)
from repro.analysis.runner import (
    SweepOutcome,
    SweepPlan,
    SweepShard,
    evaluate_shard,
    plan_sweep,
    run_sweep,
    shard_seed,
)
from repro.analysis.conformance import (
    ConformanceReport,
    ConformanceViolation,
    conformance_pass,
    default_conformance_matrix,
    is_malicious_scenario,
    malicious_broadcast_scenarios,
)

__all__ = [
    "RoutingObservation",
    "delivery_rate",
    "observation_from_attempt",
    "observation_from_route",
    "stretch",
    "format_table",
    "ExperimentResult",
    "ExperimentTable",
    "ScenarioSpec",
    "build_scenario",
    "build_schedule",
    "dynamic_schedule_scenarios",
    "is_dynamic_scenario",
    "is_streamed_scenario",
    "reference_run_parameter_sweep",
    "structured_scenarios",
    "unit_disk_scenarios",
    "SweepOutcome",
    "SweepPlan",
    "SweepShard",
    "evaluate_shard",
    "plan_sweep",
    "run_sweep",
    "shard_seed",
    "ConformanceReport",
    "ConformanceViolation",
    "conformance_pass",
    "default_conformance_matrix",
    "is_malicious_scenario",
    "malicious_broadcast_scenarios",
]
