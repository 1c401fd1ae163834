"""Analysis and experiment-harness utilities.

The modules here turn raw algorithm outputs (route results, baseline
attempts, simulation traces) into summary rows for the benchmark and report
tables: delivery rates, hop counts, stretch against the shortest path,
header overhead and memory usage (:mod:`repro.analysis.metrics`), and a
plain-text table renderer (:mod:`repro.analysis.reporting`).  On top of
that sit the scenario harness (:mod:`repro.analysis.experiments`), the
sharded parallel sweep orchestrator (:mod:`repro.analysis.runner`) and the
differential conformance suite (:mod:`repro.analysis.conformance`).
"""
