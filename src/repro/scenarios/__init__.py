"""Heterogeneous, churning, planet-scale workload generation.

This package generates the workloads the ROADMAP's north star asks for, all
seed-deterministic so any published run is replayable:

- :mod:`repro.scenarios.capabilities` — capability classes
  (degree budget / bandwidth / uptime / speed), profile mixes, and the
  budgeted ``hetero-unit-disk`` topology builder;
- :mod:`repro.scenarios.churn` — per-class churn traces and waypoint
  mobility compiled into :class:`~repro.network.dynamics.TopologySchedule`
  snapshots by a delta-only :class:`~repro.scenarios.churn.TopologyScheduleBuilder`;
- :mod:`repro.scenarios.streaming` — :class:`~repro.scenarios.streaming.StreamingGraphFamily`
  shard streams for 10^5–10^6-node graphs routed with flat resident memory.

Each module's names are imported from that module.  This package module
defines only the helpers below, which build
:class:`~repro.analysis.experiments.ScenarioSpec` grids for the new
families (``hetero-unit-disk``, ``churn``, ``mobility``, ``streamed-*``),
mirroring ``unit_disk_scenarios`` / ``structured_scenarios`` so sweeps,
conformance, the task API and the served daemon cover them like any other
family.  See ``docs/scenarios.md``.
"""

from __future__ import annotations

import itertools
from typing import List, Optional, Sequence

from repro.analysis.experiments import ScenarioSpec
from repro.errors import ExperimentError
from repro.scenarios.capabilities import profile_named
from repro.scenarios.streaming import STREAMED_KINDS

__all__ = [
    "hetero_unit_disk_scenarios",
    "churn_scenarios",
    "mobility_scenarios",
    "streamed_scenarios",
]


def hetero_unit_disk_scenarios(
    sizes: Sequence[int],
    radius: float,
    dimension: int = 2,
    seeds: Sequence[int] = (0,),
    profile: str = "mixed",
) -> List[ScenarioSpec]:
    """A grid of heterogeneous (budgeted) unit-disk scenarios."""
    profile_named(profile)
    return [
        ScenarioSpec(
            name=f"hetero-{profile}-n{size}-s{seed}",
            family="hetero-unit-disk",
            size=size,
            seed=seed,
            radius=radius,
            dimension=dimension,
            extra=(("profile", profile),),
        )
        for size, seed in itertools.product(sizes, seeds)
    ]


def _dynamic_hetero_scenarios(
    family: str,
    sizes: Sequence[int],
    radius: float,
    dimension: int,
    seeds: Sequence[int],
    profile: str,
    snapshot_count: int,
    switch_every: int,
) -> List[ScenarioSpec]:
    profile_named(profile)
    if snapshot_count < 1:
        raise ExperimentError("a schedule needs at least one snapshot")
    return [
        ScenarioSpec(
            name=f"{family}-{profile}-n{size}-s{seed}",
            family=family,
            size=size,
            seed=seed,
            radius=radius,
            dimension=dimension,
            extra=(
                ("profile", profile),
                ("snapshots", snapshot_count),
                ("switch_every", switch_every),
            ),
        )
        for size, seed in itertools.product(sizes, seeds)
    ]


def churn_scenarios(
    sizes: Sequence[int],
    radius: float,
    dimension: int = 2,
    seeds: Sequence[int] = (0,),
    profile: str = "mixed",
    snapshot_count: int = 4,
    switch_every: int = 6,
) -> List[ScenarioSpec]:
    """A grid of churn scenarios (per-class link churn over a hetero base)."""
    return _dynamic_hetero_scenarios(
        "churn", sizes, radius, dimension, seeds, profile, snapshot_count, switch_every
    )


def mobility_scenarios(
    sizes: Sequence[int],
    radius: float,
    dimension: int = 2,
    seeds: Sequence[int] = (0,),
    profile: str = "mixed",
    snapshot_count: int = 4,
    switch_every: int = 6,
) -> List[ScenarioSpec]:
    """A grid of waypoint-mobility scenarios."""
    return _dynamic_hetero_scenarios(
        "mobility", sizes, radius, dimension, seeds, profile, snapshot_count, switch_every
    )


def streamed_scenarios(
    family: str,
    sizes: Sequence[int],
    seeds: Sequence[int] = (0,),
    shard_size: int = 1024,
    radius: Optional[float] = None,
    dimension: int = 2,
) -> List[ScenarioSpec]:
    """A grid of streamed (sharded) scenarios for a ``streamed-*`` family."""
    prefix = "streamed-"
    if not family.startswith(prefix) or family[len(prefix):] not in STREAMED_KINDS:
        raise ExperimentError(
            f"{family!r} is not a streamed family; expected streamed-<kind> "
            f"with kind in {STREAMED_KINDS}"
        )
    return [
        ScenarioSpec(
            name=f"{family}-n{size}-s{seed}",
            family=family,
            size=size,
            seed=seed,
            radius=radius,
            dimension=dimension,
            extra=(("shard_size", shard_size),),
        )
        for size, seed in itertools.product(sizes, seeds)
    ]
