"""The task registry: one :class:`TaskSpec` per task the API exposes.

Each spec binds a task name to its request type and its argparse argument
set — which is everything the CLI needs to *generate* its subcommands
instead of hand-writing them: ``repro.cli`` iterates :data:`TASKS`, builds
one subparser per spec, turns the parsed namespace into a request with
:attr:`TaskSpec.build` and submits it through one
:class:`~repro.api.session.Session`.  Adding a task therefore means adding a
request type, an executor and one entry here; the CLI, the envelope codec
and the documentation checker (``tools/check_docs.py`` asserts every
registered task is documented in ``docs/api.md``) pick it up from the
registry.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
from dataclasses import dataclass
from typing import Callable, Dict, Tuple

from repro.analysis.experiments import (
    POSITIONAL_FAMILIES,
    SCENARIO_FAMILIES,
    SCHEDULE_MUTATIONS,
    ScenarioSpec,
    dynamic_schedule_scenarios,
    structured_scenarios,
    unit_disk_scenarios,
)
from repro.errors import TaskError
from repro.api.requests import (
    BroadcastReliableRequest,
    BroadcastRequest,
    CompareRequest,
    ConformanceRequest,
    ConnectivityRequest,
    CountRequest,
    RouteBatchRequest,
    RouteRequest,
    ScheduleRouteRequest,
    SweepRequest,
    TaskRequest,
)

__all__ = [
    "TaskSpec",
    "TASKS",
    "CommandSpec",
    "COMMANDS",
    "task_by_name",
    "command_by_name",
    "scenario_from_args",
]

#: Topology families every network-generating subcommand understands — the
#: canonical list lives next to :func:`repro.analysis.experiments.build_scenario`.
_FAMILY_CHOICES = list(SCENARIO_FAMILIES)

#: Families whose generator consumes ``--radius`` (everything built over a
#: geometric deployment, plus the sharded unit-disk stream).
_RADIUS_FAMILIES = POSITIONAL_FAMILIES + ("streamed-unit-disk",)


@dataclass(frozen=True)
class TaskSpec:
    """One registered task: request type and CLI argument set.

    ``configure`` adds the task's arguments to its generated subparser;
    ``build`` turns the parsed namespace into the request object, which the
    session routes to its default backend.
    """

    name: str
    request_type: type
    help: str
    configure: Callable[[argparse.ArgumentParser], None]
    build: Callable[[argparse.Namespace], TaskRequest]


@dataclass(frozen=True)
class CommandSpec:
    """One registered *non-task* subcommand (long-running process commands).

    Unlike a :class:`TaskSpec`, a command does not build a request and submit
    it through a session — it owns its whole run (``repro serve`` blocks on
    the daemon's event loop until SIGTERM).  Keeping these in the registry
    preserves the one-source-of-truth property: the CLI still generates every
    subcommand, task or not, from here.
    """

    name: str
    help: str
    configure: Callable[[argparse.ArgumentParser], None]
    run: Callable[[argparse.Namespace], int]


def _add_network_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--family",
        default="unit-disk",
        choices=_FAMILY_CHOICES,
        help="topology family to generate",
    )
    parser.add_argument("--size", type=int, default=30, help="number of nodes")
    parser.add_argument(
        "--radius", type=float, default=0.3, help="radio range (positional families)"
    )
    parser.add_argument("--dimension", type=int, default=2, choices=[2, 3], help="deployment dimension")
    parser.add_argument("--seed", type=int, default=0, help="deterministic seed")
    parser.add_argument(
        "--namespace-bits", type=int, default=32, help="bits of the name space (paper's log n)"
    )


def scenario_from_args(args: argparse.Namespace) -> ScenarioSpec:
    """The :class:`ScenarioSpec` described by the shared network arguments."""
    return ScenarioSpec(
        name=f"cli-{args.family}-{args.size}",
        family=args.family,
        size=args.size,
        seed=args.seed,
        radius=args.radius if args.family in _RADIUS_FAMILIES else None,
        dimension=args.dimension,
        namespace_size=2 ** args.namespace_bits,
    )


# --------------------------------------------------------------------------- #
# Per-task argument sets and request builders
# --------------------------------------------------------------------------- #


def _configure_route(parser: argparse.ArgumentParser) -> None:
    _add_network_arguments(parser)
    parser.add_argument("--source", type=int, default=0)
    parser.add_argument("--target", type=int, default=1)


def _build_route(args: argparse.Namespace) -> RouteRequest:
    return RouteRequest(
        scenario=scenario_from_args(args), source=args.source, target=args.target
    )


def _configure_source_task(parser: argparse.ArgumentParser) -> None:
    # Shared by every task whose only input beyond the network is a source
    # vertex (broadcast, count); task-specific flags do not belong here.
    _add_network_arguments(parser)
    parser.add_argument("--source", type=int, default=0)


def _build_broadcast(args: argparse.Namespace) -> BroadcastRequest:
    return BroadcastRequest(scenario=scenario_from_args(args), source=args.source)


def _build_count(args: argparse.Namespace) -> CountRequest:
    return CountRequest(scenario=scenario_from_args(args), source=args.source)


def _configure_broadcast_reliable(parser: argparse.ArgumentParser) -> None:
    # Imported here to keep the canonical behaviour list in one place without
    # widening the registry's module-level import surface.
    from repro.network.byzantine import BYZANTINE_BEHAVIORS

    _add_network_arguments(parser)
    parser.add_argument("--source", type=int, default=0)
    parser.add_argument("--value", default="m", help="the value to broadcast")
    parser.add_argument(
        "--num-byzantine", type=int, default=0, help="nodes to corrupt at random"
    )
    parser.add_argument(
        "--behavior",
        default="equivocate",
        choices=list(BYZANTINE_BEHAVIORS),
        help="behaviour pool for the randomly corrupted nodes",
    )
    parser.add_argument(
        "--fault-seed", type=int, default=0, help="seed picking the corrupted nodes"
    )
    parser.add_argument(
        "--crash", nargs="*", type=int, default=[], help="nodes to crash (crash model)"
    )
    parser.add_argument(
        "--delay", type=int, default=3, help="extra latency of 'delay' adversaries"
    )


def _build_broadcast_reliable(args: argparse.Namespace) -> BroadcastReliableRequest:
    return BroadcastReliableRequest(
        scenario=scenario_from_args(args),
        source=args.source,
        value=args.value,
        num_byzantine=args.num_byzantine,
        behaviors=(args.behavior,),
        fault_seed=args.fault_seed,
        crashes=tuple(args.crash),
        delay=args.delay,
    )


def _configure_connectivity(parser: argparse.ArgumentParser) -> None:
    _add_network_arguments(parser)
    parser.add_argument("--source", type=int, default=0)
    parser.add_argument("--target", type=int, default=1)


def _build_connectivity(args: argparse.Namespace) -> ConnectivityRequest:
    return ConnectivityRequest(
        scenario=scenario_from_args(args), source=args.source, target=args.target
    )


def _configure_compare(parser: argparse.ArgumentParser) -> None:
    _add_network_arguments(parser)
    parser.add_argument("--pairs", type=int, default=5, help="number of random source/target pairs")


def _build_compare(args: argparse.Namespace) -> CompareRequest:
    return CompareRequest(
        scenario=scenario_from_args(args), num_pairs=args.pairs, pair_seed=args.seed
    )


def _configure_route_many(parser: argparse.ArgumentParser) -> None:
    _add_network_arguments(parser)
    parser.add_argument(
        "--pairs", type=int, default=20, help="number of random source/target pairs"
    )


def _build_route_many(args: argparse.Namespace) -> RouteBatchRequest:
    return RouteBatchRequest(
        scenario=scenario_from_args(args), num_pairs=args.pairs, pair_seed=args.seed
    )


def _configure_route_schedule(parser: argparse.ArgumentParser) -> None:
    _add_network_arguments(parser)
    parser.add_argument(
        "--pairs", type=int, default=10, help="number of random source/target pairs"
    )
    parser.add_argument(
        "--snapshots", type=int, default=4, help="number of topology snapshots"
    )
    parser.add_argument(
        "--switch-every", type=int, default=8, help="walk steps between switch-overs"
    )
    parser.add_argument(
        "--mutation",
        default="relabel",
        choices=list(SCHEDULE_MUTATIONS),
        help="how each snapshot differs from the previous one",
    )


def _build_route_schedule(args: argparse.Namespace) -> ScheduleRouteRequest:
    spec = dataclasses.replace(
        scenario_from_args(args),
        extra=(
            ("mutation", args.mutation),
            ("snapshots", args.snapshots),
            ("switch_every", args.switch_every),
        ),
    )
    return ScheduleRouteRequest(
        scenario=spec, num_pairs=args.pairs, pair_seed=args.seed
    )


def _configure_conformance(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--pairs", type=int, default=4, help="source/target pairs per scenario"
    )
    parser.add_argument("--seed", type=int, default=0, help="deterministic seed")
    parser.add_argument(
        "--workers", type=int, default=1, help="worker processes to shard the scenarios across"
    )


def _build_conformance(args: argparse.Namespace) -> ConformanceRequest:
    return ConformanceRequest(
        pairs_per_scenario=args.pairs, seed=args.seed, workers=args.workers
    )


def _configure_sweep(parser: argparse.ArgumentParser) -> None:
    # Imported here (not module level) to keep registry import light; the
    # SWEEP_ROUTERS tuple pulls in the baselines package.
    from repro.analysis.runner import SWEEP_ROUTERS

    parser.add_argument(
        "--families",
        nargs="+",
        default=["grid", "ring"],
        choices=_FAMILY_CHOICES,
        help="topology families to sweep",
    )
    parser.add_argument(
        "--sizes", nargs="+", type=int, default=[16], help="node counts to sweep"
    )
    parser.add_argument(
        "--scenario-seeds",
        nargs="+",
        type=int,
        default=[0],
        help="instance seeds per (family, size) cell",
    )
    parser.add_argument(
        "--radius", type=float, default=0.3, help="radio range (positional families)"
    )
    parser.add_argument(
        "--dimension", type=int, default=2, choices=[2, 3], help="deployment dimension"
    )
    parser.add_argument(
        "--snapshots",
        type=int,
        default=0,
        help=(
            "snapshots per dynamic schedule (churn/mobility default to 4; for a "
            "structured family a value > 0 sweeps its mutated dynamic schedule "
            "instead of the static graph)"
        ),
    )
    parser.add_argument(
        "--shard-size",
        type=int,
        default=64,
        help=(
            "vertices per lazily-materialised shard of a streamed-* family "
            "(walk cost grows superlinearly with shard size; total size only "
            "adds shards)"
        ),
    )
    parser.add_argument(
        "--pairs", type=int, default=8, help="source/target pairs per shard"
    )
    parser.add_argument(
        "--routers",
        nargs="+",
        default=["ues-engine"],
        choices=list(SWEEP_ROUTERS),
        help="routers to run on every applicable scenario",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=os.cpu_count() or 1,
        help="worker processes (1 = the serial reference path)",
    )
    parser.add_argument(
        "--out", default=None, help="stream completed shards to this JSONL file"
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="skip shards whose records are already in --out (after an interrupted run)",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="master seed for deterministic per-shard seeding"
    )
    # Handled by the CLI front end before the request is submitted (it is
    # process configuration, not part of the sweep request wire format):
    # enables the kernel store's content-addressed disk tier, so reruns and
    # pool workers warm-start from persisted compiled kernels.
    parser.add_argument(
        "--kernel-cache-dir",
        default=None,
        help=(
            "persist compiled walk kernels to this directory (content-"
            "addressed by rotation-map hash); workers and reruns warm-start "
            "from it instead of recompiling"
        ),
    )


def _build_sweep(args: argparse.Namespace) -> SweepRequest:
    # Flag-worded twin of the SweepRequest field validation, so the CLI error
    # names the options the user actually typed.
    if args.resume and args.out is None:
        raise TaskError("--resume needs --out: there is no shard stream to resume from")
    if args.snapshots < 0:
        raise TaskError("--snapshots must be >= 0")
    # Imported lazily for the same reason as SWEEP_ROUTERS in _configure_sweep.
    from repro.scenarios import (
        churn_scenarios,
        hetero_unit_disk_scenarios,
        mobility_scenarios,
        streamed_scenarios,
    )

    seeds = tuple(args.scenario_seeds)
    snapshots = getattr(args, "snapshots", 0)
    scenarios = []
    for family in args.families:
        if family == "unit-disk":
            scenarios.extend(
                unit_disk_scenarios(
                    args.sizes, radius=args.radius, dimension=args.dimension, seeds=seeds
                )
            )
        elif family == "hetero-unit-disk":
            scenarios.extend(
                hetero_unit_disk_scenarios(
                    args.sizes, radius=args.radius, dimension=args.dimension, seeds=seeds
                )
            )
        elif family in ("churn", "mobility"):
            build = churn_scenarios if family == "churn" else mobility_scenarios
            scenarios.extend(
                build(
                    args.sizes,
                    radius=args.radius,
                    dimension=args.dimension,
                    seeds=seeds,
                    snapshot_count=snapshots or 4,
                )
            )
        elif family.startswith("streamed-"):
            scenarios.extend(
                streamed_scenarios(
                    family,
                    args.sizes,
                    seeds=seeds,
                    shard_size=args.shard_size,
                    radius=args.radius if family == "streamed-unit-disk" else None,
                    dimension=args.dimension,
                )
            )
        elif snapshots > 0:
            scenarios.extend(
                dynamic_schedule_scenarios(
                    (family,), args.sizes, seeds=seeds, snapshot_count=snapshots
                )
            )
        else:
            scenarios.extend(structured_scenarios(family, args.sizes, seeds=seeds))
    return SweepRequest(
        scenarios=tuple(scenarios),
        routers=tuple(args.routers),
        pairs=args.pairs,
        master_seed=args.seed,
        workers=args.workers,
        out_path=args.out,
        resume=args.resume,
        experiment="cli-sweep",
    )


#: Every registered task, in CLI/subcommand order.
TASKS: Tuple[TaskSpec, ...] = (
    TaskSpec(
        name="route",
        request_type=RouteRequest,
        help="route one message with Algorithm Route",
        configure=_configure_route,
        build=_build_route,
    ),
    TaskSpec(
        name="broadcast",
        request_type=BroadcastRequest,
        help="broadcast from a source node",
        configure=_configure_source_task,
        build=_build_broadcast,
    ),
    TaskSpec(
        name="broadcast-reliable",
        request_type=BroadcastReliableRequest,
        help="Bracha reliable broadcast under injected Byzantine faults",
        configure=_configure_broadcast_reliable,
        build=_build_broadcast_reliable,
    ),
    TaskSpec(
        name="count",
        request_type=CountRequest,
        help="run Algorithm CountNodes from a source",
        configure=_configure_source_task,
        build=_build_count,
    ),
    TaskSpec(
        name="connectivity",
        request_type=ConnectivityRequest,
        help="decide st-connectivity by walking the exploration sequence",
        configure=_configure_connectivity,
        build=_build_connectivity,
    ),
    TaskSpec(
        name="compare",
        request_type=CompareRequest,
        help="compare the guaranteed router against the baselines",
        configure=_configure_compare,
        build=_build_compare,
    ),
    TaskSpec(
        name="route-many",
        request_type=RouteBatchRequest,
        help="batch-route random pairs through the prepared engine",
        configure=_configure_route_many,
        build=_build_route_many,
    ),
    TaskSpec(
        name="route-schedule",
        request_type=ScheduleRouteRequest,
        help="route random pairs over a dynamic topology schedule (extension)",
        configure=_configure_route_schedule,
        build=_build_route_schedule,
    ),
    TaskSpec(
        name="conformance",
        request_type=ConformanceRequest,
        help="run the differential conformance harness over the scenario matrix",
        configure=_configure_conformance,
        build=_build_conformance,
    ),
    TaskSpec(
        name="sweep",
        request_type=SweepRequest,
        help="shard a scenario x router sweep across worker processes",
        configure=_configure_sweep,
        build=_build_sweep,
    ),
)


def _configure_serve(parser: argparse.ArgumentParser) -> None:
    # Deferred import: the server package is only needed when serving.
    from repro.server.config import add_server_arguments

    add_server_arguments(parser)


def _run_serve(args: argparse.Namespace) -> int:
    from repro.server.app import serve
    from repro.server.config import config_from_args

    return serve(config_from_args(args))


def _configure_log(parser: argparse.ArgumentParser) -> None:
    subcommands = parser.add_subparsers(dest="log_command", required=True)

    verify = subcommands.add_parser(
        "verify", help="re-derive every record hash and check the chain links"
    )
    verify.add_argument("path", help="the provenance log to audit")

    replay = subcommands.add_parser(
        "replay", help="re-execute logged records and compare against the log"
    )
    replay.add_argument("path", help="the provenance log to replay from")
    replay.add_argument(
        "address",
        nargs="?",
        default=None,
        help="replay only records with this address (or record hash)",
    )
    replay.add_argument(
        "--index", type=int, default=None, help="replay the record at this index"
    )
    replay.add_argument(
        "--sample",
        type=int,
        default=None,
        help="replay N evenly-spaced replayable records instead of all",
    )

    diff = subcommands.add_parser(
        "diff", help="compare two logs record-by-record via their hashes"
    )
    diff.add_argument("left", help="first log")
    diff.add_argument("right", help="second log")


def _run_log(args: argparse.Namespace) -> int:
    from repro.provenance.replay import run_log_command

    return run_log_command(args)


#: Every registered non-task subcommand.
COMMANDS: Tuple[CommandSpec, ...] = (
    CommandSpec(
        name="serve",
        help="run the routing daemon: the task API over HTTP/JSON",
        configure=_configure_serve,
        run=_run_serve,
    ),
    CommandSpec(
        name="log",
        help="audit a provenance log: verify, replay or diff",
        configure=_configure_log,
        run=_run_log,
    ),
)

assert not {spec.name for spec in COMMANDS} & {spec.name for spec in TASKS}


def task_by_name() -> Dict[str, TaskSpec]:
    """The registry as a name-keyed mapping."""
    return {spec.name: spec for spec in TASKS}


def command_by_name() -> Dict[str, CommandSpec]:
    """The non-task commands as a name-keyed mapping."""
    return {spec.name: spec for spec in COMMANDS}
