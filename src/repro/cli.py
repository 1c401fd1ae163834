"""Command-line interface: ``python -m repro <command>``.

Every subcommand is *generated* from the task registry
(:data:`repro.api.registry.TASKS`): the registry names the task, declares its
argparse arguments and builds its request object, and ``main`` dispatches
every request — whatever the subcommand — through one
:class:`repro.api.Session`, so the CLI exercises exactly the public task API
and nothing else.  The functions below only *render* the uniform
:class:`~repro.api.envelope.TaskResult` envelopes into tables.

``python -m repro route --family unit-disk --size 40 --radius 0.3 --source 0 --target 17``
    Route a message with Algorithm ``Route`` and print the outcome, hop count
    and overhead.

``python -m repro broadcast --family grid --size 25 --source 0``
    Broadcast from a source and report coverage and cost (also prints the
    flooding cost for comparison).

``python -m repro count --family unit-disk --size 30 --radius 0.3 --source 0``
    Run Algorithm ``CountNodes`` and print the discovered component size.

``python -m repro connectivity --family grid --size 16 --source 0 --target 15``
    Decide st-connectivity by walking the exploration sequence (the USTCON
    face of the routing algorithm) and print the walk accounting.

``python -m repro compare --family unit-disk --size 30 --radius 0.3 --pairs 5``
    Route the same random pairs with the guaranteed router and every baseline
    and print the comparison table (a miniature of experiment E3).

``python -m repro route-many --family grid --size 144 --pairs 20``
    Batch-route random pairs through the prepared engine and print per-pair
    outcomes plus the aggregate throughput.

``python -m repro route-schedule --family grid --size 16 --snapshots 4 --mutation relabel --pairs 10``
    Route random pairs over a *dynamic* topology schedule (the extension
    beyond the paper's static model) through the schedule-aware engine.

``python -m repro conformance``
    Run the differential conformance harness over the default scenario
    matrix and print the per-(scenario, router) summary; exit status 1 when
    any cross-implementation invariant is violated.  ``--workers N`` shards
    the scenarios across worker processes.

``python -m repro sweep --families grid ring --sizes 16 36 --workers 4 --out sweep.jsonl``
    Shard a scenario × router sweep across worker processes; the summary
    line reports the backend that ran the task plus the session/process
    cache statistics.

``python -m repro serve --port 8421 --concurrency 4``
    Run the routing daemon: every task above served over HTTP/JSON from one
    shared session (``POST /v1/task``, streaming ``POST /v1/tasks``,
    ``GET /metrics``, ``GET /healthz``), with bounded-queue backpressure and
    graceful SIGTERM drain.  ``serve`` is a :class:`~repro.api.registry.CommandSpec`
    — a long-running process command, not a task — see ``docs/server.md``.

``python -m repro log verify results.log``
    Audit a provenance log (``docs/provenance.md``): ``verify`` re-derives
    every record hash and checks the chain links, ``replay`` re-executes
    logged tasks/shards and compares the fresh result against the recorded
    one bit-for-bit, ``diff`` compares two logs record-by-record.  Like
    ``serve``, the ``log`` family is a :class:`~repro.api.registry.CommandSpec`;
    exit status 1 when verification, replay or diff finds a divergence.

All network-generating commands accept ``--seed`` for reproducibility and
``--dimension 3`` for unit-ball (3D) deployments.  Exit status is 0 on
success, 2 on bad arguments.  Every subcommand is documented with
copy-pasteable invocations in ``docs/cli.md``; the task catalogue behind
them lives in ``docs/api.md``.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict, Optional, Sequence, TextIO

from repro.analysis.reporting import format_table
from repro.api.envelope import TaskResult
from repro.api.registry import COMMANDS, TASKS, command_by_name, task_by_name
from repro.api.session import Session
from repro.errors import ReproError

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level parser: one subcommand per registered task."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Guaranteed ad hoc routing via universal exploration sequences (Braverman, PODC 2008)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for spec in TASKS:
        spec.configure(subparsers.add_parser(spec.name, help=spec.help))
    for command in COMMANDS:
        command.configure(subparsers.add_parser(command.name, help=command.help))
    return parser


# --------------------------------------------------------------------------- #
# Renderers: TaskResult envelope -> human-readable tables
# --------------------------------------------------------------------------- #


def _render_route(result: TaskResult, args, session: Session, out: TextIO) -> int:
    payload = result.payload
    rows = [
        ["outcome", payload["outcome"]],
        ["physical hops", payload["physical_hops"]],
        ["forward walk steps", payload["forward_virtual_steps"]],
        ["backtrack steps", payload["backward_virtual_steps"]],
        ["size bound |C'_s|", payload["size_bound"]],
        ["sequence length", payload["sequence_length"]],
        ["header overhead (bits)", payload["header_bits"]],
    ]
    print(
        format_table(["quantity", "value"], rows, title=f"route {args.source} -> {args.target}"),
        file=out,
    )
    return 0


def _render_broadcast(result: TaskResult, args, session: Session, out: TextIO) -> int:
    payload = result.payload
    rows = [
        ["component size", payload["component_size"]],
        ["nodes reached", payload["reach_count"]],
        ["covered component", payload["covered_component"]],
        ["walk transmissions", payload["physical_hops"]],
        ["flooding transmissions", payload["flooding"]["transmissions"]],
        ["flooding rounds", payload["flooding"]["rounds"]],
    ]
    print(
        format_table(["quantity", "value"], rows, title=f"broadcast from {args.source}"),
        file=out,
    )
    return 0


def _render_broadcast_reliable(
    result: TaskResult, args, session: Session, out: TextIO
) -> int:
    payload = result.payload
    rows = [
        ["nodes (n)", payload["n"]],
        ["tolerated faults (f)", payload["f_tolerated"]],
        ["byzantine nodes", len(payload["byzantine"])],
        ["crashed nodes", len(payload["crashed"])],
        ["echo quorum", payload["echo_quorum"]],
        ["delivery quorum", payload["delivery_quorum"]],
        ["honest delivered", f"{len(payload['delivered'])}/{len(payload['honest'])}"],
        ["agreement", payload["agreement"]],
        ["totality", payload["totality"]],
        ["no false delivery", payload["no_false_delivery"]],
        ["messages sent", payload["messages_sent"]],
        ["final time", payload["final_time"]],
        ["header overhead (bits)", payload["header_bits"]],
        ["equivocation evidence", len(payload["evidence"])],
    ]
    print(
        format_table(
            ["quantity", "value"],
            rows,
            title=f"reliable broadcast from {args.source} ({result.status})",
        ),
        file=out,
    )
    if payload["delivered"]:
        print(
            format_table(
                ["node", "delivered value", "time"],
                [
                    [node, value, dict(payload["delivery_times"]).get(node, "-")]
                    for node, value in payload["delivered"]
                ],
                title="per-node deliveries",
            ),
            file=out,
        )
    return 0


def _render_count(result: TaskResult, args, session: Session, out: TextIO) -> int:
    payload = result.payload
    rows = [
        ["original nodes in C_s", payload["original_count"]],
        ["virtual nodes in C'_s", payload["virtual_count"]],
        ["doubling rounds", payload["rounds"]],
        ["final bound 2^k", payload["final_bound"]],
        ["walk steps", payload["walk_steps"]],
    ]
    print(
        format_table(["quantity", "value"], rows, title=f"CountNodes from {args.source}"),
        file=out,
    )
    return 0


def _render_connectivity(result: TaskResult, args, session: Session, out: TextIO) -> int:
    payload = result.payload
    rows = [
        ["connected", payload["connected"]],
        ["walk steps", payload["walk_steps"]],
        ["sequence length", payload["sequence_length"]],
        ["size bound |C'_s|", payload["size_bound"]],
        ["decided early", payload["decided_early"]],
    ]
    print(
        format_table(
            ["quantity", "value"],
            rows,
            title=f"connectivity {args.source} <-> {args.target}",
        ),
        file=out,
    )
    return 0


def _render_compare(result: TaskResult, args, session: Session, out: TextIO) -> int:
    payload = result.payload
    print(
        format_table(
            payload["headers"],
            payload["rows"],
            title=f"comparison on {args.family} (n={args.size}, seed={args.seed})",
        ),
        file=out,
    )
    return 0


def _render_route_many(result: TaskResult, args, session: Session, out: TextIO) -> int:
    payload = result.payload
    rows = [
        [
            source,
            target,
            route["outcome"],
            route["forward_virtual_steps"] + route["backward_virtual_steps"],
            route["physical_hops"],
        ]
        for (source, target), route in zip(payload["pairs"], payload["results"])
    ]
    print(
        format_table(
            ["source", "target", "outcome", "virtual steps", "physical hops"],
            rows,
            title=f"route_many: {len(rows)} pairs on {args.family} (n={args.size})",
        ),
        file=out,
    )
    elapsed = result.elapsed_seconds
    rate = len(rows) / elapsed if elapsed > 0 else float("inf")
    print(
        f"delivered {payload['delivered']}/{len(rows)}; {elapsed:.3f}s total, {rate:.0f} routes/s",
        file=out,
    )
    return 0


def _render_route_schedule(result: TaskResult, args, session: Session, out: TextIO) -> int:
    payload = result.payload
    rows = [
        [
            source,
            target,
            route["outcome"],
            route["steps_taken"],
            route["switches_survived"],
            route["sound"],
        ]
        for (source, target), route in zip(payload["pairs"], payload["results"])
    ]
    print(
        format_table(
            ["source", "target", "outcome", "steps", "switches", "sound"],
            rows,
            title=(
                f"route-schedule: {len(rows)} pairs on {args.family} (n={args.size}), "
                f"{args.snapshots} snapshots ({args.mutation}), "
                f"switch every {args.switch_every} steps"
            ),
        ),
        file=out,
    )
    elapsed = result.elapsed_seconds
    rate = len(rows) / elapsed if elapsed > 0 else float("inf")
    print(
        f"delivered {payload['delivered']}/{len(rows)}; "
        f"{payload['num_compiled_kernels']} kernels compiled for "
        f"{payload['num_snapshots']} snapshots; {elapsed:.3f}s total, {rate:.0f} routes/s",
        file=out,
    )
    return 0


def _render_conformance(result: TaskResult, args, session: Session, out: TextIO) -> int:
    payload = result.payload
    print(
        format_table(payload["headers"], payload["rows"], title="differential conformance"),
        file=out,
    )
    if payload["ok"]:
        print(f"ok: {payload['checks']} checks, no violations", file=out)
        return 0
    violations = payload["violations"]
    print(f"FAIL: {len(violations)} violations in {payload['checks']} checks", file=out)
    for violation in violations[:20]:
        print(
            f"  {violation['scenario']} {violation['router']} "
            f"{violation['source']}->{violation['target']}: "
            f"{violation['invariant']} {violation['detail']}",
            file=out,
        )
    return 1


def _render_sweep(result: TaskResult, args, session: Session, out: TextIO) -> int:
    payload = result.payload
    print(
        format_table(
            payload["headers"],
            payload["rows"],
            title=(
                f"sweep: {payload['shards_total']} shards "
                f"({payload['num_scenarios']} scenarios x {len(args.routers)} routers, "
                f"{args.pairs} pairs each)"
            ),
        ),
        file=out,
    )
    elapsed = result.elapsed_seconds
    rate = payload["shards_executed"] / elapsed if elapsed > 0 else float("inf")
    print(
        f"{payload['shards_executed']} shards executed, "
        f"{payload['shards_skipped']} resumed from disk; "
        f"{len(payload['rows'])} rows; {elapsed:.3f}s with {args.workers} workers "
        f"({rate:.1f} shards/s)",
        file=out,
    )
    cache = session.cache_info()
    cache_summary = " ".join(f"{key}={cache[key]}" for key in sorted(cache))
    print(f"[backend={result.backend} workers={args.workers}; cache: {cache_summary}]", file=out)
    if payload["out_path"] is not None:
        print(f"[streamed to {payload['out_path']}]", file=out)
    return 0


#: Renderer per task name; every task in the registry must have one.
_RENDERERS: Dict[str, Callable[[TaskResult, argparse.Namespace, Session, TextIO], int]] = {
    "route": _render_route,
    "broadcast": _render_broadcast,
    "broadcast-reliable": _render_broadcast_reliable,
    "count": _render_count,
    "connectivity": _render_connectivity,
    "compare": _render_compare,
    "route-many": _render_route_many,
    "route-schedule": _render_route_schedule,
    "conformance": _render_conformance,
    "sweep": _render_sweep,
}

assert set(_RENDERERS) == {spec.name for spec in TASKS}


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    """CLI entry point; returns the process exit status.

    One code path for every subcommand: look the task up in the registry,
    build its request from the parsed arguments, submit it through the
    session, render the envelope.
    """
    out = out if out is not None else sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    command = command_by_name().get(args.command)
    if command is not None:
        # Non-task commands (`repro serve`) own their whole run; nothing to
        # submit or render here.
        try:
            return command.run(args)
        except ReproError as error:
            print(f"error: {error}", file=out)
            return 2
    spec = task_by_name()[args.command]
    session = Session()
    try:
        request = spec.build(args)
        result = session.submit(request)
        return _RENDERERS[spec.name](result, args, session, out)
    except ReproError as error:
        print(f"error: {error}", file=out)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
