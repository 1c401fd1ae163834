"""End-to-end routing benchmark: one command, four workloads, checked outputs.

Run from the root of a checkout::

    python3 perfbench/run.py --workload cold-route --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing installed.
``--trace 1`` runs a fixed, seed-determined slice of the workload twice --
once untraced, once with every layer's public calls wrapped by
:mod:`spans` -- and reports the per-layer self times and counters, the
tracing overhead (traced minus untraced wall time) and a self-check that the
named layers' self times add up to the untraced wall time within that
overhead, while the catch-all self time stays under a ceiling.

Human-readable lines (every metric by name and unit) come first; the last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 only when every output check
passed.  See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import signal
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

from common import CheckoutError, checkout_root, remove_scratch, scratch_dir, use_checkout_sources  # noqa: E402

#: Workload name -> module implementing ``run(root, seed, seconds, trace, scratch)``.
WORKLOADS = {
    "cold-route": "cold_route",
    "batch-warm": "batch_warm",
    "serve-mixed": "serve_mixed",
    "sweep-pool": "sweep_pool",
}

#: The end-to-end metrics every untraced run reports, with their units.
END_TO_END = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "work_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    try:
        root = checkout_root()
        use_checkout_sources(root)
    except (CheckoutError, ImportError) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2

    # A terminated run still stops its daemon and removes its scratch files.
    signal.signal(signal.SIGTERM, lambda _signum, _frame: sys.exit(143))
    module = importlib.import_module(WORKLOADS[args.workload])
    scratch = scratch_dir(root, args.workload)
    started = time.perf_counter()
    try:
        outcome = module.run(root, args.seed, args.seconds, bool(args.trace), scratch)
    finally:
        remove_scratch(scratch)

    if args.trace:
        from spans import PER_LAYER_UNITS as units
    else:
        units = END_TO_END
    if set(outcome.metrics) != set(units):
        outcome.problems.append(f"metrics {sorted(outcome.metrics)} != {sorted(units)}")
    correct = not outcome.problems and outcome.failed == 0

    mode = "traced per-layer" if args.trace else "end-to-end"
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} ({mode})")
    for line in outcome.report:
        print(line)
    if not args.trace:
        print("  reported:")
        for name, value in sorted(outcome.metrics.items()):
            print(f"  {name:<34} {value:>14.6g} {units[name]}")
    fail_ratio = outcome.failed / max(1, outcome.attempted)
    print(f"  {'fail_ratio':<34} {fail_ratio:>14.6g} ratio   "
          f"({outcome.failed} failed of {outcome.attempted} attempted)")
    for problem in outcome.problems[:20]:
        print(f"  CHECK FAILED: {problem}")
    print(f"  run wall time {time.perf_counter() - started:.1f} s")

    print(json.dumps({
        "correct": correct,
        "attempted": max(1, outcome.attempted),
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in sorted(outcome.metrics.items())
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
