"""Benchmark regression gate: fresh BENCH_*.json reports vs committed baselines.

Every benchmark module emits a machine-readable report
(``benchmarks/output/BENCH_<name>.json``, written by
``benchmarks/bench_utils.py``).  The committed baselines under
``benchmarks/baselines/`` state what a healthy report must look like:

* ``require`` — fields (dotted paths into the report) that must equal the
  given value exactly: correctness invariants such as ``mismatches == 0``,
  ``identical == true`` or ``parity.identical == true``.  These hold in
  every mode.
* ``min`` — per-mode numeric floors (``{"full": {"speedup": 3.0},
  "smoke": {}}``), applied to the mode the report declares.  Smoke runs on
  loaded CI hosts prove correctness only, so their floor maps are typically
  empty; full runs gate performance with conservative floors (a regression
  has to be real to trip them, machine jitter does not).

Both sides must declare a ``schema_version`` this gate understands (currently
``1``); a missing or unknown version fails with an error naming the fix, so a
report-format change can never pass the gate by accident.

Exit status is 0 when every baseline's report exists and meets its bar, 1
otherwise (missing report, missing field, failed requirement or floor).
Run after the benchmarks::

    PYTHONPATH=src python benchmarks/bench_batch.py
    python tools/check_bench.py

``--output-dir`` / ``--baseline-dir`` override the default locations.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, List, Tuple

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_OUTPUT_DIR = os.path.join(REPO_ROOT, "benchmarks", "output")
DEFAULT_BASELINE_DIR = os.path.join(REPO_ROOT, "benchmarks", "baselines")

_MISSING = object()

#: Report-envelope versions this gate understands (see
#: ``benchmarks/bench_utils.py:BENCH_SCHEMA_VERSION``).
KNOWN_SCHEMA_VERSIONS = (1,)


def _schema_errors(name: str, role: str, document: Dict[str, object]) -> List[str]:
    """Violations of the ``schema_version`` contract for one side of a pair."""
    version = document.get("schema_version", _MISSING)
    if version is _MISSING:
        return [
            f"{name}: {role} has no schema_version — it predates the v1 "
            "report envelope; rerun the benchmark (or re-baseline) to refresh it"
        ]
    if version not in KNOWN_SCHEMA_VERSIONS:
        known = ", ".join(str(v) for v in KNOWN_SCHEMA_VERSIONS)
        return [
            f"{name}: {role} declares schema_version {version!r}, but this "
            f"gate only understands {{{known}}} — update tools/check_bench.py "
            "alongside the format change"
        ]
    return []


def _lookup(report: Dict[str, object], path: str):
    """Resolve a dotted path (``parity.identical``) in the report."""
    node: object = report
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            return _MISSING
        node = node[part]
    return node


def check_report(baseline: Dict[str, object], report: Dict[str, object]) -> List[str]:
    """All violations of one report against its baseline (empty = pass)."""
    errors: List[str] = []
    name = baseline.get("benchmark", "?")
    errors.extend(_schema_errors(name, "baseline", baseline))
    errors.extend(_schema_errors(name, "report", report))
    if errors:
        # An unknown or missing envelope version means the field layout is
        # not trustworthy; do not interpret the rest of the document.
        return errors
    if report.get("benchmark") != name:
        errors.append(
            f"{name}: report is for {report.get('benchmark')!r}, not {name!r}"
        )
    for path, expected in dict(baseline.get("require", {})).items():
        actual = _lookup(report, path)
        if actual is _MISSING:
            errors.append(f"{name}: required field {path!r} missing from report")
        elif actual != expected:
            errors.append(f"{name}: {path} == {actual!r}, required {expected!r}")
    mode = report.get("mode", "full")
    floors = dict(baseline.get("min", {})).get(mode, {})
    for path, floor in dict(floors).items():
        actual = _lookup(report, path)
        if actual is _MISSING:
            errors.append(f"{name}: gated field {path!r} missing from report")
        elif not isinstance(actual, (int, float)) or actual < floor:
            errors.append(
                f"{name} ({mode} mode): {path} = {actual!r} is below the "
                f"baseline floor {floor!r}"
            )
    return errors


def load_pairs(
    baseline_dir: str, output_dir: str
) -> Tuple[List[Tuple[str, Dict[str, object], Dict[str, object]]], List[str]]:
    """Match every committed baseline with its fresh report."""
    pairs: List[Tuple[str, Dict[str, object], Dict[str, object]]] = []
    errors: List[str] = []
    names = sorted(
        entry
        for entry in os.listdir(baseline_dir)
        if entry.startswith("BENCH_") and entry.endswith(".json")
    )
    if not names:
        errors.append(f"no BENCH_*.json baselines under {baseline_dir}")
    for entry in names:
        with open(os.path.join(baseline_dir, entry), "r", encoding="utf-8") as handle:
            baseline = json.load(handle)
        report_path = os.path.join(output_dir, entry)
        if not os.path.exists(report_path):
            errors.append(
                f"{entry}: no fresh report at {report_path} — run the "
                "benchmark before gating"
            )
            continue
        with open(report_path, "r", encoding="utf-8") as handle:
            report = json.load(handle)
        pairs.append((entry, baseline, report))
    return pairs, errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output-dir", default=DEFAULT_OUTPUT_DIR)
    parser.add_argument("--baseline-dir", default=DEFAULT_BASELINE_DIR)
    args = parser.parse_args(argv)

    pairs, errors = load_pairs(args.baseline_dir, args.output_dir)
    checked = 0
    for entry, baseline, report in pairs:
        errors.extend(check_report(baseline, report))
        checked += 1
    if errors:
        print(f"check_bench: FAIL ({len(errors)} violations)", file=sys.stderr)
        for error in errors:
            print(f"  {error}", file=sys.stderr)
        return 1
    print(f"check_bench: ok ({checked} reports meet their baselines)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
