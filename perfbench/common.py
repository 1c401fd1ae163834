"""Shared plumbing of the benchmark: checkout layout, inputs, timing helpers."""

from __future__ import annotations

import dataclasses
import hashlib
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Set-up is repeated this many times per run, alternating the cores, and
#: reported as the median.
SETUP_REPEATS = 4

#: What a fresh interpreter imports before it can serve any workload.
IMPORT_PROBE = (
    "import repro.api, repro.analysis.runner, repro.core.batch_kernel, "
    "repro.provenance.log, repro.server.app"
)


class CheckoutError(RuntimeError):
    """The benchmark was started outside a checkout that holds the sources."""


def checkout_root() -> str:
    """The checkout the benchmark runs in: the current directory."""
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        raise CheckoutError(
            f"{root} holds no src/repro package; run the benchmark from the root "
            "of a checkout of the repository"
        )
    return root


def use_checkout_sources(root: str) -> None:
    """Import ``repro`` from this checkout's ``src`` and nowhere else."""
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import repro

    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        raise CheckoutError(f"repro imported from {repro.__file__}, not from {src}")


def child_env(root: str) -> Dict[str, str]:
    """Environment for child interpreters: this checkout's sources, no overrides."""
    env = {
        key: value for key, value in os.environ.items()
        if not key.startswith("REPRO_")
    }
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def scratch_dir(root: str, workload: str) -> str:
    """A fresh per-run directory for logs and span dumps, inside the checkout."""
    path = os.path.join(root, ".perfbench_tmp", f"{workload}-{os.getpid()}")
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def remove_scratch(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)
    parent = os.path.dirname(path)
    try:
        os.rmdir(parent)
    except OSError:
        pass


def rng_for(seed: int, *labels: object) -> random.Random:
    """A generator determined by the workload seed and a label path."""
    key = ":".join(str(label) for label in (seed,) + labels)
    return random.Random(hashlib.sha256(key.encode()).hexdigest())


def derived_seed(seed: int, *labels: object) -> int:
    return rng_for(seed, *labels).randrange(1 << 30)


def import_seconds(root: str) -> float:
    """Wall time for a fresh interpreter to import the package."""
    started = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], env=child_env(root), cwd=root,
        check=True, timeout=120,
    )
    return time.perf_counter() - started


class CoreAlternation:
    """Moves this process to the next core before each operation.

    The cores of a shared host change speed independently, by up to 2x
    within seconds.  A single-threaded client left to the scheduler stays on
    one core and measures that core's luck; alternating samples every core
    in each run.  The original affinity is restored on exit.
    """

    def __init__(self) -> None:
        self.original = os.sched_getaffinity(0)
        self.cores = sorted(self.original)
        self.turn = 0

    def __enter__(self) -> "CoreAlternation":
        return self

    def next(self) -> None:
        os.sched_setaffinity(0, {self.cores[self.turn % len(self.cores)]})
        self.turn += 1

    def __exit__(self, *exc) -> None:
        os.sched_setaffinity(0, self.original)


class ReferenceClock:
    """Scales this run's times to a reference core.

    The cores of a shared host drift in speed by up to 2x over seconds to
    minutes, which moves every wall time of a run together.  Between its
    operations a run times a fixed snippet of interpreter work that the
    benchmark owns and no change to the package can touch; ``scale`` is
    ``REFERENCE_S`` over the median snippet time, and an end-to-end time is
    reported as ``measured * scale`` (a rate as ``measured / scale``).
    ``REFERENCE_S`` is the snippet's time on a fast core of the machine in
    ``perfbench/README.md``, so scaled figures read as times on that core.
    """

    REFERENCE_S = 0.02

    def __init__(self) -> None:
        self.samples: List[float] = []

    def probe(self) -> None:
        started = time.perf_counter()
        generator = random.Random(0)
        tuple(generator.randrange(3) for _ in range(40_000))
        self.samples.append(time.perf_counter() - started)

    @property
    def scale(self) -> float:
        return self.REFERENCE_S / statistics.median(self.samples)


def timed_setups(repeats: int, body: Callable[[], object]) -> Tuple[float, object]:
    """Median time of ``body`` over ``repeats`` runs, each pinned to the next core.

    Child processes inherit the pinning, so every core gets the same share
    of the set-ups.  Not scaled by a reference snippet: a few snippets
    timed beside each set-up widened its spread.  Returns the median time
    and the last result of ``body``.
    """
    times: List[float] = []
    result = None
    with CoreAlternation() as cores:
        for _ in range(repeats):
            cores.next()
            started = time.perf_counter()
            result = body()
            times.append(time.perf_counter() - started)
    return median(times), result


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it has reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0-100) of ``values``."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def stripped_wire(result) -> Dict[str, object]:
    """A result envelope without its timing and its chain position."""
    from repro.api.envelope import to_wire

    provenance = dict(result.provenance or {})
    provenance.pop("parent", None)
    return to_wire(dataclasses.replace(result, elapsed_seconds=0.0, provenance=provenance))


def components(graph) -> Dict[int, int]:
    """Connected-component label of every vertex of ``graph``."""
    label: Dict[int, int] = {}
    for start in graph.vertices:
        if start in label:
            continue
        label[start] = start
        stack = [start]
        while stack:
            vertex = stack.pop()
            for port in range(graph.degree(vertex)):
                neighbour, _ = graph.rotation(vertex, port)
                if neighbour not in label:
                    label[neighbour] = start
                    stack.append(neighbour)
    return label


@dataclasses.dataclass
class Outcome:
    """What a workload run hands back to `run.py`."""

    attempted: int
    failed: int
    metrics: Dict[str, float]
    report: List[str] = dataclasses.field(default_factory=list)
    problems: List[str] = dataclasses.field(default_factory=list)


def note_scale(report: List[str], clock: ReferenceClock) -> None:
    note(report, "reference_scale", clock.scale, "x",
         f"{len(clock.samples)} snippets; times after set-up are measured x scale")


def note(report: List[str], name: str, value: float, unit: str,
         detail: Optional[str] = None) -> None:
    """One human-readable metric line for the report."""
    line = f"  {name:<34} {value:>14.6g} {unit}"
    if detail:
        line += f"   ({detail})"
    report.append(line)
