"""Exception hierarchy for the :mod:`repro` package.

All library-specific errors derive from :class:`ReproError` so that callers
can catch every failure mode of the reproduction with a single ``except``
clause while still being able to discriminate the individual causes.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "GraphStructureError",
    "PortLabelingError",
    "NotRegularError",
    "SequenceError",
    "SequenceExhaustedError",
    "UniversalityCertificationError",
    "RoutingError",
    "MemoryBudgetExceeded",
    "HeaderOverflowError",
    "SimulationError",
    "SimulationLimitExceeded",
    "ProtocolViolation",
    "GeometryError",
    "ExperimentError",
    "TaskError",
]


class ReproError(Exception):
    """Base class for every error raised by the :mod:`repro` package."""


class GraphStructureError(ReproError):
    """A graph violates a structural requirement (e.g. malformed rotation map)."""


class PortLabelingError(GraphStructureError):
    """A port labeling is not a valid local permutation of ``0..deg(v)-1``."""


class NotRegularError(GraphStructureError):
    """An operation required a d-regular graph but the graph is not regular."""

    def __init__(self, message: str, expected_degree: int | None = None) -> None:
        super().__init__(message)
        self.expected_degree = expected_degree


class SequenceError(ReproError):
    """Base class for exploration-sequence related errors."""


class SequenceExhaustedError(SequenceError):
    """An exploration walk requested a step index beyond the sequence length."""


class UniversalityCertificationError(SequenceError):
    """A sequence failed (or could not complete) a universality certification."""


class RoutingError(ReproError):
    """Base class for routing-layer failures (not: routing returning 'failure')."""


class MemoryBudgetExceeded(RoutingError):
    """A node attempted to store more than its O(log n) memory budget allows."""

    def __init__(self, message: str, used_bits: int, budget_bits: int) -> None:
        super().__init__(message)
        self.used_bits = used_bits
        self.budget_bits = budget_bits


class HeaderOverflowError(RoutingError):
    """A message header exceeded its declared bit budget."""


class SimulationError(ReproError):
    """Base class for network-simulator failures."""


class SimulationLimitExceeded(SimulationError):
    """The simulator exceeded a configured step/time/message limit."""


class ProtocolViolation(SimulationError):
    """A protocol handler performed an action the node model does not allow."""


class GeometryError(ReproError):
    """A geometric construction received invalid input (dimension, radius, ...)."""


class ExperimentError(ReproError):
    """An experiment/benchmark harness was configured inconsistently."""


class TaskError(ReproError):
    """A :mod:`repro.api` task request was malformed or misrouted.

    Raised for API-layer misuse — an unknown backend id, a request type a
    backend does not support, a schedule task built from a non-dynamic
    scenario — never for a *routing* outcome (failure confirmations are
    ordinary results, not errors)."""
