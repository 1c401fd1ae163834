"""Execution traces and aggregate statistics for simulated runs.

Every message transmission and every application-level delivery is recorded.
The analysis layer turns traces into the metrics the experiments report
(message count, maximum header size, per-node load, completion time).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

__all__ = ["TraceEvent", "DeliveryRecord", "SimulationStats"]


@dataclass(frozen=True)
class TraceEvent:
    """One message transmission over a physical link."""

    time: int
    sender: int
    sender_port: int
    receiver: int
    receiver_port: int
    header_bits: int
    summary: str = ""


@dataclass(frozen=True)
class DeliveryRecord:
    """An application-level delivery (a protocol called ``ctx.deliver``)."""

    time: int
    node: int
    payload: object
    note: str = ""


@dataclass
class SimulationStats:
    """Aggregate counters accumulated during a run."""

    transmissions: int = 0
    max_header_bits: int = 0
    final_time: int = 0
    per_node_sent: Dict[int, int] = field(default_factory=dict)
    per_node_received: Dict[int, int] = field(default_factory=dict)

    def record_transmission(self, event: TraceEvent) -> None:
        """Fold one transmission into the counters."""
        self.transmissions += 1
        self.max_header_bits = max(self.max_header_bits, event.header_bits)
        self.final_time = max(self.final_time, event.time)
        self.per_node_sent[event.sender] = self.per_node_sent.get(event.sender, 0) + 1
        self.per_node_received[event.receiver] = (
            self.per_node_received.get(event.receiver, 0) + 1
        )
