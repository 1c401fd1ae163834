"""Spectral-gap certification for the zig-zag machinery.

A *spectral certificate* records the measured second eigenvalue of a graph's
random-walk matrix together with the bound it was checked against.  The main
transformation's per-round reports are lists of these, which is how the
ablation benchmark shows the gap being amplified.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.graphs.labeled_graph import LabeledGraph
from repro.graphs.properties import second_eigenvalue

__all__ = ["SpectralCertificate", "certify_expander", "spectral_report"]


@dataclass(frozen=True)
class SpectralCertificate:
    """The measured spectral data of one graph."""

    num_vertices: int
    degree: int
    second_eigenvalue: float
    bound: Optional[float]

    @property
    def gap(self) -> float:
        """Normalised spectral gap ``1 - lambda_2``."""
        return 1.0 - self.second_eigenvalue

    @property
    def satisfied(self) -> bool:
        """True when the measured eigenvalue is within the requested bound."""
        return self.bound is None or self.second_eigenvalue <= self.bound + 1e-9


def certify_expander(
    graph: LabeledGraph, lambda_bound: Optional[float] = None
) -> SpectralCertificate:
    """Measure ``lambda_2`` of ``graph`` and package it as a certificate."""
    degree = graph.require_regular()
    return SpectralCertificate(
        num_vertices=graph.num_vertices,
        degree=degree,
        second_eigenvalue=second_eigenvalue(graph),
        bound=lambda_bound,
    )


def spectral_report(graphs: Sequence[LabeledGraph]) -> List[SpectralCertificate]:
    """Certificates for a sequence of graphs (e.g. the rounds of the recursion)."""
    return [certify_expander(graph) for graph in graphs]
