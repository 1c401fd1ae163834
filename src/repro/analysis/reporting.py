"""Plain-text table rendering for experiment output.

Every consumer of an :class:`~repro.analysis.experiments.ExperimentResult`
renders through these helpers: the benchmark modules (which persist their
reproduction tables under ``benchmarks/output/``), the CLI subcommands, the
conformance report, and the sweep orchestrator's aggregated tables — so the
console output stays visually consistent everywhere.  Rendering is pure
formatting: a table renders identically whether its rows came from the
serial reference sweep or were aggregated from a parallel run's JSONL
stream.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

__all__ = ["format_cell", "format_table"]


def format_cell(value: object, precision: int = 3) -> str:
    """Render one table cell: floats rounded, ``None`` as a dash, rest via str."""
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.{precision}f}"
    return str(value)


def _render_rows(
    headers: Sequence[str], rows: Iterable[Sequence[object]], precision: int
) -> List[List[str]]:
    rendered = [[format_cell(cell, precision) for cell in row] for row in rows]
    for row in rendered:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells but the table declares {len(headers)} columns"
            )
    return rendered


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: Optional[str] = None,
    precision: int = 3,
) -> str:
    """Render an aligned fixed-width text table."""
    rendered = _render_rows(headers, rows, precision)
    widths = [
        max(len(str(headers[col])), *(len(row[col]) for row in rendered)) if rendered else len(str(headers[col]))
        for col in range(len(headers))
    ]
    lines: List[str] = []
    if title:
        lines.append(title)
    header_line = "  ".join(str(h).ljust(widths[i]) for i, h in enumerate(headers))
    lines.append(header_line)
    lines.append("  ".join("-" * w for w in widths))
    for row in rendered:
        lines.append("  ".join(row[i].ljust(widths[i]) for i in range(len(headers))))
    return "\n".join(lines)
