"""Summary statistics for experiment reporting: the geometric mean."""

from __future__ import annotations

import math
from typing import Optional, Sequence

__all__ = ["geometric_mean"]


def geometric_mean(values: Sequence[float]) -> Optional[float]:
    """Geometric mean of strictly positive values (``None`` when undefined)."""
    if not values or any(v <= 0 for v in values):
        return None
    return math.exp(sum(math.log(v) for v in values) / len(values))
