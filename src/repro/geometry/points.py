"""Points in 2D and 3D Euclidean space.

Positions double as the "unique universal names" of the routing model
(Section 1.1 of the paper suggests physical locations as node names), so the
representation is deliberately simple, hashable and exact-comparable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

from repro.errors import GeometryError

__all__ = ["Point", "distance", "squared_distance"]


@dataclass(frozen=True, order=True)
class Point:
    """An immutable point in 2 or 3 dimensions.

    2D points have ``z == 0.0`` and ``dimension == 2`` only when constructed
    through :meth:`planar`; use :meth:`spatial` for genuine 3D points.
    """

    x: float
    y: float
    z: float = 0.0
    dimension: int = 2

    def __post_init__(self) -> None:
        if self.dimension not in (2, 3):
            raise GeometryError(f"unsupported dimension {self.dimension}")
        if self.dimension == 2 and self.z != 0.0:
            raise GeometryError("2D points must have z == 0")

    @classmethod
    def planar(cls, x: float, y: float) -> "Point":
        """Construct a 2D point."""
        return cls(float(x), float(y), 0.0, 2)

    @classmethod
    def spatial(cls, x: float, y: float, z: float) -> "Point":
        """Construct a 3D point."""
        return cls(float(x), float(y), float(z), 3)

    def coordinates(self) -> Tuple[float, ...]:
        """Coordinates as a tuple of length ``dimension``."""
        if self.dimension == 2:
            return (self.x, self.y)
        return (self.x, self.y, self.z)

    def distance_to(self, other: "Point") -> float:
        """Euclidean distance to ``other``."""
        return distance(self, other)

    def translated(self, dx: float, dy: float, dz: float = 0.0) -> "Point":
        """Return a copy moved by the given offsets."""
        if self.dimension == 2:
            if dz:
                raise GeometryError("cannot translate a 2D point along z")
            return Point.planar(self.x + dx, self.y + dy)
        return Point.spatial(self.x + dx, self.y + dy, self.z + dz)


def squared_distance(a: Point, b: Point) -> float:
    """Squared Euclidean distance (cheaper than :func:`distance`, same ordering)."""
    return (a.x - b.x) ** 2 + (a.y - b.y) ** 2 + (a.z - b.z) ** 2


def distance(a: Point, b: Point) -> float:
    """Euclidean distance between two points (dimensions may differ)."""
    return math.sqrt(squared_distance(a, b))
