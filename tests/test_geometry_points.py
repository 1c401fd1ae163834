"""Tests for points, distances and basic geometric helpers."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GeometryError
from repro.geometry.points import Point, distance, squared_distance

coords = st.floats(min_value=-100, max_value=100, allow_nan=False, allow_infinity=False)


def test_planar_and_spatial_constructors():
    p2 = Point.planar(1.0, 2.0)
    assert p2.dimension == 2 and p2.z == 0.0
    p3 = Point.spatial(1.0, 2.0, 3.0)
    assert p3.dimension == 3 and p3.z == 3.0


def test_invalid_dimension_rejected():
    with pytest.raises(GeometryError):
        Point(1.0, 2.0, 0.0, 4)
    with pytest.raises(GeometryError):
        Point(1.0, 2.0, 1.0, 2)


def test_coordinates_length_matches_dimension():
    assert Point.planar(1, 2).coordinates() == (1.0, 2.0)
    assert Point.spatial(1, 2, 3).coordinates() == (1.0, 2.0, 3.0)


def test_distance_2d_and_3d():
    assert distance(Point.planar(0, 0), Point.planar(3, 4)) == pytest.approx(5.0)
    assert distance(Point.spatial(0, 0, 0), Point.spatial(1, 2, 2)) == pytest.approx(3.0)


def test_distance_to_method_matches_function():
    a, b = Point.planar(1, 1), Point.planar(4, 5)
    assert a.distance_to(b) == distance(a, b)


def test_squared_distance_consistent():
    a, b = Point.planar(0, 0), Point.planar(3, 4)
    assert squared_distance(a, b) == pytest.approx(25.0)


def test_translation():
    p = Point.planar(1, 1).translated(2, 3)
    assert (p.x, p.y) == (3.0, 4.0)
    q = Point.spatial(0, 0, 0).translated(1, 1, 1)
    assert q.z == 1.0
    with pytest.raises(GeometryError):
        Point.planar(0, 0).translated(1, 1, 1)


def test_points_are_hashable_and_ordered():
    a, b = Point.planar(0, 0), Point.planar(1, 0)
    assert len({a, b, Point.planar(0, 0)}) == 2
    assert a < b


@settings(max_examples=50, deadline=None)
@given(x1=coords, y1=coords, x2=coords, y2=coords)
def test_property_distance_symmetry_and_triangle_with_origin(x1, y1, x2, y2):
    a, b, origin = Point.planar(x1, y1), Point.planar(x2, y2), Point.planar(0, 0)
    assert distance(a, b) == pytest.approx(distance(b, a))
    assert distance(a, b) <= distance(a, origin) + distance(origin, b) + 1e-9
    assert distance(a, a) == 0.0
