"""Tests for messages and bit-accounted headers."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.memory import bits_for_value
from repro.errors import HeaderOverflowError
from repro.network.message import Header, HeaderSchema, Message


def test_header_field_validates_width():
    schema = HeaderSchema({"index": 7})
    Header(schema, (100,))
    with pytest.raises(HeaderOverflowError):
        Header(schema, (200,))
    with pytest.raises(HeaderOverflowError):
        HeaderSchema({"index": -1})


def test_header_total_bits_and_lookup():
    schema = HeaderSchema({"source": 8, "target": 8, "dir": 1})
    header = Header(schema, (3, 9, 1))
    assert header.total_bits == schema.total_bits == 17
    assert header.get("source") == 3
    assert schema.names == ("source", "target", "dir")
    with pytest.raises(KeyError):
        header.get("missing")


def test_header_needs_one_value_per_field():
    schema = HeaderSchema({"source": 8, "index": 16})
    header = Header(schema, (5, 1000))
    assert header.total_bits == 24
    with pytest.raises(HeaderOverflowError):
        Header(schema, (5,))
    with pytest.raises(HeaderOverflowError):
        Header(schema, (5, 1, 2))


def test_header_repr():
    header = Header(HeaderSchema({"a": 4, "b": 1}), (2, True))
    assert header.values == (2, True)
    assert "bits" in repr(header)


def test_message_overhead_excludes_payload():
    header = Header(HeaderSchema({"index": 8}), (1,))
    message = Message(header=header, payload="x" * 1000)
    assert message.overhead_bits == 8


@settings(max_examples=50, deadline=None)
@given(value=st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_property_field_width_of_32_bits_accepts_all_32_bit_values(value):
    header = Header(HeaderSchema({"name": 32}), (value,))
    assert header.total_bits == 32


@settings(max_examples=50, deadline=None)
@given(
    widths=st.dictionaries(
        st.sampled_from(["a", "b", "c", "d"]), st.integers(min_value=1, max_value=16), min_size=1
    )
)
def test_property_header_total_bits_is_sum_of_widths(widths):
    schema = HeaderSchema(widths)
    header = Header(schema, (0,) * len(widths))
    assert header.total_bits == sum(widths.values())


def _old_rule_rejects(widths, values):
    """The reference fit rule, one field at a time: a field rejects a negative
    width, or a value needing more bits than its width by ``bits_for_value``."""
    return any(bits < 0 or bits_for_value(value) > bits for bits, value in zip(widths, values))


_VALUES = st.one_of(
    st.integers(min_value=-(2 ** 40), max_value=2 ** 40),
    # Both sides of every power of two, where the bit cost changes.
    st.integers(min_value=0, max_value=41).flatmap(
        lambda k: st.sampled_from([2 ** k - 1, 2 ** k, -(2 ** k), 1 - 2 ** k])
    ),
    st.booleans(),
    st.none(),
    st.text(max_size=4),
)


@settings(max_examples=300, deadline=None)
@given(
    fields=st.lists(
        st.tuples(st.integers(min_value=-3, max_value=42), _VALUES), min_size=1, max_size=6
    )
)
def test_property_schema_rejects_exactly_what_the_old_rule_rejected(fields):
    widths = [bits for bits, _value in fields]
    values = tuple(value for _bits, value in fields)
    names = [f"f{i}" for i in range(len(fields))]
    try:
        Header(HeaderSchema(dict(zip(names, widths))), values)
    except HeaderOverflowError:
        rejected = True
    else:
        rejected = False
    assert rejected == _old_rule_rejects(widths, values)
