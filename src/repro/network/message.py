"""Messages with bit-accounted headers.

The paper allows "an overhead of O(log n) ... on top of the messages to
facilitate delivery" (Section 1.1).  To make that bound measurable, each
protocol compiles one :class:`HeaderSchema` per run — its field names and
their declared widths in bits, and the total — and every message it sends
carries a :class:`Header`: that schema plus a tuple of values.  Building a
header checks that every value fits its field, by the rule
:func:`~repro.core.memory.bits_for_value` defines, so the declared total is
an honest size; experiment E7 sweeps the namespace size and reports the
measured overhead against the ``O(log n)`` envelope.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Sequence, Tuple

from repro.errors import HeaderOverflowError
from repro.core.memory import bits_for_value

__all__ = ["HeaderSchema", "Header", "Message"]


class HeaderSchema:
    """The field names and declared widths of one protocol's header.

    Compiled once per protocol run; ``widths`` maps each field name to its
    width in bits, in wire order.  A negative width raises
    :class:`HeaderOverflowError`.
    """

    __slots__ = ("names", "total_bits", "_position", "_fields")

    def __init__(self, widths: Mapping[str, int]) -> None:
        for name, bits in widths.items():
            if bits < 0:
                raise HeaderOverflowError(f"field {name!r} declares negative width")
        self.names: Tuple[str, ...] = tuple(widths)
        #: Declared size of every header of this schema (the message overhead).
        self.total_bits: int = sum(widths.values())
        self._position: Dict[str, int] = {name: i for i, name in enumerate(self.names)}
        # ``(name, width, low, high)`` per field: a plain int fits its field
        # iff ``low < value < high``, the range ``bits_for_value`` allows (a
        # bit length of at least one, plus a sign bit when negative).
        self._fields: Tuple[Tuple[str, int, int, int], ...] = tuple(
            (name, bits, -(1 << (bits - 1)) if bits else 0, 1 << bits if bits else 0)
            for name, bits in widths.items()
        )


class Header:
    """One message's header: its protocol's schema plus one value per field.

    Headers are immutable; protocol code builds a new header for every hop
    (which mirrors the paper's model where intermediate nodes store nothing
    and all transient state travels with the message).  A value needing more
    bits than its field declares raises :class:`HeaderOverflowError`.
    """

    __slots__ = ("schema", "values")

    def __init__(self, schema: HeaderSchema, values: Sequence[object]) -> None:
        if len(values) != len(schema.names):
            raise HeaderOverflowError(f"{len(values)} values for the fields {schema.names}")
        for (name, bits, low, high), value in zip(schema._fields, values):
            if low < value < high if type(value) is int else bits_for_value(value) <= bits:
                continue
            raise HeaderOverflowError(
                f"field {name!r} holds a value needing {bits_for_value(value)} bits "
                f"but declares only {bits}"
            )
        self.schema = schema
        self.values: Tuple[object, ...] = tuple(values)

    def get(self, name: str) -> object:
        """Value of the named field (``KeyError`` for an undeclared name)."""
        return self.values[self.schema._position[name]]

    @property
    def total_bits(self) -> int:
        """Declared size of the header in bits (the message overhead)."""
        return self.schema.total_bits

    def __repr__(self) -> str:
        inner = ", ".join(f"{name}={value!r}" for name, value in zip(self.schema.names, self.values))
        return f"Header({inner}; {self.total_bits} bits)"


@dataclass(frozen=True)
class Message:
    """A message: an opaque payload plus a routing header.

    The paper's overhead bound concerns only the header; the payload is
    whatever the application wants to deliver and its size is not the routing
    layer's business.
    """

    header: Header
    payload: object = None

    @property
    def overhead_bits(self) -> int:
        """Routing overhead of this message (header only)."""
        return self.header.total_bits
