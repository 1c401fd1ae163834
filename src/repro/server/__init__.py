"""Routing-as-a-service: the asyncio HTTP/JSON daemon over the Session facade.

The package splits along responsibility lines — :mod:`~repro.server.config`
(one frozen record of every knob), :mod:`~repro.server.queueing` (bounded
admission + latency accounting), :mod:`~repro.server.handlers` (HTTP wire
format and the structured-4xx validation layer), :mod:`~repro.server.app`
(the daemon itself) and :mod:`~repro.server.client` (the stdlib asyncio
client used by the tests and the load harness).  ``repro serve`` and
``python -m repro.server`` are the entry points; ``docs/server.md`` is the
operator manual.
"""
