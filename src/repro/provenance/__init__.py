"""Accountable provenance: the content-addressed, hash-chained result log.

Every result-producing layer of the repository — the task API
(:mod:`repro.api`), the sharded sweep orchestrator
(:mod:`repro.analysis.runner`), the routing daemon (:mod:`repro.server`) and
the benchmark harness (``benchmarks/bench_utils.py``) — used to persist its
numbers in its own ad-hoc format.  This package replaces those formats with
one schema:

* :mod:`repro.provenance.records` — canonical JSON encoding, content
  addresses (sha256 of ``(request envelope, scenario spec, seeds,
  code/schema version)``) and the hash-chain sealing rules.
* :mod:`repro.provenance.log` — :class:`ResultLog`, the append-only JSONL
  log with atomic flushed appends, corrupt-tail-tolerant reads and a strict
  chain verifier.
* :mod:`repro.provenance.replay` — re-execute recorded task/shard records
  through the live code and assert bitwise-identical payloads; the engine
  behind ``repro log verify`` / ``replay`` / ``diff`` (see ``docs/cli.md``).

The record schema, chain rules and replay semantics are documented in
``docs/provenance.md``.

Like every package but :mod:`repro.api`, this one imports nothing: callers
import the submodules.  Eager re-exports here would make ``import repro.provenance.log`` in one thread and
``import repro.provenance.records`` in another deadlock on importlib's module
locks (each thread holding the lock the other waits for).
"""
