"""repro — reproduction of "On ad hoc routing with guaranteed delivery".

The package reproduces Mark Braverman's PODC 2008 note end to end: ad hoc
routing (and broadcasting) with *guaranteed delivery* on arbitrary static
topologies, using universal exploration sequences over a degree-reduced
3-regular version of the network, with O(log n) node memory and O(log n)
message overhead, in time polynomial in the size of the source's connected
component — plus the network simulator, topology generators, baseline
algorithms and experiment harness needed to evaluate it.

Every name has one import path, the module that defines it; the packages
re-export nothing (``repro.api``, the task-API front door, is the one
exception).  Importing a module therefore loads only what that module uses.

Quickstart
----------

>>> from repro.core.routing import RouteOutcome, route
>>> from repro.network.adhoc import build_unit_disk_network
>>> network = build_unit_disk_network(30, radius=0.35, seed=1)
>>> result = route(network.graph, source=0, target=17)
>>> result.outcome
<RouteOutcome.SUCCESS: 'success'>

See ``examples/`` for complete scenarios and ``benchmarks/`` for the
experiment harness described in EXPERIMENTS.md.
"""

__version__ = "1.0.0"
