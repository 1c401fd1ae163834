"""The paper's primary contribution: guaranteed ad hoc routing via universal
exploration sequences.

The subpackage is organised to mirror the paper:

* :mod:`repro.core.exploration` — exploration-sequence walk semantics on
  port-labeled graphs, including the reversibility property (Section 2);
* :mod:`repro.core.universal` — universal exploration sequence providers and
  the certification machinery that stands in for Reingold's Theorem 4;
* :mod:`repro.core.memory` — the O(log n) space accounting used by nodes and
  message headers;
* :mod:`repro.core.routing` — Algorithm ``Route`` (Section 3, Theorem 1);
* :mod:`repro.core.walk_kernel` / :mod:`repro.core.engine` — the flat-array
  walk kernel and the prepared per-graph engine (cached reduction, size
  tables, ``route_many`` batch API) every entry point routes through;
* :mod:`repro.core.broadcast` — broadcasting along the exploration walk;
* :mod:`repro.core.reliable_broadcast` — Bracha's reliable broadcast layered
  on UES point-to-point routing, tolerating f < n/3 Byzantine nodes;
* :mod:`repro.core.counting` — Algorithm ``CountNodes`` (Section 4);
* :mod:`repro.core.hybrid` — the Corollary 2 combiner that runs a fast
  probabilistic router in parallel with the guaranteed one.
"""
