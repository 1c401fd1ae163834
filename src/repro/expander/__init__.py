"""The zig-zag / derandomization substrate behind Theorem 4.

The paper's guarantee rests on Reingold's log-space construction of universal
exploration sequences, which in turn rests on the zig-zag product machinery
(turn any connected bounded-degree graph into an expander by repeatedly
squaring and zig-zagging with a fixed base expander; an expander has
logarithmic diameter, so short walks suffice).  This subpackage implements
that machinery on rotation maps:

* :mod:`repro.expander.rotation_ops` — graph powering, self-loop padding and
  the zig-zag product itself, all on
  :class:`~repro.graphs.labeled_graph.LabeledGraph` rotation maps;
* :mod:`repro.expander.base` — explicit base expanders (complete graphs with
  self-loops, Margulis-style constructions, spectrally certified pseudo-random
  regular graphs);
* :mod:`repro.expander.spectral` — spectral-gap certification;
* :mod:`repro.expander.reingold` — the main transformation
  ``G_{i+1} = (G_i² ⓩ H)`` iterated for a configurable number of rounds, and
  a fully deterministic exploration-sequence provider derived from walks on a
  fixed base expander.

As documented in DESIGN.md, the reproduction does not chase the (astronomical)
constants of the original construction: the base expanders here are small, so
the per-round spectral-gap amplification is demonstrated empirically rather
than guaranteed by the theorem's parameters, and the deterministic sequence
provider is certified for universality by
:class:`repro.core.universal.CertifiedSequenceProvider` instead of being
proved universal analytically.
"""
