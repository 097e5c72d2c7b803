"""Test oracles: second implementations of kernels that ``src`` runs once.

Each graph and IR kernel has one implementation in ``src/repro``,
chosen by wall time.  The implementations it replaced live here, out
of the production import graph, so property tests can still compare
two independent computations of the same result:

* :mod:`tests.reference.graphs` — bitset MCS and greedy colouring
  (``src`` runs them on the dict-of-set graph) and the dict-of-set
  conservative-coalescing worklist (``src`` runs it on the bitset
  graph);
* :mod:`tests.reference.ir` — dict-of-set liveness, Chaitin
  interference and live-interval builds (``src`` runs them on
  liveness bitmasks).
"""
