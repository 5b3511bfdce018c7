"""End-to-end layout-generation flows.

* :class:`~repro.flow.hierarchical.HierarchicalFlow` — the paper's flow
  (Fig. 1): schematic bias calibration, primitive-level layout
  optimization (Algorithm 1), simulated-annealing placement over the
  binned options, global routing, primitive port optimization with
  constraint reconciliation (Algorithm 2), final post-layout assembly and
  measurement.
* Flavors of the same engine reproduce the paper's baselines:
  ``conventional`` (geometric constraints honored, no parasitic/LDE
  optimization, single-wire routes) and ``manual`` (an exhaustive-search
  oracle standing in for expert manual layout).
"""

from repro.flow.hierarchical import FlowResult, HierarchicalFlow

__all__ = [
    "FlowResult",
    "HierarchicalFlow",
]
