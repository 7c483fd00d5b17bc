"""Scale-frontier synthetic topologies (the ``repro.synth`` layer).

Seeded ISP-like generators at the 1k–10k-node scale — the substrates
the compiled evaluation of :mod:`repro.linalg` is measured on:

* :func:`~repro.synth.generators.isp` — three-tier PoP/backbone/access
  hierarchy with heavy-tailed Pareto capacities;
* :func:`~repro.synth.generators.backbone` — flat calibrated-Waxman
  geographic backbone.

Registered as scenario topology kinds (``isp(pops=16)``,
``backbone(2000)``) via :mod:`repro.synth.scenario_axes`, and measured
by the ``scale`` bench target in :mod:`repro.synth.bench`; the spec
layer and the :mod:`repro.bench` harness import those modules lazily,
so importing this package never pulls the scenario or bench layers
eagerly.
"""

from repro.synth.generators import (
    backbone,
    isp,
    isp_node_count,
    validate_backbone_params,
    validate_isp_params,
)

__all__ = [
    "backbone",
    "isp",
    "isp_node_count",
    "validate_backbone_params",
    "validate_isp_params",
]
