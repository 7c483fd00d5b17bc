#!/usr/bin/env python3
"""Quickstart: sparse semi-oblivious routing in ~30 lines.

Builds a hypercube, samples alpha = 4 candidate paths per pair from
Valiant's oblivious routing, reveals a random permutation demand, adapts
the sending rates, and compares the resulting congestion against the
offline optimum and against routing obliviously (no adaptation).

Run with::

    python examples/quickstart.py [dimension] [alpha]
"""

from __future__ import annotations

import sys

from repro import build_router, randomized_rounding, topologies
from repro.core.competitive import congestion_ratio
from repro.demands import random_permutation_demand
from repro.mcf import min_congestion_lp
from repro.utils.tables import Table


def main(dimension: int = 4, alpha: int = 4, seed: int = 0) -> None:
    network = topologies.hypercube(dimension)
    print(f"Topology: {network.name} (n={network.num_vertices}, m={network.num_edges})")

    # 1-2. Sample alpha candidate paths per pair from an oblivious routing
    # (Valiant's trick on hypercubes) — the semi-oblivious structure.
    router = build_router(f"semi-oblivious(valiant, alpha={alpha})", network, rng=seed)
    router.install()
    oblivious = router.oblivious
    print(f"Installed {router.system.num_paths()} candidate paths "
          f"(sparsity {router.system.sparsity()}, alpha = {alpha})")

    # 3. The demand is revealed only now.
    demand = random_permutation_demand(network, rng=seed + 1)
    print(f"Demand: random permutation, {demand.support_size()} packets")

    # 4. Adapt the sending rates on the candidate paths (fractional + integral).
    fractional = router.route(demand)
    integral = randomized_rounding(fractional.routing, demand.rounded_up(), rng=seed + 2)

    # 5. Compare against the offline optimum and the non-adaptive oblivious routing.
    optimum = min_congestion_lp(network, demand).congestion
    oblivious_congestion = oblivious.routing_for_demand(demand).congestion(demand)

    table = Table(headers=["scheme", "congestion", "vs optimum"], title="Results")
    table.add_row("offline optimum (LP)", optimum, 1.0)
    for scheme, congestion in (
        ("semi-oblivious (fractional rates)", fractional.congestion),
        ("semi-oblivious (integral, Lemma 6.3)", integral.congestion),
        (f"oblivious ({oblivious.name}, fixed splits)", oblivious_congestion),
    ):
        table.add_row(scheme, congestion, congestion_ratio(congestion, optimum))
    print()
    print(table)
    print()
    print("A handful of random paths plus rate adaptation lands within a small factor "
          "of the offline optimum — the paper's headline phenomenon.")


if __name__ == "__main__":
    dim = int(sys.argv[1]) if len(sys.argv) > 1 else 4
    a = int(sys.argv[2]) if len(sys.argv) > 2 else 4
    main(dim, a)
