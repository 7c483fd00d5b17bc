#!/usr/bin/env python3
"""The Section 8 lower bound, constructively.

Builds the gadget C(n, k) of Lemma 8.1 (Figure 1 of the paper), samples an
alpha-sparse semi-oblivious routing from a competitive oblivious routing,
and runs the pigeonhole adversary from the proof: it finds a permutation
demand between star leaves whose every candidate path squeezes through a
common set S' of at most alpha middle vertices.  Any routing restricted to
the candidate paths then has congestion at least |matching| / alpha, while
the offline optimum routes the same demand with congestion 1.

Run with::

    python examples/lower_bound_demo.py [n] [alpha]
"""

from __future__ import annotations

import sys

from repro.core.competitive import congestion_ratio
from repro.core.rate_adaptation import optimal_rates
from repro.core.sampling import alpha_sample
from repro.demands.adversarial import lower_bound_adversary
from repro.graphs.lower_bound import ascii_render_gadget, gadget_size_k, lower_bound_gadget
from repro.mcf import min_congestion_lp
from repro.oblivious import RaeckeTreeRouting
from repro.utils.tables import Table


def main(n: int = 64, alpha: int = 2, seed: int = 0) -> None:
    k = gadget_size_k(n, alpha)
    network, layout = lower_bound_gadget(n, k)
    print(ascii_render_gadget(layout))
    print(f"\nGadget C({n}, {k}): {network.num_vertices} vertices, {network.num_edges} edges "
          f"(k = floor(n^(1/(2*alpha))) for alpha = {alpha})\n")

    oblivious = RaeckeTreeRouting(network, rng=seed)
    pairs = [(s, t) for s in layout.left_leaves for t in layout.right_leaves]
    system = alpha_sample(oblivious, alpha, pairs=pairs, rng=seed)
    print(f"Sampled an alpha = {alpha} sparse semi-oblivious routing over the "
          f"{len(pairs)} leaf-to-leaf pairs.")

    adversary = lower_bound_adversary(system, layout)
    print(f"Adversary found a matching of {len(adversary.matching)} leaf pairs whose candidate "
          f"paths all cross the bottleneck set S' of {len(adversary.bottleneck_vertices)} middle "
          f"vertex(es).")

    adaptation = optimal_rates(system, adversary.demand)
    optimum = min_congestion_lp(network, adversary.demand).congestion

    table = Table(headers=["quantity", "value"], title="\nLemma 8.1 in numbers")
    table.add_row("offline optimal congestion", optimum)
    table.add_row("guaranteed lower bound (matching / |S'|)", adversary.congestion_lower_bound)
    table.add_row("best congestion on the sampled paths", adaptation.congestion)
    table.add_row("measured competitive ratio", congestion_ratio(adaptation.congestion, optimum))
    table.add_row("theory curve n^(1/(2 alpha)) / alpha", k / alpha)
    print(table)
    print("\nEven with demand-adaptive rates, the sparse candidate set cannot escape the "
          "bottleneck — matching the paper's lower-bound trade-off.")


if __name__ == "__main__":
    n_arg = int(sys.argv[1]) if len(sys.argv) > 1 else 64
    alpha_arg = int(sys.argv[2]) if len(sys.argv) > 2 else 2
    main(n_arg, alpha_arg)
