"""repro — Sparse Semi-Oblivious Routing: Few Random Paths Suffice.

A full reproduction of the PODC 2023 paper by Zuzic ® Haeupler ® Roeyskoe
(arXiv:2301.06647): semi-oblivious routings built by sampling a few paths
per vertex pair from a competitive oblivious routing, with demand-adaptive
rate optimization, randomized rounding to integral routings, the
completion-time extension, the lower-bound constructions, and a
traffic-engineering simulation loop exercising the SMORE consequence.

Quick start — every scheme is addressed through the registry::

    from repro import RoutingEngine, build_router, topologies
    from repro.demands import random_permutation_demand

    net = topologies.hypercube(4)
    router = build_router("semi-oblivious(racke, alpha=4)", net, rng=0)
    router.install()                            # offline: materialize paths
    demand = random_permutation_demand(net, rng=1)
    result = router.route(demand)               # online: adapt rates
    print(result.congestion)

Batch evaluation over many demands shares the cut cache, the sampled
path systems, and the per-snapshot optimal-MCF solves::

    engine = RoutingEngine(net, ["semi-oblivious(racke, alpha=4)", "ksp(k=4)", "spf"], rng=0)
    report = engine.evaluate_matrix_series(series)
    print(report.ranking())

The router is the one object that runs the paper's pipeline; each
further step maps onto a function of the same installed system::

    from repro import evaluate_path_system, randomized_rounding

    integral = randomized_rounding(result.routing, demand.rounded_up(), rng=2)
    report = evaluate_path_system(router.system, demand)   # ratio vs optimum
"""

from repro.core import (
    PathSystem,
    Routing,
    alpha_plus_cut_sample,
    alpha_sample,
    competitive_ratio,
    evaluate_path_system,
    optimal_rates,
    randomized_rounding,
)
from repro.demands import Demand
from repro.engine import (
    RouteResult,
    Router,
    RoutingEngine,
    SchemeError,
    SchemeSpec,
    SemiObliviousRouter,
    available_schemes,
    build_router,
    parse_spec,
    register_scheme,
)
from repro.graphs import Network
from repro.graphs import topologies
from repro.linalg import CompiledRouting
from repro.mcf import min_congestion_lp, min_congestion_on_paths
from repro.oblivious import (
    ElectricalFlowRouting,
    HopConstrainedRouting,
    KShortestPathRouting,
    RaeckeTreeRouting,
    ShortestPathRouting,
    ValiantHypercubeRouting,
)
from repro.scenarios import (
    DemandSpec,
    FailureSpec,
    ScenarioSuite,
    SuiteResult,
    TopologySpec,
    get_suite,
    run_suite,
)
from repro.stream import (
    DemandStream,
    StreamComparison,
    StreamRunResult,
    build_policy,
    build_stream,
    run_stream,
    run_stream_comparison,
)

__version__ = "1.2.0"

__all__ = [
    "__version__",
    "Network",
    "topologies",
    "Demand",
    "PathSystem",
    "Routing",
    "alpha_sample",
    "alpha_plus_cut_sample",
    "optimal_rates",
    "randomized_rounding",
    "competitive_ratio",
    "evaluate_path_system",
    "min_congestion_lp",
    "min_congestion_on_paths",
    # Engine API (the unified entry points)
    "Router",
    "RouteResult",
    "RoutingEngine",
    "SemiObliviousRouter",
    "SchemeSpec",
    "SchemeError",
    "parse_spec",
    "build_router",
    "register_scheme",
    "available_schemes",
    # Oblivious sampling sources
    "RaeckeTreeRouting",
    "ElectricalFlowRouting",
    "ValiantHypercubeRouting",
    "ShortestPathRouting",
    "KShortestPathRouting",
    "HopConstrainedRouting",
    # Compiled evaluation
    "CompiledRouting",
    # Scenario sweeps
    "ScenarioSuite",
    "TopologySpec",
    "DemandSpec",
    "FailureSpec",
    "SuiteResult",
    "run_suite",
    "get_suite",
    # Streaming traffic replay
    "DemandStream",
    "StreamRunResult",
    "StreamComparison",
    "build_stream",
    "build_policy",
    "run_stream",
    "run_stream_comparison",
]
