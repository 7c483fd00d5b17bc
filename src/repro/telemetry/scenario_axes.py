"""Scenario-axis registration for the telemetry layer.

Imported lazily by :mod:`repro.scenarios.spec` (see
``_EXTENSION_AXIS_MODULES``); importing it registers the demand kind
``estimated`` — what a telemetry-only controller *believes* the demand
is.  Each snapshot of a base demand model (default ``fitted-gravity``)
is routed by a shortest-path measurement routing, observed through the
telemetry model (noise, sensor coverage, granularity), and replaced by
its ODME estimate:

    DemandSpec("estimated", params=(("base", "fitted-gravity"),
                                    ("noise", 0.05), ("coverage", 0.75)))

Sweeping ``estimated(...)`` against its own base kind gives scenario
grids an estimated-vs-true axis: the difference between the two cells
is exactly the competitive-ratio cost of demand estimation error.

Randomness is consumed from the runner-passed generator in a fixed
order (base series first, then one observation per snapshot), so the
axis obeys the suite determinism contract for any worker count.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.demands.traffic_matrix import TrafficMatrixSeries
from repro.graphs.network import Network
from repro.linalg.compiled import CompiledRouting
from repro.oblivious.shortest_path import shortest_path_tree_routing
from repro.scenarios.spec import DemandSpec, register_demand_kind

from repro.telemetry.observation import ObservationModel
from repro.telemetry.odme import estimate_demand

#: Base-model parameters forwarded from estimated(...) to the base kind.
_FORWARDED_PARAMS = ("total", "jitter")


def _series_estimated(
    network: Network, snapshots: int, rng, params: Dict[str, Any]
) -> TrafficMatrixSeries:
    base_kind = str(params.get("base", "fitted-gravity"))
    base_params = tuple(
        (key, params[key]) for key in _FORWARDED_PARAMS if key in params
    )
    truth = DemandSpec(base_kind, params=base_params).series(network, snapshots, rng)

    # The measurement routing follows each source's shortest-path tree:
    # demand-independent, deterministic, and per-source trees keep the
    # ingress-telemetry inverse problems well-posed.
    compiled = CompiledRouting.from_routing(shortest_path_tree_routing(network))
    model = ObservationModel(
        noise=float(params.get("noise", 0.05)),
        coverage=float(params.get("coverage", 1.0)),
        granularity=str(params.get("granularity", "ingress")),
    )
    method = str(params.get("method", "auto"))
    regularization = float(params.get("regularization", 0.0))
    estimated = []
    for snapshot in truth:
        observation = model.observe(compiled, snapshot, rng=rng)
        estimate = estimate_demand(
            compiled, observation, method=method, regularization=regularization
        )
        estimated.append(estimate.demand)
    return TrafficMatrixSeries(snapshots=estimated)


# overwrite=True keeps registration idempotent: if this module's import
# fails partway once, the spec layer retries it on the next axis use.
register_demand_kind("estimated", _series_estimated, overwrite=True)
