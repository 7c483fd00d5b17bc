"""Scenario sweeps: declarative failure × demand × topology grids.

The production-scale counterpart of the one-at-a-time experiments: a
:class:`ScenarioSuite` declares a grid of topology generators, demand
models and failure processes; :func:`run_suite` executes every cell
through a shared :class:`~repro.engine.engine.RoutingEngine` (one
oblivious-routing construction and one min-cut cache per topology,
candidate paths installed once) with deterministic per-cell seeds, and
emits a JSON artifact consumable by the experiment harness::

    from repro.scenarios import get_suite, run_suite

    result = run_suite(get_suite("smoke"), workers=2)
    print(result.render())          # harness Table view
    artifact = result.to_json()     # bit-identical for any worker count
"""

from repro.scenarios.report import ARTIFACT_VERSION, SuiteResult
from repro.scenarios.runner import run_suite
from repro.scenarios.store import ArtifactStore, suite_hash
from repro.scenarios.spec import (
    DemandSpec,
    FailureSpec,
    ScenarioCell,
    ScenarioError,
    ScenarioSuite,
    TopologyKind,
    TopologySpec,
    available_demand_kinds,
    available_suites,
    available_topology_kinds,
    get_suite,
    register_demand_kind,
    register_suite,
    register_topology_kind,
)

__all__ = [
    "ARTIFACT_VERSION",
    "ArtifactStore",
    "SuiteResult",
    "run_suite",
    "suite_hash",
    "DemandSpec",
    "FailureSpec",
    "ScenarioCell",
    "ScenarioError",
    "ScenarioSuite",
    "TopologyKind",
    "TopologySpec",
    "available_demand_kinds",
    "available_suites",
    "available_topology_kinds",
    "get_suite",
    "register_demand_kind",
    "register_suite",
    "register_topology_kind",
]
