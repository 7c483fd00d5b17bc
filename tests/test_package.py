"""Package-level tests: public API surface, exceptions hierarchy, version."""

import importlib

import pytest

import repro
from repro import exceptions


def test_version_present():
    assert repro.__version__


def test_public_api_exports_exist():
    for name in repro.__all__:
        assert hasattr(repro, name), f"repro.__all__ lists missing attribute {name}"


@pytest.mark.parametrize(
    "module_name",
    [
        "repro.core",
        "repro.core.path_system",
        "repro.core.routing",
        "repro.core.sampling",
        "repro.core.rate_adaptation",
        "repro.core.rounding",
        "repro.core.integral_routing",
        "repro.core.weak_routing",
        "repro.core.competitive",
        "repro.core.completion_time",
        "repro.graphs",
        "repro.graphs.network",
        "repro.graphs.cuts",
        "repro.graphs.topologies",
        "repro.graphs.lower_bound",
        "repro.graphs.generators",
        "repro.demands",
        "repro.demands.demand",
        "repro.demands.generators",
        "repro.demands.adversarial",
        "repro.demands.traffic_matrix",
        "repro.oblivious",
        "repro.oblivious.base",
        "repro.oblivious.valiant",
        "repro.oblivious.valiant_general",
        "repro.oblivious.racke",
        "repro.oblivious.electrical",
        "repro.oblivious.shortest_path",
        "repro.oblivious.hop_constrained",
        "repro.mcf",
        "repro.mcf.lp",
        "repro.mcf.path_lp",
        "repro.mcf.integral",
        "repro.te",
        "repro.te.metrics",
        "repro.te.failures",
        "repro.analysis",
        "repro.experiments",
        "repro.utils",
    ],
)
def test_every_module_imports_and_exports_all(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__, f"{module_name} is missing a module docstring"
    exported = getattr(module, "__all__", None)
    if exported is not None:
        for name in exported:
            assert hasattr(module, name), f"{module_name}.__all__ lists missing {name}"


def test_exception_hierarchy():
    assert issubclass(exceptions.GraphError, exceptions.ReproError)
    assert issubclass(exceptions.DemandError, exceptions.ReproError)
    assert issubclass(exceptions.PathError, exceptions.ReproError)
    assert issubclass(exceptions.RoutingError, exceptions.ReproError)
    assert issubclass(exceptions.SolverError, exceptions.ReproError)
    assert issubclass(exceptions.InfeasibleError, exceptions.SolverError)


def test_exceptions_catchable_via_base():
    with pytest.raises(exceptions.ReproError):
        raise exceptions.InfeasibleError("nested")
