"""ODME estimators: demand matrices from observed link loads.

Origin–destination matrix estimation is the linear inverse problem at
the heart of the telemetry loop: the compiled pair × edge operator
``M`` of a :class:`~repro.linalg.CompiledRouting` is exactly the
assignment-matrix Jacobian (``loads = demand @ M``), so estimating the
demand from measured loads means solving ``d >= 0, d @ M ≈ y`` over the
reporting counters.  Two estimator families are provided:

* **non-negative least squares** (:func:`estimate_demand` with
  ``method="nnls"``/``"auto"``): solve the restricted system directly
  with ``scipy.optimize.nnls``.  Under
  ``"ingress"`` telemetry the problem decomposes into one small
  well-posed system per source node (shortest-path rows per source form
  a tree, hence an invertible path matrix) and noise-free recovery is
  exact; under aggregate ``"link"`` telemetry the system is heavily
  underdetermined and a Tikhonov anchor toward a prior
  (``regularization > 0``) picks among the solutions.
* **entropy projection** (``method="entropy"``): aggregate the observed
  loads into node marginals (:func:`~repro.net.marginals_from_link_loads`)
  and fit the maximum-entropy demand matching them — IPF on the pair
  simplex, optionally warm-started from a gravity ``prior``.  Pure
  numpy, coarse but robust: the tomogravity-style fallback when the
  routing operator is unavailable or untrusted.

:func:`gravity_prior` builds the standard warm start from the ingestion
layer's gravity fit (PR 5), aligned to a compiled pair index.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional

import numpy as np
from scipy.optimize import nnls

from repro.demands.demand import Demand
from repro.exceptions import TelemetryError
from repro.telemetry.observation import LinkLoadObservation

#: Estimator method names accepted by :func:`estimate_demand`.
METHODS = ("auto", "nnls", "entropy")

#: Below this relative magnitude an estimated entry is treated as zero.
_VALUE_CUTOFF = 1e-12


@dataclass(frozen=True)
class OdmeEstimate:
    """One estimated demand matrix plus estimation diagnostics.

    ``vector`` is aligned to the compiled pair index the estimate was
    produced against; ``residual`` is the relative load-reproduction
    error over the reporting counters (``||d̂ @ M − y|| / ||y||``), the
    figure a controller can check *without* knowing the true demand.
    """

    demand: Demand
    vector: np.ndarray = field(repr=False)
    method: str
    residual: float
    converged: bool
    observed_fraction: float
    granularity: str

    def to_dict(self) -> Dict[str, Any]:
        return {
            "method": self.method,
            "residual": self.residual,
            "converged": self.converged,
            "observed_fraction": self.observed_fraction,
            "granularity": self.granularity,
            "total_volume": float(self.vector.sum()),
        }


def _anchored(A: np.ndarray, b: np.ndarray, regularization: float, anchor: np.ndarray):
    """Row-stack the Tikhonov anchor ``sqrt(λ)·(x − anchor) → 0``."""
    weight = float(np.sqrt(regularization))
    stacked_A = np.vstack([A, weight * np.eye(A.shape[1])])
    stacked_b = np.concatenate([b, weight * anchor])
    return stacked_A, stacked_b


def gravity_prior(compiled, total: Optional[float] = None) -> np.ndarray:
    """A gravity-fit demand vector over ``compiled``'s pair index.

    The warm start for regularized/entropy estimation: the ingestion
    layer's capacity-weighted gravity fit (:func:`repro.net.fit_gravity`),
    vectorized against the compiled pair order.  ``total`` defaults to
    the gravity model's own default volume.
    """
    from repro.net.fitting import fit_gravity

    demand = fit_gravity(
        compiled.network, total=float(total) if total is not None else 10.0
    )
    return compiled.demand_vector(demand, missing="drop")


def _vector_to_demand(compiled, vector: np.ndarray) -> Demand:
    cutoff = _VALUE_CUTOFF * max(float(vector.max(initial=0.0)), 1.0)
    values = {
        pair: float(value)
        for pair, value in zip(compiled.pairs, vector)
        if value > cutoff
    }
    return Demand(values, network=compiled.network)


def _check_observation(compiled, observation: LinkLoadObservation) -> None:
    if observation.num_edges != compiled.num_edges:
        raise TelemetryError(
            f"observation covers {observation.num_edges} edges but the compiled "
            f"routing has {compiled.num_edges}; it measures a different network"
        )
    if observation.granularity == "ingress":
        if observation.loads.ndim != 2 or observation.loads.shape[0] != len(
            observation.sources
        ):
            raise TelemetryError(
                "ingress observation loads must be (num_sources, num_edges)"
            )
    elif observation.loads.ndim != 1:
        raise TelemetryError("link observation loads must be one-dimensional")
    if not observation.observed.any():
        raise TelemetryError("observation has no reporting counters to estimate from")


def _estimate_nnls(
    compiled,
    observation: LinkLoadObservation,
    prior: Optional[np.ndarray],
    regularization: float,
) -> np.ndarray:
    operator = compiled.pair_edge_operator.toarray()
    columns = observation.observed_indices
    if observation.granularity == "ingress":
        vector = np.zeros(compiled.num_pairs)
        source_rows: Dict[Any, list] = {}
        for index, (source, _target) in enumerate(compiled.pairs):
            source_rows.setdefault(source, []).append(index)
        source_index = {vertex: i for i, vertex in enumerate(observation.sources)}
        for source, rows in source_rows.items():
            row_of_source = source_index.get(source)
            if row_of_source is None:
                raise TelemetryError(
                    f"observation reports no ingress row for source {source!r}"
                )
            A = operator[np.ix_(rows, columns)].T
            b = observation.loads[row_of_source, columns]
            if regularization > 0.0 and prior is not None:
                A, b = _anchored(A, b, regularization, prior[rows])
            vector[rows] = nnls(A, b)[0]
        return vector
    A = operator[:, columns].T
    b = observation.loads[columns]
    if regularization > 0.0:
        anchor = prior if prior is not None else np.zeros(compiled.num_pairs)
        A, b = _anchored(A, b, regularization, anchor)
    return nnls(A, b)[0]


def _estimate_entropy(
    compiled,
    observation: LinkLoadObservation,
    prior: Optional[np.ndarray],
    total: Optional[float],
) -> Demand:
    from repro.net.fitting import marginals_from_link_loads, max_entropy_demand

    marginals = marginals_from_link_loads(
        compiled.network, observation.observed_edge_loads()
    )
    if total is None:
        # Every routed demand unit contributes one load unit per hop, so
        # total load ≈ volume · mean hops; partial coverage scales the
        # observed load sum down by the reporting fraction.
        operator = compiled.pair_edge_operator.toarray()
        hops_per_pair = np.asarray(operator.sum(axis=1), dtype=float).ravel()
        mean_hops = float(hops_per_pair.mean()) if hops_per_pair.size else 1.0
        observed_sum = float(
            observation.aggregate_loads()[observation.observed_indices].sum()
        )
        scale = observation.num_edges / max(int(observation.observed.sum()), 1)
        total = observed_sum * scale / max(mean_hops, 1e-12)
    prior_demand: Optional[Mapping] = None
    if prior is not None:
        prior_demand = {
            pair: float(value)
            for pair, value in zip(compiled.pairs, prior)
            if value > 0
        }
    return max_entropy_demand(
        compiled.network, marginals, total=float(total), prior=prior_demand
    )


def estimate_demand(
    compiled,
    observation: LinkLoadObservation,
    method: str = "auto",
    prior: Optional[np.ndarray] = None,
    regularization: float = 0.0,
    total: Optional[float] = None,
) -> OdmeEstimate:
    """Estimate the demand that produced ``observation`` under ``compiled``.

    Parameters
    ----------
    compiled:
        The routing the observed traffic was forwarded by — its
        pair × edge operator is the estimation Jacobian.
    observation:
        The telemetry snapshot (see :class:`ObservationModel`).
    method:
        ``"auto"``/``"nnls"`` (non-negative least squares,
        ``scipy.optimize.nnls``) or ``"entropy"``
        (marginal aggregation + IPF projection).
    prior:
        Optional demand vector over ``compiled.pairs`` used as warm
        start: the Tikhonov anchor for regularized NNLS, the IPF seed
        for the entropy projection (see :func:`gravity_prior`).
    regularization:
        Tikhonov weight anchoring the NNLS solution toward ``prior``
        (ignored by the entropy method; required for a unique answer
        under aggregate ``"link"`` telemetry).
    total:
        Total volume for the entropy projection (default: inferred from
        the observed load sum and the operator's mean hop count).
    """
    if method not in METHODS:
        raise TelemetryError(
            f"unknown ODME method {method!r}; available: {METHODS}"
        )
    if regularization < 0:
        raise TelemetryError(f"regularization must be nonnegative, got {regularization}")
    if prior is not None:
        prior = np.asarray(prior, dtype=float)
        if prior.shape != (compiled.num_pairs,):
            raise TelemetryError(
                f"prior vector has shape {prior.shape}, expected "
                f"({compiled.num_pairs},) to match the compiled pair index"
            )
    _check_observation(compiled, observation)

    if method == "entropy":
        demand = _estimate_entropy(compiled, observation, prior, total)
        vector = compiled.demand_vector(demand, missing="drop")
        diagnostics = getattr(demand, "fit_diagnostics", None)
        converged = bool(diagnostics.converged) if diagnostics is not None else True
        name = "entropy-ipf"
    else:
        vector = _estimate_nnls(compiled, observation, prior, regularization)
        demand = _vector_to_demand(compiled, vector)
        converged = True
        name = "nnls-scipy"

    operator = compiled.pair_edge_operator.toarray()
    columns = observation.observed_indices
    reproduced = np.asarray(vector @ operator, dtype=float).ravel()[columns]
    target = observation.aggregate_loads()[columns]
    norm = float(np.linalg.norm(target))
    residual = float(np.linalg.norm(reproduced - target)) / max(norm, 1e-12)
    return OdmeEstimate(
        demand=demand,
        vector=vector,
        method=name,
        residual=residual,
        converged=converged,
        observed_fraction=observation.observed_fraction,
        granularity=observation.granularity,
    )


__all__ = [
    "METHODS",
    "OdmeEstimate",
    "estimate_demand",
    "gravity_prior",
]
