"""Online rerouting policies for streamed demand.

A *policy* decides, per timestep, whether the forwarding state should
be re-optimized and what routing replaces it.  The stream runner owns
the evaluation loop; the policy only answers two questions —
"should step ``t`` re-solve?" and "what is the routing for this
demand?" — via the small :class:`StreamPolicy` protocol:

* ``static`` — route once at step 0, never re-solve (the pure
  install-once baseline; congestion drifts wherever the stream goes),
* ``periodic(k=8)`` — re-solve the optimal MCF every ``k`` steps (the
  classical TE-controller loop, cf. periodic re-optimization in
  production controllers),
* ``threshold(u=1.0)`` — re-solve the MCF whenever the previous step's
  congestion exceeded ``u`` (reactive re-optimization),
* ``semi-oblivious(every=1)`` — keep the installed candidate-path
  system **fixed** and re-optimize only the splitting ratios every
  ``every`` steps (the paper's semi-oblivious operating point: no
  forwarding-state churn, rate adaptation only).

MCF-based policies obtain their routing through the context's
``optimal_routing`` solver; the ``static`` and ``semi-oblivious``
policies route through the base scheme's :class:`Router`, so they work
on any install (no LP required).  All policies are deterministic given
their context (they draw no random bits).

Forced re-solves: when a policy-provided routing stops covering a
streamed pair (an adversarial shift moved the support), the runner
calls :meth:`StreamPolicy.resolve` outside the policy's own schedule
and counts it separately — see ``forced_resolves`` in the run summary.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Protocol, Tuple, Union, runtime_checkable

from repro.core.routing import Routing
from repro.demands.demand import Demand
from repro.exceptions import StreamError
from repro.graphs.network import Network
from repro.utils.spec_grammar import parse_call


class PolicyContext:
    """What a policy may use to produce routings.

    Parameters
    ----------
    network:
        The topology being streamed over.
    router:
        The base scheme (an installed
        :class:`~repro.engine.router.Router`); ``static`` and
        ``semi-oblivious`` route through it.
    optimal_routing:
        ``demand -> Routing`` solving the optimal MCF (used by
        ``periodic`` and ``threshold``).  ``None`` leaves the context
        without one — MCF policies then fail fast with a typed error
        (:func:`~repro.stream.runner.run_stream` always supplies one).
    """

    def __init__(
        self,
        network: Network,
        router: Any,
        optimal_routing: Optional[Callable[[Demand], Routing]] = None,
    ) -> None:
        self.network = network
        self.router = router
        self.optimal_routing = optimal_routing


@runtime_checkable
class StreamPolicy(Protocol):
    """Structural interface of an online rerouting policy."""

    name: str
    num_resolves: int

    def bind(self, context: PolicyContext) -> None: ...

    def should_resolve(
        self, step: int, demand: Demand, last_congestion: Optional[float]
    ) -> bool: ...

    def resolve(self, step: int, demand: Demand) -> Routing: ...


class _BasePolicy:
    """Shared bookkeeping: context binding and the re-solve counter.

    ``num_resolves`` counts every routing computation, including the
    step-0 initial solve and any forced re-solves — it is the number of
    times forwarding state was pushed, which is the cost a controller
    actually pays.
    """

    name = "policy"

    def __init__(self) -> None:
        self._context: Optional[PolicyContext] = None
        self.num_resolves = 0

    def bind(self, context: PolicyContext) -> None:
        self._context = context
        self.num_resolves = 0

    @property
    def context(self) -> PolicyContext:
        if self._context is None:
            raise StreamError(f"policy {self.name!r} used before bind()")
        return self._context

    def should_resolve(
        self, step: int, demand: Demand, last_congestion: Optional[float]
    ) -> bool:
        return step == 0

    def resolve(self, step: int, demand: Demand) -> Routing:
        self.num_resolves += 1
        routing = self._solve(step, demand)
        if routing is None:
            raise StreamError(
                f"policy {self.name!r}: scheme {getattr(self.context.router, 'name', '?')!r} "
                "did not expose a routing to compile (pick a scheme whose RouteResult "
                "carries one, e.g. a fixed-ratio or semi-oblivious scheme)"
            )
        return routing

    def _solve(self, step: int, demand: Demand) -> Optional[Routing]:
        return self.context.router.route(demand).routing

    def _mcf(self, demand: Demand) -> Routing:
        solver = self.context.optimal_routing
        if solver is None:
            raise StreamError(
                f"policy {self.name!r} re-solves the optimal MCF, but its context has "
                "no optimal_routing solver — use 'static' or 'semi-oblivious' instead"
            )
        return solver(demand)

    def describe(self) -> str:
        return self.name

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r}, resolves={self.num_resolves})"


class StaticPolicy(_BasePolicy):
    """Route once at step 0 through the base scheme; never re-solve."""

    name = "static"


class PeriodicPolicy(_BasePolicy):
    """Re-solve the optimal MCF every ``k`` steps."""

    def __init__(self, k: int = 8) -> None:
        super().__init__()
        self.k = int(k)
        if self.k < 1:
            raise StreamError(f"periodic policy needs k >= 1, got {k}")
        self.name = f"periodic(k={self.k})"

    def should_resolve(
        self, step: int, demand: Demand, last_congestion: Optional[float]
    ) -> bool:
        return step % self.k == 0

    def _solve(self, step: int, demand: Demand) -> Routing:
        return self._mcf(demand)


class ThresholdPolicy(_BasePolicy):
    """Re-solve the optimal MCF when congestion crossed ``u``.

    Step 0 always solves (there is no routing yet); afterwards a
    re-solve triggers whenever the *previous* step's congestion
    strictly exceeded ``u`` — the controller reacts to what it last
    measured, it cannot see the current step's congestion before
    routing it.
    """

    def __init__(self, u: float = 1.0) -> None:
        super().__init__()
        self.u = float(u)
        if self.u <= 0:
            raise StreamError(f"threshold policy needs u > 0, got {u}")
        self.name = f"threshold(u={self.u:g})"

    def should_resolve(
        self, step: int, demand: Demand, last_congestion: Optional[float]
    ) -> bool:
        if step == 0:
            return True
        return last_congestion is not None and last_congestion > self.u

    def _solve(self, step: int, demand: Demand) -> Routing:
        return self._mcf(demand)


class SemiObliviousPolicy(_BasePolicy):
    """Fixed path system, re-split ratios only, every ``every`` steps.

    The forwarding state (the installed candidate paths) never changes;
    a "re-solve" is one rate adaptation on the base scheme — cheap, and
    exactly the semi-oblivious operating point the paper argues stays
    competitive under shifting demand.
    """

    def __init__(self, every: int = 1) -> None:
        super().__init__()
        self.every = int(every)
        if self.every < 1:
            raise StreamError(f"semi-oblivious policy needs every >= 1, got {every}")
        self.name = f"semi-oblivious(every={self.every})"

    def should_resolve(
        self, step: int, demand: Demand, last_congestion: Optional[float]
    ) -> bool:
        return step % self.every == 0


#: kind -> (constructor, default parameter order, one-line description).
_POLICY_KINDS: Dict[str, Tuple[Callable[..., _BasePolicy], Tuple[str, ...], str]] = {
    "static": (StaticPolicy, (), "route once at step 0, never re-solve"),
    "periodic": (PeriodicPolicy, ("k",), "re-solve the optimal MCF every k steps"),
    "threshold": (ThresholdPolicy, ("u",), "re-solve the MCF when congestion exceeded u"),
    "semi-oblivious": (
        SemiObliviousPolicy,
        ("every",),
        "fixed path system, re-split ratios only, every N steps",
    ),
}


def available_policies() -> List[str]:
    """Canonical names of the registered policy kinds."""
    return sorted(_POLICY_KINDS)


def policy_descriptions() -> Dict[str, str]:
    """Name -> one-line description of every registered policy kind."""
    return {name: description for name, (_, _, description) in sorted(_POLICY_KINDS.items())}


def build_policy(spec: Union[str, StreamPolicy]) -> StreamPolicy:
    """Build a policy from a spec string (``"periodic(k=8)"``-style).

    Accepts ready :class:`StreamPolicy` objects unchanged.  Strings follow
    the spec grammar of :mod:`repro.utils.spec_grammar`; bare values bind
    to the kind's parameters in declaration order (``periodic(8)`` ==
    ``periodic(k=8)``).  Unknown kinds or malformed arguments raise
    :class:`StreamError`.
    """
    if not isinstance(spec, str):
        if isinstance(spec, StreamPolicy):
            return spec
        raise StreamError(f"cannot interpret {spec!r} as a rerouting policy")
    kind, positional, keywords = parse_call(spec, StreamError, "policy")
    if kind not in _POLICY_KINDS:
        raise StreamError(f"unknown policy {kind!r}; available: {available_policies()}")
    constructor, names, _ = _POLICY_KINDS[kind]
    if len(positional) > len(names):
        raise StreamError(
            f"policy {kind!r} takes at most {len(names)} positional argument(s): {spec!r}"
        )
    kwargs = dict(zip(names, positional))
    kwargs.update(keywords)
    try:
        return constructor(**kwargs)
    except (TypeError, ValueError) as error:
        raise StreamError(f"bad parameters for policy {kind!r}: {error}") from error


__all__ = [
    "PolicyContext",
    "StreamPolicy",
    "StaticPolicy",
    "PeriodicPolicy",
    "ThresholdPolicy",
    "SemiObliviousPolicy",
    "available_policies",
    "policy_descriptions",
    "build_policy",
]
