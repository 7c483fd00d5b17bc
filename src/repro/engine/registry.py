"""String-keyed scheme registry and spec parser.

One factory for every routing scheme in the repository, so the CLI, the
experiments, the TE simulation and the benchmarks stop hand-wiring
constructors.  Schemes are addressed by compact spec strings::

    build_router("semi-oblivious(racke, alpha=8)", network, rng=0)
    build_router("ksp(k=4)", network)
    build_router("optimal", network)

or by equivalent dicts (``{"scheme": "ksp", "k": 4}``).  Custom schemes
plug in through :func:`register_scheme`; anything satisfying the
:class:`~repro.engine.router.Router` protocol qualifies.

The registry threads an :class:`EngineContext` through every factory so
schemes built together share expensive state: one :class:`CutCache`, one
oblivious-source builder per (source, params) — and therefore one
per-pair distribution cache — and one memoizing optimal-MCF solver.
"""

from __future__ import annotations

import inspect
import math
import re
import threading
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.demands.demand import Demand
from repro.exceptions import RoutingError
from repro.graphs.cuts import CutCache
from repro.graphs.network import Network
from repro.mcf.lp import min_congestion_lp
from repro.obs import trace_span
from repro.oblivious.base import ObliviousRoutingBuilder
from repro.oblivious.electrical import ElectricalFlowRouting
from repro.oblivious.hop_constrained import HopConstrainedRouting
from repro.oblivious.racke import RaeckeTreeRouting
from repro.oblivious.shortest_path import KShortestPathRouting, ShortestPathRouting
from repro.oblivious.valiant import ValiantHypercubeRouting
from repro.oblivious.valiant_general import ValiantGeneralRouting
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.spec_grammar import parse_call

from repro.engine.adapters import (
    AdaptivePathRouter,
    FixedRatioRouter,
    OptimalRouter,
    SemiObliviousRouter,
)
from repro.engine.router import Router


class SchemeError(RoutingError):
    """Raised for unknown schemes, malformed specs, or bad scheme parameters."""


# --------------------------------------------------------------------- #
# Shared construction context
# --------------------------------------------------------------------- #
class MemoizedOptimalSolver:
    """Optimal-MCF congestion with per-demand memoization.

    Demands are immutable and hashable, so the engine can guarantee the
    LP is solved at most once per distinct snapshot even when several
    schemes (and the ratio normalization) all need the optimum.

    Calls may come from several threads at once: ``engine.route`` solves
    the normalizer on a background thread while an ``optimal`` scheme
    asks for the same demand on the caller's.  The first call for a
    demand takes one in-flight entry under a lock and solves; every
    concurrent call for that demand waits on the entry instead of
    solving again.  A solve that raises is not memoized: its error is
    re-raised in every waiter, and the next call solves afresh.  The
    memo pickles its finished optima only.
    """

    def __init__(self, network: Network) -> None:
        self._network = network
        self._cache: Dict[Demand, float] = {}
        self.num_solves = 0
        self._reset_threading()

    def _reset_threading(self) -> None:
        self._lock = threading.Lock()
        self._pending: Dict[Demand, Future] = {}

    def __getstate__(self) -> Dict[str, Any]:
        state = dict(self.__dict__)
        del state["_lock"], state["_pending"]
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._reset_threading()

    def __call__(self, demand: Demand) -> float:
        with self._lock:
            congestion = self._cache.get(demand)
            if congestion is not None:
                return congestion
            pending = self._pending.get(demand)
            owner = pending is None
            if owner:
                pending = self._pending[demand] = Future()
                self.num_solves += 1
        if not owner:
            return pending.result()
        try:
            with trace_span("mcf.optimal_solve"):
                congestion = min_congestion_lp(self._network, demand).congestion
        except BaseException as error:
            with self._lock:
                del self._pending[demand]
            pending.set_exception(error)
            raise
        with self._lock:
            self._cache[demand] = congestion
            del self._pending[demand]
        pending.set_result(congestion)
        return congestion

    def prime(self, demand: Demand, congestion: float) -> None:
        """Seed the memo with an optimum computed elsewhere.

        Callers that already solved the MCF for ``demand`` (e.g. a
        rerouting policy solving with ``return_routing=True``) register
        the congestion here so a later ``__call__`` is a cache hit, not
        a second LP.  Does not bump ``num_solves``.
        """
        with self._lock:
            self._cache[demand] = float(congestion)

    def clear(self) -> None:
        """Forget the finished optima (a solve in flight still lands)."""
        with self._lock:
            self._cache.clear()


@dataclass
class EngineContext:
    """State shared by every router built for one network.

    ``sources`` maps ``(canonical source name, frozen params)`` to a
    builder instance, so e.g. ``semi-oblivious(racke)`` and
    ``oblivious(racke)`` sample from and materialize *the same*
    :class:`RaeckeTreeRouting` — sharing its trees and its per-pair
    distribution cache.
    """

    network: Network
    cut_cache: CutCache = None  # type: ignore[assignment]
    optimal_solver: MemoizedOptimalSolver = None  # type: ignore[assignment]
    sources: Dict[Tuple[str, frozenset], ObliviousRoutingBuilder] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.cut_cache is None:
            self.cut_cache = CutCache(self.network)
        if self.optimal_solver is None:
            self.optimal_solver = MemoizedOptimalSolver(self.network)


# --------------------------------------------------------------------- #
# Oblivious source registry (sampling/materialization sources)
# --------------------------------------------------------------------- #
def _infer_hypercube_dimension(network: Network) -> int:
    dimension = int(round(math.log2(max(network.num_vertices, 1))))
    if (1 << dimension) != network.num_vertices:
        raise SchemeError(
            f"valiant source needs a hypercube; {network.num_vertices} vertices is not a power of 2"
        )
    return dimension


def _make_valiant(network: Network, rng: RngLike = None, **params: Any) -> ObliviousRoutingBuilder:
    params.setdefault("dimension", _infer_hypercube_dimension(network))
    return ValiantHypercubeRouting(network, rng=rng, **params)


def _make_hop_constrained(network: Network, rng: RngLike = None, **params: Any) -> ObliviousRoutingBuilder:
    params.setdefault("hop_bound", network.diameter())
    return HopConstrainedRouting(network, rng=rng, **params)


#: name -> (factory, accepts rng?).  Aliases resolve in _SOURCE_ALIASES.
_SOURCES: Dict[str, Tuple[Callable[..., ObliviousRoutingBuilder], bool]] = {
    "racke": (RaeckeTreeRouting, True),
    "valiant": (_make_valiant, True),
    "valiant-general": (ValiantGeneralRouting, True),
    "electrical": (ElectricalFlowRouting, False),
    "shortest-path": (ShortestPathRouting, False),
    "ksp": (KShortestPathRouting, False),
    "hop-constrained": (_make_hop_constrained, True),
}

_SOURCE_ALIASES = {
    "raecke": "racke",
    "racke-trees": "racke",
    "raecke-trees": "racke",
    "trees": "racke",
    "valiant-hypercube": "valiant",
    "electrical-flow": "electrical",
    "spf": "shortest-path",
    "k-shortest-paths": "ksp",
}


def available_sources() -> List[str]:
    """Canonical names of the registered oblivious sampling sources."""
    return sorted(_SOURCES)


def build_oblivious_source(
    source: Union[str, ObliviousRoutingBuilder],
    network: Network,
    rng: RngLike = None,
    context: Optional[EngineContext] = None,
    **params: Any,
) -> ObliviousRoutingBuilder:
    """Resolve ``source`` (name or ready builder) into a builder instance.

    Named sources are cached in ``context.sources`` keyed by name and
    parameters, so repeated references share one builder (and its
    per-pair distribution cache).
    """
    if isinstance(source, ObliviousRoutingBuilder):
        if params:
            raise SchemeError(
                f"cannot apply parameters {sorted(params)} to an already-built source {source!r}"
            )
        return source
    canonical = _SOURCE_ALIASES.get(source, source)
    if canonical not in _SOURCES:
        raise SchemeError(
            f"unknown oblivious source {source!r}; available: {available_sources()}"
        )
    cache_key = (canonical, frozenset(params.items()))
    if context is not None and cache_key in context.sources:
        return context.sources[cache_key]
    factory, wants_rng = _SOURCES[canonical]
    kwargs = dict(params)
    if wants_rng:
        kwargs["rng"] = rng
    try:
        with trace_span("source.build", source=canonical):
            builder = factory(network, **kwargs)
    except TypeError as error:
        raise SchemeError(f"bad parameters for source {source!r}: {error}") from error
    if context is not None:
        context.sources[cache_key] = builder
    return builder


# --------------------------------------------------------------------- #
# Spec parsing
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class SchemeSpec:
    """A parsed scheme spec: canonical name plus keyword parameters."""

    name: str
    params: Tuple[Tuple[str, Any], ...] = ()

    @property
    def param_dict(self) -> Dict[str, Any]:
        return dict(self.params)

    def spec_string(self) -> str:
        """Render back to the compact string form (round-trips via parse)."""
        if not self.params:
            return self.name
        rendered = ", ".join(f"{key}={_format_value(value)}" for key, value in self.params)
        return f"{self.name}({rendered})"

    def to_dict(self) -> Dict[str, Any]:
        return {"scheme": self.name, **self.param_dict}

    def __str__(self) -> str:
        return self.spec_string()


_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_+\-]*$")


def _format_value(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return value if _NAME_RE.match(value) else f"'{value}'"
    return repr(value)


def parse_spec(spec: Union[str, Mapping[str, Any], SchemeSpec]) -> SchemeSpec:
    """Parse a scheme spec (string, dict, or :class:`SchemeSpec`).

    Strings follow the spec grammar of :mod:`repro.utils.spec_grammar`:
    ``name`` or ``name(arg, key=value, ...)``.  Bare positional arguments
    are mapped onto the scheme's declared positional parameter names
    (``semi-oblivious(racke, alpha=8)`` is
    ``semi-oblivious(oblivious=racke, alpha=8)``).
    """
    if isinstance(spec, SchemeSpec):
        entry = _lookup(spec.name)
        return SchemeSpec(name=entry.name, params=spec.params)
    if isinstance(spec, Mapping):
        mapping = dict(spec)
        name = mapping.pop("scheme", None) or mapping.pop("name", None)
        if not name:
            raise SchemeError(f"dict spec needs a 'scheme' key: {spec!r}")
        entry = _lookup(name)
        return SchemeSpec(name=entry.name, params=tuple(mapping.items()))
    if not isinstance(spec, str):
        raise SchemeError(f"cannot parse scheme spec of type {type(spec).__name__}")

    name, positional, keywords = parse_call(spec, SchemeError, "scheme")
    entry = _lookup(name)
    if len(positional) > len(entry.positional):
        raise SchemeError(
            f"scheme {entry.name!r} takes at most {len(entry.positional)} "
            f"positional argument(s); got {len(positional)} in {spec!r}"
        )
    params = dict(zip(entry.positional, positional))
    params.update(keywords)
    return SchemeSpec(name=entry.name, params=tuple(params.items()))


# --------------------------------------------------------------------- #
# Scheme registry
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class SchemeEntry:
    name: str
    factory: Callable[..., Router]
    positional: Tuple[str, ...] = ()
    description: str = ""
    wants_context: bool = False


_REGISTRY: Dict[str, SchemeEntry] = {}
_ALIASES: Dict[str, str] = {}


def _lookup(name: str) -> SchemeEntry:
    canonical = _ALIASES.get(name, name)
    if canonical not in _REGISTRY:
        raise SchemeError(f"unknown scheme {name!r}; available: {available_schemes()}")
    return _REGISTRY[canonical]


def available_schemes() -> List[str]:
    """Canonical names of every registered scheme."""
    return sorted(_REGISTRY)


def scheme_descriptions() -> Dict[str, str]:
    return {name: _REGISTRY[name].description for name in available_schemes()}


def register_scheme(
    name: str,
    factory: Optional[Callable[..., Router]] = None,
    *,
    positional: Sequence[str] = (),
    aliases: Sequence[str] = (),
    description: str = "",
    overwrite: bool = False,
) -> Callable:
    """Register a router factory under ``name`` (usable as a decorator).

    ``factory(network, rng=None, **params)`` must return an object
    satisfying the :class:`Router` protocol.  Factories that declare a
    ``context`` parameter additionally receive the shared
    :class:`EngineContext`.
    """

    def _register(func: Callable[..., Router]) -> Callable[..., Router]:
        if (name in _REGISTRY or name in _ALIASES) and not overwrite:
            raise SchemeError(
                f"scheme name {name!r} is already registered (as a scheme or alias); "
                "pass overwrite=True"
            )
        # A direct registration takes the name over from any alias it shadowed.
        _ALIASES.pop(name, None)
        for alias in aliases:
            if (alias in _REGISTRY or alias in _ALIASES) and not overwrite:
                raise SchemeError(f"alias {alias!r} is already registered (pass overwrite=True)")
        try:
            wants_context = "context" in inspect.signature(func).parameters
        except (TypeError, ValueError):
            wants_context = False
        _REGISTRY[name] = SchemeEntry(
            name=name,
            factory=func,
            positional=tuple(positional),
            description=description,
            wants_context=wants_context,
        )
        for alias in aliases:
            _ALIASES[alias] = name
        return func

    if factory is not None:
        return _register(factory)
    return _register


def unregister_scheme(name: str) -> None:
    """Remove a scheme (and its aliases) — mainly for tests."""
    canonical = _ALIASES.get(name, name)
    _REGISTRY.pop(canonical, None)
    for alias in [alias for alias, target in _ALIASES.items() if target == canonical]:
        _ALIASES.pop(alias, None)


def build_router(
    spec: Union[str, Mapping[str, Any], SchemeSpec, Router],
    network: Network,
    rng: RngLike = None,
    context: Optional[EngineContext] = None,
) -> Router:
    """Construct a :class:`Router` for ``spec`` on ``network``.

    ``spec`` may be a spec string, a dict, a :class:`SchemeSpec`, or an
    already-built router (returned unchanged).  ``context`` carries the
    shared caches; one is created on the fly when omitted.
    """
    if not isinstance(spec, (str, Mapping, SchemeSpec)) and hasattr(spec, "route") and hasattr(spec, "install"):
        return spec  # already a Router
    parsed = parse_spec(spec)
    entry = _lookup(parsed.name)
    if context is None:
        context = EngineContext(network)
    # One generator per build: the source construction and the sampling
    # steps share a single stream, exactly like a hand-wired pipeline.
    rng = ensure_rng(rng)
    kwargs: Dict[str, Any] = dict(parsed.params)
    if entry.wants_context:
        kwargs["context"] = context
    try:
        with trace_span("scheme.build", scheme=parsed.name):
            return entry.factory(network, rng=rng, **kwargs)
    except TypeError as error:
        raise SchemeError(f"bad parameters for scheme {parsed.name!r}: {error}") from error


# --------------------------------------------------------------------- #
# Built-in schemes
# --------------------------------------------------------------------- #
@register_scheme(
    "semi-oblivious",
    positional=("oblivious",),
    aliases=("smore", "alpha-sample"),
    description="the paper's scheme: alpha-sample an oblivious routing, adapt rates per demand",
)
def _build_semi_oblivious(
    network: Network,
    rng: RngLike = None,
    context: Optional[EngineContext] = None,
    oblivious: Union[str, ObliviousRoutingBuilder] = "racke",
    alpha: int = 4,
    cut: bool = False,
    **source_params: Any,
) -> Router:
    source = build_oblivious_source(oblivious, network, rng=rng, context=context, **source_params)
    return SemiObliviousRouter(
        network,
        source,
        alpha=alpha,
        cut=cut,
        cut_cache=context.cut_cache if context is not None else None,
        rng=rng,
    )


def _check_fixed_ratio_backend(scheme: str, backend: str) -> None:
    """Fixed-ratio schemes always evaluate through the compiled operator.

    ``backend=auto`` still parses so existing specs keep working; any
    other value is an error rather than a silent override.
    """
    if backend != "auto":
        raise SchemeError(
            f"scheme {scheme!r} accepts only backend=auto: fixed-ratio schemes "
            f"always evaluate compiled; use routing.evaluator(\"dict\") on the "
            f"installed routing for the reference loops (got backend={backend!r})"
        )


@register_scheme(
    "oblivious",
    positional=("oblivious",),
    aliases=("fixed-ratio",),
    description="a fixed-ratio oblivious routing, no online adaptation",
)
def _build_oblivious(
    network: Network,
    rng: RngLike = None,
    context: Optional[EngineContext] = None,
    oblivious: Union[str, ObliviousRoutingBuilder] = "racke",
    backend: str = "auto",
    **source_params: Any,
) -> Router:
    _check_fixed_ratio_backend("oblivious", backend)
    source = build_oblivious_source(oblivious, network, rng=rng, context=context, **source_params)
    return FixedRatioRouter(network, source, name="oblivious")


@register_scheme(
    "ksp",
    positional=("k",),
    aliases=("k-shortest-paths",),
    description="adaptive rates over k shortest paths (classical TE baseline)",
)
def _build_ksp(
    network: Network,
    rng: RngLike = None,
    context: Optional[EngineContext] = None,
    k: int = 4,
    inverse_capacity_weight: bool = False,
) -> Router:
    builder = build_oblivious_source(
        "ksp", network, rng=rng, context=context, k=k,
        inverse_capacity_weight=inverse_capacity_weight,
    )
    return AdaptivePathRouter(network, builder, name="ksp")


@register_scheme(
    "spf",
    aliases=("shortest-path",),
    description="single shortest path, no adaptation and no diversity",
)
def _build_spf(
    network: Network,
    rng: RngLike = None,
    context: Optional[EngineContext] = None,
    backend: str = "auto",
) -> Router:
    _check_fixed_ratio_backend("spf", backend)
    builder = build_oblivious_source("shortest-path", network, rng=rng, context=context)
    return FixedRatioRouter(network, builder, name="spf")


@register_scheme(
    "realized",
    positional=("scheme",),
    aliases=("ecmp",),
    description="ECMP realization of another scheme: quantized 1/k next-hop splits, "
    "optional discrete-flow hashing; realized(oblivious(racke), buckets=8)",
)
def _build_realized(
    network: Network,
    rng: RngLike = None,
    context: Optional[EngineContext] = None,
    scheme: str = "spf",
    buckets: int = 8,
    flows: Optional[int] = None,
    on_cycle: str = "decompose",
) -> Router:
    # Imported lazily: the registry is a lower layer than the forwarding
    # package, and suite specs parse `realized(...)` strings before any
    # forwarding import happens (same pattern as the extension axes).
    from repro.forwarding.router import RealizedRouter

    inner = build_router(scheme, network, rng=rng, context=context)
    return RealizedRouter(
        network,
        inner,
        buckets=buckets,
        flows=flows,
        on_cycle=on_cycle,
        rng=ensure_rng(rng),
    )


@register_scheme(
    "optimal",
    aliases=("mcf", "opt"),
    description="the per-snapshot optimal MCF (ratio 1 by definition)",
)
def _build_optimal(
    network: Network,
    rng: RngLike = None,
    context: Optional[EngineContext] = None,
) -> Router:
    solver = context.optimal_solver if context is not None else MemoizedOptimalSolver(network)
    return OptimalRouter(network, solver=solver)


__all__ = [
    "SchemeError",
    "SchemeSpec",
    "SchemeEntry",
    "EngineContext",
    "MemoizedOptimalSolver",
    "parse_spec",
    "register_scheme",
    "unregister_scheme",
    "available_schemes",
    "available_sources",
    "scheme_descriptions",
    "build_router",
    "build_oblivious_source",
]
