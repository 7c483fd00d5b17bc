"""Declarative scenario-suite specifications.

A :class:`ScenarioSuite` is the full cross product of three declarative
axes — topology generators, demand models, failure processes — plus the
scheme line-up every cell is routed through.  Suites are *data*: every
spec is JSON round-trippable (``to_dict``/``from_dict``), picklable, and
carries no live network or router objects, so the runner can ship suites
to worker processes and rebuild identical state from seeds alone.

Determinism contract
--------------------

Everything random about a suite derives from ``suite.seed`` through
:class:`numpy.random.SeedSequence` with fixed stream tags (see
:mod:`repro.scenarios.runner`):

* topology construction and scheme installation are seeded per topology
  *index*,
* demand generation is seeded per (topology, demand) *pair* — every
  failure cell replays exactly its healthy baseline's traffic, and
* failure sampling is seeded per cell *index*,

so the artifact a suite produces is a pure function of the suite spec —
independent of worker count, scheduling order, or execution mode.

Example::

    suite = ScenarioSuite(
        name="demo",
        topologies=[TopologySpec("hypercube", 3), TopologySpec("torus", 3)],
        demands=[DemandSpec("gravity"), DemandSpec("permutation")],
        failures=[FailureSpec("none"), FailureSpec("k-edge", params=(("k", 1),))],
        schemes=["ksp(k=2)", "spf"],
        num_snapshots=2,
        seed=0,
    )
    assert len(suite.cells()) == 2 * 2 * 2
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.demands.traffic_matrix import (
    TrafficMatrixSeries,
    constant_series,
    diurnal_gravity_series,
    gravity_series,
    permutation_series,
)
from repro.exceptions import ReproError
from repro.graphs.network import Network
from repro.te.failures import FailureProcess, build_failure_process
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.spec_grammar import parse_call


class ScenarioError(ReproError):
    """Raised for malformed scenario specs or unknown suite/axis names."""


# --------------------------------------------------------------------- #
# Axis registries
# --------------------------------------------------------------------- #
#: Modules registering extension axis kinds on import (the ingestion
#: layer adds ``zoo``/``sndlib`` topologies and the fitted demand
#: models).  Loaded lazily through :func:`_ensure_extension_axes` so the
#: spec layer never imports upward eagerly.
_EXTENSION_AXIS_MODULES = (
    "repro.net.scenario_axes",
    "repro.telemetry.scenario_axes",
    "repro.forwarding.scenario_axes",
    "repro.synth.scenario_axes",
)
_extension_axes_loaded = False


def _ensure_extension_axes() -> None:
    global _extension_axes_loaded
    if _extension_axes_loaded:
        return
    import importlib

    # Mark loaded only after success: a failing import surfaces its real
    # error on every call instead of a misleading "unknown kind" later.
    # (Extension modules register with overwrite=True, so a retry after
    # a partial failure is idempotent.)
    for module in _EXTENSION_AXIS_MODULES:
        importlib.import_module(module)
    _extension_axes_loaded = True


@dataclass(frozen=True)
class TopologyKind:
    """A registered topology-axis kind.

    ``builder(size, params, rng)`` constructs the network;
    ``validate(size, params)``, when given, runs at *spec-parse* time so
    a typo'd catalog name or parameter fails before any runner/worker
    starts (with the available choices in the message).
    """

    builder: Callable[[Optional[int], Dict[str, Any], Any], Network]
    description: str = ""
    validate: Optional[Callable[[Optional[int], Dict[str, Any]], None]] = None


_TOPOLOGY_KINDS: Dict[str, TopologyKind] = {}


def register_topology_kind(
    kind: str,
    builder: Callable[[Optional[int], Dict[str, Any], Any], Network],
    description: str = "",
    validate: Optional[Callable[[Optional[int], Dict[str, Any]], None]] = None,
    overwrite: bool = False,
) -> None:
    """Register a topology-axis kind (``builder(size, params, rng)``)."""
    if kind in _TOPOLOGY_KINDS and not overwrite:
        raise ScenarioError(
            f"topology kind {kind!r} is already registered (pass overwrite=True)"
        )
    _TOPOLOGY_KINDS[kind] = TopologyKind(builder, description, validate)


def available_topology_kinds() -> List[str]:
    """Canonical names of the registered topology kinds."""
    _ensure_extension_axes()
    return sorted(_TOPOLOGY_KINDS)


def _accepts(kind: str, *accepted: str) -> Callable[[Optional[int], Dict[str, Any]], None]:
    """Validator for a built-in kind: an integer size plus ``accepted`` keys only."""

    def validate(size: Optional[int], params: Dict[str, Any]) -> None:
        if "name" in params:
            # A non-integer positional argument lands in ``name``.
            raise ScenarioError(
                f"{kind} size must be an integer, got {params['name']!r}"
            )
        extra = sorted(set(params) - set(accepted))
        if extra:
            raise ScenarioError(
                f"unknown {kind} topology parameters {extra}; "
                f"accepted: {list(accepted) if accepted else 'the size only'}"
            )

    return validate


def _register_builtin_topologies() -> None:
    from repro.graphs import topologies
    from repro.graphs.generators import waxman_isp

    register_topology_kind(
        "hypercube",
        lambda size, params, rng: topologies.hypercube(size if size is not None else 3),
        "K-dimensional hypercube",
        validate=_accepts("hypercube"),
    )
    register_topology_kind(
        "torus",
        lambda size, params, rng: topologies.torus_2d(
            size if size is not None else 3, params.get("cols")
        ),
        "2-D torus (wrap-around grid)",
        validate=_accepts("torus", "cols"),
    )
    register_topology_kind(
        "grid",
        lambda size, params, rng: topologies.grid_2d(
            size if size is not None else 3, params.get("cols")
        ),
        "2-D grid",
        validate=_accepts("grid", "cols"),
    )
    register_topology_kind(
        "clique",
        lambda size, params, rng: topologies.complete_graph(size if size is not None else 5),
        "complete graph",
        validate=_accepts("clique"),
    )
    register_topology_kind(
        "fat-tree",
        lambda size, params, rng: topologies.fat_tree(size if size is not None else 4),
        "k-ary fat tree",
        validate=_accepts("fat-tree"),
    )
    register_topology_kind(
        "expander",
        lambda size, params, rng: topologies.random_regular_expander(
            size if size is not None else 10, degree=int(params.get("degree", 4)), rng=rng
        ),
        "random regular expander",
        validate=_accepts("expander", "degree"),
    )
    register_topology_kind(
        "waxman",
        lambda size, params, rng: waxman_isp(size if size is not None else 12, rng=rng),
        "random Waxman ISP-like graph",
        validate=_accepts("waxman"),
    )


_register_builtin_topologies()


@dataclass(frozen=True)
class TopologySpec:
    """One topology-axis entry: a generator kind, a size, extra parameters.

    Random generators (``expander``, ``waxman``) consume the generator
    passed to :meth:`build`; deterministic kinds ignore it, so rebuilding
    with an equally seeded generator always yields the same network.
    """

    kind: str
    size: Optional[int] = None
    params: Tuple[Tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        _ensure_extension_axes()
        if self.kind not in _TOPOLOGY_KINDS:
            raise ScenarioError(
                f"unknown topology kind {self.kind!r}; available: {sorted(_TOPOLOGY_KINDS)}"
            )
        object.__setattr__(self, "params", tuple(self.params))
        validate = _TOPOLOGY_KINDS[self.kind].validate
        if validate is not None:
            validate(self.size, dict(self.params))

    def build(self, rng: RngLike = None) -> Network:
        _ensure_extension_axes()
        return _TOPOLOGY_KINDS[self.kind].builder(
            self.size, dict(self.params), ensure_rng(rng)
        )

    def describe(self) -> str:
        params = dict(self.params)
        # Catalog kinds read as zoo(abilene): the name renders bare.
        bits = [str(params.pop("name"))] if "name" in params else []
        if self.size is not None:
            bits.append(str(self.size))
        bits += [f"{key}={value}" for key, value in sorted(params.items())]
        return f"{self.kind}({', '.join(bits)})" if bits else self.kind

    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {"kind": self.kind}
        if self.size is not None:
            payload["size"] = self.size
        payload.update(dict(self.params))
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "TopologySpec":
        mapping = dict(payload)
        kind = mapping.pop("kind", None)
        if not kind:
            raise ScenarioError(f"topology spec needs a 'kind' key: {payload!r}")
        size = mapping.pop("size", None)
        return cls(kind=kind, size=size, params=tuple(sorted(mapping.items())))

    @classmethod
    def from_string(cls, text: str) -> "TopologySpec":
        """Parse axis shorthand: ``"torus(4)"``, ``"zoo(abilene)"``.

        An integer positional argument is the size; a non-integer one is
        the catalog ``name`` parameter.
        """
        kind, positional, params = parse_call(text, ScenarioError, "topology")
        size = None
        for argument in positional:
            if isinstance(argument, int) and not isinstance(argument, bool) and size is None:
                size = argument
            elif isinstance(argument, str) and "name" not in params:
                params["name"] = argument
            else:
                # A second integer (e.g. "grid(3, 5)") must not silently
                # become a name parameter the builder ignores.
                raise ScenarioError(
                    f"cannot interpret positional argument {argument!r} in "
                    f"topology spec {text!r}; use key=value (e.g. cols=5)"
                )
        return cls(kind=kind, size=size, params=tuple(sorted(params.items())))


# --------------------------------------------------------------------- #
# Demand axis
# --------------------------------------------------------------------- #
def _series_gravity(network: Network, snapshots: int, rng, params: Dict[str, Any]) -> TrafficMatrixSeries:
    return gravity_series(network, snapshots, total=float(params.get("total", 10.0)), rng=rng)


def _series_diurnal(network: Network, snapshots: int, rng, params: Dict[str, Any]) -> TrafficMatrixSeries:
    return diurnal_gravity_series(
        network,
        num_snapshots=snapshots,
        base_total=float(params.get("total", 10.0)),
        diurnal_amplitude=float(params.get("amplitude", 0.5)),
        rng=rng,
    )


def _series_permutation(network: Network, snapshots: int, rng, params: Dict[str, Any]) -> TrafficMatrixSeries:
    return permutation_series(network, snapshots, rng=rng)


def _series_bisection(network: Network, snapshots: int, rng, params: Dict[str, Any]) -> TrafficMatrixSeries:
    from repro.demands.generators import bisection_demand

    return TrafficMatrixSeries(
        snapshots=[bisection_demand(network, rng=rng) for _ in range(snapshots)]
    )


def _series_uniform(network: Network, snapshots: int, rng, params: Dict[str, Any]) -> TrafficMatrixSeries:
    from repro.demands.generators import uniform_demand

    demand = uniform_demand(network, total=float(params.get("total", 10.0)))
    return constant_series(demand, snapshots)


def _series_adversarial(network: Network, snapshots: int, rng, params: Dict[str, Any]) -> TrafficMatrixSeries:
    from repro.demands.adversarial import spf_stress_permutation

    demand = spf_stress_permutation(
        network, num_trials=int(params.get("num_trials", 8)), rng=rng
    )
    return constant_series(demand, snapshots)


def _series_from_stream(kind: str) -> Callable[..., TrafficMatrixSeries]:
    """A demand-axis factory backed by a registered demand stream.

    The stream axis of the grid: each cell materializes ``snapshots``
    steps of the named :mod:`repro.stream` source into an ordinary
    traffic-matrix series (the runner's batch loop consumes snapshots;
    deltas matter only on the streaming path).  Randomness is consumed
    from the runner-passed generator, so stream-backed cells obey the
    same replay-the-healthy-baseline seeding as every other demand kind.
    """

    def factory(
        network: Network, snapshots: int, rng, params: Dict[str, Any]
    ) -> TrafficMatrixSeries:
        from repro.stream.sources import build_stream

        return build_stream(kind, network, num_steps=snapshots, seed=rng, **params).as_series()

    return factory


_DEMAND_KINDS: Dict[str, Callable[..., TrafficMatrixSeries]] = {
    "gravity": _series_gravity,
    "diurnal": _series_diurnal,
    "permutation": _series_permutation,
    "bisection": _series_bisection,
    "uniform": _series_uniform,
    "adversarial": _series_adversarial,
    # The stream axis: time-correlated demand sequences from repro.stream.
    "random-walk": _series_from_stream("random-walk"),
    "flash-crowd": _series_from_stream("flash-crowd"),
    "adversarial-shift": _series_from_stream("adversarial-shift"),
}


def register_demand_kind(
    kind: str,
    factory: Callable[..., TrafficMatrixSeries],
    overwrite: bool = False,
) -> None:
    """Register a demand-axis kind (``factory(network, snapshots, rng, params)``)."""
    if kind in _DEMAND_KINDS and not overwrite:
        raise ScenarioError(
            f"demand kind {kind!r} is already registered (pass overwrite=True)"
        )
    _DEMAND_KINDS[kind] = factory


@dataclass(frozen=True)
class DemandSpec:
    """One demand-axis entry: a demand model plus its parameters.

    :meth:`series` consumes randomness only from the passed generator;
    the ``uniform`` model is fully deterministic and ``adversarial`` is
    the worst-of-k SPF stress permutation held constant over snapshots.
    """

    kind: str
    params: Tuple[Tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        _ensure_extension_axes()
        if self.kind not in _DEMAND_KINDS:
            raise ScenarioError(
                f"unknown demand kind {self.kind!r}; available: {sorted(_DEMAND_KINDS)}"
            )
        object.__setattr__(self, "params", tuple(self.params))

    def series(self, network: Network, num_snapshots: int, rng: RngLike = None) -> TrafficMatrixSeries:
        return _DEMAND_KINDS[self.kind](network, num_snapshots, ensure_rng(rng), dict(self.params))

    def describe(self) -> str:
        rendered = ", ".join(f"{key}={value}" for key, value in self.params)
        return f"{self.kind}({rendered})" if rendered else self.kind

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, **dict(self.params)}

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "DemandSpec":
        mapping = dict(payload)
        kind = mapping.pop("kind", None)
        if not kind:
            raise ScenarioError(f"demand spec needs a 'kind' key: {payload!r}")
        return cls(kind=kind, params=tuple(sorted(mapping.items())))

    @classmethod
    def from_string(cls, text: str) -> "DemandSpec":
        """Parse axis shorthand: ``"gravity"``, ``"max-entropy(total=20)"``."""
        kind, positional, params = parse_call(text, ScenarioError, "demand")
        if positional:
            raise ScenarioError(
                f"demand spec {text!r} takes key=value arguments only"
            )
        return cls(kind=kind, params=tuple(sorted(params.items())))


def available_demand_kinds() -> List[str]:
    """Canonical names of the registered demand models."""
    _ensure_extension_axes()
    return sorted(_DEMAND_KINDS)


# --------------------------------------------------------------------- #
# Failure axis
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class FailureSpec:
    """One failure-axis entry, resolved through :func:`build_failure_process`.

    Parameters are kept sorted by name, the order :meth:`describe`
    renders them in, so every entry round-trips through its string.
    """

    kind: str
    params: Tuple[Tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", tuple(sorted(self.params, key=lambda item: item[0])))
        self.process()  # validate kind and parameters eagerly

    def process(self) -> FailureProcess:
        return build_failure_process(self.kind, **dict(self.params))

    def describe(self) -> str:
        return self.process().describe()

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, **dict(self.params)}

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "FailureSpec":
        mapping = dict(payload)
        kind = mapping.pop("kind", None)
        if not kind:
            raise ScenarioError(f"failure spec needs a 'kind' key: {payload!r}")
        return cls(kind=kind, params=tuple(mapping.items()))

    @classmethod
    def from_string(cls, text: str) -> "FailureSpec":
        """Parse axis shorthand: ``"none"``, ``"regional(radius=1)"``."""
        kind, positional, params = parse_call(text, ScenarioError, "failure")
        if positional:
            raise ScenarioError(
                f"failure spec {text!r} takes key=value arguments only"
            )
        return cls(kind=kind, params=tuple(params.items()))


def _coerce(spec: Any, cls: type, what: str) -> Any:
    if isinstance(spec, cls):
        return spec
    if isinstance(spec, Mapping):
        return cls.from_dict(spec)
    if isinstance(spec, str):
        return cls.from_string(spec)
    raise ScenarioError(f"cannot interpret {spec!r} as a {what} spec")


# --------------------------------------------------------------------- #
# The suite: a declarative grid
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class ScenarioCell:
    """One grid cell: indices into the suite's three axes.

    ``index`` is the flat position in topology-major / demand-middle /
    failure-minor order — the canonical cell id used for seeding and for
    ordering artifact rows.
    """

    index: int
    topology_index: int
    demand_index: int
    failure_index: int


@dataclass(frozen=True)
class ScenarioSuite:
    """A declarative failure × demand × topology sweep.

    Parameters
    ----------
    name / description:
        Identification, recorded in the artifact manifest.
    topologies / demands / failures:
        The three grid axes (specs, dicts, or bare kind strings).
    schemes:
        Scheme spec strings routed in every cell; normalized through the
        registry parser at construction (so typos fail fast and the
        canonical strings are what workers rebuild from).
    num_snapshots:
        Demand snapshots evaluated per cell.
    seed:
        Master seed; see the module docstring for the derivation rules.
    """

    name: str
    topologies: Tuple[TopologySpec, ...] = ()
    demands: Tuple[DemandSpec, ...] = ()
    failures: Tuple[FailureSpec, ...] = (FailureSpec("none"),)
    schemes: Tuple[str, ...] = ("semi-oblivious(racke, alpha=4)", "spf")
    num_snapshots: int = 1
    seed: int = 0
    description: str = ""

    def __post_init__(self) -> None:
        from repro.engine.registry import parse_spec

        object.__setattr__(
            self,
            "topologies",
            tuple(_coerce(spec, TopologySpec, "topology") for spec in self.topologies),
        )
        object.__setattr__(
            self, "demands", tuple(_coerce(spec, DemandSpec, "demand") for spec in self.demands)
        )
        object.__setattr__(
            self, "failures", tuple(_coerce(spec, FailureSpec, "failure") for spec in self.failures)
        )
        if not self.topologies or not self.demands or not self.failures:
            raise ScenarioError("a scenario suite needs at least one entry per axis")
        if not self.schemes:
            raise ScenarioError("a scenario suite needs at least one scheme")
        object.__setattr__(
            self, "schemes", tuple(parse_spec(spec).spec_string() for spec in self.schemes)
        )
        if self.num_snapshots < 1:
            raise ScenarioError("num_snapshots must be at least 1")

    # ------------------------------------------------------------------ #
    # Grid enumeration
    # ------------------------------------------------------------------ #
    def num_cells(self) -> int:
        return len(self.topologies) * len(self.demands) * len(self.failures)

    def cells(self) -> List[ScenarioCell]:
        """Every grid cell in canonical (topology-major) order."""
        cells: List[ScenarioCell] = []
        index = 0
        for t in range(len(self.topologies)):
            for d in range(len(self.demands)):
                for f in range(len(self.failures)):
                    cells.append(ScenarioCell(index, t, d, f))
                    index += 1
        return cells

    def cell(self, index: int) -> ScenarioCell:
        per_topology = len(self.demands) * len(self.failures)
        t, rest = divmod(index, per_topology)
        d, f = divmod(rest, len(self.failures))
        if not (0 <= t < len(self.topologies)):
            raise ScenarioError(f"cell index {index} out of range for {self.num_cells()} cells")
        return ScenarioCell(index, t, d, f)

    # ------------------------------------------------------------------ #
    # Serialization
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "description": self.description,
            "seed": self.seed,
            "num_snapshots": self.num_snapshots,
            "schemes": list(self.schemes),
            "topologies": [spec.to_dict() for spec in self.topologies],
            "demands": [spec.to_dict() for spec in self.demands],
            "failures": [spec.to_dict() for spec in self.failures],
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ScenarioSuite":
        return cls(
            name=str(payload.get("name", "suite")),
            description=str(payload.get("description", "")),
            seed=int(payload.get("seed", 0)),
            num_snapshots=int(payload.get("num_snapshots", 1)),
            schemes=tuple(payload.get("schemes", ())),
            topologies=tuple(payload.get("topologies", ())),
            demands=tuple(payload.get("demands", ())),
            failures=tuple(payload.get("failures", ())),
        )

    def with_overrides(
        self, seed: Optional[int] = None, num_snapshots: Optional[int] = None
    ) -> "ScenarioSuite":
        """A copy with the master seed and/or snapshot count replaced."""
        payload = self.to_dict()
        if seed is not None:
            payload["seed"] = seed
        if num_snapshots is not None:
            payload["num_snapshots"] = num_snapshots
        return ScenarioSuite.from_dict(payload)

    def describe(self) -> str:
        lines = [
            f"suite {self.name!r}: {len(self.topologies)} topologies x "
            f"{len(self.demands)} demands x {len(self.failures)} failures = "
            f"{self.num_cells()} cells, {self.num_snapshots} snapshot(s) each, seed={self.seed}",
        ]
        if self.description:
            lines.append(f"  {self.description}")
        lines.append("  topologies: " + ", ".join(spec.describe() for spec in self.topologies))
        lines.append("  demands:    " + ", ".join(spec.describe() for spec in self.demands))
        lines.append("  failures:   " + ", ".join(spec.describe() for spec in self.failures))
        lines.append("  schemes:    " + ", ".join(self.schemes))
        return "\n".join(lines)


# --------------------------------------------------------------------- #
# Built-in suites
# --------------------------------------------------------------------- #
def _suite_smoke() -> ScenarioSuite:
    return ScenarioSuite(
        name="smoke",
        description="tiny 3x2x2 grid used by the test suite and CI (seconds, not minutes)",
        topologies=[
            TopologySpec("hypercube", 3),
            TopologySpec("torus", 3),
            TopologySpec("expander", 8),
        ],
        demands=[DemandSpec("gravity"), DemandSpec("permutation")],
        failures=[FailureSpec("none"), FailureSpec("k-edge", params=(("k", 1),))],
        schemes=("semi-oblivious(racke, alpha=4)", "ksp(k=3)"),
        num_snapshots=1,
        seed=0,
    )


def _suite_failures() -> ScenarioSuite:
    return ScenarioSuite(
        name="failures",
        description="failure-model sweep: independent cuts, regional/SRLG outages, brown-outs",
        topologies=[
            TopologySpec("hypercube", 4),
            TopologySpec("waxman", 12),
            TopologySpec("fat-tree", 4),
        ],
        demands=[DemandSpec("gravity"), DemandSpec("adversarial")],
        failures=[
            FailureSpec("none"),
            FailureSpec("k-edge", params=(("k", 1),)),
            FailureSpec("k-edge", params=(("k", 2),)),
            FailureSpec("regional", params=(("radius", 1),)),
            FailureSpec("degrade", params=(("fraction", 0.25), ("factor", 0.5))),
        ],
        schemes=("semi-oblivious(racke, alpha=4)", "ksp(k=4)", "spf"),
        num_snapshots=2,
        seed=0,
    )


def _suite_diurnal() -> ScenarioSuite:
    return ScenarioSuite(
        name="diurnal",
        description="SMORE-style install-once/re-optimize-per-matrix loop over diurnal series",
        topologies=[TopologySpec("waxman", 14), TopologySpec("expander", 12)],
        demands=[DemandSpec("diurnal"), DemandSpec("gravity"), DemandSpec("bisection")],
        failures=[FailureSpec("none"), FailureSpec("k-edge", params=(("k", 1),))],
        schemes=(
            "semi-oblivious(racke, alpha=4)",
            "oblivious(racke)",
            "ksp(k=4)",
            "spf",
        ),
        num_snapshots=6,
        seed=0,
    )


def _suite_streaming() -> ScenarioSuite:
    return ScenarioSuite(
        name="streaming",
        description="stream axis: time-correlated demand sequences "
        "(random-walk drift, flash crowds, adversarial shifts)",
        topologies=[TopologySpec("torus", 4), TopologySpec("hypercube", 3)],
        demands=[
            DemandSpec("random-walk", params=(("num_pairs", 24),)),
            DemandSpec("flash-crowd", params=(("num_pairs", 24),)),
            DemandSpec("adversarial-shift", params=(("shift_every", 2),)),
        ],
        failures=[FailureSpec("none"), FailureSpec("k-edge", params=(("k", 1),))],
        schemes=("semi-oblivious(racke, alpha=4)", "spf"),
        num_snapshots=4,
        seed=0,
    )


def _suite_real_world() -> ScenarioSuite:
    return ScenarioSuite(
        name="real-world",
        description="bundled real topologies (ingestion catalog) x fitted demand "
        "models (gravity, max-entropy from link-load marginals) x failures",
        topologies=["zoo(abilene)", "sndlib(polska)", "sndlib(nobel-germany)"],
        demands=[DemandSpec("fitted-gravity"), DemandSpec("max-entropy")],
        failures=[FailureSpec("none"), FailureSpec("k-edge", params=(("k", 1),))],
        schemes=("semi-oblivious(racke, alpha=4)", "ksp(k=4)", "spf"),
        num_snapshots=2,
        seed=0,
    )


def _suite_odme() -> ScenarioSuite:
    return ScenarioSuite(
        name="odme",
        description="telemetry axis: true fitted demand vs its ODME estimate "
        "from noisy partial-coverage link-load observations",
        topologies=["zoo(abilene)", "sndlib(polska)"],
        demands=[
            DemandSpec("fitted-gravity"),
            DemandSpec(
                "estimated",
                params=(
                    ("base", "fitted-gravity"),
                    ("coverage", 0.75),
                    ("noise", 0.05),
                ),
            ),
        ],
        failures=[FailureSpec("none"), FailureSpec("k-edge", params=(("k", 1),))],
        schemes=("semi-oblivious(racke, alpha=4)", "spf"),
        num_snapshots=2,
        seed=0,
    )


_BUILTIN_SUITES: Dict[str, Callable[[], ScenarioSuite]] = {
    "smoke": _suite_smoke,
    "failures": _suite_failures,
    "diurnal": _suite_diurnal,
    "streaming": _suite_streaming,
    "real-world": _suite_real_world,
    "odme": _suite_odme,
}


def available_suites() -> List[str]:
    """Names of the built-in scenario suites (including extension axes)."""
    _ensure_extension_axes()
    return sorted(_BUILTIN_SUITES)


def get_suite(name: str) -> ScenarioSuite:
    """Look up a built-in suite by name."""
    _ensure_extension_axes()
    if name not in _BUILTIN_SUITES:
        raise ScenarioError(f"unknown suite {name!r}; available: {available_suites()}")
    return _BUILTIN_SUITES[name]()


def register_suite(name: str, factory: Callable[[], ScenarioSuite], overwrite: bool = False) -> None:
    """Register a custom named suite (mainly for downstream projects and tests)."""
    if name in _BUILTIN_SUITES and not overwrite:
        raise ScenarioError(f"suite name {name!r} is already registered (pass overwrite=True)")
    _BUILTIN_SUITES[name] = factory


__all__ = [
    "ScenarioError",
    "TopologyKind",
    "TopologySpec",
    "DemandSpec",
    "FailureSpec",
    "ScenarioCell",
    "ScenarioSuite",
    "available_demand_kinds",
    "available_suites",
    "available_topology_kinds",
    "get_suite",
    "register_demand_kind",
    "register_suite",
    "register_topology_kind",
]
