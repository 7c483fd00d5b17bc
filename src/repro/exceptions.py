"""Exception hierarchy for the repro package.

All errors raised by the library derive from :class:`ReproError`, so that
callers can distinguish library failures from programming errors with a
single ``except`` clause.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class GraphError(ReproError):
    """Raised when a graph is malformed for the requested operation.

    Examples include disconnected graphs passed to routines that require
    connectivity, or vertex identifiers that are not present in the graph.
    """


class DemandError(ReproError):
    """Raised when a demand matrix is malformed.

    Examples include negative demand values, demand between identical
    vertices, or demands referencing vertices outside the graph.
    """


class PathError(ReproError):
    """Raised when a path is malformed.

    Examples include non-simple paths, paths whose consecutive vertices
    are not adjacent in the graph, or paths with wrong endpoints.
    """


class RoutingError(ReproError):
    """Raised when a routing object is inconsistent.

    Examples include path distributions that do not sum to one, or
    routings queried for pairs they do not cover.
    """


class SolverError(ReproError):
    """Raised when an LP or combinatorial solver fails to produce a solution."""


class LinalgError(ReproError):
    """Raised when the compiled linear-algebra evaluation is misused.

    Examples include unknown evaluator or bench-target names and using a
    compiled routing whose routing has mutated since compilation.
    """


class StreamError(ReproError):
    """Raised when the streaming traffic-replay subsystem is misused.

    Examples include unknown stream or policy names, malformed policy
    specs, non-positive step counts, and rerouting policies that need
    an optimal-MCF solver their context lacks.  (A routing that stops
    covering a streamed pair is *not* an error: the runner treats it as
    a forced re-solve so controllers keep running through demand
    shifts.)
    """


class NetError(ReproError):
    """Raised when the real-network ingestion subsystem is misused.

    Examples include unknown catalog entries, unresolvable network
    sources, and demand-fitting calls with inconsistent marginals.
    """


class TelemetryError(ReproError):
    """Raised when the telemetry / demand-estimation subsystem is misused.

    Examples include unknown observation granularities or estimator
    names, observations whose shape does not match the compiled routing
    they claim to measure, and windowed estimation against streaming
    statistics that were not asked to track link loads.  (An estimator
    that fails to converge is *not* an error: the estimate records a
    ``converged=False`` diagnostic so closed-loop pipelines keep
    running on the best iterate.)
    """


class ObsError(ReproError):
    """Raised when the observability / tracing subsystem is misused.

    Examples include installing a second process-global tracer without
    uninstalling the first, loading a trace file that is not
    line-delimited JSON span records, and exporting a trace to an
    unsupported format.  (A crash-truncated final line in a streamed
    trace is *not* an error: workers flush one record per line, so the
    loader drops an unparsable final line by design.)
    """


class ForwardingError(ReproError):
    """Raised when a routing cannot be realized as ECMP forwarding state.

    Examples include per-pair path weights that do not sum to one within
    1e-9 (the quantizer refuses to renormalize silently), directed
    cycles in a pair's next-hop graph under ``on_cycle="error"``, bucket
    counts below one, and realization requests against schemes that do
    not materialize a routing (the optimal MCF router).  (A cyclic or
    non-confluent pair under the default ``on_cycle="decompose"`` is
    *not* an error: it falls back to per-path weight quantization and is
    reported through the table's ``fallback_pairs`` diagnostic.)
    """


class ArtifactError(ReproError):
    """Raised when an on-disk sweep artifact store is inconsistent.

    Examples include opening a store whose schema version or manifest
    hash does not match the suite being resumed, duplicate per-cell completion
    records, and corrupt chunk data that is *not* explainable as a
    crash-truncated final line.  (A truncated final line in the last
    chunk is **not** an error: that is the expected signature of a
    killed writer, and the store drops it on resume by design.)
    """


class TopologyFormatError(NetError):
    """Raised when a topology file cannot be parsed into a :class:`Network`.

    Carries the offending ``source`` (file name or description) and,
    when known, the 1-based ``line`` of the problem, so CLI users see
    ``geant.txt:41: link references unknown node 'xx1.xx'`` instead of a
    bare parser traceback.
    """

    def __init__(self, message: str, source: str = "", line: int = 0) -> None:
        self.source = source
        self.line = line
        prefix = ""
        if source:
            prefix = f"{source}:{line}: " if line else f"{source}: "
        super().__init__(prefix + message)


class InfeasibleError(SolverError):
    """Raised when a routing/flow problem has no feasible solution.

    Typically caused by demands between vertices in different connected
    components, or by hop bounds smaller than the graph distance.
    """
