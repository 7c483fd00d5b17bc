"""Traffic-engineering metrics and failure models (the SMORE consequence of Section 1.1).

The TE simulation loop itself is :meth:`repro.engine.RoutingEngine.evaluate_matrix_series`.
"""

from repro.te.metrics import max_link_utilization, utilization_percentiles, throughput_at_capacity
from repro.te.failures import (
    CapacityDegradationProcess,
    FailureEvent,
    FailureEventReport,
    FailureProcess,
    FailureSweepSummary,
    KEdgeFailureProcess,
    NoFailure,
    RegionalFailureProcess,
    apply_failure,
    available_failure_processes,
    build_failure_process,
    evaluate_failure_event,
    failure_sweep,
    readapt_surviving,
    rebase_system,
)

__all__ = [
    "max_link_utilization",
    "utilization_percentiles",
    "throughput_at_capacity",
    "FailureSweepSummary",
    "failure_sweep",
    "FailureEvent",
    "FailureEventReport",
    "FailureProcess",
    "NoFailure",
    "KEdgeFailureProcess",
    "RegionalFailureProcess",
    "CapacityDegradationProcess",
    "available_failure_processes",
    "build_failure_process",
    "apply_failure",
    "rebase_system",
    "readapt_surviving",
    "evaluate_failure_event",
]
