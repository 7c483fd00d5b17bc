"""Scenario-axis registration for the forwarding layer.

Imported lazily by :mod:`repro.scenarios.spec` (see
``_EXTENSION_AXIS_MODULES``); importing it registers the built-in
``ecmp-gap`` suite.  The forwarding axis of a sweep is expressed through
the *scheme* line-up — every ``realized(...)`` wrapper in ``schemes``
adds one point on the fractional-to-ECMP axis, with the unwrapped base
scheme as the fractional reference — so no new spec dataclass is needed
and the inline and pool sweeps, the artifact store and the resume path
apply unchanged.

The suite sweeps the full 8-topology ingestion catalog with one fitted
gravity snapshot per topology and no failures (ECMP realization under
failure is a rate-adaptation question the scheme wrapper intentionally
reports as unsupported).  The base scheme is the LP-free
``oblivious(ksp, k=4)``.
"""

from __future__ import annotations

from repro.net.catalog import catalog_entries
from repro.scenarios.spec import (
    DemandSpec,
    FailureSpec,
    ScenarioSuite,
    register_suite,
)

_BASE_SCHEME = "oblivious(ksp, k=4)"


def _suite_ecmp_gap() -> ScenarioSuite:
    topologies = [
        entry.qualified_name
        for entry in sorted(
            catalog_entries(), key=lambda entry: (entry.nodes, entry.name)
        )
    ]
    return ScenarioSuite(
        name="ecmp-gap",
        description="fractional vs ECMP-realized congestion across the "
        "real-topology catalog (quantized splits at k=2 and k=8)",
        topologies=topologies,
        demands=[DemandSpec("fitted-gravity")],
        failures=[FailureSpec("none")],
        schemes=(
            _BASE_SCHEME,
            f"realized({_BASE_SCHEME}, buckets=2)",
            f"realized({_BASE_SCHEME}, buckets=8)",
        ),
        num_snapshots=1,
        seed=0,
    )


# overwrite=True keeps registration idempotent: if this module's import
# fails partway once, the spec layer retries it on the next axis use.
register_suite("ecmp-gap", _suite_ecmp_gap, overwrite=True)
