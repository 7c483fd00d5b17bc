"""The ``repro bench`` harness: one target table, one artifact envelope, one gate.

Every target is a module exposing four names:

* ``DESCRIPTION`` — the one-line text ``repro bench list`` prints;
* ``run(scale, seed) -> body`` — the measurement: every artifact key
  between the envelope's ``seed`` and ``environment``;
* ``headline(payload) -> str`` — the one-line summary the CLI prints and
  ``tools/render_bench_table.py`` puts in the README table;
* ``gate(payloads) -> list[str]`` — the conditions the given artifacts of
  this target violate (empty when all hold).  It receives every artifact
  of its target at once, so a target can compare a fresh run against its
  committed baseline.

The harness owns the rest: the target table (modules are imported by
name on first use, so this module never imports upward eagerly), the
scale check, the envelope and the artifact file name.  Artifact layout
(``repro-bench/v1``)::

    {
      "schema": "repro-bench/v1",
      "name": "linalg",             # bench target
      "scale": "full",              # smoke | small | full
      "seed": 0,
      ...                           # the target's body, e.g. network,
                                    # workload, backends (baseline first)
      "environment": {"python": ..., "numpy": ..., "scipy": "1.x"}
    }

Keys are only ever added, never renamed.  ``repro bench check PATH...``
(:func:`check`) is the one gate entry point, in CI and in the tests.
"""

from __future__ import annotations

import importlib
import json
import os
import platform
from types import ModuleType
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np
import scipy

from repro.exceptions import LinalgError
from repro.utils.serialization import dumps as json_dumps

SCHEMA = "repro-bench/v1"

SCALES = ("smoke", "small", "full")

#: name -> module implementing the target.
TARGETS: Dict[str, str] = {
    "ecmp": "repro.forwarding.bench",
    "linalg": "repro.linalg.bench",
    "net": "repro.net.bench",
    "obs": "repro.obs.bench",
    "odme": "repro.telemetry.bench",
    "rebase": "repro.te.bench",
    "scale": "repro.synth.bench",
    "stream": "repro.stream.bench",
    "sweep": "repro.scenarios.bench",
}


def target(name: str) -> ModuleType:
    """The module implementing bench target ``name``."""
    if name not in TARGETS:
        raise LinalgError(f"unknown bench target {name!r}; available: {sorted(TARGETS)}")
    return importlib.import_module(TARGETS[name])


def _environment() -> Dict[str, Any]:
    """The ``environment`` block closing every artifact."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def run(name: str, scale: str = "small", seed: int = 0) -> Dict[str, Any]:
    """Run one bench target and return its artifact payload."""
    module = target(name)
    if scale not in SCALES:
        raise LinalgError(f"unknown bench scale {scale!r}; available: {list(SCALES)}")
    body = module.run(scale, seed)
    return {
        "schema": SCHEMA,
        "name": name,
        "scale": scale,
        "seed": seed,
        **body,
        "environment": _environment(),
    }


def artifact_name(payload: Dict[str, Any]) -> str:
    """``BENCH_<name>.json`` at full scale, ``BENCH_<name>_<scale>.json`` otherwise.

    So a casual ``repro bench`` from the repository root can never
    clobber a committed full-scale baseline with smaller numbers.
    """
    suffix = "" if payload["scale"] == "full" else f"_{payload['scale']}"
    return f"BENCH_{payload['name']}{suffix}.json"


def write(payload: Dict[str, Any], output_dir: str = ".") -> str:
    """Write the artifact under ``output_dir``; returns the path."""
    os.makedirs(output_dir, exist_ok=True)
    path = os.path.join(output_dir, artifact_name(payload))
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json_dumps(payload) + "\n")
    return path


def headline(payload: Dict[str, Any]) -> str:
    """The target's one-line summary of ``payload``."""
    return target(payload["name"]).headline(payload)


def check(paths: Iterable[str]) -> List[str]:
    """Every violated condition over the artifacts at ``paths``.

    Each file must hold a ``repro-bench/v1`` artifact of a known target,
    named as :func:`write` names it (so ``BENCH_obs.json`` holds a
    full-scale run).  Every target given at one scale must be given at
    each scale present, so a fresh set checked beside the committed
    baselines cannot silently lack a target.  Then each target's
    ``gate`` runs once over all of that target's artifacts.
    """
    groups: Dict[str, List[Dict[str, Any]]] = {}
    problems: List[str] = []
    for path in paths:
        try:
            with open(path, encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, ValueError) as error:
            problems.append(f"{path}: unreadable ({error})")
            continue
        if not isinstance(payload, dict) or payload.get("schema") != SCHEMA:
            problems.append(f"{path}: not a {SCHEMA} artifact")
        elif payload.get("name") not in TARGETS or payload.get("scale") not in SCALES:
            problems.append(
                f"{path}: unknown target or scale "
                f"({payload.get('name')!r}, {payload.get('scale')!r})"
            )
        elif os.path.basename(path) != artifact_name(payload):
            problems.append(
                f"{path}: holds a {payload['scale']}-scale {payload['name']} "
                f"artifact, which is named {artifact_name(payload)}"
            )
        else:
            groups.setdefault(payload["name"], []).append(payload)
    scales = {payload["scale"] for group in groups.values() for payload in group}
    for name in sorted(groups):
        given = {payload["scale"] for payload in groups[name]}
        problems += [f"{name}: no {scale}-scale artifact given" for scale in sorted(scales - given)]
        try:
            failed = target(name).gate(groups[name])
        except (KeyError, TypeError) as error:
            failed = [f"malformed artifact ({type(error).__name__}: {error})"]
        problems += [f"{name}: {condition}" for condition in failed]
    return problems


Condition = Tuple[str, Callable[[Dict[str, Any]], bool]]


def violations(payloads: Iterable[Dict[str, Any]], *conditions: Condition) -> List[str]:
    """``"<scale>: <label>"`` for every ``(label, holds)`` that fails on a payload."""
    return [
        f"{payload['scale']}: {label}"
        for payload in payloads
        for label, holds in conditions
        if not holds(payload)
    ]


#: ``max_abs_difference`` (the fast leg against its reference, or an
#: estimate against the truth) stays within float round-off.
AGREEMENT: Condition = (
    "max_abs_difference <= 1e-9",
    lambda payload: payload["max_abs_difference"] <= 1e-9,
)


def speedup(value: Optional[float]) -> str:
    """``"14.1x"``, or ``"n/a"`` when the fast leg timed at zero."""
    return f"{value:.1f}x" if value else "n/a"


def legs(payload: Dict[str, Any]) -> str:
    """``"dict 2.59 s, sparse 0.18 s"``: the ``backends`` block, baseline first."""
    return ", ".join(
        f"{name} {entry['seconds']:.3g} s" for name, entry in payload["backends"].items()
    )


__all__ = [
    "AGREEMENT",
    "SCALES",
    "SCHEMA",
    "TARGETS",
    "artifact_name",
    "check",
    "headline",
    "legs",
    "run",
    "speedup",
    "target",
    "violations",
    "write",
]
