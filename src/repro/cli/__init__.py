"""Subsystem commands of ``python -m repro``, one module per command group.

Each module exposes ``register(subparsers)``, which adds its command
group and gives every leaf parser its handler through
``set_defaults(handler=...)``; a handler takes the parsed ``args`` and
returns the exit status.  :mod:`repro.__main__` keeps the core commands
and registers these modules in a fixed order.  Handlers import their
subsystem on use, so ``repro list`` loads none of them.

This package also holds what several command groups share: the
``--trace`` wrapper, the ``--topology`` parser and the artifact emitter.
"""

from __future__ import annotations

import contextlib
import sys
from typing import Optional


@contextlib.contextmanager
def _tracing(path: Optional[str], root: str):
    """Install a JSONL tracer around one CLI command (no-op when path is None).

    The root span wraps the whole command so the summary's top line is
    the command itself; worker processes append their spans through the
    sweep runner's part-file merge before the sink closes.
    """
    if not path:
        yield
        return
    from repro.obs import JsonlSink, Tracer, install_tracer, uninstall_tracer

    tracer = Tracer(sink=JsonlSink(path), role="main")
    install_tracer(tracer)
    try:
        with tracer.span(root):
            yield
    finally:
        uninstall_tracer()
        tracer.close()
        print(f"wrote trace to {path}", file=sys.stderr)


def _build_te_network(topology: str, seed: int):
    """Build the network a ``--topology`` flag names, via the topology-kind registry.

    Any registered kind works, in spec form (``torus(4)``,
    ``isp(pops=16, seed=3)``, ``zoo(abilene)``) or as ``name:arg``,
    which is shorthand for ``name(arg)`` (``hypercube:4``,
    ``backbone:2000``, ``zoo:abilene``).  A bare kind name takes the
    registry default size: hypercube 3, torus 3, expander 10, waxman 12.
    Random kinds draw from ``seed``.
    """
    from repro.exceptions import ReproError
    from repro.scenarios.spec import TopologySpec

    name, colon, argument = topology.partition(":")
    spec_text = f"{name}({argument})" if colon and "(" not in topology else topology
    try:
        return TopologySpec.from_string(spec_text).build(rng=seed)
    except ReproError as error:
        # Unknown kinds and catalog names list the registered choices.
        print(f"invalid topology {topology!r}: {error}", file=sys.stderr)
        raise SystemExit(2)


def _emit_net_artifact(artifact: str, output: Optional[str], as_json: bool, label: str) -> None:
    """Write and/or print a net artifact (printed when no --output given)."""
    if output:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(artifact + "\n")
        print(f"wrote {label} artifact to {output}", file=sys.stderr)
    if as_json or not output:
        print(artifact)
