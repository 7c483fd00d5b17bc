"""Command-line interface: ``python -m repro``.

Subcommands
-----------

``experiments``
    Run one or more experiments from the registry and print their tables::

        python -m repro experiments --scale small E1_sparsity_tradeoff E3_lower_bound
        python -m repro experiments --scale paper            # all of them
        python -m repro experiments --json E8_smore_te       # machine-readable

``te``
    Traffic-engineering simulation through the scheme registry: pick a
    topology, a traffic-matrix series length, and any number of scheme
    specs (``--scheme`` is repeatable)::

        python -m repro te --topology hypercube:4 --snapshots 6 \
            --scheme "semi-oblivious(racke, alpha=4)" --scheme "ksp(k=4)" --scheme spf
        python -m repro te --topology waxman:14 --json
        python -m repro te --topology "isp(pops=16, seed=3)" --scheme spf

    Any registered scenario topology kind works here (and on every other
    ``--topology`` flag), including the synthetic ISP-scale generators
    ``isp(pops=...)`` and ``backbone:N``.

``scenarios``
    Declarative failure × demand × topology sweeps through the engine::

        python -m repro scenarios list
        python -m repro scenarios describe smoke
        python -m repro scenarios run --suite smoke --workers 2 --json
        python -m repro scenarios run --suite failures --output sweep.json
        python -m repro scenarios run --suite real-world --workers 4 \
            --artifact-dir sweeps/rw            # killable: streams cell results
        python -m repro scenarios run --suite real-world --workers 4 \
            --resume sweeps/rw                  # finishes only the missing cells

    ``run`` executes every grid cell (candidate paths installed once per
    topology, deterministic per-cell seeds) and prints the harness table
    rendering — or, with ``--json``, the artifact itself, which is
    bit-identical for any ``--workers`` value, executor, or
    kill-and-resume history.

``stream``
    Streaming traffic replay: play a time-varying demand stream through
    one scheme under online rerouting policies, evaluated incrementally
    on the compiled backend::

        python -m repro stream list
        python -m repro stream describe random-walk
        python -m repro stream run --topology torus:5 --stream flash-crowd \
            --steps 96 --policy static --policy "periodic(k=16)" --optimal
        python -m repro stream run --stream adversarial-shift --json

    Seeded runs are bit-identical however often they are replayed (the
    artifact carries no wall-clock fields).

``net``
    Real-network ingestion: list and inspect the bundled topology
    catalog (Topology Zoo GraphML, SNDlib native/XML), convert any
    catalog entry or file into the canonical JSON network form, and fit
    demand models (gravity, max-entropy) from the dataset's marginals::

        python -m repro net list
        python -m repro net describe "sndlib(geant)"
        python -m repro net convert "zoo(abilene)" --output abilene.json
        python -m repro net fit "sndlib(polska)" --model max-entropy --json
        python -m repro net odme "zoo(abilene)" --noise 0.05 --coverage 0.75 --json

    Seeded ``convert``/``fit`` artifacts are bit-identical across runs.
    Catalog names also work wherever a topology is expected:
    ``repro te --topology "zoo(abilene)"``.

``bench``
    Run benchmark targets (:mod:`repro.bench`) and write schema-stable
    ``BENCH_<name>.json`` artifacts comparing a reference and a fast
    evaluation path (``dict`` vs ``sparse``, per-step batch vs
    incremental streaming, the real-topology catalog); ``check`` runs
    every target's gate over given artifacts and exits 1 on a violation::

        python -m repro bench list
        python -m repro bench linalg --scale smoke
        python -m repro bench scale --scale small     # nodes-vs-seconds/peak-MB
        python -m repro bench --scale full --output-dir .
        python -m repro bench check bench-artifacts/BENCH_*_smoke.json BENCH_*.json

``forwarding``
    ECMP realization: quantize any scheme's routing into per-node
    next-hop buckets (split ratios in multiples of 1/k), hash discrete
    flows onto the table, and measure the fractional-vs-realized
    congestion gap with analytic non-congestion probabilities::

        python -m repro forwarding quantize --topology "zoo(abilene)" --buckets 8
        python -m repro forwarding realize --scheme "oblivious(ksp, k=4)" --flows 128
        python -m repro forwarding gap --topology "zoo(abilene)" --buckets 8 --json

    Seeded ``--json`` artifacts are bit-identical across runs.  The
    ``realized(...)`` scheme wrapper exposes the same realization to
    every other subcommand, e.g.
    ``repro te --scheme "realized(oblivious(ksp, k=4), buckets=8)"``.

``trace``
    Inspect trace files produced by ``--trace`` (available on ``te``,
    ``scenarios run``, ``stream run``, ``net fit``, ``net odme``)::

        python -m repro scenarios run --suite smoke --workers 4 --trace run.jsonl
        python -m repro trace summarize run.jsonl
        python -m repro trace export run.jsonl --chrome

    ``summarize`` prints the hot-span table (count, self/total time,
    p50/p95); ``export --chrome`` writes a Chrome/Perfetto trace-event
    file loadable at ``chrome://tracing`` or https://ui.perfetto.dev.

``schemes``
    List the registered scheme names and oblivious sampling sources.

``list``
    List the available experiment ids with one-line descriptions.

``quickstart``
    Run the quickstart pipeline on a hypercube (same as
    ``examples/quickstart.py``) — useful as an installation check.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

from repro.experiments import REGISTRY
from repro.experiments.harness import ExperimentConfig
from repro.utils.serialization import dumps as json_dumps

_DESCRIPTIONS = {
    "E1_sparsity_tradeoff": "sparsity vs competitiveness sweep (Theorem 2.5)",
    "E2_log_sparsity": "logarithmic sparsity suffices (Theorem 2.3)",
    "E3_lower_bound": "C(n,k) lower bound and Figure 1 (Lemma 8.1)",
    "E4_deterministic_hypercube": "deterministic single path vs sampled paths (KKT91)",
    "E5_weak_routing_process": "the Lemma 5.6 deletion process",
    "E6_rounding": "randomized rounding guarantee (Lemma 6.3)",
    "E7_completion_time": "completion-time competitive sampling (Section 7)",
    "E8_smore_te": "SMORE-style traffic engineering",
    "E9_arbitrary_demands": "(alpha+cut)-sparsity for arbitrary demands (Lemma 2.7)",
    "E10_oblivious_baselines": "quality of the oblivious sampling sources",
    "E11_ablation_selection": "ablation of the path-selection rule",
    "E12_robustness": "link-failure robustness of sampled candidate paths",
}

#: Default scheme specs for the ``te`` subcommand (the SMORE line-up).
_DEFAULT_TE_SCHEMES = [
    "semi-oblivious(racke, alpha=4)",
    "oblivious(racke)",
    "ksp(k=4)",
    "spf",
    "optimal",
]


import contextlib


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


def _cmd_list() -> int:
    for name in sorted(REGISTRY):
        print(f"{name:30s} {_DESCRIPTIONS.get(name, '')}")
    return 0


def _cmd_schemes() -> int:
    from repro.engine import available_sources, scheme_descriptions

    print("schemes:")
    for name, description in scheme_descriptions().items():
        print(f"  {name:18s} {description}")
    print("oblivious sources:")
    for name in available_sources():
        print(f"  {name}")
    return 0


def _cmd_experiments(ids: List[str], scale: str, seed: int, as_json: bool = False) -> int:
    chosen = ids or sorted(REGISTRY)
    unknown = [name for name in chosen if name not in REGISTRY]
    if unknown:
        print(f"unknown experiment id(s): {unknown}", file=sys.stderr)
        return 2
    config = ExperimentConfig(seed=seed, scale=scale)
    payloads = []
    for name in chosen:
        start = time.perf_counter()
        result = REGISTRY[name](config)
        elapsed = time.perf_counter() - start
        if as_json:
            payload = result.to_dict()
            payload["elapsed_seconds"] = round(elapsed, 3)
            payload["scale"] = scale
            payloads.append(payload)
        else:
            print(result.render())
            print(f"\n[{name} completed in {elapsed:.1f}s at scale={scale}]\n")
    if as_json:
        print(json_dumps(payloads))
    return 0


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


def _cmd_te(
    topology: str,
    schemes: List[str],
    snapshots: int,
    seed: int,
    as_json: bool,
    trace: Optional[str] = None,
) -> int:
    from repro.demands.traffic_matrix import diurnal_gravity_series
    from repro.engine import RoutingEngine
    from repro.exceptions import ReproError

    with _tracing(trace, "cli.te"):
        network = _build_te_network(topology, seed)
        try:
            series = diurnal_gravity_series(network, num_snapshots=snapshots, rng=seed + 1)
        except ReproError as error:
            print(f"bad traffic series: {error}", file=sys.stderr)
            return 2
        try:
            engine = RoutingEngine(network, schemes or _DEFAULT_TE_SCHEMES, rng=seed)
        except ReproError as error:
            print(f"bad scheme spec: {error}", file=sys.stderr)
            return 2
        start = time.perf_counter()
        report = engine.evaluate_matrix_series(series)
        elapsed = time.perf_counter() - start
    if as_json:
        payload = report.to_dict()
        payload["elapsed_seconds"] = round(elapsed, 3)
        payload["optimal_mcf_solves"] = engine.num_optimal_solves
        print(json_dumps(payload))
        return 0
    print(f"{network.name}: {network.num_vertices} vertices, {network.num_edges} edges, "
          f"{len(series)} snapshots")
    header = f"{'scheme':22s} {'mean':>8s} {'p90':>8s} {'worst':>8s}"
    print(header)
    print("-" * len(header))
    for label in report.ranking():
        result = report.results[label]
        print(f"{label:22s} {result.mean_ratio():8.3f} "
              f"{result.percentile_ratio(90.0):8.3f} {result.worst_ratio():8.3f}")
    print(f"[{engine.num_optimal_solves} optimal MCF solve(s) shared across "
          f"{len(report.results)} scheme(s), {elapsed:.1f}s]")
    return 0


def _cmd_scenarios_list() -> int:
    from repro.scenarios import available_suites, get_suite

    for name in available_suites():
        suite = get_suite(name)
        print(f"{name:12s} {suite.num_cells():4d} cells  {suite.description}")
    return 0


def _cmd_scenarios_describe(name: str) -> int:
    from repro.exceptions import ReproError
    from repro.scenarios import get_suite

    try:
        suite = get_suite(name)
    except ReproError as error:
        print(error, file=sys.stderr)
        return 2
    print(suite.describe())
    return 0


def _cmd_scenarios_run(
    suite_name: str,
    workers: int,
    seed: Optional[int],
    snapshots: Optional[int],
    as_json: bool,
    output: Optional[str],
    executor: str = "auto",
    artifact_dir: Optional[str] = None,
    resume: Optional[str] = None,
    trace: Optional[str] = None,
) -> int:
    from repro.exceptions import ReproError
    from repro.scenarios import get_suite, run_suite

    if workers < 1:
        print("--workers must be at least 1", file=sys.stderr)
        return 2
    try:
        suite = get_suite(suite_name).with_overrides(seed=seed, num_snapshots=snapshots)
    except ReproError as error:
        print(error, file=sys.stderr)
        return 2
    start = time.perf_counter()
    try:
        with _tracing(trace, "cli.scenarios"):
            result = run_suite(
                suite,
                workers=workers,
                executor=executor,
                artifact_dir=artifact_dir,
                resume=resume,
            )
    except (ReproError, ValueError) as error:
        print(error, file=sys.stderr)
        return 2
    elapsed = time.perf_counter() - start
    artifact = result.to_json()
    if output:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(artifact + "\n")
        print(f"wrote {len(result.cells)}-cell artifact to {output}", file=sys.stderr)
    if as_json:
        print(artifact)
    else:
        print(result.render())
        print(f"\n[{suite.num_cells()} cells on {workers} worker(s), {elapsed:.1f}s]")
    return 0


def _cmd_stream_list() -> int:
    from repro.stream import policy_descriptions, stream_descriptions

    print("streams:")
    for name, description in stream_descriptions().items():
        print(f"  {name:18s} {description}")
    print("policies:")
    for name, description in policy_descriptions().items():
        print(f"  {name:18s} {description}")
    return 0


def _cmd_stream_describe(name: str) -> int:
    from repro.stream import policy_descriptions, stream_descriptions

    streams = stream_descriptions()
    policies = policy_descriptions()
    if name in streams:
        print(f"stream {name}: {streams[name]}")
        return 0
    if name in policies:
        print(f"policy {name}: {policies[name]}")
        return 0
    print(
        f"unknown stream or policy {name!r}; "
        f"streams: {sorted(streams)}; policies: {sorted(policies)}",
        file=sys.stderr,
    )
    return 2


def _cmd_stream_run(
    topology: str,
    stream_kind: str,
    steps: int,
    policies: List[str],
    scheme: str,
    seed: int,
    window: int,
    threshold: float,
    with_optimal: bool,
    as_json: bool,
    no_steps: bool,
    output: Optional[str],
    trace: Optional[str] = None,
    churn_buckets: Optional[int] = None,
) -> int:
    from repro.engine import RoutingEngine
    from repro.exceptions import ReproError
    from repro.stream import build_stream

    with _tracing(trace, "cli.stream"):
        network = _build_te_network(topology, seed)
        try:
            stream = build_stream(stream_kind, network, num_steps=steps, seed=seed + 1)
            engine = RoutingEngine(network, [scheme], rng=seed)
            start = time.perf_counter()
            report = engine.run_stream(
                stream,
                policies=policies or ["static"],
                window=window,
                threshold=threshold,
                with_optimal=with_optimal,
                record_steps=not no_steps,
                churn_buckets=churn_buckets,
            )
            elapsed = time.perf_counter() - start
        except ReproError as error:
            print(f"stream run failed: {error}", file=sys.stderr)
            return 2
    # The artifact deliberately excludes wall time: seeded runs are
    # bit-identical however often they are replayed.
    artifact = report.to_json(include_steps=not no_steps)
    if output:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(artifact + "\n")
        print(f"wrote stream artifact to {output}", file=sys.stderr)
    if as_json:
        print(artifact)
    else:
        print(report.render())
        print(f"\n[{len(policies or ['static'])} policy replay(s) over "
              f"{report.num_steps} steps, {elapsed:.1f}s]")
    return 0


def _cmd_bench_list() -> int:
    from repro.bench import TARGETS, target

    for name in sorted(TARGETS):
        print(f"{name:12s} {target(name).DESCRIPTION}")
    return 0


def _cmd_bench_check(paths: List[str]) -> int:
    from repro.bench import check

    if not paths:
        print("bench check needs at least one BENCH_*.json path", file=sys.stderr)
        return 2
    problems = check(paths)
    for problem in problems:
        print(f"violated: {problem}", file=sys.stderr)
    if problems:
        return 1
    print(f"bench check: {len(paths)} artifact(s), every gate holds")
    return 0


def _cmd_bench(
    names: List[str],
    scale: str,
    seed: int,
    output_dir: str,
    as_json: bool,
) -> int:
    import os

    from repro import bench
    from repro.exceptions import ReproError

    # Resolve the artifact directory up front so a relative --output-dir
    # means "relative to where the user invoked the CLI" even if a bench
    # target chdirs or the path is consumed late.
    output_dir = os.path.abspath(os.path.expanduser(output_dir))
    chosen = names or sorted(bench.TARGETS)
    unknown = [name for name in chosen if name not in bench.TARGETS]
    if unknown:
        print(f"unknown bench target(s): {unknown}; available: {sorted(bench.TARGETS)}",
              file=sys.stderr)
        return 2
    payloads = []
    failed = []
    for name in chosen:
        # A failing target does not stop the others: each still runs
        # and writes its artifact, and the exit status reports failures.
        try:
            payload = bench.run(name, scale=scale, seed=seed)
        except ReproError as error:
            print(f"bench {name!r} failed: {error}", file=sys.stderr)
            failed.append(name)
            continue
        path = bench.write(payload, output_dir=output_dir)
        payloads.append(payload)
        if not as_json:
            print(f"{name}: {bench.headline(payload)}")
            print(f"  wrote {path}", file=sys.stderr)
    if as_json:
        print(json_dumps(payloads))
    if failed:
        print(f"{len(failed)} bench target(s) failed: {failed}", file=sys.stderr)
        return 1
    return 0


_NET_SCHEMA = "repro-net/v1"


def _emit_net_artifact(artifact: str, output: Optional[str], as_json: bool, label: str) -> None:
    """Write and/or print a net artifact (printed when no --output given)."""
    if output:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(artifact + "\n")
        print(f"wrote {label} artifact to {output}", file=sys.stderr)
    if as_json or not output:
        print(artifact)


def _cmd_net_list(as_json: bool) -> int:
    from repro.net import catalog_entries

    entries = catalog_entries()
    if as_json:
        print(json_dumps([entry.to_dict() for entry in entries]))
        return 0
    header = (f"{'name':24s} {'format':8s} {'nodes':>5s} {'links':>5s} "
              f"{'units':8s} demands  description")
    print(header)
    print("-" * len(header))
    for entry in entries:
        print(f"{entry.qualified_name:24s} {entry.format:8s} {entry.nodes:5d} "
              f"{entry.links:5d} {entry.capacity_units:8s} "
              f"{'yes' if entry.has_demands else 'no ':7s} {entry.description}")
    return 0


def _cmd_net_describe(name: str, as_json: bool) -> int:
    from repro.exceptions import NetError
    from repro.net import load_catalog_instance

    try:
        entry, instance = load_catalog_instance(name)
    except NetError as error:
        print(error, file=sys.stderr)
        return 2
    network = instance.network
    capacities = [network.capacity_of(edge) for edge in network.edges]
    stats = {
        "n": network.num_vertices,
        "m": network.num_edges,
        "diameter": network.diameter(),
        "max_degree": network.max_degree(),
        "min_capacity": min(capacities),
        "max_capacity": max(capacities),
        "total_capacity": sum(capacities),
        "num_demand_pairs": len(instance.demands),
        "total_demand": instance.total_demand(),
    }
    if as_json:
        print(json_dumps({**entry.to_dict(), "stats": stats}))
        return 0
    print(f"{entry.qualified_name}: {entry.description}")
    print(f"  file:       {entry.file} ({entry.format} format)")
    print(f"  provenance: {entry.provenance}")
    print(f"  size:       {stats['n']} nodes, {stats['m']} links, "
          f"diameter {stats['diameter']}, max degree {stats['max_degree']}")
    print(f"  capacity:   [{stats['min_capacity']:g}, {stats['max_capacity']:g}] "
          f"{entry.capacity_units} per link, {stats['total_capacity']:g} total")
    if instance.has_demands:
        print(f"  demands:    {stats['num_demand_pairs']} pairs, "
              f"{stats['total_demand']:g} total volume")
    else:
        print("  demands:    none bundled (fitting uses capacity marginals)")
    return 0


def _network_artifact(source: str, network) -> dict:
    """The canonical JSON form of an ingested network (bit-stable)."""
    nodes = []
    for vertex in network.vertices:
        record = {"id": str(vertex)}
        data = network.graph.nodes[vertex]
        for key in ("latitude", "longitude"):
            if key in data:
                record[key] = data[key]
        nodes.append(record)
    edges = []
    for u, v in network.edges:
        record = {
            "source": str(u),
            "target": str(v),
            "capacity": network.capacity(u, v),
        }
        latency = network.graph[u][v].get("latency")
        if latency is not None:
            record["latency_ms"] = latency
        edges.append(record)
    return {
        "artifact": "network",
        "schema": _NET_SCHEMA,
        "source": source,
        "name": network.name,
        "nodes": nodes,
        "edges": edges,
        "stats": {
            "n": network.num_vertices,
            "m": network.num_edges,
            "total_capacity": sum(edge["capacity"] for edge in edges),
        },
    }


def _cmd_net_convert(source: str, as_json: bool, output: Optional[str]) -> int:
    from repro.exceptions import NetError
    from repro.net import load_network

    try:
        network = load_network(source)
    except NetError as error:
        print(error, file=sys.stderr)
        return 2
    _emit_net_artifact(
        json_dumps(_network_artifact(source, network)), output, as_json, "network"
    )
    return 0


def _cmd_net_fit(
    source: str,
    model: str,
    snapshots: int,
    seed: int,
    total: Optional[float],
    as_json: bool,
    output: Optional[str],
    trace: Optional[str] = None,
) -> int:
    from repro.exceptions import NetError
    from repro.net import fitted_gravity_series, load_instance, max_entropy_series

    try:
        with _tracing(trace, "cli.net.fit"):
            # Catalog names and file paths resolve identically: SNDlib
            # sources keep their bundled demand matrix either way.
            instance = load_instance(source)
            network, demands = instance.network, instance.demands
            resolved_total = total if total is not None else (
                sum(demands.values()) if demands else 10.0
            )
            if model == "gravity":
                # Catalog entries with a bundled demand matrix are fitted to
                # its per-node marginals; otherwise capacity weights apply.
                series = fitted_gravity_series(
                    network, snapshots, total=resolved_total, rng=seed, demands=demands or None
                )
            else:
                series = max_entropy_series(
                    network, snapshots, total=resolved_total, rng=seed
                )
    except NetError as error:
        print(error, file=sys.stderr)
        return 2
    payload = {
        "artifact": "fitted-demands",
        "schema": _NET_SCHEMA,
        "source": source,
        "network": network.name,
        "model": model,
        "seed": seed,
        "num_snapshots": snapshots,
        "total": resolved_total,
        "fitted_from": (
            "bundled-demand-marginals" if (demands and model == "gravity")
            else "link-capacity-marginals"
        ),
        "snapshots": [
            sorted(
                (
                    {"source": str(s), "target": str(t), "value": value}
                    for (s, t), value in snapshot.items()
                ),
                key=lambda record: (record["source"], record["target"]),
            )
            for snapshot in series
        ],
        "total_volumes": series.total_volumes(),
    }
    _emit_net_artifact(json_dumps(payload), output, as_json, "fitted-demand")
    return 0


def _cmd_net_odme(
    source: str,
    scheme: str,
    snapshots: int,
    seed: int,
    noise: float,
    coverage: float,
    granularity: str,
    method: str,
    total: Optional[float],
    as_json: bool,
    output: Optional[str],
    trace: Optional[str] = None,
) -> int:
    from repro.engine import RoutingEngine
    from repro.exceptions import ReproError
    from repro.net import fitted_gravity_series, load_instance

    try:
        with _tracing(trace, "cli.net.odme"):
            instance = load_instance(source)
            network, demands = instance.network, instance.demands
            resolved_total = total if total is not None else (
                sum(demands.values()) if demands else 10.0
            )
            series = fitted_gravity_series(
                network, snapshots, total=resolved_total, rng=seed, demands=demands or None
            )
            engine = RoutingEngine(network, [scheme], rng=seed)
            result = engine.run_odme(
                series,
                noise=noise,
                coverage=coverage,
                granularity=granularity,
                method=method,
                seed=seed,
            )
    except ReproError as error:
        print(error, file=sys.stderr)
        return 2
    if as_json or output:
        payload = {
            "artifact": "odme",
            "schema": _NET_SCHEMA,
            "source": source,
            "total": resolved_total,
            **result.to_dict(),
        }
        _emit_net_artifact(json_dumps(payload), output, as_json, "odme")
    else:
        print(result.render())
    return 0


_FORWARDING_SCHEMA = "repro-forwarding/v1"


def _forwarding_setup(topology: str, scheme: str, seed: int):
    """Build (network, routing, demand) for the forwarding subcommands.

    The demand is one fitted-gravity snapshot (capacity marginals on
    synthetic topologies, bundled marginals on catalog entries) and the
    routing is whatever the scheme installs — both seeded through
    ``SeedSequence`` so repeated invocations are bit-identical.
    """
    from numpy.random import SeedSequence, default_rng

    from repro.engine import build_router
    from repro.exceptions import ForwardingError
    from repro.net import fitted_gravity_series

    network = _build_te_network(topology, seed)
    demand = list(
        fitted_gravity_series(network, 1, rng=default_rng(SeedSequence([seed, 0])))
    )[0]
    router = build_router(scheme, network, rng=default_rng(SeedSequence([seed, 1])))
    router.install()
    result = router.route(demand)
    if result.routing is None:
        raise ForwardingError(
            f"scheme {scheme!r} does not materialize a routing to quantize "
            "(the optimal MCF router solves per demand); pick a path-based scheme"
        )
    return network, result.routing, demand


def _cmd_forwarding_quantize(
    topology: str,
    scheme: str,
    buckets: int,
    on_cycle: str,
    seed: int,
    as_json: bool,
    output: Optional[str],
    trace: Optional[str] = None,
) -> int:
    from repro.exceptions import ReproError
    from repro.forwarding import quantize_routing

    try:
        with _tracing(trace, "cli.forwarding.quantize"):
            network, routing, _ = _forwarding_setup(topology, scheme, seed)
            table = quantize_routing(routing, buckets=buckets, on_cycle=on_cycle)
    except ReproError as error:
        print(error, file=sys.stderr)
        return 2
    payload = {
        "artifact": "forwarding-table",
        "schema": _FORWARDING_SCHEMA,
        "topology": topology,
        "scheme": scheme,
        "seed": seed,
        "on_cycle": on_cycle,
        **table.to_dict(),
    }
    if output or as_json:
        _emit_net_artifact(json_dumps(payload), output, as_json, "forwarding-table")
    if not as_json:
        print(f"{network.name}: quantized {len(table.entries)} pair(s) at 1/{buckets} "
              f"granularity -> {table.num_rules()} next-hop rules, "
              f"{len(table.fallback_pairs())} path-mode fallback(s), "
              f"max TV error {table.max_error():.4f}")
    return 0


def _cmd_forwarding_realize(
    topology: str,
    scheme: str,
    buckets: int,
    flows: int,
    seed: int,
    as_json: bool,
    output: Optional[str],
    trace: Optional[str] = None,
) -> int:
    from repro.exceptions import ReproError
    from repro.forwarding import evaluate_realization

    try:
        with _tracing(trace, "cli.forwarding.realize"):
            network, routing, demand = _forwarding_setup(topology, scheme, seed)
            _, result = evaluate_realization(
                routing, demand, buckets=buckets, flows=flows, seed=seed
            )
    except ReproError as error:
        print(error, file=sys.stderr)
        return 2
    payload = {
        "artifact": "forwarding-realization",
        "schema": _FORWARDING_SCHEMA,
        "topology": topology,
        "scheme": scheme,
        "seed": seed,
        **result.to_dict(),
    }
    if output or as_json:
        _emit_net_artifact(json_dumps(payload), output, as_json, "realization")
    if not as_json:
        print(f"{network.name}: fractional {result.fractional_congestion:.4f} vs "
              f"quantized {result.quantized_congestion:.4f} "
              f"(gap {result.gap:.4f}) at k={buckets}; "
              f"{flows} hashed flow(s) -> {result.flow_congestion:.4f} "
              f"(gap {result.flow_gap:.4f})")
    return 0


def _cmd_forwarding_gap(
    topology: str,
    scheme: str,
    buckets_list: List[int],
    flows: int,
    seed: int,
    as_json: bool,
    output: Optional[str],
    trace: Optional[str] = None,
) -> int:
    from repro.exceptions import ReproError
    from repro.forwarding import analyze_placement, evaluate_realization

    buckets_list = sorted(set(buckets_list)) if buckets_list else [2, 4, 8, 16]
    rows = []
    try:
        with _tracing(trace, "cli.forwarding.gap"):
            network, routing, demand = _forwarding_setup(topology, scheme, seed)
            for buckets in buckets_list:
                _, result = evaluate_realization(
                    routing, demand, buckets=buckets, flows=flows, seed=seed
                )
                analytic = analyze_placement(buckets, flows, seed=seed)
                rows.append({"buckets": buckets, **result.to_dict(),
                             "analytic": analytic})
    except ReproError as error:
        print(error, file=sys.stderr)
        return 2
    payload = {
        "artifact": "forwarding-gap",
        "schema": _FORWARDING_SCHEMA,
        "topology": topology,
        "scheme": scheme,
        "seed": seed,
        "flows": flows,
        "network": {"n": network.num_vertices, "m": network.num_edges},
        "rows": rows,
        "max_gap": max(row["gap"] for row in rows),
    }
    if output or as_json:
        _emit_net_artifact(json_dumps(payload), output, as_json, "forwarding-gap")
    if not as_json:
        print(f"{network.name}: fractional congestion "
              f"{rows[0]['fractional_congestion']:.4f} ({scheme})")
        header = (f"{'k':>4s} {'quantized':>10s} {'gap':>8s} {'flow-gap':>9s} "
                  f"{'rules':>6s} {'P(no congest)':>14s}")
        print(header)
        print("-" * len(header))
        for row in rows:
            print(f"{row['buckets']:4d} {row['quantized_congestion']:10.4f} "
                  f"{row['gap']:8.4f} {row['flow_gap']:9.4f} {row['rules']:6d} "
                  f"{row['analytic']['non_congestion_probability']:14.4f}")
    return 0


def _cmd_trace_summarize(path: str, limit: int) -> int:
    from repro.exceptions import ObsError
    from repro.obs import load_trace, render_summary, summarize_trace

    try:
        records = load_trace(path)
        rows = summarize_trace(records)
    except ObsError as error:
        print(error, file=sys.stderr)
        return 2
    if not rows:
        print(f"{path}: no spans recorded", file=sys.stderr)
        return 0
    print(render_summary(rows, limit=limit))
    return 0


def _cmd_trace_export(path: str, output: Optional[str]) -> int:
    from repro.exceptions import ObsError
    from repro.obs import load_trace, write_chrome_trace

    try:
        records = load_trace(path)
    except ObsError as error:
        print(error, file=sys.stderr)
        return 2
    if output is None:
        stem = path[:-6] if path.endswith(".jsonl") else path
        output = stem + ".chrome.json"
    write_chrome_trace(records, output)
    print(f"wrote Chrome trace-event file to {output} "
          "(load at chrome://tracing or https://ui.perfetto.dev)", file=sys.stderr)
    return 0


def _cmd_quickstart(dimension: int, alpha: int) -> int:
    from repro import build_router, topologies
    from repro.core.competitive import congestion_ratio
    from repro.demands import random_permutation_demand
    from repro.mcf import min_congestion_lp

    network = topologies.hypercube(dimension)
    router = build_router(f"semi-oblivious(valiant, alpha={alpha})", network, rng=0)
    router.install()
    demand = random_permutation_demand(network, rng=1)
    achieved = router.route(demand).congestion
    optimum = min_congestion_lp(network, demand).congestion
    print(f"{network.name}: alpha={alpha}, achieved={achieved:.3f}, "
          f"optimum={optimum:.3f}, ratio={congestion_ratio(achieved, optimum):.3f}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="repro", description="Sparse semi-oblivious routing reproduction")
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list available experiments")
    subparsers.add_parser("schemes", help="list registered routing schemes and sources")

    exp_parser = subparsers.add_parser("experiments", help="run experiments and print their tables")
    exp_parser.add_argument("ids", nargs="*", help="experiment ids (default: all)")
    exp_parser.add_argument("--scale", choices=("smoke", "small", "paper"), default="small")
    exp_parser.add_argument("--seed", type=int, default=0)
    exp_parser.add_argument("--json", action="store_true", help="print JSON instead of tables")

    te_parser = subparsers.add_parser("te", help="traffic-engineering simulation via scheme specs")
    te_parser.add_argument("--topology", default="waxman:14",
                           help="any registered topology kind: hypercube:K, torus:K, waxman:N, "
                                "isp(pops=P), backbone:N, zoo:NAME, ... (default waxman:14); "
                                "a bare kind name takes the registry default size")
    te_parser.add_argument("--scheme", action="append", default=[], dest="schemes",
                           help="scheme spec, repeatable (default: the SMORE line-up)")
    te_parser.add_argument("--snapshots", type=int, default=4)
    te_parser.add_argument("--seed", type=int, default=0)
    te_parser.add_argument("--json", action="store_true", help="print the report as JSON")
    te_parser.add_argument("--trace", default=None, metavar="PATH",
                           help="write a span trace (JSONL) of the run to this path")

    scenario_parser = subparsers.add_parser(
        "scenarios", help="failure x demand x topology sweeps through the engine"
    )
    scenario_sub = scenario_parser.add_subparsers(dest="scenario_command", required=True)
    scenario_sub.add_parser("list", help="list the built-in scenario suites")
    describe_parser = scenario_sub.add_parser("describe", help="show one suite's grid")
    describe_parser.add_argument("suite", help="suite name (see 'scenarios list')")
    run_parser = scenario_sub.add_parser("run", help="execute a suite and print its report")
    run_parser.add_argument("--suite", default="smoke", help="suite name (default smoke)")
    run_parser.add_argument("--workers", type=int, default=1,
                            help="worker processes for the sweep cells (default 1)")
    run_parser.add_argument("--seed", type=int, default=None,
                            help="override the suite's master seed")
    run_parser.add_argument("--snapshots", type=int, default=None,
                            help="override demand snapshots per cell")
    run_parser.add_argument("--json", action="store_true",
                            help="print the JSON artifact instead of tables")
    run_parser.add_argument("--output", default=None,
                            help="also write the JSON artifact to this path")
    from repro.scenarios.runner import EXECUTOR_CHOICES

    # No argparse choices= here on purpose: the runner validates the
    # executor itself and reports the registered list, so extension
    # executors registered at runtime keep working.
    run_parser.add_argument("--executor", default="auto",
                            help="execution strategy, one of "
                                 f"{', '.join(EXECUTOR_CHOICES)} "
                                 "(auto: inline for --workers 1, "
                                 "shared-memory cell queue otherwise)")
    run_parser.add_argument("--artifact-dir", default=None,
                            help="stream per-cell results into a resumable store "
                                 "at this directory")
    run_parser.add_argument("--resume", default=None,
                            help="resume from the store at this directory, "
                                 "skipping completed cells")
    run_parser.add_argument("--trace", default=None, metavar="PATH",
                            help="write a span trace (JSONL) of the sweep to this path; "
                                 "worker spans are merged into the one file")

    stream_parser = subparsers.add_parser(
        "stream", help="streaming traffic replay with online rerouting policies"
    )
    stream_sub = stream_parser.add_subparsers(dest="stream_command", required=True)
    stream_sub.add_parser("list", help="list the registered streams and policies")
    stream_describe = stream_sub.add_parser("describe", help="describe one stream or policy")
    stream_describe.add_argument("name", help="stream or policy name (see 'stream list')")
    stream_run = stream_sub.add_parser("run", help="replay a stream and print the policy table")
    stream_run.add_argument("--topology", default="torus:5",
                            help="any registered topology kind: hypercube:K, torus:K, waxman:N, "
                                 "isp(pops=P), backbone:N, ... (default torus:5)")
    stream_run.add_argument("--stream", default="random-walk", dest="stream_kind",
                            help="stream kind (see 'stream list'; default random-walk)")
    stream_run.add_argument("--steps", type=int, default=64,
                            help="number of timesteps (default 64)")
    stream_run.add_argument("--policy", action="append", default=[], dest="policies",
                            help="rerouting policy spec, repeatable (default: static)")
    stream_run.add_argument("--scheme", default="spf",
                            help="scheme spec routed through (default spf)")
    stream_run.add_argument("--seed", type=int, default=0)
    stream_run.add_argument("--window", type=int, default=16,
                            help="rolling metric window in steps (default 16)")
    stream_run.add_argument("--threshold", type=float, default=1.0,
                            help="overload utilization threshold (default 1.0)")
    stream_run.add_argument("--optimal", action="store_true",
                            help="normalize each step by the per-step optimal MCF (needs LP)")
    stream_run.add_argument("--json", action="store_true",
                            help="print the JSON artifact instead of the table")
    stream_run.add_argument("--no-steps", action="store_true",
                            help="omit per-step records from the artifact (summaries only)")
    stream_run.add_argument("--output", default=None,
                            help="also write the JSON artifact to this path")
    stream_run.add_argument("--trace", default=None, metavar="PATH",
                            help="write a span trace (JSONL) of the replay to this path")
    stream_run.add_argument("--churn-buckets", type=int, default=None, metavar="K",
                            help="also charge each policy re-solve its ECMP "
                                 "forwarding-table churn at 1/K split granularity "
                                 "(default: off)")

    net_parser = subparsers.add_parser(
        "net", help="real-network ingestion: topology catalog, conversion, demand fitting"
    )
    net_sub = net_parser.add_subparsers(dest="net_command", required=True)
    net_list = net_sub.add_parser("list", help="list the bundled real-topology catalog")
    net_list.add_argument("--json", action="store_true",
                          help="print catalog metadata as JSON")
    net_describe = net_sub.add_parser("describe", help="describe one catalog topology")
    net_describe.add_argument("name", help="catalog name, e.g. 'zoo(abilene)' or 'geant'")
    net_describe.add_argument("--json", action="store_true",
                              help="print metadata and parsed stats as JSON")
    net_convert = net_sub.add_parser(
        "convert", help="parse a topology into the canonical JSON network form"
    )
    net_convert.add_argument("source",
                             help="catalog name or path to a GraphML/SNDlib file")
    net_convert.add_argument("--json", action="store_true",
                             help="print the artifact (default when no --output)")
    net_convert.add_argument("--output", default=None,
                             help="write the JSON artifact to this path")
    net_fit = net_sub.add_parser(
        "fit", help="fit a demand model and emit a traffic-matrix series artifact"
    )
    net_fit.add_argument("source", help="catalog name or path to a GraphML/SNDlib file")
    net_fit.add_argument("--model", choices=("gravity", "max-entropy"), default="gravity",
                         help="demand model (default gravity)")
    net_fit.add_argument("--snapshots", type=int, default=4,
                         help="snapshots in the fitted series (default 4)")
    net_fit.add_argument("--seed", type=int, default=0)
    net_fit.add_argument("--total", type=float, default=None,
                         help="total volume per snapshot (default: the bundled "
                              "demand total when present, else 10)")
    net_fit.add_argument("--json", action="store_true",
                         help="print the artifact (default when no --output)")
    net_fit.add_argument("--output", default=None,
                         help="write the JSON artifact to this path")
    net_fit.add_argument("--trace", default=None, metavar="PATH",
                         help="write a span trace (JSONL) of the fit to this path")
    net_odme = net_sub.add_parser(
        "odme", help="closed-loop demand estimation from observed link loads"
    )
    net_odme.add_argument("source", help="catalog name or path to a GraphML/SNDlib file")
    net_odme.add_argument("--scheme", default="spf",
                          help="routing scheme the loop routes with (default spf)")
    net_odme.add_argument("--snapshots", type=int, default=4,
                          help="true-demand snapshots replayed through the loop (default 4)")
    net_odme.add_argument("--seed", type=int, default=0)
    net_odme.add_argument("--noise", type=float, default=0.0,
                          help="relative Gaussian counter noise (default 0: exact)")
    net_odme.add_argument("--coverage", type=float, default=1.0,
                          help="fraction of link sensors that report (default 1.0)")
    net_odme.add_argument("--granularity", choices=("ingress", "link"), default="ingress",
                          help="telemetry granularity (default ingress)")
    net_odme.add_argument("--method", choices=("auto", "nnls", "entropy"), default="auto",
                          help="estimator leg (default auto: NNLS)")
    net_odme.add_argument("--total", type=float, default=None,
                          help="total true volume per snapshot (default: the bundled "
                               "demand total when present, else 10)")
    net_odme.add_argument("--json", action="store_true",
                          help="print the artifact (default prints the table)")
    net_odme.add_argument("--output", default=None,
                          help="write the JSON artifact to this path")
    net_odme.add_argument("--trace", default=None, metavar="PATH",
                          help="write a span trace (JSONL) of the loop to this path")

    fwd_parser = subparsers.add_parser(
        "forwarding", help="ECMP-realizable forwarding tables and congestion gaps"
    )
    fwd_sub = fwd_parser.add_subparsers(dest="forwarding_command", required=True)

    def _forwarding_common(sub):
        sub.add_argument("--topology", default="zoo(abilene)",
                         help="synthetic (hypercube:K, isp(pops=P), ...) or catalog "
                              "name (default zoo(abilene))")
        sub.add_argument("--scheme", default="oblivious(ksp, k=4)",
                         help="scheme whose routing is realized "
                              "(default 'oblivious(ksp, k=4)')")
        sub.add_argument("--seed", type=int, default=0)
        sub.add_argument("--json", action="store_true",
                         help="print the artifact (bit-identical per seed)")
        sub.add_argument("--output", default=None,
                         help="write the JSON artifact to this path")
        sub.add_argument("--trace", default=None, metavar="PATH",
                         help="write a span trace (JSONL) to this path")

    fwd_quantize = fwd_sub.add_parser(
        "quantize", help="emit the ECMP forwarding table for a scheme's routing"
    )
    fwd_quantize.add_argument("--buckets", type=int, default=8,
                              help="split-ratio granularity 1/k (default 8)")
    fwd_quantize.add_argument("--on-cycle", choices=("decompose", "error"),
                              default="decompose", dest="on_cycle",
                              help="cyclic/non-confluent pairs: fall back to "
                                   "per-path quantization or raise (default decompose)")
    _forwarding_common(fwd_quantize)
    fwd_realize = fwd_sub.add_parser(
        "realize", help="hash discrete flows onto the table and report realized congestion"
    )
    fwd_realize.add_argument("--buckets", type=int, default=8,
                             help="split-ratio granularity 1/k (default 8)")
    fwd_realize.add_argument("--flows", type=int, default=64,
                             help="discrete flows hashed per pair (default 64)")
    _forwarding_common(fwd_realize)
    fwd_gap = fwd_sub.add_parser(
        "gap", help="fractional-vs-ECMP congestion gap across bucket granularities"
    )
    fwd_gap.add_argument("--buckets", type=int, action="append", default=[],
                         dest="buckets_list",
                         help="bucket count, repeatable (default: 2 4 8 16)")
    fwd_gap.add_argument("--flows", type=int, default=64,
                         help="discrete flows hashed per pair (default 64)")
    _forwarding_common(fwd_gap)

    trace_parser = subparsers.add_parser(
        "trace", help="summarize or export span traces written by --trace"
    )
    trace_sub = trace_parser.add_subparsers(dest="trace_command", required=True)
    trace_summarize = trace_sub.add_parser(
        "summarize", help="print the hot-span table for a trace file"
    )
    trace_summarize.add_argument("path", help="trace file written by --trace")
    trace_summarize.add_argument("--limit", type=int, default=30,
                                 help="max span names to print (default 30)")
    trace_export = trace_sub.add_parser(
        "export", help="convert a trace to another format"
    )
    trace_export.add_argument("path", help="trace file written by --trace")
    trace_export.add_argument("--chrome", action="store_true", required=True,
                              help="emit the Chrome trace-event format (the only format)")
    trace_export.add_argument("--output", default=None,
                              help="output path (default: <trace>.chrome.json)")

    bench_parser = subparsers.add_parser(
        "bench", help="run benchmark targets and write BENCH_<name>.json artifacts"
    )
    bench_parser.add_argument("names", nargs="*",
                              help="bench targets (default: all); 'list' enumerates them, "
                                   "'check PATH...' runs every target's gate on artifacts")
    bench_parser.add_argument("--scale", choices=("smoke", "small", "full"), default="small")
    bench_parser.add_argument("--seed", type=int, default=0)
    bench_parser.add_argument("--output-dir", default=".",
                              help="directory for BENCH_<name>.json artifacts (default: .)")
    bench_parser.add_argument("--json", action="store_true",
                              help="print the artifact payloads as JSON")

    quick_parser = subparsers.add_parser("quickstart", help="tiny end-to-end pipeline check")
    quick_parser.add_argument("--dimension", type=int, default=3)
    quick_parser.add_argument("--alpha", type=int, default=3)

    args = parser.parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    if args.command == "schemes":
        return _cmd_schemes()
    if args.command == "experiments":
        return _cmd_experiments(args.ids, args.scale, args.seed, as_json=args.json)
    if args.command == "te":
        return _cmd_te(args.topology, args.schemes, args.snapshots, args.seed,
                       as_json=args.json, trace=args.trace)
    if args.command == "scenarios":
        if args.scenario_command == "list":
            return _cmd_scenarios_list()
        if args.scenario_command == "describe":
            return _cmd_scenarios_describe(args.suite)
        if args.scenario_command == "run":
            return _cmd_scenarios_run(
                args.suite, args.workers, args.seed, args.snapshots, args.json, args.output,
                executor=args.executor,
                artifact_dir=args.artifact_dir, resume=args.resume, trace=args.trace,
            )
        return 2
    if args.command == "stream":
        if args.stream_command == "list":
            return _cmd_stream_list()
        if args.stream_command == "describe":
            return _cmd_stream_describe(args.name)
        if args.stream_command == "run":
            return _cmd_stream_run(
                args.topology, args.stream_kind, args.steps, args.policies, args.scheme,
                args.seed, args.window, args.threshold, args.optimal,
                args.json, args.no_steps, args.output, trace=args.trace,
                churn_buckets=args.churn_buckets,
            )
        return 2
    if args.command == "forwarding":
        if args.forwarding_command == "quantize":
            return _cmd_forwarding_quantize(
                args.topology, args.scheme, args.buckets, args.on_cycle, args.seed,
                as_json=args.json, output=args.output, trace=args.trace,
            )
        if args.forwarding_command == "realize":
            return _cmd_forwarding_realize(
                args.topology, args.scheme, args.buckets, args.flows,
                args.seed, as_json=args.json, output=args.output, trace=args.trace,
            )
        if args.forwarding_command == "gap":
            return _cmd_forwarding_gap(
                args.topology, args.scheme, args.buckets_list, args.flows,
                args.seed, as_json=args.json, output=args.output, trace=args.trace,
            )
        return 2
    if args.command == "net":
        if args.net_command == "list":
            return _cmd_net_list(as_json=args.json)
        if args.net_command == "describe":
            return _cmd_net_describe(args.name, as_json=args.json)
        if args.net_command == "convert":
            return _cmd_net_convert(args.source, as_json=args.json, output=args.output)
        if args.net_command == "fit":
            return _cmd_net_fit(
                args.source, args.model, args.snapshots, args.seed, args.total,
                as_json=args.json, output=args.output, trace=args.trace,
            )
        if args.net_command == "odme":
            return _cmd_net_odme(
                args.source, args.scheme, args.snapshots, args.seed, args.noise,
                args.coverage, args.granularity, args.method, args.total,
                as_json=args.json, output=args.output, trace=args.trace,
            )
        return 2
    if args.command == "trace":
        if args.trace_command == "summarize":
            return _cmd_trace_summarize(args.path, args.limit)
        if args.trace_command == "export":
            return _cmd_trace_export(args.path, args.output)
        return 2
    if args.command == "bench":
        if args.names == ["list"]:
            return _cmd_bench_list()
        if args.names[:1] == ["check"]:
            return _cmd_bench_check(args.names[1:])
        return _cmd_bench(args.names, args.scale, args.seed, args.output_dir, as_json=args.json)
    if args.command == "quickstart":
        return _cmd_quickstart(args.dimension, args.alpha)
    return 2


if __name__ == "__main__":
    sys.exit(main())
