"""``repro net``: real-network ingestion and closed-loop demand estimation.

List and inspect the bundled topology catalog (Topology Zoo GraphML,
SNDlib native/XML), convert any catalog entry or file into the canonical
JSON network form, fit demand models (gravity, max-entropy) from the
dataset's marginals, and estimate demand from observed link loads::

    python -m repro net list
    python -m repro net describe "sndlib(geant)"
    python -m repro net convert "zoo(abilene)" --output abilene.json
    python -m repro net fit "sndlib(polska)" --model max-entropy --json
    python -m repro net odme "zoo(abilene)" --noise 0.05 --coverage 0.75 --json

Seeded ``convert``/``fit`` artifacts are bit-identical across runs.
Catalog names also work wherever a topology is expected:
``repro te --topology "zoo(abilene)"``.
"""

from __future__ import annotations

import sys

from repro.cli import _emit_net_artifact, _tracing
from repro.utils.serialization import dumps as json_dumps

_NET_SCHEMA = "repro-net/v1"


def _cmd_list(args) -> int:
    from repro.net import catalog_entries

    entries = catalog_entries()
    if args.json:
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


def _cmd_describe(args) -> int:
    from repro.exceptions import NetError
    from repro.net import load_catalog_instance

    try:
        entry, instance = load_catalog_instance(args.name)
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
    if args.json:
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


def _cmd_convert(args) -> int:
    from repro.exceptions import NetError
    from repro.net import load_network

    try:
        network = load_network(args.source)
    except NetError as error:
        print(error, file=sys.stderr)
        return 2
    _emit_net_artifact(
        json_dumps(_network_artifact(args.source, network)), args.output, args.json, "network"
    )
    return 0


def _resolved_total(args, demands) -> float:
    """``--total``, else the bundled demand total, else 10."""
    if args.total is not None:
        return args.total
    return sum(demands.values()) if demands else 10.0


def _cmd_fit(args) -> int:
    from repro.exceptions import NetError
    from repro.net import fitted_gravity_series, load_instance, max_entropy_series

    try:
        with _tracing(args.trace, "cli.net.fit"):
            # Catalog names and file paths resolve identically: SNDlib
            # sources keep their bundled demand matrix either way.
            instance = load_instance(args.source)
            network, demands = instance.network, instance.demands
            total = _resolved_total(args, demands)
            if args.model == "gravity":
                # Catalog entries with a bundled demand matrix are fitted to
                # its per-node marginals; otherwise capacity weights apply.
                series = fitted_gravity_series(
                    network, args.snapshots, total=total, rng=args.seed,
                    demands=demands or None,
                )
            else:
                series = max_entropy_series(
                    network, args.snapshots, total=total, rng=args.seed
                )
    except NetError as error:
        print(error, file=sys.stderr)
        return 2
    payload = {
        "artifact": "fitted-demands",
        "schema": _NET_SCHEMA,
        "source": args.source,
        "network": network.name,
        "model": args.model,
        "seed": args.seed,
        "num_snapshots": args.snapshots,
        "total": total,
        "fitted_from": (
            "bundled-demand-marginals" if (demands and args.model == "gravity")
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
    _emit_net_artifact(json_dumps(payload), args.output, args.json, "fitted-demand")
    return 0


def _cmd_odme(args) -> int:
    from repro.engine import RoutingEngine
    from repro.exceptions import ReproError
    from repro.net import fitted_gravity_series, load_instance

    try:
        with _tracing(args.trace, "cli.net.odme"):
            instance = load_instance(args.source)
            network, demands = instance.network, instance.demands
            total = _resolved_total(args, demands)
            series = fitted_gravity_series(
                network, args.snapshots, total=total, rng=args.seed, demands=demands or None
            )
            engine = RoutingEngine(network, [args.scheme], rng=args.seed)
            result = engine.run_odme(
                series,
                noise=args.noise,
                coverage=args.coverage,
                granularity=args.granularity,
                method=args.method,
                seed=args.seed,
            )
    except ReproError as error:
        print(error, file=sys.stderr)
        return 2
    if args.json or args.output:
        payload = {
            "artifact": "odme",
            "schema": _NET_SCHEMA,
            "source": args.source,
            "total": total,
            **result.to_dict(),
        }
        _emit_net_artifact(json_dumps(payload), args.output, args.json, "odme")
    else:
        print(result.render())
    return 0


def register(subparsers) -> None:
    net_parser = subparsers.add_parser(
        "net", help="real-network ingestion: topology catalog, conversion, demand fitting"
    )
    net_sub = net_parser.add_subparsers(dest="net_command", required=True)
    net_list = net_sub.add_parser("list", help="list the bundled real-topology catalog")
    net_list.add_argument("--json", action="store_true",
                          help="print catalog metadata as JSON")
    net_list.set_defaults(handler=_cmd_list)
    net_describe = net_sub.add_parser("describe", help="describe one catalog topology")
    net_describe.add_argument("name", help="catalog name, e.g. 'zoo(abilene)' or 'geant'")
    net_describe.add_argument("--json", action="store_true",
                              help="print metadata and parsed stats as JSON")
    net_describe.set_defaults(handler=_cmd_describe)
    net_convert = net_sub.add_parser(
        "convert", help="parse a topology into the canonical JSON network form"
    )
    net_convert.add_argument("source",
                             help="catalog name or path to a GraphML/SNDlib file")
    net_convert.add_argument("--json", action="store_true",
                             help="print the artifact (default when no --output)")
    net_convert.add_argument("--output", default=None,
                             help="write the JSON artifact to this path")
    net_convert.set_defaults(handler=_cmd_convert)
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
    net_fit.set_defaults(handler=_cmd_fit)
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
    net_odme.set_defaults(handler=_cmd_odme)
