"""Command-line front end: topology generation, single solves, benchmarks.

Subcommands:
  gen    write a seeded random mesh topology as JSON
  route  solve one source->gateway routing problem and print the result
  bench  sweep sizes x seeds, solving each instance with every algorithm,
         emitting CSV tables

CSV column layouts are documented in docs/formats.md.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import statistics
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, replace

from .qos import PenaltyCoeffs, QosRequest
from .routing import HybridConfig, run
from .simulation import TrafficSpec, simulate_path
from .topology import MeshTopology, TopologyError, TopologyParams, generate_topology

DEFAULT_SIZES = [25, 50, 75, 100, 125]
DEFAULT_ALGORITHMS = ["pso", "ga", "hybrid"]


@dataclass
class ExperimentPlan:
    """Benchmark sweep description.

    Each size gets ``seeds_per_cell`` instances (topology seeds base_seed,
    base_seed + 1, ...), and every listed algorithm solves each instance;
    the output tables group rows into one cell per (size, algorithm).
    """
    node_sizes: list[int] = field(default_factory=lambda: list(DEFAULT_SIZES))
    algorithms: list[str] = field(default_factory=lambda: list(DEFAULT_ALGORITHMS))
    seeds_per_cell: int = 30
    base_seed: int = 0
    bw_req: float = 5.0
    d_req: float = 10.0
    j_req: float = 2.5
    beta: float = 0.0
    penalty_mode: str = "strict"
    swarm_size: int = 30
    max_iterations: int = 100
    c1: float = 1.5
    c2: float = 1.5
    breed_ratio: float = 0.5
    mutation_rate: float = 0.05
    stagnation_window: int = 15
    packet_count: int = 10_000

    def __post_init__(self):
        if not self.node_sizes or not self.algorithms or self.seeds_per_cell < 1:
            raise ValueError("plan needs sizes, algorithms and seeds >= 1")
        bad = set(self.algorithms) - set(DEFAULT_ALGORITHMS)
        if bad:
            raise ValueError(f"unknown algorithms: {sorted(bad)}")

    @classmethod
    def from_file(cls, path: str) -> "ExperimentPlan":
        with open(path) as fh:
            return cls(**json.load(fh))


def default_source(topo: MeshTopology, percentile: float = 0.25) -> int:
    """Pick a benchmark source node by distance rank.

    Non-gateway nodes are ranked by shortest-path cost to their nearest
    gateway and the node at the given percentile is returned, so the
    difficulty of the routing problem scales with network size instead of
    depending on which node happened to be labelled first.
    """
    # One Dijkstra from all gateways at once: links are undirected, so a
    # node's cost from its nearest gateway is its cost to it.
    cost = topo.costs_from(sorted(topo.gateways))
    ranked = sorted((cost[n], n) for n in range(topo.node_count)
                    if n not in topo.gateways)
    if not ranked:
        raise TopologyError("every node is a gateway")
    return ranked[int(len(ranked) * percentile)][1]


def run_cell(size: int, index: int, plan: ExperimentPlan) -> dict:
    """Every algorithm of the plan on one sweep instance, keyed by
    (size, algorithm).

    The (size, base_seed + index) topology is generated and its source
    chosen once; each algorithm then solves it with the same solver and
    traffic seeds, so the algorithms' rows are directly comparable and any
    row can be replayed from its recorded seed.
    """
    topo_seed = plan.base_seed + index
    req = QosRequest(plan.bw_req, plan.d_req, plan.j_req, plan.beta)
    config = HybridConfig(
        swarm_size=plan.swarm_size, max_iterations=plan.max_iterations,
        c1=plan.c1, c2=plan.c2, breed_ratio=plan.breed_ratio,
        mutation_rate=plan.mutation_rate,
        stagnation_window=plan.stagnation_window,
        rng_seed=plan.base_seed + 100_000 + index)
    traffic = TrafficSpec(plan.packet_count, plan.base_seed + 200_000 + index)
    topo = generate_topology(TopologyParams(node_count=size,
                                            rng_seed=topo_seed))
    source = default_source(topo)
    coeffs = PenaltyCoeffs.for_request(req, topo, mode=plan.penalty_mode)
    cells = {}
    for algorithm in plan.algorithms:
        result = run(topo, source, req, coeffs,
                     replace(config, algorithm=algorithm))
        sim = simulate_path(topo, result.best_path, traffic)
        key = [size, algorithm, topo_seed]
        cells[(size, algorithm)] = {
            "trace": [key + [it, repr(total)] for it, total
                      in enumerate(result.fitness_trace, start=1)],
            "time": [key + [result.iterations_executed,
                            result.iterations_to_best,
                            repr(result.time_to_best_ms),
                            repr(result.wall_time_ms),
                            repr(result.best_fitness.total)]],
            "pdr": [key + [repr(sim.pdr), sim.delivered_count,
                           sim.packet_count]],
            "delay": [key + [repr(sim.avg_delay)]],
        }
    return cells


def _atomic_write_csv(path: str, header: list[str], rows: list[list]) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    os.replace(tmp, path)


def write_bench_outputs(cells: dict, out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    trace, time_rows, pdr, delay = [], [], [], []
    for key in sorted(cells):
        rows = cells[key]
        trace += rows["trace"]
        time_rows += rows["time"]
        pdr += rows["pdr"]
        delay += rows["delay"]

    _atomic_write_csv(os.path.join(out_dir, "fitness_trace.csv"),
                      ["size", "algorithm", "seed", "iteration", "best_total"],
                      trace)
    _atomic_write_csv(os.path.join(out_dir, "convergence_time.csv"),
                      ["size", "algorithm", "seed", "iterations_executed",
                       "iterations_to_best", "time_to_best_ms",
                       "wall_time_ms", "best_total"],
                      time_rows)
    _atomic_write_csv(os.path.join(out_dir, "pdr.csv"),
                      ["size", "algorithm", "seed", "pdr", "delivered",
                       "packets"],
                      pdr)
    _atomic_write_csv(os.path.join(out_dir, "delay.csv"),
                      ["size", "algorithm", "seed", "avg_delay_ms"],
                      delay)

    summary = []
    for (size, algorithm) in sorted(cells):
        rows = cells[(size, algorithm)]
        totals = [float(r[7]) for r in rows["time"]]
        it_best = [r[4] for r in rows["time"]]
        t_best = [float(r[5]) for r in rows["time"]]
        pdrs = [float(r[3]) for r in rows["pdr"]]
        delays = [float(r[3]) for r in rows["delay"]]
        summary.append([size, algorithm,
                        repr(statistics.median(totals)),
                        repr(statistics.median(it_best)),
                        repr(statistics.median(t_best)),
                        repr(statistics.mean(pdrs)),
                        repr(statistics.mean(delays))])
    _atomic_write_csv(os.path.join(out_dir, "summary.csv"),
                      ["size", "algorithm", "median_best_total",
                       "median_iterations_to_best", "median_time_to_best_ms",
                       "mean_pdr", "mean_avg_delay_ms"],
                      summary)


def run_bench(plan: ExperimentPlan, out_dir: str, workers: int = 1) -> None:
    sizes, indices = zip(*[(size, i) for size in plan.node_sizes
                           for i in range(plan.seeds_per_cell)])
    plans = [plan] * len(sizes)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            instances = list(pool.map(run_cell, sizes, indices, plans))
    else:
        instances = list(map(run_cell, sizes, indices, plans))
    # Instances arrive in seed order, so each cell's rows do too.
    cells: dict = {}
    for instance in instances:
        for key, rows in instance.items():
            cell = cells.setdefault(key, {table: [] for table in rows})
            for table, table_rows in rows.items():
                cell[table] += table_rows
    write_bench_outputs(cells, out_dir)


# -- subcommand entry points ----------------------------------------------

def cmd_gen(args) -> int:
    params = TopologyParams(
        node_count=args.nodes,
        area=tuple(args.area) if args.area else None,
        transmission_range=args.range,
        gateway_count=args.gateways,
        rng_seed=args.seed)
    topo = generate_topology(params)
    try:
        with open(args.out, "w") as fh:
            fh.write(topo.to_json(indent=2))
            fh.write("\n")
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {args.out}: {topo.node_count} nodes, "
          f"{len(topo.links)} links, {len(topo.gateways)} gateways")
    return 0


def cmd_route(args) -> int:
    try:
        with open(args.topology) as fh:
            topo = MeshTopology.from_json(fh.read())
    except (OSError, json.JSONDecodeError, TopologyError) as exc:
        print(f"error: cannot load {args.topology}: {exc}", file=sys.stderr)
        return 1
    source = args.source if args.source is not None else default_source(topo)
    req = QosRequest(args.bw, args.delay, args.jitter, args.beta)
    coeffs = PenaltyCoeffs.for_request(req, topo, mode=args.penalty_mode)
    config = HybridConfig(rng_seed=args.seed, algorithm=args.algorithm)
    result = run(topo, source, req, coeffs, config)

    if args.json:
        print(result.to_json(indent=2))
        return 0
    print(f"best path: {'-'.join(map(str, result.best_path))}")
    fb = result.best_fitness
    print(f"fitness: total={fb.total:.4f} objective={fb.objective:.4f} "
          f"penalty={fb.penalty:.4f} feasible={fb.feasible}")
    print(f"{'iteration':>9}  {'fitness':>10}  path")
    for it, (path, total) in enumerate(
            zip(result.incumbent_paths, result.fitness_trace), start=1):
        print(f"{it:>9}  {total:>10.4f}  {'-'.join(map(str, path))}")
    return 0


def cmd_bench(args) -> int:
    plan = (ExperimentPlan.from_file(args.config) if args.config
            else ExperimentPlan())
    overrides = {}
    if args.sizes:
        overrides["node_sizes"] = args.sizes
    if args.algorithms:
        overrides["algorithms"] = args.algorithms
    if args.seeds is not None:
        overrides["seeds_per_cell"] = args.seeds
    if args.seed is not None:
        overrides["base_seed"] = args.seed
    if overrides:
        plan = ExperimentPlan(**{**asdict(plan), **overrides})
    run_bench(plan, args.out_dir, workers=args.workers)
    print(f"wrote benchmark tables to {args.out_dir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="meshroute",
        description="QoS-aware mesh routing via hybrid PSO-GA")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a random mesh topology")
    gen.add_argument("--nodes", type=int, required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)
    gen.add_argument("--area", type=float, nargs=2, metavar=("W", "H"))
    gen.add_argument("--range", type=float, default=250.0)
    gen.add_argument("--gateways", type=int, default=3)
    gen.set_defaults(func=cmd_gen)

    route = sub.add_parser("route", help="solve one routing problem")
    route.add_argument("topology")
    route.add_argument("--source", type=int)
    route.add_argument("--bw", type=float, default=5.0)
    route.add_argument("--delay", type=float, default=10.0)
    route.add_argument("--jitter", type=float, default=2.5)
    route.add_argument("--beta", type=float, default=0.0)
    route.add_argument("--penalty-mode", choices=["strict", "fidelity"],
                       default="strict")
    route.add_argument("--algorithm", choices=DEFAULT_ALGORITHMS,
                       default="hybrid")
    route.add_argument("--seed", type=int, default=0)
    route.add_argument("--json", action="store_true")
    route.set_defaults(func=cmd_route)

    bench = sub.add_parser("bench", help="run the benchmark sweeps")
    bench.add_argument("--config", help="JSON experiment plan")
    bench.add_argument("--sizes", type=int, nargs="+")
    bench.add_argument("--algorithms", nargs="+", choices=DEFAULT_ALGORITHMS)
    bench.add_argument("--seeds", type=int)
    bench.add_argument("--seed", type=int)
    bench.add_argument("--out-dir", required=True)
    bench.add_argument("--workers", type=int, default=1)
    bench.set_defaults(func=cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (TopologyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
