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
import itertools
import json
import math
import os
import statistics
import sys
from dataclasses import dataclass, field, replace

from .qos import PenaltyCoeffs, QosRequest
from .routing import ALGORITHMS, HybridConfig, RunResult, run
from .simulation import SimResult, TrafficSpec, simulate_path
from .topology import (MeshTopology, TopologyError, TopologyParams,
                       generate_topology, is_finite)

DEFAULT_SIZES = [25, 50, 75, 100, 125]


@dataclass
class ExperimentPlan:
    """Benchmark sweep description.

    Each size gets ``seeds_per_cell`` instances (topology seeds base_seed,
    base_seed + 1, ...), and every listed algorithm solves each instance;
    the output tables group rows into one cell per (size, algorithm).
    Construction builds everything ``run_cell`` builds from the plan, so a
    bad plan fails here rather than after its first instance.
    """
    node_sizes: list[int] = field(default_factory=lambda: list(DEFAULT_SIZES))
    algorithms: list[str] = field(default_factory=lambda: list(ALGORITHMS))
    seeds_per_cell: int = 30
    base_seed: int = 0
    bw_req: float = 5.0
    d_req: float = 10.0
    j_req: float = 2.5
    beta: float = 0.0
    swarm_size: int = 30
    max_iterations: int = 100
    packet_count: int = 10_000

    def __post_init__(self):
        counts = [*self.node_sizes, self.seeds_per_cell, self.base_seed,
                  self.swarm_size, self.max_iterations, self.packet_count]
        if not all(type(c) is int for c in counts):  # no bools, no floats
            raise ValueError("plan sizes, seeds and counts must be integers")
        if (not self.node_sizes or not self.algorithms
                or self.seeds_per_cell < 1 or self.base_seed < 0):
            raise ValueError(
                "plan needs sizes, algorithms, seeds >= 1 and base_seed >= 0")
        bad = set(self.algorithms) - set(ALGORITHMS)
        if bad:
            raise ValueError(f"unknown algorithms: {sorted(bad)}")
        if (len(set(self.node_sizes)) < len(self.node_sizes)
                or len(set(self.algorithms)) < len(self.algorithms)):
            raise ValueError("plan sizes and algorithms must not repeat")
        for size in self.node_sizes:
            TopologyParams(node_count=size)
        self.request()
        self.solver_config(0)
        self.traffic(0)

    def request(self) -> QosRequest:
        return QosRequest(self.bw_req, self.d_req, self.j_req, self.beta)

    def solver_config(self, index: int) -> HybridConfig:
        """The solver settings of instance ``index``, for every algorithm."""
        return HybridConfig(
            swarm_size=self.swarm_size, max_iterations=self.max_iterations,
            rng_seed=self.base_seed + 100_000 + index)

    def traffic(self, index: int) -> TrafficSpec:
        return TrafficSpec(self.packet_count, self.base_seed + 200_000 + index)

    @classmethod
    def from_file(cls, path: str) -> "ExperimentPlan":
        """Load a JSON object of plan fields; anything else is a ValueError."""
        with open(path) as fh:
            data = json.load(fh)
        try:
            return cls(**data)
        except TypeError as exc:
            raise ValueError(f"bad plan file {path}: {exc}") from exc


def default_source(topo: MeshTopology, percentile: float = 0.25) -> int:
    """Pick a benchmark source node by distance rank.

    Non-gateway nodes are ranked by shortest-path cost to their nearest
    gateway and the node at the given percentile is returned, so the
    difficulty of the routing problem scales with network size instead of
    depending on which node happened to be labelled first.
    """
    if not is_finite(percentile):  # no bools, strings or None
        raise ValueError("percentile must be a finite number")
    if not 0.0 <= percentile < 1.0:
        raise ValueError("percentile outside [0, 1)")
    cost = topo.gateway_costs()
    # A stable sort of ascending ids: equal costs rank by id.
    ranked = sorted([n for n in range(topo.node_count)
                     if n not in topo.gateways and cost[n] != math.inf],
                    key=cost.__getitem__)
    if not ranked:
        raise TopologyError("no node other than a gateway reaches a gateway")
    return ranked[int(len(ranked) * percentile)]


def run_cell(size: int, index: int, plan: ExperimentPlan,
             ) -> list[tuple[list, RunResult, SimResult]]:
    """Every algorithm of the plan on one sweep instance: a
    ([size, algorithm, topology seed], result, simulation) triple each.

    The (size, base_seed + index) topology is generated and its source
    chosen once; each algorithm then solves it with the same solver and
    traffic seeds, so the algorithms' rows are directly comparable and any
    row can be replayed from its recorded seed.
    """
    topo_seed = plan.base_seed + index
    req = plan.request()
    config = plan.solver_config(index)
    traffic = plan.traffic(index)
    topo = generate_topology(TopologyParams(node_count=size,
                                            rng_seed=topo_seed))
    source = default_source(topo)
    coeffs = PenaltyCoeffs.for_request(req, topo)
    runs = []
    for algorithm in plan.algorithms:
        result = run(topo, source, req, coeffs,
                     replace(config, algorithm=algorithm))
        sim = simulate_path(topo, result.best_path, traffic)
        runs.append(([size, algorithm, topo_seed], result, sim))
    return runs


def _atomic_write_csv(path: str, header: list[str], rows: list[list]) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    os.replace(tmp, path)


def write_bench_outputs(runs: list[tuple[list, RunResult, SimResult]],
                        out_dir: str) -> None:
    """Write the bench tables from ``run_cell`` triples in seed order, one
    cell per (size, algorithm).  csv writes floats as repr does, so every
    value reads back bit-exactly."""
    os.makedirs(out_dir, exist_ok=True)

    def cell(triple):
        return triple[0][:2]

    runs = sorted(runs, key=cell)
    _atomic_write_csv(os.path.join(out_dir, "fitness_trace.csv"),
                      ["size", "algorithm", "seed", "iteration", "best_total"],
                      [key + [it, total] for key, result, _ in runs
                       for it, total in enumerate(result.fitness_trace,
                                                  start=1)])
    _atomic_write_csv(os.path.join(out_dir, "convergence_time.csv"),
                      ["size", "algorithm", "seed", "iterations_executed",
                       "iterations_to_best", "time_to_best_ms",
                       "wall_time_ms", "best_total"],
                      [key + [result.iterations_executed,
                              result.iterations_to_best,
                              result.time_to_best_ms, result.wall_time_ms,
                              result.best_fitness.total]
                       for key, result, _ in runs])
    _atomic_write_csv(os.path.join(out_dir, "pdr.csv"),
                      ["size", "algorithm", "seed", "pdr", "delivered",
                       "packets"],
                      [key + [sim.pdr, sim.delivered_count, sim.packet_count]
                       for key, _, sim in runs])
    _atomic_write_csv(os.path.join(out_dir, "delay.csv"),
                      ["size", "algorithm", "seed", "avg_delay_ms"],
                      [key + [sim.avg_delay] for key, _, sim in runs])

    summary = []
    for (size, algorithm), triples in itertools.groupby(runs, key=cell):
        _, results, sims = zip(*triples)
        summary.append([
            size, algorithm,
            statistics.median(r.best_fitness.total for r in results),
            statistics.median(r.iterations_to_best for r in results),
            statistics.median(r.time_to_best_ms for r in results),
            statistics.mean(s.pdr for s in sims),
            statistics.mean(s.avg_delay for s in sims)])
    _atomic_write_csv(os.path.join(out_dir, "summary.csv"),
                      ["size", "algorithm", "median_best_total",
                       "median_iterations_to_best", "median_time_to_best_ms",
                       "mean_pdr", "mean_avg_delay_ms"],
                      summary)


def run_bench(plan: ExperimentPlan, out_dir: str, workers: int = 1) -> None:
    if workers < 1:
        raise ValueError("workers must be >= 1")
    sizes, indices = zip(*[(size, i) for size in plan.node_sizes
                           for i in range(plan.seeds_per_cell)])
    plans = [plan] * len(sizes)
    if workers > 1:
        # Imported here: it loads multiprocessing, which a serial run and
        # every other subcommand never use.
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            instances = list(pool.map(run_cell, sizes, indices, plans))
    else:
        instances = list(map(run_cell, sizes, indices, plans))
    write_bench_outputs(list(itertools.chain.from_iterable(instances)),
                        out_dir)


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
    coeffs = PenaltyCoeffs.for_request(req, topo)
    config = HybridConfig(rng_seed=args.seed, algorithm=args.algorithm)
    result = run(topo, source, req, coeffs, config)

    if args.json:
        print(json.dumps(result.to_dict(), indent=2))
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
    try:
        plan = (ExperimentPlan.from_file(args.config) if args.config
                else ExperimentPlan())
    except OSError as exc:
        print(f"error: cannot load {args.config}: {exc}", file=sys.stderr)
        return 1
    overrides = {}
    if args.sizes:
        overrides["node_sizes"] = args.sizes
    if args.algorithms:
        overrides["algorithms"] = args.algorithms
    if args.seeds is not None:
        overrides["seeds_per_cell"] = args.seeds
    if args.seed is not None:
        overrides["base_seed"] = args.seed
    run_bench(replace(plan, **overrides), args.out_dir, workers=args.workers)
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
    route.add_argument("--algorithm", choices=ALGORITHMS,
                       default="hybrid")
    route.add_argument("--seed", type=int, default=0)
    route.add_argument("--json", action="store_true")
    route.set_defaults(func=cmd_route)

    bench = sub.add_parser("bench", help="run the benchmark sweeps")
    bench.add_argument("--config", help="JSON experiment plan")
    bench.add_argument("--sizes", type=int, nargs="+")
    bench.add_argument("--algorithms", nargs="+", choices=ALGORITHMS)
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
