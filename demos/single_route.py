"""Solve one routing problem three ways and watch the incumbents evolve.

Generates a seeded 125-node mesh, deliberately picks a source far from every
gateway (95th percentile of distance to the nearest one), and runs the
pure-PSO, pure-GA and hybrid solvers on the same instance with the same
seed.  On hard instances like this the pure-PSO swarm tends to lock onto an
early incumbent and stall, while the crossover half of the hybrid keeps
injecting route fragments the merge operator alone would never produce.

Run:  python3 demos/single_route.py
"""

from meshroute import (
    HybridConfig,
    PenaltyCoeffs,
    QosRequest,
    TopologyParams,
    generate_topology,
    run,
)
from meshroute.cli import default_source


def main() -> None:
    topo = generate_topology(TopologyParams(node_count=125, rng_seed=5))
    source = default_source(topo, percentile=0.95)
    req = QosRequest(bw_req=5.0, d_req=10.0, j_req=2.5, beta=0.0)
    coeffs = PenaltyCoeffs.for_request(req, topo)

    print(f"125-node mesh, gateways {sorted(topo.gateways)}, source {source}")
    print(f"request: bw >= {req.bw_req}, delay <= {req.d_req}, "
          f"jitter <= {req.j_req}\n")

    for algorithm in ("pso", "ga", "hybrid"):
        result = run(topo, source, req, coeffs,
                     HybridConfig(rng_seed=5, algorithm=algorithm))
        fb = result.best_fitness
        print(f"{algorithm:>6}: best total {fb.total:9.4f} "
              f"(feasible={fb.feasible}) in {result.iterations_executed} "
              f"iterations, best found at iteration "
              f"{result.iterations_to_best}")
        print(f"        route {'-'.join(map(str, result.best_path))}")
        shown = result.fitness_trace[:8]
        tail = " ..." if len(result.fitness_trace) > 8 else ""
        print(f"        trace {[round(v, 2) for v in shown]}{tail}\n")


if __name__ == "__main__":
    main()
