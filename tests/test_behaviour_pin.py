"""Behaviour pins: values recorded with the networkx-backed topology layer
and, for the bench tables, the per-algorithm sweep.

For a fixed seed the program's outputs must not move: generated meshes,
benchmark source selection, every solver trajectory, which of several
equal-cost shortest paths a query returns, and the tables `meshroute bench`
writes (wall times aside).  A change that moves any of them
must say so, re-run the acceptance gate and record the new values here.
"""

import csv
import hashlib
import json
import math

import numpy as np
import pytest

from meshroute.topology import MeshTopology, TopologyParams, generate_topology
from meshroute.qos import PenaltyCoeffs, QosRequest
from meshroute.routing import HybridConfig, run
from meshroute.continuous import ContinuousConfig, run_continuous
from meshroute.cli import ExperimentPlan, default_source, run_bench

from conftest import make_topo, without_wall_times
from oracle import oracle_best

SIZES = (25, 50, 125)
SEEDS = (0, 1, 2)
PERCENTILES = (0.05, 0.25, 0.95)
ALGS = ("pso", "ga", "hybrid")
REQ = QosRequest(bw_req=5.0, d_req=10.0, j_req=2.5, beta=0.0)

# sha256 of behaviour_digest_items(), recorded on the networkx-backed code.
BEHAVIOUR_SHA256 = (
    "e2776d074f1d5ce95b981e465dde0eb251fd5d777d5f95f8a0fcbfc3fafbae8a")


def behaviour_digest_items():
    """Yield the pinned outputs as JSON strings, in a fixed order."""
    for size in SIZES:
        for seed in SEEDS:
            topo = generate_topology(TopologyParams(node_count=size,
                                                    rng_seed=seed))
            yield topo.to_json()
            sources = [default_source(topo, p) for p in PERCENTILES]
            yield json.dumps(sources)
            coeffs = PenaltyCoeffs.for_request(REQ, topo)
            for alg in ALGS:
                result = run(topo, sources[1], REQ, coeffs,
                             HybridConfig(rng_seed=seed, algorithm=alg))
                yield json.dumps(without_wall_times(result.to_dict()),
                                 sort_keys=True)


def test_behaviour_hash_unchanged():
    digest = hashlib.sha256()
    for item in behaviour_digest_items():
        digest.update(item.encode())
    assert digest.hexdigest() == BEHAVIOUR_SHA256


# A grid, stated as a rule, where the solvers search: far sources (the
# 0.75 and 0.95 distance percentiles) on 50- to 200-node meshes, with the
# interference term live (beta 0.6).  32 of its 54 runs improve after
# iteration 1, where 3 of the 27 under BEHAVIOUR_SHA256 do.
SEARCH_SIZES = (50, 125, 200)
SEARCH_PERCENTILES = (0.75, 0.95)
SEARCH_REQ = QosRequest(bw_req=5.0, d_req=10.0, j_req=2.5, beta=0.6)

# sha256 of search_digest_items().
SEARCH_SHA256 = (
    "f5ad0ac1cf92cc7b1fe027e9188b0540c5057456301b543d2d7932e94c3afa3f")


def search_digest_items():
    """Yield every run of the search grid as a JSON string, in a fixed
    order: size, mesh seed, percentile, algorithm."""
    for size in SEARCH_SIZES:
        for seed in SEEDS:
            topo = generate_topology(TopologyParams(node_count=size,
                                                    rng_seed=seed))
            coeffs = PenaltyCoeffs.for_request(SEARCH_REQ, topo)
            for percentile in SEARCH_PERCENTILES:
                source = default_source(topo, percentile)
                for alg in ALGS:
                    result = run(topo, source, SEARCH_REQ, coeffs,
                                 HybridConfig(rng_seed=seed, algorithm=alg))
                    yield json.dumps(without_wall_times(result.to_dict()),
                                     sort_keys=True)


def test_search_grid_hash_unchanged():
    digest = hashlib.sha256()
    for item in search_digest_items():
        digest.update(item.encode())
    assert digest.hexdigest() == SEARCH_SHA256


def tie_mesh(gateways=frozenset({8})):
    """3x3 grid, every link at conftest's default cost 2.0, links inserted
    out of order, so most node pairs have several shortest paths.

        0 - 1 - 2
        |   |   |
        3 - 4 - 5
        |   |   |
        6 - 7 - 8
    """
    order = [(4, 5), (0, 3), (7, 8), (1, 4), (3, 4), (0, 1), (2, 5),
             (4, 7), (5, 8), (1, 2), (6, 7), (3, 6)]
    return make_topo(9, {edge: {} for edge in order}, gateways=gateways)


def all_shortest_paths(topo):
    """Row s lists shortest_path(s, t) for t = 0..8, nodes as digits."""
    return {s: " ".join("".join(map(str, topo.shortest_path(s, t)))
                        for t in range(topo.node_count))
            for s in range(topo.node_count)}


# Paths networkx's single_source_dijkstra returned on tie_mesh().
TIE_PATHS = {
    0: "0 01 012 03 034 0345 036 0347 03458",
    1: "10 1 12 143 14 145 1436 147 1458",
    2: "210 21 2 2543 254 25 25436 2547 258",
    3: "30 301 3012 3 34 345 36 347 3458",
    4: "410 41 452 43 4 45 436 47 458",
    5: "5410 541 52 543 54 5 5436 547 58",
    6: "630 6741 67852 63 674 6785 6 67 678",
    7: "7410 741 7852 743 74 785 76 7 78",
    8: "87410 8741 852 8743 874 85 876 87 8",
}
# The same after a to_json/from_json round trip, which stores the links
# sorted, so ties break differently (25 of the 81 pairs differ).
TIE_PATHS_ROUND_TRIP = {
    0: "0 01 012 03 014 0125 036 0147 01258",
    1: "10 1 12 103 14 125 1036 147 1258",
    2: "210 21 2 2103 214 25 21036 2147 258",
    3: "30 301 3012 3 34 345 36 347 3458",
    4: "410 41 412 43 4 45 436 47 458",
    5: "5210 521 52 543 54 5 5436 547 58",
    6: "630 6301 63012 63 634 6345 6 67 678",
    7: "7410 741 7412 743 74 745 76 7 78",
    8: "85210 8521 852 8543 854 85 876 87 8",
}


def test_equal_cost_ties_match_recorded_paths():
    assert all_shortest_paths(tie_mesh()) == TIE_PATHS


def test_equal_cost_ties_after_round_trip():
    topo = MeshTopology.from_json(tie_mesh().to_json())
    assert all_shortest_paths(topo) == TIE_PATHS_ROUND_TRIP


# gateway_path(n) for n = 0..8 on tie_mesh() with gateways 2 and 6.  Nodes
# 0, 4 and 8 are as near to one as to the other.
TIE_GATEWAY_PATHS = "012 12 2 36 452 52 6 76 852"
# The same with gateways 2 and 8, a set that iterates 8 first.  Nodes 3, 4
# and 5 are as near to one as to the other.
TIE_GATEWAY_PATHS_2_8 = "012 12 2 3452 452 52 678 78 8"


def test_equal_cost_gateway_paths_follow_the_gateway_tree():
    # One gateway: the tree is that gateway's own Dijkstra, walked back.
    topo = tie_mesh()
    assert [topo.gateway_path(n) for n in range(9)] == [
        topo.shortest_path(8, n)[::-1] for n in range(9)]
    for gateways, paths in (({2, 6}, TIE_GATEWAY_PATHS),
                            ({2, 8}, TIE_GATEWAY_PATHS_2_8)):
        two = tie_mesh(gateways=gateways)
        assert " ".join("".join(map(str, two.gateway_path(n)))
                        for n in range(9)) == paths


@pytest.mark.parametrize("alg", ALGS)
def test_solver_breaks_exact_fitness_ties_like_the_oracle(alg):
    # Routes 3-4-5-8 and 3-4-7-8 both cost 6.0; the incumbent is the head
    # of the swarm ranked by (F, route), as oracle_best ranks.  Reaching
    # the lower route at equal F is no improvement.
    topo = tie_mesh()
    coeffs = PenaltyCoeffs.for_request(REQ, topo)
    oracle_path, oracle_fit = oracle_best(topo, 3, REQ, coeffs)
    result = run(topo, 3, REQ, coeffs, HybridConfig(rng_seed=11, algorithm=alg))
    assert oracle_path == result.best_path == [3, 4, 5, 8]
    assert oracle_fit.total == result.best_fitness.total == 6.0
    assert result.iterations_to_best == 1


# A small sweep, written by `run_bench` serially and with two workers.
BENCH_PLAN = dict(node_sizes=[12, 25], seeds_per_cell=2, max_iterations=20,
                  packet_count=500)

# sha256 of bench_digest(), recorded on the sweep that ran one cell per
# (size, algorithm) and regenerated each instance for every algorithm.
BENCH_SHA256 = (
    "7ce2e6202c55505d1ed38035039ce5011217e95bd76fecbe979e2e9761e57806")

# sha256 of the summary.csv part of bench_digest(), recorded before
# write_bench_outputs computed the summary from numbers instead of from the
# table strings.
SUMMARY_SHA256 = (
    "425d6907cb7398c68dbedb806dbfcd2aae842f8811c6ea3b67d8ac5629c75654")


def _update_without_wall_times(digest, path) -> None:
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            digest.update(json.dumps(without_wall_times(row),
                                     sort_keys=True).encode())


def bench_digest(out_dir) -> tuple[str, str]:
    """sha256 of the four per-run tables, and of summary.csv."""
    digest = hashlib.sha256()
    for name in ("fitness_trace.csv", "pdr.csv", "delay.csv"):
        digest.update((out_dir / name).read_bytes())
    _update_without_wall_times(digest, out_dir / "convergence_time.csv")
    summary = hashlib.sha256()
    _update_without_wall_times(summary, out_dir / "summary.csv")
    return digest.hexdigest(), summary.hexdigest()


@pytest.mark.parametrize("workers", [1, 2])
def test_bench_outputs_unchanged(tmp_path, workers):
    run_bench(ExperimentPlan(**BENCH_PLAN), str(tmp_path), workers=workers)
    assert bench_digest(tmp_path) == (BENCH_SHA256, SUMMARY_SHA256)


# A sweep whose routes are long enough to search: every best route has 3 to
# 6 hops, and at 400 nodes the algorithms settle on different routes.  With
# three seeds a cell's mean and median differ.
MULTIHOP_BENCH_PLAN = dict(node_sizes=[200, 400], seeds_per_cell=3,
                           max_iterations=20, packet_count=500)

# bench_digest() of MULTIHOP_BENCH_PLAN, recorded before mutate stopped
# re-checking its detour.
MULTIHOP_BENCH_SHA256 = (
    "dcb05d39f936eca3ada3b2cc9c7fec7340f88c2b4f7cb06474e2f0f6381da1fb")
MULTIHOP_SUMMARY_SHA256 = (
    "1fc5a2e8ae5d5a858b9ded5f25e5e2ca4f38d3a946825d2c93b21b5661240878")


def test_multihop_bench_outputs_unchanged(tmp_path):
    run_bench(ExperimentPlan(**MULTIHOP_BENCH_PLAN), str(tmp_path))
    assert bench_digest(tmp_path) == (MULTIHOP_BENCH_SHA256,
                                      MULTIHOP_SUMMARY_SHA256)


def _sphere(x):
    return float((x ** 2).sum())


def _rastrigin(x):
    return float(10 * len(x) + (x ** 2 - 10 * np.cos(2 * math.pi * x)).sum())


# The runs tests/test_continuous.py checks: (objective, bounds, swarm_size,
# iterations, rng_seed).
CONTINUOUS_RUNS = (
    (_sphere, [(-5.0, 5.0)], 20, 200, 0),
    (_sphere, [(-5.0, 5.0)] * 2, 15, 50, 3),
    (_rastrigin, [(-5.12, 5.12)] * 2, 30, 300, 5),
)

# sha256 of each run's best position bytes, repr(value) and repr(trace),
# recorded while the continuous swarm's fixed settings were still fields of
# ContinuousConfig.
CONTINUOUS_SHA256 = (
    "725e4df27ce3e4eaf47f3ad9ec2e23590d8f1e4fcd94cf9f7a9f678e64fe87f5")


def test_continuous_trajectories_unchanged():
    digest = hashlib.sha256()
    for objective, bounds, swarm_size, iterations, seed in CONTINUOUS_RUNS:
        x, value, trace = run_continuous(objective, ContinuousConfig(
            bounds=bounds, swarm_size=swarm_size, iterations=iterations,
            rng_seed=seed))
        digest.update(x.tobytes())
        digest.update(repr(value).encode())
        digest.update(repr(trace).encode())
    assert digest.hexdigest() == CONTINUOUS_SHA256
