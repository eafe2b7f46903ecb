"""End-to-end acceptance gate: nine numbered criteria, one verdict each.

Run with ``pytest tests/test_acceptance.py -v``; every criterion is a single
test whose pass/fail status is the verdict, with the measured numbers printed
on one line.

Shared benchmark protocol (used by criteria 3-5): every instance is solved
by the bench's ``meshroute.cli.run_cell`` on a plan below, ``SWEEP`` for
criteria 4 and 5 and ``CONVERGENCE`` for criterion 3, so ``meshroute bench
--seeds 10`` and ``meshroute bench --sizes 50 --seeds 30`` (each with an
``--out-dir``) replay them.

Criteria 3 and 4 score convergence by attainment: the iteration (or elapsed
time) at which a run's incumbent first reaches the instance's best-known
fitness, defined as the best final value any of the three algorithms found
on that instance; runs that never attain it are censored at their full
iteration count / wall time.  This measures time-to-optimum.  Scoring each
run against its own final value instead would credit an algorithm for
stalling early on a worse route, inverting the quantity of interest.
Iteration 1 (swarm initialisation plus the first evaluation) is the same
work for all three algorithms, since they share the solver seed and so the
initial swarm; criterion 4 measures it once per instance (see
``attainment_times_ms``).

Criterion 5 scores each instance by whether the returned route meets the
request (zero penalty), the goal the abstract sets: a path "with QoS
satisfied".  Simulated delivery ratio and delay are reported per size but
not compared across algorithms: link loss is in no term of F and delay
enters only as a cap, so a lower-F route need not deliver more or sooner.
"""

import gc
import json
import math
import random
import statistics
from dataclasses import replace

import numpy as np
import pytest

from meshroute.topology import TopologyParams, generate_topology
from meshroute.qos import (
    PenaltyCoeffs,
    QosRequest,
    path_metrics,
    penalty,
)
from meshroute.routing import (
    HybridConfig,
    RouteContext,
    combine_paths,
    crossover_children,
    random_walk_path,
    run,
)
from meshroute.simulation import TrafficSpec, simulate_path
from meshroute.continuous import (
    ContinuousConfig,
    RealParticle,
    pso_step,
    run_continuous,
)
from meshroute.cli import (ExperimentPlan, default_source, main, run_bench,
                           run_cell)

from conftest import merge_demo_topo, without_wall_times
from oracle import oracle_best


SWEEP = ExperimentPlan(seeds_per_cell=10)
CONVERGENCE = ExperimentPlan(node_sizes=[50], seeds_per_cell=30)
REQ = SWEEP.request()
ALGS = ("pso", "ga", "hybrid")
TOL = 1e-9


def verdict(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def solve(size: int, i: int, plan: ExperimentPlan):
    """Instance i of the plan at this size, from the bench's ``run_cell``,
    as ({algorithm: RunResult}, {algorithm: SimResult})."""
    runs = run_cell(size, i, plan)
    return ({key[1]: r for key, r, _ in runs},
            {key[1]: sim for key, _, sim in runs})


def attainment_iter(result, best_known: float) -> int:
    for it, total in enumerate(result.fitness_trace, start=1):
        if total <= best_known + TOL:
            return it
    return result.iterations_executed


def attainment_times_ms(results, best_known: float) -> dict:
    """Per-algorithm elapsed ms until the incumbent first reaches best_known.

    The runs on one instance share a solver seed, so iteration 1 builds and
    scores the same initial swarm in each: identical work, which gets one
    measured time, the fastest of the runs' measurements of it (load from
    elsewhere only adds time).  Each run is credited that time plus its own
    elapsed time after iteration 1.
    """
    runs = results.values()
    assert len({tuple(r.incumbent_paths[0]) for r in runs}) == 1, \
        "iteration 1 differs between algorithms"
    shared = min(r.iteration_times_ms[0] for r in runs)
    times = {}
    for alg, r in results.items():
        end = r.wall_time_ms
        for total, elapsed in zip(r.fitness_trace, r.iteration_times_ms):
            if total <= best_known + TOL:
                end = elapsed
                break
        times[alg] = shared + end - r.iteration_times_ms[0]
    return times


@pytest.fixture(scope="module")
def sweep():
    """SWEEP's instances by size.  Runs share no stitch search, so each
    algorithm's clock pays for the stitches it asks for; the gateway tree
    comes with source selection, and the source's cost row and the trap
    links are built before the first run's clock starts.  Cyclic GC is off
    while an instance is solved, as timeit does, so no collection of the
    whole test process's heap is timed as part of a solve."""
    instances = {size: [] for size in SWEEP.node_sizes}
    for size, solved in instances.items():
        for i in range(SWEEP.seeds_per_cell):
            gc.disable()
            try:
                solved.append(solve(size, i, SWEEP))
            finally:
                gc.enable()
    return instances


def _walk_pool(topo_seeds, walks_per_topo, walk_seed):
    """Deterministic pool of (topology, random-walk path) pairs."""
    pairs = []
    base_req = QosRequest(5.0, 10.0, 2.5, 0.5)
    for s in topo_seeds:
        topo = generate_topology(TopologyParams(node_count=20, rng_seed=s))
        coeffs = PenaltyCoeffs.for_request(base_req, topo)
        ctx = RouteContext(topo, default_source(topo), base_req, coeffs)
        rng = random.Random(walk_seed + s)
        for _ in range(walks_per_topo):
            pairs.append((topo, random_walk_path(ctx, rng)))
    return pairs


def test_criterion_1_worked_example_regression():
    topo = merge_demo_topo()
    coeffs = PenaltyCoeffs.for_request(REQ, topo)
    ctx = RouteContext(topo, 1, REQ, coeffs)
    merged = combine_paths([1, 2, 4, 9, 13], [1, 7, 5, 10, 13], ctx,
                           replace_prob=1.0)
    c1, c2 = crossover_children([1, 7, 5, 8, 12, 15, 21, 24, 25],
                                [1, 7, 5, 10, 17, 19, 22, 25],
                                cuts=((3, 4), (3, 7)))
    ok = (merged == [1, 7, 5, 9, 13]
          and c1 == [1, 7, 5, 10, 12, 15, 21, 24, 25]
          and c2 == [1, 7, 5, 8, 12, 15, 21, 25])
    verdict(1, ok, f"merge={merged} children={c1}|{c2}")


def test_criterion_2_oracle_equivalence():
    counts = {alg: 0 for alg in ALGS}
    for i in range(20):
        n = 10 + i % 5
        topo = generate_topology(TopologyParams(node_count=n, rng_seed=100 + i))
        source = default_source(topo)
        coeffs = PenaltyCoeffs.for_request(REQ, topo)
        _, best = oracle_best(topo, source, REQ, coeffs)
        for alg in ALGS:
            result = run(topo, source, REQ, coeffs,
                         HybridConfig(rng_seed=1000 + i, algorithm=alg))
            if abs(result.best_fitness.total - best.total) <= TOL:
                counts[alg] += 1
    ok = (counts["hybrid"] >= 18 and counts["pso"] >= 12
          and counts["ga"] >= 12)
    verdict(2, ok, f"oracle matches out of 20: {counts} "
                   "(need hybrid >= 18, baselines >= 12)")


def test_criterion_3_convergence_iteration_dominance():
    iters = {alg: [] for alg in ALGS}
    (size,) = CONVERGENCE.node_sizes
    for i in range(CONVERGENCE.seeds_per_cell):
        results, _ = solve(size, i, CONVERGENCE)
        best_known = min(r.best_fitness.total for r in results.values())
        for alg in ALGS:
            iters[alg].append(attainment_iter(results[alg], best_known))
    medians = {alg: statistics.median(v) for alg, v in iters.items()}
    ok = (medians["hybrid"] <= medians["pso"]
          and medians["hybrid"] <= medians["ga"])
    verdict(3, ok, f"median attainment iterations at {size} nodes, "
                   f"{CONVERGENCE.seeds_per_cell} seeds: {medians}")


def test_criterion_4_convergence_time_scaling(sweep):
    medians = {alg: [] for alg in ALGS}
    for size in SWEEP.node_sizes:
        per_alg = {alg: [] for alg in ALGS}
        for results, _ in sweep[size]:
            best_known = min(r.best_fitness.total for r in results.values())
            for alg, ms in attainment_times_ms(results, best_known).items():
                per_alg[alg].append(ms)
        for alg in ALGS:
            medians[alg].append(statistics.median(per_alg[alg]))
    at125 = {alg: medians[alg][-1] for alg in ALGS}
    dominated = (at125["hybrid"] <= at125["pso"]
                 and at125["hybrid"] <= at125["ga"])
    monotone = {alg: all(a < b for a, b in zip(m, m[1:]))
                for alg, m in medians.items()}
    ok = dominated and all(monotone.values())
    pretty = {alg: [round(v, 2) for v in m] for alg, m in medians.items()}
    verdict(4, ok, f"median attainment ms per size {SWEEP.node_sizes}: "
                   f"{pretty}, monotone={monotone}")


def _rounded(values: dict, digits: int) -> dict:
    return {k: round(v, digits) for k, v in values.items()}


def test_criterion_5_delivery_dominance(sweep):
    """At every size the hybrid returns a route meeting the request on at
    least as many instances as each baseline, and keeps mean PDR >= 0.85 at
    100 nodes.

    Strict ``lam`` is meant to rank routes that meet the request ahead of
    those that do not, so a search that finds lower F should find a QoS
    route at least as often.  That is the design intent of ``lam``, not a
    guarantee: a violation with p < 0.5 need not outweigh a cost saving
    (see ``PenaltyCoeffs``).  Mean PDR and delay are printed raw, not
    compared: F does not order them.
    """
    failures = []
    per_size = []
    pdr_100 = None
    for size in SWEEP.node_sizes:
        qos_routes = {alg: sum(r[alg].best_fitness.feasible
                               for r, _ in sweep[size]) for alg in ALGS}
        sims = [s for _, s in sweep[size]]
        mean_pdr = {alg: statistics.mean(s[alg].pdr for s in sims)
                    for alg in ALGS}
        mean_delay = {alg: statistics.mean(s[alg].avg_delay for s in sims)
                      for alg in ALGS}
        if size == 100:
            pdr_100 = mean_pdr["hybrid"]
        for alg in ("pso", "ga"):
            if qos_routes["hybrid"] < qos_routes[alg]:
                failures.append(f"qos@{size} hybrid {qos_routes['hybrid']} "
                                f"< {alg} {qos_routes[alg]}")
        per_size.append(f"{size}: qos routes {qos_routes}, "
                        f"mean pdr {_rounded(mean_pdr, 4)}, "
                        f"mean delay ms {_rounded(mean_delay, 3)}")
    floor_ok = pdr_100 >= 0.85
    ok = floor_ok and not failures
    verdict(5, ok, f"hybrid mean PDR at 100 nodes = {pdr_100:.4f} "
                   f"(floor 0.85 {'met' if floor_ok else 'MISSED'}); "
                   f"QoS-route shortfalls: {failures or 'none'}; "
                   f"per size of 10 instances: {'; '.join(per_size)}")


def test_criterion_6_penalty_invariants():
    pairs = _walk_pool(topo_seeds=range(5), walks_per_topo=200, walk_seed=60)
    rng = random.Random(6)
    for topo, path in pairs:
        req = QosRequest(rng.uniform(1.0, 15.0), rng.uniform(1.0, 20.0),
                         rng.uniform(0.5, 10.0), rng.uniform(0.0, 1.0))
        coeffs = PenaltyCoeffs.for_request(req, topo)
        m = path_metrics(topo, path)
        p, _ = penalty(m, req, coeffs)
        holds = (m.min_bw >= req.bw_req and m.total_delay <= req.d_req
                 and m.total_jitter <= req.j_req
                 and m.interference <= 1.0 - req.beta)
        assert (p == 0.0) == holds, (path, req)

        for worse in (replace(m, min_bw=m.min_bw - rng.uniform(0.0, 5.0)),
                      replace(m, total_delay=m.total_delay + rng.uniform(0.0, 5.0)),
                      replace(m, total_jitter=m.total_jitter + rng.uniform(0.0, 5.0)),
                      replace(m, interference=min(1.0, m.interference
                                                  + rng.uniform(0.0, 0.3)))):
            p_worse, _ = penalty(worse, req, coeffs)
            assert p_worse >= p - TOL
    verdict(6, True, f"{len(pairs)} random (path, request) pairs: "
                     "p=0 iff constraints hold, "
                     "penalty monotone in every violation")


def test_criterion_7_simulation_calibration():
    pairs = _walk_pool(topo_seeds=range(5), walks_per_topo=10, walk_seed=70)
    worst = 0.0
    for k, (topo, path) in enumerate(pairs):
        links = [topo.link_table[u][v] for u, v in zip(path, path[1:])]
        expected = math.prod(1.0 - l.loss_prob for l in links)
        res = simulate_path(topo, path, TrafficSpec(100_000, seed=7000 + k))
        sigma = math.sqrt(expected * (1.0 - expected) / 100_000)
        gap = abs(res.pdr - expected)
        worst = max(worst, gap / sigma if sigma else 0.0)
        assert gap <= 3.0 * sigma + TOL, (path, res.pdr, expected)
    verdict(7, True, f"{len(pairs)} paths at 1e5 packets: "
                     f"worst |pdr - expected| = {worst:.2f} sigma (cap 3)")


def test_criterion_8_continuous_sanity():
    wide = ContinuousConfig(bounds=[(-100.0, 100.0)] * 2, w=1.0,
                            c1=0.0, c2=0.0)
    p = RealParticle(position=np.zeros(2), velocity=np.array([1.0, 0.0]),
                     pbest_position=np.zeros(2), pbest_value=0.0)
    pso_step(p, np.zeros(2), wide, np.random.default_rng(0))
    ex1 = (np.allclose(p.velocity, [1.0, 0.0])
           and np.allclose(p.position, [1.0, 0.0]))

    x = np.array([2.0, 3.0])
    consensus = ContinuousConfig(bounds=[(-100.0, 100.0)] * 2, w=0.7)
    p = RealParticle(position=x.copy(), velocity=np.array([0.5, -0.5]),
                     pbest_position=x.copy(), pbest_value=0.0)
    pso_step(p, x.copy(), consensus, np.random.default_rng(0))
    ex2 = np.allclose(p.velocity, [0.35, -0.35])

    class OneRng:
        def uniform(self, size=()):
            return np.ones(size) if size else 1.0

    # w=0.5, c1=1, r1=1, c2=0, x=0, v=2, pbest=4: v' = 1 + 4 = 5, x' = 5.
    one_dim = ContinuousConfig(bounds=[(-100.0, 100.0)], w=0.5,
                               c1=1.0, c2=0.0)
    p = RealParticle(position=np.array([0.0]), velocity=np.array([2.0]),
                     pbest_position=np.array([4.0]), pbest_value=0.0)
    pso_step(p, np.array([0.0]), one_dim, OneRng())
    ex3 = np.allclose(p.velocity, [5.0]) and np.allclose(p.position, [5.0])

    converged = 0
    for seed in range(10):
        cfg = ContinuousConfig(bounds=[(-5.0, 5.0)], swarm_size=20,
                               iterations=200, rng_seed=seed)
        _, value, _ = run_continuous(lambda v: float(v[0] ** 2), cfg)
        converged += value < 1e-6
    ok = ex1 and ex2 and ex3 and converged == 10
    verdict(8, ok, f"hand-arithmetic steps: {[ex1, ex2, ex3]}, "
                   f"x^2 runs below 1e-6: {converged}/10")


def test_criterion_9_determinism(tmp_path, capsys):
    topo = generate_topology(TopologyParams(node_count=30, rng_seed=9))
    source = default_source(topo)
    coeffs = PenaltyCoeffs.for_request(REQ, topo)
    solver_ok = all(
        without_wall_times(run(topo, source, REQ, coeffs,
                        HybridConfig(rng_seed=9, algorithm=alg)).to_dict())
        == without_wall_times(run(topo, source, REQ, coeffs,
                           HybridConfig(rng_seed=9, algorithm=alg)).to_dict())
        for alg in ALGS)
    best = run(topo, source, REQ, coeffs, HybridConfig(rng_seed=9)).best_path
    sim_ok = (simulate_path(topo, best, TrafficSpec(5000, seed=9))
              == simulate_path(topo, best, TrafficSpec(5000, seed=9)))

    gen_a, gen_b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (gen_a, gen_b):
        assert main(["gen", "--nodes", "20", "--seed", "4",
                     "--out", str(out)]) == 0
    capsys.readouterr()
    gen_ok = gen_a.read_bytes() == gen_b.read_bytes()

    route_out = []
    for _ in range(2):
        assert main(["route", str(gen_a), "--seed", "11", "--json"]) == 0
        out = json.loads(capsys.readouterr().out)
        route_out.append(without_wall_times(out))
    route_ok = route_out[0] == route_out[1]

    plan = ExperimentPlan(node_sizes=[12], algorithms=["hybrid"],
                          seeds_per_cell=2, max_iterations=20,
                          packet_count=500)
    run_bench(plan, str(tmp_path / "b1"))
    run_bench(plan, str(tmp_path / "b2"))
    bench_ok = all(
        (tmp_path / "b1" / name).read_bytes()
        == (tmp_path / "b2" / name).read_bytes()
        for name in ("fitness_trace.csv", "pdr.csv", "delay.csv"))

    ok = solver_ok and sim_ok and gen_ok and route_ok and bench_ok
    verdict(9, ok, f"solver={solver_ok} sim={sim_ok} gen={gen_ok} "
                   f"route={route_ok} bench={bench_ok} "
                   "(identical reruns modulo wall-time fields)")
