import functools
import json
import math
import operator
import random
from dataclasses import astuple

import pytest
from hypothesis import given, settings, strategies as st

from meshroute.topology import TopologyParams, generate_topology
from meshroute.qos import (
    InvalidPathError,
    PathMetrics,
    PenaltyCoeffs,
    QosRequest,
    fitness,
    path_metrics,
    penalty,
)
from meshroute.routing import (HybridConfig, RouteContext, random_walk_path,
                              run)
from meshroute.cli import default_source

from conftest import make_topo, source_for
from oracle import enumerate_simple_paths, oracle_best


REQ = QosRequest(bw_req=5.0, d_req=10.0, j_req=10.0, beta=0.5)
STRICT = PenaltyCoeffs(1.0, 1.0, 1.0, lam=10.0)
# An int too large for a float, with a short test id.
HUGE_INT = pytest.param(10**400, id="10**400")


def plain_sum(xs):
    """sum() as it adds up to Python 3.11: from the int 0, left to right,
    with no compensation (3.12 compensates float sums)."""
    return functools.reduce(operator.add, xs, 0)


def reference_path_metrics(topo, path):
    """path_metrics as written before its one-pass loop: a list per weight,
    summed in the 3.11 order and reduced with min(); path_metrics must give
    the same value and type in every field."""
    table = topo.link_table
    links = [table[u][v] for u, v in zip(path, path[1:])]
    if not links:
        return PathMetrics(0.0, math.inf, 0.0, 0.0, 0.0)
    return PathMetrics(
        cost=plain_sum([l.cost for l in links]),
        min_bw=min([l.bandwidth for l in links]),
        total_delay=plain_sum([l.delay for l in links]),
        total_jitter=plain_sum([l.jitter for l in links]),
        interference=plain_sum([l.i_factor for l in links]) / len(links),
    )


def same_metrics(got, expected):
    """Field for field, value and type: 5 == 5.0 but serializes apart."""
    fields = list(zip(astuple(got), astuple(expected)))
    return all(a == b and type(a) is type(b) for a, b in fields)


class TestQosRequest:
    @pytest.mark.parametrize("field", ["bw_req", "d_req", "j_req", "beta"])
    # A bool once passed as 1 (a plan's "bw_req": true swept at 1 Mbps),
    # a string raised TypeError and an int too large for a float
    # OverflowError.
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf,
                                       True, "a", HUGE_INT])
    def test_non_finite_rejected(self, field, value):
        fields = dict(bw_req=5.0, d_req=10.0, j_req=2.5, beta=0.0)
        with pytest.raises(ValueError):
            QosRequest(**{**fields, field: value})


class TestPenaltyCoeffs:
    @pytest.mark.parametrize("field", ["eta1", "eta2", "eta3", "lam"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf,
                                       True, "a", HUGE_INT])
    def test_non_finite_rejected(self, field, value):
        fields = dict(eta1=1.0, eta2=1.0, eta3=1.0, lam=1.0)
        with pytest.raises(ValueError):
            PenaltyCoeffs(**{**fields, field: value})


class TestPathMetrics:
    def test_two_link_aggregation(self):
        topo = make_topo(3, {
            (0, 1): {"cost": 3.0, "delay": 1.0, "jitter": 0.5, "i_factor": 0.2},
            (1, 2): {"cost": 4.0, "delay": 2.0, "jitter": 0.5, "i_factor": 0.4},
        }, gateways={2})
        m = path_metrics(topo, [0, 1, 2])
        assert m.cost == 7.0
        assert m.min_bw == 11.0
        assert m.total_delay == 3.0
        assert m.total_jitter == 1.0
        assert m.interference == pytest.approx(0.3)

    def test_single_node_path(self, triangle):
        m = path_metrics(triangle, [0])
        assert (m.cost, m.total_delay, m.total_jitter, m.interference) == (0, 0, 0, 0)
        assert m.min_bw == math.inf

    def test_clean_link_zero_interference(self, triangle):
        assert path_metrics(triangle, [0, 2]).interference == 0.0

    def test_invalid_path_rejected(self, triangle):
        with pytest.raises(InvalidPathError):
            path_metrics(triangle, [0, 0, 2])

    @pytest.mark.parametrize("node_count", [25, 125, 200])
    def test_one_pass_matches_the_list_scorer(self, node_count):
        topo = generate_topology(TopologyParams(node_count=node_count,
                                                rng_seed=node_count))
        routes = [topo.gateway_path(n) for n in range(topo.node_count)]
        routes = [r for r in routes if r is not None]
        ctx = RouteContext(topo, source_for(topo), REQ,
                           PenaltyCoeffs.for_request(REQ, topo))
        rng = random.Random(node_count)
        routes += [random_walk_path(ctx, rng) for _ in range(100)]
        assert max(map(len, routes)) >= 8
        for route in routes:
            assert same_metrics(path_metrics(topo, route),
                                reference_path_metrics(topo, route))

    def test_int_weights_sum_as_ints(self):
        # A document may give weights as JSON integers; sum() kept them
        # ints until a float joined, and so does the one-pass loop.
        topo = make_topo(4, {
            (0, 1): {"cost": 3, "delay": 1, "jitter": 0, "i_factor": 0},
            (1, 2): {"cost": 4, "delay": 2, "jitter": 1, "i_factor": 1},
            (2, 3): {"cost": 0.5, "delay": 2, "bandwidth": 11},
        }, gateways={3})
        for route in ([0, 1], [0, 1, 2], [0, 1, 2, 3], [3, 2, 1], [2]):
            got = path_metrics(topo, route)
            assert same_metrics(got, reference_path_metrics(topo, route))
        assert type(path_metrics(topo, [0, 1, 2]).cost) is int
        # Of equal bandwidths, the first link's: 11.0, not the int 11.
        assert type(path_metrics(topo, [0, 1, 2, 3]).min_bw) is float
        assert type(path_metrics(topo, [3, 2, 1]).min_bw) is int


class TestPenalty:
    def test_all_satisfied_is_zero(self):
        m = PathMetrics(cost=5, min_bw=11, total_delay=3, total_jitter=2,
                        interference=0.1)
        p, terms = penalty(m, REQ, STRICT)
        assert p == 0.0
        assert all(v == 0.0 for v in terms.values())

    def test_boundary_bandwidth_feasible(self):
        m = PathMetrics(cost=5, min_bw=REQ.bw_req, total_delay=3,
                        total_jitter=2, interference=0.0)
        assert penalty(m, REQ, STRICT)[0] == 0.0

    def test_strict_delay_excess(self):
        m = PathMetrics(cost=5, min_bw=11, total_delay=REQ.d_req + 2.5,
                        total_jitter=2, interference=0.0)
        p, terms = penalty(m, REQ, STRICT)
        assert p == pytest.approx(2.5)
        assert terms["delay"] == pytest.approx(2.5)

    @settings(max_examples=200)
    @given(min_bw=st.floats(0, 20), delay=st.floats(0, 50),
           jitter=st.floats(0, 50), interference=st.floats(0, 1))
    def test_zero_iff_constraints_hold(self, min_bw, delay, jitter, interference):
        m = PathMetrics(cost=1.0, min_bw=min_bw, total_delay=delay,
                        total_jitter=jitter, interference=interference)
        p, _ = penalty(m, REQ, STRICT)
        holds = (min_bw >= REQ.bw_req and delay <= REQ.d_req
                 and jitter <= REQ.j_req
                 and interference <= 1.0 - REQ.beta)
        assert (p == 0.0) == holds

    @settings(max_examples=200)
    @given(delay=st.floats(0, 50), extra=st.floats(0.01, 50))
    def test_monotone_in_delay_violation(self, delay, extra):
        def total_at(d):
            m = PathMetrics(cost=1.0, min_bw=11, total_delay=d,
                            total_jitter=0, interference=0)
            p, _ = penalty(m, REQ, STRICT)
            return m.cost + STRICT.lam * p
        assert total_at(delay + extra) >= total_at(delay)


class TestFitness:
    def test_table_style_sum(self):
        # f = 12.0 with p = 0.56 at lam = 1 totals 12.56.
        topo = make_topo(2, {(0, 1): {"cost": 12.0, "delay": 10.56,
                                      "jitter": 0.5}}, gateways={1})
        req = QosRequest(bw_req=5.0, d_req=10.0, j_req=10.0, beta=0.0)
        coeffs = PenaltyCoeffs(1.0, 1.0, 1.0, lam=1.0)
        fb = fitness(topo, [0, 1], req, coeffs)
        assert fb.objective == pytest.approx(12.0)
        assert fb.penalty == pytest.approx(0.56)
        assert fb.total == pytest.approx(12.56)

    def test_feasible_total_equals_cost(self, triangle):
        fb = fitness(triangle, [0, 2], REQ, STRICT)
        assert fb.feasible
        assert fb.total == fb.objective == 5.0

    def test_unconnected_sequence_gets_sentinel(self, triangle):
        fb = fitness(triangle, [0, 0, 2], REQ, STRICT)
        assert not fb.valid and not fb.feasible
        assert fb.total == fb.objective == math.inf

    def test_sentinel_dominates_every_real_path(self):
        # Every path of up to 6 hops on a small mesh.
        topo = generate_topology(TopologyParams(node_count=12, rng_seed=3))
        coeffs = PenaltyCoeffs.for_request(REQ, topo)
        broken = fitness(topo, [0, 0], REQ, coeffs).total
        for p in enumerate_simple_paths(topo, source_for(topo),
                                        set(topo.gateways), 6):
            assert fitness(topo, p, REQ, coeffs).total < broken

        # Long random walks on the 125-node bench mesh violate
        # the bench request by so much that some score above 4 * lam plus
        # the cost bound of any simple path; a broken sequence still loses.
        topo = generate_topology(TopologyParams(node_count=125, rng_seed=0))
        req = QosRequest(bw_req=5.0, d_req=10.0, j_req=2.5, beta=0.0)
        coeffs = PenaltyCoeffs.for_request(req, topo)
        broken = fitness(topo, [0, 0], req, coeffs).total
        ctx = RouteContext(topo, default_source(topo), req, coeffs)
        rng = random.Random(0)
        totals = [fitness(topo, random_walk_path(ctx, rng), req, coeffs).total
                  for _ in range(300)]
        cost_bound = topo.max_link_cost * (topo.node_count - 1)
        assert max(totals) > 4 * coeffs.lam + cost_bound
        assert all(total < broken for total in totals)

    def test_breakdown_serializes(self, triangle):
        result = run(triangle, 0, REQ, STRICT, HybridConfig(rng_seed=0))
        data = json.loads(json.dumps(result.to_dict()))
        assert data["best_fitness"]["terms"] == result.best_fitness.terms
        assert set(data["best_fitness"]["terms"]) == {
            "bandwidth", "delay", "jitter", "interference"}


class TestOracle:
    def test_direct_beats_detour(self, triangle):
        path, fb = oracle_best(triangle, 0, REQ, STRICT)
        assert path == [0, 2]
        assert fb.total == 5.0

    def test_penalized_direct_loses_to_detour(self):
        # Direct link busts the 3 ms delay cap by 2 ms: F = 5 + 10*2 = 25.
        # Detour keeps within bounds: F = 8.  Hand-computed before coding.
        topo = make_topo(3, {
            (0, 1): {"cost": 4.0, "delay": 1.0},
            (1, 2): {"cost": 4.0, "delay": 1.0},
            (0, 2): {"cost": 5.0, "delay": 5.0},
        }, gateways={2})
        req = QosRequest(bw_req=5.0, d_req=3.0, j_req=10.0, beta=0.0)
        coeffs = PenaltyCoeffs(1.0, 1.0, 1.0, lam=10.0)
        assert fitness(topo, [0, 2], req, coeffs).total == pytest.approx(25.0)
        assert fitness(topo, [0, 1, 2], req, coeffs).total == pytest.approx(8.0)
        path, fb = oracle_best(topo, 0, req, coeffs)
        assert path == [0, 1, 2]
        assert fb.total == pytest.approx(8.0)

    def test_gateway_source_rejected(self, triangle):
        with pytest.raises(ValueError, match="source is a gateway"):
            oracle_best(triangle, 2, REQ, STRICT)

    def test_tie_breaks_lexicographically(self):
        topo = make_topo(4, {
            (0, 1): {"cost": 3.0},
            (1, 3): {"cost": 3.0},
            (0, 2): {"cost": 3.0},
            (2, 3): {"cost": 3.0},
        }, gateways={3})
        path, _ = oracle_best(topo, 0, REQ, STRICT)
        assert path == [0, 1, 3]

    def test_feasible_argmin_is_cost_argmin(self):
        topo = generate_topology(TopologyParams(node_count=12, rng_seed=8))
        lax = QosRequest(bw_req=1.0, d_req=1e6, j_req=1e6, beta=0.0)
        coeffs = PenaltyCoeffs.for_request(lax, topo)
        src = source_for(topo)
        path, fb = oracle_best(topo, src, lax, coeffs)
        assert fb.feasible
        best_cost = min(topo.shortest_path_cost(src, g) for g in topo.gateways)
        assert fb.objective == pytest.approx(best_cost)
