import math

import numpy as np
import pytest

from meshroute.topology import TopologyParams, generate_topology
from meshroute.qos import InvalidPathError, PenaltyCoeffs, QosRequest
from meshroute.routing import HybridConfig
from meshroute.simulation import (
    SimResult,
    TrafficSpec,
    evaluate_routing,
    simulate_path,
)
from meshroute import simulation

from conftest import compensated_sum, make_topo, plain_sum, source_for


def reference_simulate(topo, path, traffic):
    """simulate_path as first written: both draws through rng.uniform, the
    jitter drawn for every packet and averaged over the delivered ones."""
    links = [topo.link_table[u][v] for u, v in zip(path, path[1:])]
    n = traffic.packet_count
    rng = np.random.default_rng(traffic.seed)
    if not links:
        return SimResult(pdr=1.0, avg_delay=0.0, delivered_count=n,
                         packet_count=n)
    loss = np.array([l.loss_prob for l in links])
    base_delay = float(plain_sum(l.delay for l in links))
    jitter = np.array([l.jitter for l in links])
    survive = rng.uniform(size=(n, len(links))) >= loss[None, :]
    delivered = survive.all(axis=1)
    jitter_samples = rng.uniform(0.0, jitter[None, :], size=(n, len(links)))
    delays = base_delay + jitter_samples.sum(axis=1)
    count = int(delivered.sum())
    avg = float(delays[delivered].mean()) if count else math.nan
    return SimResult(pdr=count / n, avg_delay=avg, delivered_count=count,
                     packet_count=n)


def binomial_3sigma(p_expected, n):
    return 3 * math.sqrt(p_expected * (1 - p_expected) / n)


class TestSimulatePath:
    def test_lossless_path_delivers_everything(self):
        topo = make_topo(3, {(0, 1): {"loss_prob": 0.0},
                             (1, 2): {"loss_prob": 0.0}}, gateways={2})
        res = simulate_path(topo, [0, 1, 2], TrafficSpec(5000, seed=0))
        assert res.pdr == 1.0
        assert res.delivered_count == 5000

    def test_single_link_bernoulli(self):
        topo = make_topo(2, {(0, 1): {"loss_prob": 0.1}}, gateways={1})
        res = simulate_path(topo, [0, 1], TrafficSpec(100_000, seed=1))
        assert res.pdr == pytest.approx(0.9, abs=binomial_3sigma(0.9, 100_000))

    def test_two_link_survival_product(self):
        topo = make_topo(3, {(0, 1): {"loss_prob": 0.1},
                             (1, 2): {"loss_prob": 0.2}}, gateways={2})
        res = simulate_path(topo, [0, 1, 2], TrafficSpec(200_000, seed=2))
        assert res.pdr == pytest.approx(0.72,
                                        abs=binomial_3sigma(0.72, 200_000))

    def test_delay_is_base_plus_mean_jitter(self):
        topo = make_topo(2, {(0, 1): {"delay": 2.0, "jitter": 1.0,
                                      "loss_prob": 0.0}}, gateways={1})
        res = simulate_path(topo, [0, 1], TrafficSpec(100_000, seed=3))
        assert res.avg_delay == pytest.approx(2.5, abs=0.01)
        assert res.avg_delay >= 2.0

    def test_multi_hop_delay_sums_base_delay_and_mean_jitter(self):
        # Five hops with distinct delay and jitter; no loss, so every packet
        # is delivered and avg_delay is a mean over all of them.
        delays = [1.0, 2.0, 3.5, 0.5, 4.0]
        jitters = [0.4, 1.2, 2.0, 0.8, 3.0]
        topo = make_topo(6, {(i, i + 1): {"delay": d, "jitter": j,
                                          "loss_prob": 0.0}
                             for i, (d, j) in enumerate(zip(delays, jitters))},
                         gateways={5})
        n = 20_000
        res = simulate_path(topo, list(range(6)), TrafficSpec(n, seed=6))
        # Each hop adds U(0, j): mean j/2, variance j^2/12.
        expected = sum(delays) + sum(jitters) / 2
        sigma = math.sqrt(sum(j * j for j in jitters) / 12 / n)
        assert res.delivered_count == n
        assert res.avg_delay == pytest.approx(expected, abs=4 * sigma)

    def test_appending_lossy_link_never_helps(self):
        base = {(0, 1): {"loss_prob": 0.05}}
        topo2 = make_topo(2, base, gateways={1})
        topo3 = make_topo(3, {**base, (1, 2): {"loss_prob": 0.3}},
                          gateways={2})
        short = simulate_path(topo2, [0, 1], TrafficSpec(50_000, seed=4))
        long = simulate_path(topo3, [0, 1, 2], TrafficSpec(50_000, seed=4))
        assert long.pdr < short.pdr

    def test_deterministic_per_seed(self):
        topo = make_topo(3, {(0, 1): {"loss_prob": 0.1},
                             (1, 2): {"loss_prob": 0.1}}, gateways={2})
        a = simulate_path(topo, [0, 1, 2], TrafficSpec(10_000, seed=5))
        b = simulate_path(topo, [0, 1, 2], TrafficSpec(10_000, seed=5))
        assert a == b

    def test_matches_uniform_reference(self, monkeypatch):
        # Generated multi-hop routes, a route through a link that drops
        # every packet, a one-node path, a lossless route without jitter
        # whose delays add to 0.6000000000000001 left to right but to 0.6
        # by Python 3.12's compensated sum(), which the module must not
        # use, and routes of 1 to 12 hops along a line whose links differ
        # in every weight: at up to 30 % loss a hop, the longer routes
        # deliver few packets, and one packet alone is often lost.
        monkeypatch.setattr(simulation, "sum", compensated_sum,
                            raising=False)
        dead = make_topo(4, {(0, 1): {"loss_prob": 0.1},
                             (1, 2): {"loss_prob": 1.0},
                             (2, 3): {"jitter": 2.0}}, gateways={3})
        exact = make_topo(4, {(i, i + 1): {"delay": (i + 1) / 10,
                                           "jitter": 0.0, "loss_prob": 0.0}
                              for i in range(3)}, gateways={3})
        rng = np.random.default_rng(12)
        line = make_topo(13, {(i, i + 1): {
            "delay": float(rng.uniform(0.5, 2.0)),
            "jitter": float(rng.uniform(0.5, 2.0)),
            "loss_prob": float(rng.uniform(0.001, 0.3))} for i in range(12)},
            gateways={12})
        cases = [(dead, [0, 1, 2, 3]), (dead, [3]), (exact, [0, 1, 2, 3])]
        for seed in range(3):
            topo = generate_topology(TopologyParams(node_count=60,
                                                    rng_seed=seed))
            cases += [(topo, topo.gateway_path(n)) for n in (0, 20, 40)]
        assert any(len(path) > 4 for _, path in cases)
        # Traffic seeds: a case's index, and a line route's hop count.
        cases = list(enumerate(cases)) + [
            (hops, (line, list(range(12 - hops, 13))))
            for hops in range(1, 13)]
        lost = 0
        for seed, (topo, path) in cases:
            for count in (1, 7, 5000):
                traffic = TrafficSpec(count, seed=seed)
                got = simulate_path(topo, path, traffic)
                want = reference_simulate(topo, path, traffic)
                assert (got.pdr, got.delivered_count, got.packet_count) == (
                    want.pdr, want.delivered_count, want.packet_count)
                assert (got.avg_delay == want.avg_delay
                        or math.isnan(got.avg_delay)
                        and math.isnan(want.avg_delay))
                assert type(got.delivered_count) is int
                lost += topo is line and not want.delivered_count
        assert lost
        blocked = simulate_path(dead, [0, 1, 2, 3], TrafficSpec(100, seed=0))
        assert blocked.delivered_count == 0 and math.isnan(blocked.avg_delay)

    def test_invalid_path_rejected(self):
        topo = make_topo(3, {(0, 1): {}}, gateways={1})
        with pytest.raises(InvalidPathError):
            simulate_path(topo, [0, 2], TrafficSpec(10, seed=0))

    def test_bad_traffic_spec(self):
        with pytest.raises(ValueError):
            TrafficSpec(packet_count=0)

    @pytest.mark.parametrize("count", [10.5, True])
    def test_non_integer_packet_count_rejected(self, count):
        # Both once passed the range check and then failed inside numpy.
        with pytest.raises(ValueError, match="integer"):
            TrafficSpec(packet_count=count)

    @pytest.mark.parametrize("seed", [1.5, True, -1])
    def test_non_integer_or_negative_seed_rejected(self, seed):
        # 1.5 and -1 once failed inside numpy's SeedSequence.
        with pytest.raises(ValueError, match="seed"):
            TrafficSpec(10, seed=seed)


class TestEvaluateRouting:
    REQ = QosRequest(5.0, 100.0, 100.0, 0.0)

    def test_two_node_pipeline(self):
        topo = make_topo(2, {(0, 1): {"delay": 1.0, "jitter": 1.0,
                                      "loss_prob": 0.0}}, gateways={1})
        coeffs = PenaltyCoeffs.for_request(self.REQ, topo)
        result, sim = evaluate_routing(topo, 0, self.REQ, coeffs,
                                       HybridConfig(rng_seed=0),
                                       TrafficSpec(50_000, seed=0))
        assert result.best_path == [0, 1]
        assert sim.pdr == 1.0
        assert sim.avg_delay == pytest.approx(1.5, abs=0.02)

    def test_infeasible_topology_still_routes_and_simulates(self):
        # Every route violates the 0.1 ms delay cap; the solver still
        # returns the least-bad path and the simulator runs on it.
        topo = make_topo(2, {(0, 1): {"delay": 5.0}}, gateways={1})
        req = QosRequest(5.0, 0.1, 100.0, 0.0)
        coeffs = PenaltyCoeffs.for_request(req, topo)
        result, sim = evaluate_routing(topo, 0, req, coeffs,
                                       HybridConfig(rng_seed=0),
                                       TrafficSpec(1000, seed=0))
        assert result.best_path == [0, 1]
        assert not result.best_fitness.feasible
        assert sim.packet_count == 1000

    def test_end_to_end_deterministic(self):
        topo = generate_topology(TopologyParams(node_count=20, rng_seed=14))
        coeffs = PenaltyCoeffs.for_request(self.REQ, topo)
        args = (topo, source_for(topo), self.REQ, coeffs, HybridConfig(rng_seed=7),
                TrafficSpec(5000, seed=7))
        r1, s1 = evaluate_routing(*args)
        r2, s2 = evaluate_routing(*args)
        assert r1.best_path == r2.best_path
        assert s1 == s2
