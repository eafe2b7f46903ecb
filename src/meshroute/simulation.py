"""Stochastic packet transport over a chosen route.

Each packet crosses the route's links in order and is dropped independently
at each link with that link's loss probability; survivors accumulate the
link delay plus a uniform jitter sample per hop.  Output is the delivery
ratio and the mean end-to-end delay of delivered packets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qos import InvalidPathError, PenaltyCoeffs, QosRequest
from .routing import HybridConfig, RunResult, run
from .topology import MeshTopology, validate_path


@dataclass(frozen=True)
class TrafficSpec:
    packet_count: int = 10_000
    seed: int = 0

    def __post_init__(self):
        if not (type(self.packet_count) is int
                and type(self.seed) is int):  # no bools, no floats
            raise ValueError("packet_count and seed must be integers")
        if self.packet_count < 1:
            raise ValueError("packet_count must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass(frozen=True)
class SimResult:
    pdr: float
    avg_delay: float
    delivered_count: int
    packet_count: int


def simulate_path(topo: MeshTopology, path: list[int],
                  traffic: TrafficSpec) -> SimResult:
    """Send ``packet_count`` packets down ``path``; deterministic per seed.

    avg_delay is computed over delivered packets only and is NaN when
    nothing gets through.
    """
    if not validate_path(topo, path, require_gateway=False):
        raise InvalidPathError(f"cannot simulate invalid path: {path}")
    table = topo.link_table
    links = [table[u][v] for u, v in zip(path, path[1:])]
    n = traffic.packet_count
    rng = np.random.default_rng(traffic.seed)
    if not links:
        return SimResult(pdr=1.0, avg_delay=0.0, delivered_count=n,
                         packet_count=n)

    loss = np.array([l.loss_prob for l in links])
    base_delay = 0  # from the int 0, left to right (see qos's docstring)
    for link in links:
        base_delay += link.delay
    jitter = np.array([l.jitter for l in links])

    # A packet is delivered when its draw clears every hop's loss.  The
    # mask is ANDed one hop column at a time, and the draws are freed
    # before the jitter block is drawn.
    draws = rng.random((n, len(links)))
    delivered = draws[:, 0] >= loss[0]
    for j in range(1, len(links)):
        delivered &= draws[:, j] >= loss[j]
    del draws
    # Each hop's jitter is uniform on [0, jitter): the second draw, scaled
    # in place by the link's jitter; delays are kept for delivered packets.
    jitter_samples = rng.random((n, len(links)))
    jitter_samples *= jitter
    delays = float(base_delay) + jitter_samples.sum(axis=1)[delivered]

    count = len(delays)
    avg = float(delays.mean()) if count else math.nan
    return SimResult(pdr=count / n, avg_delay=avg, delivered_count=count,
                     packet_count=n)


def evaluate_routing(topo: MeshTopology, source: int, req: QosRequest,
                     coeffs: PenaltyCoeffs, config: HybridConfig,
                     traffic: TrafficSpec) -> tuple[RunResult, SimResult]:
    """Solve for the best route, then push traffic through it."""
    result = run(topo, source, req, coeffs, config)
    sim = simulate_path(topo, result.best_path, traffic)
    return result, sim
