"""Path-level QoS aggregation, constraint penalties, and route fitness.

A route is scored as F = f + lambda * p where f is the summed link cost and
p penalizes violations of the bandwidth floor, delay bound, jitter bound,
and interference ceiling.  Feasible routes have p = 0, so minimizing F over
feasible routes is exactly minimizing cost.

Sums here, and the path delay in ``simulation``, start from the int 0 and
add left to right, the order ``sum()`` keeps up to Python 3.11 (3.12
compensates float sums), so a route scores the same on every version.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .topology import MeshTopology, is_finite, validate_path

# min_bw of a zero-link path: no link constrains bandwidth.
NO_LINK_BANDWIDTH = math.inf

PENALTY_TERMS = ("bandwidth", "delay", "jitter", "interference")


class InvalidPathError(ValueError):
    """Metrics requested for a node sequence that is not a path."""


@dataclass(frozen=True)
class QosRequest:
    """Application demands: bandwidth floor, delay/jitter caps, interference
    tolerance ``beta`` (1.0 = only interference-free routes tolerated)."""
    bw_req: float
    d_req: float
    j_req: float
    beta: float = 0.5

    def __post_init__(self):
        demands = (self.bw_req, self.d_req, self.j_req, self.beta)
        if not all(map(is_finite, demands)):
            raise ValueError(
                "bw_req, d_req, j_req and beta must be finite numbers")
        if self.bw_req <= 0 or self.d_req <= 0 or self.j_req <= 0:
            raise ValueError("bw_req, d_req and j_req must be positive")
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError("beta outside [0, 1]")


@dataclass(frozen=True)
class PenaltyCoeffs:
    """Violation normalizers and the penalty weight.

    The penalty sums the weighted violations.  ``for_request`` sets
    ``lam = 2 * max_link_cost * (N - 1)``, twice the cost bound of any
    simple path, so only a violation with p >= 0.5 is sure to outweigh every
    cost saving; a smaller one need not.  For example, for the default
    bench request (bw 5, delay 10, jitter 2.5, beta 0) on the 75-node seed-24
    mesh, the lowest-F route from node 40, ``[40, 38, 37]`` (F = 13.92,
    p = 1.6e-4), is infeasible, while the feasible ``[40, 42, 37]`` costs
    16.00.
    """
    eta1: float
    eta2: float
    eta3: float
    lam: float = 1.0

    def __post_init__(self):
        coeffs = (self.eta1, self.eta2, self.eta3, self.lam)
        if not all(map(is_finite, coeffs)):
            raise ValueError("eta1, eta2, eta3 and lam must be finite numbers")
        if min(coeffs) < 0:
            raise ValueError("coefficients must be non-negative")

    @classmethod
    def for_request(cls, req: QosRequest,
                    topo: MeshTopology) -> "PenaltyCoeffs":
        """Dimensionless defaults: each eta is 1/bound, so terms measure
        relative violation, and lam is twice the cost bound of any simple
        path on ``topo``.  lam does not dominate every cost difference:
        only p >= 0.5 is sure to (see the class docstring)."""
        etas = (1.0 / req.bw_req, 1.0 / req.d_req, 1.0 / req.j_req)
        return cls(*etas, lam=2.0 * topo.max_link_cost * (topo.node_count - 1))


@dataclass(frozen=True)
class PathMetrics:
    cost: float
    min_bw: float
    total_delay: float
    total_jitter: float
    interference: float


@dataclass(frozen=True)
class FitnessBreakdown:
    objective: float
    penalty: float
    total: float
    terms: dict = field(default_factory=dict)
    feasible: bool = False
    valid: bool = True


def path_metrics(topo: MeshTopology, path: list[int]) -> PathMetrics:
    """Aggregate link weights along a validated path.

    Cost, delay and jitter are additive; bandwidth is the bottleneck minimum;
    interference is the mean link i_factor so it stays in [0, 1] regardless
    of hop count.  Sums add in a fixed order (see the module docstring); of
    equal bandwidths the first is kept, as ``min()`` does.
    """
    if not validate_path(topo, path, require_gateway=False):
        raise InvalidPathError(f"not a simple connected path: {path}")
    hops = len(path) - 1
    if not hops:
        return PathMetrics(0.0, NO_LINK_BANDWIDTH, 0.0, 0.0, 0.0)
    table = topo.link_table
    # One pass, not a list per weight (see random_walk_path in routing).
    cost = delay = jitter = i_sum = 0
    min_bw = NO_LINK_BANDWIDTH
    for u, v in zip(path, path[1:]):
        link = table[u][v]
        cost += link.cost
        if link.bandwidth < min_bw:
            min_bw = link.bandwidth
        delay += link.delay
        jitter += link.jitter
        i_sum += link.i_factor
    return PathMetrics(cost, min_bw, delay, jitter, i_sum / hops)


def penalty(metrics: PathMetrics, req: QosRequest,
            coeffs: PenaltyCoeffs) -> tuple[float, dict]:
    """Constraint-violation penalty with its per-term breakdown.

    Zero exactly when the bandwidth floor, delay and jitter caps hold and
    path interference stays within 1 - beta.
    """
    terms = {
        "bandwidth": coeffs.eta1 * max(req.bw_req - metrics.min_bw, 0.0),
        "delay": coeffs.eta2 * max(metrics.total_delay - req.d_req, 0.0),
        "jitter": coeffs.eta3 * max(metrics.total_jitter - req.j_req, 0.0),
        "interference": max(metrics.interference - (1.0 - req.beta), 0.0),
    }
    p = 0
    for term in terms.values():
        p += term
    return p, terms


def fitness(topo: MeshTopology, path: list[int], req: QosRequest,
            coeffs: PenaltyCoeffs) -> FitnessBreakdown:
    """Total route fitness F = cost + lam * penalty.

    Accepts arbitrary node sequences: anything that fails validation scores
    inf (objective and total) instead of raising, so every real path, however
    badly it violates the request, beats a broken one.
    """
    try:
        metrics = path_metrics(topo, path)
    except InvalidPathError:
        return FitnessBreakdown(objective=math.inf, penalty=0.0, total=math.inf,
                                terms={k: 0.0 for k in PENALTY_TERMS},
                                feasible=False, valid=False)
    p, terms = penalty(metrics, req, coeffs)
    return FitnessBreakdown(
        objective=metrics.cost,
        penalty=p,
        total=metrics.cost + coeffs.lam * p,
        terms=terms,
        feasible=(p == 0.0),
        valid=True,
    )
