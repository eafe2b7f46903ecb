"""The exhaustive reference optimum the tests judge the solvers by.

``oracle_best`` scores every simple source->gateway path, so it is only
tractable on small graphs.  The file name does not match ``test_*.py``, so
pytest does not collect it; test modules import it as ``oracle``.
"""

from __future__ import annotations

from meshroute.qos import FitnessBreakdown, PenaltyCoeffs, QosRequest, fitness
from meshroute.topology import MeshTopology, TopologyError


class PathExplosionError(RuntimeError):
    """Simple-path enumeration exceeded its configured cap."""


def enumerate_simple_paths(topo: MeshTopology, source: int,
                           destinations: set[int], max_hops: int,
                           cap: int = 500_000) -> list[list[int]]:
    """Every simple path from ``source`` ending at any destination.

    Destinations are absorbing: a path stops at the first destination it
    reaches (a route terminates at its egress), so no returned path crosses
    one destination on the way to another.  Paths have at most ``max_hops``
    links, returned in lexicographic order by node sequence; the zero-link
    path [source] is included when the source is itself a destination.
    Raises PathExplosionError past ``cap`` paths.
    """
    if not topo.has_node(source):
        raise TopologyError("unknown source node")
    if not destinations:
        raise TopologyError("destinations must be non-empty")
    if max_hops < 1:
        raise TopologyError("max_hops must be >= 1")

    out: list[list[int]] = []
    stack = [source]
    on_path = {source}

    def visit():
        if stack[-1] in destinations:
            out.append(list(stack))
            if len(out) > cap:
                raise PathExplosionError(
                    f"simple-path enumeration exceeded cap of {cap} paths")
            return
        if len(stack) - 1 >= max_hops:
            return
        for nxt in topo.adjacency[stack[-1]]:
            if nxt in on_path:
                continue
            stack.append(nxt)
            on_path.add(nxt)
            visit()
            on_path.discard(stack.pop())

    visit()
    return out


def oracle_best(topo: MeshTopology, source: int, req: QosRequest,
                coeffs: PenaltyCoeffs) -> tuple[list[int], FitnessBreakdown]:
    """Exhaustive reference optimum over all simple source->gateway paths.

    Ties in F break lexicographically by node sequence.  Only tractable on
    small graphs; the enumeration's default cap bounds the blow-up.
    """
    if source in topo.gateways:
        raise ValueError("source is a gateway")
    paths = enumerate_simple_paths(topo, source, set(topo.gateways),
                                   topo.node_count - 1)
    if not paths:
        raise ValueError("no gateway reachable from source")
    best = min(paths, key=lambda p: (fitness(topo, p, req, coeffs).total, p))
    return best, fitness(topo, best, req, coeffs)
