import functools
import math
import operator
from collections import deque

import pytest

from meshroute import Link, MeshTopology, Node


LINK_DEFAULTS = dict(channel=1, cost=2.0, bandwidth=11.0, delay=1.0,
                     jitter=0.5, loss_prob=0.01, i_factor=0.0)


# Fields of a run, and columns of the bench tables, that time it and so
# differ between identical reruns.
WALL_FIELDS = ("wall_time_ms", "time_to_best_ms", "iteration_times_ms",
               "median_time_to_best_ms")


def without_wall_times(d):
    return {k: v for k, v in d.items() if k not in WALL_FIELDS}


def plain_sum(xs):
    """sum() as it adds up to Python 3.11: from the int 0, left to right,
    with no compensation (3.12 compensates float sums)."""
    return functools.reduce(operator.add, xs, 0)


def compensated_sum(xs):
    """sum() as Python 3.12 adds floats (CPython's builtin_sum_impl): each
    addition's rounding error is kept, Neumaier's way, and added back at
    the end."""
    total, error = 0, 0.0
    for x in xs:
        t = total + x
        error += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + error if error and math.isfinite(error) else total


def make_topo(n, edges, gateways, transmission_range=10_000.0):
    """Hand-built mesh: n nodes on a line, links from an {(u, v): overrides}
    mapping with LINK_DEFAULTS filled in."""
    nodes = [Node(i, 10.0 * i, 0.0, (1, 6)) for i in range(n)]
    links = []
    for (u, v), overrides in edges.items():
        attrs = {**LINK_DEFAULTS, **overrides}
        links.append(Link(u, v, **attrs))
    return MeshTopology(nodes, links, set(gateways), transmission_range)


def brute_force_trap_links(topo):
    """Per node u, the neighbours v that a breadth-first search from the
    gateways in the mesh without u does not reach: trap links u->v."""
    table = []
    for u in range(topo.node_count):
        reached = {g for g in topo.gateways if g != u}
        queue = deque(reached)
        while queue:
            x = queue.popleft()
            for y in topo.adjacency[x]:
                if y != u and y not in reached:
                    reached.add(y)
                    queue.append(y)
        table.append(tuple(v for v in topo.adjacency[u]
                           if v not in reached))
    return tuple(table)


def source_for(topo):
    """First node that is not a gateway."""
    return next(i for i in range(topo.node_count) if i not in topo.gateways)


def island_mesh():
    """Gateway 2 in a triangle 0-1-2 whose direct link 0-2 costs more than
    the way round, beside a line 3-4-5 that reaches no gateway."""
    return make_topo(6, {(0, 1): {}, (1, 2): {}, (0, 2): {"cost": 4.0},
                         (3, 4): {}, (4, 5): {}}, gateways={2})


@pytest.fixture
def triangle():
    # s=0, a=1, t=2; direct s-t plus a detour through a.
    return make_topo(3, {
        (0, 1): {"cost": 4.0},
        (0, 2): {"cost": 5.0},
        (1, 2): {"cost": 4.0},
    }, gateways={2})


@pytest.fixture
def line3():
    # a-b-c with costs 2 and 3.
    return make_topo(3, {
        (0, 1): {"cost": 2.0},
        (1, 2): {"cost": 3.0},
    }, gateways={2})


def merge_demo_topo():
    """14-node mesh used by the position-merge and crossover walkthroughs:
    routes 1-2-4-9-13 and 1-7-5-10-13, with source costs ordering 7 below 2,
    5 below 4, and 9 below 10.  Gateway is node 13."""
    edges = {
        (1, 2): {"cost": 6.0},
        (1, 7): {"cost": 3.0},
        (2, 4): {"cost": 3.0},
        (7, 5): {"cost": 2.0},
        (5, 9): {"cost": 3.0},
        (5, 10): {"cost": 4.0},
        (4, 9): {"cost": 8.0},
        (9, 13): {"cost": 2.0},
        (10, 13): {"cost": 2.0},
    }
    return make_topo(14, edges, gateways={13})
