"""Mesh topology model, random-geometric generation, and path utilities.

A mesh is an undirected geometric graph: routers with (x, y) positions and a
small set of radio channels, links between routers within transmission range,
and a non-empty set of gateway nodes that terminate routes.  Every link
carries scalar QoS weights (cost, bandwidth, delay, jitter, loss probability)
plus a normalized interference factor derived from channel separation against
its neighboring links.

The graph is held in plain per-node tuples and neighbour-to-link dicts built
once at construction.  Shortest paths come from one resumable heapq Dijkstra
over dense distance/predecessor lists that yields each node as it settles.
Rows read whole run it to the end.  The mesh caches one such tree, the
one from all gateways together; a source's cost row is built afresh for
each caller, which owns it.  A path query stops the search at its target,
as does a repair stitch: a solver run keeps one suspended search per stitch
origin, which the mesh does not keep (stitch), so each run pays for the
stitches it asks for.  The gateways' row ranks the mesh's candidate sources
once, and the mesh keeps that ranking (ranked_sources) for every benchmark
source pick.  numpy is the only third-party dependency, and only the
generator uses it: each generating function imports it when first called,
so reading a stored mesh and querying it never load numpy.

The generator places nodes with numpy's uniform draws, draws every node's
radios in one integers() call, and decodes each link's channel and weights
from one block of raw PCG64 words by numpy's rules for turning words into
draws, so every mesh and the RNG state it leaves are those of one Generator
call per drawn value.  Each link's interference comes from its smallest
channel gap to a link sharing an endpoint, from per-node channel counts in
plain dicts.  The gateway k-means stops at its fixed point: the first of
its at most 12 Lloyd iterations that leaves the centres bitwise unchanged.
"""

from __future__ import annotations

import heapq
import json
import math
import numbers
from collections.abc import Iterable, Sequence, Set as AbstractSet
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

# Normalized interference vs channel separation for 2.4 GHz partially
# overlapping channels: co-channel is worst, >= 5 apart is orthogonal.
IFACTOR_TABLE = (1.0, 0.7, 0.4, 0.2, 0.1)

NUM_CHANNELS = 11

# Generated links draw cost, delay, jitter and loss uniformly from these
# ranges at BANDWIDTH; each generated node tunes RADIOS_PER_NODE channels.
COST_RANGE = (2.0, 10.0)
BANDWIDTH = 11.0
DELAY_RANGE = (0.5, 2.0)
JITTER_RANGE = (0.5, 2.0)
LOSS_RANGE = (0.001, 0.10)
RADIOS_PER_NODE = 2

UNREACHABLE = math.inf


class TopologyError(ValueError):
    """Invalid topology parameters or malformed topology data."""


def is_finite(x) -> bool:
    """Whether ``x`` is a finite real number (numpy's too) other than a
    bool: True is an int, so JSON true would pass as 1.  An int too large
    for a float is not finite here."""
    try:
        return (isinstance(x, numbers.Real) and not isinstance(x, bool)
                and math.isfinite(x))
    except OverflowError:
        return False


def interference_factor(channel_separation: int) -> float:
    """Normalized interference between two links ``channel_separation`` apart.

    Non-increasing in separation: 1.0 for co-channel, 0.0 once the
    separation reaches orthogonality (beyond the end of IFACTOR_TABLE).
    """
    if channel_separation < 0:
        raise ValueError("channel separation must be non-negative")
    if channel_separation >= len(IFACTOR_TABLE):
        return 0.0
    return IFACTOR_TABLE[channel_separation]


@dataclass(frozen=True)
class Node:
    id: int
    x: float
    y: float
    radios: tuple[int, ...]

    def __post_init__(self):
        # bool is an int subclass, so JSON true would pass as 1.
        if (bool in (type(self.x), type(self.y))
                or not (math.isfinite(self.x) and math.isfinite(self.y))):
            raise TopologyError(
                f"node {self.id} has a position that is not a finite number")
        if not self.radios:
            raise TopologyError(f"node {self.id} has no radios")
        if any(type(c) is not int or not 1 <= c <= NUM_CHANNELS
               for c in self.radios):
            raise TopologyError(
                f"node {self.id} has channels that are not integers in "
                f"1..{NUM_CHANNELS}")


@dataclass(frozen=True)
class Link:
    u: int
    v: int
    channel: int
    cost: float
    bandwidth: float
    delay: float
    jitter: float
    loss_prob: float
    i_factor: float = 0.0
    synthetic: bool = False

    def __post_init__(self):
        if self.u == self.v:
            raise TopologyError("self-loop link")
        if type(self.channel) is not int or not 1 <= self.channel <= NUM_CHANNELS:
            raise TopologyError(f"link {self.u}-{self.v} channel is not an "
                                f"integer in 1..{NUM_CHANNELS}")
        weights = (self.cost, self.bandwidth, self.delay, self.jitter,
                   self.loss_prob, self.i_factor)
        if bool in map(type, weights) or not all(map(math.isfinite, weights)):
            raise TopologyError(f"link {self.u}-{self.v} has a weight that "
                                "is not a finite number")
        if type(self.synthetic) is not bool:
            raise TopologyError(f"link {self.u}-{self.v} synthetic flag is "
                                "not a boolean")
        if self.cost <= 0 or self.bandwidth <= 0:
            raise TopologyError("cost and bandwidth must be positive")
        if self.delay < 0 or self.jitter < 0:
            raise TopologyError("delay and jitter must be non-negative")
        if not 0.0 <= self.loss_prob <= 1.0:
            raise TopologyError("loss_prob outside [0, 1]")
        if not 0.0 <= self.i_factor <= 1.0:
            raise TopologyError("i_factor outside [0, 1]")

    @property
    def key(self) -> tuple[int, int]:
        return (self.u, self.v) if self.u < self.v else (self.v, self.u)


@dataclass(frozen=True)
class TopologyParams:
    """Knobs for the random-geometric generator; the link weight ranges and
    radios per node are the module constants above.

    The default area is a square sized so the expected node degree stays
    around 4-6 at the default 250 m range: 1000x1000 m at 25 nodes, with the
    side scaled by sqrt(node_count / 25).
    """
    node_count: int
    area: tuple[float, float] | None = None
    transmission_range: float = 250.0
    gateway_count: int = 3
    rng_seed: int = 0

    def __post_init__(self):
        counts = (self.node_count, self.gateway_count, self.rng_seed)
        if not all(type(c) is int for c in counts):  # no bools, no floats
            raise TopologyError(
                "node_count, gateway_count and rng_seed must be integers")
        if self.rng_seed < 0:
            raise TopologyError("rng_seed must be >= 0")
        if self.node_count < 2:
            raise TopologyError("node_count must be >= 2")
        if not 1 <= self.gateway_count < self.node_count:
            raise TopologyError("gateway_count must be in [1, node_count)")
        if self.area is not None and not (
                isinstance(self.area, (tuple, list)) and len(self.area) == 2
                and all(is_finite(side) and side > 0 for side in self.area)):
            raise TopologyError(
                "area must be two finite, positive sides (width, height)")
        if not (is_finite(self.transmission_range)
                and self.transmission_range > 0):
            raise TopologyError("transmission_range must be finite and positive")

    def resolved_area(self) -> tuple[float, float]:
        if self.area is not None:
            return self.area
        side = 1000.0 * math.sqrt(self.node_count / 25.0)
        return (side, side)


def _trace(pred: Sequence[int], node: int) -> list[int]:
    """``node`` and its predecessors in a Dijkstra tree, back to the root."""
    path = [node]
    while pred[path[-1]] != -1:
        path.append(pred[path[-1]])
    return path


class MeshTopology:
    """Immutable weighted mesh graph with gateways.

    Construction checks that node ids, link endpoints and gateways are
    plain ints (True == 1 would pass every other check), that node ids are
    dense from 0, that every link joins two known nodes and appears once,
    that the gateway set is a non-empty set of nodes, and that the range is
    a finite positive number.  It does not check connectivity: see
    gateway_costs().  The instance is then safe to share across threads:
    it caches only what no query's source changes (the gateway tree, trap
    links, the source ranking), and each run keeps its own source row and
    stitch searches.
    """

    def __init__(self, nodes: list[Node], links: list[Link],
                 gateways: set[int], transmission_range: float):
        ids = [n.id for n in nodes] + [e for l in links for e in (l.u, l.v)]
        if not all(type(x) is int for x in ids + list(gateways)):
            raise TopologyError(
                "node ids, link endpoints and gateways must be integers")
        self.nodes: tuple[Node, ...] = tuple(sorted(nodes, key=lambda n: n.id))
        if [n.id for n in self.nodes] != list(range(len(self.nodes))):
            raise TopologyError("node ids must be dense from 0")
        # link_table[u][v] is the link joining u and its neighbour v, keyed
        # in link insertion order: Dijkstra relaxes neighbours in that order,
        # which fixes how equal-cost ties break.  Every other view of the
        # links derives from this table.  Read it, never modify it.
        # Endpoints are plain ints (checked above), so one range test each.
        n = len(self.nodes)
        table: list[dict[int, Link]] = [{} for _ in self.nodes]
        for link in links:
            u, v = link.u, link.v
            if not (0 <= u < n and 0 <= v < n):
                raise TopologyError(f"link {u}-{v} references unknown node")
            if v in table[u]:
                raise TopologyError(f"duplicate link {link.key}")
            table[u][v] = table[v][u] = link
        self.link_table: tuple[dict[int, Link], ...] = tuple(table)
        self.gateways: frozenset[int] = frozenset(gateways)
        if not self.gateways:
            raise TopologyError("gateway set is empty")
        if not self.gateways <= {n.id for n in self.nodes}:
            raise TopologyError("gateways must be topology nodes")
        if not (is_finite(transmission_range) and transmission_range > 0):
            raise TopologyError("range must be finite and positive")
        self.transmission_range = float(transmission_range)
        # Dijkstra's (neighbour, cost) pairs keep link_table's order;
        # adjacency[u] is u's neighbours in ascending id order.
        self._weighted_adj = tuple(
            tuple([(v, link.cost) for v, link in t.items()]) for t in table)
        self.adjacency: tuple[tuple[int, ...], ...] = tuple(
            tuple(sorted(t)) for t in table)

    # -- basic accessors ---------------------------------------------------

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @property
    def links(self) -> tuple[Link, ...]:
        """Every link once, in ascending (lower id, higher id) order."""
        table = self.link_table
        return tuple(table[u][v] for u, nbrs in enumerate(self.adjacency)
                     for v in nbrs if u < v)

    def has_node(self, u: int) -> bool:
        """True iff ``u`` is a node id: an integral number (numpy's
        integers are registered as numbers.Integral), not a bool, from 0 to
        n-1."""
        if type(u) is int:
            return 0 <= u < len(self.nodes)
        return (isinstance(u, numbers.Integral) and not isinstance(u, bool)
                and 0 <= u < len(self.nodes))

    @cached_property
    def max_link_cost(self) -> float:
        return max((l.cost for t in self.link_table for l in t.values()),
                   default=0.0)

    # -- shortest paths ----------------------------------------------------

    def _search(self, sources: Iterable[int], dist: list[float],
                pred: list[int], avoid: AbstractSet[int] = frozenset()):
        """Dijkstra from the nearest of the distinct ``sources``: fills
        ``dist`` (all UNREACHABLE on entry) with each node's least link-cost
        sum and ``pred`` (all -1) with its predecessor on that path, and
        yields each node as it settles, before relaxing its links.  Paths
        never enter a node in ``avoid``.

        A settled node's distance and predecessor chain are final, so a
        caller may stop or suspend the search there; run to the end, it
        leaves every node's entries final, and -1 at sources and unreached
        nodes.  Equal-cost ties break as pinned in
        tests/test_behaviour_pin.py: heap entries are (distance, push
        counter, node), neighbours are relaxed in link insertion order, a
        node's entry is replaced only on a strictly smaller distance, and
        settled nodes are skipped.  Costs are positive, so a settled node is
        never improved and a popped entry is stale exactly when its distance
        exceeds the node's.
        """
        heap: list[tuple[float, int, int]] = []
        pushes = 0
        for s in sources:
            dist[s] = 0.0
            heap.append((0.0, pushes, s))
            pushes += 1
        adj = self._weighted_adj
        heappush, heappop = heapq.heappush, heapq.heappop
        while heap:
            d, _, u = heappop(heap)
            if d > dist[u]:
                continue
            yield u
            for v, cost in adj[u]:
                nd = d + cost
                if nd < dist[v]:
                    if v in avoid:
                        continue
                    dist[v] = nd
                    pred[v] = u
                    heappush(heap, (nd, pushes, v))
                    pushes += 1

    def _tree(self, sources: Iterable[int]) -> tuple[list[float], list[int]]:
        """The full Dijkstra tree from ``sources``: fresh dist and pred."""
        n = len(self.nodes)
        dist, pred = [UNREACHABLE] * n, [-1] * n
        for _ in self._search(sources, dist, pred):
            pass
        return dist, pred

    @cached_property
    def _gateway_tree(self) -> tuple[list[float], list[int]]:
        # Ascending ids fix how equal-cost ties break (gateway_path).
        return self._tree(sorted(self.gateways))

    def gateway_costs(self) -> Sequence[float]:
        """Per node, the least link-cost sum to its nearest gateway, or
        UNREACHABLE; the mesh's one cached row itself: read it, never
        modify it."""
        return self._gateway_tree[0]

    def gateway_path(self, node: int) -> list[int] | None:
        """A least-cost path from ``node`` to its nearest gateway, or None.
        Equal-cost ties break as in one Dijkstra from the gateways in
        ascending id order: links are undirected, so the predecessors in
        that tree lead back to the nearest gateway."""
        if not self.has_node(node):
            raise TopologyError("unknown node id")
        dist, pred = self._gateway_tree
        if dist[node] == UNREACHABLE:
            return None
        return _trace(pred, node)

    @cached_property
    def trap_links(self) -> tuple[tuple[int, ...], ...]:
        """Per node ``u``, the neighbours ``v`` such that u->v is a trap
        link: ``v`` is not a gateway and every path from ``v`` to a gateway
        passes through ``u`` (vacuously so when none exists).  A walk that
        never revisits a node and crosses u->v cannot reach a gateway.

        The cut-vertex test of Hopcroft & Tarjan (1973) on the mesh plus a
        virtual root linked to every gateway finds them: u->v is a trap
        exactly when ``v`` lies in the subtree of a child ``c`` of ``u`` with
        ``low[c] >= disc[u]``.  A node no search reaches has no gateway in its
        component, so all its links are traps.  Each node's trap links are a
        tuple in ``adjacency`` order, the shared empty tuple for most nodes.
        """
        adj, gateways = self.adjacency, self.gateways
        n = len(adj)
        # One search from each gateway not yet reached, in ascending id order,
        # as a child of the root.  Discovery order counts from 1, so 0 is the
        # root's order and marks a node no search has reached.
        disc = [0] * n
        low = [0] * n      # least discovery order one back edge reaches
        end = [0] * n      # one past the last discovery order in the subtree
        cuts: dict[int, list[int]] = {}   # children cut off by their parent
        order = 1
        for root in sorted(gateways):
            if disc[root]:
                continue
            disc[root] = order  # low stays 0: a gateway links to the root
            order += 1
            stack = [(root, iter(adj[root]))]
            while stack:
                u, todo = stack[-1]
                for v in todo:
                    if not disc[v]:
                        disc[v] = order
                        low[v] = 0 if v in gateways else order
                        order += 1
                        stack.append((v, iter(adj[v])))
                        break
                    # The parent's own link lowers low[u] to disc[parent]
                    # at most, which leaves the cut test below unchanged.
                    low[u] = min(low[u], disc[v])
                else:
                    stack.pop()
                    end[u] = order
                    if stack:
                        p = stack[-1][0]
                        low[p] = min(low[p], low[u])
                        if low[u] >= disc[p]:
                            cuts.setdefault(p, []).append(u)
        table = [() if disc[u] else adj[u] for u in range(n)]
        for u, children in cuts.items():
            table[u] = tuple(v for v in adj[u] if any(
                disc[c] <= disc[v] < end[c] for c in children))
        return tuple(table)

    @cached_property
    def ranked_sources(self) -> tuple[int, ...]:
        """The nodes other than gateways that reach a gateway, by ascending
        gateway_costs(), equal costs by ascending id.  Ranked once per
        mesh and kept, read-only, for every source pick (cli.default_source).
        """
        cost, gateways = self.gateway_costs(), self.gateways
        # A stable sort of ascending ids: equal costs rank by id.
        return tuple(sorted([n for n in range(self.node_count)
                             if n not in gateways and cost[n] != UNREACHABLE],
                            key=cost.__getitem__))

    def shortest_path_cost(self, source: int, target: int) -> float:
        """Minimal sum of link costs, or the UNREACHABLE marker (inf)."""
        if not (self.has_node(source) and self.has_node(target)):
            raise TopologyError("unknown node id")
        return self._tree((source,))[0][target]

    def shortest_path_costs(self, source: int) -> list[float]:
        """shortest_path_cost from ``source`` to every node, indexed by node
        id: a new row on every call, which the caller owns."""
        if not self.has_node(source):
            raise TopologyError("unknown node id")
        return self._tree((source,))[0]

    def shortest_path(self, source: int, target: int,
                      avoid: AbstractSet[int] = frozenset(),
                      ) -> list[int] | None:
        """A least-cost path that enters no node in ``avoid``, or None when
        none exists.  Each query runs its own search, which stops once it
        settles ``target``; the mesh caches nothing for it."""
        if not (self.has_node(source) and self.has_node(target)):
            raise TopologyError("unknown node id")
        n = len(self.nodes)
        dist, pred = [UNREACHABLE] * n, [-1] * n
        for u in self._search((source,), dist, pred, avoid):
            if u == target:
                break
        else:
            return None
        path = _trace(pred, target)
        path.reverse()
        return path

    def stitch(self, u: int, v: int, searches: dict) -> list[int] | None:
        """shortest_path(u, v) of known nodes, for repair; ``searches`` is
        the caller's per-run dict, and the only state a stitch touches.  A
        search from ``u`` runs only until ``v`` settles and waits in
        ``searches[u]`` for the run's later stitches from ``u`` to resume
        it; a settled node's chain is final, so a target it has settled is
        read as it stands."""
        search = searches.get(u)
        if search is None:
            n = len(self.nodes)
            dist, pred = [UNREACHABLE] * n, [-1] * n
            search = searches[u] = (pred, bytearray(n),
                                    self._search((u,), dist, pred))
        pred, settled, steps = search
        if not settled[v]:
            for w in steps:
                settled[w] = 1
                if w == v:
                    break
            else:
                return None
        path = _trace(pred, v)
        path.reverse()
        return path

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "range": self.transmission_range,
            "gateways": sorted(self.gateways),
            "nodes": [
                {"id": n.id, "x": n.x, "y": n.y, "radios": list(n.radios)}
                for n in self.nodes
            ],
            "links": [
                {
                    "u": l.u, "v": l.v, "channel": l.channel, "cost": l.cost,
                    "bandwidth": l.bandwidth, "delay": l.delay,
                    "jitter": l.jitter, "loss": l.loss_prob,
                    "ifactor": l.i_factor, "synthetic": l.synthetic,
                }
                for l in self.links
            ],
        }

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, data: dict) -> "MeshTopology":
        try:
            nodes = [Node(d["id"], d["x"], d["y"], tuple(d["radios"]))
                     for d in data["nodes"]]
            links = [Link(d["u"], d["v"], d["channel"], d["cost"],
                          d["bandwidth"], d["delay"], d["jitter"], d["loss"],
                          d.get("ifactor", 0.0), d.get("synthetic", False))
                     for d in data["links"]]
            return cls(nodes, links, set(data["gateways"]), data["range"])
        # OverflowError: math.isfinite on an int too large for a float.
        except (KeyError, TypeError, OverflowError) as exc:
            raise TopologyError(f"malformed topology document: {exc}") from exc

    @classmethod
    def from_json(cls, text: str) -> "MeshTopology":
        return cls.from_dict(json.loads(text))


# -- validation ------------------------------------------------------------

def validate_path(topo: MeshTopology, path: list[int],
                  require_gateway: bool = True) -> bool:
    """True iff ``path`` is a non-empty simple walk along existing links.

    With ``require_gateway`` the last node must additionally be a gateway.
    Never raises: malformed input simply yields False.  Any sequence is
    judged as the list of its items, so an integer array as its list.
    """
    try:
        if not len(path):
            return False
        rest = path[1:]
    except (TypeError, KeyError):  # not a sequence; a dict gives KeyError
        return False
    if set(map(type, path)) == {int}:  # plain ints: one range test
        if min(path) < 0 or max(path) >= topo.node_count:
            return False
    elif not all(map(topo.has_node, path)):
        return False
    if len(set(path)) != len(path):
        return False
    table = topo.link_table
    for u, v in zip(path, rest):
        if v not in table[u]:
            return False
    if require_gateway and path[-1] not in topo.gateways:
        return False
    return True


# -- generation ------------------------------------------------------------

# Relative slack on numpy distances when shortlisting pairs for the exact
# math.dist test; rounding differences are a few ulps.
_SLACK = 1.0 + 1e-9


def _distances(ax: np.ndarray, ay: np.ndarray,
               bx: np.ndarray, by: np.ndarray) -> np.ndarray:
    """Euclidean distance between every point a and every point b."""
    import numpy as np
    return np.hypot(ax[:, None] - bx[None, :], ay[:, None] - by[None, :])


def _worst_interference(links: Sequence[tuple[int, int, int]],
                        ) -> list[float]:
    """Per (u, v, channel) link, the worst interference_factor against any
    other link sharing an endpoint, or 0.0 when no other link does.

    IFACTOR_TABLE does not increase with separation, so the worst factor is
    the factor of the smallest channel gap.
    """
    # in_use[x][c]: how many of node x's links are on channel c.
    in_use: dict[int, dict[int, int]] = {}
    for u, v, channel in links:
        for x in (u, v):
            counts = in_use.get(x)
            if counts is None:
                in_use[x] = {channel: 1}
            else:
                counts[channel] = counts.get(channel, 0) + 1
    factors = []
    for u, v, channel in links:
        at_u, at_v = in_use[u], in_use[v]
        if at_u[channel] > 1 or at_v[channel] > 1:
            gap = 0  # another link at an endpoint is on the same channel
        else:
            # The link is alone on its channel at both ends, so every other
            # channel in use there is another link's.  With none, the gap
            # is one that interference_factor counts as orthogonal.
            gap = len(IFACTOR_TABLE)
            for c in (*at_u, *at_v):
                d = c - channel if c > channel else channel - c
                if 0 < d < gap:
                    gap = d
        factors.append(interference_factor(gap))
    return factors


def _pick_gateways(positions: np.ndarray, count: int,
                   rng: np.random.Generator) -> list[int]:
    import numpy as np
    # Spread gateways over the deployment via a short k-means on node
    # positions; each gateway is the node nearest a cluster center.
    n = len(positions)
    centers = positions[rng.choice(n, size=count, replace=False)].copy()
    # Lloyd's iterations, at most 12.  Each depends only on the centers, so
    # once one leaves them bitwise unchanged every later one would too.
    for _ in range(12):
        d2 = ((positions[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        assign = d2.argmin(axis=1)
        previous = centers.copy()
        for k in range(count):
            members = positions[assign == k]
            if len(members):
                centers[k] = members.mean(axis=0)
        if np.array_equal(centers, previous):
            break
    chosen: list[int] = []
    for k in range(count):
        order = np.argsort(((positions - centers[k]) ** 2).sum(axis=1))
        for idx in order:
            if int(idx) not in chosen:
                chosen.append(int(idx))
                break
    return sorted(chosen)


def _draw_links(bits: np.random.PCG64,
                pools: Sequence[Sequence[int]]) -> tuple[list[int], np.ndarray]:
    """Each link's channel and four weights in [0, 1), drawn and with
    ``bits`` left as Generator.choice(pool) and four random() calls per link.

    Decoded from one block of raw PCG64 words by numpy's rules (NEP 19 keeps
    the raw stream stable): a 32-bit draw is the half-word the state holds,
    or else the low half of a fresh word, whose high half is kept;
    integers(0, k) of a 32-bit x is Lemire's x * k >> 32 (a range of one
    draws nothing); random() of a word w is (w >> 11) * 2**-53.  Two radios
    per node give pools of 1, 2 or 4, and Lemire's method never rejects a
    range that divides 2**32.
    """
    import numpy as np
    state = bits.state
    buffered, half = state["has_uint32"], state["uinteger"]
    halves = sum(len(pool) > 1 for pool in pools)
    raw = bits.random_raw(4 * len(pools) + (halves - buffered + 1) // 2)
    words = raw.tolist()
    channels, starts, at = [], [], 0
    for pool in pools:
        k, x = len(pool), 0
        if k > 1:
            if buffered:
                buffered, x = 0, half
            else:
                buffered, half, x = 1, words[at] >> 32, words[at] & 0xFFFFFFFF
                at += 1
        channels.append(pool[x * k >> 32])
        starts.append(at)
        at += 4
    # Hand the unused half-word back, as one Generator call per draw would.
    state = bits.state
    state["has_uint32"], state["uinteger"] = buffered, half
    bits.state = state
    return channels, (raw[np.array(starts)[:, None] + np.arange(4)]
                      >> 11) * 2.0 ** -53


def generate_topology(params: TopologyParams) -> MeshTopology:
    """Random-geometric mesh matching ``params``; pure function of the seed.

    Nodes are placed uniformly over the area; every pair within transmission
    range gets a link with weights drawn uniformly from COST_RANGE,
    DELAY_RANGE, JITTER_RANGE and LOSS_RANGE.  Disconnected components are
    stitched by linking nearest inter-component node pairs (flagged
    synthetic, exempt from the range constraint).  Per-link interference is
    the worst channel overlap against any link sharing an endpoint.
    """
    import numpy as np
    # default_rng(seed) builds exactly this; the link draws below decode
    # PCG64's raw words.
    rng = np.random.Generator(np.random.PCG64(params.rng_seed))
    width, height = params.resolved_area()
    n = params.node_count

    xs = rng.uniform(0.0, width, size=n)
    ys = rng.uniform(0.0, height, size=n)
    # Each node's RADIOS_PER_NODE (two) channels, as
    # Generator.choice(NUM_CHANNELS, 2, replace=False) draws them: Floyd's
    # method takes a draw in [0, NUM_CHANNELS - 2], then one in
    # [0, NUM_CHANNELS - 1] that becomes NUM_CHANNELS - 1 on a collision,
    # and the shuffle after it one in [0, 1].  Sorted, the shuffle leaves
    # nothing but its draw.  integers() with one bound per draw makes the
    # same draws in the same order.
    a, b, _ = rng.integers(
        0, np.tile([NUM_CHANNELS - 1, NUM_CHANNELS, 2], n)).reshape(n, 3).T
    b = np.where(b == a, NUM_CHANNELS - 1, b)
    radios = list(zip((np.minimum(a, b) + 1).tolist(),
                      (np.maximum(a, b) + 1).tolist()))
    nodes = [Node(i, float(xs[i]), float(ys[i]), radios[i]) for i in range(n)]

    # Every pair within range, in row-major (u, v) order, the order the
    # links draw in.  numpy's distances only shortlist the pairs (with a
    # little slack for rounding); math.dist decides, as it decides the
    # stitching.
    points = list(zip(xs.tolist(), ys.tolist()))
    # A plain float, so reach * _SLACK keeps its slack for a numpy float32
    # range too.
    reach = float(params.transmission_range)
    distance = _distances(xs, ys, xs, ys)
    near = np.triu(distance <= reach * _SLACK, k=1)
    pairs = [(u, v) for u, v in np.argwhere(near).tolist()
             if math.dist(points[u], points[v]) <= reach]
    in_range = len(pairs)

    # Stitch components until connected: each round links the component of
    # node 0 to its nearest other node, ties going to the other component
    # with the lowest node id, then the lowest u, then the lowest v.  Each
    # union makes the lower root the parent, so every component is labelled
    # by its lowest node id.  A round adds one whole other component to node
    # 0's and no two others ever merge, so the labels are taken once.
    low = list(range(n))

    def find(x: int) -> int:
        while low[x] != x:
            low[x] = low[low[x]]
            x = low[x]
        return x

    for u, v in pairs:
        a, b = find(u), find(v)
        low[max(a, b)] = min(a, b)
    component = np.array([find(i) for i in range(n)])
    in_base = component == 0
    while not in_base.all():
        base, other = np.flatnonzero(in_base), np.flatnonzero(~in_base)
        block = distance[np.ix_(base, other)]
        rows, cols = np.nonzero(block <= block.min() * _SLACK)
        _, _, u, v = min((math.dist(points[base[i]], points[other[j]]),
                          int(component[other[j]]), int(base[i]),
                          int(other[j]))
                         for i, j in zip(rows, cols))
        in_base |= component == component[v]
        pairs.append((min(u, v), max(u, v)))

    # Each link draws its channel from those both ends share, else all theirs.
    pools = [[c for c in radios[u] if c in radios[v]]
             or sorted(radios[u] + radios[v]) for u, v in pairs]
    channels, unit = _draw_links(rng.bit_generator, pools)
    ranges = np.array([COST_RANGE, DELAY_RANGE, JITTER_RANGE, LOSS_RANGE])
    lo, span = ranges[:, 0], ranges[:, 1] - ranges[:, 0]
    weights = lo + span * unit

    ends = [(u, v, channel) for (u, v), channel in zip(pairs, channels)]
    links = [Link(u, v, channel, cost, BANDWIDTH, delay, jitter, loss,
                  i_factor, i >= in_range)
             for i, ((u, v, channel), (cost, delay, jitter, loss), i_factor)
             in enumerate(zip(ends, weights.tolist(),
                              _worst_interference(ends)))]
    gateways = _pick_gateways(np.stack([xs, ys], axis=1),
                              params.gateway_count, rng)
    return MeshTopology(nodes, links, set(gateways),
                        params.transmission_range)
