import heapq
import itertools
import json
import math
import random
from collections import Counter
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from meshroute.topology import (
    BANDWIDTH,
    COST_RANGE,
    DELAY_RANGE,
    JITTER_RANGE,
    LOSS_RANGE,
    NUM_CHANNELS,
    RADIOS_PER_NODE,
    Link,
    MeshTopology,
    Node,
    TopologyError,
    TopologyParams,
    UNREACHABLE,
    _SLACK,
    _distances,
    _draw_links,
    _pick_gateways,
    _worst_interference,
    generate_topology,
    interference_factor,
    validate_path,
)
from meshroute.qos import InvalidPathError, PenaltyCoeffs, QosRequest, fitness
from meshroute.simulation import TrafficSpec, simulate_path
from meshroute.cli import default_source

from conftest import (LINK_DEFAULTS, brute_force_trap_links, island_mesh,
                      make_topo, source_for)
from oracle import PathExplosionError, enumerate_simple_paths
from test_behaviour_pin import tie_mesh


def reference_detour(topo, source, target, avoid):
    """shortest_path(source, target, avoid) from a Dijkstra that settles
    every node it can reach, as first written: heap entries are (distance,
    push counter, node), neighbours are relaxed in link insertion order
    (the order of each link_table row), a node's entry is replaced only on
    a strictly smaller distance, and no path enters a node in ``avoid``."""
    dist = [math.inf] * topo.node_count
    pred = [-1] * topo.node_count
    dist[source] = 0.0
    heap = [(0.0, 0, source)]
    pushes = 1
    while heap:
        d, _, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for v, link in topo.link_table[u].items():
            nd = d + link.cost
            if nd < dist[v] and v not in avoid:
                dist[v], pred[v] = nd, u
                heapq.heappush(heap, (nd, pushes, v))
                pushes += 1
    if dist[target] == math.inf:
        return None
    path = [target]
    while path[-1] != source:
        path.append(pred[path[-1]])
    return path[::-1]


def reference_generate_topology(params: TopologyParams) -> MeshTopology:
    """generate_topology as first written: one Generator call per drawn
    value, each Link built and then rebuilt with its interference, the
    interference a max over every pair of links sharing an endpoint,
    stitching distances recomputed every round, and always 12 k-means
    iterations for the gateways."""
    rng = np.random.default_rng(params.rng_seed)
    width, height = params.resolved_area()
    n = params.node_count

    xs = rng.uniform(0.0, width, size=n)
    ys = rng.uniform(0.0, height, size=n)
    radios = [tuple(sorted(int(c) for c in
                           rng.choice(np.arange(1, NUM_CHANNELS + 1),
                                      size=RADIOS_PER_NODE, replace=False)))
              for _ in range(n)]
    nodes = [Node(i, float(xs[i]), float(ys[i]), radios[i]) for i in range(n)]

    def draw_link(u: int, v: int, synthetic: bool) -> Link:
        shared = set(radios[u]) & set(radios[v])
        pool = sorted(shared) if shared else sorted(set(radios[u]) | set(radios[v]))
        channel = int(rng.choice(pool))
        return Link(
            u, v, channel,
            cost=float(rng.uniform(*COST_RANGE)),
            bandwidth=BANDWIDTH,
            delay=float(rng.uniform(*DELAY_RANGE)),
            jitter=float(rng.uniform(*JITTER_RANGE)),
            loss_prob=float(rng.uniform(*LOSS_RANGE)),
            synthetic=synthetic,
        )

    # Every pair within range, in row-major (u, v) order so the RNG draws
    # follow it.  numpy's distances only shortlist the pairs (with a little
    # slack for rounding); math.dist decides, as it decides the stitching.
    links: dict[tuple[int, int], Link] = {}
    points = list(zip(xs.tolist(), ys.tolist()))
    reach = params.transmission_range
    near = np.triu(_distances(xs, ys, xs, ys) <= reach * _SLACK, k=1)
    for u, v in zip(*np.nonzero(near)):
        u, v = int(u), int(v)
        if math.dist(points[u], points[v]) <= reach:
            links[(u, v)] = draw_link(u, v, synthetic=False)

    # Stitch components until connected: each round links the component of
    # node 0 to its nearest other node, ties going to the other component
    # with the lowest node id, then the lowest u, then the lowest v.
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in links:
        parent[find(u)] = find(v)
    while True:
        roots = np.array([find(i) for i in range(n)])
        in_base = roots == roots[0]
        if in_base.all():
            break
        # Lowest node id of each component, indexed by its root.
        lowest = np.full(n, n)
        np.minimum.at(lowest, roots, np.arange(n))
        base, other = np.flatnonzero(in_base), np.flatnonzero(~in_base)
        block = _distances(xs[base], ys[base], xs[other], ys[other])
        rows, cols = np.nonzero(block <= block.min() * _SLACK)
        _, _, u, v = min((math.dist(points[base[i]], points[other[j]]),
                          int(lowest[roots[other[j]]]), int(base[i]),
                          int(other[j]))
                         for i, j in zip(rows, cols))
        u, v = min(u, v), max(u, v)
        links[(u, v)] = draw_link(u, v, synthetic=True)
        parent[find(u)] = find(v)

    # Worst-case overlap with any link sharing an endpoint.
    incident: dict[int, list[tuple[int, int]]] = {i: [] for i in range(n)}
    for key in links:
        incident[key[0]].append(key)
        incident[key[1]].append(key)
    finished: list[Link] = []
    for key, link in links.items():
        worst = 0.0
        for endpoint in key:
            for other_key in incident[endpoint]:
                if other_key == key:
                    continue
                sep = abs(link.channel - links[other_key].channel)
                worst = max(worst, interference_factor(sep))
        finished.append(replace(link, i_factor=worst))

    gateways = reference_pick_gateways(np.stack([xs, ys], axis=1),
                                       params.gateway_count, rng)
    return MeshTopology(nodes, finished, set(gateways),
                        params.transmission_range)


def generate_with_state(make, params):
    """``make(params)`` as JSON and the final state of the bit generator of
    the one Generator it builds, through np.random.Generator or
    np.random.default_rng."""
    built = []

    def recorder(name):
        original = getattr(np.random, name)

        def build(*args, **kwargs):
            built.append(original(*args, **kwargs))
            return built[-1]
        return build

    with mock.patch.object(np.random, "Generator", recorder("Generator")), \
            mock.patch.object(np.random, "default_rng",
                              recorder("default_rng")):
        text = make(params).to_json()
    (rng,) = built
    return text, rng.bit_generator.state


def reference_centers(positions, count, rng, iterations=12):
    """The gateway k-means centres after ``iterations`` Lloyd iterations,
    as _pick_gateways was first written."""
    n = len(positions)
    centers = positions[rng.choice(n, size=count, replace=False)].copy()
    for _ in range(iterations):
        d2 = ((positions[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        assign = d2.argmin(axis=1)
        for k in range(count):
            members = positions[assign == k]
            if len(members):
                centers[k] = members.mean(axis=0)
    return centers


def reference_pick_gateways(positions, count, rng):
    """_pick_gateways as first written: always 12 Lloyd iterations, then
    each centre's nearest node not yet chosen."""
    centers = reference_centers(positions, count, rng)
    chosen = []
    for k in range(count):
        order = np.argsort(((positions - centers[k]) ** 2).sum(axis=1))
        chosen.append(int(next(i for i in order if int(i) not in chosen)))
    return sorted(chosen)


def brute_force_worst_interference(links):
    """Per (u, v, channel) link, the max interference_factor over every
    other link sharing an endpoint, 0.0 with none."""
    worst = []
    for i, (u, v, channel) in enumerate(links):
        worst.append(max((interference_factor(abs(channel - c))
                          for j, (a, b, c) in enumerate(links)
                          if j != i and {a, b} & {u, v}), default=0.0))
    return worst


class TestInterferenceFactor:
    def test_cochannel_is_one(self):
        assert interference_factor(0) == 1.0

    def test_orthogonal_is_zero(self):
        assert interference_factor(5) == 0.0

    def test_beyond_table_is_zero(self):
        assert interference_factor(11) == 0.0

    def test_monotone_nonincreasing(self):
        values = [interference_factor(s) for s in range(12)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_negative_separation_rejected(self):
        with pytest.raises(ValueError):
            interference_factor(-1)


class TestGeneration:
    def test_two_nodes_in_range_get_one_link(self):
        # A 1x1 m area forces the pair well inside the 250 m range.
        topo = generate_topology(TopologyParams(node_count=2, area=(1.0, 1.0),
                                                gateway_count=1, rng_seed=0))
        assert len(topo.links) == 1
        assert not topo.links[0].synthetic

    def test_far_apart_nodes_get_synthetic_stitch(self):
        # Seed chosen so the two placements land > 250 m apart.
        params = TopologyParams(node_count=2, area=(4000.0, 4000.0),
                                gateway_count=1, rng_seed=1)
        topo = generate_topology(params)
        a, b = topo.nodes
        assert math.dist((a.x, a.y), (b.x, b.y)) > 250.0
        assert len(topo.links) == 1
        assert topo.links[0].synthetic
        assert UNREACHABLE not in topo.gateway_costs()

    def test_deterministic_per_seed(self):
        params = TopologyParams(node_count=25, rng_seed=42)
        a = generate_topology(params).to_json()
        b = generate_topology(params).to_json()
        assert a == b

    def test_range_predicate_except_synthetic(self):
        topo = generate_topology(TopologyParams(node_count=30, rng_seed=7))
        pos = {n.id: (n.x, n.y) for n in topo.nodes}
        for u, v in itertools.combinations(range(topo.node_count), 2):
            link = topo.link_table[u].get(v)
            within = math.dist(pos[u], pos[v]) <= topo.transmission_range
            if within:
                assert link is not None
            elif link is not None:
                assert link.synthetic

    def test_generated_graph_connected_with_gateways(self):
        for seed in range(5):
            topo = generate_topology(TopologyParams(node_count=40, rng_seed=seed))
            assert UNREACHABLE not in topo.gateway_costs()
            assert len(topo.gateways) == 3
            assert all(0.0 <= l.i_factor <= 1.0 for l in topo.links)
            assert all(1 <= l.channel <= 11 for l in topo.links)

    def test_bad_params_rejected(self):
        with pytest.raises(TopologyError):
            TopologyParams(node_count=1)
        with pytest.raises(TopologyError):
            TopologyParams(node_count=5, gateway_count=5)
        with pytest.raises(TopologyError):
            TopologyParams(node_count=5, area=(0.0, 100.0))

    @pytest.mark.parametrize("bad", [
        # Each once died inside numpy (TypeError or ValueError) or, for the
        # bool, was taken as seed 1.
        dict(node_count=25.0),
        dict(gateway_count=2.0),
        dict(rng_seed=1.5),
        dict(rng_seed=-1),
        dict(rng_seed=True),
    ])
    def test_non_integer_or_negative_counts_rejected(self, bad):
        with pytest.raises(TopologyError):
            TopologyParams(**{"node_count": 25, **bad})

    # True once passed as a 1 m range; "a" raised TypeError and 10**400
    # OverflowError.
    @pytest.mark.parametrize("reach", [0.0, -250.0, math.nan, math.inf,
                                       True, "a",
                                       pytest.param(10**400, id="10**400")])
    def test_bad_transmission_range_rejected(self, reach):
        with pytest.raises(TopologyError):
            TopologyParams(node_count=5, transmission_range=reach)

    # The last three once constructed and failed in generate_topology with
    # a bare ValueError, or raised TypeError.
    @pytest.mark.parametrize("area", [
        (math.nan, 1000.0), (math.inf, 1000.0), (1000.0, math.nan),
        (1000.0, -math.inf), (-1.0, 1000.0), (True, 5.0), ("a", 5.0),
        (500.0,), 5.0, (500.0, 500.0, 500.0)])
    def test_bad_area_rejected(self, area):
        with pytest.raises(TopologyError):
            TopologyParams(node_count=5, area=area)

    def test_numpy_range_builds_the_mesh_of_its_value(self):
        # Both ranges once passed TopologyParams, and generate_topology then
        # failed in MeshTopology with "range must be finite and positive".
        want = generate_topology(TopologyParams(25, transmission_range=250))
        got = generate_topology(TopologyParams(
            25, transmission_range=np.int64(250)))
        assert got.to_json() == want.to_json()
        topo = generate_topology(TopologyParams(
            25, transmission_range=np.float32(250.0)))
        assert type(topo.transmission_range) is float
        assert topo.transmission_range == 250.0
        assert topo.to_json() == want.to_json()

    def test_bandwidth_and_interference_saturation_pinned(self):
        # Today's link model: one bandwidth everywhere, and 2 radios per node
        # put most links on a channel shared with a neighbouring link.  A
        # change to that model must show here as a deliberate diff.
        links = [link for seed in range(5)
                 for link in generate_topology(TopologyParams(
                     node_count=200, rng_seed=seed)).links]
        assert all(link.bandwidth == BANDWIDTH for link in links)
        assert len(links) == 2285
        assert Counter(link.i_factor for link in links) == {
            1.0: 1909, 0.7: 229, 0.4: 74, 0.2: 36, 0.1: 21, 0.0: 16}


class TestGeneratorMatchesReference:
    """generate_topology draws every node's radios in one Generator call,
    decodes the link draws from one block of raw PCG64 words, builds each
    Link once, takes interference from the smallest channel gap and
    stitches on the pair scan's distances; every mesh, and the RNG state it
    leaves, stays the same."""

    DEFAULT_SIZES = [2, 3, 10, 25, 125, 200, 500]

    @staticmethod
    def assert_same_mesh(params):
        got, got_state = generate_with_state(generate_topology, params)
        want, want_state = generate_with_state(reference_generate_topology,
                                               params)
        # The state the last draw left, the unused half-word included.
        assert got_state == want_state, params
        # Compare to one bool: pytest's diff of two long one-line strings
        # takes minutes.
        same = got == want
        if not same:
            at = next(i for i, (a, b) in enumerate(
                itertools.zip_longest(got, want)) if a != b)
            pytest.fail(f"{params}: mesh JSON differs from the reference at "
                        f"character {at}: {got[at - 60:at + 60]!r} != "
                        f"{want[at - 60:at + 60]!r}")

    @staticmethod
    def default_params(node_count, seed):
        return TopologyParams(node_count, gateway_count=min(3, node_count - 1),
                              rng_seed=seed)

    @pytest.mark.parametrize("node_count", DEFAULT_SIZES)
    def test_default_params(self, node_count):
        for seed in range(3):
            self.assert_same_mesh(self.default_params(node_count, seed))

    def test_default_params_start_the_link_draws_on_both_states(self):
        # The link draws start with or without an unused half-word in the
        # state, as the radio draws left it, and a pool of one channel must
        # draw nothing from either; the cases above hold both states, each
        # on a mesh with such a pool.
        starts = set()
        for node_count, seed in itertools.product(self.DEFAULT_SIZES,
                                                  range(3)):
            params = self.default_params(node_count, seed)
            rng = np.random.default_rng(seed)
            rng.uniform(size=2 * node_count)
            for _ in range(node_count):
                rng.choice(NUM_CHANNELS, size=RADIOS_PER_NODE, replace=False)
            topo = generate_topology(params)
            radios = [set(node.radios) for node in topo.nodes]
            pool_of_one = any(len(radios[l.u] & radios[l.v]) == 1
                              for l in topo.links)
            starts.add((rng.bit_generator.state["has_uint32"], pool_of_one))
        assert {(0, True), (1, True)} <= starts

    def test_sparse_area_stitches_many_rounds(self):
        for seed in range(3):
            params = TopologyParams(60, area=(8000.0, 8000.0), rng_seed=seed)
            synthetic = [l for l in generate_topology(params).links
                         if l.synthetic]
            assert len(synthetic) >= 20
            self.assert_same_mesh(params)

    @pytest.mark.parametrize("params, synthetic_links", [
        (TopologyParams(1000, rng_seed=0), 36),
        (TopologyParams(1000, rng_seed=1), 32),
        (TopologyParams(300, area=(12000.0, 12000.0), rng_seed=0), 231),
        (TopologyParams(500, transmission_range=120.0, rng_seed=0), 293),
    ])
    def test_many_round_stitching(self, params, synthetic_links):
        synthetic = [l for l in generate_topology(params).links if l.synthetic]
        assert len(synthetic) == synthetic_links
        self.assert_same_mesh(params)

    def test_long_range_dense_mesh(self):
        for seed in range(2):
            params = TopologyParams(60, transmission_range=5000.0,
                                    rng_seed=seed)
            assert len(generate_topology(params).links) == 60 * 59 // 2
            self.assert_same_mesh(params)

    @pytest.mark.parametrize("node_count", [4, 10, 30])
    def test_gateways_up_to_all_but_one_node(self, node_count):
        for count in range(1, node_count):
            self.assert_same_mesh(TopologyParams(
                node_count, gateway_count=count, rng_seed=count))

    @pytest.mark.parametrize("area", [(1.0, 1.0), (4000.0, 4000.0)])
    def test_two_node_mesh(self, area):
        for seed in range(5):
            self.assert_same_mesh(TopologyParams(
                2, area=area, gateway_count=1, rng_seed=seed))


def with_half_word(seed, half):
    """A PCG64 seeded ``seed`` whose next 32-bit draw is ``half``, taken
    from the unused half-word numpy keeps in its state."""
    bits = np.random.PCG64(seed)
    state = bits.state
    state["has_uint32"], state["uinteger"] = 1, half
    bits.state = state
    return bits


class TestGeneratorDraws:
    """The radio and link draws equal the Generator calls they stand for,
    value for value, and leave the same state behind."""

    RADIO_SEEDS = range(6)

    @staticmethod
    def radio_twin(seed, n):
        """A Generator seeded ``seed`` that has made the position draws of
        an ``n``-node mesh, so its next draws are the radios'."""
        twin = np.random.default_rng(seed)
        twin.uniform(size=2 * n)
        return twin

    @pytest.mark.parametrize("seed", RADIO_SEEDS)
    def test_radios_match_choice_without_replacement(self, seed):
        n = 60
        twin = self.radio_twin(seed, n)
        want = [tuple(sorted(int(c) + 1 for c in twin.choice(
                    NUM_CHANNELS, size=RADIOS_PER_NODE, replace=False)))
                for _ in range(n)]
        topo = generate_topology(TopologyParams(n, gateway_count=1,
                                                rng_seed=seed))
        assert [node.radios for node in topo.nodes] == want

    def test_radio_cases_include_a_collision(self):
        # Floyd's second draw equals the first for about one node in 11 and
        # then takes the top channel; the cases above must hold such nodes.
        collisions = 0
        for seed in self.RADIO_SEEDS:
            twin = self.radio_twin(seed, 60)
            for _ in range(60):
                a = twin.integers(0, NUM_CHANNELS - 1)
                collisions += twin.integers(0, NUM_CHANNELS) == a
                twin.integers(0, 2)
        assert collisions

    @staticmethod
    def reference_links(generator, pools):
        channels, unit = [], []
        for pool in pools:
            channels.append(int(generator.choice(pool)))
            unit.append([generator.random() for _ in range(4)])
        return channels, unit

    @pytest.mark.parametrize("seed, buffered",
                             itertools.product(range(4), [0, 1]))
    def test_link_draws_match_the_generator(self, seed, buffered):
        # Pools of 1, 2 and 4 channels in random order, so bounded draws
        # start on either half of a word and end with or without a spare
        # half-word to hand back.
        rng = random.Random(seed)
        pools = [sorted(rng.sample(range(1, NUM_CHANNELS + 1),
                                   rng.choice([1, 2, 4])))
                 for _ in range(rng.randint(200, 300))]
        half = rng.getrandbits(32)
        make = ((lambda: with_half_word(seed, half)) if buffered
                else (lambda: np.random.PCG64(seed)))
        bits, twin = make(), make()
        channels, unit = _draw_links(bits, pools)
        want_channels, want_unit = self.reference_links(
            np.random.Generator(twin), pools)
        assert channels == want_channels
        assert unit.tolist() == want_unit
        assert bits.state == twin.state

    @pytest.mark.parametrize("buffered", [0, 1])
    def test_a_pool_of_one_draws_only_its_weights(self, buffered):
        # A link whose ends share one channel draws no channel, so a
        # half-word the state holds still waits for the next bounded draw.
        make = ((lambda: with_half_word(5, 7)) if buffered
                else (lambda: np.random.PCG64(5)))
        bits, twin = make(), make()
        before = bits.state
        channels, unit = _draw_links(bits, [[3], [9], [1]])
        assert channels == [3, 9, 1]
        assert ((bits.state["has_uint32"], bits.state["uinteger"])
                == (before["has_uint32"], before["uinteger"]))
        generator = np.random.Generator(twin)
        assert unit.tolist() == [[generator.random() for _ in range(4)]
                                 for _ in range(3)]
        assert bits.state == twin.state


class TestWorstInterference:
    def test_matches_max_over_incident_links(self):
        rng = random.Random(0)
        for _ in range(300):
            n = rng.randint(2, 8)
            pairs = rng.sample(list(itertools.combinations(range(n), 2)),
                               rng.randint(1, n * (n - 1) // 2))
            # Few distinct channels, so many links share one.
            channels = rng.sample(range(1, NUM_CHANNELS + 1),
                                  rng.randint(1, 4))
            links = [(u, v, rng.choice(channels)) for u, v in pairs]
            assert _worst_interference(links) == (
                brute_force_worst_interference(links))

    def test_lone_links_and_duplicates(self):
        # 0-1 and 2-3 share no endpoint with any link; 4-5 and 5-6 share
        # node 5 and a channel; 6-7 is 3 channels from 5-6.
        links = [(0, 1, 3), (2, 3, 3), (4, 5, 6), (5, 6, 6), (6, 7, 9)]
        assert _worst_interference(links) == [0.0, 0.0, 1.0, 1.0, 0.2]
        assert _worst_interference(links) == brute_force_worst_interference(
            links)

    @pytest.mark.parametrize("links, factors", [
        # 0-1 shares channel 6 with 0-2 at its first endpoint; 1-3 is 3
        # channels from 0-1.
        ([(0, 1, 6), (0, 2, 6), (1, 3, 9)], [1.0, 1.0, 0.2]),
        # 0-1 shares channel 6 with 1-2 at its second endpoint; 0-3 is 3
        # channels from 0-1.
        ([(0, 1, 6), (1, 2, 6), (0, 3, 9)], [1.0, 1.0, 0.2]),
        # Co-channel at both endpoints.
        ([(3, 1, 2), (1, 4, 2), (3, 5, 2)], [1.0, 1.0, 1.0]),
        ([(0, 1, 4)], [0.0]),
        # Only orthogonal neighbours: gaps of 5 and 10.
        ([(0, 1, 1), (1, 2, 6), (0, 3, 11)], [0.0, 0.0, 0.0]),
        # The smallest gap wins: for 0-1 it is at its second endpoint (7,
        # 2 away), for 1-4 at its first (5, 2 away).
        ([(0, 1, 5), (0, 2, 9), (1, 3, 1), (1, 4, 7)], [0.4, 0.1, 0.1, 0.4]),
    ], ids=["cochannel-first-end", "cochannel-second-end",
            "cochannel-both-ends", "isolated", "orthogonal", "least-gap"])
    def test_hand_built_cases(self, links, factors):
        assert _worst_interference(links) == factors
        assert brute_force_worst_interference(links) == factors

    @pytest.mark.parametrize("node_count", [25, 125, 200])
    def test_matches_reference_on_generated_meshes(self, node_count):
        for seed in range(3):
            topo = generate_topology(TopologyParams(node_count,
                                                    rng_seed=seed))
            ends = [(l.u, l.v, l.channel) for l in topo.links]
            factors = _worst_interference(ends)
            assert factors == brute_force_worst_interference(ends)
            assert factors == [l.i_factor for l in topo.links]


class TestPickGateways:
    """_pick_gateways leaves its k-means once an iteration leaves the
    centres bitwise unchanged; its gateways, and the draws it makes, are
    those of always running 12 iterations."""

    @staticmethod
    def inputs(params):
        """The positions, gateway count and bit-generator state that
        generate_topology hands _pick_gateways."""
        caught = []

        def spy(positions, count, rng):
            caught.append((positions.copy(), count, rng.bit_generator.state))
            return _pick_gateways(positions, count, rng)
        with mock.patch("meshroute.topology._pick_gateways", spy):
            generate_topology(params)
        (got,) = caught
        return got

    @staticmethod
    def generator(state):
        rng = np.random.Generator(np.random.PCG64())
        rng.bit_generator.state = state
        return rng

    # (nodes, seed, whether the twelfth iteration still moves the centres)
    @pytest.mark.parametrize("node_count, seed, unsettled", [
        (25, 0, False), (25, 1, False), (25, 2, False),
        (125, 0, False), (125, 1, False), (125, 10, True),
        (200, 0, True), (200, 1, True), (200, 2, False),
        (500, 0, False), (500, 1, True),
        (1000, 0, True), (1000, 1, False),
    ])
    def test_matches_twelve_iterations(self, node_count, seed, unsettled):
        positions, count, state = self.inputs(TopologyParams(node_count,
                                                             rng_seed=seed))
        got_rng, want_rng = self.generator(state), self.generator(state)
        got = _pick_gateways(positions, count, got_rng)
        assert got == reference_pick_gateways(positions, count, want_rng)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state
        eleven, twelve = (
            reference_centers(positions, count, self.generator(state), i)
            for i in (11, 12))
        assert (not np.array_equal(eleven, twelve)) == unsettled


class TestShortestPath:
    def test_line_graph_sum(self, line3):
        assert line3.shortest_path_cost(0, 2) == 5.0

    def test_self_cost_zero(self, line3):
        assert line3.shortest_path_cost(0, 0) == 0.0

    def test_direct_edge_beats_detour(self):
        topo = make_topo(3, {
            (0, 1): {"cost": 10.0},
            (1, 2): {"cost": 10.0},
            (0, 2): {"cost": 5.0},
        }, gateways={2})
        assert topo.shortest_path_cost(0, 2) == 5.0

    def test_unreachable_marker(self):
        topo = make_topo(3, {(0, 1): {}}, gateways={1})
        assert topo.shortest_path_cost(0, 2) == UNREACHABLE

    def test_cost_row_matches_pairwise_costs(self):
        topo = make_topo(4, {(0, 1): {"cost": 3.0}, (1, 2): {"cost": 4.0}},
                         gateways={2})
        for s in range(4):
            assert list(topo.shortest_path_costs(s)) == [
                topo.shortest_path_cost(s, t) for t in range(4)]
        with pytest.raises(TopologyError):
            topo.shortest_path_costs(4)

    def test_avoid_forces_detour(self):
        topo = make_topo(4, {(0, 1): {}, (1, 3): {}, (0, 2): {"cost": 5.0},
                             (2, 3): {"cost": 5.0}}, gateways={3})
        assert topo.shortest_path(0, 3) == [0, 1, 3]
        assert topo.shortest_path(0, 3, avoid={1}) == [0, 2, 3]
        assert topo.shortest_path(0, 3, avoid={1, 2}) is None
        assert topo.shortest_path(0, 3, avoid={3}) is None
        # Each query runs its own search: no detour outlives its query.
        assert topo.shortest_path(0, 3) == [0, 1, 3]

    @pytest.mark.parametrize("node_count", [25, 125])
    def test_detour_query_matches_full_dijkstra(self, node_count):
        # Random (source, target, avoid) triples, a fifth of them with the
        # target inside avoid; large avoid sets leave targets unreachable.
        rng = random.Random(node_count)
        found = Counter()
        for mesh_seed in range(3):
            topo = generate_topology(TopologyParams(node_count=node_count,
                                                    rng_seed=mesh_seed))
            n = topo.node_count
            for _ in range(300):
                source, target = rng.randrange(n), rng.randrange(n)
                avoid = set(rng.sample(range(n), rng.randint(1, n // 2)))
                if rng.random() < 0.2:
                    avoid.add(target)
                # The empty set makes it a plain query.
                for avoid in (avoid, set()):
                    path = topo.shortest_path(source, target, avoid)
                    assert path == reference_detour(topo, source, target,
                                                    avoid)
                    found[path is None] += 1
        assert found[True] and found[False]

    def test_detour_query_matches_full_dijkstra_on_ties_and_islands(self):
        # tie_mesh has several equal-cost paths between most pairs; the
        # second mesh has a component no gateway reaches.
        for topo in (tie_mesh(), island_mesh()):
            n = topo.node_count
            for source, target in itertools.product(range(n), repeat=2):
                for size in (0, 1, 2):  # size 0: a plain query
                    for avoid in map(set, itertools.combinations(range(n),
                                                                 size)):
                        assert (topo.shortest_path(source, target, avoid)
                                == reference_detour(topo, source, target,
                                                    avoid))

    def test_triangle_inequality(self):
        topo = generate_topology(TopologyParams(node_count=15, rng_seed=11))
        for a, b, c in itertools.permutations(range(6), 3):
            assert (topo.shortest_path_cost(a, c)
                    <= topo.shortest_path_cost(a, b)
                    + topo.shortest_path_cost(b, c) + 1e-9)


class TestMultiSourceCosts:
    def test_nearest_source_cost(self):
        topo = generate_topology(TopologyParams(node_count=40, rng_seed=3))
        costs = topo.gateway_costs()
        for n in range(topo.node_count):
            assert costs[n] == pytest.approx(
                min(topo.shortest_path_cost(g, n) for g in topo.gateways),
                abs=1e-9)
            path = topo.gateway_path(n)
            assert path[0] == n and validate_path(topo, path)
            assert sum(topo.link_table[u][v].cost
                       for u, v in zip(path, path[1:])) \
                == pytest.approx(costs[n], abs=1e-9)
        assert all(costs[g] == 0.0 and topo.gateway_path(g) == [g]
                   for g in topo.gateways)

    def test_unreachable_marker(self):
        topo = make_topo(3, {(0, 1): {}}, gateways={1})
        assert list(topo.gateway_costs()) == [2.0, 0.0, UNREACHABLE]
        assert topo.gateway_path(0) == [0, 1]
        assert topo.gateway_path(2) is None

    def test_unknown_source_rejected(self, line3):
        for node in (-1, 3, 7):
            with pytest.raises(TopologyError):
                line3.gateway_path(node)

    @pytest.mark.parametrize("size", [25, 125, 200])
    def test_gateway_path_matches_nearest_lowest_id_gateway(self, size):
        # The rule the solver used before the gateway tree: the least-cost
        # path from the node to the lowest-id gateway among the nearest.
        # Generated link costs are random floats, so no two routes tie.
        for seed, count in itertools.product(range(3), (1, 3, 5)):
            topo = generate_topology(TopologyParams(
                node_count=size, rng_seed=seed, gateway_count=count))
            for n in range(topo.node_count):
                nearest = min(sorted(topo.gateways),
                              key=lambda g: topo.shortest_path_cost(n, g))
                assert topo.gateway_path(n) == topo.shortest_path(n, nearest)

    def test_default_source_ranks_by_cost_to_nearest_gateway(self):
        # The ranking one Dijkstra per node would give.
        for seed in range(4):
            topo = generate_topology(TopologyParams(node_count=30,
                                                    rng_seed=seed))
            ranked = sorted((min(topo.shortest_path_cost(n, g)
                                 for g in topo.gateways), n)
                            for n in range(topo.node_count)
                            if n not in topo.gateways)
            for p in (0, 0.0, 0.25, np.float64(0.5), 0.95):
                assert default_source(topo, p) == \
                    ranked[int(len(ranked) * p)][1]

    @staticmethod
    def tuple_ranked_source(topo, percentile):
        """default_source as a sort of (cost, id) tuples."""
        cost = topo.gateway_costs()
        ranked = sorted((cost[n], n) for n in range(topo.node_count)
                        if n not in topo.gateways and cost[n] != math.inf)
        return ranked[int(len(ranked) * percentile)][1]

    def test_default_source_ranks_like_cost_id_tuples(self):
        # At every benchmark percentile, on generated meshes and on a mesh
        # of tied costs: gateways 0 and 9 each reach 1-4 at cost 2, 5-8 at
        # 4 and 10-12 at 6 (10-12 linked in descending order), and 13-14
        # reach no gateway.
        percentiles = [0.0] + [round(0.05 * k, 2) for k in range(1, 20)]
        edges = {(g, h): {} for g in (0, 9) for h in (4, 3, 2, 1)}
        edges.update({(h, h + 4): {} for h in (1, 2, 3, 4)})
        edges.update({(8 - i, 10 + i): {} for i in (2, 1, 0)})
        edges[(13, 14)] = {}
        tied = make_topo(15, edges, gateways={0, 9})
        assert sorted(tied.gateway_costs()) == (
            [0.0] * 2 + [2.0] * 4 + [4.0] * 4 + [6.0] * 3 + [UNREACHABLE] * 2)
        meshes = [tied] + [generate_topology(TopologyParams(n, rng_seed=s))
                           for n in (25, 125, 200) for s in range(3)]
        for topo in meshes:
            for p in percentiles:
                assert (default_source(topo, p)
                        == self.tuple_ranked_source(topo, p)), p

    def test_default_source_ranks_each_mesh_once(self, monkeypatch):
        percentiles = [0.0] + [round(0.05 * k, 2) for k in range(1, 20)]
        calls = []
        original = MeshTopology.gateway_costs

        def counted(topo):
            calls.append(topo)
            return original(topo)
        monkeypatch.setattr(MeshTopology, "gateway_costs", counted)
        meshes = [generate_topology(TopologyParams(125, rng_seed=s))
                  for s in range(2)]
        assert calls == []
        first = [default_source(meshes[0], p) for p in percentiles]
        assert calls == [meshes[0]]
        assert [default_source(meshes[0], p) for p in percentiles] == first
        assert calls == [meshes[0]]
        default_source(meshes[1], 0.5)
        assert calls == meshes
        assert type(meshes[0].ranked_sources) is tuple
        assert [self.tuple_ranked_source(meshes[0], p)
                for p in percentiles] == first

    @pytest.mark.parametrize("percentile", [
        -0.1, 1.0, 1.5, math.nan, math.inf, -math.inf, False, True, "0.5",
        None, 0.5j, pytest.param(10**400, id="10**400")])
    def test_default_source_percentile_outside_unit_interval_rejected(
            self, percentile):
        # -0.1 used to index from the end of the ranking, 1.0 past it.
        # False ranked as 0.0; "0.5", None and 0.5j escaped as TypeError.
        topo = generate_topology(TopologyParams(node_count=50, rng_seed=0))
        with pytest.raises(ValueError, match="percentile"):
            default_source(topo, percentile)

    def test_default_source_ranks_only_nodes_that_reach_a_gateway(self):
        # Nodes 3 and 4 have no route to gateway 2.
        topo = make_topo(5, {(0, 1): {}, (1, 2): {}, (3, 4): {}},
                         gateways={2})
        assert [default_source(topo, p) for p in (0.0, 0.95)] == [1, 0]
        with pytest.raises(TopologyError):
            default_source(make_topo(3, {(0, 1): {}}, gateways={2}))


class TestNodeIds:
    # has_node once checked only the range: shortest_path(0, True) returned
    # [0, 19, 18, 15, 3, 20, 13, 2, True], and gateway_path(1.5) raised
    # TypeError.
    @pytest.mark.parametrize("node", [True, False, 1.0, 1.5, "1", None, -1,
                                      25],
                             ids=["true", "false", "float", "fraction", "str",
                                  "none", "negative", "out-of-range"])
    def test_non_node_id_rejected(self, node):
        topo = generate_topology(TopologyParams(node_count=25, rng_seed=0))
        assert topo.has_node(node) is False
        for query in (lambda: topo.shortest_path(0, node),
                      lambda: topo.shortest_path(node, 0),
                      lambda: topo.shortest_path_cost(0, node),
                      lambda: topo.shortest_path_costs(node),
                      lambda: topo.gateway_path(node)):
            with pytest.raises(TopologyError):
                query()

    def test_numpy_integer_accepted(self):
        topo = generate_topology(TopologyParams(node_count=25, rng_seed=0))
        one = np.int64(1)
        assert topo.has_node(one)
        assert (topo.link_table[one][2] is topo.link_table[2][one]
                is topo.link_table[1][2])
        assert topo.shortest_path(0, one) == topo.shortest_path(0, 1)
        assert topo.gateway_path(one) == topo.gateway_path(1)


class TestAdjacency:
    def test_neighbors_sorted_tuple(self):
        from conftest import merge_demo_topo
        topo = merge_demo_topo()
        assert topo.adjacency[5] == (7, 9, 10)
        assert topo.adjacency[0] == ()

    def test_adjacent_matches_links(self):
        # links and adjacency are views of link_table, the one edge store,
        # on a generated mesh and on its JSON round trip.
        topo = generate_topology(TopologyParams(node_count=25, rng_seed=2))
        for mesh in (topo, MeshTopology.from_json(topo.to_json())):
            keys = [link.key for link in mesh.links]
            assert keys == sorted(set(keys))
            for link in mesh.links:
                assert mesh.link_table[link.u][link.v] is link
                assert mesh.link_table[link.v][link.u] is link
            assert sum(map(len, mesh.link_table)) == 2 * len(keys)
            for u in range(mesh.node_count):
                assert mesh.adjacency[u] == tuple(sorted(mesh.link_table[u]))

    def test_duplicate_link_rejected(self):
        nodes = [Node(i, 10.0 * i, 0.0, (1, 6)) for i in range(3)]
        for u, v in ((0, 1), (1, 0)):
            links = [Link(0, 1, **LINK_DEFAULTS), Link(1, 2, **LINK_DEFAULTS),
                     Link(u, v, **LINK_DEFAULTS)]
            with pytest.raises(TopologyError, match="duplicate link"):
                MeshTopology(nodes, links, {2}, 250.0)

    @pytest.mark.parametrize("u, v", [(-1, 1), (1, -1), (3, 0), (0, 3),
                                      (np.int64(1), 2)],
                             ids=["-1-first", "-1-second", "n-first",
                                  "n-second", "numpy-int"])
    def test_endpoint_that_is_no_node_rejected(self, u, v):
        nodes = [Node(i, 10.0 * i, 0.0, (1, 6)) for i in range(3)]
        links = [Link(0, 1, **LINK_DEFAULTS), Link(u, v, **LINK_DEFAULTS)]
        with pytest.raises(TopologyError, match="unknown node|integers"):
            MeshTopology(nodes, links, {2}, 250.0)

    def test_connectivity(self):
        assert UNREACHABLE not in make_topo(3, {(0, 1): {}, (1, 2): {}},
                                            gateways={2}).gateway_costs()
        assert UNREACHABLE in make_topo(3, {(0, 1): {}},
                                        gateways={1}).gateway_costs()


class TestTrapLinks:
    @pytest.mark.parametrize("node_count", [12, 25, 50, 125, 500])
    def test_matches_brute_force_on_generated_meshes(self, node_count):
        for seed in range(20):
            topo = generate_topology(TopologyParams(node_count=node_count,
                                                    rng_seed=seed))
            assert topo.trap_links == brute_force_trap_links(topo)

    def test_pendant_region_and_island(self):
        # Gateways 0 and 8.  Node 2 cuts off the gateway-free region 3-4-5,
        # and 3 cuts off 4-5 (a triangle: no link in it is a bridge); node 1
        # is a cut node with a gateway on two sides; 6-7 is an island.
        #
        #   0 - 1 - 2 - 3 - 4        8 (gateway)
        #       |       \ /
        #       8        5           6 - 7
        topo = make_topo(9, {e: {} for e in [
            (0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (3, 5), (1, 8),
            (6, 7)]}, gateways={0, 8})
        traps = topo.trap_links
        assert traps == brute_force_trap_links(topo)
        assert traps[1] == (2,) and traps[2] == (3,) and traps[3] == (4, 5)
        assert traps[6] == (7,) and traps[7] == (6,)
        assert not any(traps[u] for u in (0, 4, 5, 8))

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_brute_force_on_any_graph(self, data):
        # Generated meshes are stitched into one component; these graphs
        # may have islands, gateways anywhere and gateway-free components.
        n = data.draw(st.integers(2, 14), label="nodes")
        pairs = list(itertools.combinations(range(n), 2))
        edges = data.draw(st.sets(st.sampled_from(pairs)), label="links")
        gateways = data.draw(st.sets(st.integers(0, n - 1), min_size=1,
                                     max_size=min(3, n)), label="gateways")
        topo = make_topo(n, {e: {} for e in edges}, gateways)
        assert topo.trap_links == brute_force_trap_links(topo)

    def test_nodes_without_traps_share_one_empty_tuple(self):
        topo = generate_topology(TopologyParams(node_count=125, rng_seed=0))
        empty = [t for t in topo.trap_links if not t]
        assert empty and all(t is empty[0] for t in empty)
        assert topo.trap_links is topo.trap_links


class TestLinkValidation:
    @pytest.mark.parametrize("name", ["cost", "bandwidth", "delay", "jitter",
                                      "loss_prob", "i_factor"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_weight_rejected(self, name, value):
        with pytest.raises(TopologyError):
            Link(0, 1, **{**LINK_DEFAULTS, name: value})

    @pytest.mark.parametrize("channel", [0, -1, 12, 99])
    def test_channel_out_of_range_rejected(self, channel):
        with pytest.raises(TopologyError):
            Link(0, 1, **{**LINK_DEFAULTS, "channel": channel})

    def test_edge_channels_accepted(self):
        for channel in (1, 11):
            Link(0, 1, **{**LINK_DEFAULTS, "channel": channel})

    @pytest.mark.parametrize("field, value", [("channel", 99), ("cost", math.nan),
                                              ("delay", math.inf), ("u", -1),
                                              ("v", -1), ("v", True),
                                              ("id", True),
                                              ("gateways", [True, 2]),
                                              # These loaded, or "range"
                                              # "abc" escaped as ValueError.
                                              ("x", "abc"), ("x", math.nan),
                                              ("y", math.inf),
                                              ("radios", [1, 1.5]),
                                              ("range", -1), ("range", 0),
                                              ("range", "abc"),
                                              ("range", math.nan),
                                              ("channel", 1.5),
                                              # These loaded too: JSON
                                              # true and false as numbers,
                                              # and a flag that is no bool.
                                              ("x", True), ("y", False),
                                              ("range", True),
                                              ("cost", True),
                                              ("ifactor", False),
                                              ("synthetic", "no"),
                                              ("synthetic", 0),
                                              # These raised OverflowError.
                                              *(pytest.param(
                                                  field, 10**400,
                                                  id=f"{field}-10**400")
                                                for field in ("x", "cost",
                                                              "range"))])
    def test_rejected_when_loaded(self, field, value):
        # Link fields edit the first link; node fields edit node 1.  True ==
        # 1, so a bool passes every range check unless it is rejected as such.
        doc = generate_topology(TopologyParams(node_count=10,
                                               rng_seed=1)).to_dict()
        node = doc["nodes"][1]
        target = {"id": node, "x": node, "y": node, "radios": node,
                  "gateways": doc, "range": doc}.get(field, doc["links"][0])
        target[field] = value
        with pytest.raises(TopologyError):
            MeshTopology.from_json(json.dumps(doc))


class TestEnumerate:
    def test_triangle_paths(self, triangle):
        paths = enumerate_simple_paths(triangle, 0, {2}, max_hops=3)
        assert paths == [[0, 1, 2], [0, 2]]

    def test_source_is_destination(self, triangle):
        paths = enumerate_simple_paths(triangle, 0, {0}, max_hops=3)
        assert [0] in paths

    def test_k5_count_matches_recursive_oracle(self):
        edges = {(u, v): {} for u, v in itertools.combinations(range(5), 2)}
        topo = make_topo(5, edges, gateways={4})

        # Independent oracle: plain recursion over the same edge set.
        def count(node, visited):
            if node == 4:
                return 1
            total = 0
            for nxt in range(5):
                if nxt not in visited and nxt in topo.link_table[node]:
                    total += count(nxt, visited | {nxt})
            return total

        paths = enumerate_simple_paths(topo, 0, {4}, max_hops=4)
        assert len(paths) == count(0, {0})
        assert len(paths) == 16  # 1 + 3 + 3*2 + 3*2*1

    def test_every_path_valid_and_unique(self):
        topo = generate_topology(TopologyParams(node_count=12, rng_seed=5))
        paths = enumerate_simple_paths(topo, source_for(topo),
                                       set(topo.gateways), max_hops=6)
        seen = set()
        for p in paths:
            assert tuple(p) not in seen
            seen.add(tuple(p))
            assert validate_path(topo, p, require_gateway=False)
            assert p[-1] in topo.gateways

    def test_lexicographic_order(self, triangle):
        paths = enumerate_simple_paths(triangle, 0, {2}, max_hops=3)
        assert paths == sorted(paths)

    def test_cap_raises_naming_cap(self):
        edges = {(u, v): {} for u, v in itertools.combinations(range(8), 2)}
        topo = make_topo(8, edges, gateways={7})
        with pytest.raises(PathExplosionError, match="10"):
            enumerate_simple_paths(topo, 0, {7}, max_hops=7, cap=10)


class TestValidatePath:
    def test_demo_route_is_valid(self):
        from conftest import merge_demo_topo
        topo = merge_demo_topo()
        assert validate_path(topo, [1, 7, 5, 9, 13])

    def test_repeated_node_invalid(self):
        from conftest import merge_demo_topo
        topo = merge_demo_topo()
        assert not validate_path(topo, [1, 7, 7, 13])

    def test_unknown_node_invalid(self):
        from conftest import merge_demo_topo
        topo = merge_demo_topo()
        assert not validate_path(topo, [1, 99])

    def test_gateway_requirement(self, triangle):
        assert validate_path(triangle, [0, 1], require_gateway=False)
        assert not validate_path(triangle, [0, 1])

    def test_empty_invalid(self, triangle):
        assert not validate_path(triangle, [])

    @pytest.mark.parametrize("path", [
        [True, 2, 13, 20, 3, 15, 18, 19, 6, 10, 9, 4],
        [False, 6],
    ])
    def test_bool_ids_invalid(self, path):
        # Valid routes on this mesh with 1 and 0 in place of True and False.
        topo = generate_topology(TopologyParams(node_count=25, rng_seed=0))
        assert validate_path(topo, [int(u) for u in path])
        assert not validate_path(topo, path)

    @pytest.mark.parametrize("path", [5, None, 2.5, {24, 8}, "24", object()],
                             ids=["int", "none", "float", "set", "str",
                                  "object"])
    def test_non_sequence_invalid(self, path):
        # validate_path(topo, 5) once raised TypeError, so fitness raised
        # where it promises inf, and simulate_path raised that TypeError.
        topo = generate_topology(TopologyParams(node_count=25, rng_seed=0))
        assert validate_path(topo, path, require_gateway=False) is False
        req = QosRequest(5.0, 10.0, 2.5)
        coeffs = PenaltyCoeffs.for_request(req, topo)
        assert fitness(topo, path, req, coeffs).total == math.inf
        with pytest.raises(InvalidPathError):
            simulate_path(topo, path, TrafficSpec(10))

    @pytest.mark.parametrize("path,valid", [
        ([24, 8, 22, 4], True),
        ([np.int64(u) for u in (24, 8, 22, 4)], True),
        ([24.0, 8, 22, 4], False),
        # -1 would index node 24's neighbours, 25 past the end.
        ([-1, 8, 22, 4], False),
        ([25, 8, 22, 4], False),
        # An array once raised numpy's truth-value error; it is judged as
        # its list.
        (np.array([24, 8, 22, 4]), True),
        (np.array([24, 8, 22]), False),
        (np.array([24, 8, 8]), False),
        (np.array([], dtype=int), False),
        (np.array([24.0, 8, 22, 4]), False),
        # Plain ints take one range test, any other id has_node each.
        ([24, np.int64(8), 22, np.int64(4)], True),
        ([13, 1, 2, 20], True),
        ([13, True, 2, 20], False),
    ], ids=["int", "np-int64", "float", "negative", "out-of-range",
            "array", "array-no-gateway", "array-repeat", "array-empty",
            "float-array", "int-and-np-int64", "int-route-through-1",
            "true-among-ints"])
    def test_node_id_types(self, path, valid):
        topo = generate_topology(TopologyParams(node_count=25, rng_seed=0))
        assert validate_path(topo, path) is valid


class TestSerialization:
    def test_round_trip(self):
        topo = generate_topology(TopologyParams(node_count=20, rng_seed=9))
        again = MeshTopology.from_json(topo.to_json())
        assert again.to_json() == topo.to_json()

    def test_malformed_document(self):
        with pytest.raises(TopologyError):
            MeshTopology.from_json('{"nodes": []}')
