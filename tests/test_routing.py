import functools
import itertools
import json
import math
import random
import sys
import threading
from collections import Counter
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from meshroute.topology import (MeshTopology, TopologyParams,
                                generate_topology, validate_path)
from meshroute.qos import PenaltyCoeffs, QosRequest
from meshroute.routing import (
    HybridConfig,
    Particle,
    RouteContext,
    UnreachableGatewayError,
    combine_paths,
    crossover_children,
    dedupe,
    elitism_split,
    init_swarm,
    mutate,
    oplus_update,
    remove_loops,
    repair_path,
    run,
    two_point_crossover,
)
from meshroute import cli, routing
from meshroute.cli import ExperimentPlan, default_source

from conftest import (brute_force_trap_links, island_mesh, make_topo,
                      merge_demo_topo, source_for, without_wall_times)
from oracle import enumerate_simple_paths, oracle_best
from test_behaviour_pin import (SEARCH_PERCENTILES, SEARCH_REQ, SEARCH_SIZES,
                                SEEDS, tie_mesh)
from test_topology import reference_detour


REQ = QosRequest(bw_req=5.0, d_req=100.0, j_req=100.0, beta=0.0)


def ctx_for(topo, source):
    coeffs = PenaltyCoeffs.for_request(REQ, topo)
    return RouteContext(topo, source, REQ, coeffs)


def reference_walk(ctx, rng, traps):
    """The walk as first written, drawing each step with rng.choice, plus
    the rule that an attempt ends when it steps from u to a node in
    ``traps[u]`` (brute_force_trap_links); the solver's walk must return
    the same paths and leave the same RNG state."""
    source, gateways = ctx.source, ctx.gateways
    adjacency = ctx.topo.adjacency
    choice = rng.choice
    for _ in range(routing.WALK_RESTARTS):
        path = [source]
        visited = {source}
        node = source
        while True:
            options = [v for v in adjacency[node] if v not in visited]
            if not options:
                break
            step = choice(options)
            if step in traps[node]:
                break
            node = step
            path.append(node)
            visited.add(node)
            if node in gateways:
                return path
    return ctx.topo.gateway_path(source)


def reference_dedupe(swarm, ctx, rng):
    """dedupe as first written, retrying a repeated route up to 20 times,
    plus the cutoff: once a replacement's 21 walks all repeat kept routes,
    each later repeat in the call keeps its first walk.  Returns the new
    swarm and how many replacements the cutoff held to one walk; the
    solver's dedupe must give the same routes and RNG state."""
    seen = set()
    out = []
    dry = False
    held = 0
    for particle in swarm:
        key = tuple(particle.path)
        if key in seen:
            walks = [routing.random_walk_path(ctx, rng)]
            if dry:
                held += 1
            else:
                while len(walks) <= 20 and tuple(walks[-1]) in seen:
                    walks.append(routing.random_walk_path(ctx, rng))
                dry = all(tuple(w) in seen for w in walks)
            out.append(routing._fresh(walks[-1], ctx))
            seen.add(tuple(walks[-1]))
        else:
            seen.add(key)
            out.append(particle)
    return out, held


def reference_remove_loops(seq):
    """Loop excision as first written, without the simple-sequence exit."""
    out = list(seq)
    while True:
        first = {}
        dup = None
        for idx, node in enumerate(out):
            if node in first:
                dup = node
            else:
                first[node] = idx
        if dup is None:
            return out
        lo = first[dup]
        hi = len(out) - 1 - out[::-1].index(dup)
        out = out[: lo + 1] + out[hi + 1:]


def reference_combine_paths(current, other, ctx, replace_prob, rng):
    """The merge as written before it tracked replacements, excising loops
    from every merged route, as (merged route, excised route); the
    solver's merge must return an equal route and leave the same RNG
    state."""
    cost = ctx.source_costs
    out = list(current)
    for k in range(1, min(len(current), len(other)) - 1):
        if replace_prob >= 1.0 or rng.random() < replace_prob:
            if cost[other[k]] < cost[out[k]]:
                out[k] = other[k]
    return out, reference_remove_loops(out)


def reference_oplus_update(particle, gbest_path, ctx, rng):
    """The PSO update as first written, repairing every merged route, as
    (merged route, repaired route); the solver's update must return an
    equal route and leave the same RNG state."""
    p1 = min(1.0, routing.C1 * rng.random())
    step = combine_paths(particle.path, particle.pbest_path, ctx, p1, rng)
    p2 = min(1.0, routing.C2 * rng.random())
    step = combine_paths(step, gbest_path, ctx, p2, rng)
    return step, repair_path(step, ctx)


def spur_mesh(loops=()):
    """Chain 0-1-2-3-4-5 to gateway 5, every chain node but the last with
    dead-end spurs, some two nodes long: about 1 walk attempt in 108 reaches
    the gateway, and every step into a spur crosses a trap link.  Each of
    ``loops`` is one more link, closing a spur into a loop."""
    chain = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]
    spurs = [(0, 6), (6, 7), (0, 8), (1, 9), (9, 10), (1, 11), (2, 12),
             (3, 13), (13, 14), (3, 15), (4, 16)]
    return make_topo(17, {e: {} for e in chain + spurs + list(loops)},
                     gateways={5})


# Closes the two-node spurs at 0, 1 and 3 back onto the chain: a walk
# entering 6, 9 or 13 from the chain takes a one-option step that crosses
# no trap link.
SPUR_LOOPS = ((7, 1), (10, 2), (14, 4))


@pytest.fixture
def demo_ctx():
    return ctx_for(merge_demo_topo(), source=1)


class TestHybridConfig:
    # Ids are fixed so each case keeps its name when cases are removed.
    @pytest.mark.parametrize("bad", [
        # Counts must be plain ints: these once passed the range checks and
        # then failed inside range().
        dict(swarm_size=30.0),
        dict(max_iterations=float("nan")),
        # Once ran and reported seed 1.5.
        dict(rng_seed=1.5),
    ], ids=["bad4", "bad5", "bad7"])
    def test_out_of_range_rejected(self, bad):
        with pytest.raises(ValueError):
            HybridConfig(**bad)

    def test_negative_seed_accepted(self):
        # random.Random takes any int.
        assert HybridConfig(rng_seed=-1).rng_seed == -1


class TestRouteContext:
    def test_gateway_source_rejected(self, line3):
        with pytest.raises(ValueError, match="source is a gateway"):
            ctx_for(line3, 2)
        with pytest.raises(ValueError, match="source is a gateway"):
            run(line3, 2, REQ, PenaltyCoeffs.for_request(REQ, line3),
                HybridConfig())

    @pytest.mark.parametrize("source", [True, 2.0, 2.5, "2", None],
                             ids=["bool", "float", "fraction", "str", "none"])
    def test_source_that_is_no_node_id_rejected(self, source):
        # True once ran and returned [True, 2, 13, ...] with F = inf; 2.0
        # died with TypeError inside the walk.
        topo = generate_topology(TopologyParams(node_count=25, rng_seed=0))
        with pytest.raises(ValueError, match="unknown source node"):
            run(topo, source, REQ, PenaltyCoeffs.for_request(REQ, topo),
                HybridConfig(max_iterations=2))

    def test_numpy_integer_source_accepted(self):
        # Its routes once began with an np.int64, which json cannot write.
        topo = generate_topology(TopologyParams(node_count=25, rng_seed=0))
        coeffs = PenaltyCoeffs.for_request(REQ, topo)
        config = HybridConfig(max_iterations=5)
        result = without_wall_times(
            run(topo, np.int64(1), REQ, coeffs, config).to_dict())
        assert result == without_wall_times(
            run(topo, 1, REQ, coeffs, config).to_dict())
        assert json.loads(json.dumps(result)) == result

    def test_context_builds_the_trap_links_before_the_run_clock(self):
        # run() starts its clock after building its context, so a mesh's
        # first run does not time the cut-vertex search.
        topo = generate_topology(TopologyParams(node_count=25, rng_seed=0))
        assert "trap_links" not in topo.__dict__
        ctx = ctx_for(topo, default_source(topo))
        assert "trap_links" in topo.__dict__
        assert ctx.trap_links is topo.trap_links


class TestStitch:
    """topo.stitch(u, v, searches) is topo.shortest_path(u, v) in any order
    of queries, though each origin's search stops once its target settles
    and resumes only for a target it has not settled; runs on one mesh
    share no stitch search."""

    @staticmethod
    def assert_stitches_match(topo, queries):
        # Two searches dicts in turn, as two runs on one mesh: the second
        # searches from each origin afresh.
        half = len(queries) // 2
        for part in (queries[:half], queries[half:]):
            searches = {}
            for u, v in part:
                assert topo.stitch(u, v, searches) == topo.shortest_path(u, v)

    @pytest.mark.parametrize("node_count", [25, 125])
    def test_any_query_order_matches_shortest_path(self, node_count):
        # A few origins each, so most queries resume a search; a target
        # beyond the farthest one asked of its origin resumes it, a nearer
        # one reads what has settled.
        rng = random.Random(node_count)
        farther = Counter()
        for mesh_seed in range(3):
            topo = generate_topology(TopologyParams(node_count=node_count,
                                                    rng_seed=mesh_seed))
            origins = rng.sample(range(topo.node_count), 4)
            queries = [(rng.choice(origins), rng.randrange(topo.node_count))
                       for _ in range(300)]
            reach = dict.fromkeys(origins, 0.0)
            for u, v in queries:
                cost = topo.shortest_path_costs(u)[v]
                farther[cost > reach[u]] += 1
                reach[u] = max(reach[u], cost)
            self.assert_stitches_match(topo, queries)
        assert farther[True] and farther[False]

    def test_equal_cost_ties(self):
        topo = tie_mesh()
        pairs = list(itertools.product(range(topo.node_count), repeat=2))
        for seed in range(5):
            random.Random(seed).shuffle(pairs)
            self.assert_stitches_match(tie_mesh(), pairs)

    def test_unreachable_target_gives_none(self):
        topo = island_mesh()
        pairs = list(itertools.product(range(topo.node_count), repeat=2))
        assert any(topo.shortest_path(u, v) is None for u, v in pairs)
        for seed in range(5):
            random.Random(seed).shuffle(pairs)
            self.assert_stitches_match(island_mesh(), pairs)

    @pytest.mark.parametrize("algorithm", routing.ALGORITHMS)
    def test_run_caches_only_the_source_row_and_the_gateway_tree(
            self, monkeypatch, algorithm):
        # Besides those two rows, a run leaves on the mesh only the cached
        # properties that source selection, the coefficients and the run's
        # context read before its clock starts; its stitches stay with it.
        stitches = Counter()
        stitch = MeshTopology.stitch

        def counting(topo, u, v, searches):
            stitches[u] += 1
            return stitch(topo, u, v, searches)

        monkeypatch.setattr(MeshTopology, "stitch", counting)
        topo = generate_topology(TopologyParams(node_count=125, rng_seed=0))
        before = dict(vars(topo))
        source = default_source(topo, 0.75)
        run(topo, source, REQ, PenaltyCoeffs.for_request(REQ, topo),
            HybridConfig(rng_seed=1, algorithm=algorithm))
        assert len(stitches) > 1
        assert set(topo._trees) == {(source,), topo._gateway_key}
        cached = {name for name, attr in vars(MeshTopology).items()
                  if isinstance(attr, functools.cached_property)}
        assert set(vars(topo)) == set(before) | cached
        assert all(vars(topo)[name] is value for name, value in before.items())

    def test_runs_on_a_shared_mesh_match_runs_on_a_fresh_one(
            self, monkeypatch):
        # Each run on the shared mesh returns what it returns on a fresh
        # copy, and settles as many nodes in its searches there: no run
        # reads search work that an earlier run on the mesh paid for.  Both
        # meshes have the source row and the gateway tree built first.
        settles = Counter()
        search = MeshTopology._search

        def counting(mesh, *args):
            for node in search(mesh, *args):
                settles[mesh] += 1
                yield node

        monkeypatch.setattr(MeshTopology, "_search", counting)
        params = TopologyParams(node_count=125, rng_seed=0)
        shared = generate_topology(params)
        source = default_source(shared, 0.75)
        shared.shortest_path_costs(source)
        coeffs = PenaltyCoeffs.for_request(REQ, shared)
        for seed in (1, 2):
            for algorithm in routing.ALGORITHMS:
                fresh = generate_topology(params)
                fresh.gateway_costs()
                fresh.shortest_path_costs(source)
                settles.clear()
                config = HybridConfig(rng_seed=seed, algorithm=algorithm)
                runs = [without_wall_times(run(topo, source, REQ, coeffs,
                                               config).to_dict())
                        for topo in (shared, fresh)]
                assert runs[0] == runs[1]
                assert settles[shared] == settles[fresh] > 0

    @pytest.mark.parametrize("index", [0, 1])
    def test_plan_order_moves_no_algorithms_search_work(
            self, monkeypatch, index):
        # Each algorithm of a 125-node bench cell settles as many nodes in
        # its searches when the plan lists it last as when it lists it
        # first.  The source row is built before each run, as its clock
        # starts only after it.
        settles, current = Counter(), []
        search, solve = MeshTopology._search, cli.run

        def counting(mesh, *args):
            for node in search(mesh, *args):
                settles[current[0]] += 1
                yield node

        def timed_run(topo, source, req, coeffs, config):
            topo.shortest_path_costs(source)
            current[:] = [config.algorithm]
            return solve(topo, source, req, coeffs, config)

        monkeypatch.setattr(MeshTopology, "_search", counting)
        monkeypatch.setattr(cli, "run", timed_run)
        plan = ExperimentPlan(node_sizes=[125], packet_count=100)
        work = []
        for algorithms in (plan.algorithms, plan.algorithms[::-1]):
            settles.clear()
            current[:] = [None]
            cli.run_cell(125, index, replace(plan, algorithms=algorithms))
            settles.pop(None, None)
            work.append(dict(settles))
        assert work[0] == work[1] and sum(work[0].values()) > 0

    @staticmethod
    def mesh_and_order(node_count, mesh_seed, u=0):
        """A generated mesh and its nodes by cost from ``u``, in the order a
        search from ``u`` settles them."""
        topo = generate_topology(TopologyParams(node_count=node_count,
                                                rng_seed=mesh_seed))
        cost = topo.shortest_path_costs(u)
        return topo, sorted(range(topo.node_count), key=cost.__getitem__)

    @pytest.mark.parametrize("node_count, mesh_seed",
                             [(125, 0), (25, 1), (60, 2), (200, 3)])
    def test_interleaved_runs_on_a_shared_mesh_resume_their_own_searches(
            self, node_count, mesh_seed):
        # Run A settles a near target from u; run B searches from u to a
        # farther one; A then asks for a target past both, which it reaches
        # by resuming its own search: B's stitches leave A's search where it
        # stopped and see nothing A settled.
        u = 0
        topo, order = self.mesh_and_order(node_count, mesh_seed, u)
        near, far, past = (order[node_count // 25], order[node_count // 3],
                           order[-1])
        run_a, run_b = {}, {}

        def check(searches, v):
            assert topo.stitch(u, v, searches) == reference_detour(
                topo, u, v, frozenset())

        check(run_a, near)
        settled_a = bytes(run_a[u][1])
        check(run_b, far)
        assert bytes(run_a[u][1]) == settled_a and not settled_a[far]
        assert run_b[u][0] is not run_a[u][0]
        check(run_a, past)
        check(run_b, near)
        check(run_b, past)
        check(run_a, far)
        assert run_a.keys() == run_b.keys() == {u}

    @pytest.mark.parametrize("node_count", [25, 125])
    def test_runs_in_threads_on_a_shared_mesh_match_shortest_path(
            self, node_count):
        # Four runs in threads, each with its own searches dict, stitch from
        # the same few origins of one mesh while the interpreter switches
        # threads every few bytecodes: no run sees another's search.
        params = TopologyParams(node_count=node_count, rng_seed=4)
        shared, fresh = generate_topology(params), generate_topology(params)
        rng = random.Random(node_count)
        origins = rng.sample(range(node_count), 5)
        runs = [[(rng.choice(origins), rng.randrange(node_count))
                 for _ in range(300)] for _ in range(4)]
        got = [None] * len(runs)

        def solve(k):
            searches = {}
            got[k] = [shared.stitch(u, v, searches) for u, v in runs[k]]

        threads = [threading.Thread(target=solve, args=(k,))
                   for k in range(len(runs))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(interval)
        for queries, paths in zip(runs, got):
            assert paths == [fresh.shortest_path(u, v) for u, v in queries]

    def test_a_run_resumes_one_search_per_origin(self, monkeypatch):
        # Farther targets resume the run's search from u; none starts anew.
        u = 0
        topo, order = self.mesh_and_order(125, 0, u)
        started = Counter()
        search = MeshTopology._search

        def counting(mesh, sources, *args):
            started[tuple(sources)] += 1
            return search(mesh, sources, *args)

        monkeypatch.setattr(MeshTopology, "_search", counting)
        searches = {}
        for k in (3, 20, 70, 124, 50):
            assert topo.stitch(u, order[k], searches) == reference_detour(
                topo, u, order[k], frozenset())
        assert started == {(u,): 1} and all(searches[u][1])

    def test_a_target_an_earlier_run_settled_is_searched_afresh(self):
        u = 0
        topo, order = self.mesh_and_order(125, 0, u)
        topo.stitch(u, order[60], {})
        later = {}
        for v in order[:61]:
            assert topo.stitch(u, v, later) == reference_detour(
                topo, u, v, frozenset())
        assert sum(later[u][1]) == 61

    def test_a_search_stays_with_its_run(self):
        # The run's dict holds the search's own lists, which see each node
        # the run settles; the mesh keeps the attributes it had, each the
        # same object.
        u = 0
        topo, order = self.mesh_and_order(125, 0, u)
        before = dict(vars(topo))
        searches = {}
        topo.stitch(u, order[10], searches)
        pred, settled, _ = searches[u]
        assert sum(settled) == 11
        topo.stitch(u, order[50], searches)
        assert searches[u][0] is pred and sum(settled) == 51
        assert vars(topo).keys() == before.keys()
        assert all(vars(topo)[name] is value for name, value in before.items())

    def test_runs_one_after_another_each_search_as_on_a_fresh_mesh(self):
        # Runs one after another on one mesh: each settles from each origin
        # the nodes the same stitches settle on a fresh copy of the mesh,
        # whatever earlier runs searched.
        params = TopologyParams(node_count=60, rng_seed=5)
        shared = generate_topology(params)
        rng = random.Random(5)
        origins = rng.sample(range(shared.node_count), 3)
        for _ in range(8):
            queries = [(rng.choice(origins), rng.randrange(shared.node_count))
                       for _ in range(rng.randrange(1, 15))]
            fresh = generate_topology(params)
            settled = []
            for topo in (shared, fresh):
                searches = {}
                for u, v in queries:
                    assert topo.stitch(u, v, searches) == fresh.shortest_path(
                        u, v)
                settled.append({u: bytes(search[1])
                                for u, search in searches.items()})
            assert settled[0] == settled[1]


class TestAlter:
    # The per-position merge step of the paper's alter operator: each
    # position takes the node cheaper to reach from the source, asserted
    # through combine_paths.
    def test_picks_cheaper_from_source(self, demo_ctx):
        # cost(1->2) = 6 vs cost(1->7) = 3.
        assert combine_paths([1, 2, 13], [1, 7, 13], demo_ctx) == [1, 7, 13]

    def test_identity(self, demo_ctx):
        assert combine_paths([1, 5, 13], [1, 5, 13], demo_ctx) == [1, 5, 13]

    def test_tie_keeps_first_argument(self):
        topo = make_topo(4, {
            (0, 1): {"cost": 3.0},
            (0, 2): {"cost": 3.0},
            (1, 3): {},
            (2, 3): {},
        }, gateways={3})
        ctx = ctx_for(topo, 0)
        assert combine_paths([0, 1, 3], [0, 2, 3], ctx) == [0, 1, 3]
        assert combine_paths([0, 2, 3], [0, 1, 3], ctx) == [0, 2, 3]

    def test_commutative_when_costs_differ(self, demo_ctx):
        assert (combine_paths([1, 2, 13], [1, 7, 13], demo_ctx)
                == combine_paths([1, 7, 13], [1, 2, 13], demo_ctx)
                == [1, 7, 13])


class TestCombine:
    def test_merge_walkthrough(self, demo_ctx):
        merged = combine_paths([1, 2, 4, 9, 13], [1, 7, 5, 10, 13],
                               demo_ctx, replace_prob=1.0)
        assert merged == [1, 7, 5, 9, 13]

    def test_zero_coefficients_leave_path_alone(self, demo_ctx, monkeypatch):
        monkeypatch.setattr(routing, "C1", 0.0)
        monkeypatch.setattr(routing, "C2", 0.0)
        path, pbest = [1, 2, 4, 9, 13], [1, 7, 5, 10, 13]
        particle = Particle(path, demo_ctx.fitness(path),
                            pbest, demo_ctx.fitness(pbest))
        out = oplus_update(particle, [1, 7, 5, 10, 13], demo_ctx,
                           random.Random(0))
        assert out == [1, 2, 4, 9, 13]

    def test_gbest_merge_uses_c2(self, demo_ctx, monkeypatch):
        # C1 = 0 leaves the pbest merge idle, so every move comes from the
        # gbest merge, at strength C2.
        monkeypatch.setattr(routing, "C1", 0.0)
        monkeypatch.setattr(routing, "C2", 2.0)
        path, pbest = [1, 2, 4, 9, 13], [1, 7, 5, 10, 13]
        particle = Particle(path, demo_ctx.fitness(path),
                            pbest, demo_ctx.fitness(pbest))
        moved = 0
        for seed in range(20):
            rng, ref_rng = random.Random(seed), random.Random(seed)
            out = oplus_update(particle, [1, 7, 5, 9, 13], demo_ctx, rng)
            _, expected = reference_oplus_update(
                particle, [1, 7, 5, 9, 13], demo_ctx, ref_rng)
            assert out == expected
            assert rng.getstate() == ref_rng.getstate()
            moved += out != path
        assert moved

    @pytest.mark.parametrize("node_count", [25, 125])
    def test_merge_matches_the_always_excising_merge(self, node_count):
        topo = generate_topology(TopologyParams(node_count=node_count,
                                                rng_seed=1))
        ctx = ctx_for(topo, default_source(topo, 0.75))
        rng = random.Random(node_count)
        routes = [routing.random_walk_path(ctx, rng) for _ in range(30)]
        looped = 0
        for current, other in itertools.product(routes[:15], routes[15:]):
            for prob in (1.0, 0.5):
                state = rng.getstate()
                ref_rng = random.Random()
                ref_rng.setstate(state)
                out = combine_paths(current, other, ctx, prob, rng)
                merged, expected = reference_combine_paths(
                    current, other, ctx, prob, ref_rng)
                assert out == expected
                assert rng.getstate() == ref_rng.getstate()
                looped += merged != expected
        assert looped

    def test_loop_excision(self):
        assert remove_loops([1, 2, 3, 2, 5]) == [1, 2, 5]
        assert remove_loops([1, 2, 1, 3, 1, 4]) == [1, 4]
        assert remove_loops([1, 2, 3]) == [1, 2, 3]

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, 6), max_size=30))
    def test_loop_excision_matches_reference(self, seq):
        out = remove_loops(seq)
        assert out == reference_remove_loops(seq)
        assert len(set(out)) == len(out)

    def test_update_output_always_valid(self, demo_ctx):
        rng = random.Random(3)
        path, pbest = [1, 2, 4, 9, 13], [1, 7, 5, 10, 13]
        particle = Particle(path, demo_ctx.fitness(path),
                            pbest, demo_ctx.fitness(pbest))
        for _ in range(50):
            out = oplus_update(particle, [1, 7, 5, 9, 13], demo_ctx, rng)
            assert validate_path(demo_ctx.topo, out)


class TestParticle:
    def test_child_settles_personal_best_at_birth(self, demo_ctx):
        best, middle, worst = ([1, 7, 5, 9, 13], [1, 7, 5, 10, 13],
                               [1, 2, 4, 9, 13])
        parent = Particle(worst, demo_ctx.fitness(worst),
                          middle, demo_ctx.fitness(middle))
        # F is 10 below the parent's personal best of 11: the child's own.
        improved = routing._child(best, parent, demo_ctx)
        assert improved.pbest_path is best
        assert improved.pbest_fitness is improved.fitness
        # F of 19, or a tie at 11: the parent's personal best, shared.
        for path in (worst, list(middle)):
            child = routing._child(path, parent, demo_ctx)
            assert child.path is path
            assert child.pbest_path is parent.pbest_path
            assert child.pbest_fitness is parent.pbest_fitness
        with pytest.raises(FrozenInstanceError):
            improved.pbest_path = middle


class TestCrossover:
    def test_crossover_walkthrough_children_pre_repair(self):
        p1 = [1, 7, 5, 8, 12, 15, 21, 24, 25]
        p2 = [1, 7, 5, 10, 17, 19, 22, 25]
        c1, c2 = crossover_children(p1, p2, cuts=((3, 4), (3, 7)))
        assert c1 == [1, 7, 5, 10, 12, 15, 21, 24, 25]
        assert c2 == [1, 7, 5, 8, 12, 15, 21, 25]

    def test_identical_parents_yield_parents(self, demo_ctx):
        p = [1, 7, 5, 9, 13]
        c1, c2 = two_point_crossover(p, p, demo_ctx, random.Random(0))
        assert c1 == p and c2 == p

    def test_degenerate_cut_keeps_parent(self):
        p1 = [1, 2, 3, 4]
        c1, c2 = crossover_children(p1, p1, cuts=((2, 2), (2, 2)))
        assert c1 == p1 and c2 == p1

    def test_child_equal_to_its_base_parent_is_that_route(self, demo_ctx):
        class Cuts:  # two_point_crossover's four randrange draws, scripted
            draws = iter((3, 4, 1, 3))

            def randrange(self, lo, hi):
                cut = next(self.draws)
                assert lo <= cut < hi
                return cut

        # Window [3, 4) of p1 takes p2's 9 for p1's own, so child 1 is p1
        # itself, unrepaired; window [1, 3) of p2 takes p1's 2 and 4, so
        # child 2 equals the other parent and is repaired into its value.
        p1, p2 = [1, 2, 4, 9, 13], [1, 7, 5, 9, 13]
        c1, c2 = two_point_crossover(p1, p2, demo_ctx, Cuts())
        assert c1 is p1
        assert c2 == p1

    def test_short_parents_unchanged(self, demo_ctx):
        c1, c2 = two_point_crossover([1, 13], [1, 13], demo_ctx,
                                     random.Random(0))
        assert c1 == [1, 13] and c2 == [1, 13]

    def test_children_valid_after_repair(self, demo_ctx):
        rng = random.Random(5)
        p1 = [1, 2, 4, 9, 13]
        p2 = [1, 7, 5, 10, 13]
        for _ in range(50):
            c1, c2 = two_point_crossover(p1, p2, demo_ctx, rng)
            assert validate_path(demo_ctx.topo, c1)
            assert validate_path(demo_ctx.topo, c2)


class TestRepair:
    def test_valid_path_unchanged(self, demo_ctx):
        assert repair_path([1, 7, 5, 9, 13], demo_ctx) == [1, 7, 5, 9, 13]

    def test_gap_is_stitched(self, demo_ctx):
        # 7 and 9 are not adjacent; min-cost bridge goes through 5.
        out = repair_path([1, 7, 9, 13], demo_ctx)
        assert out == [1, 7, 5, 9, 13]



class TestMutate:
    def test_zero_rate_no_change(self, demo_ctx):
        p = [1, 7, 5, 9, 13]
        assert mutate(p, demo_ctx, random.Random(0), 0.0) == p

    def test_articulation_node_keeps_path(self):
        # Only route is the line itself: no detour around the middle node.
        topo = make_topo(3, {(0, 1): {}, (1, 2): {}}, gateways={2})
        ctx = ctx_for(topo, 0)
        out = mutate([0, 1, 2], ctx, random.Random(0), 1.0)
        assert out == [0, 1, 2]

    def test_detour_is_valid_enumerated_path(self):
        # Removing node 2 can be bridged via the 1-4-3 side branch.
        topo = make_topo(5, {(0, 1): {}, (1, 2): {}, (2, 3): {},
                             (1, 4): {}, (4, 3): {}}, gateways={3})
        ctx = ctx_for(topo, 0)
        allowed = enumerate_simple_paths(topo, 0, {3}, max_hops=4)
        mutated = None
        rng = random.Random(1)
        for _ in range(30):
            out = mutate([0, 1, 2, 3], ctx, rng, 1.0)
            assert out in allowed
            if out != [0, 1, 2, 3]:
                mutated = out
        assert mutated == [0, 1, 4, 3]


class TestTournament:
    def test_exact_tie_keeps_the_first_pick(self):
        # Routes 3-4-5-8 and 3-4-7-8 of tie_mesh score the same F.
        ctx = ctx_for(tie_mesh(), source=3)
        pool = [routing._fresh([3, 4, 5, 8], ctx),
                routing._fresh([3, 4, 7, 8], ctx)]
        assert pool[0].fitness.total == pool[1].fitness.total
        split = 0
        for seed in range(10):
            picks = random.Random(seed)
            first, second = picks.choice(pool), picks.choice(pool)
            assert routing._tournament(pool, random.Random(seed)) is first
            split += first is not second
        assert split


class TestSwarmMachinery:
    def test_two_node_graph_single_path(self):
        topo = make_topo(2, {(0, 1): {}}, gateways={1})
        ctx = ctx_for(topo, 0)
        swarm = init_swarm(ctx, HybridConfig(swarm_size=5), random.Random(0))
        assert all(p.path == [0, 1] for p in swarm)

    def test_init_deterministic(self):
        topo = generate_topology(TopologyParams(node_count=25, rng_seed=2))
        ctx = ctx_for(topo, source_for(topo))
        a = init_swarm(ctx, HybridConfig(), random.Random(7))
        b = init_swarm(ctx, HybridConfig(), random.Random(7))
        assert [p.path for p in a] == [p.path for p in b]

    def test_init_paths_all_valid(self):
        topo = generate_topology(TopologyParams(node_count=25, rng_seed=2))
        ctx = ctx_for(topo, source_for(topo))
        swarm = init_swarm(ctx, HybridConfig(swarm_size=30), random.Random(1))
        assert len(swarm) == 30
        for p in swarm:
            assert validate_path(topo, p.path)

    def test_unreachable_gateway_raises(self):
        topo = make_topo(3, {(0, 1): {}}, gateways={2})
        with pytest.raises(UnreachableGatewayError):
            ctx_for(topo, 0)

    def _evaluated_swarm(self, n, ctx, rng):
        swarm = init_swarm(ctx, HybridConfig(swarm_size=n), rng)
        return swarm

    def test_split_arithmetic(self):
        topo = generate_topology(TopologyParams(node_count=25, rng_seed=2))
        ctx = ctx_for(topo, source_for(topo))
        rng = random.Random(0)
        swarm = self._evaluated_swarm(30, ctx, rng)
        elite, pso_set, ga_set = elitism_split(swarm, 0.5, rng)
        assert len(elite) == 3
        assert len(pso_set) == 14  # round((30 - 3) * 0.5), half to even
        assert len(ga_set) == 13

    @pytest.mark.parametrize("ratio,pso_n,ga_n", [(0.0, 0, 27), (1.0, 27, 0)])
    def test_split_boundaries(self, ratio, pso_n, ga_n):
        topo = generate_topology(TopologyParams(node_count=25, rng_seed=2))
        ctx = ctx_for(topo, source_for(topo))
        rng = random.Random(0)
        swarm = self._evaluated_swarm(30, ctx, rng)
        elite, pso_set, ga_set = elitism_split(swarm, ratio, rng)
        assert len(elite) == 3
        assert (len(pso_set), len(ga_set)) == (pso_n, ga_n)

    def test_dedupe_preserves_size_and_distinctness(self):
        topo = generate_topology(TopologyParams(node_count=25, rng_seed=2))
        ctx = ctx_for(topo, source_for(topo))
        rng = random.Random(0)
        base = init_swarm(ctx, HybridConfig(swarm_size=6), rng)
        clones = [Particle(path=list(base[0].path), fitness=base[0].fitness,
                           pbest_path=list(base[0].path),
                           pbest_fitness=base[0].fitness) for _ in range(6)]
        out = dedupe(clones, ctx, rng)
        assert len(out) == 6
        paths = [tuple(p.path) for p in out]
        assert len(set(paths)) == len(paths)

    def test_dedupe_distinct_swarm_untouched(self):
        topo = generate_topology(TopologyParams(node_count=25, rng_seed=2))
        ctx = ctx_for(topo, source_for(topo))
        rng = random.Random(4)
        swarm = init_swarm(ctx, HybridConfig(swarm_size=10), rng)
        distinct = []
        seen = set()
        for p in swarm:
            if tuple(p.path) not in seen:
                seen.add(tuple(p.path))
                distinct.append(p)
        out = dedupe(list(distinct), ctx, rng)
        assert [p.path for p in out] == [p.path for p in distinct]


class TestDedupe:
    def test_matches_reference_draw_for_draw(self):
        # Each route of a 15-walk swarm twice, from near and far sources.
        held = 0
        for node_count in (25, 125):
            for mesh_seed in range(3):
                topo = generate_topology(TopologyParams(node_count=node_count,
                                                        rng_seed=mesh_seed))
                for percentile in (0.25, 0.75, 0.95):
                    source = default_source(topo, percentile)
                    ctx = ctx_for(topo, source)
                    for seed in range(3):
                        base = init_swarm(ctx, HybridConfig(swarm_size=15),
                                          random.Random(seed))
                        rng, ref_rng = random.Random(seed), random.Random(seed)
                        out = dedupe(base + base, ctx, rng)
                        ref, ref_held = reference_dedupe(base + base, ctx,
                                                         ref_rng)
                        assert [p.path for p in out] == [p.path for p in ref]
                        assert rng.getstate() == ref_rng.getstate()
                        held += ref_held
        # Some replacement ran dry and the cutoff held a later one.
        assert held

    def test_draws_one_walk_per_duplicate_once_a_replacement_runs_dry(
            self, triangle, monkeypatch):
        drawn = []
        original = routing.random_walk_path

        def counting(ctx, rng):
            drawn.append(1)
            return original(ctx, rng)
        monkeypatch.setattr(routing, "random_walk_path", counting)
        ctx, rng = ctx_for(triangle, 0), random.Random(0)
        # The only two routes a walk on the triangle can return, kept first,
        # then four repeats.
        routes = [[0, 2], [0, 1, 2]] + [[0, 2]] * 4
        swarm = [routing._fresh(p, ctx) for p in routes]
        # In each call the first repeat uses up its retries, every walk a
        # kept route; each later repeat then draws one walk.
        for _ in range(2):
            drawn.clear()
            assert len(dedupe(swarm, ctx, rng)) == 6
            assert len(drawn) == (1 + routing.DEDUPE_RETRIES) + 3
        # While a route is not kept yet, a repeat retries as before.
        repeat = [routing._fresh([0, 1, 2], ctx)] * 2
        for seed in range(8):
            rng, ref_rng = random.Random(seed), random.Random(seed)
            out = dedupe(repeat, ctx, rng)
            assert [p.path for p in out] == [[0, 1, 2], [0, 2]]
            reference_dedupe(repeat, ctx, ref_rng)
            assert rng.getstate() == ref_rng.getstate()


class TestRandomWalk:
    @staticmethod
    def assert_same_walks(ctx, seed, walks):
        traps = brute_force_trap_links(ctx.topo)
        new_rng, ref_rng = random.Random(seed), random.Random(seed)
        for _ in range(walks):
            assert (routing.random_walk_path(ctx, new_rng)
                    == reference_walk(ctx, ref_rng, traps))
        assert new_rng.getstate() == ref_rng.getstate()

    @pytest.mark.parametrize("node_count", [25, 125])
    def test_matches_choice_walk_on_generated_meshes(self, node_count):
        for mesh_seed in range(3):
            topo = generate_topology(TopologyParams(node_count=node_count,
                                                    rng_seed=mesh_seed))
            for percentile in (0.0, 0.25, 0.5, 0.75, 0.95):
                ctx = ctx_for(topo, default_source(topo, percentile))
                for seed in range(3):
                    self.assert_same_walks(ctx, seed, walks=30)

    def test_matches_choice_walk_through_restarts_and_one_option_steps(self):
        for topo in (spur_mesh(), spur_mesh(loops=SPUR_LOOPS)):
            ctx = ctx_for(topo, 0)
            for seed in range(20):
                self.assert_same_walks(ctx, seed, walks=5)

    def test_falls_back_to_gateway_path_after_restarts(self, monkeypatch):
        topo = spur_mesh()
        ctx = ctx_for(topo, 0)
        tree_path = topo.gateway_path(0)
        fallbacks = []

        def recording(node):
            fallbacks.append(node)
            return tree_path
        monkeypatch.setattr(topo, "gateway_path", recording)
        # Seed 3 misses the gateway on all WALK_RESTARTS attempts.
        new_rng, ref_rng = random.Random(3), random.Random(3)
        assert routing.random_walk_path(ctx, new_rng) == tree_path
        assert fallbacks == [0]
        assert reference_walk(ctx, ref_rng,
                              brute_force_trap_links(topo)) == tree_path
        assert new_rng.getstate() == ref_rng.getstate()

    # (nodes, mesh seed, source): sources with 76-184 routes whose walks
    # end about 40-60 % of their attempts at a trap link.
    @pytest.mark.parametrize("node_count, mesh_seed, source",
                             [(50, 2, 17), (50, 0, 8), (50, 4, 10)])
    def test_trap_rule_keeps_the_route_law(self, node_count, mesh_seed,
                                           source):
        topo = generate_topology(TopologyParams(node_count=node_count,
                                                rng_seed=mesh_seed))
        ctx = ctx_for(topo, source)
        no_traps = [()] * node_count
        # The rule fires: the walks draw less of the stream.
        rng, ref_rng = random.Random(0), random.Random(0)
        for _ in range(50):
            routing.random_walk_path(ctx, rng)
            reference_walk(ctx, ref_rng, no_traps)
        assert rng.getstate() != ref_rng.getstate()

        routes = len(enumerate_simple_paths(topo, source, set(topo.gateways),
                                            max_hops=node_count))
        walks = 20_000
        rng, ref_rng = random.Random(1), random.Random(2)
        new = Counter(tuple(routing.random_walk_path(ctx, rng))
                      for _ in range(walks))
        ref = Counter(tuple(reference_walk(ctx, ref_rng, no_traps))
                      for _ in range(walks))
        tv = sum(abs(new[r] - ref[r]) for r in new.keys() | ref.keys()) / (
            2 * walks)
        # Two samples of one law over `routes` outcomes: the mean TV
        # distance is at most sqrt(2 * routes / walks) / 2, and one walk
        # moves it by at most 1 / walks, so (McDiarmid) it exceeds its mean
        # by t with probability at most exp(-walks * t**2): 1e-9 here.
        bound = (math.sqrt(2 * routes / walks) / 2
                 + math.sqrt(math.log(1e9) / walks))
        assert tv <= bound


class TestUnmovedParticles:
    """oplus_update returns a particle's route unrepaired when the merges
    leave it as it was, on the premise that repair_path returns every
    route of a run unchanged."""

    @pytest.mark.parametrize("node_count", [25, 75, 125])
    def test_repair_returns_every_solver_route_unchanged(self, node_count,
                                                         monkeypatch):
        swarms = []
        updates = {"unmoved": 0, "moved": 0}

        def recording(original):
            def wrapper(*args):
                swarm = original(*args)
                swarms.append(swarm)
                return swarm
            return wrapper

        original_update = routing.oplus_update

        def checked_update(particle, gbest_path, ctx, rng):
            ref_rng = random.Random()
            ref_rng.setstate(rng.getstate())
            merged, expected = reference_oplus_update(
                particle, gbest_path, ctx, ref_rng)
            out = original_update(particle, gbest_path, ctx, rng)
            assert out == expected
            assert rng.getstate() == ref_rng.getstate()
            if merged == particle.path:
                assert out is particle.path
                updates["unmoved"] += 1
            else:
                updates["moved"] += 1
            return out

        monkeypatch.setattr(routing, "init_swarm",
                            recording(routing.init_swarm))
        monkeypatch.setattr(routing, "dedupe", recording(routing.dedupe))
        monkeypatch.setattr(routing, "oplus_update", checked_update)
        for mesh_seed, percentile, algorithm in itertools.product(
                range(2), (0.25, 0.75), ("pso", "ga", "hybrid")):
            topo = generate_topology(TopologyParams(node_count=node_count,
                                                    rng_seed=mesh_seed))
            coeffs = PenaltyCoeffs.for_request(REQ, topo)
            source = default_source(topo, percentile)
            ctx = ctx_for(topo, source)
            swarms.clear()
            run(topo, source, REQ, coeffs,
                HybridConfig(rng_seed=5, algorithm=algorithm))
            routes = {tuple(route) for swarm in swarms for p in swarm
                      for route in (p.path, p.pbest_path)}
            assert len(swarms) >= 2
            for route in map(list, routes):
                assert repair_path(route, ctx) == route
        assert updates["unmoved"] and updates["moved"]


class TestRun:
    def test_two_node_graph(self):
        topo = make_topo(2, {(0, 1): {}}, gateways={1})
        coeffs = PenaltyCoeffs.for_request(REQ, topo)
        res = run(topo, 0, REQ, coeffs, HybridConfig(rng_seed=0))
        assert res.best_path == [0, 1]
        assert res.iterations_to_best == 1
        assert len(set(res.fitness_trace)) == 1

    @pytest.mark.parametrize("algorithm", ["pso", "ga", "hybrid"])
    def test_deterministic_per_seed(self, algorithm):
        topo = generate_topology(TopologyParams(node_count=25, rng_seed=5))
        coeffs = PenaltyCoeffs.for_request(REQ, topo)
        config = HybridConfig(rng_seed=11, algorithm=algorithm)
        src = source_for(topo)
        a = run(topo, src, REQ, coeffs, config).to_dict()
        b = run(topo, src, REQ, coeffs, config).to_dict()
        assert without_wall_times(a) == without_wall_times(b)

    def test_trace_nonincreasing_and_matches_best(self):
        topo = generate_topology(TopologyParams(node_count=30, rng_seed=6))
        coeffs = PenaltyCoeffs.for_request(REQ, topo)
        res = run(topo, source_for(topo), REQ, coeffs, HybridConfig(rng_seed=2))
        trace = res.fitness_trace
        assert all(a >= b for a, b in zip(trace, trace[1:]))
        assert trace[-1] == res.best_fitness.total
        assert len(trace) == res.iterations_executed

    @pytest.mark.parametrize("algorithm", ["pso", "ga", "hybrid"])
    def test_timing_fields_read_the_iteration_clock(self, algorithm):
        topo = generate_topology(TopologyParams(node_count=30, rng_seed=6))
        coeffs = PenaltyCoeffs.for_request(REQ, topo)
        res = run(topo, source_for(topo), REQ, coeffs,
                  HybridConfig(rng_seed=2, algorithm=algorithm))
        times = res.iteration_times_ms
        assert len(times) == res.iterations_executed
        assert res.time_to_best_ms == times[res.iterations_to_best - 1]
        assert res.wall_time_ms == times[-1]
        # iterations_to_best is the first iteration at the final F.
        trace = res.fitness_trace
        assert trace[res.iterations_to_best - 1] == trace[-1]
        assert all(f > trace[-1] for f in trace[:res.iterations_to_best - 1])

    def test_matches_oracle_on_small_graph(self):
        topo = generate_topology(TopologyParams(node_count=12, rng_seed=21))
        req = QosRequest(5.0, 10.0, 10.0, 0.5)
        coeffs = PenaltyCoeffs.for_request(req, topo)
        src = source_for(topo)
        res = run(topo, src, req, coeffs, HybridConfig(rng_seed=1))
        _, oracle_fb = oracle_best(topo, src, req, coeffs)
        assert res.best_fitness.total == pytest.approx(oracle_fb.total)

    @pytest.mark.parametrize("algorithm", ["pso", "ga", "hybrid"])
    def test_never_beats_oracle(self, algorithm):
        topo = generate_topology(TopologyParams(node_count=12, rng_seed=9))
        coeffs = PenaltyCoeffs.for_request(REQ, topo)
        src = source_for(topo)
        res = run(topo, src, REQ, coeffs,
                  HybridConfig(rng_seed=3, algorithm=algorithm))
        _, oracle_fb = oracle_best(topo, src, REQ, coeffs)
        assert res.best_fitness.total >= oracle_fb.total - 1e-9

    @pytest.mark.parametrize("algorithm", ["pso", "ga", "hybrid"])
    def test_each_route_scored_once_per_run(self, monkeypatch, algorithm):
        topo = generate_topology(TopologyParams(node_count=125, rng_seed=0))
        req = QosRequest(bw_req=5.0, d_req=10.0, j_req=2.5, beta=0.0)
        coeffs = PenaltyCoeffs.for_request(req, topo)
        source = default_source(topo, 0.75)
        config = HybridConfig(rng_seed=4, algorithm=algorithm)
        plain = run(topo, source, req, coeffs, config)

        scored = []
        fitness = routing.fitness

        def recording(topo, path, req, coeffs):
            scored.append(tuple(path))
            return fitness(topo, path, req, coeffs)
        monkeypatch.setattr(routing, "fitness", recording)
        recorded = run(topo, source, req, coeffs, config)

        assert recorded.iterations_executed > 1
        assert len(scored) == len(set(scored))
        assert (without_wall_times(recorded.to_dict())
                == without_wall_times(plain.to_dict()))

    def test_best_path_always_valid(self):
        topo = generate_topology(TopologyParams(node_count=40, rng_seed=13))
        coeffs = PenaltyCoeffs.for_request(REQ, topo)
        for seed in range(3):
            res = run(topo, source_for(topo), REQ, coeffs, HybridConfig(rng_seed=seed))
            assert validate_path(topo, res.best_path)

    def test_every_particle_and_operator_output_is_a_route(self, monkeypatch):
        # Over the search grid, every route a particle is made with and
        # every route an operator returns is simple, follows links and holds
        # exactly one gateway, at its end.  mutate and the operators return
        # their routes unchecked, so this is what would see them break.
        made = {
            "_fresh": lambda p: (p.path, p.pbest_path),
            "_child": lambda p: (p.path, p.pbest_path),
            "random_walk_path": lambda route: (route,),
            "oplus_update": lambda route: (route,),
            "two_point_crossover": lambda children: children,
            "mutate": lambda route: (route,),
            "repair_path": lambda route: (route,),
        }
        called = set()
        mesh = {}

        def checking(name, original):
            def wrapper(*args, **kwargs):
                out = original(*args, **kwargs)
                called.add(name)
                for route in made[name](out):
                    assert route is not None, name
                    assert validate_path(mesh["topo"], route), (name, route)
                    assert mesh["topo"].gateways.isdisjoint(route[:-1]), (
                        name, route)
                return out
            return wrapper

        for name in made:
            monkeypatch.setattr(routing, name,
                                checking(name, getattr(routing, name)))
        for size in SEARCH_SIZES:
            for seed in SEEDS:
                topo = mesh["topo"] = generate_topology(
                    TopologyParams(node_count=size, rng_seed=seed))
                coeffs = PenaltyCoeffs.for_request(SEARCH_REQ, topo)
                for percentile in SEARCH_PERCENTILES:
                    source = default_source(topo, percentile)
                    for algorithm in ("pso", "ga", "hybrid"):
                        run(topo, source, SEARCH_REQ, coeffs,
                            HybridConfig(rng_seed=seed, algorithm=algorithm))
        assert called == set(made)


@st.composite
def small_meshes(draw):
    """A generated 8-12-node mesh and a non-gateway source on it."""
    topo = generate_topology(TopologyParams(
        node_count=draw(st.integers(8, 12)),
        rng_seed=draw(st.integers(0, 2**16))))
    source = draw(st.sampled_from(
        [n for n in range(topo.node_count) if n not in topo.gateways]))
    return topo, source


@st.composite
def tie_grids(draw):
    """A 2-4 x 2-4 grid with link costs in {1, 2}, links inserted in a
    drawn order, some gateways and a non-gateway source: many routes tie."""
    rows, cols = draw(st.integers(2, 4)), draw(st.integers(2, 4))
    n = rows * cols
    edges = ([(i, i + 1) for i in range(n) if (i + 1) % cols] +
             [(i, i + cols) for i in range(n - cols)])
    edges = draw(st.permutations(edges))
    costs = draw(st.lists(st.sampled_from([1.0, 2.0]),
                          min_size=len(edges), max_size=len(edges)))
    gateways = draw(st.sets(st.integers(0, n - 1), min_size=1,
                            max_size=n - 1))
    topo = make_topo(n, {e: {"cost": c} for e, c in zip(edges, costs)},
                     gateways)
    source = draw(st.sampled_from(
        [v for v in range(n) if v not in gateways]))
    return topo, source


class TestProperties:
    BENCH_REQ = QosRequest(bw_req=5.0, d_req=10.0, j_req=2.5, beta=0.0)

    @settings(max_examples=12, deadline=None)
    @given(mesh=small_meshes(), seed=st.integers(0, 2**16))
    def test_solvers_return_valid_monotone_routes_no_better_than_oracle(
            self, mesh, seed):
        topo, source = mesh
        coeffs = PenaltyCoeffs.for_request(self.BENCH_REQ, topo)
        _, oracle = oracle_best(topo, source, self.BENCH_REQ, coeffs)
        for algorithm in ("pso", "ga", "hybrid"):
            res = run(topo, source, self.BENCH_REQ, coeffs,
                      HybridConfig(rng_seed=seed, algorithm=algorithm))
            assert res.best_path[0] == source
            assert validate_path(topo, res.best_path)
            trace = res.fitness_trace
            assert all(a >= b for a, b in zip(trace, trace[1:]))
            assert res.best_fitness.total >= oracle.total
            # Every route ends at its first gateway: exactly one, last.
            for path in [res.best_path, *res.incumbent_paths]:
                assert path[-1] in topo.gateways
                assert len(topo.gateways.intersection(path)) == 1

    @settings(max_examples=100, deadline=None)
    @given(mesh=st.one_of(small_meshes(), tie_grids()), data=st.data())
    def test_repair_returns_a_route_on_merges_and_crossovers(self, mesh,
                                                             data):
        # Repair's inputs as its callers make them: the two-stage PSO merge
        # of three random-walk routes, and raw crossover children of two,
        # loops excised.
        topo, source = mesh
        ctx = ctx_for(topo, source)
        rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
        a, b, c = (routing.random_walk_path(ctx, rng) for _ in range(3))
        p1, p2 = data.draw(st.tuples(st.floats(0, 1), st.floats(0, 1)))
        raws = [combine_paths(combine_paths(a, b, ctx, p1, rng), c, ctx, p2,
                              rng)]
        if len(a) >= 3 and len(b) >= 3:
            hi = min(len(a), len(b)) - 1
            cuts = []
            for base in (a, b):
                start = data.draw(st.integers(1, hi - 1))
                cuts.append((start, data.draw(st.integers(start,
                                                          len(base) - 1))))
            raws += map(remove_loops, crossover_children(a, b, cuts))
        for raw in raws:
            route = repair_path(raw, ctx)
            assert route[0] == source
            assert validate_path(topo, route)
            assert topo.gateways.intersection(route) == {route[-1]}
