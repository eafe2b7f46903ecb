"""Discrete route solvers: hybrid PSO-GA plus pure-PSO and pure-GA baselines.

A particle is a loop-free node sequence from the source to some gateway.
Because node sequences admit no vector arithmetic, the swarm update combines
a particle with its personal best and the global best position-by-position,
keeping at each position whichever node is cheaper to reach from the source;
the GA side recombines particles with a positional two-point crossover.
Broken sequences produced by either operator are repaired by stitching
minimum-cost subpaths.
"""

from __future__ import annotations

import math
import random
import time
from array import array
from dataclasses import asdict, dataclass, field

from .qos import FitnessBreakdown, PenaltyCoeffs, QosRequest, fitness
from .topology import UNREACHABLE, MeshTopology, _trace, validate_path


# HybridConfig.algorithm's values: pure PSO, pure GA and the hybrid.
ALGORITHMS = ("pso", "ga", "hybrid")

# Random walk attempts before falling back to the min-cost gateway path.
WALK_RESTARTS = 50

# Walks dedupe draws again when a replacement repeats a route it has seen.
DEDUPE_RETRIES = 20

# The hybrid's generation structure: the ranked swarm's elite share, carried
# over unchanged (ceil(0.1 * N) >= 1 for every swarm_size >= 2, so the
# incumbent always survives), the PSO share of the rest (crossover takes the
# remainder) and a GA child's chance of mutation.
ELITE_FRACTION = 0.1
BREED_RATIO = 0.5
MUTATION_RATE = 0.05

# Iterations without a strictly lower F after which a run stops.
STAGNATION_WINDOW = 15

# PSO attraction strengths toward the personal and the global best: each
# merge stage replaces a position with probability min(1, C * r), r ~ U(0,1).
C1 = C2 = 1.5


class UnreachableGatewayError(ValueError):
    """No gateway can be reached from the requested source."""


@dataclass
class HybridConfig:
    swarm_size: int = 30
    max_iterations: int = 100
    rng_seed: int = 0
    algorithm: str = "hybrid"

    def __post_init__(self):
        # Any int seeds random.Random, negative ones too.
        counts = (self.swarm_size, self.max_iterations, self.rng_seed)
        if not all(type(c) is int for c in counts):  # no bools, no floats
            raise ValueError(
                "swarm_size, max_iterations and rng_seed must be integers")
        if self.swarm_size < 2:
            raise ValueError("swarm_size must be >= 2")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.algorithm not in ALGORITHMS:
            raise ValueError("algorithm must be pso, ga or hybrid")


@dataclass(frozen=True)
class Particle:
    """A route and personal best, fixed when the particle is made; route
    lists are shared between particles and never modified."""
    path: list[int]
    fitness: FitnessBreakdown
    pbest_path: list[int]
    pbest_fitness: FitnessBreakdown


@dataclass
class RunResult:
    best_path: list[int]
    best_fitness: FitnessBreakdown
    fitness_trace: list[float]
    incumbent_paths: list[list[int]]
    iterations_executed: int
    iterations_to_best: int
    wall_time_ms: float
    time_to_best_ms: float
    seed: int
    algorithm: str
    iteration_times_ms: list[float] = field(default_factory=list)

    def to_dict(self) -> dict:
        return asdict(self)


class RouteContext:
    """Per-run bundle of topology, source and QoS demand; routes end at the
    topology's gateways.

    The context holds the source's cost row for the merge, each route's
    fitness, and repair's stitch searches: one Dijkstra per stitch origin,
    suspended once the requested target settles and resumed for a farther
    one, so a run settles no more of the mesh than its stitches ask for.
    All three live as long as the context, which is one run.  At its end
    the run leaves each search's settled prefix on the topology, where
    later runs on the mesh read the stitches it covers.
    """

    def __init__(self, topo: MeshTopology, source: int,
                 req: QosRequest, coeffs: PenaltyCoeffs):
        # Node ids are those validate_path accepts: no bools, no floats.  A
        # numpy integer becomes an int, so routes serialize as JSON.
        if not validate_path(topo, [source], require_gateway=False):
            raise ValueError("unknown source node")
        self.topo = topo
        self.source = source = int(source)
        self.req = req
        self.coeffs = coeffs
        self.gateways = topo.gateways
        if source in self.gateways:
            raise ValueError("source is a gateway")
        if topo.gateway_path(source) is None:
            raise UnreachableGatewayError(
                f"no gateway reachable from node {source}")
        # The merge compares source costs at every aligned position, so
        # the row is read once here rather than looked up node by node.
        self.source_costs = topo.shortest_path_costs(source)
        # The walk's trap links: a mesh's first run builds them here, before
        # run() starts its clock.
        self.trap_links = topo.trap_links
        self._scores: dict[tuple[int, ...], FitnessBreakdown] = {}
        # Per stitch origin: its predecessor row, which nodes have settled,
        # and the suspended search filling them.
        self._stitches: dict[int, tuple] = {}

    def fitness(self, path: list[int]) -> FitnessBreakdown:
        """F of ``path``, computed once per distinct node sequence.

        fitness() is pure for this context's topology, request and
        coefficients, so a route the swarm revisits is not scored again;
        the memo lives as long as the context, which is one run.  Keys are
        tuples, so sequences that compare equal (1, 1.0, True) share a
        score: the operators only produce int node ids.
        """
        key = tuple(path)
        scored = self._scores.get(key)
        if scored is None:
            scored = self._scores[key] = fitness(self.topo, path, self.req,
                                                 self.coeffs)
        return scored

    def stitch(self, u: int, v: int) -> list[int] | None:
        """topo.shortest_path(u, v): a least-cost path, or None when none
        exists.  A settled node's distance and predecessor chain are final,
        so the path is read from the prefix an earlier run on the mesh
        settled from ``u`` when ``v`` is in it.  Otherwise this run's search
        from ``u`` runs only until ``v`` has settled, and later stitches
        from ``u`` resume it where it stopped."""
        kept = self.topo._stitched.get(u)
        if kept is not None and kept[1][v]:
            pred = kept[0]
        else:
            search = self._stitches.get(u)
            if search is None:
                n = self.topo.node_count
                dist, pred = [UNREACHABLE] * n, [-1] * n
                search = self._stitches[u] = (
                    pred, bytearray(n), self.topo._search((u,), dist, pred))
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

    def keep_stitches(self) -> None:
        """Leave each of this run's stitch searches on the topology as its
        settled prefix, for later runs on the mesh to read.  A search from
        ``u`` starts only for a target past the prefix kept from ``u``, and
        settles the same nodes in the same order, so it holds more."""
        kept = self.topo._stitched
        for u, (pred, settled, _) in self._stitches.items():
            kept[u] = (array("l", pred), bytes(settled))


# -- path surgery ----------------------------------------------------------

def remove_loops(seq: list[int]) -> list[int]:
    """Cut every loop by excising between the first and last occurrence of a
    repeated node, until the sequence is simple."""
    out = list(seq)
    while len(set(out)) < len(out):
        first: dict[int, int] = {}
        for idx, node in enumerate(out):
            if node in first:
                dup = node
            else:
                first[node] = idx
        lo = first[dup]
        hi = len(out) - 1 - out[::-1].index(dup)
        out = out[: lo + 1] + out[hi + 1:]
    return out


def repair_path(raw: list[int], ctx: RouteContext) -> list[int]:
    """Turn a node sequence from the source to a gateway into a route.

    Non-adjacent consecutive pairs are bridged with the min-cost subpath,
    loops excised, and the sequence cut at its first gateway.  ``raw`` must
    start at the source, end at a gateway and hold only nodes the source
    reaches; both callers' sequences do, since they take their nodes from
    routes of the run: combine_paths pins both endpoints, and each
    crossover child keeps its base parent's head ``p[:a]`` and tail
    ``p[b:]``.  Excision keeps adjacency, the source and the last node, so
    the result is a simple route with one gateway, at its end.
    """
    table, stitch = ctx.topo.link_table, ctx.stitch
    stitched = [raw[0]]
    for v in raw[1:]:
        u = stitched[-1]
        if v in table[u]:
            stitched.append(v)
        else:
            stitched.extend(stitch(u, v)[1:])
    seq = remove_loops(stitched)
    end = next(i for i, node in enumerate(seq) if node in ctx.gateways)
    return seq[:end + 1]


# -- swarm operators -------------------------------------------------------

def random_walk_path(ctx: RouteContext, rng: random.Random) -> list[int]:
    """Loop-free random walk from the source to any gateway.

    Restarts after a dead end (a walk never revisits a node, so it ends at
    a gateway or a dead end), and as soon as it crosses a trap link
    (``MeshTopology.trap_links``): past one it can only reach a dead end.
    Such an attempt never succeeds either way, so ending it early leaves
    each attempt's chance of success, and the route a successful attempt
    returns, as they were.  Falls back to the min-cost path to the nearest
    gateway after WALK_RESTARTS attempts.
    """
    source, gateways = ctx.source, ctx.gateways
    adjacency, traps = ctx.topo.adjacency, ctx.trap_links
    getrandbits = rng.getrandbits
    for _ in range(WALK_RESTARTS):
        path = [source]
        visited = bytearray(len(adjacency))
        visited[source] = 1
        node = source
        while True:
            # A plain loop, not a comprehension: up to CPython 3.11 each
            # comprehension is a call with its own frame (PEP 709 inlines
            # them from 3.12), and this runs once per step.
            options = []
            for v in adjacency[node]:
                if not visited[v]:
                    options.append(v)
            n = len(options)
            if not n:
                break
            # rng.choice(options) without its call overhead: the same draws
            # as CPython's Random._randbelow, k from n (not n - 1), so a
            # one-option step still consumes the stream.
            k = n.bit_length()
            r = getrandbits(k)
            while r >= n:
                r = getrandbits(k)
            step = options[r]
            if step in traps[node]:
                break
            node = step
            path.append(node)
            visited[node] = 1
            if node in gateways:
                return path
    return ctx.topo.gateway_path(source)


def init_swarm(ctx: RouteContext, config: HybridConfig,
               rng: random.Random) -> list[Particle]:
    """N loop-free random-walk particles from source to any gateway."""
    paths = [random_walk_path(ctx, rng) for _ in range(config.swarm_size)]
    return [_fresh(p, ctx) for p in paths]


def combine_paths(current: list[int], other: list[int], ctx: RouteContext,
                  replace_prob: float = 1.0,
                  rng: random.Random | None = None) -> list[int]:
    """Position-wise merge of two routes, the discrete stand-in for adding a
    scaled attraction term.

    Interior positions (aligned up to the shorter route, endpoints pinned)
    are each replaced, with probability ``replace_prob`` drawn from ``rng``
    (needed unless ``replace_prob`` >= 1), by the aligned node of ``other``
    when that is strictly cheaper to reach from the source; ties keep the
    current node.  Loops created by replacements are excised.
    """
    cost = ctx.source_costs
    out = list(current)
    replaced = False
    limit = min(len(current), len(other)) - 1
    for k in range(1, limit):
        if replace_prob >= 1.0 or rng.random() < replace_prob:
            if cost[other[k]] < cost[out[k]]:
                out[k] = other[k]
                replaced = True
    return remove_loops(out) if replaced else out


def oplus_update(particle: Particle, gbest_path: list[int], ctx: RouteContext,
                 rng: random.Random) -> list[int]:
    """PSO-style position update in the path domain.

    Two merge stages (toward pbest then gbest); each stage's replacement
    probability is min(1, C * r) with fresh r ~ U(0,1), so C1/C2 act as
    attraction strengths.  The merged sequence keeps the route's source
    and gateway and takes its nodes from routes of this run, as repair
    needs.  When the merges leave the particle's route as it was, that
    route is returned unrepaired: every route of a run is already a valid
    source->gateway path with its one gateway at the end, which repair
    returns unchanged.
    """
    p1 = min(1.0, C1 * rng.random())
    step = combine_paths(particle.path, particle.pbest_path, ctx, p1, rng)
    p2 = min(1.0, C2 * rng.random())
    step = combine_paths(step, gbest_path, ctx, p2, rng)
    if step == particle.path:
        return particle.path
    return repair_path(step, ctx)


def crossover_children(p1: list[int], p2: list[int],
                       cuts: tuple[tuple[int, int], tuple[int, int]],
                       ) -> tuple[list[int], list[int]]:
    """Raw (pre-repair) positional two-point crossover.

    ``cuts`` gives each child its own window on its base parent; the window
    is replaced by the other parent's same-index segment, endpoints pinned.
    """
    (a1, b1), (a2, b2) = cuts
    child1 = p1[:a1] + p2[a1:b1] + p1[b1:]
    child2 = p2[:a2] + p1[a2:b2] + p2[b2:]
    return child1, child2


def two_point_crossover(p1: list[int], p2: list[int], ctx: RouteContext,
                        rng: random.Random) -> tuple[list[int], list[int]]:
    """Crossover with randomly drawn windows plus repair.

    Parents shorter than 3 nodes pass through unchanged.  Each child keeps
    its base parent's source and gateway and takes its nodes from the
    parents, as repair needs.  A child equal to its base parent is that
    parent's route, unrepaired: repair returns every route of a run
    unchanged, as in oplus_update.
    """
    if len(p1) < 3 or len(p2) < 3:
        return p1, p2
    # Each window starts where the other parent still has a node to give.
    hi = min(len(p1), len(p2)) - 1
    a1 = rng.randrange(1, hi)
    b1 = rng.randrange(a1, len(p1))
    a2 = rng.randrange(1, hi)
    b2 = rng.randrange(a2, len(p2))
    raw1, raw2 = crossover_children(p1, p2, ((a1, b1), (a2, b2)))
    return (p1 if raw1 == p1 else repair_path(remove_loops(raw1), ctx),
            p2 if raw2 == p2 else repair_path(remove_loops(raw2), ctx))


def mutate(path: list[int], ctx: RouteContext, rng: random.Random,
           mutation_rate: float) -> list[int]:
    """With probability ``mutation_rate``, drop one interior node and bridge
    the gap with the cheapest detour that avoids it; no detour, no change.
    The detour's interior avoids the route and every gateway, so the splice
    is simple, follows links and ends at the route's one gateway."""
    if len(path) < 3 or rng.random() >= mutation_rate:
        return path
    k = rng.randrange(1, len(path) - 1)
    forbidden = (set(path) | set(ctx.gateways)) - {path[k - 1], path[k + 1]}
    detour = ctx.topo.shortest_path(path[k - 1], path[k + 1], avoid=forbidden)
    if detour is None:
        return path
    return path[:k - 1] + detour + path[k + 2:]


def dedupe(swarm: list[Particle], ctx: RouteContext,
           rng: random.Random) -> list[Particle]:
    """Replace duplicate routes (beyond the first) with fresh random walks,
    resetting the replacement's personal best; swarm size is preserved.

    A replacement that repeats a route already kept draws again, up to
    DEDUPE_RETRIES times, and keeps its last walk.  Once one replacement
    has drawn all its retries and every walk repeated a kept route, the
    walk's routes are most likely all kept, so each later replacement in
    the same call keeps its first walk.  The next call retries again.
    """
    seen: set[tuple[int, ...]] = set()
    out = []
    retries = DEDUPE_RETRIES
    for particle in swarm:
        key = tuple(particle.path)
        if key in seen:
            for _ in range(retries + 1):
                path = random_walk_path(ctx, rng)
                key = tuple(path)
                if key not in seen:
                    break
            else:
                retries = 0
            particle = _fresh(path, ctx)
        seen.add(key)
        out.append(particle)
    return out


def elitism_split(ranked: list[Particle], breed_ratio: float,
                  rng: random.Random,
                  ) -> tuple[list[Particle], list[Particle], list[Particle]]:
    """Partition a ranked swarm, best first, into (elite, pso_set, ga_set).

    The elite are the first ceil(ELITE_FRACTION * N), carried over
    unchanged; of the rest, Z = round(count * breed_ratio) particles chosen
    uniformly at random take the PSO update, the remainder go to crossover.
    """
    n_elite = math.ceil(ELITE_FRACTION * len(ranked))
    elite = ranked[:n_elite]
    rest = ranked[n_elite:]
    pso_set = rng.sample(rest, round(len(rest) * breed_ratio))
    pso_ids = {id(p) for p in pso_set}
    ga_set = [p for p in rest if id(p) not in pso_ids]
    return elite, pso_set, ga_set


def _tournament(pool: list[Particle], rng: random.Random) -> Particle:
    a, b = rng.choice(pool), rng.choice(pool)
    return a if a.fitness.total <= b.fitness.total else b


def _fresh(path: list[int], ctx: RouteContext) -> Particle:
    # A new particle is its own personal best.
    fit = ctx.fitness(path)
    return Particle(path, fit, path, fit)


def _child(path: list[int], parent: Particle, ctx: RouteContext) -> Particle:
    # The child's personal best is its own route when that scores strictly
    # below the parent's personal best, and the parent's otherwise.
    fit = ctx.fitness(path)
    if fit.total < parent.pbest_fitness.total:
        return Particle(path, fit, path, fit)
    return Particle(path, fit, parent.pbest_path, parent.pbest_fitness)


def _ga_offspring(parents: list[Particle], ctx: RouteContext,
                  rng: random.Random, tournament: bool) -> list[Particle]:
    """Crossover + mutation producing one child per parent; with
    `tournament` each mate is drawn from `parents` by binary tournament,
    otherwise the parents are paired off in a random order."""
    if tournament:
        def pick() -> Particle:
            return _tournament(parents, rng)
    else:
        order = list(parents)
        rng.shuffle(order)
        pick = iter(order).__next__
    out: list[Particle] = []
    for _ in range(len(parents) // 2):
        pa, pb = pick(), pick()
        c1, c2 = two_point_crossover(pa.path, pb.path, ctx, rng)
        out.append(_child(mutate(c1, ctx, rng, MUTATION_RATE), pa, ctx))
        out.append(_child(mutate(c2, ctx, rng, MUTATION_RATE), pb, ctx))
    if len(parents) % 2:
        pa = pick()
        out.append(_child(mutate(pa.path, ctx, rng, MUTATION_RATE), pa, ctx))
    return out


# -- main loop -------------------------------------------------------------

def run(topo: MeshTopology, source: int, req: QosRequest,
        coeffs: PenaltyCoeffs, config: HybridConfig) -> RunResult:
    """Solve for a QoS-satisfying min-fitness route to any gateway.

    One iteration: rank the swarm by (F, route), take its head as the
    incumbent, split off the elite, apply the PSO merge to one share of the
    rest and crossover plus mutation to the other (the `algorithm` field
    collapses this to a pure PSO or pure GA update), then discard duplicate
    routes.  The previous head is an elite and enters dedupe first, so the
    incumbent never gets worse, and exact-F ties go to the lower route, as
    the (F, route) order ranks them.  Each particle settles its personal
    best when it is made.  Stops at the iteration cap or after
    STAGNATION_WINDOW iterations without a strictly lower F.
    Deterministic for a fixed seed, wall time aside.
    """
    ctx = RouteContext(topo, source, req, coeffs)
    rng = random.Random(config.rng_seed)
    # Pure PSO sends every non-elite particle to the merge, pure GA every
    # one to crossover.
    breed_ratio = {"pso": 1.0, "ga": 0.0}.get(config.algorithm, BREED_RATIO)
    t0 = time.perf_counter()
    swarm = init_swarm(ctx, config, rng)

    trace: list[float] = []
    incumbents: list[list[int]] = []
    iter_times: list[float] = []
    last_improve = 1

    for t in range(1, config.max_iterations + 1):
        ranked = sorted(swarm, key=lambda p: (p.fitness.total, p.path))
        best = ranked[0]
        if trace and best.fitness.total < trace[-1]:
            last_improve = t
        trace.append(best.fitness.total)
        incumbents.append(list(best.path))
        iter_times.append((time.perf_counter() - t0) * 1000.0)

        if t == config.max_iterations or t - last_improve >= STAGNATION_WINDOW:
            break

        elite, pso_set, ga_set = elitism_split(ranked, breed_ratio, rng)
        next_gen = list(elite)
        for p in pso_set:
            new_path = oplus_update(p, best.path, ctx, rng)
            next_gen.append(_child(new_path, p, ctx))
        next_gen.extend(_ga_offspring(ga_set, ctx, rng,
                                      tournament=(config.algorithm == "ga")))
        swarm = dedupe(next_gen, ctx, rng)

    ctx.keep_stitches()
    return RunResult(
        best_path=list(best.path),
        best_fitness=best.fitness,
        fitness_trace=trace,
        incumbent_paths=incumbents,
        iterations_executed=len(trace),
        iterations_to_best=last_improve,
        wall_time_ms=iter_times[-1],
        time_to_best_ms=iter_times[last_improve - 1],
        seed=config.rng_seed,
        algorithm=config.algorithm,
        iteration_times_ms=iter_times,
    )
