"""Continuous-domain hybrid swarm: standard PSO steps plus VPAC crossover.

This is the real-vector machinery the discrete route solver mirrors,
validated on analytic objectives.  The velocity/position update is the
classic inertia + cognitive + social rule; the GA side recombines particle
pairs with velocity-propelled averaged crossover (children start at the
parents' midpoint, shifted backwards along a parent velocity).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .topology import is_finite
# The generation structure is the route solver's: its elite share, PSO share
# and mutation chance are used here too.
from .routing import BREED_RATIO, ELITE_FRACTION, MUTATION_RATE

if TYPE_CHECKING:
    import numpy as np

PHI1 = PHI2 = 0.5
MUTATION_SIGMA_FRAC = 0.01


@dataclass
class ContinuousConfig:
    bounds: list[tuple[float, float]]
    w: float = 0.7
    c1: float = 1.5
    c2: float = 1.5
    swarm_size: int = 20
    iterations: int = 200
    rng_seed: int = 0

    def __post_init__(self):
        if not self.bounds:
            raise ValueError("bounds must be non-empty")
        try:
            ok = all(is_finite(lo) and is_finite(hi) and lo < hi
                     for lo, hi in self.bounds)
        except (TypeError, ValueError):  # a bound that is no pair of numbers
            ok = False
        if not ok:
            raise ValueError("each bound must be a pair of finite numbers "
                             "lo < hi")
        counts = (self.swarm_size, self.iterations, self.rng_seed)
        if not all(type(c) is int for c in counts):  # no bools, no floats
            raise ValueError(
                "swarm_size, iterations and rng_seed must be integers")
        if not all(map(is_finite, (self.w, self.c1, self.c2))):
            raise ValueError("w, c1 and c2 must be finite numbers")
        if self.swarm_size < 1:
            raise ValueError("swarm_size must be >= 1")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.rng_seed < 0:  # numpy seeds take no negative ints
            raise ValueError("rng_seed must be >= 0")


@dataclass
class RealParticle:
    position: np.ndarray
    velocity: np.ndarray
    pbest_position: np.ndarray
    pbest_value: float
    value: float = math.inf

    def __post_init__(self):
        if self.position.shape != self.velocity.shape:
            raise ValueError("position/velocity dimension mismatch")


def pso_step(particle: RealParticle, gbest_position: np.ndarray,
             config: ContinuousConfig, rng: np.random.Generator) -> RealParticle:
    """One inertia + cognitive + social velocity/position update.

    r1 and r2 are scalars drawn fresh per step and applied across all
    dimensions.  Positions are clamped to the bounds with the velocity
    zeroed on any clamped dimension.
    """
    import numpy as np
    r1 = rng.uniform()
    r2 = rng.uniform()
    v = (config.w * particle.velocity
         + config.c1 * r1 * (particle.pbest_position - particle.position)
         + config.c2 * r2 * (gbest_position - particle.position))
    x = particle.position + v
    lo = np.array([b[0] for b in config.bounds])
    hi = np.array([b[1] for b in config.bounds])
    particle.position = np.clip(x, lo, hi)
    particle.velocity = np.where((x < lo) | (x > hi), 0.0, v)
    return particle


def vpac_crossover(p: RealParticle, q: RealParticle, phi1: float,
                   phi2: float) -> tuple[np.ndarray, np.ndarray]:
    """Children at the parents' midpoint, each pushed back along its own
    parent's velocity: child_k = (x_p + x_q)/2 - phi_k * v_k."""
    mid = (p.position + q.position) / 2.0
    return mid - phi1 * p.velocity, mid - phi2 * q.velocity


def run_continuous(objective, config: ContinuousConfig,
                   ) -> tuple[np.ndarray, float, list[float]]:
    """Hybrid swarm minimization of ``objective`` over the configured box.

    Mirrors the route solver's generation structure: elite retained, a
    breed-ratio share of the rest takes PSO steps, the remainder is paired
    for VPAC crossover with light Gaussian mutation.  Returns the best
    position, its value, and the per-iteration incumbent trace.
    """
    import numpy as np
    rng = np.random.default_rng(config.rng_seed)
    lo = np.array([b[0] for b in config.bounds])
    hi = np.array([b[1] for b in config.bounds])
    span = hi - lo
    n = config.swarm_size

    swarm: list[RealParticle] = []
    for _ in range(n):
        x = rng.uniform(lo, hi)
        v = rng.uniform(-span, span) * 0.1
        val = float(objective(x))
        swarm.append(RealParticle(position=x, velocity=v,
                                  pbest_position=x.copy(), pbest_value=val,
                                  value=val))

    gbest_x = None
    gbest_val = math.inf
    trace: list[float] = []

    for _ in range(config.iterations):
        for p in swarm:
            p.value = float(objective(p.position))
            if p.value < p.pbest_value:
                p.pbest_value = p.value
                p.pbest_position = p.position.copy()
            if p.value < gbest_val:
                gbest_val = p.value
                gbest_x = p.position.copy()
        trace.append(gbest_val)

        n_elite = math.ceil(ELITE_FRACTION * n)
        ranked = sorted(swarm, key=lambda p: p.value)
        elite = ranked[:n_elite]
        rest = ranked[n_elite:]
        z = round(len(rest) * BREED_RATIO)
        idx = rng.permutation(len(rest))
        pso_part = [rest[i] for i in idx[:z]]
        ga_part = [rest[i] for i in idx[z:]]

        for p in pso_part:
            pso_step(p, gbest_x, config, rng)

        order = rng.permutation(len(ga_part))
        for i in range(0, len(order) - 1, 2):
            pa, qa = ga_part[order[i]], ga_part[order[i + 1]]
            child1, child2 = vpac_crossover(pa, qa, PHI1, PHI2)
            for parent, child in ((pa, child1), (qa, child2)):
                if rng.uniform() < MUTATION_RATE:
                    child = child + rng.normal(0.0, MUTATION_SIGMA_FRAC * span)
                parent.position = np.clip(child, lo, hi)
                parent.velocity = np.zeros_like(parent.velocity)

        swarm = elite + pso_part + ga_part

    return gbest_x, gbest_val, trace
