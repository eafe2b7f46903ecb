import math

import numpy as np
import pytest

from meshroute.continuous import (
    ContinuousConfig,
    RealParticle,
    pso_step,
    run_continuous,
    vpac_crossover,
)


def particle(x, v, pbest=None):
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    p = np.asarray(pbest, dtype=float) if pbest is not None else x.copy()
    return RealParticle(position=x, velocity=v, pbest_position=p,
                        pbest_value=0.0)


def config(dim=2, **kw):
    kw.setdefault("bounds", [(-100.0, 100.0)] * dim)
    return ContinuousConfig(**kw)


class TestConfig:
    @pytest.mark.parametrize("kw", [
        dict(bounds=[]),
        dict(bounds=[(1.0, 1.0)]),
        dict(bounds=[(0.0, math.nan)]),
        dict(bounds=[(0.0, math.inf)]),
        dict(bounds=[(-math.inf, 0.0)]),
        dict(bounds=[(-1.0, 1.0)], swarm_size=0),
        dict(bounds=[(-1.0, 1.0)], iterations=0),
        # These failed inside numpy, or ran and returned a value.
        dict(bounds=[(-1.0, 1.0)], swarm_size=2.0),
        dict(bounds=[(-1.0, 1.0)], iterations=True),
        dict(bounds=[(-1.0, 1.0)], rng_seed=-1),
        dict(bounds=[(-1.0, 1.0)], rng_seed=1.5),
        dict(bounds=[(-1.0, 1.0)], w=math.nan),
        dict(bounds=[(-1.0, 1.0)], c1=math.inf),
        dict(bounds=[(-1.0, 1.0)], c2=-math.inf),
        # A bool once passed as 1, and a string raised TypeError.
        dict(bounds=[(-1.0, 1.0)], w=True),
        dict(bounds=[(-1.0, 1.0)], c1=False),
        dict(bounds=[(-1.0, 1.0)], w="a"),
        # An int too large for a float raised OverflowError.
        dict(bounds=[(-1.0, 1.0)], w=10**400),
    ], ids=["empty", "lo-equals-hi", "nan", "inf", "minus-inf",
            "no-particles", "no-iterations", "float-swarm", "bool-iterations",
            "negative-seed", "float-seed", "nan-w", "inf-c1", "minus-inf-c2",
            "bool-w", "bool-c1", "str-w", "huge-int-w"])
    def test_unrunnable_config_rejected(self, kw):
        with pytest.raises(ValueError):
            ContinuousConfig(**kw)

    @pytest.mark.parametrize("bounds", [[(0.0, "a")], [None], [(0.0,)],
                                        [(0.0, 1.0, 2.0)], 5, [(False, True)]],
                             ids=["str", "none", "one-number",
                                  "three-numbers", "int", "bools"])
    def test_malformed_bound_rejected(self, bounds):
        # These raised TypeError or an unpacking ValueError, or, for the
        # bools, ran on [0, 1].
        with pytest.raises(ValueError, match="each bound"):
            ContinuousConfig(bounds=bounds)

    def test_single_particle_runs(self):
        cfg = ContinuousConfig(bounds=[(-1.0, 1.0)], swarm_size=1,
                               iterations=5, rng_seed=2)
        x, value, trace = run_continuous(lambda v: float(v[0] ** 2), cfg)
        assert len(trace) == 5 and value == trace[-1] == x[0] ** 2


class TestPsoStep:
    def test_pure_inertia(self):
        p = particle([0.0, 0.0], [1.0, 0.0])
        cfg = config(w=1.0, c1=0.0, c2=0.0)
        pso_step(p, np.zeros(2), cfg, np.random.default_rng(0))
        assert np.allclose(p.velocity, [1.0, 0.0])
        assert np.allclose(p.position, [1.0, 0.0])

    def test_consensus_leaves_only_inertia(self):
        x = np.array([2.0, 3.0])
        p = particle(x, [0.5, -0.5], pbest=x)
        cfg = config(w=0.7)
        pso_step(p, x.copy(), cfg, np.random.default_rng(0))
        assert np.allclose(p.velocity, [0.35, -0.35])

    def test_hand_arithmetic_one_dim(self):
        # w=0.5, c1=1, r1=1, c2=0: v' = 0.5*2 + 1*(4-0) = 5, x' = 5.
        p = particle([0.0], [2.0], pbest=[4.0])
        cfg = config(dim=1, w=0.5, c1=1.0, c2=0.0)

        class OneRng:
            def uniform(self, size=()):
                return np.ones(size) if size else 1.0

        pso_step(p, np.array([0.0]), cfg, OneRng())
        assert np.allclose(p.velocity, [5.0])
        assert np.allclose(p.position, [5.0])

    def test_clamped_to_bounds_with_zeroed_velocity(self):
        p = particle([99.0], [50.0])
        cfg = config(dim=1, w=1.0, c1=0.0, c2=0.0)
        pso_step(p, np.zeros(1), cfg, np.random.default_rng(0))
        assert p.position[0] == 100.0
        assert p.velocity[0] == 0.0

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            RealParticle(position=np.zeros(2), velocity=np.zeros(3),
                         pbest_position=np.zeros(2), pbest_value=0.0)


class TestVpac:
    def test_arithmetic_example(self):
        p = particle([2.0, 2.0], [1.0, 0.0])
        q = particle([4.0, 4.0], [0.0, 0.0])
        c1, c2 = vpac_crossover(p, q, phi1=0.5, phi2=0.5)
        assert np.allclose(c1, [2.5, 3.0])

    def test_zero_velocity_children_at_midpoint(self):
        p = particle([0.0, 4.0], [0.0, 0.0])
        q = particle([2.0, 0.0], [0.0, 0.0])
        c1, c2 = vpac_crossover(p, q, 0.3, 0.9)
        assert np.allclose(c1, [1.0, 2.0])
        assert np.allclose(c2, [1.0, 2.0])

    def test_idempotent_at_consensus(self):
        p = particle([3.0], [0.0])
        q = particle([3.0], [0.0])
        c1, c2 = vpac_crossover(p, q, 0.5, 0.5)
        assert np.allclose(c1, [3.0]) and np.allclose(c2, [3.0])

    def test_midpoint_before_velocity_shift(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            p = particle(rng.normal(size=3), rng.normal(size=3))
            q = particle(rng.normal(size=3), rng.normal(size=3))
            c1, c2 = vpac_crossover(p, q, 0.4, 0.6)
            mid = (p.position + q.position) / 2
            assert np.allclose(c1 + 0.4 * p.velocity, mid)
            assert np.allclose(c2 + 0.6 * q.velocity, mid)


class TestRunContinuous:
    def test_sphere_converges(self):
        cfg = ContinuousConfig(bounds=[(-5.0, 5.0)], swarm_size=20,
                               iterations=200, rng_seed=0)
        _, value, trace = run_continuous(lambda x: float(x[0] ** 2), cfg)
        assert value < 1e-6
        assert all(a >= b for a, b in zip(trace, trace[1:]))

    def test_constant_objective_flat_trace(self):
        cfg = ContinuousConfig(bounds=[(-1.0, 1.0)], swarm_size=10,
                               iterations=20, rng_seed=1)
        _, value, trace = run_continuous(lambda x: 7.0, cfg)
        assert value == 7.0
        assert set(trace) == {7.0}

    def test_deterministic_per_seed(self):
        cfg = ContinuousConfig(bounds=[(-5.0, 5.0)] * 2, swarm_size=15,
                               iterations=50, rng_seed=3)
        obj = lambda x: float((x ** 2).sum())
        a = run_continuous(obj, cfg)
        b = run_continuous(obj, cfg)
        assert a[1] == b[1] and a[2] == b[2]
        assert np.array_equal(a[0], b[0])

    def test_positions_stay_in_bounds(self):
        lo, hi = -2.0, 2.0
        seen = []

        def spy(x):
            seen.append(x.copy())
            return float((x ** 2).sum())

        cfg = ContinuousConfig(bounds=[(lo, hi)] * 2, swarm_size=10,
                               iterations=30, rng_seed=4)
        run_continuous(spy, cfg)
        arr = np.stack(seen)
        assert arr.min() >= lo and arr.max() <= hi

    def test_multimodal_rastrigin_improves(self):
        def rastrigin(x):
            return float(10 * len(x)
                         + (x ** 2 - 10 * np.cos(2 * math.pi * x)).sum())

        cfg = ContinuousConfig(bounds=[(-5.12, 5.12)] * 2, swarm_size=30,
                               iterations=300, rng_seed=5)
        _, value, trace = run_continuous(rastrigin, cfg)
        assert value < trace[0]
        assert value < 2.0
