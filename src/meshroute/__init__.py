"""QoS-aware, interference-sensitive routing for multi-channel multi-radio
wireless mesh graphs via a hybrid PSO-GA metaheuristic.

numpy is the only runtime dependency."""

from .topology import (
    IFACTOR_TABLE,
    Link,
    MeshTopology,
    Node,
    PathExplosionError,
    TopologyError,
    TopologyParams,
    UNREACHABLE,
    enumerate_simple_paths,
    generate_topology,
    interference_factor,
    validate_path,
)
from .qos import (
    FitnessBreakdown,
    InvalidPathError,
    PathMetrics,
    PenaltyCoeffs,
    QosRequest,
    fitness,
    oracle_best,
    path_metrics,
    penalty,
)
from .routing import (
    HybridConfig,
    Particle,
    RouteContext,
    RunResult,
    UnreachableGatewayError,
    alter,
    combine_paths,
    crossover_children,
    dedupe,
    elitism_split,
    init_swarm,
    mutate,
    oplus_update,
    repair_path,
    run,
    two_point_crossover,
)
from .continuous import (
    ContinuousConfig,
    RealParticle,
    pso_step,
    run_continuous,
    vpac_crossover,
)
from .simulation import SimResult, TrafficSpec, evaluate_routing, simulate_path

__version__ = "0.1.0"
