"""QoS-aware, interference-sensitive routing for multi-channel multi-radio
wireless mesh graphs via a hybrid PSO-GA metaheuristic.

The package root holds the library API that README's Library section
lists; operators, constants and helpers are imported from their modules.
numpy is the only runtime dependency.  Importing the package loads none:
the generator, the simulator and the continuous solver import it when they
first run, so routing on a stored mesh never does."""

from .topology import (Link, MeshTopology, Node, TopologyError,
                       TopologyParams, generate_topology, validate_path)
from .qos import (FitnessBreakdown, InvalidPathError, PenaltyCoeffs,
                  QosRequest, fitness)
from .routing import HybridConfig, RunResult, UnreachableGatewayError, run
from .simulation import SimResult, TrafficSpec, evaluate_routing, simulate_path
from .continuous import ContinuousConfig, run_continuous

__version__ = "0.1.0"
