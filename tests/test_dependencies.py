"""The package's runtime dependencies stay as declared: numpy only, and
importing the command line loads no process pool.  Its root exports the
library API that README lists, and nothing else."""

import os
import subprocess
import sys
import types
from pathlib import Path

import meshroute

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

ROOT_API = {
    "Link", "MeshTopology", "Node", "TopologyError", "TopologyParams",
    "generate_topology", "validate_path",
    "FitnessBreakdown", "InvalidPathError", "PenaltyCoeffs", "QosRequest",
    "fitness",
    "HybridConfig", "RunResult", "UnreachableGatewayError", "run",
    "SimResult", "TrafficSpec", "evaluate_routing", "simulate_path",
    "ContinuousConfig", "run_continuous",
}


def loaded_after_import(modules):
    """Which of ``modules`` a fresh interpreter has in sys.modules after
    importing meshroute and meshroute.cli."""
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [
               str(SRC), os.environ.get("PYTHONPATH")]))}
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, meshroute, meshroute.cli; "
         f"print([m for m in {modules!r} if m in sys.modules])"],
        env=env, capture_output=True, text=True, check=True)
    return out.stdout.strip()


def test_import_leaves_networkx_unloaded():
    assert loaded_after_import(["networkx"]) == "[]"


def test_import_leaves_process_pool_unloaded():
    # run_bench imports the pool only when it runs with workers > 1.
    assert loaded_after_import(["concurrent.futures.process",
                                "multiprocessing"]) == "[]"


def test_package_root_exports_the_documented_api():
    exported = {name for name, value in vars(meshroute).items()
                if not name.startswith("_")
                and not isinstance(value, types.ModuleType)}
    assert exported == ROOT_API
    readme = (ROOT / "README.md").read_text()
    library = readme.split("## Library")[1].split("\n## ")[0]
    assert not [name for name in ROOT_API if f"`{name}`" not in library]
