"""The package's runtime dependencies stay as declared: numpy only, and
importing the package or its command line loads neither numpy nor a
process pool, so `meshroute route` runs with numpy blocked.  Its root
exports the library API that README lists, and nothing else."""

import json
import os
import subprocess
import sys
import types
from pathlib import Path

import meshroute
from meshroute import TopologyParams, generate_topology
from meshroute.cli import main

from conftest import source_for, without_wall_times

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
ENV = {**os.environ,
       "PYTHONPATH": os.pathsep.join(filter(None, [
           str(SRC), os.environ.get("PYTHONPATH")]))}

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
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, meshroute, meshroute.cli; "
         f"print([m for m in {modules!r} if m in sys.modules])"],
        env=ENV, capture_output=True, text=True, check=True)
    return out.stdout.strip()


def test_import_leaves_networkx_unloaded():
    assert loaded_after_import(["networkx"]) == "[]"


def test_import_leaves_numpy_unloaded():
    # Only the generator, the simulator and the continuous solver use
    # numpy, and each imports it when it first runs.
    assert loaded_after_import(["numpy"]) == "[]"


def test_route_runs_with_numpy_blocked(tmp_path, capsys):
    topo = generate_topology(TopologyParams(node_count=25, rng_seed=3))
    mesh = tmp_path / "mesh.json"
    mesh.write_text(topo.to_json())
    args = ["route", str(mesh), "--source", str(source_for(topo)), "--json"]
    assert main(args) == 0
    expected = without_wall_times(json.loads(capsys.readouterr().out))
    # None in sys.modules makes every import of numpy raise ImportError.
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys; sys.modules['numpy'] = None; "
         f"from meshroute.cli import main; sys.exit(main({args!r}))"],
        env=ENV, capture_output=True, text=True, check=True)
    assert without_wall_times(json.loads(out.stdout)) == expected


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
