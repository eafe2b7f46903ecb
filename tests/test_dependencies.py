"""The package's runtime dependencies stay as declared: numpy only, and
importing the command line loads no process pool."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


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
