"""The package's runtime dependencies stay as declared: numpy only."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_import_leaves_networkx_unloaded():
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [
               str(SRC), os.environ.get("PYTHONPATH")]))}
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, meshroute, meshroute.cli; "
         "print('networkx' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
