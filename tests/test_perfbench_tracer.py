"""The benchmark's per-layer tracer must find every entry point it wraps.

``perfbench/`` lies outside the test paths, and the tracer reports a layer
whose entry points are missing as absent instead of failing; a deleted or
renamed function would silently zero that layer's figures.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from conftest import SRC

PERFBENCH = str(Path(__file__).resolve().parent.parent / "perfbench")


def test_tracer_finds_every_layer():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join((SRC, PERFBENCH))
    code = "import json, tracer; print(json.dumps(tracer.install(tracer.Tracer())))"
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == []
