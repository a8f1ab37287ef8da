"""The benchmark's per-layer tracer must find every entry point it wraps.

``perfbench/`` lies outside the test paths, and the tracer reports a layer
whose entry points are missing as absent instead of failing; a deleted or
renamed function would silently zero that layer's figures.  The tracer's
work counters are deterministic, so five configurations pin them exactly.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


COUNTED = ("search.runs", "search.solutions", "find.calls", "refine.calls",
           "witness.ysets", "automorphisms.materialised", "group.calls",
           "refine.compress")

# the tracer's deterministic work counters on five benchmark configurations,
# at least one from each workload, in the order of COUNTED; they do not
# depend on the machine, so a change in the number of searches, solutions,
# refinements, refinement rounds or enumerated groups shows here.  No suite
# enumerates a group: group.calls is 0 on all five.  refine.compress counts
# the relabellings, one per refinement for the sort colouring and one per
# round, so it less refine.calls is the refinement rounds.
COUNTER_GATES = [
    ("verify --suite all --group cyclic:3 --objects 4", (60, 138, 23, 17, 4, 38, 0, 54)),
    ("verify --suite section3 --group cyclic:2 --objects 5 --cover", (39, 107, 21, 8, 2, 27, 0, 23)),
    ("verify --suite section2 --group dihedral:4 --objects 3", (4, 21, 0, 3, 0, 10, 0, 9)),
    ("verify --suite all --group cyclic:2 --objects 4 --cover", (55, 117, 23, 18, 3, 35, 0, 54)),
    ("verify --suite fgroupoid --group cyclic:2 --objects 5 --cover", (43, 60, 38, 4, 1, 42, 0, 11)),
]


@pytest.mark.parametrize("argv,counts", COUNTER_GATES, ids=[a for a, _ in COUNTER_GATES])
def test_traced_counters(argv, counts):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    done = subprocess.run(
        [sys.executable, str(Path(PERFBENCH) / "tracer.py"), *argv.split()],
        capture_output=True, text=True, env=env,
    )
    assert done.returncode == 0, done.stderr
    traced = json.loads(done.stdout)
    assert traced["exit"] == 0
    found = traced["trace"]["counts"]
    # the tracer records no counter that was never incremented
    assert tuple(found.get(key, 0) for key in COUNTED) == counts
