"""Every benchmark configuration gives its recorded verdict.

``perfbench/run.py`` counts a run as failed when its exit code or its
``(claim id, status)`` vector differs from the one recorded in
``perfbench/workloads.json``; this runs each configuration once through the
CLI in-process and asserts both, so Tier-1 catches what the benchmark would
count.  The recorded report hashes are left to the golden tests and to the
benchmark, so that a deliberate report change need not touch the benchmark.
"""

import json
from pathlib import Path

import pytest

from groupoidlab.cli import main

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.json"
CONFIGS = [
    (name, config)
    for name, workload in json.loads(WORKLOADS.read_text())["workloads"].items()
    for config in workload["configs"]
]


def _config_id(case):
    name, c = case
    return f"{name}:{c['suite']}-{c['group']}-n{c['objects']}{'-cover' if c['cover'] else ''}"


@pytest.mark.parametrize("case", CONFIGS, ids=map(_config_id, CONFIGS))
def test_workload_configuration_gives_its_recorded_verdict(case, tmp_path, capsys):
    _, c = case
    out = tmp_path / "report.json"
    argv = ["verify", "--suite", c["suite"], "--group", c["group"], "--objects", str(c["objects"])]
    code = main([*argv, *(["--cover"] if c["cover"] else []), "--out", str(out)])
    capsys.readouterr()
    claims = [[claim["id"], claim["status"]] for claim in json.loads(out.read_text())["claims"]]
    assert (code, claims) == (c["expect"]["exit"], c["expect"]["claims"])
