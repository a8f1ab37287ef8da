"""Self-tests of the benchmark: deterministic counters, self-time accounting,
wrapper installation and the verdict gate.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

import run
import tracer

SECTION3 = ["verify", "--suite", "section3", "--group", "cyclic:2", "--objects", "5", "--cover"]


def _python(*args: str) -> str:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(run.SRC), str(run.HERE)]))
    proc = subprocess.run([sys.executable, *args], cwd=run.ROOT, env=env,
                          capture_output=True, text=True, timeout=300, check=True)
    return proc.stdout


@pytest.fixture(scope="module")
def traced_section3() -> list[dict]:
    return [json.loads(_python(str(run.TRACER), *SECTION3)) for _ in range(2)]


def test_traced_counters_repeat_exactly(traced_section3):
    first, second = (r["trace"]["counts"] for r in traced_section3)
    assert first == second
    assert first["search.runs"] == 619
    assert first["search.solutions"] == 25064
    assert first["refine.compress"] - first["refine.calls"] == 1236
    assert all(r["exit"] == 0 and not r["trace"]["absent"] for r in traced_section3)


def test_self_times_add_up_to_traced_wall(traced_section3):
    for result in traced_section3:
        trace = result["trace"]
        self_s = trace["self_s"]
        assert all(v >= 0 for v in self_s.values())
        assert sum(self_s.values()) == pytest.approx(trace["wall_s"], abs=1e-6)
        spanned = sum(v for k, v in self_s.items() if k != tracer.RESIDUAL_LAYER)
        assert spanned == pytest.approx(trace["spanned_s"], abs=1e-6)
        assert self_s["automorphisms.search"] > self_s[tracer.RESIDUAL_LAYER]


def test_wrappers_reach_every_importing_namespace():
    script = (
        "import tracer\n"
        "t = tracer.Tracer()\n"
        "assert tracer.install(t) == []\n"
        "import groupoidlab, groupoidlab.automorphisms as a, groupoidlab.witness as w,"
        " groupoidlab.verify as v, groupoidlab.limits as l\n"
        "wrapped = a.automorphism_group\n"
        "assert hasattr(wrapped, '__wrapped__')\n"
        "assert v.automorphism_group is l.automorphism_group is groupoidlab.automorphism_group is wrapped\n"
        "assert w.find_automorphism is a.find_automorphism\n"
        "print('ok')\n"
    )
    assert _python("-c", script).strip() == "ok"


def test_missing_entry_point_reports_layer_absent():
    script = (
        "import tracer\n"
        "tracer.LAYERS = tracer.LAYERS + (tracer.Layer('gone', tracer.AUTOMORPHISMS, ('no_such_fn',)),)\n"
        "t = tracer.Tracer()\n"
        "print(tracer.install(t))\n"
    )
    assert _python("-c", script).strip() == "['gone']"


def test_generator_spans_time_each_next_call():
    t = tracer.Tracer()

    def slow_items():
        for i in range(3):
            time.sleep(0.01)
            yield i

    wrapped = t.timed("layer", slow_items, "runs", "items")
    it = wrapped()
    assert t.counts["runs"] == 1 and t.self_s["layer"] == 0.0
    assert list(it) == [0, 1, 2]
    assert t.counts["items"] == 3
    assert t.self_s["layer"] == pytest.approx(t.root_s) and t.root_s >= 0.03


@pytest.fixture
def gate(tmp_path: Path):
    config = run.load_workloads()["targeted-cover"][0]
    claims = [{"id": i, "status": s} for i, s in config.claims]
    report = json.dumps({"claims": claims})
    return config, report, run.Runner([config], 1.0, tmp_path)


def test_recorded_verdict_passes_the_gate(gate):
    config, report, _ = gate
    assert run.verdict_problem(config, 0, report) is None


def test_tampered_status_vector_counts_as_failure(gate):
    config, report, runner = gate
    claim_id, status = config.claims[0]
    tampered = replace(config, claims=((claim_id, "fail" if status != "fail" else "pass"),
                                       *config.claims[1:]))
    assert "claim statuses differ" in run.verdict_problem(tampered, 0, report)
    runner.check(tampered, 0, report, "")
    assert runner.tally.attempted == 1 and len(runner.tally.failures) == 1


@pytest.mark.parametrize("code, text", [(None, ""), (1, "{}"), (0, "not json"), (0, '{"claims": []}')])
def test_crash_timeout_and_wrong_exit_count_as_failures(gate, code, text):
    config, _, runner = gate
    runner.check(config, code, text, "")
    assert len(runner.tally.failures) == 1


def test_refuses_to_run_without_the_program(tmp_path: Path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in ("run.py", "tracer.py", "workloads.json"):
        (bench / name).write_bytes((run.HERE / name).read_bytes())
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "suite-all",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout.strip() == ""
