"""groupoidlab benchmark: closed-loop ``groupoidlab verify`` workloads.

    python3 perfbench/run.py --workload targeted-cover --seed 1 --seconds 38 --trace 0

Run from the root of a source checkout (the package is taken from ``src``,
it need not be installed).  Each workload is a fixed list of ``verify``
configurations (``perfbench/workloads.json``).  Every configuration runs in
a fresh interpreter, one at a time, because the engine's caches are
process-global: repeating a configuration in one process would time cache
hits.  Each verdict is checked against the recorded exit code and claim
status vector.

With ``--trace 0`` the benchmark times set-up and then runs the workload's
configurations round-robin until ``--seconds`` is spent, and prints the
end-to-end metrics.  With ``--trace 1`` it runs each configuration untraced
and then under ``perfbench/tracer.py``, pass after pass, and prints the
per-layer metrics.  The
last line of standard output is one JSON object; lines before it summarise
the samples.  The workloads contain no randomness: ``--seed`` is recorded
and changes nothing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CLI = SRC / "groupoidlab" / "cli.py"
WORKLOADS = HERE / "workloads.json"
TRACER = HERE / "tracer.py"

CONFIG_TIMEOUT_S = 60.0  # one configuration; over it the run counts a failure
RUN_LIMIT_S = 150.0  # no child outlives this point of a run
SETUP_REPEATS = 5


@dataclass(frozen=True)
class Config:
    suite: str
    group: str
    objects: int
    cover: bool
    exit: int
    claims: tuple[tuple[str, str], ...]
    report_sha256: str

    @property
    def name(self) -> str:
        return f"{self.suite}/{self.group}/n{self.objects}" + ("/cover" if self.cover else "")

    def group_args(self) -> list[str]:
        args = ["--group", self.group, "--objects", str(self.objects)]
        return args + ["--cover"] if self.cover else args

    def verify_argv(self) -> list[str]:
        return ["verify", "--suite", self.suite, *self.group_args()]


def load_workloads() -> dict[str, list[Config]]:
    data = json.loads(WORKLOADS.read_text())
    return {
        name: [
            Config(
                suite=c["suite"], group=c["group"], objects=c["objects"],
                cover=c["cover"], exit=c["expect"]["exit"],
                claims=tuple(tuple(pair) for pair in c["expect"]["claims"]),
                report_sha256=c["expect"]["report_sha256"],
            )
            for c in spec["configs"]
        ]
        for name, spec in data["workloads"].items()
    }


@dataclass
class Child:
    """One finished child process."""

    code: Optional[int]  # None when killed at the time limit
    wall_s: float
    maxrss_mb: float
    stdout: str
    stderr: str


def run_child(argv: list[str], deadline: float, scratch: Path) -> Child:
    """Run argv from the checkout root until it exits or the deadline
    (a ``time.monotonic`` value) passes, and reap it with its rusage."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with tempfile.TemporaryFile(dir=scratch) as out, tempfile.TemporaryFile(dir=scratch) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=out, stderr=err,
                                stdin=subprocess.DEVNULL)
        pidfd = os.pidfd_open(proc.pid)
        try:
            poller = select.poll()
            poller.register(pidfd, select.POLLIN)
            timeout_ms = max(0, int((deadline - time.monotonic()) * 1000))
            timed_out = not poller.poll(timeout_ms)
            if timed_out:
                signal.pidfd_send_signal(pidfd, signal.SIGKILL)
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            os.close(pidfd)
        wall_s = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Child(
            code=None if timed_out else proc.returncode,
            wall_s=wall_s,
            maxrss_mb=usage.ru_maxrss / 1024.0,
            stdout=out.read().decode(),
            stderr=err.read().decode(),
        )


def verdict_problem(config: Config, code: Optional[int], report_text: str) -> Optional[str]:
    """Why a verify result differs from the recorded verdict, or None."""
    if code is None:
        return "timed out"
    if code != config.exit:
        return f"exit {code}, expected {config.exit}"
    try:
        claims = tuple((c["id"], c["status"]) for c in json.loads(report_text)["claims"])
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable report ({type(exc).__name__}: {exc})"
    if claims != config.claims:
        diff = sorted(set(claims) ^ set(config.claims))
        return f"claim statuses differ: {diff[:4]}"
    return None


def stripped_sha256(report_text: str) -> str:
    """sha256 of the report without its volatile fields, as the program's
    own ``strip_volatile`` and ``dumps_canonical`` render it."""
    sys.path.insert(0, str(SRC))
    try:
        from groupoidlab.report import dumps_canonical, strip_volatile
    finally:
        sys.path.remove(str(SRC))
    doc = strip_volatile(json.loads(report_text))
    return hashlib.sha256(dumps_canonical(doc).encode()).hexdigest()


@dataclass
class Tally:
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def record(self, what: str, problem: Optional[str]) -> bool:
        self.attempted += 1
        if problem is not None:
            self.failures.append(f"{what}: {problem}")
        return problem is None


class Runner:
    def __init__(self, configs: list[Config], seconds: float, scratch: Path) -> None:
        self.configs = configs
        self.seconds = seconds
        self.scratch = scratch
        self.started = time.monotonic()
        self.hard_stop = self.started + RUN_LIMIT_S
        self.tally = Tally()
        self.hashes_checked: set[str] = set()

    def child_deadline(self) -> float:
        return min(time.monotonic() + CONFIG_TIMEOUT_S, self.hard_stop)

    def time_left(self) -> float:
        return self.seconds - (time.monotonic() - self.started)

    def setup(self) -> float:
        """Median over repeats of the summed ``groupoidlab build`` time of
        the workload's configurations: interpreter start, import, group
        parsing, and the build and encoding of each structure."""
        sums = []
        for _ in range(SETUP_REPEATS):
            total = 0.0
            for config in self.configs:
                argv = [sys.executable, "-m", "groupoidlab.cli", "build", *config.group_args()]
                child = run_child(argv, self.child_deadline(), self.scratch)
                problem = None if child.code == 0 else f"build exit {child.code}: {child.stderr[-200:]}"
                self.tally.record(f"build {config.name}", problem)
                total += child.wall_s
            sums.append(total)
        return statistics.median(sums)

    def verify(self, config: Config) -> tuple[Child, bool]:
        """Run config untraced; the child and whether its verdict is right."""
        argv = [sys.executable, "-m", "groupoidlab.cli", *config.verify_argv()]
        child = run_child(argv, self.child_deadline(), self.scratch)
        return child, self.check(config, child.code, child.stdout, child.stderr)

    def traced_verify(self, config: Config) -> tuple[Child, Optional[dict]]:
        argv = [sys.executable, str(TRACER), *config.verify_argv()]
        child = run_child(argv, self.child_deadline(), self.scratch)
        if child.code != 0:
            self.tally.record(f"traced {config.name}", f"tracer exit {child.code}: {child.stderr[-300:]}")
            return child, None
        result = json.loads(child.stdout)
        self.check(config, result["exit"], result["stdout"], child.stderr)
        return child, result["trace"]

    def check(self, config: Config, code: Optional[int], report_text: str, stderr: str) -> bool:
        """Gate one verdict; compare the report bytes once per config."""
        problem = verdict_problem(config, code, report_text)
        if problem is not None and stderr:
            problem += f" ({stderr.strip()[-200:]})"
        ok = self.tally.record(config.name, problem)
        if ok and config.name not in self.hashes_checked:
            self.hashes_checked.add(config.name)
            if stripped_sha256(report_text) != config.report_sha256:
                self.tally.notes.append(
                    f"{config.name}: report bytes differ from the recorded baseline (not gated)")
        return ok


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summary(label: str, values: list[float], unit: str) -> str:
    q1, q2, q3 = quartiles(values)
    return f"{label}: median {q2:.4f} {unit}, quartiles {q1:.4f}..{q3:.4f}, n={len(values)}"


def next_config(runner: Runner, walls: dict[str, list[float]]) -> Optional[Config]:
    """Round-robin over the configurations: each runs once, then again while
    its last run would still fit in the time left.  None when the next one
    does not fit, so that every configuration has as many runs, or one
    fewer than the first ones."""
    done = sum(len(v) for v in walls.values())
    config = runner.configs[done % len(runner.configs)]
    samples = walls[config.name]
    return config if not samples or samples[-1] <= runner.time_left() else None


def end_to_end(runner: Runner) -> dict:
    setup_s = runner.setup()
    runner.started = time.monotonic()
    walls: dict[str, list[float]] = {c.name: [] for c in runner.configs}
    peak_mb = 0.0
    verify_attempts = verify_failures = 0
    config = runner.configs[0]
    while config is not None:
        child, ok = runner.verify(config)
        verify_attempts += 1
        verify_failures += not ok
        walls[config.name].append(child.wall_s)
        peak_mb = max(peak_mb, child.maxrss_mb)
        config = next_config(runner, walls)
    for name, values in walls.items():
        print(summary(f"wall {name}", values, "s") + f", best {min(values):.4f} s")
    # The best of a configuration's runs: on a shared host, speed drops for
    # seconds at a time, and a slowdown only ever adds time.
    wall_s = sum(min(v) for v in walls.values())
    return {
        "wall_s": (wall_s, "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_mb, "MB"),
        "ok_share": (1.0 - verify_failures / verify_attempts, "share"),
    }


PER_LAYER_SELF = (
    "automorphisms.refine", "automorphisms.search", "automorphisms", "witness",
    "paths", "limits", "groupoids", "structures", "groups", "verify", "report",
)
PER_LAYER_COUNTS = {  # metric -> figure from the tracer's counters
    "automorphisms.refine.calls": lambda c: c["refine.calls"],
    "automorphisms.refine.rounds": lambda c: c["refine.compress"] - c["refine.calls"],
    "automorphisms.search.runs": lambda c: c["search.runs"],
    "automorphisms.search.solutions": lambda c: c["search.solutions"],
    "automorphisms.materialised": lambda c: c["automorphisms.materialised"],
    "automorphisms.group.calls": lambda c: c["group.calls"],
    "automorphisms.group.miss_ratio": lambda c: _ratio(c["group.misses"], c["group.calls"]),
    "automorphisms.find.calls": lambda c: c["find.calls"],
    "automorphisms.find.hit_ratio": lambda c: _ratio(c["find.hits"], c["find.calls"]),
    "witness.ysets": lambda c: c["witness.ysets"],
    "witness.compose.calls": lambda c: c["witness.compose.calls"],
    "paths.fold.calls": lambda c: c["paths.fold.calls"],
}


def _ratio(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


def merge_traces(traces: list[dict]) -> dict:
    """Sum the figures of one traced pass over its configurations."""
    counts: Counter = Counter()
    for t in traces:
        counts.update(t["counts"])
    return {
        "self_s": {layer: sum(t["self_s"].get(layer, 0.0) for t in traces)
                   for layer in PER_LAYER_SELF},
        "counts": counts,
        "absent": sorted({a for t in traces for a in t["absent"]}),
    }


def per_layer(runner: Runner) -> dict:
    plain_walls: list[float] = []
    traced_walls: list[float] = []
    passes: list[dict] = []
    while True:
        # Each configuration runs untraced and then traced, back to back, so
        # that a change of machine speed during the pass hits both alike.
        plain_wall = traced_wall = 0.0
        figures = []
        for config in runner.configs:
            plain_wall += runner.verify(config)[0].wall_s
            child, trace = runner.traced_verify(config)
            traced_wall += child.wall_s
            if trace is not None:
                figures.append(trace)
        plain_walls.append(plain_wall)
        traced_walls.append(traced_wall)
        if len(figures) == len(runner.configs):
            passes.append(merge_traces(figures))
        if plain_walls[-1] + traced_walls[-1] > runner.time_left():
            break
    first = passes[0] if passes else merge_traces([])
    if any(p["counts"] != first["counts"] for p in passes[1:]):
        runner.tally.notes.append("traced counters differ between passes")
    if first["absent"]:
        runner.tally.notes.append(f"absent layers (reported as 0): {', '.join(first['absent'])}")
    print(summary("untraced pass wall", plain_walls, "s"))
    print(summary("traced pass wall", traced_walls, "s"))
    metrics: dict = {}
    for layer in PER_LAYER_SELF:
        values = [p["self_s"][layer] for p in passes] or [0.0]
        metrics[f"{layer}.self_s"] = (statistics.median(values), "s")
    for name, derive in PER_LAYER_COUNTS.items():
        unit = "ratio" if name.endswith("_ratio") else "count"
        metrics[name] = (derive(first["counts"]), unit)
    metrics["trace.overhead_s"] = (
        statistics.median(t - p for t, p in zip(traced_walls, plain_walls)), "s")
    return metrics


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not CLI.is_file() or not WORKLOADS.is_file():
        print(f"error: no groupoidlab source at {CLI.relative_to(ROOT)}; "
              "run from a source checkout", file=sys.stderr)
        return 2
    workloads = load_workloads()
    if args.workload not in workloads:
        print(f"error: unknown workload {args.workload!r}; one of {', '.join(workloads)}",
              file=sys.stderr)
        return 2

    print(f"workload {args.workload}, seed {args.seed} (no effect: the inputs are fixed), "
          f"{args.seconds:g} s, trace {args.trace}")
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as scratch:
        runner = Runner(workloads[args.workload], args.seconds, Path(scratch))
        metrics = per_layer(runner) if args.trace else end_to_end(runner)
    tally = runner.tally
    for line in tally.notes + [f"FAILED {f}" for f in tally.failures]:
        print(line)
    print(json.dumps({
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
