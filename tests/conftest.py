import os
import random
import sys
import tempfile
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

# hypothesis caches what it reads from the sources under its storage
# directory, .hypothesis/ in the working directory unless this names another
os.environ.setdefault(
    "HYPOTHESIS_STORAGE_DIRECTORY", os.path.join(tempfile.gettempdir(), "groupoidlab-hypothesis")
)


def subprocess_env() -> dict:
    """Environment for child interpreters so the package resolves even
    without an editable install."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


def count_calls(monkeypatch, cls, names):
    """Count the calls of the named methods of cls for the rest of the test."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        method = getattr(cls, name)

        def counted(self, *args, _name=name, _method=method, **kwargs):
            calls[_name] += 1
            return _method(self, *args, **kwargs)

        monkeypatch.setattr(cls, name, counted)
    return calls


def _relabelled(s, seed):
    """s with every sort's indices permuted at random, and the object map."""
    from groupoidlab import structure_from_json, structure_to_json

    rng = random.Random(seed)
    perms = {}
    for name, size in s.sorts:
        perms[name] = list(range(size))
        rng.shuffle(perms[name])
    data = structure_to_json(s)
    for f in data["functions"]:
        sorts = (*f["args"], f["result"])
        f["rows"] = [[perms[n][v] for n, v in zip(sorts, row)] for row in f["rows"]]
    for r in data["relations"]:
        r["tuples"] = [[perms[n][v] for n, v in zip(r["args"], t)] for t in r["tuples"]]
    for c in data["constants"]:
        c["index"] = perms[c["sort"]][c["index"]]
    return structure_from_json(data), perms["O"]


def claims_report(claims):
    """The runner's entries for claims, as a report with unprefixed ids."""
    from groupoidlab.report import Report
    from groupoidlab.verify import evaluate

    return Report(instance="", entries=evaluate(claims))


def suite_report(suite, s, g=None):
    """The claims of one suite on s, run by the runner outside the
    registry; g is read by section2 alone."""
    from importlib import import_module

    return claims_report(import_module(f"groupoidlab.suite_{suite}").claims(s, g))
