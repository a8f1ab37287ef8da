"""The suite registry and the runner of the claim-verification suites.

Each suite's body is a module of its own, ``suite_<name>``, whose
``run(s, g)`` returns a Report whose entries carry exact pass/fail status
and a concrete witness on failure.  Importing this module imports none of
them: ``run_suites`` imports the modules of the suites it runs, all before
the first one runs, so a run compiles only the code it needs and compiles
none of it while a suite's search space is live.
"""

from __future__ import annotations

import importlib
import itertools
from types import ModuleType
from typing import Callable

from .automorphisms import check_budget
from .errors import BudgetExceeded, GroupoidLabError, InvalidInput
from .groups import FiniteGroup
from .groupoids import build_standard_groupoid
from .report import FAIL, SKIPPED, ClaimEntry, Report
from .structures import MultiSortedStructure, encode_groupoid, has_cover, morphisms_between


# ---------------------------------------------------------------------------
# the suite registry


def _section2_structure(s: MultiSortedStructure, g: FiniteGroup) -> MultiSortedStructure:
    """The structure section2 searches: s, or on a double cover the plain
    encoding of the standard groupoid of g."""
    if has_cover(s):
        return encode_groupoid(build_standard_groupoid(g, s.sort_size("O")))
    return s


Suite = Callable[[MultiSortedStructure, FiniteGroup], Report]


def _module(name: str) -> ModuleType:
    """The module holding the body of suite name, imported on first use."""
    return importlib.import_module(f"{__package__}.suite_{name}")


def _runner(name: str) -> Suite:
    return lambda s, g: _module(name).run(s, g)


# name -> (runner, minimum object count), in the order "all" runs them;
# run_suites hands section2 the structure of _section2_structure
SUITES: dict[str, tuple[Suite, int]] = {
    name: (_runner(name), min_objects)
    for name, min_objects in (
        ("section2", 2), ("section3", 3), ("witness", 3), ("fgroupoid", 4), ("limits", 2),
    )
}


def run_suites(
    s: MultiSortedStructure, g: FiniteGroup, suite: str, instance: str
) -> Report:
    """Run one suite of SUITES, or every suite for "all", on one structure.

    Under "all", a suite that needs more objects than s has is recorded with
    an explicit skipped entry rather than silently dropped; asked for alone,
    it is an input error.  A suite that blows up on a broken instance is
    recorded as a claim failure.  Every suite presumes a connected groupoid,
    so an empty Mor(a, b) is an input error before any suite runs, and the
    carrier budget of every structure a selected suite searches (section2's
    plain encoding on a double cover, s otherwise) is checked before any
    suite runs too.  Then the module of every suite that runs is imported.
    """
    if suite != "all" and suite not in SUITES:
        raise InvalidInput(f"unknown suite {suite!r}: expected one of {', '.join(SUITES)} or all")
    n = s.sort_size("O")
    for a, b in itertools.product(range(n), repeat=2):
        if not morphisms_between(s, a, b):
            raise InvalidInput(f"Mor({a}, {b}) is empty: the suites need a connected groupoid")
    names = list(SUITES) if suite == "all" else [suite]
    searched: dict[str, MultiSortedStructure] = {}
    for name in names:
        min_objects = SUITES[name][1]
        if n >= min_objects:
            searched[name] = _section2_structure(s, g) if name == "section2" else s
        elif suite != "all":
            raise InvalidInput(f"suite {name} needs --objects >= {min_objects}")
    for target in searched.values():
        check_budget(target)
    for name in searched:
        _module(name)
    combined = Report(instance=instance)
    for name in names:
        runner, min_objects = SUITES[name]
        if name not in searched:
            combined.entries.append(
                ClaimEntry(
                    claim_id=f"{name}.skipped",
                    anchor=f"suite {name} skipped: needs at least {min_objects} objects",
                    status=SKIPPED,
                )
            )
            continue
        try:
            sub = runner(searched[name], g)
        except (InvalidInput, BudgetExceeded):
            raise
        except GroupoidLabError as exc:
            combined.entries.append(
                ClaimEntry(
                    claim_id=f"{name}.instance-error",
                    anchor=f"suite {name} aborted on this instance",
                    status=FAIL,
                    witness=f"{type(exc).__name__}: {exc}",
                )
            )
            continue
        for entry in sub.entries:
            entry.claim_id = f"{name}.{entry.claim_id}"
        combined.extend(sub)
    return combined
