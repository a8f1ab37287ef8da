"""The suite registry and the one runner of the claim-verification suites.

Each suite's body is a module of its own, ``suite_<name>``, whose generator
``claims(s, g)`` yields its ``Claim`` records, running each stretch of setup
before the claims that read it.  ``evaluate`` runs the checks and builds
every report entry: exact pass/fail status and a concrete witness on
failure.  Importing this module imports no suite module: ``run_suites``
imports the modules of the suites it runs, all before the first one runs,
so a run compiles only the code it needs and compiles none of it while a
suite's search space is live.
"""

from __future__ import annotations

import importlib
import itertools
import time
from types import ModuleType
from typing import Iterable

from .automorphisms import check_budget
from .errors import BudgetExceeded, GroupoidLabError, InvalidInput
from .groups import FiniteGroup
from .groupoids import build_standard_groupoid
from .report import FAIL, PASS, SKIPPED, SURROGATE_PASS, Claim, ClaimEntry, Report
from .structures import MultiSortedStructure, encode_groupoid, has_cover, morphisms_between


def evaluate(claims: Iterable[Claim], prefix: str = "") -> list[ClaimEntry]:
    """Run each claim's check in turn and record its entry, its id behind
    prefix.  A check returns None on success or a JSON-able witness on
    failure; an exception it raises is a failure too, its type and message
    the witness, except BudgetExceeded, which stops the run.  Only the
    checks are timed, not the setup the claims' generator runs between
    them."""
    entries = []
    for claim in claims:
        start = time.perf_counter()
        try:
            witness = claim.check()
        except BudgetExceeded:
            raise
        except Exception as exc:  # noqa: BLE001 - failures must land in the report
            witness = f"{type(exc).__name__}: {exc}"
        wall = (time.perf_counter() - start) * 1000.0
        if witness is not None:
            status = FAIL
        else:
            status = SURROGATE_PASS if claim.surrogate_pass else PASS
        entries.append(ClaimEntry(
            claim_id=prefix + claim.id,
            anchor=claim.anchor,
            status=status,
            witness=witness,
            wall_ms=wall,
            surrogates=claim.surrogates,
        ))
    return entries


# ---------------------------------------------------------------------------
# the suite registry


def _section2_structure(s: MultiSortedStructure, g: FiniteGroup) -> MultiSortedStructure:
    """The structure section2 searches: s, or on a double cover the plain
    encoding of the standard groupoid of g."""
    if has_cover(s):
        return encode_groupoid(build_standard_groupoid(g, s.sort_size("O")))
    return s


def _module(name: str) -> ModuleType:
    """The module holding the claims of suite name, imported on first use."""
    return importlib.import_module(f"{__package__}.suite_{name}")


# name -> minimum object count, in the order "all" runs them; run_suites
# hands section2 the structure of _section2_structure
SUITES: dict[str, int] = {
    "section2": 2, "section3": 3, "witness": 3, "fgroupoid": 4, "limits": 2,
}


def run_suites(
    s: MultiSortedStructure, g: FiniteGroup, suite: str, instance: str
) -> Report:
    """Run one suite of SUITES, or every suite for "all", on one structure.

    Under "all", a suite that needs more objects than s has is recorded with
    an explicit skipped entry rather than silently dropped; asked for alone,
    it is an input error.  A suite whose setup blows up on a broken instance
    is recorded as one instance-error entry, in place of its claims.  Every
    suite presumes a connected groupoid, so an empty Mor(a, b) is an input
    error before any suite runs, and the carrier budget of every structure a
    selected suite searches (section2's plain encoding on a double cover, s
    otherwise) is checked before any suite runs too.  Then the module of
    every suite that runs is imported.
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
        if n >= SUITES[name]:
            searched[name] = _section2_structure(s, g) if name == "section2" else s
        elif suite != "all":
            raise InvalidInput(f"suite {name} needs --objects >= {SUITES[name]}")
    for target in searched.values():
        check_budget(target)
    for name in searched:
        _module(name)
    report = Report(instance=instance)
    for name in names:
        if name not in searched:
            report.entries.append(ClaimEntry(
                claim_id=f"{name}.skipped",
                anchor=f"suite {name} skipped: needs at least {SUITES[name]} objects",
                status=SKIPPED,
            ))
            continue
        try:
            report.entries += evaluate(_module(name).claims(searched[name], g), f"{name}.")
        except (InvalidInput, BudgetExceeded):
            raise
        except GroupoidLabError as exc:
            report.entries.append(ClaimEntry(
                claim_id=f"{name}.instance-error",
                anchor=f"suite {name} aborted on this instance",
                status=FAIL,
                witness=f"{type(exc).__name__}: {exc}",
            ))
    return report
