"""The package's modules form layers, and no module imports one above it.

Each module may import only modules on a lower layer; ``paths`` and
``limits`` share a layer and import neither each other, and so do the four
suite modules above ``suite_witness``.  Imports at any depth count,
``TYPE_CHECKING`` blocks and function bodies included.  ``__init__.py``
exports names of every layer and is exempt.

Four decisions are kept in place the same way: one function assembles
every restriction group, only the Y-set system translates along psi, each
fgroupoid path claim is decided by its walk alone, with the path-by-path
checkers kept in ``tests/oracle.py``, and one runner in ``verify`` turns
the suites' claims into report entries.
"""

import ast
from pathlib import Path

from conftest import SRC

PACKAGE = Path(SRC) / "groupoidlab"

LAYERS = (
    ("errors",),
    ("groups",),
    ("groupoids",),
    ("structures",),
    ("automorphisms",),
    ("witness",),
    ("paths", "limits"),
    ("report",),
    ("suite_witness",),
    ("suite_section2", "suite_section3", "suite_fgroupoid", "suite_limits"),
    ("verify",),
    ("cli",),
)
RANK = {module: rank for rank, layer in enumerate(LAYERS) for module in layer}

# (importer, imported) pairs allowed against the order, with the reason
EXEMPT = {
    ("structures", "automorphisms"): "a structure builds its search space lazily",
    ("structures", "witness"): "a structure builds its Y-set system lazily",
}


def _imported_modules(tree):
    # (imported module, line) for every import of a package module
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0:
            if not (node.module or "").startswith("groupoidlab."):
                continue
            yield node.module.split(".")[1], node.lineno
        elif node.module is None:
            for alias in node.names:
                yield alias.name, node.lineno
        else:
            yield node.module.split(".")[0], node.lineno


def _violations():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        importer = path.stem
        for imported, line in _imported_modules(ast.parse(path.read_text())):
            if (importer, imported) in EXEMPT:
                continue
            if RANK[imported] >= RANK[importer]:
                found.append(f"{importer}.py:{line} imports {imported}")
    return found


def test_every_module_has_a_layer():
    modules = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}
    assert modules == set(RANK)


def test_no_module_imports_upward():
    assert _violations() == []


def _calls(attribute):
    # (module, enclosing function, line) of every call whose callee is a
    # name or an attribute called attribute
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        functions = [
            node for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            callee = node.func
            name = callee.id if isinstance(callee, ast.Name) else getattr(callee, "attr", None)
            if name != attribute:
                continue
            # the innermost function holding the call
            holders = [f for f in functions if f.lineno <= node.lineno <= f.end_lineno]
            holder = max(holders, key=lambda f: f.lineno).name if holders else None
            found.append((path.stem, holder, node.lineno))
    return found


def test_restriction_groups_are_constructed_in_one_function():
    # searched or translated, a restriction group is assembled by one helper
    sites = [(module, holder) for module, holder, _ in _calls("RestrictedAutGroup")]
    assert sites == [("automorphisms", "_restriction_group")]


def test_only_the_y_set_system_translates():
    # psi_ab is read inside the Y-set system alone; the suites ask it for
    # groups and orbits instead
    assert _calls("translation")
    assert {module for module, _, _ in _calls("translation")} == {"witness"}


# the path-by-path checkers, which only the tests' oracle defines
ORACLE_ONLY = {
    "fold_vector", "path_equivalent", "probe_candidates", "probe_verdict", "reduce_path",
    "verify_reduction",
}


def test_the_path_by_path_checkers_live_in_the_oracle():
    # no module defines, imports or names them, the export map included
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = {getattr(node, field, None) for field in ("name", "id", "attr", "value")}
            if isinstance(node, ast.ImportFrom):
                names |= {n for alias in node.names for n in (alias.name, alias.asname)}
            found += [(path.stem, node.lineno, name) for name in names & ORACLE_ONLY]
    assert found == []


def test_no_fgroupoid_claim_reruns_a_second_check():
    # a claim that caught its walk's error could rerun another check for
    # its witness; none catches anything, so the runner records the walk's
    # counterexample or error
    tree = ast.parse((PACKAGE / "suite_fgroupoid.py").read_text())
    assert not [node for node in ast.walk(tree) if isinstance(node, ast.ExceptHandler)]


def test_report_entries_are_built_in_verify_alone():
    # the suites yield Claim records; verify's runner times and catches
    # their checks and builds every entry and the report that holds them
    assert {module for module, _, _ in _calls("ClaimEntry")} == {"verify"}
    assert [(module, holder) for module, holder, _ in _calls("Report")] == [
        ("verify", "run_suites"),
    ]
    found = []
    for path in sorted(PACKAGE.glob("suite_*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                names = {alias.name for alias in node.names}
                found += [(path.stem, node.lineno, n) for n in names & {"Report", "ClaimEntry"}]
                if node.module == "time":
                    found.append((path.stem, node.lineno, "time"))
            elif isinstance(node, ast.Import):
                found += [(path.stem, node.lineno, a.name) for a in node.names if a.name == "time"]
            elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "add":
                found.append((path.stem, node.lineno, "add"))
    assert found == []
