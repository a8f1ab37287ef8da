"""Every public function and method in the package serves a claim or the CLI.

A public name that nothing in ``src`` refers to serves at most its own
tests; it either stays on purpose, with its reason below, or goes.
"""

import ast
from pathlib import Path

from conftest import SRC

PACKAGE = Path(SRC) / "groupoidlab"

KEPT = {
    "make_path": "the validating constructor of a directed path",
    "restriction_epimorphism": "acceptance criterion 10 builds the epimorphism with it",
    "strip_volatile": "the README documents it for comparing report bytes",
    "group_to_json": "it writes the group format that --group file:PATH reads",
    "dcl_of": "the enumerating dcl oracle, timed by the benchmark's automorphisms layer",
    "interdefinable": "timed by the benchmark's automorphisms layer",
    "iter_automorphisms": "the enumerating oracle of the lead searches, and an entry point of the benchmark's tracer",
}


def _public_definitions(tree):
    # (name, node) for every public top-level function and method
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                    yield member.name, member


def _unreferenced():
    definitions, references = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        definitions += [(name, path, node) for name, node in _public_definitions(tree)]
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)):
                name = node.id if isinstance(node, ast.Name) else node.attr
                references.append((name, path, node.lineno))
    return {
        name for name, path, node in definitions
        if not any(
            ref == name and not (ref_path == path and node.lineno <= line <= node.end_lineno)
            for ref, ref_path, line in references
        )
    }


def test_every_unreferenced_public_name_is_kept_on_purpose():
    assert _unreferenced() == set(KEPT)
