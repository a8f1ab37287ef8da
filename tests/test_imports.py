"""Each command imports only the modules it runs, and the package surface
imports nothing until a name is used.

The module sets below do not depend on the machine, so a stray top-level
import fails here without any timing.  Every source module is compiled when
it is first imported, so a module a command does not run costs it time.
"""

import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

import groupoidlab
from conftest import SRC, subprocess_env

PACKAGE = Path(SRC) / "groupoidlab"

# the groupoidlab.* modules in sys.modules after cli.main(argv), run alone
# in a fresh interpreter
FRONT = {"cli", "errors", "groups", "groupoids", "report", "structures"}
SEARCH = FRONT | {"automorphisms", "verify"}
IMPORT_SETS = [
    ("build --group cyclic:2 --objects 3", FRONT),
    ("report {report}", FRONT),
    ("verify --suite section2 --group cyclic:2 --objects 3", SEARCH | {"suite_section2"}),
    ("verify --suite fgroupoid --group cyclic:2 --objects 4",
     SEARCH | {"witness", "paths", "suite_fgroupoid"}),
    ("verify --suite all --group cyclic:2 --objects 4",
     SEARCH | {"witness", "paths", "limits", "suite_witness", "suite_section2",
               "suite_section3", "suite_fgroupoid", "suite_limits"}),
]

_LOADED = (
    "import io, contextlib, json, sys\n"
    "from groupoidlab import cli\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    code = cli.main(sys.argv[1:])\n"
    "print(json.dumps([code, sorted(m for m in sys.modules if m.startswith('groupoidlab.'))]))\n"
)


def _loaded(argv):
    done = subprocess.run(
        [sys.executable, "-c", _LOADED, *argv], capture_output=True, text=True,
        env=subprocess_env(),
    )
    assert done.returncode == 0, done.stderr
    code, modules = json.loads(done.stdout)
    return code, {m.removeprefix("groupoidlab.") for m in modules}


@pytest.mark.parametrize("command,expected", IMPORT_SETS, ids=[c for c, _ in IMPORT_SETS])
def test_a_command_imports_only_the_modules_it_runs(command, expected, tmp_path):
    report = tmp_path / "r.json"
    report.write_text(json.dumps({"instance": "demo", "claims": [{"id": "c", "status": "pass"}]}))
    code, modules = _loaded(command.format(report=report).split())
    assert code == 0
    assert modules == expected


def test_suite_all_imports_every_module():
    assert IMPORT_SETS[-1][1] == {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}


# the names the package exports: the 96 it exported when __init__.py imported
# every module, less the four path-by-path checkers moved to tests/oracle.py
EXPORTED = """
    Automorphism AutomorphismGroup RestrictedAutGroup automorphism_group dcl_of
    find_automorphism interdefinable is_automorphism iter_automorphisms orbit_of
    restricted_group setwise_restricted_group
    AxiomViolation BudgetExceeded ClaimFailure DecompositionFailure
    FunctorialityFailure GroupoidLabError InvalidInput NoProbeAvailable
    NonAbelianVertex NotDirected NotInvariant NotWellDefined OrderMismatch
    RegularityFailure ReportMergeError TransitionNotEpi TransportAmbiguity
    UnsupportedSize
    FiniteGroup Subgroup center cyclic_group dihedral_group direct_product
    group_from_json group_from_spec group_to_json isomorphism_search
    quaternion_group symmetric_group validate_group
    BindingGroup FiniteGroupoid VertexGroup binding_group build_standard_groupoid
    validate_groupoid vertex_group
    DirectedSystemOfGroups FiniteStageLimit GroupHomomorphism finite_stage_limit
    restriction_epimorphism validate_system
    DirectedPath ExtendedGroupoid all_paths build_extended_groupoid class_key
    contract_path contract_to_two_steps fold make_path
    Report merge_reports strip_volatile
    Element MultiSortedStructure decode_groupoid encode_double_cover
    encode_groupoid morphism_tuple morphisms_between object_closure object_tuple
    pair_base pair_closure structure_from_json structure_to_json vertex_morphisms
    WitnessInstance choice_family_map standard_witness
    YSet YSystem compute_Y x_tuples
""".split()


def test_the_surface_exports_the_same_names():
    assert len(EXPORTED) == len(set(EXPORTED)) == 89
    assert sorted(groupoidlab.__all__) == sorted(EXPORTED)
    assert set(EXPORTED) <= set(dir(groupoidlab))


def test_each_name_is_the_attribute_of_its_home_module():
    for name in EXPORTED:
        home = importlib.import_module(f"groupoidlab.{groupoidlab._HOME[name]}")
        assert getattr(groupoidlab, name) is getattr(home, name), name
        assert getattr(home, name).__module__ == home.__name__, name


def test_a_name_follows_its_home_module(monkeypatch):
    from groupoidlab import automorphisms

    def replaced(*args, **kwargs):
        raise AssertionError("not called")

    monkeypatch.setattr(automorphisms, "automorphism_group", replaced)
    assert groupoidlab.automorphism_group is replaced


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        groupoidlab.no_such_name
    assert not hasattr(groupoidlab, "suite_nowhere")


def test_from_the_package_imports_a_submodule():
    from groupoidlab import verify

    assert verify is importlib.import_module("groupoidlab.verify")
    assert "SUITES" in vars(verify)


def test_importing_the_package_imports_no_module():
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, groupoidlab; print([m for m in sys.modules if m.startswith('groupoidlab.')])"],
        capture_output=True, text=True, env=subprocess_env(),
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
