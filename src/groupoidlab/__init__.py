"""Exact computational laboratory for finite groupoids: standard models with
prescribed vertex groups, double-cover extensions, brute-force automorphism
groups, Y-set machinery, directed-path quotients and finite-stage limits.

The package exports the names below lazily (PEP 562): ``groupoidlab.X``
imports X's home module on first access and returns that module's current
attribute, so importing the package, or one of its modules, compiles only
what is used."""

from importlib import import_module

# home module -> the names the package exports from it
_EXPORTS = {
    "automorphisms": (
        "Automorphism",
        "AutomorphismGroup",
        "RestrictedAutGroup",
        "automorphism_group",
        "dcl_of",
        "find_automorphism",
        "interdefinable",
        "is_automorphism",
        "iter_automorphisms",
        "orbit_of",
        "restricted_group",
        "setwise_restricted_group",
    ),
    "errors": (
        "AxiomViolation",
        "BudgetExceeded",
        "ClaimFailure",
        "DecompositionFailure",
        "FunctorialityFailure",
        "GroupoidLabError",
        "InvalidInput",
        "NoProbeAvailable",
        "NonAbelianVertex",
        "NotDirected",
        "NotInvariant",
        "NotWellDefined",
        "OrderMismatch",
        "RegularityFailure",
        "ReportMergeError",
        "TransitionNotEpi",
        "TransportAmbiguity",
        "UnsupportedSize",
    ),
    "groups": (
        "FiniteGroup",
        "Subgroup",
        "center",
        "cyclic_group",
        "dihedral_group",
        "direct_product",
        "group_from_json",
        "group_from_spec",
        "group_to_json",
        "isomorphism_search",
        "quaternion_group",
        "symmetric_group",
        "validate_group",
    ),
    "groupoids": (
        "BindingGroup",
        "FiniteGroupoid",
        "VertexGroup",
        "binding_group",
        "build_standard_groupoid",
        "validate_groupoid",
        "vertex_group",
    ),
    "limits": (
        "DirectedSystemOfGroups",
        "FiniteStageLimit",
        "GroupHomomorphism",
        "finite_stage_limit",
        "restriction_epimorphism",
        "validate_system",
    ),
    "paths": (
        "DirectedPath",
        "ExtendedGroupoid",
        "all_paths",
        "build_extended_groupoid",
        "class_key",
        "contract_path",
        "contract_to_two_steps",
        "fold",
        "make_path",
    ),
    "report": (
        "Report",
        "merge_reports",
        "strip_volatile",
    ),
    "structures": (
        "Element",
        "MultiSortedStructure",
        "decode_groupoid",
        "encode_double_cover",
        "encode_groupoid",
        "morphism_tuple",
        "morphisms_between",
        "object_closure",
        "object_tuple",
        "pair_base",
        "pair_closure",
        "structure_from_json",
        "structure_to_json",
        "vertex_morphisms",
    ),
    "suite_section2": (
        "choice_family_map",
        "verify_section2",
    ),
    "suite_section3": (
        "verify_section3",
    ),
    "suite_witness": (
        "WitnessInstance",
        "check_witness",
        "standard_witness",
    ),
    "witness": (
        "YSet",
        "YSystem",
        "compute_Y",
        "x_tuples",
    ),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name: str):
    # an unknown name raises AttributeError, so `from groupoidlab import m`
    # still imports the submodule m
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
