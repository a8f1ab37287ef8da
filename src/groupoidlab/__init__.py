"""Exact computational laboratory for finite groupoids: standard models with
prescribed vertex groups, double-cover extensions, brute-force automorphism
groups, Y-set machinery, directed-path quotients and finite-stage limits."""

from .automorphisms import (
    Automorphism,
    AutomorphismGroup,
    RestrictedAutGroup,
    automorphism_group,
    dcl_of,
    find_automorphism,
    interdefinable,
    is_automorphism,
    iter_automorphisms,
    orbit_of,
    restricted_group,
    setwise_restricted_group,
)
from .errors import (
    AxiomViolation,
    BudgetExceeded,
    ClaimFailure,
    DecompositionFailure,
    FunctorialityFailure,
    GroupoidLabError,
    InvalidInput,
    NoProbeAvailable,
    NonAbelianVertex,
    NotDirected,
    NotInvariant,
    NotWellDefined,
    OrderMismatch,
    RegularityFailure,
    ReportMergeError,
    TransitionNotEpi,
    TransportAmbiguity,
    UnsupportedSize,
)
from .groups import (
    FiniteGroup,
    Subgroup,
    center,
    cyclic_group,
    dihedral_group,
    direct_product,
    group_from_json,
    group_from_spec,
    group_to_json,
    isomorphism_search,
    quaternion_group,
    symmetric_group,
    validate_group,
)
from .groupoids import (
    BindingGroup,
    FiniteGroupoid,
    VertexGroup,
    binding_group,
    build_standard_groupoid,
    validate_groupoid,
    vertex_group,
)
from .limits import (
    DirectedSystemOfGroups,
    FiniteStageLimit,
    GroupHomomorphism,
    finite_stage_limit,
    restriction_epimorphism,
    validate_system,
)
from .paths import (
    DirectedPath,
    ExtendedGroupoid,
    all_paths,
    build_extended_groupoid,
    class_key,
    contract_path,
    contract_to_two_steps,
    fold,
    make_path,
    path_equivalent,
    probe_candidates,
    reduce_path,
    verify_reduction,
)
from .report import Report, merge_reports, strip_volatile
from .structures import (
    Element,
    MultiSortedStructure,
    decode_groupoid,
    encode_double_cover,
    encode_groupoid,
    morphism_tuple,
    morphisms_between,
    object_closure,
    object_tuple,
    pair_base,
    pair_closure,
    structure_from_json,
    structure_to_json,
    vertex_morphisms,
)
from .verify import (
    WitnessInstance,
    check_witness,
    choice_family_map,
    standard_witness,
    verify_section2,
    verify_section3,
)
from .witness import YSet, YSystem, compute_Y, x_tuples
