import pytest

from groupoidlab import (
    AxiomViolation,
    Element,
    FunctorialityFailure,
    InvalidInput,
    NotDirected,
    NotWellDefined,
    TransitionNotEpi,
    build_standard_groupoid,
    cyclic_group,
    direct_product,
    encode_double_cover,
    encode_groupoid,
    finite_stage_limit,
    isomorphism_search,
    morphism_tuple,
    morphisms_between,
    object_closure,
    restriction_epimorphism,
    validate_system,
)
from groupoidlab.suite_limits import verify_limits


def chain_z8():
    z8, z4, z2 = cyclic_group(8), cyclic_group(4), cyclic_group(2)
    return validate_system(
        indices=("z2", "z4", "z8"),
        order_pairs=[("z2", "z4"), ("z4", "z8")],
        groups={"z2": z2, "z4": z4, "z8": z8},
        transitions={
            ("z2", "z4"): [x % 2 for x in range(4)],
            ("z4", "z8"): [x % 4 for x in range(8)],
            ("z2", "z8"): [x % 2 for x in range(8)],
        },
    )


def test_single_group_system():
    sys1 = validate_system(
        indices=("only",),
        order_pairs=[],
        groups={"only": cyclic_group(2)},
        transitions={},
    )
    lim = finite_stage_limit(sys1, ("only",)).group
    assert lim.order == 2


def test_chain_validates_and_limits_to_top():
    sys_chain = chain_z8()
    lim = finite_stage_limit(sys_chain, ("z2", "z4", "z8")).group
    assert isomorphism_search(lim, cyclic_group(8)) is not None
    partial = finite_stage_limit(sys_chain, ("z2", "z4")).group
    assert isomorphism_search(partial, cyclic_group(4)) is not None


def test_constant_system_limit():
    z2 = cyclic_group(2)
    sys_const = validate_system(
        indices=("lo", "hi"),
        order_pairs=[("lo", "hi")],
        groups={"lo": z2, "hi": z2},
        transitions={("lo", "hi"): [0, 1]},
    )
    lim = finite_stage_limit(sys_const, ("lo", "hi")).group
    assert isomorphism_search(lim, z2) is not None


def test_incomparable_with_upper_bound():
    z2, z3, z6 = cyclic_group(2), cyclic_group(3), cyclic_group(6)
    sys_v = validate_system(
        indices=("z2", "z3", "z6"),
        order_pairs=[("z2", "z6"), ("z3", "z6")],
        groups={"z2": z2, "z3": z3, "z6": z6},
        transitions={
            ("z2", "z6"): [x % 2 for x in range(6)],
            ("z3", "z6"): [x % 3 for x in range(6)],
        },
    )
    stage = finite_stage_limit(sys_v, ("z2", "z3", "z6"))
    assert isomorphism_search(stage.group, z6) is not None
    for pos, idx in enumerate(stage.stage):  # every projection is onto
        assert len({e[pos] for e in stage.elements}) == sys_v.group(idx).order


def test_transition_must_be_epi():
    z4, z2 = cyclic_group(4), cyclic_group(2)
    with pytest.raises(TransitionNotEpi):
        validate_system(
            indices=("z4", "z2"),
            order_pairs=[("z4", "z2")],
            groups={"z4": z4, "z2": z2},
            transitions={("z4", "z2"): [0, 1]},  # mislabeled direction
        )


def test_functoriality_failure():
    z2 = cyclic_group(2)
    k4 = direct_product(z2, z2)
    first = [x // 2 for x in range(4)]   # projection onto the first factor
    second = [x % 2 for x in range(4)]   # projection onto the second factor
    with pytest.raises(FunctorialityFailure):
        validate_system(
            indices=("bot", "mid", "top"),
            order_pairs=[("bot", "mid"), ("mid", "top")],
            groups={"bot": z2, "mid": k4, "top": k4},
            transitions={
                ("bot", "mid"): first,
                ("mid", "top"): list(range(4)),
                ("bot", "top"): second,
            },
        )


def test_not_directed():
    z2 = cyclic_group(2)
    with pytest.raises(NotDirected):
        validate_system(
            indices=("a", "b"),
            order_pairs=[],
            groups={"a": z2, "b": z2},
            transitions={},
        )


def test_antisymmetry_violation():
    z2 = cyclic_group(2)
    with pytest.raises(AxiomViolation):
        validate_system(
            indices=("a", "b"),
            order_pairs=[("a", "b"), ("b", "a")],
            groups={"a": z2, "b": z2},
            transitions={("a", "b"): [0, 1], ("b", "a"): [0, 1]},
        )


def test_order_pair_must_name_indices():
    # an index with a group but outside the index set is not part of the poset
    z2 = cyclic_group(2)
    with pytest.raises(InvalidInput, match="unknown index"):
        validate_system(
            indices=("a",),
            order_pairs=[("a", "b")],
            groups={"a": z2, "b": z2},
            transitions={("a", "b"): [0, 1]},
        )


def test_stage_must_be_downward_closed():
    sys_chain = chain_z8()
    with pytest.raises(AxiomViolation):
        finite_stage_limit(sys_chain, ("z8",))
    bottom = finite_stage_limit(sys_chain, ("z2",))
    assert bottom.group.order == 2


def test_restriction_epimorphism_identity():
    s = encode_double_cover(build_standard_groupoid(cyclic_group(2), 4))
    base = object_closure(s, 0)
    full = morphism_tuple(s, min(morphisms_between(s, 0, 1)))
    hom = restriction_epimorphism(s, base, full, full)
    assert hom.is_surjective()
    assert len(hom.kernel()) == 1


def test_restriction_epimorphism_cover():
    s = encode_double_cover(build_standard_groupoid(cyclic_group(2), 4))
    base = object_closure(s, 0)
    m = min(morphisms_between(s, 0, 1))
    hom = restriction_epimorphism(s, base, (Element("M", m),), morphism_tuple(s, m))
    assert hom.source.order == 4
    assert hom.target.order == 2
    assert hom.is_surjective()
    assert len(hom.kernel()) == 2


def test_restriction_epimorphism_needs_the_bigger_carrier_to_fix_the_smaller():
    # on the cover the raw morphism does not fix its fiber points, so the
    # restrictions to raw Y(0, 1) do not determine those to the full Y-set
    s = encode_double_cover(build_standard_groupoid(cyclic_group(2), 3))
    m = min(morphisms_between(s, 0, 1))
    full, raw = morphism_tuple(s, m), (Element("M", m),)
    with pytest.raises(NotWellDefined):
        restriction_epimorphism(s, object_closure(s, 0), full, raw)


def test_pi2_gamma2_instances():
    z2 = cyclic_group(2)
    triv = cyclic_group(1)
    instances = [
        encode_groupoid(build_standard_groupoid(z2, 4)),
        encode_double_cover(build_standard_groupoid(z2, 4)),
        encode_groupoid(build_standard_groupoid(triv, 4)),
    ]
    for s in instances:
        tower = [e for e in verify_limits(s).entries if e.claim_id.startswith("instance.")]
        assert len(tower) == 5
        assert all(e.status == "pass" for e in tower), [(e.claim_id, e.witness) for e in tower]
