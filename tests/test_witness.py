import json
import random

import pytest

from groupoidlab import (
    DecompositionFailure,
    F_group,
    InvalidInput,
    WitnessInstance,
    YSystem,
    build_standard_groupoid,
    center,
    check_witness,
    compute_Y,
    cyclic_group,
    encode_double_cover,
    encode_groupoid,
    isomorphism_search,
    morphism_tuple,
    morphisms_between,
    standard_witness,
    x_tuples,
)


@pytest.fixture(scope="module")
def cover_z2_3():
    return encode_double_cover(build_standard_groupoid(cyclic_group(2), 3))


@pytest.fixture(scope="module")
def cover_z2_4():
    return encode_double_cover(build_standard_groupoid(cyclic_group(2), 4))


def test_y_sizes(cover_z2_3):
    plain = encode_groupoid(build_standard_groupoid(cyclic_group(2), 3))
    assert compute_Y(plain, 0, 1).size == 2
    assert compute_Y(cover_z2_3, 0, 1).size == 4
    trivial_cover = encode_double_cover(build_standard_groupoid(cyclic_group(1), 3))
    assert compute_Y(trivial_cover, 0, 1).size == 2


def test_y_contains_standard_tuples(cover_z2_3):
    y = compute_Y(cover_z2_3, 0, 1)
    for t in x_tuples(cover_z2_3, 0, 1):
        assert t in y.members


def test_y_rejects_equal_endpoints(cover_z2_3):
    with pytest.raises(InvalidInput):
        compute_Y(cover_z2_3, 1, 1)


def test_f_group_orders(cover_z2_3):
    plain = encode_groupoid(build_standard_groupoid(cyclic_group(2), 3))
    fp = F_group(plain, 0, 1)
    assert fp.order == 2
    assert isomorphism_search(fp.group, cyclic_group(2)) is not None
    fc = F_group(cover_z2_3, 0, 1)
    assert fc.order == 4 and fc.group.is_abelian() and fc.is_regular()


def test_f_group_z3_cover_proper_central():
    s = encode_double_cover(build_standard_groupoid(cyclic_group(3), 3))
    f = F_group(s, 0, 1)
    assert f.order == 6 and f.group.is_abelian()
    ys = YSystem(s)
    g_sub = ys.g_subgroup(0, 1)
    assert g_sub.order == 3
    assert set(g_sub.perms) < set(f.perms)
    assert center(f.group).order == f.order  # Z(F) = F


def test_compose_extends_standard(cover_z2_4):
    ys = YSystem(cover_z2_4)
    for g0 in x_tuples(cover_z2_4, 0, 1):
        for h0 in x_tuples(cover_z2_4, 1, 2):
            assert ys.compose(h0, g0) == ys.x_composite(g0, h0)


def test_compose_decomposition_independent(cover_z2_4):
    ys = YSystem(cover_z2_4)
    for g in ys.y_set(0, 1).members:
        for h in ys.y_set(1, 2).members:
            results = {
                ys.compose(h, g, decomposition=(g0, h0))
                for g0 in x_tuples(cover_z2_4, 0, 1)
                for h0 in x_tuples(cover_z2_4, 1, 2)
            }
            assert len(results) == 1
            assert results.pop() == ys.compose(h, g)


def test_compose_rejects_bad_endpoints(cover_z2_4):
    ys = YSystem(cover_z2_4)
    g01 = ys.y_set(0, 1).members[0]
    g23 = ys.y_set(2, 3).members[0]
    with pytest.raises(DecompositionFailure):
        ys.compose(g23, g01)
    g10 = ys.y_set(1, 0).members[0]
    with pytest.raises(DecompositionFailure):
        ys.compose(g10, g01)  # composite endpoints coincide


def test_unique_divisor(cover_z2_4):
    ys = YSystem(cover_z2_4)
    g = ys.y_set(0, 1).members[2]
    for f in ys.y_set(0, 2).members:
        h = ys.divisor(f, g)
        assert ys.compose(h, g) == f
        hits = [h2 for h2 in ys.y_set(1, 2).members if ys.compose(h2, g) == f]
        assert hits == [h]


def test_standard_witness_passes(cover_z2_3):
    rep = check_witness(standard_witness(cover_z2_3))
    assert rep.passed
    status = {e.claim_id: e.status for e in rep.entries}
    assert status["isolation-surrogate"] == "surrogate-pass"
    assert status["composition-uniqueness"] == "pass"


def test_witness_detects_non_composing_f02(cover_z2_3):
    w = standard_witness(cover_z2_3)
    m02 = w.f02[-1].index
    other = [m for m in morphisms_between(cover_z2_3, 0, 2) if m != m02][0]
    bad = WitnessInstance(
        structure=w.structure,
        b0=w.b0,
        b1=w.b1,
        b2=w.b2,
        f01=w.f01,
        f12=w.f12,
        f02=morphism_tuple(cover_z2_3, other),
    )
    rep = check_witness(bad)
    status = {e.claim_id: e.status for e in rep.entries}
    assert status["composition-uniqueness"] == "fail"


def test_witness_rejects_degenerate_objects(cover_z2_3):
    w = standard_witness(cover_z2_3)
    degenerate = WitnessInstance(
        structure=w.structure,
        b0=w.b0,
        b1=w.b0,
        b2=w.b2,
        f01=w.f01,
        f12=w.f12,
        f02=w.f02,
    )
    rep = check_witness(degenerate)
    assert not rep.passed
    assert rep.entries[0].claim_id == "objects-distinct"


def test_standard_witness_needs_three_objects():
    s = encode_groupoid(build_standard_groupoid(cyclic_group(2), 2))
    with pytest.raises(InvalidInput):
        standard_witness(s)


def test_witness_json_round_trip(cover_z2_3):
    from groupoidlab.verify import witness_from_json, witness_to_json

    w = standard_witness(cover_z2_3)
    again = witness_from_json(cover_z2_3, json.loads(json.dumps(witness_to_json(w))))
    assert again == w
    assert check_witness(again).passed


def test_f_bracket_cocycle(cover_z2_3):
    # the unique group element moving f to g composes like a coboundary
    ys = YSystem(cover_z2_3)
    fg = ys.f_group(0, 1)
    y = ys.y_set(0, 1)

    def mover(src, dst):
        si, di = y.index_of(src), y.index_of(dst)
        hits = [k for k in range(fg.order) if fg.perms[k][si] == di]
        assert len(hits) == 1
        return hits[0]

    for f in y.members:
        for g in y.members:
            for h in y.members:
                assert fg.group.mul(mover(g, h), mover(f, g)) == mover(f, h)


def test_compose_works_with_three_objects(cover_z2_3):
    ys = YSystem(cover_z2_3)
    g = ys.y_set(0, 1).members[1]
    h = ys.y_set(1, 2).members[3]
    out = ys.compose(h, g)
    assert out in ys.y_set(0, 2).members
    # exhaustive decomposition independence at this size too
    for g0 in x_tuples(cover_z2_3, 0, 1):
        for h0 in x_tuples(cover_z2_3, 1, 2):
            assert ys.compose(h, g, decomposition=(g0, h0)) == out


def test_compose_index_table_matches_compose(cover_z2_4):
    ys = YSystem(cover_z2_4)
    ya, yb, yc = ys.y_set(0, 1), ys.y_set(1, 2), ys.y_set(0, 2)
    for gi, g in enumerate(ya.members):
        for hi, h in enumerate(yb.members):
            assert yc.members[ys.compose_index(0, 1, 2, gi, hi)] == ys.compose(h, g)


def test_decompose_covers_every_standard_tuple(cover_z2_4):
    ys = YSystem(cover_z2_4)
    y = ys.y_set(0, 1)
    fg = ys.f_group(0, 1)
    for t in y.members:
        decs = ys.decompose(t)
        assert [x for x, _ in decs] == list(x_tuples(cover_z2_4, 0, 1))
        for x, k in decs:
            assert y.members[fg.perms[k][y.index_of(x)]] == t


def test_cover_doubling_generalizes_to_z4_and_klein():
    from groupoidlab import direct_product

    for group in (cyclic_group(4), direct_product(cyclic_group(2), cyclic_group(2))):
        s = encode_double_cover(build_standard_groupoid(group, 3))
        ys = YSystem(s)
        fg = ys.f_group(0, 1)
        gg = ys.g_subgroup(0, 1)
        assert ys.y_set(0, 1).size == 2 * group.order
        assert fg.order == 2 * group.order and fg.group.is_abelian()
        assert gg.order == group.order
        assert set(gg.perms) < set(fg.perms)


def test_associativity_on_z3_cover():
    s = encode_double_cover(build_standard_groupoid(cyclic_group(3), 4))
    ys = YSystem(s)
    for g in ys.y_set(0, 1).members[:3]:
        for h in ys.y_set(1, 2).members[:3]:
            for k in ys.y_set(2, 3).members[:3]:
                assert ys.compose(k, ys.compose(h, g)) == ys.compose(
                    ys.compose(k, h), g
                )


def test_reference_generated_groups_match_full_enumeration(cover_z2_4):
    # the targeted construction must agree with restricting the fully
    # enumerated stabilizer
    from groupoidlab import setwise_restricted_group
    from groupoidlab.witness import restriction_group_by_reference

    for (a, b) in ((0, 1), (2, 3)):
        y = compute_Y(cover_z2_4, a, b)
        fast = restriction_group_by_reference(cover_z2_4, y.base, y)
        slow = setwise_restricted_group(cover_z2_4, y.base, y.members)
        assert fast.perms == slow.perms
        assert fast.group == slow.group


@pytest.mark.parametrize(
    "group,cover",
    [("cyclic:2", False), ("cyclic:2", True), ("symmetric:3", False)],
    ids=["z2-plain", "z2-cover", "s3-plain"],
)
def test_orbit_and_interdefinable_match_full_enumeration(group, cover):
    # the lead searches behind orbit_of and interdefinable against the
    # orbits and fixed points read off the fully enumerated base-fixing
    # groups, for raw and full morphism tuples, over bases with and without
    # the target part
    from groupoidlab import (
        Element,
        automorphism_group,
        group_from_spec,
        interdefinable,
        object_closure,
        orbit_of,
        pair_base,
    )

    gpd = build_standard_groupoid(group_from_spec(group), 3)
    s = encode_double_cover(gpd) if cover else encode_groupoid(gpd)

    def fixed_over(base, t):
        return all(aut.apply_tuple(t) == t for aut in automorphism_group(s, base).members)

    bases = (object_closure(s, 0), pair_base(s, 0, 1))
    morphisms = morphisms_between(s, 0, 1) + morphisms_between(s, 0, 2)[:1]
    morphisms += morphisms_between(s, 0, 0)[-1:] + morphisms_between(s, 1, 2)[:1]
    for base in bases:
        members = automorphism_group(s, base).members
        for m in morphisms:
            for f in ((Element("M", m),), morphism_tuple(s, m)):
                orbit = tuple(sorted({aut.apply_tuple(f) for aut in members}))
                assert orbit_of(s, base, f) == orbit, (base, f)
                for g in orbit:
                    expected = fixed_over(base + g, f) and fixed_over(base + f, g)
                    assert interdefinable(s, base, f, g) == expected, (base, f, g)


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


@pytest.mark.parametrize(
    "group,objects,cover",
    [("cyclic:2", 4, True), ("symmetric:3", 3, False)],
    ids=["z2-cover-4", "s3-plain-3"],
)
def test_relabelling_keeps_y_sizes_and_f_orders(group, objects, cover):
    # no result may depend on the standard numbering: relabel every sort and
    # compare the Y-set sizes and F-group orders of corresponding pairs
    from groupoidlab import group_from_spec

    gpd = build_standard_groupoid(group_from_spec(group), objects)
    s = encode_double_cover(gpd) if cover else encode_groupoid(gpd)
    r, obj = _relabelled(s, seed=20150)
    assert obj != sorted(obj)
    ys, yr = YSystem(s), YSystem(r)
    for a in range(objects):
        for b in range(objects):
            if a != b:
                pr = (obj[a], obj[b])
                assert yr.y_set(*pr).size == ys.y_set(a, b).size, (a, b)
                assert yr.f_group(*pr).order == ys.f_group(a, b).order, (a, b)
