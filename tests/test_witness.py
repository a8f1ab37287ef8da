import pytest

from conftest import _relabelled, claims_report
from groupoidlab import (
    InvalidInput,
    WitnessInstance,
    YSystem,
    build_standard_groupoid,
    center,
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
from groupoidlab.suite_witness import instance_claims


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
    # also endpoints that are no object of the 3-object structure, for the
    # search and for every builder of the Y-set system, before any
    # translation is tried
    ys = YSystem(cover_z2_3)
    builders = (ys.y_set, ys.raw_y_set, ys.f_group, ys.g_subgroup)
    for a, b in ((1, 1), (0, 3), (0, 9), (-1, 0)):
        with pytest.raises(InvalidInput):
            compute_Y(cover_z2_3, a, b)
        for build in builders:
            with pytest.raises(InvalidInput):
                build(a, b)


def test_f_group_orders(cover_z2_3):
    plain = encode_groupoid(build_standard_groupoid(cyclic_group(2), 3))
    fp = plain.y_system.f_group(0, 1)
    assert fp.order == 2
    assert isomorphism_search(fp.group, cyclic_group(2)) is not None
    fc = cover_z2_3.y_system.f_group(0, 1)
    assert fc.order == 4 and fc.group.is_abelian() and fc.is_regular()


def test_f_group_z3_cover_proper_central():
    s = encode_double_cover(build_standard_groupoid(cyclic_group(3), 3))
    f = s.y_system.f_group(0, 1)
    assert f.order == 6 and f.group.is_abelian()
    g_sub = s.y_system.g_subgroup(0, 1)
    assert g_sub.order == 3
    assert set(g_sub.perms) < set(f.perms)
    assert center(f.group).order == f.order  # Z(F) = F


def test_compose_extends_standard(cover_z2_4):
    ys = YSystem(cover_z2_4)
    y01, y12, y02 = ys.y_set(0, 1), ys.y_set(1, 2), ys.y_set(0, 2)
    for g0 in ys.standard(0, 1):
        for h0 in ys.standard(1, 2):
            m = ys.gpd.compose(y01.members[g0][-1].index, y12.members[h0][-1].index)
            assert y02.members[ys.compose(0, 1, 2, g0, h0)] == morphism_tuple(cover_z2_4, m)


def test_compose_decomposition_independent(cover_z2_4):
    ys = YSystem(cover_z2_4)
    for g in range(ys.y_set(0, 1).size):
        for h in range(ys.y_set(1, 2).size):
            results = {
                ys.compose(0, 1, 2, g, h, decomposition=(g0, h0))
                for g0 in ys.standard(0, 1)
                for h0 in ys.standard(1, 2)
            }
            assert len(results) == 1
            assert results.pop() == ys.compose(0, 1, 2, g, h)


def test_compose_rejects_bad_endpoints(cover_z2_4):
    ys = YSystem(cover_z2_4)
    with pytest.raises(InvalidInput):
        ys.compose(0, 1, 0, 0, 0)  # composite endpoints coincide


def test_compose_and_divisor_reject_member_indices_out_of_range(cover_z2_4):
    # a negative index must not wrap around the table, and an index past the
    # end is an input error, not a bare IndexError
    ys = YSystem(cover_z2_4)
    size = ys.y_set(0, 1).size
    assert size == ys.y_set(1, 2).size == ys.y_set(0, 2).size == 4
    for g, h in ((-1, 0), (0, -1), (size, 0), (0, size), (99, 0)):
        with pytest.raises(InvalidInput):
            ys.compose(0, 1, 2, g, h)
        with pytest.raises(InvalidInput):
            ys.compose(0, 1, 2, g, h, decomposition=(0, 0))
    g0, h0 = ys.standard(0, 1)[0], ys.standard(1, 2)[0]
    for decomposition in ((-1, h0), (g0, -1), (size, h0), (g0, size)):
        with pytest.raises(InvalidInput):
            ys.compose(0, 1, 2, 0, 0, decomposition=decomposition)
    for f, g in ((0, -1), (0, size), (-1, 0), (size, 0)):
        with pytest.raises(InvalidInput):
            ys.divisor(0, 1, 2, f, g)
    assert ys.compose(0, 1, 2, size - 1, size - 1) == ys.compose(
        0, 1, 2, size - 1, size - 1, decomposition=(g0, h0)
    )


def test_unique_divisor(cover_z2_4):
    ys = YSystem(cover_z2_4)
    g = 2
    for f in range(ys.y_set(0, 2).size):
        h = ys.divisor(0, 1, 2, f, g)
        assert ys.compose(0, 1, 2, g, h) == f
        hits = [h2 for h2 in range(ys.y_set(1, 2).size) if ys.compose(0, 1, 2, g, h2) == f]
        assert hits == [h]


def test_standard_witness_passes(cover_z2_3):
    rep = claims_report(instance_claims(standard_witness(cover_z2_3)))
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
    rep = claims_report(instance_claims(bad))
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
    rep = claims_report(instance_claims(degenerate))
    assert not rep.passed
    assert [e.claim_id for e in rep.entries] == ["objects-distinct"]


def test_standard_witness_needs_three_objects():
    s = encode_groupoid(build_standard_groupoid(cyclic_group(2), 2))
    with pytest.raises(InvalidInput):
        standard_witness(s)


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
    out = ys.compose(0, 1, 2, 1, 3)
    assert 0 <= out < ys.y_set(0, 2).size
    # exhaustive decomposition independence at this size too
    for g0 in ys.standard(0, 1):
        for h0 in ys.standard(1, 2):
            assert ys.compose(0, 1, 2, 1, 3, decomposition=(g0, h0)) == out


def test_decompose_covers_every_standard_tuple(cover_z2_4):
    # every member is the image of every standard member under exactly one
    # F-element, so every standard member serves in a decomposition
    ys = YSystem(cover_z2_4)
    y = ys.y_set(0, 1)
    fg = ys.f_group(0, 1)
    standard = ys.standard(0, 1)
    assert [y.members[x] for x in standard] == list(x_tuples(cover_z2_4, 0, 1))
    for t in range(y.size):
        for x in standard:
            assert len([k for k in range(fg.order) if fg.perms[k][x] == t]) == 1


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
    for g in range(3):
        for h in range(3):
            for k in range(3):
                assert ys.compose(0, 2, 3, ys.compose(0, 1, 2, g, h), k) == ys.compose(
                    0, 1, 3, g, ys.compose(1, 2, 3, h, k)
                )


def _enumerated_restriction(s, base, carrier, invariant):
    """The oracle: restrict every member of the enumerated Aut(s/base) to
    the carrier, keeping the least member per restriction as its rep.  None
    when the carrier must be invariant and some member moves a tuple out."""
    from groupoidlab import RestrictedAutGroup, automorphism_group
    from groupoidlab.groups import _perm_group

    carrier = tuple(sorted(set(carrier)))
    index = {t: i for i, t in enumerate(carrier)}
    least = {}
    for aut in automorphism_group(s, base).members:  # in increasing order
        perm = tuple(index.get(aut.apply_tuple(t), -1) for t in carrier)
        if -1 not in perm:
            least.setdefault(perm, aut)
        elif invariant:
            return None
    perms = tuple(sorted(least))
    return RestrictedAutGroup(
        structure=s,
        base=tuple(sorted(set(base))),
        carrier=carrier,
        group=_perm_group(perms),
        perms=perms,
        reps=tuple(least[p] for p in perms),
    )


def _check_restriction(s, fast, slow):
    """fast and slow agree on base, carrier, perms and group; fast's reps,
    which need not be slow's, are checked by what they restrict to, by
    fixing the base and by is_automorphism."""
    from groupoidlab import is_automorphism

    assert fast.base == slow.base
    assert fast.carrier == slow.carrier
    assert fast.perms == slow.perms
    assert fast.group == slow.group
    index = {t: i for i, t in enumerate(fast.carrier)}
    for perm, rep in zip(fast.perms, fast.reps):
        assert tuple(index[rep.apply_tuple(t)] for t in fast.carrier) == perm
        assert all(rep.apply(e) == e for e in fast.base)
        assert is_automorphism(s, rep)


def test_reference_generated_groups_match_full_enumeration(cover_z2_4):
    # the targeted construction must agree with restricting the fully
    # enumerated stabilizer, over the source closure (the F-group) and over
    # the pair base (the G-group, which must leave the Y-set invariant)
    from groupoidlab import pair_base

    ys = cover_z2_4.y_system
    for (a, b) in ((0, 1), (2, 3)):
        y = compute_Y(cover_z2_4, a, b)
        pbase = pair_base(cover_z2_4, a, b)
        for fast, slow in (
            (
                ys.f_group(a, b),
                _enumerated_restriction(cover_z2_4, y.base, y.members, False),
            ),
            (
                ys.g_subgroup(a, b),
                _enumerated_restriction(cover_z2_4, pbase, y.members, True),
            ),
        ):
            assert fast.carrier == slow.carrier
            assert fast.perms == slow.perms
            assert fast.reps == slow.reps
            assert fast.group == slow.group


@pytest.mark.parametrize("cover", [False, True], ids=["plain", "cover"])
@pytest.mark.parametrize("group", ["cyclic:2", "symmetric:3", "dihedral:4", "quaternion8"])
def test_restriction_groups_match_full_enumeration(group, cover):
    # every restriction group built by a lead search against the oracle: the
    # F- and G-groups of the Y-sets, setwise Mor(a, b) over the source
    # closure, the centre coset over the pair base, and Mor(a, b) over the
    # source closure, which an object swap moves (NotInvariant).  A rep is
    # the first automorphism the search finds, not the least member, so it
    # is checked by what it restricts to.
    from groupoidlab import (
        Element,
        NotInvariant,
        group_from_spec,
        object_closure,
        orbit_of,
        pair_base,
        restricted_group,
        setwise_restricted_group,
    )

    gpd = build_standard_groupoid(group_from_spec(group), 3)
    s = encode_double_cover(gpd) if cover else encode_groupoid(gpd)

    def check(fast, slow):
        _check_restriction(s, fast, slow)

    for a, b in ((0, 1), (1, 2), (2, 0)):
        y = s.y_system.y_set(a, b)
        source, pbase = object_closure(s, a), pair_base(s, a, b)
        mor_ab = tuple((Element("M", m),) for m in morphisms_between(s, a, b))
        coset = orbit_of(s, pbase, (Element("M", min(morphisms_between(s, a, b))),))
        check(s.y_system.f_group(a, b), _enumerated_restriction(s, y.base, y.members, False))
        check(s.y_system.g_subgroup(a, b), _enumerated_restriction(s, pbase, y.members, True))
        check(setwise_restricted_group(s, source, mor_ab),
              _enumerated_restriction(s, source, mor_ab, False))
        check(restricted_group(s, pbase, coset),
              _enumerated_restriction(s, pbase, coset, True))
        assert _enumerated_restriction(s, source, mor_ab, True) is None
        with pytest.raises(NotInvariant):
            restricted_group(s, source, mor_ab)


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


@pytest.mark.parametrize("cover", [False, True], ids=["plain", "cover"])
@pytest.mark.parametrize(
    "group", ["cyclic:2", "cyclic:3", "symmetric:3", "dihedral:4", "quaternion8"]
)
def test_y_membership_matches_two_way_interdefinability(group, cover):
    # compute_Y keeps an orbit member g when g is fixed over base + f, one
    # direction of interdefinability; the Y-set must be the one that checks
    # both, for the default (full) and the raw reference of every pair
    from groupoidlab import Element, group_from_spec, interdefinable, object_closure, orbit_of

    gpd = build_standard_groupoid(group_from_spec(group), 3)
    s = encode_double_cover(gpd) if cover else encode_groupoid(gpd)
    for a in range(3):
        for b in range(3):
            if a == b:
                continue
            base = object_closure(s, a)
            raw = (Element("M", min(morphisms_between(s, a, b))),)
            for f in (x_tuples(s, a, b)[0], raw):
                expected = tuple(
                    g for g in orbit_of(s, base, f)
                    if g == f or interdefinable(s, base, f, g)
                )
                assert compute_Y(s, a, b, f=f).members == expected, (a, b, f)


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


def _searched_pair(s, a, b):
    """Y(a, b), F(a, b) and G(a, b) as the search builds them at the pair."""
    from groupoidlab import pair_base
    from groupoidlab.automorphisms import _restricted

    y = compute_Y(s, a, b)
    f = _restricted(s, y.base, y.members, False, y.reference)
    g = _restricted(s, pair_base(s, a, b), y.members, True, y.reference)
    return y, f, g


def _check_against_search(s, ys):
    """Every ordered pair's Y-set, F-group and G-subgroup against the search
    at that pair; the pairs whose psi was accepted."""
    n = s.sort_size("O")
    translated = set()
    for a in range(n):
        for b in range(n):
            if a == b:
                continue
            y, f, g = _searched_pair(s, a, b)
            assert ys.y_set(a, b) == y, (a, b)
            _check_restriction(s, ys.f_group(a, b), f)
            _check_restriction(s, ys.g_subgroup(a, b), g)
            if ys.translation(a, b) is not None:
                translated.add((a, b))
    return translated


def _all_pairs(n):
    return {(a, b) for a in range(n) for b in range(n) if a != b}


@pytest.mark.parametrize(
    "group,objects,cover",
    [(group, 3, cover) for group in ("cyclic:2", "symmetric:3", "dihedral:4", "quaternion8")
     for cover in (False, True)] + [("cyclic:2", 4, True)],
    ids=lambda v: str(v),
)
def test_translated_pairs_match_the_search(group, objects, cover):
    # the Y-set system searches the reference pair only and translates every
    # other pair through psi_ab: members, reference, base, carrier, perms and
    # group must be the search's at that pair, each rep an automorphism that
    # fixes the base and restricts to its perm
    from groupoidlab import group_from_spec

    gpd = build_standard_groupoid(group_from_spec(group), objects)
    s = encode_double_cover(gpd) if cover else encode_groupoid(gpd)
    ys = YSystem(s)
    assert _check_against_search(s, ys) == _all_pairs(objects) - {ys.ref_pair}


@pytest.mark.parametrize(
    "group,objects", [("cyclic:2", 4), ("quaternion8", 3)], ids=["z2-cover-4", "q8-cover-3"]
)
def test_translated_pairs_match_the_search_after_relabelling(group, objects):
    # the references come from the numbering, x_tuples(s, a, b)[0], so a
    # relabelled structure translates through other automorphisms; on Q8
    # some psi_ab sends the members of Y(0, 1) out of their sorted order,
    # which the standard numbering never does
    from groupoidlab import group_from_spec

    s = encode_double_cover(build_standard_groupoid(group_from_spec(group), objects))
    r, _ = _relabelled(s, seed=20150)
    ys = YSystem(r)
    assert _check_against_search(r, ys) == _all_pairs(objects) - {ys.ref_pair}


def _spy_searches(monkeypatch):
    """Record the pairs the Y-set system's compute_Y searches and the pinned
    set of every _restricted search it runs; the oracle, which imports
    them elsewhere, is not recorded."""
    from groupoidlab import witness

    searched, restricted = [], []
    compute, restrict = witness.compute_Y, witness._restricted

    def spy_compute(s, a, b, *args, **kwargs):
        searched.append((a, b))
        return compute(s, a, b, *args, **kwargs)

    def spy_restrict(s, base, *args, **kwargs):
        restricted.append(s.search_space.pinned(base))
        return restrict(s, base, *args, **kwargs)

    monkeypatch.setattr(witness, "compute_Y", spy_compute)
    monkeypatch.setattr(witness, "_restricted", spy_restrict)
    return searched, restricted


def test_pairs_without_a_psi_are_searched(monkeypatch):
    # a constant pins object 2, so no automorphism sends 0 or 1 to it: the
    # pairs through 2 have no psi and each of the three builders searches
    from dataclasses import replace

    from groupoidlab import object_closure, pair_base
    from groupoidlab.structures import Constant

    plain = encode_double_cover(build_standard_groupoid(cyclic_group(2), 4))
    s = replace(plain, constants=(Constant("mark", "O", 2),))
    searched, restricted = _spy_searches(monkeypatch)
    ys = YSystem(s)
    translated = _check_against_search(s, ys)
    through_2 = {p for p in _all_pairs(4) if 2 in p}
    assert translated == _all_pairs(4) - through_2 - {ys.ref_pair}
    assert sorted(searched) == sorted(through_2 | {ys.ref_pair})
    pinned = s.search_space.pinned
    for a, b in through_2:
        assert pinned(object_closure(s, a)) in restricted
        assert pinned(pair_base(s, a, b)) in restricted


@pytest.mark.parametrize("broken", ["identity", "not-an-automorphism"])
def test_rejected_psi_falls_back_to_the_search(broken, monkeypatch):
    # a psi that fails the setwise base checks (the identity), or one that
    # is no automorphism although it maps the bases onto each other (the
    # real psi with the images of two morphisms 0 -> 1 swapped), is not
    # accepted: every pair but the reference pair is searched
    from groupoidlab import Automorphism, Element, witness

    s = encode_double_cover(build_standard_groupoid(cyclic_group(2), 4))
    real = witness.find_automorphism
    m1, m2 = (s.search_space.point(Element("M", m)) for m in morphisms_between(s, 0, 1))

    def bad_psi(structure, constraints):
        psi = real(structure, constraints)
        if broken == "identity":
            return Automorphism(tuple(range(structure.carrier_size)), structure)
        images = list(psi.images)
        images[m1], images[m2] = images[m2], images[m1]
        return Automorphism(tuple(images), structure)

    monkeypatch.setattr(witness, "find_automorphism", bad_psi)
    searched, _ = _spy_searches(monkeypatch)
    ys = YSystem(s)
    assert _check_against_search(s, ys) == set()
    assert sorted(searched) == sorted(_all_pairs(4))


def test_pair_raises_its_own_error_when_the_reference_pair_raises(monkeypatch):
    # G(0, 1) fails here, so no pair is read off it: the others are searched
    # and raise, or not, for themselves
    from groupoidlab import NotInvariant, pair_base, witness

    s = encode_double_cover(build_standard_groupoid(cyclic_group(2), 4))
    restrict, failing = witness._restricted, s.search_space.pinned(pair_base(s, 0, 1))

    def failing_at_the_reference(structure, base, tuples, invariant, lead=None):
        if structure.search_space.pinned(base) == failing:
            raise NotInvariant(None, lead)
        return restrict(structure, base, tuples, invariant, lead)

    monkeypatch.setattr(witness, "_restricted", failing_at_the_reference)
    ys = YSystem(s)
    with pytest.raises(NotInvariant):
        ys.g_subgroup(0, 1)
    _, _, g = _searched_pair(s, 1, 2)
    _check_restriction(s, ys.g_subgroup(1, 2), g)
    assert ys.translation(1, 2) is not None


def test_y_system_searches_only_the_reference_pair(monkeypatch):
    # building every pair's Y-set, F-group and G-subgroup runs compute_Y once,
    # at the reference pair, and no lead search over another pair's source
    # closure or pair base
    from groupoidlab import automorphisms, object_closure, pair_base

    s = encode_double_cover(build_standard_groupoid(cyclic_group(2), 4))
    space = s.search_space
    searched, _ = _spy_searches(monkeypatch)
    solutions, lead_pinned = automorphisms._solutions, []

    def spy(structure, base, constraints=None, lead=()):
        if lead:
            lead_pinned.append(space.pinned(base))
        return solutions(structure, base, constraints, lead=lead)

    monkeypatch.setattr(automorphisms, "_solutions", spy)
    ys = YSystem(s)
    for a, b in sorted(_all_pairs(4)):
        ys.y_set(a, b), ys.f_group(a, b), ys.g_subgroup(a, b)
    assert searched == [ys.ref_pair]
    reference = {space.pinned(object_closure(s, 0)), space.pinned(pair_base(s, 0, 1))}
    others = {space.pinned(object_closure(s, a)) for a in range(4)}
    others |= {space.pinned(pair_base(s, a, b)) for a, b in _all_pairs(4)}
    assert lead_pinned and not (set(lead_pinned) & (others - reference))
