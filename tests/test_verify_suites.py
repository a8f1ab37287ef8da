import functools
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import _relabelled
from groupoidlab import (
    Element,
    InvalidInput,
    build_standard_groupoid,
    check_witness,
    cyclic_group,
    encode_double_cover,
    encode_groupoid,
    is_automorphism,
    standard_witness,
    symmetric_group,
    verify_section2,
    verify_section3,
    vertex_morphisms,
)


def test_section2_claims_hold_up_to_five_objects():
    z2 = cyclic_group(2)
    for n in (4, 5):
        s = encode_groupoid(build_standard_groupoid(z2, n))
        rep = verify_section2(s, z2)
        assert rep.passed, rep.render_text()


def test_section2_fails_against_wrong_expected_group():
    # negative control: the claims are not vacuous
    s3 = symmetric_group(3)
    z6 = cyclic_group(6)
    s = encode_groupoid(build_standard_groupoid(s3, 2))
    rep = verify_section2(s, z6)
    status = {e.claim_id: e.status for e in rep.entries}
    assert status["morphism-group-is-g"] == "fail"


def test_section2_rejects_cover_structures():
    z2 = cyclic_group(2)
    s = encode_double_cover(build_standard_groupoid(z2, 3))
    with pytest.raises(InvalidInput):
        verify_section2(s, z2)


def test_section3_report_lists_every_claim_once():
    z2 = cyclic_group(2)
    s = encode_double_cover(build_standard_groupoid(z2, 4))
    rep = verify_section3(s)
    ids = [e.claim_id for e in rep.entries]
    assert len(ids) == len(set(ids))
    assert rep.passed


def test_irregular_f_group_fails_f_action_regular(monkeypatch):
    # only F-groups over the closure of object 0 act regularly, so the
    # reference pair (0, 1) builds and the first pair from object 1 raises
    # RegularityFailure inside the claim
    from groupoidlab import object_closure
    from groupoidlab.automorphisms import RestrictedAutGroup

    s = encode_double_cover(build_standard_groupoid(cyclic_group(2), 3))
    closure_0 = tuple(sorted(object_closure(s, 0)))
    is_regular = RestrictedAutGroup.is_regular
    monkeypatch.setattr(
        RestrictedAutGroup, "is_regular",
        lambda rg: rg.base == closure_0 and is_regular(rg),
    )
    entry = next(e for e in verify_section3(s).entries if e.claim_id == "f-action-regular")
    assert entry.status == "fail"
    assert entry.witness.startswith("RegularityFailure: group action is not regular: (1, 0,")


def test_witness_report_is_stable_under_repetition():
    z2 = cyclic_group(2)
    s = encode_double_cover(build_standard_groupoid(z2, 3))
    w = standard_witness(s)
    first = [(e.claim_id, e.status) for e in check_witness(w).entries]
    second = [(e.claim_id, e.status) for e in check_witness(w).entries]
    assert first == second


def test_section3_needs_three_objects():
    s = encode_groupoid(build_standard_groupoid(cyclic_group(2), 2))
    with pytest.raises(InvalidInput, match="witness needs at least three objects"):
        verify_section3(s)


def test_fgroupoid_reuses_the_y_sets_of_section3(monkeypatch):
    # both suites read the structure's one Y-set system, so after section3
    # the fgroupoid suite computes no Y-set of its own
    from groupoidlab import witness
    from groupoidlab.suite_fgroupoid import verify_fgroupoid

    s = encode_double_cover(build_standard_groupoid(cyclic_group(2), 4))
    assert verify_section3(s).passed
    calls = []
    compute_Y = witness.compute_Y

    def counted(*args, **kwargs):
        calls.append(args[1:3])
        return compute_Y(*args, **kwargs)

    monkeypatch.setattr(witness, "compute_Y", counted)
    rep = verify_fgroupoid(s)
    assert rep.passed, rep.render_text()
    assert calls == []


@pytest.mark.parametrize("group", ["dihedral:4", "quaternion8"])
def test_fgroupoid_lists_every_claim_when_the_quotient_fails(group):
    # a quotient that cannot be built fails quotient-valid and, with its
    # witness, every claim that reads it; the path claims run on their own.
    # The report lists the same eight claims as an abelian run.
    from groupoidlab import group_from_spec
    from groupoidlab.suite_fgroupoid import verify_fgroupoid

    abelian = verify_fgroupoid(encode_groupoid(build_standard_groupoid(cyclic_group(2), 4)))
    assert abelian.passed
    s = encode_groupoid(build_standard_groupoid(group_from_spec(group), 4))
    rep = verify_fgroupoid(s)
    assert [e.claim_id for e in rep.entries] == [e.claim_id for e in abelian.entries]
    witness = {e.claim_id: e.witness for e in rep.entries}
    assert witness["quotient-valid"].startswith("NonAbelianVertex")
    for claim in ("vertex-is-f-group", "injection-preserves-composition", "classes-match-y"):
        assert witness[claim] == witness["quotient-valid"], claim


def _count_compute_Y(monkeypatch, calls):
    # compute_Y is imported by name into the modules that call it
    from groupoidlab import limits, suite_section3, witness

    compute_Y = witness.compute_Y

    def counted(*args, **kwargs):
        calls.append(kwargs.get("f"))
        return compute_Y(*args, **kwargs)

    for module in (witness, suite_section3, limits):
        monkeypatch.setattr(module, "compute_Y", counted)


def test_section3_reference_independence_skips_the_default_reference(monkeypatch):
    from groupoidlab import x_tuples

    s = encode_double_cover(build_standard_groupoid(cyclic_group(2), 4))
    calls = []
    _count_compute_Y(monkeypatch, calls)
    assert verify_section3(s).passed
    default, *others = x_tuples(s, 0, 1)
    assert default not in calls
    assert [f for f in calls if f is not None] == others


def test_limits_builds_one_restriction_epimorphism(monkeypatch):
    # the restriction-epimorphism claim and the tower's two-stage limit share
    # one epimorphism, built from the structure's Y-sets Y(0, 1) and raw Y(0, 1)
    from groupoidlab import limits
    from groupoidlab.suite_limits import verify_limits

    s = encode_double_cover(build_standard_groupoid(cyclic_group(2), 4))
    calls, built = [], []
    _count_compute_Y(monkeypatch, calls)
    epimorphism = limits._epimorphism

    def counted(*args):
        built.append(args[1])
        return epimorphism(*args)

    monkeypatch.setattr(limits, "_epimorphism", counted)
    rep = verify_limits(s)
    assert rep.passed, rep.render_text()
    assert len(built) == 1
    assert len(calls) == 2


def test_limits_epimorphism_failure_lands_in_each_claim(monkeypatch):
    from groupoidlab import NotWellDefined, limits
    from groupoidlab.suite_limits import verify_limits

    def broken(*args):
        raise NotWellDefined(("not a homomorphism", 0, 1))

    monkeypatch.setattr(limits, "_epimorphism", broken)
    s = encode_double_cover(build_standard_groupoid(cyclic_group(2), 4))
    status = {e.claim_id: (e.status, e.witness) for e in verify_limits(s).entries}
    for claim in ("restriction-epimorphism", "instance.two-stage-limit"):
        assert status[claim][0] == "fail"
        assert status[claim][1].startswith("NotWellDefined")
    assert status["instance.tower-containment"][0] == "pass"


def test_run_suites_rejects_an_unknown_suite():
    # a library caller gets an input error naming the known suites, not a
    # KeyError; the CLI reports it the same way
    from groupoidlab.verify import run_suites

    s = encode_groupoid(build_standard_groupoid(cyclic_group(2), 3))
    with pytest.raises(InvalidInput, match="section2, section3, witness, fgroupoid, limits or all"):
        run_suites(s, cyclic_group(2), "bogus", "")


def _all_statuses(s, g):
    from groupoidlab.verify import run_suites

    return [(e.claim_id, e.status) for e in run_suites(s, g, "all", "").entries]


@functools.cache
def _standard_statuses(group, objects, cover):
    # the structure and the claim statuses of --suite all on it, per instance
    from groupoidlab import group_from_spec

    g = group_from_spec(group)
    gpd = build_standard_groupoid(g, objects)
    s = encode_double_cover(gpd) if cover else encode_groupoid(gpd)
    return s, g, _all_statuses(s, g)


@pytest.mark.parametrize("seed", [20150, 7])
@pytest.mark.parametrize(
    "group,objects,cover",
    [("cyclic:2", 4, True), ("quaternion8", 3, True), ("symmetric:3", 4, False)],
    ids=["z2-cover-4", "q8-cover-3", "s3-plain-4"],
)
def test_claim_statuses_do_not_depend_on_the_numbering(group, objects, cover, seed):
    # references come from the numbering (min(morphisms_between),
    # x_tuples(...)[0]), so a relabelled structure translates and transports
    # through other automorphisms; every claim's status must stay the same
    s, g, statuses = _standard_statuses(group, objects, cover)
    r, obj = _relabelled(s, seed)
    assert obj != sorted(obj)
    assert _all_statuses(r, g) == statuses


def _enumerated_uniform_action(s):
    """uniform-action read off the enumerated group over every object
    closure, member by member."""
    from groupoidlab import automorphism_group, morphisms_between, object_closure
    from groupoidlab.structures import objects_of, vertex_morphisms

    gpd = s.y_system.gpd
    others = [u for u in objects_of(s) if u != 0]
    gs = {u: min(morphisms_between(s, 0, u)) for u in others}
    hs = {u: min(morphisms_between(s, u, 0)) for u in others}
    base = tuple(e for u in objects_of(s) for e in object_closure(s, u))
    group = automorphism_group(s, base)
    off = s.search_space.offsets["M"]
    for sigma in vertex_morphisms(s, 0):
        want_g = {u: gpd.compose(sigma, gs[u]) for u in others}
        if not any(
            all(aut.images[off + gs[u]] == off + want_g[u] for u in others)
            for aut in group.members
        ):
            return {"sigma": sigma, "direction": "out"}
        want_h = {u: gpd.compose(hs[u], sigma) for u in others}
        if not any(
            all(aut.images[off + hs[u]] == off + want_h[u] for u in others)
            for aut in group.members
        ):
            return {"sigma": sigma, "direction": "in"}
    return None


def _orbit_uniform_action(s):
    """uniform-action read off one lead search over every object closure:
    the orbit of the designated morphisms out of and into 0, projected per
    direction."""
    from groupoidlab import Element, morphisms_between, object_closure, orbit_of
    from groupoidlab.structures import objects_of, vertex_morphisms

    gpd = s.y_system.gpd
    others = [u for u in objects_of(s) if u != 0]
    gs = [min(morphisms_between(s, 0, u)) for u in others]
    hs = [min(morphisms_between(s, u, 0)) for u in others]
    base = tuple(e for u in objects_of(s) for e in object_closure(s, u))
    orbit = orbit_of(s, base, tuple(Element("M", m) for m in gs + hs))
    outs = {t[:len(gs)] for t in orbit}
    ins = {t[len(gs):] for t in orbit}
    for sigma in vertex_morphisms(s, 0):
        if tuple(Element("M", gpd.compose(sigma, g)) for g in gs) not in outs:
            return {"sigma": sigma, "direction": "out"}
        if tuple(Element("M", gpd.compose(h, sigma)) for h in hs) not in ins:
            return {"sigma": sigma, "direction": "in"}
    return None


def _orbit_type_equivalence(w):
    """type-equivalence read off the empty-base orbit of f01."""
    from groupoidlab import orbit_of

    orbit = set(orbit_of(w.structure, (), w.f01))
    for name, f in (("f12", w.f12), ("f02", w.f02)):
        if f not in orbit:
            return f"{name} not in the empty-base orbit of f01"
    return None


def _enumerated_composites(s):
    """composite-membership read off Aut(s/pair_closure(c, a)), enumerated
    at every pair: each member is filed by its image of the reference, and
    every mover of f is checked to send t0 to the composite the claim reads
    off f."""
    from groupoidlab import Element, automorphism_group, morphisms_between, object_tuple
    from groupoidlab.structures import objects_of, pair_closure
    from groupoidlab.witness import raw_morphism

    ys = s.y_system
    gpd = ys.gpd
    for c, a, b in itertools.permutations(objects_of(s), 3):
        members = automorphism_group(s, pair_closure(s, c, a)).members
        ref = ys.y_set(a, b).reference
        cells = {}
        for m in members:
            cells.setdefault(m.apply_tuple(ref), []).append(m)
        y_cb = set(ys.y_set(c, b).members)
        for g_raw in morphisms_between(s, c, a):
            t0 = object_tuple(s, c) + object_tuple(s, b) + (
                Element("M", gpd.compose(g_raw, raw_morphism(ref))),
            )
            for f in ys.y_set(a, b).members:
                movers = cells.get(f)
                if not movers:
                    return {"triple": (c, a, b), "f": f, "problem": "no mover"}
                h = object_tuple(s, c) + f[len(object_tuple(s, a)):-1] + (
                    Element("M", gpd.compose(g_raw, raw_morphism(f))),
                )
                assert {m.apply_tuple(t0) for m in movers} == {h}, ((c, a, b), f)
                if h not in y_cb:
                    return {"triple": (c, a, b), "f": f, "problem": "composite leaves Y"}
    return None


ORBIT_CLAIM_CASES = [
    ("cyclic:2", 4, True, None, None),
    ("cyclic:3", 4, False, None, None),
    ("symmetric:3", 3, False, None, None),
    ("quaternion8", 3, True, None, None),
    ("cyclic:2", 4, True, 20150, None),
    ("cyclic:2", 4, True, 7, None),
    ("cyclic:2", 3, False, None, ("M", 5)),
    ("cyclic:2", 4, True, None, ("O", 2)),
    ("cyclic:2", 3, False, None, None),
    ("cyclic:2", 5, False, None, None),
    ("dihedral:4", 3, False, None, None),
    ("product:cyclic:2,cyclic:2", 3, False, None, None),
    # type-equivalence fails: the constant on morphism 10 = min Mor(1, 2)
    # pins f12, and the one on object 2 pins f12 and f02
    ("cyclic:2", 3, False, None, ("M", 10)),
    ("cyclic:2", 3, True, None, ("M", 10)),
    ("cyclic:3", 3, False, None, ("O", 2)),
]


def _orbit_claim_case_id(case):
    group, objects, cover, seed, constant = case
    parts = [group, f"n{objects}", "cover" if cover else "plain"]
    if seed is not None:
        parts.append(f"relabelled-{seed}")
    if constant is not None:
        parts.append("constant-{}{}".format(*constant))
    return "-".join(parts)


@pytest.mark.parametrize("case", ORBIT_CLAIM_CASES, ids=_orbit_claim_case_id)
def test_orbit_claims_match_enumeration(case):
    # composite-membership reads one lead search per question, and
    # uniform-action and type-equivalence one constrained search per
    # existence question; the enumerated groups and the orbits they stand
    # for give the same witness, failing ones included (the non-abelian
    # vertex groups and the constants)
    from dataclasses import replace

    from groupoidlab import group_from_spec
    from groupoidlab.structures import Constant

    group, objects, cover, seed, constant = case
    gpd = build_standard_groupoid(group_from_spec(group), objects)
    s = encode_double_cover(gpd) if cover else encode_groupoid(gpd)
    if constant is not None:
        s = replace(s, constants=(Constant("mark", *constant),))
    if seed is not None:
        s, _ = _relabelled(s, seed)
    witness = {e.claim_id: e.witness for e in verify_section3(s).entries}
    uniform = witness["uniform-action"]
    assert uniform == _enumerated_uniform_action(s) == _orbit_uniform_action(s)
    assert witness["composite-membership"] == _enumerated_composites(s)
    w = standard_witness(s)
    typed = {e.claim_id: e.witness for e in check_witness(w).entries}
    assert typed["type-equivalence"] == _orbit_type_equivalence(w)


def _walked_choice_family(s, a, base):
    """Every choice-family map at a, family by family in product order: the
    first family whose map is not in Aut(s/base), with its problem, and the
    distinct maps that are."""
    from groupoidlab.structures import objects_of, vertex_morphisms
    from groupoidlab.suite_section2 import choice_family_map

    first, members = None, set()
    base_points = [s.search_space.point(e) for e in base]
    other = [u for u in objects_of(s) if u != a]
    for choice in itertools.product(*(vertex_morphisms(s, u) for u in other)):
        family = dict(zip(other, choice))
        aut = choice_family_map(s, a, family)
        if not is_automorphism(s, aut):
            problem = "not an automorphism"
        elif any(aut.images[p] != p for p in base_points):
            problem = "not in the stabilizer"
        else:
            members.add(aut)
            continue
        if first is None:
            first = {"family": family, "problem": problem}
    return first, frozenset(members)


# (group, objects, constant, whether the cell product is the stabiliser's
# order, relabelling seed): a constant on morphism 5 pins the lead's
# morphism 0 -> 2, and one on morphism 10 (1 -> 2) ties the lead's two
# images together, which the stable partition does not see.  Relabelled by
# seed 7, the constant sits on morphism 9, now a morphism 0 -> 1 off the
# lead, and the cell product is the order again; there an identity is not
# the least morphism of its vertex group, and the failing generator
# {1: 12, 2: 17} is not the walk's first failure {1: 12, 2: 15}
STABILIZER_CASES = [
    *(("cyclic:2", n, None, True, None) for n in (2, 3, 4, 5)),
    *(
        (group, n, None, True, None)
        for group in ("symmetric:3", "dihedral:4", "quaternion8", "product:cyclic:2,cyclic:2")
        for n in (2, 3)
    ),
    ("cyclic:2", 3, ("M", 5), True, None),
    ("cyclic:2", 3, ("M", 10), False, None),
    ("dihedral:4", 3, None, True, 20150),
    ("cyclic:2", 3, ("M", 10), True, 7),
]


def _standard_section2(group, objects, constant=None, seed=None):
    """The plain standard groupoid of a spec group, with an optional constant
    on one point, relabelled by an optional seed, and its group."""
    from dataclasses import replace

    from groupoidlab import group_from_spec
    from groupoidlab.structures import Constant

    g = group_from_spec(group)
    s = encode_groupoid(build_standard_groupoid(g, objects))
    if constant is not None:
        s = replace(s, constants=(Constant("mark", *constant),))
    if seed is not None:
        s, _ = _relabelled(s, seed)
    return s, g


def _stabiliser_base(s):
    """Section2's base: every object and the vertex group at 0."""
    from groupoidlab.structures import objects_of

    return tuple(Element("O", o) for o in objects_of(s)) + tuple(
        Element("M", m) for m in vertex_morphisms(s, 0)
    )


def _assert_generator_rule(s, failed, first, stabiliser):
    """The failing generator against the walk's first failure: the same
    family when every identity is the least morphism of its vertex group,
    otherwise a failing single-coordinate family, one exactly when the walk
    fails."""
    from groupoidlab.structures import decode_groupoid, objects_of
    from groupoidlab.suite_section2 import choice_family_map

    identities = {u: decode_groupoid(s).identities[u] for u in objects_of(s) if u != 0}
    if all(x == min(vertex_morphisms(s, u)) for u, x in identities.items()):
        assert failed == first
        return
    assert (failed is None) == (first is None)
    if failed is not None:
        family = failed["family"]
        assert sum(family[u] != x for u, x in identities.items()) == 1
        assert choice_family_map(s, 0, family) not in stabiliser


@pytest.mark.parametrize(
    "group,objects,constant,exact,seed",
    STABILIZER_CASES,
    ids=[
        f"{g}-n{n}" + ("-constant-{}{}".format(*c) if c else "")
        + (f"-relabelled-{seed}" if seed is not None else "")
        for g, n, c, _, seed in STABILIZER_CASES
    ],
)
def test_stabilizer_certificate_matches_enumeration(
    group, objects, constant, exact, seed, monkeypatch
):
    # section2 checks the choice-family maps on their single-coordinate
    # generators and reads the stabiliser of all objects and the vertex
    # group at 0 off an orbit-stabiliser certificate; the walk and the
    # enumerated stabiliser are the oracles
    from groupoidlab import automorphism_group, suite_section2

    s, g = _standard_section2(group, objects, constant, seed)
    certify, certificates = suite_section2.orbit_certificate, []

    def spy(structure, base, lead):
        certificates.append((base, certify(structure, base, lead)))
        return certificates[-1][1]

    monkeypatch.setattr(suite_section2, "orbit_certificate", spy)
    entries = {e.claim_id: e for e in verify_section2(s, g).entries}
    [(base, (cell_product, alone))] = certificates
    oracle = automorphism_group(s, base)
    assert alone
    assert cell_product >= oracle.order
    assert (cell_product == oracle.order) == exact
    expect = g.order ** (objects - 1)
    order_entry = entries["stabilizer-order"]
    order = expect if order_entry.status == "pass" else order_entry.witness["order"]
    assert order == oracle.order
    # the walk's first failing family and the members it finds, which
    # realise the whole stabiliser
    first, members = _walked_choice_family(s, 0, base)
    assert members == set(oracle.members)
    failed = suite_section2._failing_generator(s, 0, base)
    _assert_generator_rule(s, failed, first, members)
    maps = entries["choice-family-maps"]
    assert maps.witness == (failed or (
        None if len(members) == expect else {"distinct_maps": len(members)}
    ))


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(
    group=st.sampled_from(("cyclic:2", "cyclic:3", "symmetric:3", "product:cyclic:2,cyclic:2")),
    objects=st.integers(2, 3),
    seed=st.none() | st.integers(0, 2**16),
    data=st.data(),
)
def test_failing_generator_on_drawn_instances(group, objects, seed, data):
    # a drawn standard groupoid with an optional constant on a morphism and
    # an optional relabelling: the generator rule against the walk, and the
    # stabiliser-order status against the enumerated stabiliser
    from groupoidlab import automorphism_group, suite_section2

    s, g = _standard_section2(group, objects)
    mark = data.draw(st.none() | st.integers(0, s.sort_size("M") - 1))
    if mark is not None or seed is not None:
        s, g = _standard_section2(group, objects, None if mark is None else ("M", mark), seed)
    entries = {e.claim_id: e for e in verify_section2(s, g).entries}
    base = _stabiliser_base(s)
    oracle = automorphism_group(s, base)
    first, members = _walked_choice_family(s, 0, base)
    _assert_generator_rule(s, suite_section2._failing_generator(s, 0, base), first, members)
    order_entry = entries["stabilizer-order"]
    assert (order_entry.status == "pass") == (oracle.order == g.order ** (objects - 1))


def _counted_is_automorphism(monkeypatch):
    """The list that section2's is_automorphism calls are appended to."""
    from groupoidlab import suite_section2

    check, calls = suite_section2.is_automorphism, []

    def spy(structure, aut):
        calls.append(aut)
        return check(structure, aut)

    monkeypatch.setattr(suite_section2, "is_automorphism", spy)
    return calls


def _counted_section2(s, g, monkeypatch):
    """verify_section2's report and its is_automorphism calls."""
    calls = _counted_is_automorphism(monkeypatch)
    return verify_section2(s, g), len(calls)


def test_section2_checks_only_the_single_coordinate_families(monkeypatch):
    # when the (n-1)(|G|-1) maps of the non-identity single-coordinate
    # families pass, they generate every choice-family map: 21 checks on D4
    # n=4, where the product walk made 8^3 = 512
    from groupoidlab import group_from_spec

    g = group_from_spec("dihedral:4")
    report, calls = _counted_section2(encode_groupoid(build_standard_groupoid(g, 4)), g, monkeypatch)
    assert report.passed, report.render_text()
    assert calls == 3 * 7


def test_section2_stops_at_the_first_failing_generator(monkeypatch):
    # the constant on morphism 10 (1 -> 2): the first generator, the
    # non-identity at object 2, moves it, and is the witness the product
    # walk reports too
    s, g = _standard_section2("cyclic:2", 3, ("M", 10))
    report, calls = _counted_section2(s, g, monkeypatch)
    witness = {e.claim_id: e.witness for e in report.entries}
    assert witness["choice-family-maps"] == {
        "family": {1: 8, 2: 17}, "problem": "not an automorphism",
    }
    assert calls == 1


def test_failing_generator_on_dihedral4_five_objects(monkeypatch):
    # a constant on min Mor(1, 2) = 56: the 7 generators at each of objects
    # 4 and 3 pass and the first at object 2 fails, where the product walk
    # made 8^4 = 4096 checks for the same witness
    from groupoidlab import suite_section2
    from groupoidlab.structures import morphisms_between

    s, _ = _standard_section2("dihedral:4", 5, ("M", 56))
    assert min(morphisms_between(s, 1, 2)) == 56
    base = _stabiliser_base(s)
    calls = _counted_is_automorphism(monkeypatch)
    failed = suite_section2._failing_generator(s, 0, base)
    assert len(calls) == 7 + 7 + 1
    assert failed == _walked_choice_family(s, 0, base)[0]


def test_section2_holds_on_dihedral4_six_objects():
    # the largest plain D4 instance the CLI accepts: 5 * 8 single-coordinate
    # checks in place of 8^5 maps
    from groupoidlab import group_from_spec

    g = group_from_spec("dihedral:4")
    report = verify_section2(encode_groupoid(build_standard_groupoid(g, 6)), g)
    assert report.passed, report.render_text()
