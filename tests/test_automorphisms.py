import functools
import itertools
import random
from operator import itemgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import _relabelled

from groupoidlab import (
    Automorphism,
    BudgetExceeded,
    Element,
    InvalidInput,
    NotInvariant,
    automorphism_group,
    build_standard_groupoid,
    center,
    cyclic_group,
    dcl_of,
    dihedral_group,
    encode_double_cover,
    encode_groupoid,
    interdefinable,
    is_automorphism,
    isomorphism_search,
    morphism_tuple,
    morphisms_between,
    object_closure,
    orbit_of,
    pair_base,
    restricted_group,
    setwise_restricted_group,
    symmetric_group,
    vertex_morphisms,
)
from groupoidlab.automorphisms import carries, find_automorphism


def plain(group, n):
    return encode_groupoid(build_standard_groupoid(group, n))


def all_elements(s):
    return tuple(Element(name, i) for name, size in s.sorts for i in range(size))


def objects_and_vertex(s, a):
    return tuple(Element("O", o) for o in range(s.sort_size("O"))) + tuple(
        Element("M", m) for m in vertex_morphisms(s, a)
    )


def test_full_base_gives_trivial_group():
    s = plain(cyclic_group(2), 2)
    assert automorphism_group(s, all_elements(s)).order == 1


def test_stabilizer_counts_match_gauge_freedom():
    s = plain(cyclic_group(2), 3)
    assert automorphism_group(s, objects_and_vertex(s, 0)).order == 4
    s3 = plain(symmetric_group(3), 3)
    assert automorphism_group(s3, objects_and_vertex(s3, 0)).order == 36


def test_members_validate_and_compose():
    s = plain(cyclic_group(2), 2)
    group = automorphism_group(s)
    for aut in group.members:
        assert is_automorphism(s, aut)
        assert is_automorphism(s, aut.inverse())
    members = set(group.members)
    for a in group.members:
        for b in group.members:
            assert a.compose(b) in members


def test_member_order_deterministic():
    s = plain(cyclic_group(2), 3)
    g1 = automorphism_group(s)
    s2 = plain(cyclic_group(2), 3)
    g2 = automorphism_group(s2)
    points = all_elements(s)
    assert [a.apply_tuple(points) for a in g1.members] == [
        a.apply_tuple(points) for a in g2.members
    ]


def test_orbit_examples():
    s = plain(cyclic_group(2), 2)
    pb = pair_base(s, 0, 1)
    f = Element("M", morphisms_between(s, 0, 1)[0])
    assert orbit_of(s, pb, (f,)) != ()
    assert len(orbit_of(s, pb, (f,))) == 2  # |Z(Z/2)|
    assert orbit_of(s, pb + (f,), (f,)) == ((f,),)

    s3 = plain(symmetric_group(3), 2)
    f3 = Element("M", morphisms_between(s3, 0, 1)[0])
    assert len(orbit_of(s3, pair_base(s3, 0, 1), (f3,))) == 1  # |Z(S3)|


def test_orbits_partition():
    s = plain(cyclic_group(2), 2)
    pb = pair_base(s, 0, 1)
    singles = [(Element("M", m),) for m in range(s.sort_size("M"))]
    orbits = {orbit_of(s, pb, t) for t in singles}
    seen = [t for orb in orbits for t in orb]
    assert len(seen) == len(set(seen))


def test_dcl_examples():
    s = plain(cyclic_group(2), 3)
    assert dcl_of(s, ()) == ()
    assert set(dcl_of(s, all_elements(s))) == set(all_elements(s))
    f = morphisms_between(s, 0, 1)[0]
    fixed = set(dcl_of(s, (Element("M", f),)))
    assert Element("O", 0) in fixed and Element("O", 1) in fixed
    for m in morphisms_between(s, 0, 1):
        assert Element("M", m) in fixed
    # identity morphisms are fixed by everything that fixes f
    for a in range(3):
        assert any(Element("M", m) in fixed for m in vertex_morphisms(s, a))


def test_dcl_is_a_closure_operator():
    s = plain(cyclic_group(2), 2)
    base = object_closure(s, 0)
    fixed = dcl_of(s, base)
    assert set(base) <= set(fixed)  # extensive
    assert set(dcl_of(s, fixed)) == set(fixed)  # idempotent
    bigger = dcl_of(s, base + (Element("M", morphisms_between(s, 0, 1)[0]),))
    assert set(fixed) <= set(bigger)  # monotone


def test_interdefinable_examples():
    s = plain(cyclic_group(2), 2)
    base = object_closure(s, 0)
    f, g = (Element("M", m) for m in morphisms_between(s, 0, 1))
    assert interdefinable(s, base, (f,), (f,))
    assert interdefinable(s, base, (f,), (g,))

    s3 = plain(cyclic_group(2), 3)
    base3 = object_closure(s3, 0)
    f3 = Element("M", morphisms_between(s3, 0, 1)[0])
    g3 = Element("M", morphisms_between(s3, 0, 2)[0])
    assert not interdefinable(s3, base3, (f3,), (g3,))


def test_restricted_group_examples():
    s = plain(cyclic_group(2), 2)
    base = object_closure(s, 0)
    in_base = tuple((e,) for e in base)
    assert restricted_group(s, base, in_base).order == 1

    mor = tuple((Element("M", m),) for m in morphisms_between(s, 0, 1))
    rg = setwise_restricted_group(s, base, mor)
    assert rg.order == 2 and rg.is_regular()

    d4 = plain(dihedral_group(4), 2)
    pb = pair_base(d4, 0, 1)
    f = Element("M", morphisms_between(d4, 0, 1)[0])
    x_set = orbit_of(d4, pb, (f,))
    rg4 = restricted_group(d4, pb, x_set)
    z = center(dihedral_group(4)).as_group()
    assert rg4.order == 2
    assert isomorphism_search(rg4.group, z) is not None


def test_restricted_order_divides_ambient():
    s = plain(cyclic_group(2), 2)
    pb = pair_base(s, 0, 1)
    f = Element("M", morphisms_between(s, 0, 1)[0])
    x_set = orbit_of(s, pb, (f,))
    rg = restricted_group(s, pb, x_set)
    assert automorphism_group(s, pb).order % rg.order == 0


def test_restricted_group_raises_when_not_invariant():
    s = plain(cyclic_group(2), 3)
    base = object_closure(s, 0)
    mor = tuple((Element("M", m),) for m in morphisms_between(s, 0, 1))
    with pytest.raises(NotInvariant):
        restricted_group(s, base, mor)  # an object swap moves Mor(0,1)


def test_an_empty_lead_has_one_image():
    # the empty tuple's orbit is itself, read off one completion of the
    # search; the lead store keeps that one array, and restricting to the
    # empty carrier gives the trivial group without walking Aut(s/base)
    s = plain(cyclic_group(2), 3)
    assert automorphism_group(s).order == 24
    space = s.search_space
    for base in ((), object_closure(s, 0)):
        assert orbit_of(s, base, ()) == ((),)
        assert len(space.leads[(space.pinned(base), ())]) == 1
        rg = restricted_group(s, base, ())
        assert rg.carrier == () and rg.order == 1 and len(rg.reps) == 1


def _regular_by_stabilisers(perms, size):
    # the oracle: as many elements as points, every orbit the whole carrier
    # and every stabiliser trivial
    return len(perms) == size and all(
        len({p[x] for p in perms}) == size and sum(p[x] == x for p in perms) == 1
        for x in range(size)
    )


@pytest.mark.parametrize(
    "perms,regular",
    [
        # Z/4 by rotation
        ([(0, 1, 2, 3), (1, 2, 3, 0), (2, 3, 0, 1), (3, 0, 1, 2)], True),
        # Klein four by swaps inside {0, 1} and {2, 3}: as many elements as
        # points, but two orbits
        ([(0, 1, 2, 3), (1, 0, 2, 3), (0, 1, 3, 2), (1, 0, 3, 2)], False),
        # S3 on three points: transitive, six elements
        (sorted(itertools.permutations(range(3))), False),
        # the trivial group on one point
        ([(0,)], True),
    ],
    ids=["rotations", "intransitive", "larger-than-carrier", "trivial"],
)
def test_is_regular_on_permutation_groups(perms, regular):
    from groupoidlab.automorphisms import _restriction_group

    s = plain(cyclic_group(2), 4)
    identity = Automorphism(tuple(range(s.carrier_size)), s)
    carrier = tuple((Element("O", i),) for i in range(len(perms[0])))
    rg = _restriction_group(s, (), carrier, dict.fromkeys(perms, identity))
    assert rg.is_regular() == _regular_by_stabilisers(rg.perms, len(carrier)) == regular


def test_budget_guard():
    s = encode_double_cover(build_standard_groupoid(cyclic_group(8), 6))
    assert s.carrier_size == 306
    with pytest.raises(BudgetExceeded):
        automorphism_group(s)


def _unary_relation_structure():
    # four points, a nullary relation that holds under every bijection and
    # a unary one, the subset {0, 1}, to preserve
    from groupoidlab.structures import MultiSortedStructure, Relation, validate_structure

    return validate_structure(
        MultiSortedStructure(
            sorts=(("P", 4),),
            functions=(),
            relations=(
                Relation(name="flag", arg_sorts=(), tuples=((),)),
                Relation(name="red", arg_sorts=("P",), tuples=((0,), (1,))),
            ),
            constants=(),
        )
    )


# queries that turn an Element into a point: the base, a lead, a
# constraint, a carrier tuple and Automorphism.apply
_POINT_QUERIES = {
    "orbit_of": lambda s, el: orbit_of(s, (), (el,)),
    "orbit_of-base": lambda s, el: orbit_of(s, (el,), (Element("O", 0),)),
    "carries": lambda s, el: carries(s, (), (el,), (el,)),
    "find_automorphism": lambda s, el: find_automorphism(s, {el: el}),
    "restricted_group": lambda s, el: restricted_group(s, (), ((el,),)),
    "apply": lambda s, el: Automorphism(tuple(range(s.carrier_size)), s).apply(el),
}


@pytest.mark.parametrize("query", list(_POINT_QUERIES))
@pytest.mark.parametrize(
    "el",
    [Element("O", 4), Element("O", -1), Element("M", 18), Element("X", 0)],
    ids=["past-its-sort", "negative", "past-the-last-sort", "unknown-sort"],
)
def test_queries_reject_elements_outside_the_structure(query, el):
    # cyclic:2 n=3 has sorts O 3 and M 18: O 4 would be point 7, M 1, and
    # O -1 point 2, O 2, if the index were not checked against its sort
    s = plain(cyclic_group(2), 3)
    assert s.sorts == (("O", 3), ("M", 18))
    with pytest.raises(InvalidInput, match="not an element"):
        _POINT_QUERIES[query](s, el)


def test_is_automorphism_rejects_malformed_arrays():
    s = plain(cyclic_group(2), 2)  # O: points 0-1, M: points 2-9
    identity = Automorphism(tuple(range(s.carrier_size)), s)
    assert identity.images == tuple(range(10)) and is_automorphism(s, identity)
    cases = {
        "too short": identity.images[:-1],
        "too long": identity.images + (10,),
        "object into M": (2, 1, 0) + identity.images[3:],
        "not bijective": (0, 1, 2, 2) + identity.images[4:],
    }
    for name, images in cases.items():
        assert not is_automorphism(s, Automorphism(images, s)), name

    p = _unary_relation_structure()
    assert is_automorphism(p, Automorphism((1, 0, 3, 2), p))
    assert not is_automorphism(p, Automorphism((2, 1, 0, 3), p))  # moves red


def brute_force_automorphisms(s):
    # independent oracle: enumerate endpoint-respecting sort bijections and
    # filter with the public validity check
    import itertools

    from groupoidlab import Automorphism, morphisms_between
    from groupoidlab.structures import fiber_points, has_cover

    n = s.sort_size("O")
    found = []
    blocks = {(a, b): morphisms_between(s, a, b) for a in range(n) for b in range(n)}
    for pi in itertools.permutations(range(n)):
        per_block = []
        pairs = sorted(blocks)
        for a, b in pairs:
            src = blocks[(a, b)]
            dst = blocks[(pi[a], pi[b])]
            per_block.append([dict(zip(src, img)) for img in itertools.permutations(dst)])
        fiber_choices = [()]
        if has_cover(s):
            per_obj = []
            for a in range(n):
                src = fiber_points(s, a)
                dst = fiber_points(s, pi[a])
                per_obj.append([dict(zip(src, d)) for d in (dst, dst[::-1])])
            fiber_choices = list(itertools.product(*per_obj))
        for combo in itertools.product(*per_block):
            mmap = {}
            for d in combo:
                mmap.update(d)
            m_tuple = tuple(mmap[m] for m in range(s.sort_size("M")))
            for fibers in fiber_choices:
                imap = {}
                for d in fibers:
                    imap.update(d)
                maps = {"O": pi, "M": m_tuple}
                if has_cover(s):
                    maps["I"] = tuple(imap[i] for i in range(s.sort_size("I")))
                images, off = [], 0
                for name, size in s.sorts:  # each sort after the ones before
                    images.extend(off + v for v in maps[name])
                    off += size
                aut = Automorphism(tuple(images), s)
                if is_automorphism(s, aut):
                    found.append(aut)
    return sorted(found, key=lambda a: a.images)


def test_engine_matches_brute_force_plain():
    s = plain(cyclic_group(2), 2)
    assert list(automorphism_group(s).members) == brute_force_automorphisms(s)


def test_engine_matches_brute_force_cover():
    s = encode_double_cover(build_standard_groupoid(cyclic_group(2), 2))
    assert list(automorphism_group(s).members) == brute_force_automorphisms(s)


def test_engine_handles_binary_functions_and_constants():
    # a group as a one-sorted structure with a binary operation and a named
    # identity: the automorphisms are exactly the group automorphisms
    from groupoidlab import direct_product
    from groupoidlab.structures import Constant, Function, MultiSortedStructure, validate_structure

    def as_structure(g):
        rows = tuple(
            (a, b, g.mul(a, b)) for a in range(g.order) for b in range(g.order)
        )
        return validate_structure(
            MultiSortedStructure(
                sorts=(("G", g.order),),
                functions=(
                    Function(name="mul", arg_sorts=("G", "G"), result_sort="G", rows=rows),
                ),
                relations=(),
                constants=(Constant(name="e", sort="G", index=g.identity),),
            )
        )

    z4_aut = automorphism_group(as_structure(cyclic_group(4)))
    assert z4_aut.order == 2
    klein = direct_product(cyclic_group(2), cyclic_group(2))
    klein_aut = automorphism_group(as_structure(klein))
    assert klein_aut.order == 6  # Sym(3) permuting the involutions
    e = Element("G", klein.identity)
    assert all(aut.apply(e) == e for aut in klein_aut.members)


def test_engine_handles_nullary_and_unary_relations():
    group = automorphism_group(_unary_relation_structure())
    assert group.order == 4
    red = (Element("P", 0), Element("P", 1))
    assert all(set(aut.apply_tuple(red)) == set(red) for aut in group.members)


def _offsets(s):
    # each sort's first point, numbered after the sorts before it
    offsets, off = {}, 0
    for name, size in s.sorts:
        offsets[name], off = off, off + size
    return offsets


def _tuplewise_is_automorphism(s, images):
    # the oracle, read off the structure's own sorts, function rows, relation
    # tuples and constants: each sort's slice permutes its points, and the
    # image of every tuple of every function graph, relation and constant (a
    # one-tuple relation) is a tuple of the same one
    offsets = _offsets(s)
    if len(images) != sum(size for _, size in s.sorts):
        return False
    for name, size in s.sorts:
        off = offsets[name]
        if sorted(images[off:off + size]) != list(range(off, off + size)):
            return False
    tables = [((*f.arg_sorts, f.result_sort), f.rows) for f in s.functions]
    tables += [(r.arg_sorts, r.tuples) for r in s.relations]
    tables += [((c.sort,), ((c.index,),)) for c in s.constants]
    for sorts, tuples in tables:
        tset = {tuple(offsets[n] + v for n, v in zip(sorts, t)) for t in tuples}
        if any(tuple(images[p] for p in t) not in tset for t in tset):
            return False
    return True


def _constant_structure():
    # P maps two-to-one onto Q, {0, 1} is red, point 2 a constant; a nullary
    # relation that holds and an empty binary one.  Only swapping 0 and 1 is
    # an automorphism; swapping 2 and 3 breaks only the constant, swapping
    # the fibres breaks red and the constant.
    from groupoidlab.structures import (
        Constant,
        Function,
        MultiSortedStructure,
        Relation,
        validate_structure,
    )

    return validate_structure(
        MultiSortedStructure(
            sorts=(("P", 4), ("Q", 2)),
            functions=(Function("f", ("P",), "Q", ((0, 0), (1, 0), (2, 1), (3, 1))),),
            relations=(
                Relation(name="flag", arg_sorts=(), tuples=((),)),
                Relation(name="never", arg_sorts=("P", "P"), tuples=()),
                Relation(name="red", arg_sorts=("P",), tuples=((0,), (1,))),
            ),
            constants=(Constant("c", "P", 2),),
        )
    )


def _sortwise_shuffle(s, rng):
    images, off = [], 0
    for _, size in s.sorts:
        block = list(range(off, off + size))
        rng.shuffle(block)
        images += block
        off += size
    return tuple(images)


def test_is_automorphism_matches_the_tuplewise_check():
    # seeded random arrays: shuffles within each sort (which mostly break a
    # relation), the same with two random points swapped (which breaks the
    # sorts when theirs differ) and then one point repeated (which always
    # does), and the group's own members
    from itertools import islice

    from groupoidlab import Automorphism, iter_automorphisms

    rng = random.Random(20)
    constant = _constant_structure()
    cases = [
        (constant, (1, 0, 2, 3, 4, 5), True),
        (constant, (0, 1, 3, 2, 4, 5), False),
        (constant, (2, 3, 0, 1, 5, 4), False),
    ]
    for s in (constant, _unary_relation_structure(), _standard("dihedral:4", False),
              _standard("cyclic:2", True)):
        cases += [(s, aut.images, True) for aut in islice(iter_automorphisms(s), 20)]
        for _ in range(60):
            images = list(_sortwise_shuffle(s, rng))
            cases.append((s, tuple(images), None))
            p, q = rng.sample(range(len(images)), 2)
            images[p], images[q] = images[q], images[p]
            cases.append((s, tuple(images), None))
            images[p] = images[q]
            cases.append((s, tuple(images), False))
    outcomes = set()
    for s, images, expect in cases:
        verdict = is_automorphism(s, Automorphism(images, s))
        assert verdict == _tuplewise_is_automorphism(s, images), images
        assert expect is None or verdict == expect, images
        outcomes.add(verdict)
    assert outcomes == {True, False}


@settings(max_examples=30, deadline=None, database=None, derandomize=True)
@given(
    group=st.sampled_from(("cyclic:2", "cyclic:3", "symmetric:3", "product:cyclic:2,cyclic:2")),
    n=st.integers(2, 3),
    cover=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_is_automorphism_and_apply_on_drawn_relabelled_instances(group, n, cover, seed):
    # a drawn standard groupoid with every sort relabelled: the first three
    # members of its group and one sort-wise shuffle against the oracle, and
    # apply against offsets computed here
    from itertools import islice

    from groupoidlab import Automorphism, iter_automorphisms

    s, _ = _relabelled(_standard(group, cover, n), seed)
    members = list(islice(iter_automorphisms(s), 3))
    assert members
    shuffle = _sortwise_shuffle(s, random.Random(seed))
    for images in [aut.images for aut in members] + [shuffle]:
        verdict = is_automorphism(s, Automorphism(images, s))
        assert verdict == _tuplewise_is_automorphism(s, images), images
    assert all(is_automorphism(s, aut) for aut in members)
    offsets = _offsets(s)
    for aut in members:
        for name, size in s.sorts:
            off = offsets[name]
            for i in range(size):
                image = Element(name, aut.images[off + i] - off)
                assert aut.apply(Element(name, i)) == image


def _drawn_carries_case(s, data):
    """A base of whole object closures, a tuple x of up to three points,
    repeats allowed, and a target y: an image of x in its orbit, that image
    with one coordinate copied onto another (a non-injective or
    inconsistent pair list when the coordinates differ), or any tuple."""
    from groupoidlab.structures import objects_of

    objects = data.draw(st.lists(st.sampled_from(objects_of(s)), unique=True, max_size=2))
    base = tuple(e for u in objects for e in object_closure(s, u))
    x = tuple(data.draw(st.lists(st.sampled_from(all_elements(s)), min_size=1, max_size=3)))
    if len(x) > 1 and data.draw(st.booleans()):
        x = x + (x[0],)
    kind = data.draw(st.sampled_from(("image", "collapsed", "any")))
    if kind == "any":
        y = tuple(data.draw(st.sampled_from(all_elements(s))) for _ in x)
    else:
        y = data.draw(st.sampled_from(orbit_of(s, base, x)))
        if kind == "collapsed" and len(x) > 1:
            i, j = data.draw(st.lists(st.sampled_from(range(len(x))), min_size=2, max_size=2, unique=True))
            y = y[:j] + (y[i],) + y[j + 1:]
    return base, x, y


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(
    group=st.sampled_from(("cyclic:2", "cyclic:3", "symmetric:3", "product:cyclic:2,cyclic:2")),
    n=st.integers(2, 3),
    cover=st.booleans(),
    seed=st.integers(0, 2**16),
    data=st.data(),
)
def test_carries_matches_the_orbit_on_drawn_instances(group, n, cover, seed, data):
    # the constrained existence search against the lead search's orbit, on
    # a drawn relabelled standard groupoid
    s, _ = _relabelled(_standard(group, cover, n), seed)
    base, x, y = _drawn_carries_case(s, data)
    assert carries(s, base, x, y) == (y in orbit_of(s, base, x)), (base, x, y)


def test_carries_answers_inconsistent_pairs_without_a_search(monkeypatch):
    # repeated points need repeated images, distinct points distinct ones,
    # and both tuples one length; such pair lists are answered before any
    # search, and a consistent one searches once, stopping at its first
    # solution
    from groupoidlab import automorphisms

    s = _standard("cyclic:2", False, 3)
    m01, m02 = (Element("M", min(morphisms_between(s, 0, u))) for u in (1, 2))
    o1, o2 = Element("O", 1), Element("O", 2)
    searches = []
    solutions = automorphisms._solutions

    def spy(structure, base, constraints=None, lead=()):
        searches.append(dict(constraints))
        return solutions(structure, base, constraints, lead=lead)

    monkeypatch.setattr(automorphisms, "_solutions", spy)
    for x, y in [
        ((m01, m01), (m02, m01)),  # one point, two images
        ((m01, m02), (m01, m01)),  # two points, one image
        ((m01,), (m01, m02)),  # unequal lengths
    ]:
        assert not carries(s, (), x, y)
    assert searches == []
    assert carries(s, (), (o1, o2, o1), (o2, o1, o2))
    assert not carries(s, object_closure(s, 1), (o1, o2), (o2, o1))
    assert searches == [{o1: o2, o2: o1}, {o1: o2, o2: o1}]


def test_carries_keeps_the_budget():
    s = encode_double_cover(build_standard_groupoid(cyclic_group(8), 6))
    with pytest.raises(BudgetExceeded):
        carries(s, (), (Element("O", 0),), (Element("O", 1),))


def test_array_kernels_match_their_loops():
    # composition, inversion, restriction and relabelling read arrays through
    # C-level maps; on seeded random permutations each equals its loop
    from groupoidlab.automorphisms import _relabelled, _restriction

    rng = random.Random(21)
    s = _unary_relation_structure()
    for n in (2, 5, 12):
        p, q, sigma = (rng.sample(range(n), n) for _ in range(3))
        mine, other = Automorphism(tuple(p), s), Automorphism(tuple(q), s)
        assert mine.compose(other).images == tuple(p[x] for x in q)
        inverse = [0] * n
        for x, y in enumerate(p):
            inverse[y] = x
        assert mine.inverse().images == tuple(inverse)
        pairs = [(x, y) for x in range(n) for y in range(n) if x != y]
        index = {t: k for k, t in enumerate(rng.sample(pairs, n))}
        assert _restriction(tuple(p), index) == tuple(
            index.get((p[x], p[y]), -1) for x, y in index
        )
        moved = [0] * n
        for i, j in enumerate(q):
            moved[sigma[i]] = sigma[j]
        assert _relabelled([tuple(q)], sigma) == [tuple(moved)]


def test_structure_is_freed_after_a_search():
    # the search space, the group cache and the Y-set system live on the
    # structure, so nothing else keeps a searched structure alive; the
    # system refers back to its structure, a cycle the collector frees
    import gc
    import weakref

    s = plain(cyclic_group(2), 3)
    assert automorphism_group(s, object_closure(s, 0)).order > 1
    assert s.y_system.f_group(0, 1).order == 2
    ref = weakref.ref(s)
    del s
    gc.collect()
    assert ref() is None


def _searches(s):
    # several bases, each searched with two leads and, but for the empty
    # base, without one, in one order
    from groupoidlab.automorphisms import _solutions

    f = morphism_tuple(s, morphisms_between(s, 0, 1)[0])
    g = (Element("M", morphisms_between(s, 1, 2)[0]),)
    runs = []
    for base in ((), object_closure(s, 0), pair_base(s, 0, 1), object_closure(s, 2)):
        for lead in ((), f, g) if base else (f, g):
            runs.append(list(_solutions(s, base, lead=lead)))
    return runs


CACHE_CASES = {
    "z2-4-cover": lambda: encode_double_cover(build_standard_groupoid(cyclic_group(2), 4)),
    "s3-3-plain": lambda: plain(symmetric_group(3), 3),
}


@pytest.mark.parametrize("case", sorted(CACHE_CASES))
def test_partition_cache_does_not_change_searches(case):
    # the same searches yield the same image arrays in the same order on a
    # fresh structure and on one whose partitions were refined by other
    # searches, one of them a lead search closed after its first yield
    from groupoidlab.automorphisms import _solutions

    fresh = _searches(CACHE_CASES[case]())
    warm = CACHE_CASES[case]()
    for base in (pair_base(warm, 0, 2), object_closure(warm, 0)):
        automorphism_group(warm, base)
    lead = morphism_tuple(warm, morphisms_between(warm, 0, 2)[0])
    closed = _solutions(warm, object_closure(warm, 0), lead=lead)
    next(closed)
    closed.close()
    for base in ((), pair_base(warm, 0, 1)):
        orbit_of(warm, base, lead)
    assert len(warm.search_space.partitions) == 4
    assert _searches(warm) == fresh


@pytest.mark.parametrize("case", sorted(CACHE_CASES))
def test_cached_partitions_match_fresh_refinement(case):
    from groupoidlab.automorphisms import _SearchSpace

    s = CACHE_CASES[case]()
    _searches(s)
    fresh = _SearchSpace(s)
    for pinned, (color, cells) in s.search_space.partitions.items():
        assert color == fresh.colors(pinned)
        by_color = {}
        for p, c in enumerate(color):
            by_color.setdefault(c, []).append(p)
        assert cells == tuple(tuple(by_color[c]) for c in range(len(by_color)))


def test_refinement_runs_once_per_pinned_set(monkeypatch):
    # section3 reads the partitions of few pinned sets many times: each set
    # is refined once, so the refinement rounds are (distinct pinned sets) x
    # (rounds per set), not (partition reads) x (rounds)
    from groupoidlab import verify_section3
    from groupoidlab.automorphisms import _SearchSpace

    refined, compressed, reads = [], [0], [0]
    colors, compress, partition = (
        _SearchSpace.colors, _SearchSpace._compress, _SearchSpace.partition
    )

    def counted_colors(self, pinned):
        refined.append(pinned)
        return colors(self, pinned)

    def counted_compress(keys):
        compressed[0] += 1
        return compress(keys)

    def counted_partition(self, pinned):
        reads[0] += 1
        return partition(self, pinned)

    monkeypatch.setattr(_SearchSpace, "colors", counted_colors)
    monkeypatch.setattr(_SearchSpace, "_compress", staticmethod(counted_compress))
    monkeypatch.setattr(_SearchSpace, "partition", counted_partition)
    s = encode_double_cover(build_standard_groupoid(cyclic_group(2), 4))
    assert verify_section3(s).passed
    in_section3 = compressed[0]

    assert len(refined) == len(set(refined))
    assert reads[0] > 4 * len(refined)
    compressed[0] = 0
    fresh = _SearchSpace(s)
    for pinned in set(refined):
        colors(fresh, pinned)
    assert in_section3 == compressed[0]


def _signature_colors(space, pinned):
    """The refinement on signatures of nested tuples, the oracle for
    ``_SearchSpace.colors``: each round keys a point by its colour and the
    sorted (relation, position, colour tuple) of its incidences.  The stable
    colouring and the number of rounds."""

    def relabel(keys):
        label = {k: c for c, k in enumerate(sorted(set(keys)))}
        return [label[k] for k in keys]

    color = relabel([
        (space.sort_of_point[p], p if p in pinned else -1) for p in range(space.n_points)
    ])
    rounds = 0
    while True:
        sig = [[color[p]] for p in range(space.n_points)]
        for ri, rel in enumerate(space.rels):
            for t in rel.tuples:
                ct = tuple(color[x] for x in t)
                for i, p in enumerate(t):
                    sig[p].append((ri, i, ct))
        refined = relabel([(s[0], tuple(sorted(s[1:]))) for s in sig])
        rounds += 1
        if len(set(refined)) == len(set(color)):
            return refined, rounds
        color = refined


def _cells(color):
    by_color = {}
    for p, c in enumerate(color):
        by_color.setdefault(c, []).append(p)
    return sorted(map(tuple, by_color.values()))


def _assert_colors_match_the_oracle(s, pinned_sets):
    # the same cells after the same number of rounds: colors relabels once
    # for the sort colouring and once per round
    from groupoidlab.automorphisms import _SearchSpace

    space = _SearchSpace(s)
    relabels = [0]
    compress = space._compress

    def counted(keys):
        relabels[0] += 1
        return compress(keys)

    space._compress = counted
    for pinned in pinned_sets:
        relabels[0] = 0
        expected, rounds = _signature_colors(space, pinned)
        assert _cells(space.colors(pinned)) == _cells(expected), sorted(pinned)
        assert relabels[0] == rounds + 1, sorted(pinned)


def _refinement_bases(s):
    return ((), object_closure(s, 0), pair_base(s, 0, 1), object_closure(s, 2))


# CACHE_CASES, D4 and Q8 at three objects, and two relabelled structures
REFINEMENT_CASES = {
    **CACHE_CASES,
    **{
        f"{group}-3-{'cover' if cover else 'plain'}": lambda g=group, c=cover: _standard(g, c)
        for group in ("dihedral:4", "quaternion8") for cover in (False, True)
    },
    **{
        f"{group}-3-{'cover' if cover else 'plain'}-relabelled-{seed}":
            lambda g=group, c=cover, k=seed: _relabelled(_standard(g, c), k)[0]
        for group, cover, seed in (("cyclic:3", True, 7), ("symmetric:3", False, 11))
    },
}


@pytest.mark.parametrize("case", sorted(REFINEMENT_CASES))
def test_colors_match_the_signature_oracle(case):
    s = REFINEMENT_CASES[case]()
    space = s.search_space
    _assert_colors_match_the_oracle(s, [space.pinned(b) for b in _refinement_bases(s)])


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(
    group=st.sampled_from(("cyclic:2", "cyclic:3", "symmetric:3", "product:cyclic:2,cyclic:2")),
    n=st.integers(2, 3),
    cover=st.booleans(),
    seed=st.integers(0, 2**16),
    data=st.data(),
)
def test_colors_match_the_signature_oracle_on_drawn_pinned_sets(group, n, cover, seed, data):
    # any set of points pinned, with the constants, on a drawn relabelled
    # standard groupoid
    s, _ = _relabelled(_standard(group, cover, n), seed)
    space = s.search_space
    points = data.draw(st.lists(st.integers(0, space.n_points - 1), unique=True, max_size=6))
    _assert_colors_match_the_oracle(s, [frozenset(points) | frozenset(space.const_points)])


@st.composite
def _drawn_structures(draw):
    """Two sorts, no function, a nullary relation and drawn unary, binary
    and ternary relations: unlike the groupoid encodings, these split cells
    by a tuple's position, by how often a point meets one colour tuple,
    and by the pinned colours alone."""
    from groupoidlab.structures import MultiSortedStructure, Relation

    a, b = draw(st.integers(1, 5)), draw(st.integers(0, 3))

    def tuples(*sizes):
        if not all(sizes):
            return ()
        cells = st.tuples(*(st.integers(0, size - 1) for size in sizes))
        return tuple(sorted(draw(st.lists(cells, unique=True, max_size=8))))

    return MultiSortedStructure(
        sorts=(("A", a), ("B", b)),
        functions=(),
        relations=(
            Relation("flag", (), ((),)),
            Relation("red", ("A",), tuples(a)),
            Relation("edge", ("A", "A"), tuples(a, a)),
            Relation("meet", ("A", "B", "A"), tuples(a, b, a)),
        ),
    )


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(s=_drawn_structures(), data=st.data())
def test_colors_match_the_signature_oracle_on_drawn_structures(s, data):
    # and every automorphism fixing the pinned points keeps the colouring
    space = s.search_space
    pinned = data.draw(st.lists(st.sampled_from(space.elements), unique=True, max_size=3))
    _assert_colors_match_the_oracle(s, [space.pinned(pinned)])
    color = space.colors(space.pinned(pinned))
    for aut in automorphism_group(s, pinned).members:
        assert list(map(color.__getitem__, aut.images)) == color


@pytest.mark.parametrize("case", sorted(REFINEMENT_CASES))
def test_automorphisms_preserve_the_stable_colouring(case):
    # soundness: every automorphism fixing the base keeps the colour of
    # every point under the stable colouring of the base's pinned set; the
    # empty base is left out, as Aut(s) of Q8 n=3 cover has 3,072 members
    s = REFINEMENT_CASES[case]()
    space = s.search_space
    for base in _refinement_bases(s)[1:]:
        color = space.colors(space.pinned(base))
        for aut in automorphism_group(s, base).members:
            assert list(map(color.__getitem__, aut.images)) == color, base


def test_restriction_builders_search_with_a_lead(monkeypatch):
    # every restriction group, and the restriction epimorphism, comes from
    # lead searches: none of them enumerates a base-fixing group
    from groupoidlab import automorphisms
    from groupoidlab.limits import raw_restriction_epimorphism

    s = encode_double_cover(build_standard_groupoid(cyclic_group(2), 4))
    solutions = automorphisms._solutions
    leadless = []

    def spy(structure, base, constraints=None, **kwargs):
        if not kwargs.get("lead"):
            leadless.append(tuple(base))
        return solutions(structure, base, constraints, **kwargs)

    monkeypatch.setattr(automorphisms, "_solutions", spy)
    mor = tuple((Element("M", m),) for m in morphisms_between(s, 0, 1))
    pb = pair_base(s, 0, 1)
    restricted_group(s, pb, s.y_system.y_set(0, 1).members)
    setwise_restricted_group(s, object_closure(s, 0), mor)
    s.y_system.f_group(0, 1)
    s.y_system.g_subgroup(0, 1)
    raw_restriction_epimorphism(s, 0, 1)
    assert leadless == []


DIFFERENTIAL_GROUPS = ["cyclic:2", "symmetric:3", "dihedral:4", "quaternion8"]


def _standard(group, cover, n=3):
    from groupoidlab import group_from_spec

    gpd = build_standard_groupoid(group_from_spec(group), n)
    return encode_double_cover(gpd) if cover else encode_groupoid(gpd)


@functools.cache
def _warmed(group, cover):
    # shared by the tests below, which only add to its kept searches
    from groupoidlab import verify_section3

    s = _standard(group, cover)
    verify_section3(s)
    return s


@functools.cache
def _oracle(group, cover):
    # a structure on which only whole groups are enumerated
    return _standard(group, cover)


def _fixedness_bases(s):
    # the object closures, the pair closures, and each source closure with
    # the reference of a Y-set at it
    from groupoidlab import pair_closure, x_tuples

    pairs = [(a, b) for a in range(3) for b in range(3) if a != b]
    bases = [object_closure(s, a) for a in range(3)]
    bases += [pair_closure(s, a, b) for a, b in pairs if a < b]
    bases += [object_closure(s, a) + x_tuples(s, a, b)[0] for a, b in pairs]
    return bases


@pytest.mark.parametrize("cover", [False, True], ids=["plain", "cover"])
@pytest.mark.parametrize("group", DIFFERENTIAL_GROUPS)
def test_fixed_matches_dcl(group, cover):
    # _fixed, decided by singleton cells, by the moved points found so far,
    # by kept lead searches or by an early-stopping one, against the fixed
    # points of the enumerated group, for every standard morphism tuple and
    # every single point, on a fresh structure and on a warmed one
    from groupoidlab import x_tuples
    from groupoidlab.automorphisms import _fixed

    oracle = _oracle(group, cover)
    queries = [t for a in range(3) for b in range(3) if a != b for t in x_tuples(oracle, a, b)]
    queries += [(e,) for e in all_elements(oracle)]
    bases = _fixedness_bases(oracle)
    for s in (_standard(group, cover), _warmed(group, cover)):
        answers = {(base, x): _fixed(s, base, x) for base in bases for x in queries}
        for base in bases:
            dcl = set(dcl_of(oracle, base))
            for x in queries:
                assert answers[(base, x)] == all(e in dcl for e in x), (base, x)


@pytest.mark.parametrize("cover", [False, True], ids=["plain", "cover"])
@pytest.mark.parametrize("group", DIFFERENTIAL_GROUPS)
def test_singleton_cells_are_fixed_by_the_group(group, cover):
    s = _oracle(group, cover)
    space = s.search_space
    for base in _fixedness_bases(s):
        color, cells = space.partition(space.pinned(base))
        singletons = [cell[0] for cell in cells if len(cell) == 1]
        for aut in automorphism_group(s, base).members:
            assert all(aut.images[p] == p for p in singletons), base


def _lead_search_results(s):
    # orbits, the F- and G-groups, restriction groups and a NotInvariant,
    # each as image arrays
    from groupoidlab import NotInvariant

    def arrays(rg):
        return rg.perms, tuple(rep.images for rep in rg.reps)

    out, ys = [], s.y_system
    for a, b in ((0, 1), (1, 2), (2, 0)):
        y = ys.y_set(a, b)
        source, pbase = object_closure(s, a), pair_base(s, a, b)
        mor_ab = tuple((Element("M", m),) for m in morphisms_between(s, a, b))
        out.append(orbit_of(s, source, y.reference))
        out.append(orbit_of(s, pbase, y.reference))
        out.append(arrays(ys.f_group(a, b)))
        out.append(arrays(ys.g_subgroup(a, b)))
        out.append(arrays(setwise_restricted_group(s, source, mor_ab)))
        out.append(arrays(restricted_group(s, pbase, orbit_of(s, pbase, mor_ab[0]))))
        with pytest.raises(NotInvariant) as raised:
            restricted_group(s, source, mor_ab)
        out.append((raised.value.automorphism.images, raised.value.element))
    return out


@pytest.mark.parametrize("cover", [False, True], ids=["plain", "cover"])
@pytest.mark.parametrize("group", DIFFERENTIAL_GROUPS)
def test_kept_lead_searches_match_fresh_searches(group, cover):
    # the same orbits, groups and NotInvariant from a fresh structure and
    # from one whose lead searches were kept by a section3 run; every kept
    # search equals the same search run again on a new structure
    from groupoidlab.automorphisms import _solutions

    warm = _warmed(group, cover)
    assert _lead_search_results(_standard(group, cover)) == _lead_search_results(warm)
    space, again = warm.search_space, _standard(group, cover)
    assert space.leads
    for (pinned, lead), arrays in space.leads.items():
        base = tuple(space.elements[p] for p in sorted(pinned))
        lead_t = tuple(space.elements[p] for p in lead)
        assert tuple(_solutions(again, base, lead=lead_t)) == arrays


def test_not_invariant_stops_the_lead_search():
    # restricted_group raises at the first image leaving the carrier, so the
    # lead search stops there and is not kept; the setwise group over the
    # same carrier then runs it to the end and keeps it
    from groupoidlab import NotInvariant

    s = _standard("cyclic:2", False)
    space, source = s.search_space, object_closure(s, 0)
    mor = tuple((Element("M", m),) for m in morphisms_between(s, 0, 1))
    key = (space.pinned(source), space.lead_points(tuple(e for t in mor for e in t)))
    with pytest.raises(NotInvariant):
        restricted_group(s, source, mor)
    assert key not in space.leads
    setwise_restricted_group(s, source, mor)
    assert len(space.leads[key]) > 1


def test_no_lead_search_runs_to_the_end_twice(monkeypatch):
    from groupoidlab import automorphisms, verify_section3

    solutions = automorphisms._solutions
    finished = []

    def spy(structure, base, constraints=None, lead=()):
        yield from solutions(structure, base, constraints, lead=lead)
        if lead:
            space = structure.search_space
            finished.append((space.pinned(base), space.lead_points(lead)))

    monkeypatch.setattr(automorphisms, "_solutions", spy)
    s = encode_double_cover(build_standard_groupoid(cyclic_group(2), 4))
    assert verify_section3(s).passed
    assert finished
    assert len(finished) == len(set(finished))


def test_fixedness_keeps_the_budget():
    # the budget is checked before the partition is read, even where a
    # singleton cell would decide the answer
    from groupoidlab.automorphisms import _fixed

    s = encode_double_cover(build_standard_groupoid(cyclic_group(8), 6))
    assert s.carrier_size > 300
    base = object_closure(s, 0)
    with pytest.raises(BudgetExceeded):
        _fixed(s, base, base[:1])
    with pytest.raises(BudgetExceeded):
        interdefinable(s, base, base[:1], base[:1])
    assert not s.search_space.partitions


TRANSLATION_CASES = [
    (group, 3, cover) for group in DIFFERENTIAL_GROUPS for cover in (False, True)
] + [("cyclic:2", 4, True)]


def _case_id(case):
    group, n, cover = case
    return f"{group}-n{n}-{'cover' if cover else 'plain'}"


@functools.cache
def _instance(group, n, cover):
    # shared by the tests below, which only add to its searches
    return _standard(group, cover, n)


def _sending(s, pairs):
    # constraints sending the object tuples of each (src, dst) pair
    from groupoidlab import object_tuple

    return {
        e: f for src, dst in pairs for e, f in zip(object_tuple(s, src), object_tuple(s, dst))
    }


@pytest.mark.parametrize("case", TRANSLATION_CASES, ids=_case_id)
def test_coset_matches_the_constrained_search(case):
    # the automorphisms sending the object tuples of (0, 1) to those of
    # (1, 2) are the coset psi0 . H, H = Aut(s/sources), the shape of the Y-set
    # system's transport coset: the find_automorphism head after each h of H
    # gives exactly the leaves of the constrained search, each once, and the
    # head is the first leaf
    from groupoidlab import find_automorphism, object_tuple
    from groupoidlab.automorphisms import _solutions

    s = _instance(*case)
    constraints = _sending(s, [(0, 1), (1, 2)])
    sources = object_tuple(s, 0) + object_tuple(s, 1)
    head = find_automorphism(s, constraints=constraints)
    # H is enumerated once per instance, here and in the transport tests
    coset = [head.compose(h).images for h in automorphism_group(s, sources).members]
    leaves = list(_solutions(s, (), constraints))
    assert leaves[:1] == [head.images] == coset[:1]
    assert len(coset) == len(set(coset))
    assert set(coset) == set(leaves)


TRANSPORT_CASES = [
    (group, n, cover)
    for group in ("cyclic:2", "cyclic:3", "cyclic:4", "product:cyclic:2,cyclic:2")
    for n in (3, 4)
    for cover in (False, True)
]


def _keeps_binding_classes(ys, images):
    # the oracle of binding preservation: every class maps onto itself
    off = ys.structure.search_space.offsets["M"]
    return all(
        {images[off + m] - off for m in cls} == set(cls) for cls in ys.binding().classes
    )


@pytest.mark.parametrize("case", TRANSPORT_CASES, ids=_case_id)
def test_transport_representatives_match_the_enumerated_coset(case):
    # the Y-set system's transports to a target: the head after one member of
    # H' = Aut(s/object_closure(0) + object_tuple(1)) per image of F(0, 1)'s
    # carrier, relabelling carrier perms.  The oracle composes the
    # object-tuple head with every member of H = Aut(s/sources), keeps the
    # binding-class-preserving ones, conjugates each rep as a whole image
    # array and restricts it: the same transports.  The kept members are
    # exactly the class-constrained head . H'.
    from groupoidlab import find_automorphism, object_tuple
    from groupoidlab.automorphisms import _carrier_index, _restriction

    s = _instance(*case)
    ys = s.y_system
    f_ref = ys.f_group(0, 1)
    sources = object_tuple(s, 0) + object_tuple(s, 1)
    members = automorphism_group(s, sources).members
    h_prime = automorphism_group(s, object_closure(s, 0) + object_tuple(s, 1)).members
    targets = [(0, 1)] + ([(2, 3)] if s.sort_size("O") >= 4 else [])

    for u, v in targets:
        f_tgt = ys.f_group(u, v)
        index = _carrier_index(s, f_tgt.carrier)
        positions = {perm: k for k, perm in enumerate(f_tgt.perms)}

        def enumerated(psi):
            psi_inv = psi.inverse()
            return tuple(
                positions.get(_restriction(psi.compose(rep).compose(psi_inv).images, index))
                for rep in f_ref.reps
            )

        head = find_automorphism(s, dict(zip(sources, object_tuple(s, u) + object_tuple(s, v))))
        coset = map(head.compose, members)
        kept = [psi for psi in coset if _keeps_binding_classes(ys, psi.images)]
        oracle = set(map(enumerated, kept))
        assert len(oracle) == 1
        assert ys.transports(u, v) == oracle
        assert ys.transport(u, v) in oracle
        class_head = ys._transport_head(u, v)
        assert {psi.images for psi in kept} == {class_head.compose(h).images for h in h_prime}


@pytest.mark.parametrize(
    "case",
    [(group, 3, cover) for group in DIFFERENTIAL_GROUPS[1:] for cover in (False, True)],
    ids=_case_id,
)
def test_transport_lead_images_match_enumeration(case):
    # the lead of the transport representatives, the points of the reference
    # Y-set: its images under H' = Aut(s/object_closure(0) + object_tuple(1))
    # from the lead search are those of the enumerated H', each once
    from groupoidlab import object_tuple
    from groupoidlab.automorphisms import _images

    s = _instance(*case)
    space = s.search_space
    lead = tuple(e for t in s.y_system.y_set(0, 1).members for e in t)
    image = itemgetter(*map(space.point, lead))
    sources = object_closure(s, 0) + object_tuple(s, 1)
    found = [image(images) for images in _images(s, sources, lead)]
    assert len(found) == len(set(found))
    assert set(found) == {image(h.images) for h in automorphism_group(s, sources).members}


@pytest.mark.parametrize("case", TRANSLATION_CASES, ids=_case_id)
def test_find_automorphism_is_first_in_constrained_search_order(case):
    # the first leaf of the constrained search, or None when the constraints
    # are not injective
    from groupoidlab import find_automorphism
    from groupoidlab.automorphisms import _solutions

    s = _instance(*case)
    constraints = _sending(s, [(0, 1), (1, 2)])
    first_leaf = next(_solutions(s, (), constraints))
    assert find_automorphism(s, constraints).images == first_leaf
    clash = {Element("O", 0): Element("O", 0), Element("O", 1): Element("O", 0)}
    assert find_automorphism(s, clash) is None


HEAD_CASES = [(case, None) for case in TRANSPORT_CASES] + [
    (case, seed)
    for case in [("cyclic:3", 4, False), ("product:cyclic:2,cyclic:2", 3, True)]
    for seed in (20150, 7)
]


def _head_case_id(head_case):
    case, seed = head_case
    return _case_id(case) + ("" if seed is None else f"-relabelled-{seed}")


@pytest.mark.parametrize("head_case", HEAD_CASES, ids=_head_case_id)
def test_transport_head_is_the_first_class_keeping_leaf(head_case):
    # at every pair, the head constrained by the binding classes is the first
    # leaf of the search constrained by the object tuples alone that keeps
    # every binding class, and None exactly when no leaf does.  On the
    # relabelled structures that leaf is often not the first leaf.
    from conftest import _relabelled
    from groupoidlab.automorphisms import _solutions

    (group, n, cover), seed = head_case
    if seed is None:
        s = _instance(group, n, cover)
    else:
        s, _ = _relabelled(_standard(group, cover, n), seed)
    ys = s.y_system
    n = s.sort_size("O")
    for a in range(n):
        for b in range(n):
            if a == b:
                continue
            constraints = _sending(s, [(0, a), (1, b)])
            first = next(
                (
                    images for images in _solutions(s, (), constraints)
                    if _keeps_binding_classes(ys, images)
                ),
                None,
            )
            head = ys._transport_head(a, b)
            assert (None if head is None else head.images) == first, (a, b)


TRANSLATED_GROUP_CASES = [(case, None) for case in TRANSLATION_CASES] + [
    (("cyclic:2", 4, True), seed) for seed in (20150, 7)
]


@pytest.mark.parametrize("head_case", TRANSLATED_GROUP_CASES, ids=_head_case_id)
def test_translated_groups_match_enumeration(head_case):
    # composite-membership reads orbits over pair_closure(c, a) as psi_ca's
    # images of orbits over pair_closure(0, 1): at every pair but the
    # reference pair, relabelled or not, the Y-set system accepts psi_ca, it
    # carries the pinned pair closures onto each other, and the conjugates of
    # the group at (0, 1) are the group enumerated on a fresh structure
    from conftest import _relabelled
    from groupoidlab import pair_closure

    (group, n, cover), seed = head_case
    if seed is None:
        s, oracle = _instance(group, n, cover), _standard(group, cover, n)
    else:
        s, _ = _relabelled(_standard(group, cover, n), seed)
        oracle, _ = _relabelled(_standard(group, cover, n), seed)
    ys, pinned = s.y_system, s.search_space.pinned
    template = pair_closure(s, 0, 1)
    members = automorphism_group(s, template).members
    for c in range(n):
        for a in range(n):
            if c == a or (c, a) == ys.ref_pair:
                continue
            base, psi = pair_closure(s, c, a), ys.translation(c, a)
            assert psi is not None and is_automorphism(s, psi), (c, a)
            assert set(map(psi.images.__getitem__, pinned(template))) == pinned(base), (c, a)
            psi_inv = psi.inverse()
            conjugates = sorted(psi.compose(h).compose(psi_inv).images for h in members)
            expect = [aut.images for aut in automorphism_group(oracle, base).members]
            assert conjugates == expect, (c, a)


PAIR_ORBIT_CASES = [
    ("plain", ("symmetric:3", 3, False)),
    ("plain", ("cyclic:3", 4, False)),
    ("cover", ("cyclic:2", 4, True)),
    ("cover", ("quaternion8", 3, True)),
    ("relabelled", ("cyclic:2", 4, True)),
    ("relabelled", ("symmetric:3", 3, False)),
    ("pinned", ("cyclic:2", 4, True)),
]


def _pair_orbit_structure(kind, group, n, cover):
    # a fresh copy each call, so the oracle shares no kept search with the
    # Y-set system under test
    from dataclasses import replace

    from groupoidlab.structures import Constant

    s = _standard(group, cover, n)
    if kind == "relabelled":
        s, _ = _relabelled(s, 20150)
    elif kind == "pinned":
        s = replace(s, constants=(Constant("mark", "O", 2),))
    return s


@pytest.mark.parametrize(
    "kind,case", PAIR_ORBIT_CASES, ids=[f"{k}-{_case_id(c)}" for k, c in PAIR_ORBIT_CASES]
)
def test_pair_orbit_matches_the_search_at_every_pair(kind, case):
    # YSystem.pair_orbit reads orbits over pair_closure(c, a) through psi_ca
    # where it is accepted: at every ordered pair it must equal orbit_of
    # over that pair's own closure, for every member of every Y-set out of
    # a.  Pinning object 2 leaves the pairs through it without a psi, and
    # they are searched.
    from groupoidlab import pair_closure

    s, oracle = _pair_orbit_structure(kind, *case), _pair_orbit_structure(kind, *case)
    ys, n = s.y_system, s.sort_size("O")
    translated = set()
    for c, a in itertools.permutations(range(n), 2):
        if ys.translation(c, a) is not None:
            translated.add((c, a))
        for b in range(n):
            if b in (c, a):
                continue
            for x in ys.y_set(a, b).members:
                expect = orbit_of(oracle, pair_closure(oracle, c, a), x)
                assert ys.pair_orbit(c, a, x) == expect, (c, a, x)
    others = {p for p in itertools.permutations(range(n), 2) if p != ys.ref_pair}
    if kind == "pinned":
        others = {p for p in others if 2 not in p}
    assert translated == others


def test_translation_falls_back_when_the_base_is_not_an_image(monkeypatch):
    # composite-membership's orbits (YSystem.pair_orbit) are searched over
    # pair_closure(0, 1) and, at any other pair, over its own pair closure
    # only where the Y-set system has no translation.  A constant pinning
    # object 2 leaves the pairs through it without a translation.  The spy
    # sits where pair_orbit reads orbits, and skips compute_Y's own orbit
    # searches there (over source closures and pair bases).
    import sys
    from dataclasses import replace

    from groupoidlab import pair_closure, verify_section3, witness
    from groupoidlab.structures import Constant

    s = replace(_standard("cyclic:2", True, 4), constants=(Constant("mark", "O", 2),))
    pinned = s.search_space.pinned
    orbit, compute_y, searched = witness.orbit_of, witness.compute_Y.__code__, []

    def spy(structure, base, x):
        if sys._getframe(1).f_code is not compute_y:
            searched.append(pinned(base))
        return orbit(structure, base, x)

    monkeypatch.setattr(witness, "orbit_of", spy)
    status = {e.claim_id: e.status for e in verify_section3(s).entries}
    assert status["composite-membership"] == "pass"
    through_2 = [(c, a) for c in range(4) for a in range(4) if c != a and 2 in (c, a)]
    assert set(searched) == {
        pinned(pair_closure(s, c, a)) for c, a in [(0, 1), *through_2]
    }


def test_section3_searches_one_translation_per_pair(monkeypatch):
    # the constrained searches of section3 on the n=4 cover: the Y-set
    # system's psi_ab at the 11 pairs other than (0, 1), each sending the
    # reference morphism tuple, the transport heads of
    # transport-independence's two targets, each sending the reference
    # object tuples and the vertex group at 0 (one member per binding
    # class), and uniform-action's existence questions, one per vertex
    # morphism at 0 and direction, each sending the designated morphisms
    # out of or into 0.  composite-membership searches none of its own (the
    # code before it read the Y-set system's translations made 25 such
    # searches).
    from groupoidlab import automorphisms, object_closure, object_tuple, verify_section3
    from groupoidlab.witness import x_tuples

    s = encode_double_cover(build_standard_groupoid(cyclic_group(2), 4))
    solutions, constrained = automorphisms._solutions, []

    def spy(structure, base, constraints=None, lead=()):
        if constraints:
            constrained.append(set(constraints))
        return solutions(structure, base, constraints, lead=lead)

    monkeypatch.setattr(automorphisms, "_solutions", spy)
    assert verify_section3(s).passed
    translations = [c for c in constrained if c == set(x_tuples(s, 0, 1)[0])]
    heads = [c for c in constrained if c == set(object_closure(s, 0) + object_tuple(s, 1))]
    designated = [
        {Element("M", min(morphisms_between(s, *pair))) for pair in pairs}
        for pairs in ([(0, u) for u in (1, 2, 3)], [(u, 0) for u in (1, 2, 3)])
    ]
    uniform = [c for c in constrained if c in designated]
    assert (len(constrained), len(translations), len(heads), len(uniform)) == (17, 11, 2, 4)


@pytest.mark.parametrize(
    "group,n,cover", [(cyclic_group(2), 4, True), (cyclic_group(3), 4, False)],
    ids=["cyclic2-4-cover", "cyclic3-4-plain"],
)
def test_no_suite_enumerates_a_group(group, n, cover, monkeypatch):
    # every search of every suite has a lead or constraints: the claims read
    # orbits, orbit-stabiliser certificates and the Y-set system's
    # restriction groups, transports and translations, none of which
    # enumerates a group
    from groupoidlab import automorphisms
    from groupoidlab.verify import run_suites

    gpd = build_standard_groupoid(group, n)
    s = encode_double_cover(gpd) if cover else encode_groupoid(gpd)
    solutions, unled = automorphisms._solutions, []

    def spy(structure, base, constraints=None, lead=()):
        if not lead and not constraints:
            unled.append(base)
        return solutions(structure, base, constraints, lead=lead)

    monkeypatch.setattr(automorphisms, "_solutions", spy)
    assert run_suites(s, group, "all", "no-enumeration").passed
    assert unled == []


# --- compiled propagation against the counting kernel -----------------------


def _counting_arrays(space):
    """The counting kernel's per-tuple arrays, built from the relations'
    tuples alone: per tuple its count of distinct points, its image getter,
    its relation's members, its forcers (q, lookup keyed by the tuple's image
    with -1 at q's position) and whether every point is a forcer; per point
    the tuples through it."""
    n_distinct, image_of, members_of, forcers_of, determined = [], [], [], [], []
    incident = [[] for _ in range(space.n_points)]
    for rel in space.rels:
        arity = len(rel.tuples[0]) if rel.tuples else 0
        members = {t[0] for t in rel.tuples} if arity == 1 else set(rel.tuples)
        lookups = {}
        for r in range(arity) if arity > 1 else ():
            table = {}
            for t in rel.tuples:
                if table.setdefault(t[:r] + (-1,) + t[r + 1:], t[r]) != t[r]:
                    break
            else:
                lookups[r] = table
        for t in rel.tuples:
            if not t:
                continue
            points = set(t)
            for p in points:
                incident[p].append(len(n_distinct))
            n_distinct.append(len(points))
            image_of.append(itemgetter(*t))
            members_of.append(members)
            forcers = tuple(
                (q, lookups[i]) for i, q in enumerate(t) if i in lookups and t.count(q) == 1
            )
            forcers_of.append(forcers)
            determined.append(len(points) > 1 and len(forcers) == len(t))
    return n_distinct, image_of, members_of, forcers_of, determined, incident


def _counting_solutions(s, base, constraints=None, lead=(), counts=None):
    """The counting kernel that compiled propagation replaced, the oracle for
    ``_solutions``: per tuple a count of its open points, lowered by each
    assignment and raised by ``undo``; a tuple is read when its count reaches
    one (a forcer's image) or zero (a member, unless determined).  counts
    tallies the branch images tried and accepted."""
    space = s.search_space
    n = space.n_points
    pinned = space.pinned(base)
    color, cells = space.partition(pinned)
    n_distinct, image_of, members_of, forcers_of, determined, incident = (
        _counting_arrays(space)
    )
    img, pre, open_points = [-1] * n, [-1] * n, list(n_distinct)
    counts = {"tried": 0, "accepted": 0} if counts is None else counts

    def try_assign(x, y, trail):
        stack = [(x, y)]
        while stack:
            a, b = stack.pop()
            cur = img[a]
            if cur != -1:
                if cur != b:
                    return False
                continue
            if pre[b] != -1 or color[a] != color[b]:
                return False
            img[a] = b
            pre[b] = a
            trail.append(a)
            through_a = incident[a]
            for k, tid in enumerate(through_a):
                left = open_points[tid] - 1
                open_points[tid] = left
                if left == 0:
                    if determined[tid] or image_of[tid](img) in members_of[tid]:
                        continue
                elif left > 1 or not forcers_of[tid]:
                    continue
                else:
                    for q, lookup in forcers_of[tid]:
                        if img[q] == -1:
                            image_q = lookup.get(image_of[tid](img))
                            break
                    else:
                        continue
                    if image_q is not None:
                        stack.append((q, image_q))
                        continue
                for tid in through_a[k + 1:]:
                    open_points[tid] -= 1
                return False
        return True

    def undo(trail):
        for a in reversed(trail):
            pre[img[a]] = -1
            img[a] = -1
            for tid in incident[a]:
                open_points[tid] += 1

    seed = []
    for p in pinned:
        if not try_assign(p, p, seed):
            return
    for ex, ey in sorted((constraints or {}).items()):
        if not try_assign(space.point(ex), space.point(ey), seed):
            return
    lead_points = list(space.lead_points(lead))
    n_lead = len(lead_points)
    order = lead_points + sorted(
        (p for p in range(n) if img[p] == -1 and p not in lead_points),
        key=lambda p: (len(cells[color[p]]), p),
    )

    def gen(pos, lead_open):
        while pos < len(order) and img[order[pos]] != -1:
            pos += 1
        if lead_open and pos >= n_lead:
            rest = gen(pos, False)
            try:
                for flat in rest:
                    yield flat
                    break
            finally:
                rest.close()
            return
        if pos == len(order):
            yield tuple(img)
            return
        x = order[pos]
        for y in cells[color[x]]:
            if pre[y] != -1:
                continue
            trail = []
            counts["tried"] += 1
            try:
                if try_assign(x, y, trail):
                    counts["accepted"] += 1
                    yield from gen(pos + 1, lead_open)
            finally:
                undo(trail)

    yield from gen(0, n_lead > 0)


class _CountedWaves:
    """Counts the branch images the compiled kernel tries and accepts: every
    run of a wave but the first on a search's image array, which is its
    seed."""

    def __init__(self, monkeypatch):
        from groupoidlab import automorphisms

        self.tried = self.accepted = 0
        self.arrays = []
        run = automorphisms._wave

        def counted(wave, values, img, pre, color):
            ok = run(wave, values, img, pre, color)
            if any(img is seen for seen in self.arrays):
                self.tried += 1
                self.accepted += ok
            else:
                self.arrays.append(img)
            return ok

        monkeypatch.setattr(automorphisms, "_wave", counted)

    def take(self):
        counts = {"tried": self.tried, "accepted": self.accepted}
        self.tried = self.accepted = 0
        return counts


def _stopped(search, stop):
    """The arrays a search yields before stop of them (all when None), the
    search closed after them."""
    try:
        return list(search if stop is None else itertools.islice(search, stop))
    finally:
        search.close()


def _assert_kernels_agree(s, searches, waves):
    # each search on the compiled kernel and on the counting kernel: the
    # same arrays in the same order from the same branch counts
    from groupoidlab.automorphisms import _solutions

    for base, constraints, lead, stop in searches:
        arrays = _stopped(_solutions(s, base, constraints, lead), stop)
        counts = waves.take()
        expected = {"tried": 0, "accepted": 0}
        oracle = _stopped(_counting_solutions(s, base, constraints, lead, expected), stop)
        assert (arrays, counts) == (oracle, expected), (base, constraints, lead, stop)


def _kernel_searches(s):
    """(base, constraints, lead, stop) on a standard groupoid: unconstrained,
    constrained, lead and stopped searches, among them contradictory
    constraints, a lead with a repeated element and one the seed forces, and
    after each stopped search a fresh search of the same key."""
    mor01, mor12 = morphisms_between(s, 0, 1), morphisms_between(s, 1, 2)
    f, g = morphism_tuple(s, mor01[0]), morphism_tuple(s, mor01[-1])
    h = morphism_tuple(s, mor12[0])
    source, pbase = object_closure(s, 0), pair_base(s, 0, 1)
    m0, m1 = Element("M", mor01[0]), Element("M", mor01[1])
    return [
        (source, None, (), None),
        (pbase, None, (), None),
        (source, dict(zip(f, g)), (), None),
        (source, {m0: m1}, (), 1),                      # carries
        (source, {m0: m1}, (), None),
        (pbase, {e: e for e in h}, (), 2),              # orbit_certificate
        (pbase, {e: e for e in h}, (), None),
        (source, {Element("O", 0): Element("O", 1)}, (), None),  # against the pinned set
        (source, {m0: m1, m1: m1}, (), None),           # against each other
        ((), None, f, None),
        ((), None, f, 1),                               # a lead search closed mid-way
        ((), None, f, None),
        (source, None, f + f[:1] + h, None),            # a repeated lead element
        (pbase, None, (m0,) + h, None),                 # a lead the seed forces
    ]


@pytest.mark.parametrize("case", sorted(REFINEMENT_CASES))
def test_compiled_propagation_matches_the_counting_kernel(case, monkeypatch):
    waves = _CountedWaves(monkeypatch)
    s = REFINEMENT_CASES[case]()
    _assert_kernels_agree(s, _kernel_searches(s), waves)


def test_stopped_searches_keep_their_answers(monkeypatch):
    # carries and orbit_certificate stop their searches early, on plans kept
    # by earlier searches of the same key or not; their answers equal the
    # counting kernel's, and so do the full searches after them
    from groupoidlab.automorphisms import orbit_certificate

    waves = _CountedWaves(monkeypatch)
    s = _standard("quaternion8", True)
    source, pbase = object_closure(s, 0), pair_base(s, 0, 1)
    mor01 = morphisms_between(s, 0, 1)
    x = (Element("M", mor01[0]),)
    h = morphism_tuple(s, morphisms_between(s, 1, 2)[0])
    for m in mor01[:6]:
        y = (Element("M", m),)
        expected = next(_counting_solutions(s, source, dict(zip(x, y))), None) is not None
        assert carries(s, source, x, y) == expected
    fixing = list(itertools.islice(_counting_solutions(s, pbase, {e: e for e in h}), 2))
    assert orbit_certificate(s, pbase, h)[1] == (len(fixing) == 1)
    waves.take()
    _assert_kernels_agree(s, [
        (source, dict(zip(x, (Element("M", mor01[5]),))), (), None),
        (pbase, {e: e for e in h}, (), None),
    ], waves)


def _one_sort(size, **relations):
    """One sort A of the given size and the named relations on it."""
    from groupoidlab.structures import MultiSortedStructure, Relation

    return MultiSortedStructure(
        sorts=(("A", size),),
        functions=(),
        relations=tuple(
            Relation(name, ("A",) * len(tuples[0]), tuples) for name, tuples in relations.items()
        ),
    )


# structures on which one check of the compiled kernel decides a branch
PROPAGATION_CASES = {
    # R's last position is functional, so b -> b2 forces c to c2, whose
    # colour differs; S is not functional, so only the colour says so
    "forced-colour": lambda: _one_sort(
        10,
        R=((0, 2, 4), (0, 3, 6), (1, 2, 7), (1, 3, 5)),
        S=((4, 8), (4, 9), (5, 8), (5, 9)),
    ),
    # over 5, a branch completes a single edge, which fails
    "single-tuple": lambda: _one_sort(6, edge=((0, 1), (0, 2), (1, 0), (1, 3), (5, 4))),
    # nothing to propagate: only the seed's own checks reject constraints
    "bare": lambda: _one_sort(3),
    # one cell, no functional direction: every tuple is read at completion
    "circulant": lambda: _one_sort(
        7,
        edge=tuple(sorted((i, (i + d) % 7) for i in range(7) for d in (1, 3))),
        meet=tuple(sorted((i, (i + 1) % 7, (i + 5) % 7) for i in range(7))),
    ),
}


@pytest.mark.parametrize("case", sorted(PROPAGATION_CASES))
def test_compiled_propagation_matches_the_counting_kernel_on_small_structures(case, monkeypatch):
    waves = _CountedWaves(monkeypatch)
    s = PROPAGATION_CASES[case]()
    points = s.search_space.elements
    # unconstrained, lead and stopped searches, then constraints sending
    # one or two points to each target, each with two leads of one key
    first, last = points[0], points[-1]
    searches = [((), None, (), None), ((), None, points[:2], None), ((), None, (last, last), 1)]
    searches += [((p,), None, (), None) for p in points]
    for p in points:
        for constraints in ({first: p}, {first: p, last: p}):
            searches += [((), constraints, lead, None) for lead in ((), (last,))]
    _assert_kernels_agree(s, searches, waves)


@st.composite
def _drawn_propagation_cases(draw):
    """A small structure with a function, a binary function, unary, binary
    and ternary relations whose tuples may hold a point twice, a nullary
    relation that holds and one that does not, an empty relation and maybe
    a constant, with drawn searches on it: a base, constraints that may
    contradict the pinned set or each other, a lead that may repeat an
    element or be forced by the seed, and where to stop.  Half the
    structures are closed under the shift i -> i + 1 of sort A, so their
    stable colourings have few cells and the search reads many tuples."""
    from groupoidlab.structures import Constant, Function, MultiSortedStructure, Relation

    a, b = draw(st.integers(1, 6)), draw(st.integers(1, 3))
    shifted = draw(st.booleans())
    cell = {"A": st.integers(0, a - 1), "B": st.integers(0, b - 1)}

    def shifts(t, sorts):
        steps = range(a) if shifted else (0,)
        return {tuple((v + k) % a if s == "A" else v for v, s in zip(t, sorts)) for k in steps}

    def tuples(*sorts):
        drawn = draw(st.lists(st.tuples(*(cell[s] for s in sorts)), unique=True, max_size=6))
        return tuple(sorted(set().union(*(shifts(t, sorts) for t in drawn))))

    def rows(*args):
        # a total function into A: one drawn value per shift orbit of arguments
        table = {}
        for t in itertools.product(*(range(a if s == "A" else b) for s in args)):
            if t not in table:
                v = draw(cell["A"])
                for k in range(a) if shifted else (0,):
                    u = tuple((x + k) % a if s == "A" else x for x, s in zip(t, args))
                    table[u] = (v + k) % a
        return tuple(sorted(t + (v,) for t, v in table.items()))

    constants = (Constant("c", "B", draw(cell["B"])),) if draw(st.booleans()) else ()
    s = MultiSortedStructure(
        sorts=(("A", a), ("B", b)),
        functions=(Function("f", ("A",), "A", rows("A")), Function("g", ("A", "B"), "A", rows("A", "B"))),
        relations=(
            Relation("flag", (), ((),)),
            Relation("never", (), ()),
            Relation("none", ("A", "B"), ()),
            Relation("red", ("A",), tuples("A")),
            Relation("edge", ("A", "A"), tuples("A", "A")),
            Relation("meet", ("A", "B", "A"), tuples("A", "B", "A")),
        ),
        constants=constants,
    )
    elements = st.sampled_from(s.search_space.elements)
    searches = []
    for _ in range(draw(st.integers(1, 4))):
        base = tuple(draw(st.lists(elements, unique=True, max_size=2)))
        constraints = draw(st.none() | st.dictionaries(elements, elements, max_size=3))
        lead = tuple(draw(st.lists(elements, max_size=4))) if constraints is None else ()
        stop = draw(st.none() | st.integers(1, 3))
        searches.append((base, constraints, lead, stop))
    return s, searches


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(case=_drawn_propagation_cases())
def test_compiled_propagation_matches_the_counting_kernel_on_drawn_structures(case):
    # each search twice, the second time on the plans the first one kept;
    # monkeypatch is function-scoped, so the counter is installed per draw
    s, searches = case
    with pytest.MonkeyPatch.context() as monkeypatch:
        waves = _CountedWaves(monkeypatch)
        _assert_kernels_agree(s, searches + searches, waves)
