import pytest

from groupoidlab import (
    AxiomViolation,
    FiniteGroupoid,
    NonAbelianVertex,
    binding_group,
    build_standard_groupoid,
    cyclic_group,
    isomorphism_search,
    symmetric_group,
    validate_groupoid,
    vertex_group,
)


def test_standard_sizes():
    g = build_standard_groupoid(cyclic_group(2), 3)
    assert g.n_objects == 3 and g.n_morphisms == 18
    assert all(
        len(g.morphisms_between(a, b)) == 2 for a in range(3) for b in range(3)
    )
    indiscrete = build_standard_groupoid(cyclic_group(1), 4)
    assert indiscrete.n_morphisms == 16


def test_standard_validates_and_is_connected():
    # one object with one morphism: every associativity row has one entry
    for group, n in ((cyclic_group(2), 3), (symmetric_group(3), 2), (cyclic_group(1), 1)):
        g = build_standard_groupoid(group, n)
        validate_groupoid(g)
        assert g.is_connected()


def test_validate_rejects_mismatched_composition():
    g = build_standard_groupoid(cyclic_group(2), 2)
    extra = g.composition + ((0, g.n_morphisms - 1, 0),)
    bad = FiniteGroupoid(
        n_objects=g.n_objects,
        init=g.init,
        ter=g.ter,
        inverse=g.inverse,
        identities=g.identities,
        composition=extra,
    )
    with pytest.raises(AxiomViolation) as exc:
        validate_groupoid(bad)
    assert exc.value.kind == "composability"


def test_validate_rejects_broken_associativity():
    g = build_standard_groupoid(cyclic_group(2), 2)
    # redirect one non-identity composition result inside the same hom-set
    broken = []
    done = False
    for f, h, fh in g.composition:
        if not done and g.init[f] != g.ter[h] and f != g.identities[g.init[f]]:
            others = [m for m in g.morphisms_between(g.init[f], g.ter[h]) if m != fh]
            broken.append((f, h, others[0]))
            done = True
        else:
            broken.append((f, h, fh))
    bad = FiniteGroupoid(
        n_objects=g.n_objects,
        init=g.init,
        ter=g.ter,
        inverse=g.inverse,
        identities=g.identities,
        composition=tuple(broken),
    )
    with pytest.raises(AxiomViolation):
        validate_groupoid(bad)


def test_vertex_groups():
    g3 = build_standard_groupoid(cyclic_group(3), 2)
    assert vertex_group(g3, 0).group.order == 3
    gs = build_standard_groupoid(symmetric_group(3), 2)
    vg = vertex_group(gs, 1)
    assert vg.group.order == 6 and not vg.group.is_abelian()
    assert isomorphism_search(vg.group, symmetric_group(3)) is not None
    ind = build_standard_groupoid(cyclic_group(1), 3)
    assert vertex_group(ind, 2).group.order == 1


def test_binding_group_examples():
    b = binding_group(build_standard_groupoid(cyclic_group(2), 3))
    assert b.group.order == 2
    assert [len(c) for c in b.classes] == [3, 3]
    triv = binding_group(build_standard_groupoid(cyclic_group(1), 5))
    assert triv.group.order == 1
    with pytest.raises(NonAbelianVertex):
        binding_group(build_standard_groupoid(symmetric_group(3), 2))


def test_binding_class_meets_each_vertex_once():
    b = binding_group(build_standard_groupoid(cyclic_group(4), 3))
    gpd = b.groupoid
    for cls in b.classes:
        for a in range(gpd.n_objects):
            assert len(cls.intersection(gpd.morphisms_between(a, a))) == 1


def test_bind_act_examples():
    # binding class k acts on f by composing with its representative at
    # ter(f), which agrees with its representative at init(f) acting first;
    # exactly one class moves each f onto each target in Mor(0, 1)
    g = build_standard_groupoid(cyclic_group(2), 2)
    b = binding_group(g)
    mor = g.morphisms_between(0, 1)

    def act(k, f):
        return g.compose(f, b.reps[k][1])

    for k in range(b.group.order):
        for f in mor:
            assert act(k, f) == g.compose(b.reps[k][0], f)
    assert [act(0, f) for f in mor] == list(mor)
    assert act(1, mor[0]) == mor[1]
    for x in mor:
        for y in mor:
            assert len([k for k in range(b.group.order) if act(k, x) == y]) == 1


def test_connected_groupoid_vertex_groups_pairwise_isomorphic():
    g = build_standard_groupoid(cyclic_group(4), 3)
    groups = [vertex_group(g, a).group for a in range(3)]
    for x in groups:
        for y in groups:
            assert isomorphism_search(x, y) is not None


def _first_associativity_failure(gpd):
    """The first (f, g, h) with (f.g).h != f.(g.h), f, g and h in morphism
    order, by four dictionary reads per triple."""
    for f in range(gpd.n_morphisms):
        for g in range(gpd.n_morphisms):
            if gpd.ter[f] != gpd.init[g]:
                continue
            for h in range(gpd.n_morphisms):
                if gpd.ter[g] == gpd.init[h]:
                    fg, gh = gpd.compose(f, g), gpd.compose(g, h)
                    if gpd.compose(fg, h) != gpd.compose(f, gh):
                        return (f, g, h)
    return None


def _with_entry(gpd, pair, result):
    return FiniteGroupoid(
        n_objects=gpd.n_objects,
        init=gpd.init,
        ter=gpd.ter,
        inverse=gpd.inverse,
        identities=gpd.identities,
        composition=tuple((f, g, result if (f, g) == pair else h) for f, g, h in gpd.composition),
    )


def test_associativity_is_checked_row_by_row_on_the_first_triple():
    # one composition entry moved inside its hom-set: the row-wise check
    # raises on the triple the triple-by-triple loop meets first
    g = build_standard_groupoid(cyclic_group(3), 3)
    assert g.compose(13, 17) == 15
    with pytest.raises(AxiomViolation) as exc:
        validate_groupoid(_with_entry(g, (13, 17), 16))
    assert (exc.value.kind, exc.value.witness) == ("associativity", (3, 13, 17))
    for f, h, fh in g.composition[::7]:
        for other in g.morphisms_between(g.init[fh], g.ter[fh]):
            if other == fh:
                continue
            bad = _with_entry(g, (f, h), other)
            triple = _first_associativity_failure(bad)
            with pytest.raises(AxiomViolation) as exc:
                validate_groupoid(bad)
            if triple is not None:
                assert (exc.value.kind, exc.value.witness) == ("associativity", triple)
