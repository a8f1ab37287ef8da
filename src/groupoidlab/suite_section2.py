"""The section2 suite: claims about the standard connected groupoid with a
given vertex group, on its plain encoding.  It reads orbits, restriction
groups and one orbit certificate, and needs no Y-set."""

from __future__ import annotations

import functools
from math import prod
from typing import Iterator, Optional

from .automorphisms import (
    Automorphism,
    RestrictedAutGroup,
    is_automorphism,
    orbit_certificate,
    orbit_of,
    restricted_group,
    setwise_restricted_group,
)
from .errors import ClaimFailure, InvalidInput
from .groups import FiniteGroup, _isomorphic, center
from .groupoids import vertex_group
from .report import ACL_SURROGATE, TYPE_SURROGATE, Claim
from .structures import (
    Element,
    MultiSortedStructure,
    decode_groupoid,
    has_cover,
    morphisms_between,
    object_closure,
    objects_of,
    pair_base,
    vertex_morphisms,
)


def choice_family_map(
    s: MultiSortedStructure, a: int, family: dict[int, int]
) -> Automorphism:
    """The structure map induced by one vertex morphism choice per object != a:
    identity on objects and on the vertex group at a, translation elsewhere."""
    gpd = decode_groupoid(s)
    off = s.search_space.offsets["M"]
    images = list(range(s.carrier_size))
    for m in range(s.sort_size("M")):
        u, v = gpd.init[m], gpd.ter[m]
        img = m
        if u != a:
            img = gpd.compose(gpd.inverse[family[u]], img)
        if v != a:
            img = gpd.compose(img, family[v])
        images[off + m] = off + img
    return Automorphism(tuple(images), s)


def _failing_generator(
    s: MultiSortedStructure, a: int, base: tuple[Element, ...]
) -> Optional[dict]:
    """The first non-identity single-coordinate family (one object u != a
    takes a morphism of Mor(u, u), every other its identity), last object
    first, then by morphism index, whose choice-family map at a is not in
    Aut(s/base), with its problem; None when every one is.  A member is an
    automorphism fixing every point of base, so no group is needed.

    The map of f after the map of g is the map of the coordinatewise product
    g(u) . f(u), by associativity in the decoded groupoid, and Aut(s/base) is
    closed under composition, so these families generate every member.  The
    maps are injective in the family: on m: a -> u the map of f is m . f(u),
    and the groupoid cancels.  When every identity is the least morphism of
    its vertex group, the failure is the product order's first: if F is that
    and j its first non-identity object, F with j reset to the identity comes
    earlier and passes, so the family (j -> F(j)), no later than F, fails and
    is F.  Otherwise it is some failing single-coordinate family."""
    gpd = decode_groupoid(s)
    base_points = [s.search_space.point(e) for e in base]
    identities = {u: gpd.identities[u] for u in objects_of(s) if u != a}
    for u in reversed(identities):
        for x in vertex_morphisms(s, u):
            if x == identities[u]:
                continue
            family = {**identities, u: x}
            aut = choice_family_map(s, a, family)
            if not is_automorphism(s, aut):
                return {"family": family, "problem": "not an automorphism"}
            if any(aut.images[p] != p for p in base_points):
                return {"family": family, "problem": "not in the stabilizer"}
    return None


def claims(s: MultiSortedStructure, g: FiniteGroup) -> Iterator[Claim]:
    """Claims about the standard connected groupoid with vertex group g:
    the orbit coset is the center translate, its restriction group is the
    center, and the morphism-set restriction group is g itself.  The
    choice-family maps are |G|^(n-1) distinct members of the pointwise
    stabiliser of all objects and the vertex group at a: the maps compose
    as their families multiply, so the (n-1)(|G|-1) maps of the non-identity
    single-coordinate families are checked for membership directly and
    generate the rest; the first that fails is the witness, in the order of
    ``_failing_generator``.  The stabiliser has that order, read by
    orbit-stabiliser (``orbit_certificate``).  No claim enumerates a group."""
    if has_cover(s):
        raise InvalidInput("standard-model claims run on the plain encoding")
    n = s.sort_size("O")
    if n < 2:
        raise InvalidInput("need at least two objects")
    gpd = decode_groupoid(s)
    a, b = 0, 1
    f0 = min(morphisms_between(s, a, b))
    pbase = pair_base(s, a, b)
    vg_a = vertex_group(gpd, a)
    z_members = [
        vg_a.members[i] for i in center(vg_a.group).members
    ]

    @functools.cache
    def coset_orbit() -> tuple[tuple[Element, ...], ...]:
        return orbit_of(s, pbase, (Element("M", f0),))

    def coset() -> Optional[object]:
        orbit = {t[0].index for t in coset_orbit()}
        expected = {gpd.compose(x, f0) for x in z_members}
        if orbit != expected:
            return {"orbit": sorted(orbit), "center_translates": sorted(expected)}
        for x in vg_a.members:
            lands = gpd.compose(x, f0) in orbit
            central = x in z_members
            if lands != central:
                return {"element": x, "in_orbit": lands, "central": central}
        return None

    yield Claim(
        "center-coset",
        "the orbit of f0 over the pair base is exactly its translate by the "
        "central vertex morphisms, element by element",
        coset,
        surrogates=(TYPE_SURROGATE, ACL_SURROGATE),
    )

    def coset_group() -> Optional[object]:
        rg = restricted_group(s, pbase, coset_orbit())
        zg = center(g).as_group()
        if not _isomorphic(rg.group, zg):
            return {"restricted_order": rg.group.order, "center_order": zg.order}
        return None

    yield Claim(
        "coset-group-is-center",
        "the restriction group on the coset is isomorphic to the center of g",
        coset_group,
        surrogates=(ACL_SURROGATE,),
    )

    @functools.cache
    def mor_group_ab() -> RestrictedAutGroup:
        mor_ab = tuple((Element("M", m),) for m in morphisms_between(s, a, b))
        return setwise_restricted_group(s, object_closure(s, a), mor_ab)

    def mor_group() -> Optional[object]:
        rg = mor_group_ab()
        if not _isomorphic(rg.group, g):
            return {"restricted_order": rg.group.order, "group_order": g.order}
        return None

    yield Claim(
        "morphism-group-is-g",
        "the restriction group on Mor(a,b) over the source closure is "
        "isomorphic to g",
        mor_group,
        surrogates=(ACL_SURROGATE,),
    )

    def mor_group_center() -> Optional[object]:
        zc = center(mor_group_ab().group).as_group()
        zg = center(g).as_group()
        if not _isomorphic(zc, zg):
            return {"center_order": zc.order, "expected": zg.order}
        return None

    yield Claim(
        "morphism-group-center",
        "the center of that restriction group is isomorphic to the center of g",
        mor_group_center,
        surrogates=(ACL_SURROGATE,),
    )

    base_oga = tuple(Element("O", o) for o in objects_of(s)) + tuple(
        Element("M", m) for m in vertex_morphisms(s, a)
    )

    @functools.cache
    def failing_generator() -> Optional[dict]:
        return _failing_generator(s, a, base_oga)

    # the number of choice-family maps, all distinct
    families = prod(len(vertex_morphisms(s, u)) for u in objects_of(s) if u != a)

    def choice_maps() -> Optional[object]:
        failed = failing_generator()
        if failed is not None:
            return failed
        if families != g.order ** (n - 1):
            return {"distinct_maps": families}
        return None

    yield Claim(
        "choice-family-maps",
        "every choice-family map is a structure automorphism and they are "
        "pairwise distinct members of the base stabilizer",
        choice_maps,
    )

    def stab_order() -> Optional[object]:
        # the lead pins the stabilizer: a morphism u -> v is m_u^-1 . x . m_v
        # with x in the vertex group at a, m_u the lead's morphism a -> u
        lead = tuple(
            Element("M", min(morphisms_between(s, a, u))) for u in objects_of(s) if u != a
        )
        cell_product, alone = orbit_certificate(s, base_oga, lead)
        if not alone:
            raise ClaimFailure(
                "stabilizer-order",
                {"lead": [e.index for e in lead], "problem": "a second automorphism fixes the lead"},
            )
        # the stabilizer's order is the lead's orbit size, at most
        # cell_product; when every generator passes, the families are members
        order = (
            families if failing_generator() is None and cell_product == families
            else len(orbit_of(s, base_oga, lead))
        )
        expect = g.order ** (n - 1)
        if order != expect:
            return {"order": order, "expected": expect}
        return None

    yield Claim(
        "stabilizer-order",
        "the pointwise stabilizer of all objects and one vertex group has "
        "order |G|^(n-1)",
        stab_order,
    )
