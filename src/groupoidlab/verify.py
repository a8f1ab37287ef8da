"""Witness checking, the claim-verification suites and their registry.

Each suite returns a Report whose entries carry exact pass/fail status and
a concrete witness on failure.  Types and orbits are replaced by their
finite surrogates: orbit equality for type equality, fixed points for
definable closure, distinct objects for independence.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from math import prod
from typing import Callable, Optional

from .automorphisms import (
    Automorphism,
    RestrictedAutGroup,
    _carrier_index,
    _fixed,
    _restriction,
    carries,
    check_budget,
    is_automorphism,
    orbit_certificate,
    orbit_of,
    restricted_group,
    setwise_restricted_group,
)
from .errors import BudgetExceeded, ClaimFailure, GroupoidLabError, InvalidInput
from .groups import FiniteGroup, center, compose_perms, cyclic_group, isomorphism_search
from .groupoids import build_standard_groupoid, vertex_group
from .limits import (
    GroupHomomorphism,
    finite_stage_limit,
    raw_restriction_epimorphism,
    validate_system,
)
from .paths import (
    ExtendedGroupoid,
    all_paths,
    build_extended_groupoid,
    class_key,
    classes_match_folds,
    fold_vector,
    probe_candidates,
    probe_verdict,
    reduce_path,
    reductions_hold,
    verify_reduction,
)
from .report import FAIL, SKIPPED, ClaimEntry, Report
from .structures import (
    Element,
    MultiSortedStructure,
    decode_groupoid,
    encode_groupoid,
    has_cover,
    morphism_tuple,
    morphisms_between,
    object_closure,
    object_tuple,
    objects_of,
    pair_base,
    pair_closure,
    vertex_morphisms,
)
from .witness import YTuple, compute_Y, raw_morphism, x_tuples

INDEPENDENCE_SURROGATE = "independence-as-distinct-objects"
TYPE_SURROGATE = "type-equality-as-orbit"
DCL_SURROGATE = "dcl-as-fixed-points"
ACL_SURROGATE = "acl-as-explicit-closure-sets"


def _isomorphic(g: FiniteGroup, h: FiniteGroup) -> bool:
    """Orders first: ``isomorphism_search`` raises OrderMismatch on unequal ones."""
    return g.order == h.order and isomorphism_search(g, h) is not None


@dataclass(frozen=True)
class WitnessInstance:
    """Supplied witness data: three object tuples and three morphism tuples
    with endpoints embedded; the composition relation plays the formula."""

    structure: MultiSortedStructure
    b0: tuple[Element, ...]
    b1: tuple[Element, ...]
    b2: tuple[Element, ...]
    f01: YTuple
    f12: YTuple
    f02: YTuple

    @property
    def objects(self) -> tuple[int, int, int]:
        return (self.b0[-1].index, self.b1[-1].index, self.b2[-1].index)


def standard_witness(s: MultiSortedStructure) -> WitnessInstance:
    """The canonical witness on objects 0, 1, 2 of an encoded groupoid."""
    if s.sort_size("O") < 3:
        raise InvalidInput("witness needs at least three objects")
    gpd = decode_groupoid(s)
    m01 = min(morphisms_between(s, 0, 1))
    m12 = min(morphisms_between(s, 1, 2))
    m02 = gpd.compose(m01, m12)
    return WitnessInstance(
        structure=s,
        b0=object_tuple(s, 0),
        b1=object_tuple(s, 1),
        b2=object_tuple(s, 2),
        f01=morphism_tuple(s, m01),
        f12=morphism_tuple(s, m12),
        f02=morphism_tuple(s, m02),
    )


def check_witness(w: WitnessInstance) -> Report:
    s = w.structure
    report = Report(instance=f"witness over objects {w.objects}")
    o0, o1, o2 = w.objects

    def distinct() -> Optional[object]:
        if len({o0, o1, o2}) != 3:
            return f"objects must be pairwise distinct, got {w.objects}"
        return None

    report.add(
        "objects-distinct",
        "the three base objects are pairwise distinct",
        distinct,
        surrogates=(INDEPENDENCE_SURROGATE,),
    )
    if report.failures():
        return report

    pairs = (
        ("f01", w.f01, w.b0, w.b1, o0, o1),
        ("f12", w.f12, w.b1, w.b2, o1, o2),
        ("f02", w.f02, w.b0, w.b2, o0, o2),
    )

    def embedded() -> Optional[object]:
        for name, f, bi, bj, oi, oj in pairs:
            if f[: len(bi)] != bi or f[len(bi):-1] != bj:
                return f"{name} does not embed its endpoint tuples"
            m = raw_morphism(f)
            if m not in morphisms_between(s, oi, oj):
                return f"{name} morphism is not in Mor({oi},{oj})"
            closure = set(pair_closure(s, oi, oj))
            if any(e not in closure for e in f):
                return f"{name} leaves the pair closure"
            if _fixed(s, object_closure(s, oi) + object_closure(s, oj), f):
                return f"{name} is definable from the separate closures"
        return None

    report.add(
        "endpoints-embedded",
        "morphism tuples embed endpoints, stay in the pair closure, "
        "and are not definable from the separate closures",
        embedded,
        surrogates=(ACL_SURROGATE, DCL_SURROGATE),
    )

    def equivalent() -> Optional[object]:
        for name, f in (("f12", w.f12), ("f02", w.f02)):
            if not carries(s, (), w.f01, f):
                return f"{name} not in the empty-base orbit of f01"
        return None

    report.add(
        "type-equivalence",
        "the three endpoint/morphism tuples lie in one orbit over the empty base",
        equivalent,
        surrogates=(TYPE_SURROGATE,),
    )

    def unique() -> Optional[object]:
        comp = {(f, g): h for f, g, h in s.relation("comp").tuples}
        m01, m12, m02 = map(raw_morphism, (w.f01, w.f12, w.f02))
        if comp.get((m01, m12)) != m02:
            return f"composition triple fails: ({m01}, {m12}, {m02})"
        sols_x = [m for m in morphisms_between(s, o0, o1) if comp.get((m, m12)) == m02]
        if sols_x != [m01]:
            return f"slot x solutions {sols_x}"
        sols_y = [m for m in morphisms_between(s, o1, o2) if comp.get((m01, m)) == m02]
        if sols_y != [m12]:
            return f"slot y solutions {sols_y}"
        sols_z = [m for m in morphisms_between(s, o0, o2) if comp.get((m01, m12)) == m]
        if sols_z != [m02]:
            return f"slot z solutions {sols_z}"
        return None

    report.add(
        "composition-uniqueness",
        "each morphism tuple is the unique solution of the composition "
        "relation given the other two",
        unique,
    )

    def isolation() -> Optional[object]:
        for name, f, bi, bj, oi, oj in pairs:
            endpoints = bi + bj
            big = set(orbit_of(s, endpoints, f))
            small = set(orbit_of(s, object_closure(s, oi) + object_closure(s, oj), f))
            if big != small:
                return f"{name}: endpoint orbit differs from closure orbit"
        return None

    report.add(
        "isolation-surrogate",
        "isolation replaced by orbit determination: the endpoint tuples "
        "already pin the orbit over the full closures",
        isolation,
        surrogates=("isolation-as-orbit-determination",),
        surrogate_status=True,
    )
    return report


# ---------------------------------------------------------------------------
# standard-model claims


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


def verify_section2(s: MultiSortedStructure, g: FiniteGroup) -> Report:
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
    report = Report(instance=f"standard(|G|={g.order}, n={n}) plain")
    gpd = decode_groupoid(s)
    a, b = 0, 1
    f0 = min(morphisms_between(s, a, b))
    pbase = pair_base(s, a, b)
    vg_a = vertex_group(gpd, a)
    z_members = [
        vg_a.members[i] for i in center(vg_a.group).members
    ]

    @functools.cache
    def coset_orbit() -> tuple[YTuple, ...]:
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

    report.add(
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

    report.add(
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

    report.add(
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

    report.add(
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

    report.add(
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

    report.add(
        "stabilizer-order",
        "the pointwise stabilizer of all objects and one vertex group has "
        "order |G|^(n-1)",
        stab_order,
    )
    return report


def verify_section3(s: MultiSortedStructure) -> Report:
    """Claims about the extended groupoid machinery on one instance."""
    n = s.sort_size("O")
    o0, o1, _ = standard_witness(s).objects
    ys = s.y_system
    gpd = ys.gpd
    kind = "double-cover" if has_cover(s) else "plain"
    report = Report(instance=f"{kind} standard(|G|={len(vertex_morphisms(s, 0))}, n={n})")
    all_pairs = [
        (a, b) for a in objects_of(s) for b in objects_of(s) if a != b
    ]

    def uniform_action() -> Optional[object]:
        # some automorphism over the base multiplies every designated
        # morphism by sigma: one search constrained to send the designated
        # tuple to its multiple, per sigma and direction
        others = [u for u in objects_of(s) if u != o0]
        gs = [min(morphisms_between(s, o0, u)) for u in others]
        hs = [min(morphisms_between(s, u, o0)) for u in others]
        base = tuple(e for u in objects_of(s) for e in object_closure(s, u))

        def carried(ms: list[int], images: list[int]) -> bool:
            return carries(
                s, base,
                tuple(Element("M", m) for m in ms),
                tuple(Element("M", m) for m in images),
            )

        for sigma in vertex_morphisms(s, o0):
            if not carried(gs, [gpd.compose(sigma, g) for g in gs]):
                return {"sigma": sigma, "direction": "out"}
            if not carried(hs, [gpd.compose(h, sigma) for h in hs]):
                return {"sigma": sigma, "direction": "in"}
        return None

    report.add(
        "uniform-action",
        "for every vertex morphism there is an automorphism fixing all object "
        "closures that multiplies every designated morphism by it",
        uniform_action,
        surrogates=(INDEPENDENCE_SURROGATE,),
    )

    def regular_f() -> Optional[object]:
        # f_group raises RegularityFailure unless its action is regular
        for a, b in all_pairs:
            ys.f_group(a, b)
        return None

    report.add(
        "f-action-regular",
        "the restriction group of every Y-set acts regularly on it",
        regular_f,
    )

    f_size = ys.f_group(o0, o1).order

    report.add(
        "f-group-size-recorded",
        f"the Y-set group at the reference pair has order {f_size}",
        lambda: None,
    )

    def central() -> Optional[object]:
        for a, b in all_pairs:
            fg = ys.f_group(a, b)
            gg = ys.g_subgroup(a, b)
            x_count = len(x_tuples(s, a, b))
            if gg.order != x_count:
                return {"pair": (a, b), "G_order": gg.order, "X": x_count}
            fset = set(fg.perms)
            for p in gg.perms:
                if p not in fset:
                    return {"pair": (a, b), "problem": "not a subgroup"}
                for q in fg.perms:
                    if compose_perms(p, q) != compose_perms(q, p):
                        return {"pair": (a, b), "noncommuting": (p, q)}
        return None

    report.add(
        "binding-central",
        "the pair-base restriction group embeds centrally in every F-group",
        central,
    )

    def composites() -> Optional[object]:
        # The movers of f in Y(a, b) are the m in Aut(s/pair_closure(c, a))
        # sending the reference ref to f, so f has one exactly when it is in
        # ref's orbit.  Every mover gives the same composite h = m(t0),
        # t0 = object_tuple(c) + object_tuple(b) + (g_raw . raw(ref),): m
        # fixes object_tuple(c) and g_raw, sends object_tuple(b) to the
        # middle of f, and keeps the comp relation, which decode_groupoid
        # checks is a function, so m(g_raw . raw(ref)) = g_raw . raw(f).
        for c, a in itertools.permutations(objects_of(s), 2):
            for b in objects_of(s):
                if b in (c, a):
                    continue
                y_ab = ys.y_set(a, b)
                orbit = set(ys.pair_orbit(c, a, y_ab.reference))
                y_cb = set(ys.y_set(c, b).members)
                for g_raw in morphisms_between(s, c, a):
                    for f in y_ab.members:
                        if f not in orbit:
                            return {"triple": (c, a, b), "f": f, "problem": "no mover"}
                        h = object_tuple(s, c) + f[len(object_tuple(s, a)):-1] + (
                            Element("M", gpd.compose(g_raw, raw_morphism(f))),
                        )
                        if h not in y_cb:
                            return {"triple": (c, a, b), "f": f, "problem": "composite leaves Y"}
        return None

    report.add(
        "composite-membership",
        "composing a Y-element with a standard morphism lands in the Y-set "
        "at the composite endpoints, independently of the moving automorphism",
        composites,
        surrogates=(INDEPENDENCE_SURROGATE,),
    )

    def transport_independence() -> Optional[object]:
        ref = (o0, o1)
        targets = [ref]
        spare = [u for u in objects_of(s) if u not in ref]
        if len(spare) >= 2:
            targets.append((spare[0], spare[1]))
        for tgt in targets:  # an F-group's failure is the witness before a transport's
            ys.f_group(*tgt)
        found = [ys.transports(*tgt) for tgt in targets]
        for tgt, transports in zip(targets, found):
            if not transports:
                return {"target": tgt, "problem": "no transport automorphism"}
            if len(transports) != 1:
                return {"target": tgt, "distinct_transports": len(transports)}
        return None

    report.add(
        "transport-independence",
        "conjugation transport between F-groups does not depend on which "
        "binding-class-preserving automorphism carries one pair to the other",
        transport_independence,
        surrogates=("named-closure-as-binding-classes",),
    )

    def reference_independence() -> Optional[object]:
        y01 = ys.y_set(o0, o1)
        for ref in x_tuples(s, o0, o1):
            if ref == y01.reference:
                continue
            again = compute_Y(s, o0, o1, f=ref)
            if again.members != y01.members:
                return {"reference": ref}
        return None

    report.add(
        "y-reference-independence",
        "the Y-set does not depend on which standard morphism is the reference",
        reference_independence,
    )
    return report


def _walked(
    walk: Callable[[], bool], reference: Callable[[], Optional[object]]
) -> Optional[object]:
    """None when the path walk passes; otherwise the path-by-path reference
    check's own witness or exception, so a failing report is the reference's.
    The walk folds at probes the reference may skip, so an error it raises
    defers to the reference too."""
    try:
        if walk():
            return None
    except BudgetExceeded:
        raise
    except GroupoidLabError:
        pass
    return reference()


def verify_fgroupoid(s: MultiSortedStructure) -> Report:
    """Claims about the quotient groupoid of two-step path classes on the
    first objects of an instance with at least four objects."""
    n = s.sort_size("O")
    report = Report(instance=f"quotient groupoid on {n} objects")
    ys = s.y_system

    def wdef() -> Optional[object]:
        a, b, c = 0, 1, 2
        y_ab, y_bc = ys.y_set(a, b), ys.y_set(b, c)
        decompositions = list(itertools.product(ys.standard(a, b), ys.standard(b, c)))
        for g in range(y_ab.size):
            for h in range(y_bc.size):
                outs = {ys.compose(a, b, c, g, h, decomposition=d) for d in decompositions}
                if len(outs) != 1:
                    return {
                        "g": y_ab.members[g],
                        "h": y_bc.members[h],
                        "distinct_results": len(outs),
                    }
        return None

    report.add(
        "composition-well-defined",
        "composites agree over every decomposition",
        wdef,
    )

    def divisors() -> Optional[object]:
        a, b, c = 0, 1, 2
        y_ac, y_ab, y_bc = ys.y_set(a, c), ys.y_set(a, b), ys.y_set(b, c)
        for f in range(y_ac.size):
            for g in range(y_ab.size):
                hits = [h for h in range(y_bc.size) if ys.compose(a, b, c, g, h) == f]
                if len(hits) != 1:
                    return {"f": y_ac.members[f], "g": y_ab.members[g], "divisors": len(hits)}
        return None

    report.add("unique-divisor", "each composite has a unique divisor", divisors)

    # the cache keeps no exception, so each quotient claim fails with the
    # quotient's own witness when it cannot be built; the path claims run
    # on their own
    @functools.cache
    def quotient() -> ExtendedGroupoid:
        return build_extended_groupoid(ys)

    def builds() -> Optional[object]:
        quotient()
        return None

    report.add(
        "quotient-valid",
        "the two-step path classes assemble into a valid groupoid",
        builds,
    )

    def vertex_iso() -> Optional[object]:
        vg = vertex_group(quotient().groupoid, 0)
        fg = ys.f_group(0, 1)
        if not _isomorphic(vg.group, fg.group):
            return {"vertex_order": vg.group.order, "f_order": fg.group.order}
        return None

    report.add(
        "vertex-is-f-group",
        "quotient vertex groups are isomorphic to the Y-set groups",
        vertex_iso,
    )

    def injection() -> Optional[object]:
        gpd, ext = ys.gpd, quotient()
        inj = [ext.inject_standard(m) for m in range(gpd.n_morphisms)]
        for m1 in range(gpd.n_morphisms):
            for m2 in range(gpd.n_morphisms):
                if gpd.ter[m1] == gpd.init[m2]:
                    lhs = inj[gpd.compose(m1, m2)]
                    rhs = ext.groupoid.compose(inj[m1], inj[m2])
                    if lhs != rhs:
                        return {"pair": (m1, m2)}
        return None

    report.add(
        "injection-preserves-composition",
        "the standard groupoid embeds compatibly into the quotient",
        injection,
    )

    def sizes() -> Optional[object]:
        ext = quotient()
        for a in range(n):
            for b in range(n):
                if a == b:
                    continue
                count = sum(1 for k in ext.keys if k[1] == a and k[2] == b)
                if count != ys.y_set(a, b).size:
                    return {"pair": (a, b), "classes": count}
        return None

    report.add("classes-match-y", "morphism counts equal Y-set sizes", sizes)

    def pairwise() -> Optional[object]:
        d2 = list(all_paths(ys, 0, 1, 2))
        keys = [class_key(ys, q) for q in d2]
        # each path folded once at each of its probes; a pair compares the
        # probes it has in common, and one with none is skipped
        folds = [fold_vector(ys, q, probe_candidates(ys, q)) for q in d2]
        for i, q in enumerate(d2):
            for j, r in enumerate(d2):
                verdict = probe_verdict(q, r, folds[i], folds[j])
                if verdict is not None and verdict != (keys[i] == keys[j]):
                    return {"q": i, "r": j}
        return None

    report.add(
        "path-equivalence-consistent",
        "probe folding agrees with canonical class keys on every two-step "
        "path pair that admits a probe",
        lambda: _walked(lambda: classes_match_folds(ys, 0, 1), pairwise),
    )

    def reductions() -> Optional[object]:
        for q in all_paths(ys, 0, 1, 3):
            r = reduce_path(ys, q)
            if r.n_steps != 2 or not verify_reduction(ys, q, r):
                objs = q.objects
                steps = [ys.y_set(*objs[i: i + 2]).members[g] for i, g in enumerate(q.steps)]
                return {"objects": objs, "steps": steps}
        return None

    report.add(
        "three-step-reduction",
        "every three-step path reduces to an equivalent two-step path",
        lambda: _walked(lambda: reductions_hold(ys, 0, 1, 3), reductions),
    )
    return report


def verify_limits(s: MultiSortedStructure) -> Report:
    """Two fixed directed systems, then the restriction epimorphism and the
    restricted-group tower on the pair (0, 1) of s: the pair-base group sits
    centrally in the interdefinability-preserving group, which sits inside
    the full restriction group; both are normal; the pair-base stage is
    abelian; and the two-stage raw/full system has the full group as its
    limit."""
    report = Report(instance="directed systems")

    def chain() -> Optional[object]:
        z8, z4, z2 = cyclic_group(8), cyclic_group(4), cyclic_group(2)
        sys_chain = validate_system(
            indices=("z2", "z4", "z8"),
            order_pairs=[("z2", "z4"), ("z4", "z8")],
            groups={"z2": z2, "z4": z4, "z8": z8},
            transitions={
                ("z2", "z4"): [x % 2 for x in range(4)],
                ("z4", "z8"): [x % 4 for x in range(8)],
                ("z2", "z8"): [x % 2 for x in range(8)],
            },
        )
        lim = finite_stage_limit(sys_chain, ("z2", "z4", "z8")).group
        if not _isomorphic(lim, z8):
            return {"limit_order": lim.order}
        return None

    report.add(
        "chain-limit",
        "the mod-tower chain validates and its stage limit is the top group",
        chain,
    )

    def constant() -> Optional[object]:
        z2 = cyclic_group(2)
        sys_const = validate_system(
            indices=("lo", "hi"),
            order_pairs=[("lo", "hi")],
            groups={"lo": z2, "hi": z2},
            transitions={("lo", "hi"): [0, 1]},
        )
        lim = finite_stage_limit(sys_const, ("lo", "hi")).group
        if not _isomorphic(lim, z2):
            return {"limit_order": lim.order}
        return None

    report.add(
        "constant-limit",
        "a constant system's stage limit is the constant group",
        constant,
    )

    @functools.cache
    def epimorphism() -> GroupHomomorphism:
        return raw_restriction_epimorphism(s, 0, 1)

    def epi() -> Optional[object]:
        hom = epimorphism()
        if not hom.is_surjective():
            return {"problem": "not surjective"}
        expected_kernel = hom.source.order // hom.target.order
        if len(hom.kernel()) != expected_kernel:
            return {"kernel": len(hom.kernel()), "expected": expected_kernel}
        return None

    report.add(
        "restriction-epimorphism",
        "restricting the full-tuple group to the raw morphism is a "
        "surjection with the index-sized kernel",
        epi,
    )

    # the tower's groups are built outside its claims, so an instance they
    # cannot be built on aborts the suite as limits.instance-error
    ys = s.y_system
    f_full = ys.f_group(0, 1)
    g_sub = ys.g_subgroup(0, 1)
    y_raw = ys.raw_y_set(0, 1)
    # the interdefinability-preserving members: those whose global reps
    # stabilize every dcl-class carrier attached to the pair
    raw_index = _carrier_index(s, y_raw.members)
    g_perms = set(g_sub.perms)
    pi_perms = {
        f_full.perms[k]
        for k, rep in enumerate(f_full.reps)
        if -1 not in _restriction(rep.images, raw_index)
    }

    def tower() -> Optional[object]:
        if not g_perms <= pi_perms:
            return {"instance": "instance", "problem": "G not inside Pi"}
        if not pi_perms <= set(f_full.perms):
            return {"instance": "instance", "problem": "Pi not inside F"}
        return None

    report.add(
        "instance.tower-containment",
        "instance: pair-base group <= interdefinability-preservers <= full group",
        tower,
        surrogates=("pi-as-interdefinability-preservers",),
    )

    def central() -> Optional[object]:
        for p in g_perms:
            for q in pi_perms:
                if compose_perms(p, q) != compose_perms(q, p):
                    return {"instance": "instance", "noncommuting": (p, q)}
        return None

    report.add(
        "instance.gamma-central-in-pi",
        "instance: the pair-base group is central in the preservers",
        central,
    )

    def normal() -> Optional[object]:
        for sub, name in ((g_perms, "G"), (pi_perms, "Pi")):
            for k, g in enumerate(f_full.perms):
                gi = f_full.perms[f_full.group.inv(k)]
                if any(compose_perms(g, compose_perms(h, gi)) not in sub for h in sub):
                    return {"instance": "instance", "problem": f"{name} not normal in F"}
        return None

    report.add(
        "instance.normal-in-full-group",
        "instance: both subgroups are normal in the full restriction group",
        normal,
    )

    def abelian() -> Optional[object]:
        if not g_sub.group.is_abelian():
            return {"instance": "instance", "order": g_sub.group.order}
        return None

    report.add(
        "instance.abelian-stage",
        "instance: the pair-base stage is abelian",
        abelian,
    )

    def two_stage() -> Optional[object]:
        hom = epimorphism()
        if not hom.is_surjective():
            return {"instance": "instance", "problem": "restriction not surjective"}
        sys = validate_system(
            indices=("raw", "full"),
            order_pairs=[("raw", "full")],
            groups={"raw": hom.target.group, "full": hom.source.group},
            transitions={("raw", "full"): hom.mapping},
        )
        lim = finite_stage_limit(sys, ("raw", "full")).group
        if lim.order != hom.source.group.order:
            return {"instance": "instance", "limit": lim.order}
        return None

    report.add(
        "instance.two-stage-limit",
        "instance: the raw/full restriction system is a directed system "
        "whose stage limit is the full group",
        two_stage,
    )
    return report


# ---------------------------------------------------------------------------
# the suite registry


def _section2_structure(s: MultiSortedStructure, g: FiniteGroup) -> MultiSortedStructure:
    """The structure section2 searches: s, or on a double cover the plain
    encoding of the standard groupoid of g."""
    if has_cover(s):
        return encode_groupoid(build_standard_groupoid(g, s.sort_size("O")))
    return s


Suite = Callable[[MultiSortedStructure, FiniteGroup], Report]

# name -> (runner, minimum object count), in the order "all" runs them;
# run_suites hands section2 the structure of _section2_structure
SUITES: dict[str, tuple[Suite, int]] = {
    "section2": (verify_section2, 2),
    "section3": (lambda s, g: verify_section3(s), 3),
    "witness": (lambda s, g: check_witness(standard_witness(s)), 3),
    "fgroupoid": (lambda s, g: verify_fgroupoid(s), 4),
    "limits": (lambda s, g: verify_limits(s), 2),
}


def run_suites(
    s: MultiSortedStructure, g: FiniteGroup, suite: str, instance: str
) -> Report:
    """Run one suite of SUITES, or every suite for "all", on one structure.

    Under "all", a suite that needs more objects than s has is recorded with
    an explicit skipped entry rather than silently dropped; asked for alone,
    it is an input error.  A suite that blows up on a broken instance is
    recorded as a claim failure.  Every suite presumes a connected groupoid,
    so an empty Mor(a, b) is an input error before any suite runs, and the
    carrier budget of every structure a selected suite searches (section2's
    plain encoding on a double cover, s otherwise) is checked before any
    suite runs too.
    """
    if suite != "all" and suite not in SUITES:
        raise InvalidInput(f"unknown suite {suite!r}: expected one of {', '.join(SUITES)} or all")
    n = s.sort_size("O")
    for a, b in itertools.product(range(n), repeat=2):
        if not morphisms_between(s, a, b):
            raise InvalidInput(f"Mor({a}, {b}) is empty: the suites need a connected groupoid")
    names = list(SUITES) if suite == "all" else [suite]
    searched: dict[str, MultiSortedStructure] = {}
    for name in names:
        min_objects = SUITES[name][1]
        if n >= min_objects:
            searched[name] = _section2_structure(s, g) if name == "section2" else s
        elif suite != "all":
            raise InvalidInput(f"suite {name} needs --objects >= {min_objects}")
    for target in searched.values():
        check_budget(target)
    combined = Report(instance=instance)
    for name in names:
        runner, min_objects = SUITES[name]
        if name not in searched:
            combined.entries.append(
                ClaimEntry(
                    claim_id=f"{name}.skipped",
                    anchor=f"suite {name} skipped: needs at least {min_objects} objects",
                    status=SKIPPED,
                )
            )
            continue
        try:
            sub = runner(searched[name], g)
        except (InvalidInput, BudgetExceeded):
            raise
        except GroupoidLabError as exc:
            combined.entries.append(
                ClaimEntry(
                    claim_id=f"{name}.instance-error",
                    anchor=f"suite {name} aborted on this instance",
                    status=FAIL,
                    witness=f"{type(exc).__name__}: {exc}",
                )
            )
            continue
        for entry in sub.entries:
            entry.claim_id = f"{name}.{entry.claim_id}"
        combined.extend(sub)
    return combined
