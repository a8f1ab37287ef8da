"""Y-sets, their automorphism groups, transports and composition.

This is the machinery behind the extended groupoid: Y-sets collect the
morphism tuples equivalent to and interdefinable with a reference over the
source closure; their restriction groups act regularly; composition of
Y-elements is defined through decompositions into translated standard
morphisms, transported along a shared abstract group.

One translation spares searches (Seress, *Permutation Group Algorithms*,
2003): the group over a translated base is a conjugate,
psi Aut(s/B) psi^-1 = Aut(s/psi(B)).  The Y-set, its F-group and its
G-subgroup are searched at the reference pair (0, 1) only; every other pair
reads them off through one accepted automorphism psi_ab carrying (0, 1) to
it (``YSystem.translation``), relabelling the carrier permutations along
psi (``_carried``).  The orbits over a pair closure that section3's
``composite-membership`` reads come the same way
(``YSystem.pair_orbit``): the orbit of x over psi(B) is psi applied to the
orbit of psi^-1(x) over B.  This module is the only one that translates; a
pair with no accepted psi is searched.

Transports move the reference F-group along the automorphisms carrying
(0, 1) to (a, b) that keep every binding class: a coset psi0 . Aut(s/S)
that search constraints fix (``YSystem.transports``).  A transport reads
only what a member does to a lead, so psi0 after one member of Aut(s/S) per
image of the lead, from one lead search over S that serves every target,
gives every transport, relabelling the reference F-group by ``_carried``
too.

A Y-element is its member index in its Y-set: ``YSystem.compose`` and
``YSystem.divisor`` take and return member indices and read one composition
table per object triple (``YSystem.table``).  Member tuples are decoded
only for reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional, TypeVar

from .automorphisms import (
    Automorphism,
    RestrictedAutGroup,
    _carrier_index,
    _fixed,
    _images,
    _relabelled,
    _restricted,
    _restriction_group,
    find_automorphism,
    is_automorphism,
    orbit_of,
)
from .errors import (
    AxiomViolation,
    DecompositionFailure,
    InvalidInput,
    NotInvariant,
    RegularityFailure,
)
from .groupoids import BindingGroup, binding_group
from .structures import (
    Element,
    MultiSortedStructure,
    decode_groupoid,
    morphism_tuple,
    morphisms_between,
    object_closure,
    object_tuple,
    pair_base,
    pair_closure,
)

YTuple = tuple[Element, ...]
_T = TypeVar("_T")


@dataclass(frozen=True)
class YSet:
    base: tuple[Element, ...]
    members: tuple[YTuple, ...]
    reference: YTuple

    @property
    def size(self) -> int:
        return len(self.members)

    def index_of(self, t: YTuple) -> int:
        try:
            return self.members.index(t)
        except ValueError:
            raise DecompositionFailure("tuple not in Y-set", t) from None


def tuple_endpoints(s: MultiSortedStructure, t: YTuple) -> tuple[int, int]:
    """Source and target objects of a morphism tuple, full or raw
    single-morphism form."""
    view = s.groupoid_view
    if len(t) == 1 and t[0].sort == "M":
        return view.init[t[0].index], view.ter[t[0].index]
    part = 3 if view.cover else 1
    if len(t) != 2 * part + 1 or t[part - 1].sort != "O" or t[2 * part - 1].sort != "O":
        raise InvalidInput(f"not a morphism tuple: {t!r}")
    return t[part - 1].index, t[2 * part - 1].index


def raw_morphism(t: YTuple) -> int:
    if t[-1].sort != "M":
        raise InvalidInput(f"not a morphism tuple: {t!r}")
    return t[-1].index


def x_tuples(s: MultiSortedStructure, a: int, b: int) -> tuple[YTuple, ...]:
    """The standard-groupoid morphisms a -> b as canonically ordered tuples."""
    return tuple(morphism_tuple(s, m) for m in morphisms_between(s, a, b))


def _check_pair(s: MultiSortedStructure, a: int, b: int) -> None:
    n = s.sort_size("O")
    if not (0 <= a < n and 0 <= b < n):
        raise InvalidInput(f"Y({a}, {b}) names an object outside 0 .. {n - 1}")
    if a == b:
        raise InvalidInput("Y-sets are defined for distinct endpoints")


def compute_Y(
    s: MultiSortedStructure,
    a: int,
    b: int,
    f: Optional[YTuple] = None,
    base: Optional[tuple[Element, ...]] = None,
) -> YSet:
    """Members of the reference's orbit over the source closure that are
    interdefinable with it; always contains the full standard coset."""
    _check_pair(s, a, b)
    if base is None:
        base = object_closure(s, a)
    if f is None:
        f = x_tuples(s, a, b)[0]
    # g = sigma(f) with sigma fixing the base, so the stabilisers of base+f
    # and base+g are conjugate and have the same order: g in dcl(base+f)
    # makes them equal, which gives f in dcl(base+g).  So one direction
    # proves interdefinability, and every search pins the same set base+f.
    base_f = tuple(base) + f
    members = tuple(g for g in orbit_of(s, base, f) if g == f or _fixed(s, base_f, g))
    for t in orbit_of(s, pair_base(s, a, b), f):
        if t not in members:
            raise AxiomViolation("y-missing-standard-coset", t)
    return YSet(base=tuple(base), members=members, reference=f)


def _carried(
    psi: Automorphism, rg: RestrictedAutGroup, index: dict[tuple[int, ...], int]
) -> Optional[list[tuple[int, ...]]]:
    """rg's perms read on the carrier that index numbers by point tuples
    (``_carrier_index``), each of rg's carrier tuples replaced by its image
    under psi (``_relabelled``); None when psi does not map rg's carrier
    onto that carrier."""
    image_of = psi.images.__getitem__
    sigma = [index.get(tuple(map(image_of, t))) for t in rg.carrier_index]
    if len(sigma) != len(index) or None in sigma:
        return None
    return _relabelled(rg.perms, sigma)


class YSystem:
    """Caches Y-sets, restriction groups and transports over one structure;
    the structure's own system is ``MultiSortedStructure.y_system``.

    The Y-set, the F-group and the G-subgroup are searched at the reference
    pair (0, 1) only.  Every other pair (a, b) reads them off the reference
    pair's through psi_ab (``translation``), the first automorphism sending
    the reference's reference to the pair's own, accepted when it maps the
    source closure and the pair base of (0, 1) onto those of (a, b): it then
    conjugates every base-fixing group of the one onto the other.  A pair
    with no accepted psi is searched, which an asymmetric ``--structure``
    input may need.  Orbits over a pair closure are read the same way
    (``pair_orbit``).

    The group at the reference pair plays the role of the shared abstract
    group; transports to other pairs conjugate along object-tuple-matched
    automorphisms that fix every binding class setwise (the stand-in for
    fixing the named closure of the empty set), the coset that the class
    constraints of ``_transport_head`` fix.
    """

    ref_pair = (0, 1)

    def __init__(self, s: MultiSortedStructure):
        if s.sort_size("O") < 2:
            raise InvalidInput("need at least two objects")
        self.structure = s
        self.gpd = decode_groupoid(s)
        self._ysets: dict[tuple[int, int], YSet] = {}
        self._raw_ysets: dict[tuple[int, int], YSet] = {}
        self._fgroups: dict[tuple[int, int], RestrictedAutGroup] = {}
        self._ggroups: dict[tuple[int, int], RestrictedAutGroup] = {}
        self._psis: dict[tuple[int, int], Optional[Automorphism]] = {}
        self._heads: dict[tuple[int, int], Optional[Automorphism]] = {}
        self._transports: dict[tuple[int, int], tuple[int, ...]] = {}
        self._tables: dict[tuple[int, int, int], tuple[tuple[int, ...], ...]] = {}
        self._composers: dict[tuple[int, ...], Callable[[int, int], int]] = {}
        self._mover_cache: dict[tuple[int, int, int], tuple[int, ...]] = {}
        self.path_reps: dict[tuple, Any] = {}  # class key -> ``paths.canonical_rep``
        self._binding: Optional[BindingGroup] = None

    # -- cached building blocks ------------------------------------------

    def translation(self, a: int, b: int) -> Optional[Automorphism]:
        """psi_ab: the first automorphism sending x_tuples(s, 0, 1)[0] to
        x_tuples(s, a, b)[0] (``find_automorphism``), accepted when
        ``is_automorphism`` confirms it and it maps the pinned points of
        object_closure(0) onto those of object_closure(a) and of
        pair_base(0, 1) onto those of pair_base(a, b); then psi Aut(s/B)
        psi^-1 = Aut(s/psi(B)) for both bases B.  None at the reference
        pair, where either pair has no morphism (the groupoid need not be
        connected) and where no psi is accepted.

        An accepted psi also carries the pinned points of pair_closure(0, 1)
        onto those of pair_closure(a, b), which ``pair_orbit`` reads: it
        sends object 0 to a and 1 to b and keeps init and ter, so it maps
        Mor(0, 1) onto Mor(a, b), and it fixes every constant."""
        if (a, b) not in self._psis:
            s, ref = self.structure, self.ref_pair
            f_ref, f_ab = x_tuples(s, *ref), x_tuples(s, a, b)
            psi = None
            if (a, b) != ref and f_ref and f_ab:
                psi = find_automorphism(s, dict(zip(f_ref[0], f_ab[0])))
            if psi is not None:
                pinned, image = s.search_space.pinned, psi.images.__getitem__
                bases = (
                    (object_closure(s, ref[0]), object_closure(s, a)),
                    (pair_base(s, *ref), pair_base(s, a, b)),
                )
                if not is_automorphism(s, psi) or any(
                    set(map(image, pinned(src))) != pinned(dst) for src, dst in bases
                ):
                    psi = None
            self._psis[(a, b)] = psi
        return self._psis[(a, b)]

    def pair_orbit(self, c: int, a: int, x: YTuple) -> tuple[YTuple, ...]:
        """The orbit of x over pair_closure(c, a), sorted as ``orbit_of``
        returns it.  Where psi_ca is accepted it is psi_ca applied to the
        orbit of psi_ca^-1(x) over the reference pair's closure, which it
        carries onto pair_closure(c, a) (``translation``), so every such
        search shares one pinned set; elsewhere it is searched over
        pair_closure(c, a) itself."""
        s, psi = self.structure, self.translation(c, a)
        if psi is None:
            return orbit_of(s, pair_closure(s, c, a), x)
        orbit = orbit_of(s, pair_closure(s, *self.ref_pair), psi.inverse().apply_tuple(x))
        return tuple(sorted(map(psi.apply_tuple, orbit)))

    def _translated(
        self, a: int, b: int, build: Callable[[int, int], _T]
    ) -> Optional[tuple[Automorphism, _T]]:
        """psi_ab and the reference pair's object that build returns, or None
        when the pair is to be searched: no psi is accepted, or the
        reference pair's object raises, and the pair's own search then
        raises the pair's own error."""
        psi = self.translation(a, b)
        if psi is None:
            return None
        try:
            return psi, build(*self.ref_pair)
        except (AxiomViolation, NotInvariant, RegularityFailure):
            return None

    def y_set(self, a: int, b: int) -> YSet:
        """Y(a, b) with the default reference x_tuples(s, a, b)[0]: psi_ab's
        image of Y(0, 1), or ``compute_Y``'s search.

        A translated Y-set passes ``compute_Y``'s y-missing-standard-coset
        check because Y(0, 1) does: psi_ab maps pair_base(0, 1) onto
        pair_base(a, b) and the reference onto the reference, so it maps
        the standard coset of (0, 1) onto that of (a, b)."""
        y = self._ysets.get((a, b))
        if y is None:
            s = self.structure
            _check_pair(s, a, b)
            hit = self._translated(a, b, self.y_set)
            if hit is None:
                y = compute_Y(s, a, b)
            else:
                psi, y_ref = hit
                y = YSet(
                    base=object_closure(s, a),
                    members=tuple(sorted(map(psi.apply_tuple, y_ref.members))),
                    reference=psi.apply_tuple(y_ref.reference),
                )
            self._ysets[(a, b)] = y
        return y

    def raw_y_set(self, a: int, b: int) -> YSet:
        """The Y-set over the source closure whose reference is the raw
        least morphism a -> b rather than its full tuple."""
        if (a, b) not in self._raw_ysets:
            _check_pair(self.structure, a, b)
            raw = (Element("M", min(morphisms_between(self.structure, a, b))),)
            self._raw_ysets[(a, b)] = compute_Y(self.structure, a, b, f=raw)
        return self._raw_ysets[(a, b)]

    def f_group(self, a: int, b: int) -> RestrictedAutGroup:
        """The automorphism group of Y(a, b) over the source closure.

        Restrictions of base-fixing automorphisms that map the Y-set onto
        itself, searched or conjugated from F(0, 1) by psi_ab; the action must
        be regular or the instance is mismodelled.
        """
        if (a, b) not in self._fgroups:
            y = self.y_set(a, b)
            rg = self._restriction_group(a, b, y.base, False, self.f_group)
            if not rg.is_regular():
                raise RegularityFailure((a, b, rg.group.order, y.size))
            self._fgroups[(a, b)] = rg
        return self._fgroups[(a, b)]

    def g_subgroup(self, a: int, b: int) -> RestrictedAutGroup:
        """Restrictions over the pair base: the standard binding copy inside F.
        The pair base leaves the Y-set invariant.  Searched or conjugated
        from G(0, 1) by psi_ab."""
        if (a, b) not in self._ggroups:
            self._ggroups[(a, b)] = self._restriction_group(
                a, b, pair_base(self.structure, a, b), True, self.g_subgroup
            )
        return self._ggroups[(a, b)]

    def _restriction_group(
        self,
        a: int,
        b: int,
        base: tuple[Element, ...],
        invariant: bool,
        build: Callable[[int, int], RestrictedAutGroup],
    ) -> RestrictedAutGroup:
        """The restrictions of Aut(s/base) to Y(a, b), led by its reference,
        or the reference pair's group, which build returns, conjugated by
        psi_ab: psi maps the reference pair's base onto base, so the
        conjugates psi . rep . psi^-1 are the reps, and their restrictions
        are the reference pair's perms relabelled along psi onto Y(a, b),
        which ``y_set`` translated by the same psi."""
        s, y = self.structure, self.y_set(a, b)
        hit = self._translated(a, b, build)
        if hit is None:
            return _restricted(s, base, y.members, invariant, y.reference)
        psi, ref_group = hit
        psi_inv = psi.inverse()
        reps = (psi.compose(rep).compose(psi_inv) for rep in ref_group.reps)
        perms = _carried(psi, ref_group, _carrier_index(s, y.members))
        return _restriction_group(s, base, y.members, dict(zip(perms, reps)))

    def binding(self) -> BindingGroup:
        if self._binding is None:
            self._binding = binding_group(self.gpd)
        return self._binding

    def transport(self, a: int, b: int) -> tuple[int, ...]:
        """Element map from the reference F-group onto F(a, b) along the head."""
        if (a, b) in self._transports:
            return self._transports[(a, b)]
        f_ref = self.f_group(*self.ref_pair)
        f_ab = self.f_group(a, b)
        if (a, b) == self.ref_pair:
            mapping = tuple(range(f_ref.order))
        else:
            head = self._transport_head(a, b)
            if head is None:
                raise DecompositionFailure("no transport automorphism", (self.ref_pair, (a, b)))
            mapping = self._conjugate(head, f_ref, f_ab)
        self._check_transport_iso(f_ref, f_ab, mapping, (a, b))
        self._transports[(a, b)] = mapping
        return mapping

    def transports(self, a: int, b: int) -> set[tuple[int, ...]]:
        """The transports onto F(a, b) along every class-keeping automorphism
        carrying the reference pair to (a, b); empty where there is none.

        They are the coset head . Aut(s/S), S = object_closure(0) +
        object_tuple(1): the quotient of two of them fixes the object tuples
        and each class's member at 0, the whole vertex group there.  A
        transport reads only the images of the reference carrier's points,
        so one member of Aut(s/S) per image of them, from one lead search
        shared by every target, gives every transport."""
        head = self._transport_head(a, b)
        if head is None:
            return set()
        s, (u, v) = self.structure, self.ref_pair
        f_ref, f_ab = self.f_group(u, v), self.f_group(a, b)
        lead = tuple(e for t in f_ref.carrier for e in t)
        sources = object_closure(s, u) + object_tuple(s, v)
        return {
            self._conjugate(head.compose(Automorphism(images, s)), f_ref, f_ab)
            for images in _images(s, sources, lead)
        }

    def _transport_head(self, a: int, b: int) -> Optional[Automorphism]:
        """The first automorphism psi sending the reference pair's object
        tuples to (a, b)'s and each class's member at 0 to its member at a,
        searched once per pair; None where there is none.

        The class constraints hold iff psi keeps every binding class: psi
        sends 0 to a, each vertex morphism at x is a transport of one at 0,
        psi(transport(sigma, f)) = transport(psi(sigma), psi(f)), and
        ``binding_group`` checks that transport keeps a class and that each
        class meets each vertex group once.  It is the first class-keeping
        leaf of the search on the object tuples alone: both pin the
        constants only, so share one point order along which depth-first
        search yields leaves lexicographically, and the class constraints
        fix only points on which every class-keeping leaf agrees."""
        if (a, b) not in self._heads:
            s, (u, v) = self.structure, self.ref_pair
            constraints = dict(zip(
                object_tuple(s, u) + object_tuple(s, v), object_tuple(s, a) + object_tuple(s, b)
            ))
            for rep in self.binding().reps:
                constraints[Element("M", rep[u])] = Element("M", rep[a])
            self._heads[(a, b)] = find_automorphism(s, constraints)
        return self._heads[(a, b)]

    def _conjugate(
        self,
        psi: Automorphism,
        f_ref: RestrictedAutGroup,
        f_ab: RestrictedAutGroup,
    ) -> tuple[int, ...]:
        """The transport along psi: element k of f_ref goes to the element of
        f_ab restricting psi . rep_k . psi^-1, that is f_ref's perm k
        relabelled along psi (``_carried``).  Hypothesis: psi maps f_ref's
        carrier onto f_ab's.  A psi that does not, or a relabelled perm
        outside f_ab, is a transport image escaping the target group."""
        perms = _carried(psi, f_ref, f_ab.carrier_index)
        mapping = None if perms is None else tuple(map(f_ab.perm_positions.get, perms))
        if mapping is None or None in mapping:
            raise DecompositionFailure("transport image escapes target group")
        return mapping

    @staticmethod
    def _check_transport_iso(
        f_ref: RestrictedAutGroup,
        f_ab: RestrictedAutGroup,
        mapping: tuple[int, ...],
        pair: tuple[int, int],
    ) -> None:
        if sorted(mapping) != list(range(f_ab.order)):
            raise DecompositionFailure("transport not bijective", pair)
        for i in range(f_ref.order):
            for j in range(f_ref.order):
                if mapping[f_ref.group.mul(i, j)] != f_ab.group.mul(mapping[i], mapping[j]):
                    raise DecompositionFailure("transport not a homomorphism", (pair, i, j))

    # -- composition ------------------------------------------------------

    def _check_members(self, a: int, b: int, *indices: int) -> None:
        size = self.y_set(a, b).size
        for x in indices:
            if not 0 <= x < size:
                raise InvalidInput(f"member {x} outside Y({a}, {b}), which has {size}")

    def standard(self, a: int, b: int) -> tuple[int, ...]:
        """Member indices of the standard morphisms a -> b in Y(a, b)."""
        y = self.y_set(a, b)
        return tuple(y.index_of(t) for t in x_tuples(self.structure, a, b))

    def _movers(self, a: int, b: int, x: int) -> tuple[int, ...]:
        """Per member t of Y(a, b), the F(a, b) element moving member x to t."""
        key = (a, b, x)
        if key not in self._mover_cache:
            movers = [0] * self.y_set(a, b).size
            for k, perm in enumerate(self.f_group(a, b).perms):
                movers[perm[x]] = k
            self._mover_cache[key] = tuple(movers)
        return self._mover_cache[key]

    def table(self, a: int, b: int, c: int) -> tuple[tuple[int, ...], ...]:
        """Composition on Y(a,b) x Y(b,c): row g holds h.g at column h.
        Built once per triple through the first standard members."""
        table = self._tables.get((a, b, c))
        if table is None:
            g0, h0 = self.standard(a, b)[0], self.standard(b, c)[0]
            through = self._composer(a, b, c, g0, h0)
            table = tuple(
                tuple(through(g, h) for h in range(self.y_set(b, c).size))
                for g in range(self.y_set(a, b).size)
            )
            self._tables[(a, b, c)] = table
        return table

    def _composer(self, a: int, b: int, c: int, g0: int, h0: int) -> Callable[[int, int], int]:
        """(g, h) -> h.g through the standard members g0 of Y(a,b) and h0 of
        Y(b,c): the F(a,b) element tau moving g0 to g and the F(b,c) element
        sigma moving h0 to h, read back in the reference F-group, give sigma
        after tau, which transport(a, c) carries to the F(a,c) element
        applied to the composite t0 of g0 and h0.  Built once per
        decomposition."""
        key = (a, b, c, g0, h0)
        if key not in self._composers:
            movers_ab, movers_bc = self._movers(a, b, g0), self._movers(b, c, h0)
            mul = self.f_group(*self.ref_pair).group.mul
            back_ab = {x: k for k, x in enumerate(self.transport(a, b))}
            back_bc = {x: k for k, x in enumerate(self.transport(b, c))}
            z_ac = self.transport(a, c)
            y_ac = self.y_set(a, c)
            m = self.gpd.compose(
                raw_morphism(self.y_set(a, b).members[g0]),
                raw_morphism(self.y_set(b, c).members[h0]),
            )
            t0 = y_ac.index_of(morphism_tuple(self.structure, m))
            perms = self.f_group(a, c).perms
            image = [perms[z][t0] for z in z_ac]
            taus = [back_ab[x] for x in movers_ab]
            sigmas = [back_bc[x] for x in movers_bc]
            self._composers[key] = lambda g, h: image[mul(sigmas[h], taus[g])]
        return self._composers[key]

    def compose(
        self,
        a: int,
        b: int,
        c: int,
        g: int,
        h: int,
        decomposition: Optional[tuple[int, int]] = None,
    ) -> int:
        """The composite h.g in Y(a,c) of members g of Y(a,b) and h of Y(b,c),
        all given by their member indices.

        A decomposition picks standard members g0, h0 with g, h in their
        F-orbits; the result is independent of the choice, which the
        verification suites check exhaustively.  Without one, the triple's
        table answers.  A member index outside its Y-set raises InvalidInput.
        """
        if decomposition is None:
            table = self.table(a, b, c)
            if 0 <= g < len(table) and 0 <= h < len(table[0]):
                return table[g][h]
            self._check_members(a, b, g)
            self._check_members(b, c, h)  # one of the two raises
        g0, h0 = decomposition
        self._check_members(a, b, g, g0)
        self._check_members(b, c, h, h0)
        return self._composer(a, b, c, g0, h0)(g, h)

    def divisor(self, a: int, b: int, c: int, f: int, g: int) -> int:
        """The unique h in Y(b,c) with f = h.g (f in Y(a,c), g in Y(a,b))."""
        self._check_members(a, b, g)
        self._check_members(a, c, f)
        hits = [h for h, out in enumerate(self.table(a, b, c)[g]) if out == f]
        if len(hits) != 1:
            raise DecompositionFailure("unique divisor failed", (a, b, c, f, g, len(hits)))
        return hits[0]
