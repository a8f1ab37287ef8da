"""Y-sets, their automorphism groups, transports and composition.

This is the machinery behind the extended groupoid: Y-sets collect the
morphism tuples equivalent to and interdefinable with a reference over the
source closure; their restriction groups act regularly; composition of
Y-elements is defined through decompositions into translated standard
morphisms, transported along a shared abstract group.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .automorphisms import (
    Automorphism,
    RestrictedAutGroup,
    _build_restricted,
    _escapee,
    _images,
    _restriction,
    _to_automorphism,
    find_automorphism,
    interdefinable,
    orbit_of,
)
from .errors import (
    AxiomViolation,
    DecompositionFailure,
    InvalidInput,
    RegularityFailure,
)
from .groupoids import BindingGroup, binding_group
from .structures import (
    Element,
    MultiSortedStructure,
    decode_groupoid,
    has_cover,
    morphisms_between,
    object_closure,
    object_tuple,
    pair_base,
)

YTuple = tuple[Element, ...]


@dataclass(frozen=True)
class YSet:
    source: tuple[Element, ...]
    target: tuple[Element, ...]
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
    if len(t) == 1 and t[0].sort == "M":
        view = s.groupoid_view
        return view.init[t[0].index], view.ter[t[0].index]
    part = 3 if has_cover(s) else 1
    if len(t) != 2 * part + 1 or t[part - 1].sort != "O" or t[2 * part - 1].sort != "O":
        raise InvalidInput(f"not a morphism tuple: {t!r}")
    return t[part - 1].index, t[2 * part - 1].index


def raw_morphism(t: YTuple) -> int:
    if t[-1].sort != "M":
        raise InvalidInput(f"not a morphism tuple: {t!r}")
    return t[-1].index


def x_tuples(s: MultiSortedStructure, a: int, b: int) -> tuple[YTuple, ...]:
    """The standard-groupoid morphisms a -> b as canonically ordered tuples."""
    head = object_tuple(s, a) + object_tuple(s, b)
    return tuple(head + (Element("M", m),) for m in morphisms_between(s, a, b))


def compute_Y(
    s: MultiSortedStructure,
    a: int,
    b: int,
    f: Optional[YTuple] = None,
    base: Optional[tuple[Element, ...]] = None,
) -> YSet:
    """Members of the reference's orbit over the source closure that are
    interdefinable with it; always contains the full standard coset."""
    if a == b:
        raise InvalidInput("Y-sets are defined for distinct endpoints")
    if base is None:
        base = object_closure(s, a)
    if f is None:
        f = x_tuples(s, a, b)[0]
    members = tuple(
        g for g in orbit_of(s, base, f) if g == f or interdefinable(s, base, f, g)
    )
    for t in orbit_of(s, pair_base(s, a, b), f):
        if t not in members:
            raise AxiomViolation("y-missing-standard-coset", t)
    return YSet(
        source=object_tuple(s, a),
        target=object_tuple(s, b),
        base=tuple(base),
        members=members,
        reference=f,
    )


def restriction_group_by_reference(
    s: MultiSortedStructure, base: tuple[Element, ...], y: YSet
) -> RestrictedAutGroup:
    """Restrictions to a Y-set of the base-fixing automorphisms stabilizing it.

    Every Y-member is interdefinable with the reference over the base, so a
    restriction is determined by where it sends the reference; one lead
    search yields one automorphism per image of the reference, which
    replaces enumerating the whole base-fixing group.  Equal to the
    setwise-stabilizer restriction group.
    """
    carrier = y.members
    index = {t: i for i, t in enumerate(carrier)}
    found = dict(_images(s, base, y.reference))
    pairs = []
    for g in carrier:
        if g in found:
            aut = _to_automorphism(s, found[g])
            perm = _restriction(aut, carrier, index)
            if perm is None:
                raise RegularityFailure(("image leaves the Y-set", _escapee(aut, carrier, index)))
            pairs.append((perm, aut))
    return _build_restricted(s, tuple(sorted(set(base))), carrier, pairs)


def F_group(
    s: MultiSortedStructure,
    a: int,
    b: int,
    base: Optional[tuple[Element, ...]] = None,
) -> RestrictedAutGroup:
    """The automorphism group of Y(a, b) over the source closure.

    Restrictions of base-fixing automorphisms that map the Y-set onto
    itself; the action must be regular or the instance is mismodelled.
    """
    return _regular_group(s, a, b, compute_Y(s, a, b, base=base))


def _regular_group(s: MultiSortedStructure, a: int, b: int, y: YSet) -> RestrictedAutGroup:
    """The restriction group of Y(a, b) over its base; it must act regularly."""
    rg = restriction_group_by_reference(s, y.base, y)
    if not rg.is_regular():
        raise RegularityFailure((a, b, rg.group.order, y.size))
    return rg


class YSystem:
    """Caches Y-sets, restriction groups and transports over one structure.

    The reference pair's group plays the role of the shared abstract group;
    transports to other pairs conjugate along object-tuple-matched
    automorphisms that fix every binding class setwise (the stand-in for
    fixing the named closure of the empty set).
    """

    def __init__(self, s: MultiSortedStructure, ref_pair: tuple[int, int] = (0, 1)):
        if s.sort_size("O") < 2:
            raise InvalidInput("need at least two objects")
        self.structure = s
        self.gpd = decode_groupoid(s)
        self.ref_pair = ref_pair
        self._ysets: dict[tuple[int, int], YSet] = {}
        self._fgroups: dict[tuple[int, int], RestrictedAutGroup] = {}
        self._ggroups: dict[tuple[int, int], RestrictedAutGroup] = {}
        self._transports: dict[tuple[int, int], tuple[int, ...]] = {}
        self._tables: dict[tuple[int, int, int], dict[tuple[int, int], int]] = {}
        self._compose_cache: dict[tuple[YTuple, YTuple], YTuple] = {}
        self._binding: Optional[BindingGroup] = None

    # -- cached building blocks ------------------------------------------

    def y_set(self, a: int, b: int) -> YSet:
        if (a, b) not in self._ysets:
            self._ysets[(a, b)] = compute_Y(self.structure, a, b)
        return self._ysets[(a, b)]

    def f_group(self, a: int, b: int) -> RestrictedAutGroup:
        if (a, b) not in self._fgroups:
            self._fgroups[(a, b)] = _regular_group(self.structure, a, b, self.y_set(a, b))
        return self._fgroups[(a, b)]

    def g_subgroup(self, a: int, b: int) -> RestrictedAutGroup:
        """Restrictions over the pair base: the standard binding copy inside F."""
        if (a, b) not in self._ggroups:
            y = self.y_set(a, b)
            self._ggroups[(a, b)] = restriction_group_by_reference(
                self.structure, pair_base(self.structure, a, b), y
            )
        return self._ggroups[(a, b)]

    def binding(self) -> BindingGroup:
        if self._binding is None:
            self._binding = binding_group(self.gpd)
        return self._binding

    def binding_preserving(self, aut: Automorphism) -> bool:
        mpos = self.structure.sort_names.index("M")
        mmap = aut.maps[mpos]
        return all(
            {mmap[m] for m in cls} == set(cls) for cls in self.binding().classes
        )

    def transport(self, a: int, b: int) -> tuple[int, ...]:
        """Element map from the reference F-group onto F(a, b) by conjugation."""
        if (a, b) in self._transports:
            return self._transports[(a, b)]
        f_ref = self.f_group(*self.ref_pair)
        f_ab = self.f_group(a, b)
        if (a, b) == self.ref_pair:
            mapping = tuple(range(f_ref.order))
        else:
            psi = self._transport_map(a, b)
            mapping = self._conjugate(psi, f_ref, f_ab)
        self._check_transport_iso(f_ref, f_ab, mapping, (a, b))
        self._transports[(a, b)] = mapping
        return mapping

    def _transport_map(self, a: int, b: int) -> Automorphism:
        s = self.structure
        constraints: dict[Element, Element] = {}
        for src_obj, dst_obj in zip(self.ref_pair, (a, b)):
            for e_src, e_dst in zip(object_tuple(s, src_obj), object_tuple(s, dst_obj)):
                constraints[e_src] = e_dst
        psi = find_automorphism(
            s, constraints=constraints, predicate=self.binding_preserving
        )
        if psi is None:
            raise DecompositionFailure("no transport automorphism", (self.ref_pair, (a, b)))
        return psi

    def _conjugate(
        self,
        psi: Automorphism,
        f_ref: RestrictedAutGroup,
        f_ab: RestrictedAutGroup,
    ) -> tuple[int, ...]:
        psi_inv = psi.inverse()
        carrier_index = {t: i for i, t in enumerate(f_ab.carrier)}
        index = {p: i for i, p in enumerate(f_ab.perms)}
        mapping = []
        for rep in f_ref.reps:
            conj = psi.compose(rep).compose(psi_inv)
            idx = index.get(_restriction(conj, f_ab.carrier, carrier_index))
            if idx is None:
                raise DecompositionFailure("transport image escapes target group")
            mapping.append(idx)
        return tuple(mapping)

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

    def x_composite(self, g0: YTuple, h0: YTuple) -> YTuple:
        """Raw standard composition of two standard tuples, as a tuple."""
        s = self.structure
        a, b = tuple_endpoints(s, g0)
        b2, c = tuple_endpoints(s, h0)
        if b != b2:
            raise DecompositionFailure("endpoints do not chain", (g0, h0))
        m = self.gpd.compose(raw_morphism(g0), raw_morphism(h0))
        return object_tuple(s, a) + object_tuple(s, c) + (Element("M", m),)

    def decompose(self, t: YTuple) -> list[tuple[YTuple, int]]:
        """All (standard tuple, F-element) pairs whose action yields t."""
        s = self.structure
        a, b = tuple_endpoints(s, t)
        fg = self.f_group(a, b)
        y = self.y_set(a, b)
        ti = y.index_of(t)
        out = []
        for x in x_tuples(s, a, b):
            xi = y.index_of(x)
            hits = [k for k in range(fg.order) if fg.perms[k][xi] == ti]
            if len(hits) != 1:
                raise RegularityFailure((a, b, x, t))
            out.append((x, hits[0]))
        return out

    def compose(
        self,
        h: YTuple,
        g: YTuple,
        decomposition: Optional[tuple[YTuple, YTuple]] = None,
    ) -> YTuple:
        """The composite h.g for g in Y(a,b), h in Y(b,c), an element of Y(a,c).

        A decomposition picks standard tuples g0, h0 with g, h in their
        F-orbits; the result is independent of the choice, which the
        verification suites check exhaustively.
        """
        if decomposition is None:
            hit = self._compose_cache.get((h, g))
            if hit is not None:
                return hit
        s = self.structure
        a, b = tuple_endpoints(s, g)
        b2, c = tuple_endpoints(s, h)
        if b != b2:
            raise DecompositionFailure("endpoints do not chain", (g, h))
        if a == c:
            raise DecompositionFailure("composite endpoints coincide", (g, h))
        if decomposition is None:
            g0, tau = self.decompose(g)[0]
            h0, sigma = self.decompose(h)[0]
        else:
            g0, h0 = decomposition
            tau = self._element_moving(a, b, g0, g)
            sigma = self._element_moving(b, c, h0, h)
        rho_ab = self.transport(a, b)
        rho_bc = self.transport(b, c)
        rho_ac = self.transport(a, c)
        f_ref = self.f_group(*self.ref_pair)
        tau_ref = rho_ab.index(tau)
        sigma_ref = rho_bc.index(sigma)
        z_ref = f_ref.group.mul(sigma_ref, tau_ref)  # sigma after tau
        z_ac = rho_ac[z_ref]
        f_ac = self.f_group(a, c)
        y_ac = self.y_set(a, c)
        t0 = self.x_composite(g0, h0)
        out = y_ac.members[f_ac.perms[z_ac][y_ac.index_of(t0)]]
        if decomposition is None:
            self._compose_cache[(h, g)] = out
        return out

    def _element_moving(self, a: int, b: int, src: YTuple, dst: YTuple) -> int:
        fg = self.f_group(a, b)
        y = self.y_set(a, b)
        si, di = y.index_of(src), y.index_of(dst)
        hits = [k for k in range(fg.order) if fg.perms[k][si] == di]
        if len(hits) != 1:
            raise DecompositionFailure("no unique group element for decomposition", (src, dst))
        return hits[0]

    def compose_index(self, a: int, b: int, c: int, gi: int, hi: int) -> int:
        """Composition on Y-set member indices, with a cached table per triple."""
        key = (a, b, c)
        table = self._tables.get(key)
        if table is None:
            table = {}
            ya, yb, yc = self.y_set(a, b), self.y_set(b, c), self.y_set(a, c)
            for i, g in enumerate(ya.members):
                for j, h in enumerate(yb.members):
                    table[(i, j)] = yc.index_of(self.compose(h, g))
            self._tables[key] = table
        return table[(gi, hi)]

    def divisor(self, f: YTuple, g: YTuple) -> YTuple:
        """The unique h with f = h.g (f in Y(a,c), g in Y(a,b))."""
        s = self.structure
        a, b = tuple_endpoints(s, g)
        a2, c = tuple_endpoints(s, f)
        if a != a2:
            raise DecompositionFailure("divisor endpoints mismatch", (f, g))
        hits = [h for h in self.y_set(b, c).members if self.compose(h, g) == f]
        if len(hits) != 1:
            raise DecompositionFailure("unique divisor failed", (f, g, len(hits)))
        return hits[0]
