"""Finite groupoids with exhaustively checked axioms.

Composition is stored diagrammatically: ``compose(f, g)`` is defined exactly
when ``ter(f) == init(g)`` and means "f, then g".  In the standard model on
labelled triples this reads ``(a,x,b) then (b,y,c) = (a, y*x, c)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Callable

from .errors import AxiomViolation, InvalidInput, NonAbelianVertex, TransportAmbiguity
from .groups import FiniteGroup, validate_group


@dataclass(frozen=True)
class FiniteGroupoid:
    n_objects: int
    init: tuple[int, ...]
    ter: tuple[int, ...]
    inverse: tuple[int, ...]
    identities: tuple[int, ...]
    composition: tuple[tuple[int, int, int], ...]  # (f, g, f-then-g)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_comp", {(f, g): h for f, g, h in self.composition})

    @property
    def n_morphisms(self) -> int:
        return len(self.init)

    def compose(self, f: int, g: int) -> int:
        """f then g; defined iff ter(f) == init(g)."""
        try:
            return self._comp[(f, g)]
        except KeyError:
            raise AxiomViolation("composability", (f, g)) from None

    def morphisms_between(self, a: int, b: int) -> tuple[int, ...]:
        return tuple(
            m for m in range(self.n_morphisms)
            if self.init[m] == a and self.ter[m] == b
        )

    def is_connected(self) -> bool:
        return all(
            self.morphisms_between(a, b)
            for a in range(self.n_objects) for b in range(self.n_objects)
        )


@dataclass(frozen=True)
class VertexGroup:
    """Mor(a, a) under composition, re-indexed as a FiniteGroup."""

    groupoid: FiniteGroupoid
    obj: int
    group: FiniteGroup
    members: tuple[int, ...]  # members[i] is the morphism for group element i


@dataclass(frozen=True)
class BindingGroup:
    """Transport-equivalence classes of vertex morphisms of an abelian groupoid.

    Class k corresponds to group element k; ``reps[k][a]`` is the unique
    morphism of class k in the vertex group at object a.
    """

    groupoid: FiniteGroupoid
    group: FiniteGroup
    classes: tuple[frozenset[int], ...]
    reps: tuple[tuple[int, ...], ...]


def build_standard_groupoid(group: FiniteGroup, n: int) -> FiniteGroupoid:
    """Connected groupoid on n objects whose every vertex group is the given group.

    Morphism (a, x, b) gets id ((a*n)+b)*|G| + x; |M| = n^2 * |G|.
    """
    if n < 1:
        raise InvalidInput(f"object count {n} must be >= 1")
    order = group.order

    def mid(a: int, x: int, b: int) -> int:
        return (a * n + b) * order + x

    count = n * n * order
    init = [0] * count
    ter = [0] * count
    inverse = [0] * count
    for a in range(n):
        for b in range(n):
            for x in range(order):
                m = mid(a, x, b)
                init[m] = a
                ter[m] = b
                inverse[m] = mid(b, group.inv(x), a)
    identities = tuple(mid(a, group.identity, a) for a in range(n))
    composition = []
    for a in range(n):
        for b in range(n):
            for c in range(n):
                for x in range(order):
                    for y in range(order):
                        composition.append(
                            (mid(a, x, b), mid(b, y, c), mid(a, group.mul(y, x), c))
                        )
    return FiniteGroupoid(
        n_objects=n,
        init=tuple(init),
        ter=tuple(ter),
        inverse=tuple(inverse),
        identities=identities,
        composition=tuple(sorted(composition)),
    )


def validate_groupoid(gpd: FiniteGroupoid) -> FiniteGroupoid:
    """Exhaustively check every groupoid axiom; raise AxiomViolation otherwise."""
    n_obj, n_mor = gpd.n_objects, gpd.n_morphisms
    for name, arr, bound in (
        ("init", gpd.init, n_obj),
        ("ter", gpd.ter, n_obj),
        ("inverse", gpd.inverse, n_mor),
    ):
        if len(arr) != n_mor:
            raise AxiomViolation("shape", (name, len(arr)))
        if any(not 0 <= v < bound for v in arr):
            raise AxiomViolation("entry-range", name)
    if len(gpd.identities) != n_obj:
        raise AxiomViolation("shape", ("identities", len(gpd.identities)))

    comp = gpd._comp
    if len(comp) != len(gpd.composition):
        raise AxiomViolation("composability", "duplicate composition pair")
    for (f, g), h in comp.items():
        if gpd.ter[f] != gpd.init[g]:
            raise AxiomViolation("composability", (f, g))
        if gpd.init[h] != gpd.init[f] or gpd.ter[h] != gpd.ter[g]:
            raise AxiomViolation("endpoint", (f, g, h))
    by_init: list[list[int]] = [[] for _ in range(n_obj)]
    for m in range(n_mor):
        by_init[gpd.init[m]].append(m)
    rows = []  # f's row: f.g for every g composable after f, in order
    for f in range(n_mor):
        row = tuple(comp.get((f, g)) for g in by_init[gpd.ter[f]])
        if None in row:
            missing = by_init[gpd.ter[f]][row.index(None)]
            raise AxiomViolation("composability", ("missing pair", f, missing))
        rows.append(row)

    # associativity row by row: the row of f.g, over the h composable after
    # g, is the row of g read through f's row, since (f.g).h = f.(g.h)
    position = [0] * n_mor  # m's place in by_init[init m], so in f's row
    for ms in by_init:
        for i, m in enumerate(ms):
            position[m] = i
    readers = [_reader([position[gh] for gh in row]) for row in rows]
    for f in range(n_mor):
        f_row = rows[f]
        for g in by_init[gpd.ter[f]]:
            through, fg_row = readers[g](f_row), rows[f_row[position[g]]]
            if through != fg_row:
                j = next(j for j, (x, y) in enumerate(zip(through, fg_row)) if x != y)
                raise AxiomViolation("associativity", (f, g, by_init[gpd.ter[g]][j]))

    for a in range(n_obj):
        e = gpd.identities[a]
        if gpd.init[e] != a or gpd.ter[e] != a:
            raise AxiomViolation("identity", ("endpoints", a))
        for m in range(n_mor):
            if gpd.init[m] == a and comp[(e, m)] != m:
                raise AxiomViolation("identity", ("left", a, m))
            if gpd.ter[m] == a and comp[(m, e)] != m:
                raise AxiomViolation("identity", ("right", a, m))

    for m in range(n_mor):
        mi = gpd.inverse[m]
        if gpd.init[mi] != gpd.ter[m] or gpd.ter[mi] != gpd.init[m]:
            raise AxiomViolation("inverse", ("endpoints", m))
        if comp[(mi, m)] != gpd.identities[gpd.init[mi]]:
            raise AxiomViolation("inverse", ("left", m))
        if comp[(m, mi)] != gpd.identities[gpd.init[m]]:
            raise AxiomViolation("inverse", ("right", m))
    return gpd


def _reader(places: list[int]) -> Callable[[tuple[int, ...]], tuple[int, ...]]:
    """Reads a row at the places, as a tuple (``itemgetter`` of one place
    returns the entry alone)."""
    if len(places) > 1:
        return itemgetter(*places)
    return lambda row: tuple(row[i] for i in places)


def vertex_group(gpd: FiniteGroupoid, a: int) -> VertexGroup:
    if not 0 <= a < gpd.n_objects:
        raise InvalidInput(f"object {a} out of range")
    members = gpd.morphisms_between(a, a)
    pos = {m: i for i, m in enumerate(members)}
    table = tuple(
        tuple(pos[gpd.compose(f, g)] for g in members) for f in members
    )
    group = validate_group(table, pos[gpd.identities[a]])
    return VertexGroup(groupoid=gpd, obj=a, group=group, members=members)


def binding_group(gpd: FiniteGroupoid) -> BindingGroup:
    """Quotient of the union of vertex groups by conjugation transport.

    Only defined when every vertex group is abelian; transport independence
    of the connecting morphism is checked, not assumed.
    """
    if not gpd.is_connected():
        raise AxiomViolation("connectedness", None)
    vgroups = [vertex_group(gpd, a) for a in range(gpd.n_objects)]
    for vg in vgroups:
        if not vg.group.is_abelian():
            raise NonAbelianVertex(vg.obj)

    def transport(sigma: int, f: int) -> int:
        # sigma at init(f) conjugated along f to a vertex morphism at ter(f)
        return gpd.compose(gpd.compose(gpd.inverse[f], sigma), f)

    n = gpd.n_objects
    reps: list[tuple[int, ...]] = []
    classes: list[frozenset[int]] = []
    for sigma in vgroups[0].members:
        row = [0] * n
        for b in range(n):
            images = {transport(sigma, f) for f in gpd.morphisms_between(0, b)}
            if len(images) != 1:
                raise TransportAmbiguity((sigma, b, sorted(images)))
            row[b] = images.pop()
        reps.append(tuple(row))
        classes.append(frozenset(row))
    # transport between arbitrary objects must stay inside these classes
    for a in range(n):
        for b in range(n):
            for f in gpd.morphisms_between(a, b):
                for sigma in vgroups[a].members:
                    k = next(i for i, c in enumerate(classes) if sigma in c)
                    if transport(sigma, f) not in classes[k]:
                        raise TransportAmbiguity((sigma, f))
    for k, cls in enumerate(classes):
        for vg in vgroups:
            if len(cls.intersection(vg.members)) != 1:
                raise TransportAmbiguity(("class-vertex-meet", k, vg.obj))
    return BindingGroup(
        groupoid=gpd,
        group=vgroups[0].group,
        classes=tuple(classes),
        reps=tuple(reps),
    )
