"""Automorphism search for finite multi-sorted structures.

One backtracking search (``_solutions``) runs over sort-wise bijections with
partition-refinement pruning: points are colored by iterated signatures
(sort, pinned base points, relation incidence patterns), and assignments
propagate through functions and through every functional direction of each
relation.  Enumeration order is deterministic.

The search runs in two modes.  Without a lead it yields every automorphism
fixing the base; ``automorphism_group`` and ``dcl_of`` enumerate the group
this way and are the ground-truth oracle.  With a lead tuple it assigns the
lead's points first and yields one automorphism per image of the lead, so
``orbit_of``, ``interdefinable`` and the restriction groups of the Y-set
layer read a tuple's images off the first levels of the search tree without
enumerating the group.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional

from .errors import BudgetExceeded, NotInvariant
from .groups import FiniteGroup, GroupAction, _perm_group
from .structures import Element, MultiSortedStructure

CARRIER_BUDGET = 300


@dataclass(frozen=True)
class Automorphism:
    """Per-sort permutations, aligned with the structure's sort order."""

    sort_names: tuple[str, ...]
    maps: tuple[tuple[int, ...], ...]

    def apply(self, el: Element) -> Element:
        return Element(el.sort, self.maps[self.sort_names.index(el.sort)][el.index])

    def apply_tuple(self, els: tuple[Element, ...]) -> tuple[Element, ...]:
        return tuple(self.apply(e) for e in els)

    def compose(self, other: "Automorphism") -> "Automorphism":
        """self after other."""
        maps = tuple(
            tuple(mine[o] for o in theirs)
            for mine, theirs in zip(self.maps, other.maps)
        )
        return Automorphism(self.sort_names, maps)

    def inverse(self) -> "Automorphism":
        maps = []
        for m in self.maps:
            inv = [0] * len(m)
            for i, v in enumerate(m):
                inv[v] = i
            maps.append(tuple(inv))
        return Automorphism(self.sort_names, tuple(maps))

    def flat(self) -> tuple[int, ...]:
        return tuple(v for m in self.maps for v in m)


@dataclass(frozen=True)
class AutomorphismGroup:
    structure: MultiSortedStructure
    base: tuple[Element, ...]
    members: tuple[Automorphism, ...]

    @property
    def order(self) -> int:
        return len(self.members)

    @property
    def identity(self) -> Automorphism:
        sizes = dict(self.structure.sorts)
        return Automorphism(
            self.structure.sort_names,
            tuple(tuple(range(sizes[n])) for n in self.structure.sort_names),
        )


class _Rel:
    """A relation flattened to global point ids, with functional-direction maps."""

    __slots__ = ("tuples", "members", "lookups")

    def __init__(self, tuples: list[tuple[int, ...]]):
        self.tuples = tuples
        self.members = set(tuples)
        arity = len(tuples[0]) if tuples else 0
        self.lookups: dict[int, dict[tuple[int, ...], int]] = {}
        for r in range(arity):
            table: dict[tuple[int, ...], int] = {}
            ok = True
            for t in tuples:
                key = t[:r] + t[r + 1:]
                if table.setdefault(key, t[r]) != t[r]:
                    ok = False
                    break
            if ok:
                self.lookups[r] = table


class _SearchSpace:
    """Flattened structure shared by every search over the same structure,
    and the groups enumerated on it so far, keyed by base.  One instance per
    structure, reached through ``MultiSortedStructure.search_space``."""

    def __init__(self, s: MultiSortedStructure):
        self.groups: dict[tuple[Element, ...], AutomorphismGroup] = {}
        self.offsets: dict[str, int] = {}
        self.sort_of_point: list[int] = []
        off = 0
        for si, (name, size) in enumerate(s.sorts):
            self.offsets[name] = off
            self.sort_of_point.extend([si] * size)
            off += size
        self.n_points = off

        self.rels: list[_Rel] = []
        for f in s.functions:
            rows = [
                tuple(self.offsets[sn] + v for sn, v in zip((*f.arg_sorts, f.result_sort), row))
                for row in f.rows
            ]
            self.rels.append(_Rel(rows))
        for r in s.relations:
            rows = [
                tuple(self.offsets[sn] + v for sn, v in zip(r.arg_sorts, t))
                for t in r.tuples
            ]
            self.rels.append(_Rel(rows))

        self.by_point: list[list[tuple[int, int]]] = [[] for _ in range(self.n_points)]
        for ri, rel in enumerate(self.rels):
            for ti, t in enumerate(rel.tuples):
                for p in set(t):
                    self.by_point[p].append((ri, ti))

        self.const_points = tuple(
            self.offsets[c.sort] + c.index for c in s.constants
        )

    def point(self, el: Element) -> int:
        return self.offsets[el.sort] + el.index

    def colors(self, pinned: frozenset[int]) -> list[int]:
        """Iterated refinement; pinned points keep unique colors throughout."""
        key: list[object] = [
            (self.sort_of_point[p], p if p in pinned else -1)
            for p in range(self.n_points)
        ]
        color = self._compress(key)
        n_colors = len(set(color))
        while True:
            sig: list[list[object]] = [[color[p]] for p in range(self.n_points)]
            for ri, rel in enumerate(self.rels):
                for t in rel.tuples:
                    ct = tuple(color[x] for x in t)
                    for i, p in enumerate(t):
                        sig[p].append((ri, i, ct))
            key = [(s[0], tuple(sorted(s[1:]))) for s in sig]
            color = self._compress(key)
            new_n = len(set(color))
            if new_n == n_colors:
                return color
            n_colors = new_n

    @staticmethod
    def _compress(keys: list) -> list[int]:
        mapping: dict = {}
        for k in sorted(set(keys)):
            mapping[k] = len(mapping)
        return [mapping[k] for k in keys]


def _solutions(
    s: MultiSortedStructure,
    base: tuple[Element, ...],
    constraints: Optional[dict[Element, Element]] = None,
    lead: tuple[Element, ...] = (),
) -> Iterator[tuple[int, ...]]:
    """Yield global image arrays of every automorphism fixing base pointwise
    and extending the given partial constraints, in deterministic order.

    With a lead tuple the lead's points are assigned first, and only the
    first completion of each distinct image of the lead is yielded: one
    automorphism per member of the lead's orbit, the one ``find_automorphism``
    returns when constrained to send the lead to that image."""
    space = s.search_space
    n = space.n_points
    pinned = frozenset(
        [space.point(e) for e in base] + list(space.const_points)
    )
    color = space.colors(pinned)

    img = [-1] * n
    pre = [-1] * n
    rels = space.rels
    by_point = space.by_point

    def try_assign(x: int, y: int, trail: list[int]) -> bool:
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
            for ri, ti in by_point[a]:
                t = rels[ri].tuples[ti]
                missing = -1
                count = 0
                for i, p in enumerate(t):
                    if img[p] == -1:
                        missing = i
                        count += 1
                        if count > 1:
                            break
                if count == 0:
                    if tuple(img[p] for p in t) not in rels[ri].members:
                        return False
                elif count == 1:
                    lookup = rels[ri].lookups.get(missing)
                    if lookup is None:
                        continue
                    key = tuple(
                        img[p] for i, p in enumerate(t) if i != missing
                    )
                    forced = lookup.get(key)
                    if forced is None:
                        return False
                    stack.append((t[missing], forced))
        return True

    def undo(trail: list[int]) -> None:
        for a in reversed(trail):
            pre[img[a]] = -1
            img[a] = -1

    seed: list[int] = []
    for p in pinned:
        if not try_assign(p, p, seed):
            undo(seed)
            return
    if constraints:
        for ex, ey in sorted(constraints.items()):
            if not try_assign(space.point(ex), space.point(ey), seed):
                undo(seed)
                return

    lead_points = list(dict.fromkeys(space.point(e) for e in lead))
    n_lead = len(lead_points)
    class_size = {c: color.count(c) for c in set(color)}
    order = lead_points + sorted(
        (p for p in range(n) if img[p] == -1 and p not in lead_points),
        key=lambda p: (class_size[color[p]], p),
    )
    cand: dict[int, list[int]] = {}
    for p in range(n):
        cand.setdefault(color[p], []).append(p)

    def gen(pos: int, lead_open: bool) -> Iterator[tuple[int, ...]]:
        while pos < len(order) and img[order[pos]] != -1:
            pos += 1
        if lead_open and pos >= n_lead:
            # the lead's image is fixed: keep its first completion only
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
        for y in cand[color[x]]:
            if pre[y] != -1:
                continue
            trail: list[int] = []
            try:
                if try_assign(x, y, trail):
                    yield from gen(pos + 1, lead_open)
            finally:
                undo(trail)

    yield from gen(0, n_lead > 0)
    undo(seed)


def _to_automorphism(s: MultiSortedStructure, flat: tuple[int, ...]) -> Automorphism:
    maps = []
    off = 0
    for _, size in s.sorts:
        maps.append(tuple(v - off for v in flat[off:off + size]))
        off += size
    return Automorphism(s.sort_names, tuple(maps))


def check_budget(s: MultiSortedStructure) -> None:
    if s.carrier_size > CARRIER_BUDGET:
        raise BudgetExceeded(s.carrier_size, CARRIER_BUDGET)


def automorphism_group(
    s: MultiSortedStructure, base: Iterable[Element] = ()
) -> AutomorphismGroup:
    """Enumerate every automorphism of s fixing base pointwise."""
    check_budget(s)
    base_t = tuple(sorted(set(base)))
    groups = s.search_space.groups
    if base_t not in groups:
        members = tuple(
            _to_automorphism(s, flat)
            for flat in sorted(_solutions(s, base_t))
        )
        groups[base_t] = AutomorphismGroup(structure=s, base=base_t, members=members)
    return groups[base_t]


def iter_automorphisms(
    s: MultiSortedStructure,
    base: Iterable[Element] = (),
    constraints: Optional[dict[Element, Element]] = None,
) -> Iterator[Automorphism]:
    """Lazily yield automorphisms fixing base and extending constraints."""
    check_budget(s)
    base_t = tuple(sorted(set(base)))
    for flat in _solutions(s, base_t, constraints):
        yield _to_automorphism(s, flat)


def find_automorphism(
    s: MultiSortedStructure,
    base: Iterable[Element] = (),
    constraints: Optional[dict[Element, Element]] = None,
    predicate: Optional[Callable[[Automorphism], bool]] = None,
) -> Optional[Automorphism]:
    """First automorphism (in enumeration order) satisfying the predicate."""
    for aut in iter_automorphisms(s, base, constraints):
        if predicate is None or predicate(aut):
            return aut
    return None


def is_automorphism(s: MultiSortedStructure, aut: Automorphism) -> bool:
    """Validate the Automorphism invariant directly from the structure."""
    sizes = dict(s.sorts)
    if aut.sort_names != s.sort_names:
        return False
    pos = {n: i for i, n in enumerate(s.sort_names)}
    for name, m in zip(aut.sort_names, aut.maps):
        if len(m) != sizes[name] or sorted(m) != list(range(sizes[name])):
            return False
    for f in s.functions:
        arg_pos = [pos[sn] for sn in f.arg_sorts]
        res_pos = pos[f.result_sort]
        lookup = {r[:-1]: r[-1] for r in f.rows}
        for row in f.rows:
            args, val = row[:-1], row[-1]
            mapped = tuple(aut.maps[p][v] for p, v in zip(arg_pos, args))
            if lookup[mapped] != aut.maps[res_pos][val]:
                return False
    for r in s.relations:
        arg_pos = [pos[sn] for sn in r.arg_sorts]
        tset = set(r.tuples)
        for t in r.tuples:
            image = tuple(aut.maps[p][v] for p, v in zip(arg_pos, t))
            if image not in tset:
                return False
        inv = aut.inverse()
        for t in r.tuples:
            preimage = tuple(inv.maps[p][v] for p, v in zip(arg_pos, t))
            if preimage not in tset:
                return False
    for c in s.constants:
        if aut.maps[pos[c.sort]][c.index] != c.index:
            return False
    return True


def _images(
    s: MultiSortedStructure,
    base: Iterable[Element],
    x: tuple[Element, ...],
) -> Iterator[tuple[tuple[Element, ...], tuple[int, ...]]]:
    """Each image of x under Aut(s/base) once, with the first automorphism
    (a global image array) found sending x there."""
    check_budget(s)
    offsets = s.search_space.offsets
    for flat in _solutions(s, tuple(base), lead=x):
        image = tuple(
            Element(e.sort, flat[offsets[e.sort] + e.index] - offsets[e.sort]) for e in x
        )
        yield image, flat


def orbit_of(
    s: MultiSortedStructure,
    base: Iterable[Element],
    x: tuple[Element, ...],
) -> tuple[tuple[Element, ...], ...]:
    """The orbit of x under Aut(s/base), read off one lead search."""
    return tuple(sorted(image for image, _ in _images(s, base, x)))


def dcl_of(s: MultiSortedStructure, base: Iterable[Element]) -> tuple[Element, ...]:
    """Fixed points of Aut(s/base): the finite surrogate of definable closure."""
    group = automorphism_group(s, base)
    fixed = []
    for name, size in s.sorts:
        si = s.sort_names.index(name)
        for i in range(size):
            if all(aut.maps[si][i] == i for aut in group.members):
                fixed.append(Element(name, i))
    return tuple(fixed)


def interdefinable(
    s: MultiSortedStructure,
    base: Iterable[Element],
    x: tuple[Element, ...],
    y: tuple[Element, ...],
) -> bool:
    """x in dcl(base + y) and y in dcl(base + x), componentwise.  Each lead
    search stops at the first image that moves its tuple."""
    base_t, x, y = tuple(base), tuple(x), tuple(y)
    x_fixed = all(image == x for image, _ in _images(s, base_t + y, x))
    return x_fixed and all(image == y for image, _ in _images(s, base_t + x, y))


@dataclass(frozen=True)
class RestrictedAutGroup:
    """Restrictions of base-fixing automorphisms to a finite carrier of tuples.

    ``perms[k]`` is the permutation of ``carrier`` realized by group element k;
    ``reps[k]`` is the least global automorphism restricting to it.
    """

    structure: MultiSortedStructure
    base: tuple[Element, ...]
    carrier: tuple[tuple[Element, ...], ...]
    group: FiniteGroup
    perms: tuple[tuple[int, ...], ...]
    reps: tuple[Automorphism, ...]

    @property
    def order(self) -> int:
        return self.group.order

    def action(self) -> GroupAction:
        return GroupAction(
            group=self.group, domain_size=len(self.carrier), moves=self.perms
        )

    def perm_index(self, perm: tuple[int, ...]) -> int:
        return self.perms.index(perm)

    def is_regular(self) -> bool:
        return self.action().is_regular()


def _restriction(
    aut: Automorphism,
    carrier: tuple[tuple[Element, ...], ...],
    index: dict[tuple[Element, ...], int],
) -> Optional[tuple[int, ...]]:
    """The permutation of carrier (positions, via index) that aut induces;
    None when aut sends a carrier tuple outside the carrier."""
    perm = []
    for t in carrier:
        image = aut.apply_tuple(t)
        k = index.get(image)
        if k is None:
            return None
        perm.append(k)
    return tuple(perm)


def _escapee(
    aut: Automorphism,
    carrier: tuple[tuple[Element, ...], ...],
    index: dict[tuple[Element, ...], int],
) -> tuple[Element, ...]:
    """The first carrier tuple that aut sends outside the carrier."""
    return next(t for t in carrier if aut.apply_tuple(t) not in index)


def _build_restricted(
    s: MultiSortedStructure,
    base: tuple[Element, ...],
    carrier: tuple[tuple[Element, ...], ...],
    pairs: list[tuple[tuple[int, ...], Automorphism]],
) -> RestrictedAutGroup:
    seen: dict[tuple[int, ...], Automorphism] = {}
    for perm, aut in pairs:
        prev = seen.get(perm)
        if prev is None or aut.flat() < prev.flat():
            seen[perm] = aut
    perms = tuple(sorted(seen))
    return RestrictedAutGroup(
        structure=s,
        base=base,
        carrier=carrier,
        group=_perm_group(perms),
        perms=perms,
        reps=tuple(seen[p] for p in perms),
    )


def _restricted(
    s: MultiSortedStructure,
    base: Iterable[Element],
    tuples: Iterable[tuple[Element, ...]],
    invariant: bool,
) -> RestrictedAutGroup:
    base_t = tuple(sorted(set(base)))
    carrier = tuple(sorted(set(tuples)))
    index = {t: i for i, t in enumerate(carrier)}
    pairs = []
    for aut in automorphism_group(s, base_t).members:
        perm = _restriction(aut, carrier, index)
        if perm is not None:
            pairs.append((perm, aut))
        elif invariant:
            raise NotInvariant(aut, _escapee(aut, carrier, index))
    return _build_restricted(s, base_t, carrier, pairs)


def restricted_group(
    s: MultiSortedStructure,
    base: Iterable[Element],
    tuples: Iterable[tuple[Element, ...]],
) -> RestrictedAutGroup:
    """Restrict Aut(s/base) to a setwise-invariant carrier of tuples.

    Raises NotInvariant when some base-fixing automorphism moves a carrier
    tuple out of the carrier.
    """
    return _restricted(s, base, tuples, invariant=True)


def setwise_restricted_group(
    s: MultiSortedStructure,
    base: Iterable[Element],
    tuples: Iterable[tuple[Element, ...]],
) -> RestrictedAutGroup:
    """Restrictions of the automorphisms of Aut(s/base) that stabilize the
    carrier setwise: the finite stand-in for the group of elementary maps
    from the carrier onto itself over the base."""
    return _restricted(s, base, tuples, invariant=False)


def automorphism_group_to_json(group: AutomorphismGroup) -> dict:
    """Export as permutation lists, one map per sort per member."""
    return {
        "base": [[e.sort, e.index] for e in group.base],
        "sorts": list(group.structure.sort_names),
        "members": [[list(m) for m in aut.maps] for aut in group.members],
    }
