"""Automorphism search for finite multi-sorted structures.

One backtracking search (``_solutions``) runs over sort-wise bijections with
partition-refinement pruning: points are colored by iterated signatures
(sort, pinned base points, relation incidence patterns), and assignments
propagate through functions and through every functional direction of each
relation.  Enumeration order is deterministic.

The stable colouring is computed once per pinned set (the base points and
the constants) and kept on the structure's ``_SearchSpace`` with its cells,
the points of each colour in increasing order; every later search over the
same pinned set reads it.  A search branches on the open points by cell
size, then by index, and tries each cell's points in increasing order, so
its order depends only on the partition, not on the colour labels.

The refinement (``colors``) is the equitable-partition refinement of McKay
and Piperno (*Practical graph isomorphism II*, 2014), run on integers.  The
search space lays out the relations' incidences once (``incidences``): each
relation's columns and, per point, the slots of its incidences in their
concatenation.  A round codes every incidence (relation, position, colour
tuple) as one int, keys each point by its colour and its sorted codes, and
relabels the points by key.  The codes name the incidences one to one, so a
round splits the cells exactly as the signature of nested tuples does, and
the refinement reaches the same coarsest stable partition in the same
number of rounds.

Propagation is compiled, once per search.  A tuple forces its one open
point when the point sits once in it at a position the others determine
(``_Rel.lookups``), so the points a successful assignment wave forces
depend only on the points assigned before it and the wave's own, never on
their images.  The set assigned at each depth, and with it the next branch
point, is therefore the same in every node of the search tree.  ``_Plan``
compiles the seed (the pinned and constrained points) and each depth on its
first reach, by the counting propagation run on assignedness alone, into a
wave: forcing steps, where q's image is ``lookup[getter(img)]`` checked for
injectivity and colour, and the tuples the wave completes, read per
relation at C level; the depth whose branch position passes the lead is
where the lead is fully assigned.  ``_wave`` runs a wave with no counters.
It succeeds exactly when the counting kernel's wave would, with the same
images: when either succeeds, each forced image is the one its lookup gives
from the images before it, so both assign the same images, and both accept
only new images of the right colour under which every completed tuple is a
member.  So the search tree, the arrays yielded and their order are those
of the counting kernel, which the tests keep as the oracle.  Each completed
tuple is checked once per wave, because nothing else implies it: a tuple
whose last point another tuple forced, or whose last point no functional
direction reads, may map outside its relation.  Only a forcing tuple holds
by its lookup, and a unary tuple by the stable colouring, which splits
every unary relation, so neither is read.

The search runs in two modes.  Without a lead it yields every automorphism
fixing the base; ``automorphism_group`` and ``dcl_of`` enumerate the group
this way and are the ground-truth oracle.  With a lead tuple it assigns the
lead's points first and yields one automorphism per image of the lead, so
``orbit_of`` and ``interdefinable`` read a tuple's images off the first
levels of the search tree without enumerating the group.  No claim
enumerates a group, and no claim reads a whole orbit or walks a product to
answer whether an automorphism exists: section3's ``composite-membership``
reads orbits this way; ``uniform-action`` and the witness's
``type-equivalence`` ask ``carries``, one search constrained to send one
tuple to another; and section2 checks the choice-family maps of the
single-coordinate families, which generate the others under composition,
and reports the first that fails, last object first (the product's first
failing family when every identity is the least morphism of its vertex
group), and reads a stabiliser's order off ``orbit_certificate``, an
orbit-stabiliser certificate from the cell sizes of a lead and one search
constrained to fix it.

Each question is searched once per structure.  Next to the partitions, the
``_SearchSpace`` keeps three stores keyed by pinned set: the image arrays of
every complete lead search (``_images``), per lead points, which
``orbit_of`` and every restriction group read; every point moved by an
automorphism found over the pinned set; and the plans of the constrained
searches, per constrained points, as ``carries`` and ``find_automorphism``
ask about the same points again and again with other targets.  Fixedness
(``_fixed``, dcl membership) is decided by individualise-refine: an
automorphism fixing the pinned set preserves its stable colouring, so a
point alone in its cell is fixed.  A point of the tuple in the moved store
is not fixed; otherwise the tuple's lead search, kept or run until an image
moves the tuple, decides.

A searched restriction group comes from one such lead search
(``_restricted``).  The lead fixes the restriction: by default it is the
carrier's points; the Y-set groups lead with the Y-set's reference, with
which every member is interdefinable over the base.  Each image of the lead
gives one automorphism and so one restriction.  Searched here or translated
by the Y-set system, every restriction group is assembled by
``_restriction_group`` from its restrictions and their reps.

The automorphisms sending points S to given targets are a coset
psi0 . Aut(s/S), psi0 the first of them (``find_automorphism``, called by
the Y-set system only); ``carries`` asks only whether psi0 exists, and
stops the search at it.  The Y-set system translates along such a psi
(``groupoidlab.witness``).

An ``Automorphism`` is the search's image array, each sort's points after
those of the sorts before it; ``_restriction`` reads a restriction off such
an array, over a carrier indexed by point tuples, and ``is_automorphism``
checks one on the search space's flattening: its sort offsets, constants and
relation columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, compress, count, groupby, islice, repeat
from math import prod
from operator import itemgetter, ne
from typing import Iterable, Iterator, Optional

from .errors import BudgetExceeded, InvalidInput, NotInvariant
from .groups import FiniteGroup, _perm_group
from .structures import Element, MultiSortedStructure

CARRIER_BUDGET = 300

# a stable colouring of the points and its cells, the points of each colour
# in increasing order
_Partition = tuple[list[int], tuple[tuple[int, ...], ...]]


@dataclass(frozen=True)
class Automorphism:
    """The search's image array: ``images[p]`` is the image of point p, each
    sort's points following those of the sorts before it
    (``search_space.offsets``).  The structure stays out of eq, hash and repr."""

    images: tuple[int, ...]
    structure: MultiSortedStructure = field(compare=False, repr=False)

    def apply(self, el: Element) -> Element:
        space = self.structure.search_space
        return space.elements[self.images[space.point(el)]]

    def apply_tuple(self, els: tuple[Element, ...]) -> tuple[Element, ...]:
        return tuple(self.apply(e) for e in els)

    def compose(self, other: "Automorphism") -> "Automorphism":
        """self after other."""
        mine = self.images
        return Automorphism(tuple(map(mine.__getitem__, other.images)), self.structure)

    def inverse(self) -> "Automorphism":
        # the points sorted by their images: the k-th is the preimage of k
        images = self.images
        return Automorphism(
            tuple(sorted(range(len(images)), key=images.__getitem__)), self.structure
        )


@dataclass(frozen=True)
class AutomorphismGroup:
    structure: MultiSortedStructure
    base: tuple[Element, ...]
    members: tuple[Automorphism, ...]

    @property
    def order(self) -> int:
        return len(self.members)



class _Rel:
    """A relation flattened to global point ids, its columns (none when
    nullary or empty) and functional-direction maps.  ``members`` holds the
    tuples (bare points for arity one), keyed the way ``itemgetter(*t)``
    reads a tuple t off an image array; ``lookups[r]``, for each position r
    that the others determine, maps the tuple of the other positions (a bare
    point for arity two), read the same way, to the point that fills it."""

    __slots__ = ("tuples", "columns", "members", "lookups")

    def __init__(self, tuples: list[tuple[int, ...]]):
        self.tuples = tuples
        self.columns = tuple(zip(*tuples))
        arity = len(self.columns)
        self.members = {t[0] for t in tuples} if arity == 1 else set(tuples)
        self.lookups: dict[int, dict] = {}
        for r in range(arity) if arity > 1 else ():
            table: dict = {}
            ok = True
            for t in tuples:
                key = t[1 - r] if arity == 2 else t[:r] + t[r + 1:]
                if table.setdefault(key, t[r]) != t[r]:
                    ok = False
                    break
            if ok:
                self.lookups[r] = table


class _SearchSpace:
    """The structure's one point numbering (``offsets``, ``elements``), each
    function graph and relation flattened to a ``_Rel`` that keeps its
    tuples, their ``columns``, its members and lookups, the tuples of arity
    two or more that the plans are compiled from, and what the searches
    found on it: the stable partition of each pinned set searched so far,
    the image arrays of each complete lead search, keyed by pinned set and
    lead points, the points moved by any automorphism found over each pinned
    set, the plans of the constrained searches, keyed by pinned set,
    constrained points and lead points, and the groups enumerated, keyed by
    base.  One instance per
    structure, reached through ``MultiSortedStructure.search_space``; the
    stores grow with the number of distinct questions asked and are freed
    with the structure."""

    def __init__(self, s: MultiSortedStructure):
        self.groups: dict[tuple[Element, ...], AutomorphismGroup] = {}
        self.partitions: dict[frozenset[int], _Partition] = {}
        self.leads: dict[tuple[frozenset[int], tuple[int, ...]], tuple[tuple[int, ...], ...]] = {}
        self.moved: dict[frozenset[int], set[int]] = {}
        self.plans: dict[tuple[frozenset[int], tuple[int, ...], tuple[int, ...]], _Plan] = {}
        self.offsets: dict[str, int] = {}
        self.sizes: dict[str, int] = dict(s.sorts)
        self.sort_of_point: list[int] = []
        self.elements: list[Element] = []
        off = 0
        for si, (name, size) in enumerate(s.sorts):
            self.offsets[name] = off
            self.sort_of_point.extend([si] * size)
            self.elements.extend(Element(name, i) for i in range(size))
            off += size
        self.n_points = off

        tables = [((*f.arg_sorts, f.result_sort), f.rows) for f in s.functions]
        tables += [(r.arg_sorts, r.tuples) for r in s.relations]
        self.rels = [
            _Rel([tuple(self.offsets[sn] + v for sn, v in zip(sorts, t)) for t in rows])
            for sorts, rows in tables
        ]

        # every tuple of arity two or more, numbered in relation order: its
        # relation, its points and its count of distinct points; per point,
        # the numbers of the tuples through it.  ``_Plan`` compiles the
        # searches' propagation from these.
        self.tuple_rel: list[_Rel] = []
        self.tuple_points: list[tuple[int, ...]] = []
        self.n_distinct: list[int] = []
        self.incident: list[list[int]] = [[] for _ in range(self.n_points)]
        for rel in self.rels:
            for t in rel.tuples:
                if len(t) < 2:
                    # a nullary relation holds under every bijection, and a
                    # unary one under every map keeping the stable colouring
                    continue
                for p in set(t):
                    self.incident[p].append(len(self.n_distinct))
                self.n_distinct.append(len(set(t)))
                self.tuple_rel.append(rel)
                self.tuple_points.append(t)

        self.const_points = tuple(self.offsets[c.sort] + c.index for c in s.constants)

    def point(self, el: Element) -> int:
        """The point numbering el; InvalidInput when el names no element."""
        if not 0 <= el.index < self.sizes.get(el.sort, 0):
            raise InvalidInput(f"{el} is not an element of the structure")
        return self.offsets[el.sort] + el.index

    def pinned(self, base: Iterable[Element]) -> frozenset[int]:
        """The points a search over base fixes: the base and the constants."""
        return frozenset([self.point(e) for e in base] + list(self.const_points))

    def lead_points(self, lead: tuple[Element, ...]) -> tuple[int, ...]:
        """The lead's distinct points, in the order a lead search assigns them."""
        return tuple(dict.fromkeys(map(self.point, lead)))

    def note_moved(self, pinned: frozenset[int], images: tuple[int, ...]) -> None:
        """Add the points an image array moves to the pinned set's store."""
        self.moved.setdefault(pinned, set()).update(
            compress(count(), map(ne, images, count()))
        )

    def partition(self, pinned: frozenset[int]) -> _Partition:
        """The stable partition of the pinned set, refined on first use."""
        hit = self.partitions.get(pinned)
        if hit is None:
            color = self.colors(pinned)
            cells: list[list[int]] = [[] for _ in range(max(color, default=-1) + 1)]
            for p, c in enumerate(color):
                cells[c].append(p)
            hit = self.partitions[pinned] = (color, tuple(map(tuple, cells)))
        return hit

    @cached_property
    def incidences(self) -> tuple[list[tuple[tuple[int, ...], ...]], tuple[tuple[int, ...], ...]]:
        """The relation incidence layout that ``colors`` reads each round:
        the columns of each relation with a tuple of positive arity, in
        relation order, and per point the slots of its incidences in the
        concatenation of those columns, relation by relation and column by
        column."""
        columns = [rel.columns for rel in self.rels if rel.columns]
        slots: list[list[int]] = [[] for _ in range(self.n_points)]
        flat = chain.from_iterable(chain.from_iterable(columns))
        for slot, p in enumerate(flat):
            slots[p].append(slot)
        return columns, tuple(map(tuple, slots))

    def colors(self, pinned: frozenset[int]) -> list[int]:
        """The coarsest stable refinement of the colouring by sort in which
        each pinned point is alone in its cell.

        Each round keys a point by its colour and its signature, the multiset
        of its incidences (relation, position, colours of the tuple), and
        relabels the points by key (``_compress``), until no cell splits.
        The round runs on integers.  It reads each relation's colour tuples
        off its columns at C level and codes each incidence by the slot of
        the first incidence in its column whose tuple has the same colours,
        one int that names (relation, position, colour tuple) one to one.  A
        point's key is its colour and its incidence codes, sorted, read
        through its slots in ``incidences``.  Two points get equal keys
        exactly when their signatures are equal, so every round splits the
        cells as the signature does and the fixpoint is the same partition
        after the same number of rounds; only the colour labels differ, and
        the search reads the partition alone."""
        key: list[object] = [
            (self.sort_of_point[p], p if p in pinned else -1)
            for p in range(self.n_points)
        ]
        color = self._compress(key)
        n_colors = len(set(color))
        columns, slots = self.incidences
        while True:
            codes: list[int] = []
            for cols in columns:
                rows = zip(*[map(color.__getitem__, col) for col in cols])
                first: dict[tuple[int, ...], int] = {}
                tuple_codes = list(map(first.setdefault, rows, count()))
                for _ in cols:
                    codes.extend(map(len(codes).__add__, tuple_codes))
            incident = map(sorted, map(map, repeat(codes.__getitem__), slots))
            color = self._compress(list(zip(color, map(tuple, incident))))
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


# a compiled wave: the points it assigns first (a branch point, or the
# seed's pinned and constrained points), its forcing steps (q, lookup,
# getter, colour of q), its checks (a relation's members, the getter of its
# completed tuples' points, flattened, and its arity) and every point it
# assigns, in order
_Wave = tuple[tuple[int, ...], tuple, tuple, tuple[int, ...]]


class _Plan:
    """The propagation schedule of one search key (pinned set, constrained
    points, lead points), compiled wave by wave: the seed, the branch order,
    and per depth reached so far its branch position in the order, the
    branch point's cell and its wave (None at the leaf).

    It keeps the structural state of the search, the points assigned and,
    per tuple, its distinct points still open, and advances it by one wave
    per depth.  A wave's points and steps depend on the points assigned
    before it, never on their images, so one compiled wave serves every
    node at its depth, and every search of the key."""

    __slots__ = ("space", "color", "cells", "open", "assigned", "seed", "order", "depths")

    def __init__(self, space: _SearchSpace, partition: _Partition,
                 keys: list[int], lead_points: list[int]):
        self.space = space
        self.color, self.cells = color, cells = partition
        self.open = list(space.n_distinct)
        self.assigned = assigned = bytearray(space.n_points)
        self.seed = self._compile(keys)
        self.order = lead_points + sorted(
            (p for p in range(space.n_points) if not assigned[p] and p not in lead_points),
            key=lambda p: (len(cells[color[p]]), p),
        )
        self.depths: list[tuple[int, tuple[int, ...], Optional[_Wave]]] = []

    def extend(self) -> None:
        """Compile the next depth: its branch point is the first open point
        in the order after the last depth's."""
        depths, order = self.depths, self.order
        pos = depths[-1][0] + 1 if depths else 0
        while pos < len(order) and self.assigned[order[pos]]:
            pos += 1
        if pos == len(order):
            depths.append((pos, (), None))
            self.open = None  # every point is assigned: nothing left to compile
        else:
            x = order[pos]
            depths.append((pos, self.cells[self.color[x]], self._compile([x])))

    def _compile(self, initial: list[int]) -> _Wave:
        """Compile the wave assigning the initial points (none of them
        assigned yet) and every point they force, by the counting
        propagation run on assignedness alone.  A tuple left with one open
        point that sits once in it at a functional position forces that
        point: a step reads the image through the tuple's lookup.  Every
        other tuple the wave completes becomes a check."""
        space, open_, assigned = self.space, self.open, self.assigned
        incident, tuple_points, tuple_rel = space.incident, space.tuple_points, space.tuple_rel
        color = self.color
        for p in initial:
            assigned[p] = 1
        points = list(initial)
        steps: list[tuple] = []
        completed: list[int] = []
        forcing: list[int] = []
        # points are marked when queued and counted off their tuples in
        # queue order, so a step's other points are all assigned before it
        for p in points:
            for tid in incident[p]:
                left = open_[tid] - 1
                open_[tid] = left
                if left == 0:
                    completed.append(tid)
                if left != 1:
                    continue
                t = tuple_points[tid]
                for q in t:
                    if not assigned[q]:
                        break
                else:
                    continue  # its open point is queued already
                r = t.index(q)
                lookup = tuple_rel[tid].lookups.get(r)
                if lookup is None or t.count(q) > 1:
                    continue  # nothing forces q here
                steps.append((q, lookup, itemgetter(*(t[:r] + t[r + 1:])), color[q]))
                forcing.append(tid)
                assigned[q] = 1
                points.append(q)
        # a forcing tuple holds by its lookup; every other completed tuple
        # is checked once, its relation's tuples read at C level together
        checks = []
        checked = sorted(set(completed).difference(forcing))
        for rel, tids in groupby(checked, tuple_rel.__getitem__):
            flat = tuple(chain.from_iterable(map(tuple_points.__getitem__, tids)))
            checks.append((rel.members, itemgetter(*flat), len(rel.columns)))
        return tuple(initial), tuple(steps), tuple(checks), tuple(points)


def _wave(wave: _Wave, values: Iterable[int], img: list[int], pre: list[int],
          color: list[int]) -> bool:
    """Run a compiled wave on the image arrays: assign its initial points to
    values, each forced point to the image its lookup gives, each checked for
    injectivity and colour, then check the tuples it completes.  A lookup
    miss reads ``pre[-1]``, which is taken.  On failure the images it
    assigned are released; after a success the caller releases them."""
    initial, steps, checks, points = wave
    done = 0
    for p, v in zip(initial, values):
        if pre[v] != -1 or color[v] != color[p]:
            break
        img[p] = v
        pre[v] = p
        done += 1
    else:
        for q, lookup, getter, c in steps:
            v = lookup.get(getter(img), -1)
            if pre[v] != -1 or color[v] != c:
                break
            img[q] = v
            pre[v] = q
            done += 1
        else:
            for members, getter, arity in checks:
                # the images of the flattened tuples, read arity at a time
                if not members.issuperset(zip(*[iter(getter(img))] * arity)):
                    break
            else:
                return True
    for p in points[:done]:
        pre[img[p]] = -1
    return False


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
    automorphism per member of the lead's orbit, the first that the search
    constrained to send the lead to that image yields."""
    space = s.search_space
    n = space.n_points
    pinned = space.pinned(base)
    run = _wave

    keys = sorted(pinned)
    values = list(keys)
    for ex, ey in sorted(constraints.items()) if constraints else ():
        x, y = space.point(ex), space.point(ey)
        if x not in pinned:
            keys.append(x)
            values.append(y)
        elif y != x:
            return
    lead_points = list(space.lead_points(lead))
    # constrained searches ask whether points go to given targets, again
    # and again over the same points: their plans are kept
    key = (pinned, tuple(keys), tuple(lead_points))
    plan = space.plans.get(key)
    if plan is None:
        plan = _Plan(space, space.partition(pinned), keys, lead_points)
        if constraints:
            space.plans[key] = plan
    color = plan.color
    # a released point keeps its stale image, as a wave reads only points
    # assigned before it and pre alone says which images are free; the
    # extra entry pre[-1] is never free
    img = [-1] * n
    pre = [-1] * n + [n]
    if not run(plan.seed, values, img, pre, color):
        return

    depths, n_lead = plan.depths, len(lead_points)

    def gen(d: int, lead_open: bool) -> Iterator[tuple[int, ...]]:
        if d == len(depths):
            plan.extend()
        pos, cell, wave = depths[d]
        if lead_open and pos >= n_lead:
            # the lead's image is fixed: keep its first completion only
            rest = gen(d, False)
            try:
                for flat in rest:
                    yield flat
                    break
            finally:
                rest.close()
            return
        if wave is None:
            yield tuple(img)
            return
        points = wave[3]
        for y in cell:
            if pre[y] == -1 and run(wave, (y,), img, pre, color):
                try:
                    yield from gen(d + 1, lead_open)
                finally:
                    for p in points:
                        pre[img[p]] = -1

    yield from gen(0, n_lead > 0)


def _to_automorphism(s: MultiSortedStructure, images: tuple[int, ...]) -> Automorphism:
    """Wrap a search's image array.  ``Automorphism.compose`` and
    ``inverse``, ``verify.choice_family_map`` and ``YSystem.transports``
    build automorphisms directly, so the tracer's
    ``automorphisms.materialised`` counts search arrays only."""
    return Automorphism(images, s)


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
            _to_automorphism(s, images)
            for images in sorted(_solutions(s, base_t))
        )
        groups[base_t] = AutomorphismGroup(structure=s, base=base_t, members=members)
    return groups[base_t]


def iter_automorphisms(
    s: MultiSortedStructure, base: Iterable[Element] = ()
) -> Iterator[Automorphism]:
    """Lazily yield Aut(s/base), the automorphisms fixing base, in search order."""
    check_budget(s)
    for images in _solutions(s, tuple(sorted(set(base)))):
        yield _to_automorphism(s, images)


def find_automorphism(
    s: MultiSortedStructure, constraints: dict[Element, Element]
) -> Optional[Automorphism]:
    """The first automorphism extending constraints, in the order of the
    constrained search; None when there is none."""
    check_budget(s)
    images = next(_solutions(s, (), constraints), None)
    return None if images is None else _to_automorphism(s, images)


def carries(
    s: MultiSortedStructure,
    base: Iterable[Element],
    x: tuple[Element, ...],
    y: tuple[Element, ...],
) -> bool:
    """Whether some automorphism fixing base pointwise sends x to y
    componentwise, that is, whether y is in the orbit of x under
    Aut(s/base): one search constrained to send x to y, stopped at its first
    solution.  Pairs that are not a consistent, injective map are answered
    without a search."""
    constraints = dict(zip(x, y))
    if (
        len(x) != len(y)
        or any(constraints[e] != f for e, f in zip(x, y))
        or len(set(constraints.values())) != len(constraints)
    ):
        return False
    check_budget(s)
    search = _solutions(s, tuple(base), constraints)
    try:
        return next(search, None) is not None
    finally:
        search.close()


def is_automorphism(s: MultiSortedStructure, aut: Automorphism) -> bool:
    """Validate the Automorphism invariant on the search space's points: each
    sort's slice permutes that sort's points, every constant is fixed, and
    every function graph and relation (``_Rel.columns``) maps into itself, so
    onto itself, as the array is a bijection and the tuple sets are finite."""
    space = s.search_space
    images = aut.images
    if len(images) != space.n_points:
        return False
    for name, size in s.sorts:
        off = space.offsets[name]
        if sorted(images[off:off + size]) != list(range(off, off + size)):
            return False
    if any(images[p] != p for p in space.const_points):
        return False
    image_of = images.__getitem__
    return all(
        rel.members.issuperset(
            map(image_of, rel.columns[0]) if len(rel.columns) == 1
            else zip(*[map(image_of, column) for column in rel.columns])
        )
        for rel in space.rels
    )


def _images(
    s: MultiSortedStructure,
    base: Iterable[Element],
    x: tuple[Element, ...],
) -> Iterator[tuple[int, ...]]:
    """One automorphism (a global image array) per image of x under
    Aut(s/base), the first the lead search finds sending x there, in search
    order.  The search runs once per pinned set and lead points: each array
    it yields has its moved points noted, and the arrays are kept on the
    search space once the search runs to the end.  A caller may stop early;
    the search then stops with it and is not kept.  A lead without points
    has one image, so its search stops at the first completion (a search
    with no lead, ``_solutions(lead=())``, yields every automorphism)."""
    check_budget(s)
    space = s.search_space
    pinned = space.pinned(base)
    key = (pinned, space.lead_points(x))
    kept = space.leads.get(key)
    if kept is not None:
        yield from kept
        return
    arrays = []
    search = _solutions(s, tuple(base), lead=x)
    try:
        for images in search:
            space.note_moved(pinned, images)
            arrays.append(images)
            yield images
            if not key[1]:
                break
    finally:
        search.close()
    space.leads[key] = tuple(arrays)


def orbit_of(
    s: MultiSortedStructure,
    base: Iterable[Element],
    x: tuple[Element, ...],
) -> tuple[tuple[Element, ...], ...]:
    """The orbit of x under Aut(s/base), read off one lead search."""
    space = s.search_space
    points, elements = [space.point(e) for e in x], space.elements
    return tuple(sorted(
        tuple(elements[images[p]] for p in points) for images in _images(s, base, x)
    ))


def orbit_certificate(
    s: MultiSortedStructure,
    base: Iterable[Element],
    x: tuple[Element, ...],
) -> tuple[int, bool]:
    """An orbit-stabiliser certificate for the order of Aut(s/base): the
    product, over x's points, of their cell sizes in the stable partition of
    base, and whether the search over base constrained to fix x has exactly
    one completion, that is, whether Aut(s/base + x) = 1.

    |Aut(s/base)| = |orbit of x| . |Aut(s/base + x)| (Seress, *Permutation
    Group Algorithms*, 2003), and an automorphism fixing base keeps its
    stable colouring, so every image of x keeps each of x's points in its
    own cell.  When the second factor is 1, the product therefore bounds
    the order from above.  The constrained search runs over base's own
    partition: refining base + x would cost one more pinned set."""
    check_budget(s)
    space = s.search_space
    color, cells = space.partition(space.pinned(base))
    cell_product = prod(len(cells[color[p]]) for p in space.lead_points(x))
    search = _solutions(s, tuple(base), {e: e for e in x})
    try:
        alone = len(list(islice(search, 2))) == 1
    finally:
        search.close()
    return cell_product, alone


def dcl_of(s: MultiSortedStructure, base: Iterable[Element]) -> tuple[Element, ...]:
    """Fixed points of Aut(s/base): the finite surrogate of definable closure."""
    members = automorphism_group(s, base).members
    return tuple(
        el for p, el in enumerate(s.search_space.elements)
        if all(aut.images[p] == p for aut in members)
    )


def _fixed(
    s: MultiSortedStructure, base: Iterable[Element], x: tuple[Element, ...]
) -> bool:
    """x is fixed by Aut(s/base), componentwise: x in dcl(base).

    A point alone in its cell of the pinned set's stable partition is fixed;
    x is moved if another of its points was moved by an automorphism found
    over the pinned set.  Otherwise x is fixed when no image of the lead
    search of x (``_images``, kept or run until an image moves x) moves it."""
    check_budget(s)
    space = s.search_space
    pinned = space.pinned(base)
    color, cells = space.partition(pinned)
    lead = space.lead_points(x)
    open_points = [p for p in lead if len(cells[color[p]]) > 1]
    if not open_points:
        return True
    moved = space.moved.get(pinned, ())
    if any(p in moved for p in open_points):
        return False
    return not any(
        images[p] != p for images in _images(s, base, x) for p in open_points
    )


def interdefinable(
    s: MultiSortedStructure,
    base: Iterable[Element],
    x: tuple[Element, ...],
    y: tuple[Element, ...],
) -> bool:
    """x in dcl(base + y) and y in dcl(base + x), componentwise."""
    base_t, x, y = tuple(base), tuple(x), tuple(y)
    return _fixed(s, base_t + y, x) and _fixed(s, base_t + x, y)


@dataclass(frozen=True)
class RestrictedAutGroup:
    """Restrictions of base-fixing automorphisms to a finite carrier of tuples.

    ``perms[k]`` is the permutation of ``carrier`` realized by group element k;
    ``reps[k]`` is the first automorphism restricting to it that the
    builder's lead search finds.
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

    @cached_property
    def perm_positions(self) -> dict[tuple[int, ...], int]:
        """Each perm to its group element."""
        return {perm: k for k, perm in enumerate(self.perms)}

    @cached_property
    def carrier_index(self) -> dict[tuple[int, ...], int]:
        """Each carrier tuple, as global points, to its position in carrier."""
        return _carrier_index(self.structure, self.carrier)

    def is_regular(self) -> bool:
        """As many perms as carrier tuples, sending member 0 to every
        member: a transitive action with |G| = |X| has trivial stabilisers."""
        size = len(self.carrier)
        return len(self.perms) == size and len({p[0] for p in self.perms}) == size


def _carrier_index(s: MultiSortedStructure, carrier: tuple) -> dict[tuple[int, ...], int]:
    """Each carrier tuple, as global points, to its position in carrier."""
    point = s.search_space.point
    return {tuple(map(point, t)): k for k, t in enumerate(carrier)}


def _restriction(images: tuple[int, ...], index: dict[tuple[int, ...], int]) -> tuple[int, ...]:
    """The permutation of a carrier (its ``_carrier_index``) that an image
    array induces, with -1 where a tuple's image leaves the carrier."""
    image_of = images.__getitem__
    return tuple(index.get(tuple(map(image_of, t)), -1) for t in index)


def _relabelled(
    perms: Iterable[tuple[int, ...]], sigma: list[int]
) -> list[tuple[int, ...]]:
    """Perms of a carrier read on a relabelled copy of it: member i becomes
    member sigma[i], so a perm p becomes the perm sending sigma[i] to
    sigma[p[i]]."""
    relabel = sigma.__getitem__
    preimage = sorted(range(len(sigma)), key=relabel)
    return [tuple(map(relabel, map(p.__getitem__, preimage))) for p in perms]


def _restricted(
    s: MultiSortedStructure,
    base: Iterable[Element],
    tuples: Iterable[tuple[Element, ...]],
    invariant: bool,
    lead: Optional[tuple[Element, ...]] = None,
) -> RestrictedAutGroup:
    """The restrictions to the carrier of the automorphisms of Aut(s/base)
    that map it onto itself, from one lead search.

    The lead must fix the restriction; it defaults to the carrier's points.
    Each image of the lead yields one automorphism and so one restriction,
    read off the search's image array.  An automorphism sending a carrier
    tuple outside the carrier is skipped, or raises NotInvariant when the
    carrier must be invariant; one is materialised only to be kept as a
    rep or to be raised.
    """
    base_t = tuple(sorted(set(base)))
    carrier = tuple(sorted(set(tuples)))
    index = _carrier_index(s, carrier)
    if lead is None:
        lead = tuple(e for t in carrier for e in t)
    found: dict[tuple[int, ...], Automorphism] = {}
    for images in _images(s, base_t, lead):
        perm = _restriction(images, index)
        if -1 in perm:
            if invariant:
                raise NotInvariant(_to_automorphism(s, images), carrier[perm.index(-1)])
        elif perm not in found:
            found[perm] = _to_automorphism(s, images)
    return _restriction_group(s, base_t, carrier, found)


def _restriction_group(
    s: MultiSortedStructure,
    base: Iterable[Element],
    carrier: tuple[tuple[Element, ...], ...],
    found: dict[tuple[int, ...], Automorphism],
) -> RestrictedAutGroup:
    """The restriction group of the perms found, each with its rep: the
    perms sorted, the group they form and the reps in the same order."""
    perms = tuple(sorted(found))
    return RestrictedAutGroup(
        structure=s,
        base=tuple(sorted(set(base))),
        carrier=carrier,
        group=_perm_group(perms),
        perms=perms,
        reps=tuple(found[p] for p in perms),
    )


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
