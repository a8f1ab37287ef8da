"""Directed systems of finite groups, finite-stage inverse limits, and the
restriction epimorphisms between restricted automorphism groups.

Index sets are finite and user-supplied; transitions are epimorphisms checked
exhaustively.  A stage limit is the group of transition-compatible tuples
under componentwise product.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

from .automorphisms import (
    RestrictedAutGroup,
    _fixed,
    _restricted,
    _restriction,
)
from .errors import (
    AxiomViolation,
    FunctorialityFailure,
    InvalidInput,
    NotDirected,
    NotWellDefined,
    TransitionNotEpi,
)
from .groups import FiniteGroup, validate_group
from .structures import (
    Element,
    MultiSortedStructure,
)
from .witness import YSet, YTuple, compute_Y, tuple_endpoints

Index = str


@dataclass(frozen=True)
class DirectedSystemOfGroups:
    """Poset-indexed groups with epimorphic transitions low <- high.

    ``order`` holds the reflexive-transitive comparability pairs (low, high);
    ``transitions[(low, high)]`` maps element indices of the high group onto
    the low group.
    """

    indices: tuple[Index, ...]
    order: tuple[tuple[Index, Index], ...]
    groups: tuple[tuple[Index, FiniteGroup], ...]
    transitions: tuple[tuple[tuple[Index, Index], tuple[int, ...]], ...]

    def group(self, idx: Index) -> FiniteGroup:
        for name, g in self.groups:
            if name == idx:
                return g
        raise InvalidInput(f"unknown index {idx!r}")

    def transition(self, low: Index, high: Index) -> tuple[int, ...]:
        if low == high:
            return tuple(range(self.group(low).order))
        for (lo, hi), mapping in self.transitions:
            if (lo, hi) == (low, high):
                return mapping
        raise InvalidInput(f"no transition {high!r} -> {low!r}")

    def leq(self, low: Index, high: Index) -> bool:
        return low == high or (low, high) in self.order


def validate_system(
    indices: Sequence[Index],
    order_pairs: Iterable[tuple[Index, Index]],
    groups: dict[Index, FiniteGroup],
    transitions: dict[tuple[Index, Index], Sequence[int]],
) -> DirectedSystemOfGroups:
    """Check poset shape, epimorphism and functoriality of every transition,
    and directedness of the index set."""
    idx = tuple(indices)
    if len(set(idx)) != len(idx):
        raise InvalidInput("duplicate indices")
    for i in idx:
        if i not in groups:
            raise InvalidInput(f"index {i!r} has no group")

    # reflexive-transitive closure of the supplied pairs
    leq = {(i, i) for i in idx}
    leq.update((lo, hi) for lo, hi in order_pairs)
    for lo, hi in leq:
        if lo not in idx or hi not in idx:
            raise InvalidInput(f"order pair ({lo!r}, {hi!r}) uses unknown index")
    changed = True
    while changed:
        changed = False
        for a, b in list(leq):
            for c, d in list(leq):
                if b == c and (a, d) not in leq:
                    leq.add((a, d))
                    changed = True
    for a, b in leq:
        if a != b and (b, a) in leq:
            raise AxiomViolation("order-antisymmetry", (a, b))

    for a, b in itertools.combinations(idx, 2):
        if not any((a, c) in leq and (b, c) in leq for c in idx):
            raise NotDirected((a, b))

    strict = {(lo, hi) for lo, hi in leq if lo != hi}
    maps: dict[tuple[Index, Index], tuple[int, ...]] = {}
    for lo, hi in strict:
        if (lo, hi) not in transitions:
            raise InvalidInput(f"missing transition {hi!r} -> {lo!r}")
    for (lo, hi), raw in transitions.items():
        if (lo, hi) not in strict:
            raise InvalidInput(f"transition for incomparable pair ({lo!r}, {hi!r})")
        g_hi, g_lo = groups[hi], groups[lo]
        mapping = tuple(raw)
        if len(mapping) != g_hi.order or any(
            not 0 <= v < g_lo.order for v in mapping
        ):
            raise TransitionNotEpi((lo, hi), "malformed element map")
        for x in g_hi.elements:
            for y in g_hi.elements:
                if mapping[g_hi.mul(x, y)] != g_lo.mul(mapping[x], mapping[y]):
                    raise TransitionNotEpi((lo, hi), f"not a homomorphism at ({x}, {y})")
        if len(set(mapping)) != g_lo.order:
            raise TransitionNotEpi((lo, hi), "not surjective")
        maps[(lo, hi)] = mapping

    for lo, mid in strict:
        for hi in idx:
            if (mid, hi) in strict:
                via = tuple(maps[(lo, mid)][v] for v in maps[(mid, hi)])
                if via != maps[(lo, hi)]:
                    raise FunctorialityFailure((lo, mid, hi))

    return DirectedSystemOfGroups(
        indices=idx,
        order=tuple(sorted(leq)),
        groups=tuple((i, groups[i]) for i in idx),
        transitions=tuple(sorted(maps.items())),
    )


@dataclass(frozen=True)
class FiniteStageLimit:
    """Compatible tuples of a downward-closed stage, as a group."""

    system: DirectedSystemOfGroups
    stage: tuple[Index, ...]
    elements: tuple[tuple[int, ...], ...]
    group: FiniteGroup


def finite_stage_limit(
    sys: DirectedSystemOfGroups, stage: Sequence[Index]
) -> FiniteStageLimit:
    stage_t = tuple(stage)
    stage_set = set(stage_t)
    if len(stage_set) != len(stage_t):
        raise InvalidInput("duplicate stage index")
    for lo, hi in sys.order:
        if hi in stage_set and lo not in stage_set:
            raise AxiomViolation("stage-not-downward-closed", (lo, hi))
    if len(stage_t) > 4:
        raise InvalidInput("stages are capped at 4 indices")

    groups = [sys.group(i) for i in stage_t]
    compat = []
    for combo in itertools.product(*(range(g.order) for g in groups)):
        ok = True
        for i, lo in enumerate(stage_t):
            for j, hi in enumerate(stage_t):
                if lo != hi and sys.leq(lo, hi):
                    if sys.transition(lo, hi)[combo[j]] != combo[i]:
                        ok = False
                        break
            if not ok:
                break
        if ok:
            compat.append(combo)
    pos = {t: i for i, t in enumerate(compat)}
    table = []
    for t in compat:
        row = []
        for u in compat:
            prod = tuple(g.mul(a, b) for g, a, b in zip(groups, t, u))
            row.append(pos[prod])
        table.append(row)
    ident = pos[tuple(g.identity for g in groups)]
    group = validate_group(table, ident)
    return FiniteStageLimit(
        system=sys, stage=stage_t, elements=tuple(compat), group=group
    )


# ---------------------------------------------------------------------------
# restriction epimorphisms between restricted automorphism groups


@dataclass(frozen=True)
class GroupHomomorphism:
    source: RestrictedAutGroup
    target: RestrictedAutGroup
    mapping: tuple[int, ...]

    def is_surjective(self) -> bool:
        return len(set(self.mapping)) == self.target.order

    def kernel(self) -> tuple[int, ...]:
        ident = self.target.group.identity
        return tuple(i for i, v in enumerate(self.mapping) if v == ident)


def restriction_epimorphism(
    s: MultiSortedStructure,
    base: tuple[Element, ...],
    f_small: YTuple,
    f_big: YTuple,
) -> GroupHomomorphism:
    """The map sending each restriction at the bigger tuple to the induced
    restriction at the smaller one.

    Well-definedness is checked: base-fixing automorphisms agreeing on the
    bigger carrier must agree on the smaller one.
    """
    a_small, b_small = tuple_endpoints(s, f_small)
    a_big, b_big = tuple_endpoints(s, f_big)
    y_small = compute_Y(s, a_small, b_small, f=f_small, base=base)
    y_big = compute_Y(s, a_big, b_big, f=f_big, base=base)
    big = _restricted(s, base, y_big.members, False, y_big.reference)
    return _epimorphism(s, base, y_small, big)


def raw_restriction_epimorphism(
    s: MultiSortedStructure, u: int, v: int
) -> GroupHomomorphism:
    """``restriction_epimorphism`` over the closure of u from the full
    reference of Y(u, v), whose group is the F-group, to the raw least
    morphism u -> v, built from the structure's Y-sets."""
    ys = s.y_system
    big = ys.f_group(u, v)
    return _epimorphism(s, big.base, ys.raw_y_set(u, v), big)


def _epimorphism(
    s: MultiSortedStructure,
    base: tuple[Element, ...],
    y_small: YSet,
    big: RestrictedAutGroup,
) -> GroupHomomorphism:
    """The restriction map from the bigger group onto the group of the
    smaller Y-set.  It is well defined when every smaller-carrier tuple is
    fixed over the base and the bigger carrier's points; each restriction is
    then read off a rep of the bigger group."""
    small = _restricted(s, base, y_small.members, False, y_small.reference)
    pinned = tuple(base) + tuple(e for t in big.carrier for e in t)
    for t in small.carrier:
        if not _fixed(s, pinned, t):
            raise NotWellDefined(("moves over the bigger carrier", t))
    mapping = []
    for rep in big.reps:
        perm = _restriction(rep.images, small.carrier_index)
        if -1 in perm:
            raise NotWellDefined(("leaves the smaller carrier", rep))
        mapping.append(small.perm_positions[perm])
    hom = GroupHomomorphism(source=big, target=small, mapping=tuple(mapping))
    for i in range(big.order):
        for j in range(big.order):
            lhs = mapping[big.group.mul(i, j)]
            rhs = small.group.mul(mapping[i], mapping[j])
            if lhs != rhs:
                raise NotWellDefined(("not a homomorphism", i, j))
    return hom
