"""Directed systems of finite groups, finite-stage inverse limits, and the
containment/normality checks for the restricted automorphism groups.

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
    _escapee,
    _restriction,
    automorphism_group,
    restricted_group,
    setwise_restricted_group,
)
from .errors import (
    AxiomViolation,
    FunctorialityFailure,
    InvalidInput,
    NotDirected,
    NotWellDefined,
    TransitionNotEpi,
)
from .groups import FiniteGroup, compose_perms, validate_group
from .report import Report
from .structures import (
    Element,
    MultiSortedStructure,
    morphisms_between,
    object_closure,
    pair_base,
)
from .witness import YTuple, compute_Y, tuple_endpoints

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
        if lo not in groups or hi not in groups:
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
                if (lo, hi) not in strict:
                    raise AxiomViolation("order-transitivity", (lo, mid, hi))
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

    def projection_surjective(self, idx: Index) -> bool:
        pos = self.stage.index(idx)
        return len({e[pos] for e in self.elements}) == self.system.group(idx).order


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


def inverse_limit_stage(
    sys: DirectedSystemOfGroups, stage: Sequence[Index]
) -> FiniteGroup:
    return finite_stage_limit(sys, stage).group


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
    big_group = setwise_restricted_group(s, base, y_big.members)
    small_group = setwise_restricted_group(s, base, y_small.members)
    small_index = {t: i for i, t in enumerate(small_group.carrier)}
    big_index = {t: i for i, t in enumerate(big_group.carrier)}

    ambient = automorphism_group(s, base)
    induced: dict[tuple[int, ...], tuple[int, ...]] = {}
    for aut in ambient.members:
        key = _restriction(aut, big_group.carrier, big_index)
        if key is None:
            continue
        small_perm = _restriction(aut, small_group.carrier, small_index)
        if small_perm is None:
            raise NotWellDefined((aut, _escapee(aut, small_group.carrier, small_index)))
        prev = induced.get(key)
        if prev is None:
            induced[key] = small_perm
        elif prev != small_perm:
            raise NotWellDefined((key, prev, small_perm))

    mapping = tuple(
        small_group.perm_index(induced[p]) for p in big_group.perms
    )
    hom = GroupHomomorphism(source=big_group, target=small_group, mapping=mapping)
    for i in range(big_group.order):
        for j in range(big_group.order):
            lhs = mapping[big_group.group.mul(i, j)]
            rhs = small_group.group.mul(mapping[i], mapping[j])
            if lhs != rhs:
                raise NotWellDefined(("not a homomorphism", i, j))
    return hom


def system_to_json(sys: DirectedSystemOfGroups) -> dict:
    from .groups import group_to_json

    strict = [(lo, hi) for lo, hi in sys.order if lo != hi]
    return {
        "indices": list(sys.indices),
        "order": [list(p) for p in strict],
        "groups": {idx: group_to_json(g) for idx, g in sys.groups},
        "transitions": [
            {"low": lo, "high": hi, "map": list(mapping)}
            for (lo, hi), mapping in sys.transitions
        ],
    }


def system_from_json(data: dict) -> DirectedSystemOfGroups:
    from .groups import group_from_json

    try:
        indices = [str(i) for i in data["indices"]]
        order_pairs = [(str(a), str(b)) for a, b in data["order"]]
        groups = {str(k): group_from_json(v) for k, v in data["groups"].items()}
        transitions = {
            (str(t["low"]), str(t["high"])): [int(v) for v in t["map"]]
            for t in data["transitions"]
        }
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInput(f"system JSON malformed: {exc}") from exc
    return validate_system(indices, order_pairs, groups, transitions)


# ---------------------------------------------------------------------------
# the containment / centrality / normality report


def _perm_set(rg: RestrictedAutGroup) -> set[tuple[int, ...]]:
    return set(rg.perms)


def _is_normal_in(sub: set[tuple[int, ...]], big: RestrictedAutGroup) -> bool:
    for k, g in enumerate(big.perms):
        gi = big.perms[big.group.inv(k)]
        for h in sub:
            if compose_perms(g, compose_perms(h, gi)) not in sub:
                return False
    return True


def check_pi2_gamma2(
    instances: Sequence[tuple[str, MultiSortedStructure, tuple[int, int]]],
) -> Report:
    """Per instance: the pair-base group sits centrally in the
    interdefinability-preserving group, which sits inside the full
    restriction group; both are normal; abelian stages stay abelian;
    and the two-stage raw/full system has the full group as its limit."""
    report = Report(instance="restricted-group tower")
    for name, s, (u, v) in instances:
        slug = name.replace(" ", "-")
        base_u = object_closure(s, u)
        y_full = compute_Y(s, u, v)
        f_full = setwise_restricted_group(s, base_u, y_full.members)
        g_sub = restricted_group(s, pair_base(s, u, v), y_full.members)
        raw_f = (Element("M", min(morphisms_between(s, u, v))),)
        y_raw = compute_Y(s, u, v, f=raw_f, base=base_u)

        # the interdefinability-preserving members: those whose global reps
        # stabilize every dcl-class carrier attached to the pair
        pi_perms = set()
        raw_set = set(y_raw.members)
        for k, rep in enumerate(f_full.reps):
            if all(rep.apply_tuple(t) in raw_set for t in y_raw.members):
                pi_perms.add(f_full.perms[k])

        def tower(
            name=name, f_full=f_full, g_sub=g_sub, pi_perms=pi_perms
        ):
            f_set = _perm_set(f_full)
            g_set = _perm_set(g_sub)
            if not g_set <= pi_perms:
                return {"instance": name, "problem": "G not inside Pi"}
            if not pi_perms <= f_set:
                return {"instance": name, "problem": "Pi not inside F"}
            return None

        report.add(
            f"{slug}.tower-containment",
            f"{name}: pair-base group <= interdefinability-preservers <= full group",
            tower,
            surrogates=("pi-as-interdefinability-preservers",),
        )

        def central(name=name, f_full=f_full, g_sub=g_sub, pi_perms=pi_perms):
            for p in _perm_set(g_sub):
                for q in pi_perms:
                    if compose_perms(p, q) != compose_perms(q, p):
                        return {"instance": name, "noncommuting": (p, q)}
            return None

        report.add(
            f"{slug}.gamma-central-in-pi",
            f"{name}: the pair-base group is central in the preservers",
            central,
        )

        def normal(name=name, f_full=f_full, g_sub=g_sub, pi_perms=pi_perms):
            if not _is_normal_in(_perm_set(g_sub), f_full):
                return {"instance": name, "problem": "G not normal in F"}
            if not _is_normal_in(pi_perms, f_full):
                return {"instance": name, "problem": "Pi not normal in F"}
            return None

        report.add(
            f"{slug}.normal-in-full-group",
            f"{name}: both subgroups are normal in the full restriction group",
            normal,
        )

        def abelian(name=name, g_sub=g_sub):
            if not g_sub.group.is_abelian():
                return {"instance": name, "order": g_sub.group.order}
            return None

        report.add(
            f"{slug}.abelian-stage",
            f"{name}: the pair-base stage is abelian",
            abelian,
        )

        def two_stage(name=name, s=s, base_u=base_u, raw_f=raw_f, y_full=y_full):
            hom = restriction_epimorphism(s, base_u, raw_f, y_full.reference)
            if not hom.is_surjective():
                return {"instance": name, "problem": "restriction not surjective"}
            sys = validate_system(
                indices=("raw", "full"),
                order_pairs=[("raw", "full")],
                groups={"raw": hom.target.group, "full": hom.source.group},
                transitions={("raw", "full"): hom.mapping},
            )
            lim = inverse_limit_stage(sys, ("raw", "full"))
            if lim.order != hom.source.group.order:
                return {"instance": name, "limit": lim.order}
            return None

        report.add(
            f"{slug}.two-stage-limit",
            f"{name}: the raw/full restriction system is a directed system "
            "whose stage limit is the full group",
            two_stage,
        )
    return report
