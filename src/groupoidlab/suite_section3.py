"""The section3 suite: claims about the Y-set machinery of one instance,
its F-groups, their pair-base subgroups, composites and transports."""

from __future__ import annotations

import itertools
from typing import Optional

from .automorphisms import carries
from .groups import FiniteGroup, compose_perms
from .report import INDEPENDENCE_SURROGATE, Report
from .structures import (
    Element,
    MultiSortedStructure,
    has_cover,
    morphisms_between,
    object_closure,
    object_tuple,
    objects_of,
    vertex_morphisms,
)
from .suite_witness import standard_witness
from .witness import compute_Y, raw_morphism, x_tuples


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


def run(s: MultiSortedStructure, g: FiniteGroup) -> Report:
    return verify_section3(s)
